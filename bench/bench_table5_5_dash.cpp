// Reproduces Table 5.5: read latency of a two-level hierarchical CFM vs
// the published DASH numbers.  Both machines: 16 processors in 4
// clusters, 16-byte cache lines; the CFM has memory bank cycle c = 2.
// The CFM column is MEASURED on the nested cycle-level simulators.
#include <cstdio>

#include "analytic/latency.hpp"
#include "cache/hierarchical.hpp"
#include "report_main.hpp"

using namespace cfm;
using cache::HierarchicalCfm;
using sim::Cycle;
using sim::Json;

namespace {

HierarchicalCfm::Outcome run_one(HierarchicalCfm& sys, Cycle& t,
                                 HierarchicalCfm::ReqId id) {
  while (true) {
    sys.tick(t);
    ++t;
    if (auto r = sys.take_result(id)) return *r;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  sim::Report report("table5_5_dash");
  HierarchicalCfm sys({});  // defaults == the Table 5.5 machine
  Cycle t = 0;

  // Global (clean) read: block 100 cold everywhere.
  const auto global = run_one(sys, t, sys.read(t, 0, 100));
  // Local cluster read: now in cluster 0's L2; processor 1 reads it.
  const auto local = run_one(sys, t, sys.read(t, 1, 100));
  // Dirty remote: processor 0 dirties it, cluster 2 reads it.
  (void)run_one(sys, t, sys.write(t, 0, 100, 0, 7));
  const auto dirty = run_one(sys, t, sys.read(t, 8, 100));

  const analytic::HierarchicalLatencyModel model{8, 2};
  const analytic::DashLatencies dash;

  report.set_param("processors", 16);
  report.set_param("clusters", 4);
  report.set_param("line_bytes", 16);
  report.set_param("beta_cluster", sys.beta_cluster());
  report.set_param("beta_global", sys.beta_global());

  std::printf("Table 5.5 — Read latency of CFM and DASH "
              "(16 processors, 4 clusters, 16-byte lines)\n\n");
  std::printf("%-44s %-16s %-12s %-8s\n", "Read access", "CFM (measured)",
              "CFM (paper)", "DASH");
  std::printf("%-44s %-16llu %-12u %-8u\n", "Retrieve from local cluster",
              static_cast<unsigned long long>(local.completed - local.issued),
              model.local_cluster_read(), dash.local_cluster_read);
  std::printf("%-44s %-16llu %-12u %-8u\n",
              "Retrieve from global memory (remote cluster)",
              static_cast<unsigned long long>(global.completed - global.issued),
              model.global_read(), dash.global_read);
  std::printf("%-44s %-16llu %-12u %-8u\n", "Retrieve from dirty remote",
              static_cast<unsigned long long>(dirty.completed - dirty.issued),
              model.dirty_remote_read_paper(), dash.dirty_remote_read);

  const auto add_latency_row = [&report](const char* access,
                                         const HierarchicalCfm::Outcome& o,
                                         std::uint32_t paper,
                                         std::uint32_t dash_cycles) {
    auto row = Json::object();
    row["access"] = access;
    row["cfm_measured"] = o.completed - o.issued;
    row["cfm_paper"] = paper;
    row["dash"] = dash_cycles;
    report.add_row("read_latency", std::move(row));
  };
  add_latency_row("local_cluster", local, model.local_cluster_read(),
                  dash.local_cluster_read);
  add_latency_row("global", global, model.global_read(), dash.global_read);
  add_latency_row("dirty_remote", dirty, model.dirty_remote_read_paper(),
                  dash.dirty_remote_read);

  std::printf("\nbeta (cluster) = %u, beta (global) = %u cycles\n",
              sys.beta_cluster(), sys.beta_global());
  const bool classes_ok =
      local.cls == HierarchicalCfm::AccessClass::LocalCluster &&
      global.cls == HierarchicalCfm::AccessClass::Global &&
      dirty.cls == HierarchicalCfm::AccessClass::DirtyRemote;
  std::printf("measured classes: local=%s global=%s dirty=%s\n",
              local.cls == HierarchicalCfm::AccessClass::LocalCluster ? "ok" : "?",
              global.cls == HierarchicalCfm::AccessClass::Global ? "ok" : "?",
              dirty.cls == HierarchicalCfm::AccessClass::DirtyRemote ? "ok" : "?");
  report.add_scalar("access_classes_ok", classes_ok);
  std::printf("\nNote: the paper counts 7 beta-phases for the dirty-remote\n"
              "chain (63); our machine resolves it in 6 phases (54) because\n"
              "the controller-to-owner trigger rides the shared directory\n"
              "instead of costing a tour — see EXPERIMENTS.md.  The shape\n"
              "(CFM well under DASH at every row) is the paper's claim.\n");
  // A measured access class that leaves its row makes the table wrong.
  return bench::finish(opts, report, classes_ok ? 0 : 1);
}
