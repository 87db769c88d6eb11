// Reproduces the Fig 2.1 motivation: tree saturation in a buffered MIN.
// A single hot sink backs up switch queues toward the sources; the
// latency of *background* traffic (to other sinks) collapses with it.
// The CFM column is the same offered load on the conflict-free machine:
// nothing happens, by construction.
#include <cstdio>

#include "report_main.hpp"
#include "sim/audit.hpp"
#include "workload/access_gen.hpp"
#include "workload/lock_workload.hpp"
#include "workload/trace.hpp"

int main(int argc, char** argv) {
  using namespace cfm;
  using namespace cfm::workload;
  const auto opts = bench::parse_options(argc, argv, {.audit = true});
  sim::Report report("fig2_1_tree_saturation");
  report.set_param("ports", 16);
  report.set_param("offered_rate", 0.35);
  report.set_param("queue_capacity", 2);
  report.set_param("cycles", 30000);
  report.set_param("seed", 2026);

  std::printf("Fig 2.1 — Tree saturation caused by a hot spot\n");
  std::printf("(16-port buffered omega, queue capacity 2, offered rate 0.35 "
              "per source per cycle)\n\n");
  std::printf("%-13s %-17s %-14s %-17s %-13s\n", "hot fraction",
              "background lat", "hot latency", "saturated queues",
              "reject rate");
  for (const double hot : {0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7}) {
    const auto r = run_hotspot_buffered(16, 0.35, hot, 2, 30000, 2026);
    std::printf("%-13.2f %-17.2f %-14.2f %-17.3f %-13.3f\n", r.hot_fraction,
                r.background_latency, r.hot_latency, r.saturated_queues,
                r.reject_rate);
    auto row = sim::Json::object();
    row["hot_fraction"] = r.hot_fraction;
    row["background_latency"] = r.background_latency;
    row["hot_latency"] = r.hot_latency;
    row["saturated_queues"] = r.saturated_queues;
    row["reject_rate"] = r.reject_rate;
    report.add_row("buffered_min", std::move(row));
  }

  std::printf("\nwith Ultracomputer/RP3 fetch-and-add combining at the "
              "switches (§2.1.1):\n");
  std::printf("%-13s %-17s %-14s %-13s %-13s\n", "hot fraction",
              "background lat", "hot latency", "reject rate", "combined");
  for (const double hot : {0.2, 0.5, 0.7}) {
    const auto r =
        run_hotspot_buffered(16, 0.35, hot, 2, 30000, 2026, /*combining=*/true);
    std::printf("%-13.2f %-17.2f %-14.2f %-13.3f %-13llu\n", r.hot_fraction,
                r.background_latency, r.hot_latency, r.reject_rate,
                static_cast<unsigned long long>(r.combined));
    auto row = sim::Json::object();
    row["hot_fraction"] = r.hot_fraction;
    row["background_latency"] = r.background_latency;
    row["hot_latency"] = r.hot_latency;
    row["reject_rate"] = r.reject_rate;
    row["combined"] = r.combined;
    report.add_row("combining_min", std::move(row));
  }
  std::printf("(combining relieves — but does not remove — the hot spot,\n"
              "and \"can be applied only among operations that access the\n"
              "same memory location\"; the CFM needs no such hardware.)\n");

  std::printf("\nSame offered load on the conflict-free machine "
              "(16 processors):\n");
  const auto cfm = measure_cfm(16, 1, 0.35, 30000, 2026);
  std::printf("  efficiency %.3f, mean access time %.2f cycles, "
              "%llu conflicts — a hot block is just traffic.\n",
              cfm.efficiency, cfm.mean_access_time,
              static_cast<unsigned long long>(cfm.conflicts));
  std::printf("\nShape check: background latency and queue saturation grow\n"
              "sharply with the hot fraction — unrelated traffic pays for\n"
              "the hot spot, which is the tree-saturation effect.\n");
  report.add_scalar("cfm_efficiency", cfm.efficiency);
  report.add_scalar("cfm_mean_access_time", cfm.mean_access_time);
  report.add_scalar("cfm_conflicts", cfm.conflicts);

  bool audit_ok = true;
  if (opts.audit) {
    // Negative control, machine-checked: the same auditor must count
    // contention on the saturating network and zero violations on the
    // conflict-free machine.
    sim::ConflictAuditor auditor;
    (void)run_hotspot_buffered(16, 0.35, 0.5, 2, 30000, 2026,
                               /*combining=*/false, &auditor);
    const auto trace =
        workload::Trace::uniform(16, 1, 256, 2000, 2000, 0.3, 2026);
    (void)replay_on_cfm_instrumented(trace, 16, 1, nullptr, &auditor);
    auditor.to_report(report);
    const bool detects = auditor.conflicts_detected() > 0;
    const bool clean = auditor.violations() == 0;
    audit_ok = detects && clean;
    std::printf("\naudit: %llu conflicts detected on the buffered MIN "
                "(want > 0), %llu violations on the CFM (want 0): %s\n",
                static_cast<unsigned long long>(auditor.conflicts_detected()),
                static_cast<unsigned long long>(auditor.violations()),
                audit_ok ? "PASS" : "FAIL");
  }
  return bench::finish(opts, report, audit_ok ? 0 : 1);
}
