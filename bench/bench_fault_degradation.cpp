// Fault injection & graceful degradation sweep.
//
// The paper proves the CFM conflict-free by construction; this bench asks
// what the *machine* does when the construction's substrate misbehaves:
//
//   * a bank dies          -> its AT slot remaps to a spare bank; the
//                             schedule (and so conflict freedom) is kept;
//   * a module browns out  -> tours freeze, restart after the window, and
//                             the watchdog bounds every access's wait;
//   * link messages drop   -> the cluster link retransmits a bounded
//                             number of times, then aborts the request.
//
// Every scenario runs the closed-loop driver against a real CfmMemory
// with the runtime auditor attached.  The pass criteria are the issue's
// acceptance bars: zero *genuine* violations in every scenario (injected
// events are classified separately), zero failed accesses whenever a
// spare covers the fault, and a bounded worst-case access time.
#include <cstdio>
#include <stdexcept>
#include <string>

#include "cfm/cfm_memory.hpp"
#include "cfm/cluster.hpp"
#include "report_main.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm;

constexpr std::uint32_t kProcessors = 8;
constexpr std::uint32_t kBankCycle = 2;
constexpr double kRate = 0.2;
constexpr sim::Cycle kCycles = 20000;

struct CaseResult {
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t unfinished = 0;
  double max_access_time = 0.0;
  double mean_access_time = 0.0;
  double recovery_mean = 0.0;
  double recovery_max = 0.0;
  std::uint64_t bank_remaps = 0;
  std::uint64_t fault_restarts = 0;
  std::uint64_t fault_aborts = 0;
  std::uint64_t violations = 0;
  std::uint64_t injected = 0;
};

CaseResult run_case(const std::string& plan_text, std::uint32_t spares,
                    sim::Json* timeseries_out = nullptr,
                    sim::Json* recovery_out = nullptr) {
  core::CfmMemory memory(core::CfmConfig::make(kProcessors, kBankCycle));
  sim::ConflictAuditor auditor;
  memory.set_audit(auditor);

  // The injector must outlive the run; optional because the baseline
  // scenario measures the clean machine (null-check fast path only).
  std::unique_ptr<sim::FaultInjector> injector;
  if (!plan_text.empty()) {
    auto plan = sim::FaultPlan::parse(plan_text);
    plan.validate_single_module(memory.config().banks, "cfm memory");
    injector = std::make_unique<sim::FaultInjector>(std::move(plan));
    memory.set_fault_injector(*injector, spares);
  }

  // Optional flight recorder: the degradation story as a time series —
  // retries/failures per window, bank health, fault lifecycle.
  sim::RunningStat access_time;
  workload::RunHooks hooks;
  hooks.access_time_out = &access_time;
  if (timeseries_out != nullptr) {
    hooks.telemetry_window =
        8 * static_cast<sim::Cycle>(memory.config().block_access_time());
    hooks.timeseries_out = timeseries_out;
    hooks.recovery_out = recovery_out;
  }
  const auto r = workload::measure_instrumented(memory, kRate, 0.0, kCycles,
                                                /*seed=*/1234, hooks);

  CaseResult out;
  out.completed = r.completed;
  out.failed = r.failed;
  out.unfinished = r.unfinished;
  out.max_access_time = access_time.max();
  out.mean_access_time = access_time.mean();
  out.recovery_mean = memory.fault_recovery().mean();
  out.recovery_max = memory.fault_recovery().max();
  out.bank_remaps = memory.counters().get("bank_remaps");
  out.fault_restarts = memory.counters().get("fault_restarts");
  out.fault_aborts = memory.counters().get("fault_aborts");
  out.violations = auditor.violations();
  out.injected = auditor.injected_detected();
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cfm;
  const auto opts = bench::parse_options(argc, argv, {.fault_plan = true});
  sim::Report report("fault_degradation");
  report.set_param("processors", kProcessors);
  report.set_param("bank_cycle", kBankCycle);
  report.set_param("rate", kRate);
  report.set_param("cycles", kCycles);

  const auto cfg = core::CfmConfig::make(kProcessors, kBankCycle);
  const auto beta = cfg.block_access_time();
  // Degraded-mode worst case: a permanent remap costs one restarted tour;
  // a brownout stretches an access by the window plus the restart.  The
  // watchdog plus driver retries bound everything else.
  const double latency_bound = 12.0 * beta;

  struct Scenario {
    const char* name;
    std::string plan;
    std::uint32_t spares;
    double extra_bound;  ///< added to latency_bound (fault windows)
  };
  const Scenario scenarios[] = {
      {"baseline", "", 0, 0.0},
      {"one_bank_dead", "bank_dead@5000:module=0,bank=3", 1, 0.0},
      {"two_banks_dead",
       "bank_dead@5000:module=0,bank=3;bank_dead@9000:module=0,bank=11", 2,
       0.0},
      {"brownout_short", "brownout@5000+40:module=0", 1, 40.0},
      {"brownout_long", "brownout@5000+300:module=0", 1, 300.0},
      {"custom", opts.fault_plan, 2, 1000.0},
  };

  std::printf("Fault injection & graceful degradation "
              "(n=%u, c=%u, beta=%u, r=%.2f, %llu cycles)\n\n",
              kProcessors, kBankCycle, beta, kRate,
              static_cast<unsigned long long>(kCycles));
  std::printf("%-16s %-10s %-8s %-8s %-10s %-10s %-8s %-9s %-9s\n",
              "scenario", "completed", "failed", "unfin", "max_lat",
              "recov_max", "remaps", "violate", "injected");

  bool ok = true;
  sim::Json timeseries;
  sim::Json recovery;
  for (const auto& s : scenarios) {
    if (std::string_view(s.name) == "custom" && s.plan.empty()) continue;
    // The flight recorder rides on the representative degraded run: one
    // bank dies mid-flight, the series shows the dip and the recovery.
    const bool record = std::string_view(s.name) == "one_bank_dead";
    CaseResult r;
    try {
      r = run_case(s.plan, s.spares, record ? &timeseries : nullptr,
                   record ? &recovery : nullptr);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: bad fault plan '%s': %s\n", s.plan.c_str(),
                   e.what());
      return 2;
    }
    std::printf("%-16s %-10llu %-8llu %-8llu %-10.0f %-10.0f %-8llu "
                "%-9llu %-9llu\n",
                s.name, static_cast<unsigned long long>(r.completed),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.unfinished),
                r.max_access_time, r.recovery_max,
                static_cast<unsigned long long>(r.bank_remaps),
                static_cast<unsigned long long>(r.violations),
                static_cast<unsigned long long>(r.injected));

    // Acceptance bars.  Genuine violations are never tolerated; injected
    // events are expected whenever a plan is active.  A spare-covered
    // fault must not fail a single access, and the worst access time must
    // stay within the degraded-mode bound.
    const bool spare_covered = std::string_view(s.name) != "custom";
    if (r.violations != 0) ok = false;
    if (spare_covered && r.failed != 0) ok = false;
    if (spare_covered && r.completed > 0 &&
        r.max_access_time > latency_bound + s.extra_bound) {
      ok = false;
    }
    if (std::string_view(s.name) == "baseline" && r.injected != 0) ok = false;

    auto row = sim::Json::object();
    row["scenario"] = s.name;
    row["plan"] = s.plan;
    row["completed"] = r.completed;
    row["failed"] = r.failed;
    row["unfinished"] = r.unfinished;
    row["max_access_time"] = r.max_access_time;
    row["mean_access_time"] = r.mean_access_time;
    row["recovery_mean"] = r.recovery_mean;
    row["recovery_max"] = r.recovery_max;
    row["bank_remaps"] = r.bank_remaps;
    row["fault_restarts"] = r.fault_restarts;
    row["fault_aborts"] = r.fault_aborts;
    row["violations"] = r.violations;
    row["injected_detected"] = r.injected;
    report.add_row("faults", std::move(row));
  }

  // Message-drop sweep on the inter-cluster link: each drop costs one
  // retransmission flight; past the bound the request aborts — the
  // requester always gets an answer.
  std::printf("\ninter-cluster link drops (2 clusters, 20 remote reads):\n");
  std::printf("%-10s %-10s %-10s %-10s %-10s\n", "drop p", "completed",
              "aborted", "drops", "unresolved");
  for (const double p : {0.0, 0.05, 0.2}) {
    core::ClusterConfig ccfg;
    core::ClusterSystem cluster(2, ccfg);
    std::unique_ptr<sim::FaultInjector> injector;
    if (p > 0.0) {
      char plan[64];
      std::snprintf(plan, sizeof plan, "drop@0:prob=%.2f", p);
      injector =
          std::make_unique<sim::FaultInjector>(sim::FaultPlan::parse(plan));
      cluster.set_fault_injector(*injector);
    }
    std::vector<core::ClusterSystem::RequestId> ids;
    for (std::uint32_t i = 0; i < 20; ++i) {
      ids.push_back(cluster.remote_request(0, 0, 1, core::BlockOpKind::Read,
                                           100 + i));
    }
    std::uint64_t done = 0, aborted = 0, unresolved = 0;
    for (sim::Cycle now = 0; now < 20000; ++now) {
      cluster.tick(now);
      for (std::uint32_t c = 0; c < 2; ++c) cluster.memory(c).tick(now);
    }
    for (const auto id : ids) {
      if (auto res = cluster.take_result(id)) {
        res->status == core::OpStatus::Completed ? ++done : ++aborted;
      } else {
        ++unresolved;
      }
    }
    std::printf("%-10.2f %-10llu %-10llu %-10llu %-10llu\n", p,
                static_cast<unsigned long long>(done),
                static_cast<unsigned long long>(aborted),
                static_cast<unsigned long long>(cluster.link_drops()),
                static_cast<unsigned long long>(unresolved));
    if (unresolved != 0) ok = false;  // bounded: every request resolves
    auto row = sim::Json::object();
    row["drop_probability"] = p;
    row["completed"] = done;
    row["aborted"] = aborted;
    row["link_drops"] = cluster.link_drops();
    row["link_failures"] = cluster.link_failures();
    row["unresolved"] = unresolved;
    report.add_row("link_drops", std::move(row));
  }

  if (!timeseries.is_null()) report.add_section("timeseries", timeseries);
  if (!recovery.is_null()) {
    for (const auto& row : recovery.as_array()) {
      report.add_row("recovery", row);
    }
  }

  report.add_scalar("latency_bound", latency_bound);
  report.add_scalar("pass", ok);
  std::printf("\ndegradation contract (no genuine violations, no failures "
              "under spare cover,\nbounded worst-case latency): %s\n",
              ok ? "PASS" : "FAIL");
  return bench::finish(opts, report, ok ? 0 : 1);
}
