// Shared point-execution machinery behind both campaign executors.
//
// The in-process executor (run_campaign: cache pass + threaded shard)
// and the multi-process executor (run_campaign_workers / run_worker:
// lease-claimed subprocesses over a shared cache directory) must produce
// byte-identical `cfm-campaign-report/v1` documents.  The way that holds
// is by construction: both paths funnel every point through the same
// PointRun record, the same bounded-retry wrapper and the same
// aggregate() function, so the report is a pure function of the scenario
// spec and the per-point results — never of who ran them, where, in what
// order, or after how many crashes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/scenario.hpp"
#include "sim/report.hpp"

namespace cfm::campaign {

/// Runs one grid point and returns its result document.  Defaults to
/// run_point everywhere; injectable so tests can model environmental
/// faults (a runner that fails N times then succeeds) and crash timing
/// (a runner that blocks while the test delivers SIGKILL).
using PointRunner = std::function<sim::Json(const PointSpec&)>;

/// One grid point's execution state.
struct PointRun {
  PointSpec spec;
  sim::Json result;   ///< run_point document (unset when failed)
  bool cached = false;
  bool failed = false;
  /// Runner invocations this run (0 = served from the cache).  Reported
  /// in the point row only when > 1 — a first-attempt success must
  /// contribute nothing, or retries would leak nondeterminism into the
  /// byte-identical report contract.
  std::uint32_t attempts = 0;
  std::string error;             ///< final error text when failed
  std::string last_retry_error;  ///< error of the most recent retried attempt
};

/// Executes run.spec under the scenario's bounded retry budget.  Each
/// attempt invokes `runner` and then `persist` (the cache store) — a
/// throw from *either* counts the attempt as failed and is retried, so
/// an environmental store failure (cross-device rename, yanked cache
/// dir) surfaces through the same path as a faulted run instead of
/// vanishing.  Records attempts and the previously-discarded error text
/// of the last retried attempt.
void execute_with_retry(PointRun& run, std::uint32_t retries,
                        const PointRunner& runner,
                        const std::function<void(const PointRun&)>& persist);

/// " k=v k=v" rendering of a point's params for progress lines.
[[nodiscard]] std::string describe_point(const PointSpec& point);

/// Per-point failure verdict document (`{"error", "attempts"
/// [, "last_retry_error"]}`) — the shape LeaseDir::write_failure
/// publishes and the coordinator folds back into its PointRun.
[[nodiscard]] sim::Json failure_verdict(const PointRun& run);
void apply_failure_verdict(PointRun& run, const sim::Json& verdict);

/// Merges the per-point results into one deterministic
/// `cfm-campaign-report/v1` document (see campaign.hpp for the layout).
[[nodiscard]] sim::Json aggregate(const Scenario& scenario,
                                  const std::vector<PointRun>& runs);

}  // namespace cfm::campaign
