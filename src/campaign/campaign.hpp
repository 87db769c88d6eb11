// Campaign execution: sharded sweep runs + the aggregated report.
//
// run_campaign expands a Scenario to its grid, serves every point it can
// from the content-addressed ResultCache, runs the misses concurrently on
// `jobs` threads (parallelism *across* simulations — each point gets its
// own Engine), applies the scenario's bounded retry budget to faulted
// points, and merges the per-point results into one deterministic
// `cfm-campaign-report/v1` document:
//
//   { "schema":    "cfm-campaign-report/v1",
//     "name":      "<scenario name>",
//     "spec":      { ...canonical scenario... },
//     "spec_hash": "<16 hex>",
//     "axes":      { "<axis>": [values...] },
//     "points":    [ { "key", "params", "metrics", "audit_violations" } ],
//     "counters":  { ...merged CounterSets over all points... },
//     "stats":     { ...merged stat summaries (Chan) over all points... },
//     "tables":    { "by_<axis>": [ { "<axis>": v, "points": k,
//                                     "<metric>": mean-over-group } ] },
//     "audit":     { "violations", "conflicts_detected", "checks",
//                    "points_with_violations" },
//     "totals":    { "points": N } }
//
// The report is a pure function of the spec and the per-point results —
// no wall-clock, no executed/cached provenance — so re-running a fully
// cached campaign reproduces it byte-identically (the cache-hit
// determinism CI asserts).  Execution provenance streams to the progress
// sink and the CampaignResult counters instead.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/executor.hpp"
#include "campaign/scenario.hpp"
#include "sim/report.hpp"

namespace cfm::campaign {

struct CampaignOptions {
  /// Result-cache directory; empty disables caching entirely.
  std::string cache_dir = ".cfm-cache";
  /// Concurrent point executions (threads draining the cache misses);
  /// 0 = hardware concurrency.
  unsigned jobs = 0;
  /// Streaming per-point progress lines ("[k/N] <key> <params>: ran").
  /// Null disables progress output.  Called under a mutex from pool
  /// threads; lines arrive in completion order.
  std::function<void(const std::string&)> progress;
  /// Point runner; null = run_point.  Test hook for environmental-fault
  /// behaviour (a runner that fails N times then succeeds).
  PointRunner runner;
};

struct CampaignResult {
  sim::Json report = sim::Json::object();  ///< cfm-campaign-report/v1
  std::size_t points = 0;    ///< grid cardinality
  std::size_t executed = 0;  ///< ran (or re-ran) this invocation
  std::size_t cached = 0;    ///< served from the result cache
  std::size_t failed = 0;    ///< exhausted the bounded retry budget
  std::uint64_t audit_violations = 0;  ///< summed over conflict-free points

  /// 0 clean; 3 when any conflict-free point reported an audit
  /// violation; 4 when any point failed outright.  Failure dominates.
  [[nodiscard]] int exit_code() const noexcept {
    if (failed > 0) return 4;
    if (audit_violations > 0) return 3;
    return 0;
  }
};

/// Runs the scenario's grid.  Throws std::invalid_argument for spec
/// errors (from expand()) and std::runtime_error for cache I/O failures;
/// per-point simulation faults are retried and then recorded in
/// `failed`, never thrown.
[[nodiscard]] CampaignResult run_campaign(const Scenario& scenario,
                                          const CampaignOptions& options = {});

// ---- multi-process sharding over the result cache ---------------------
//
// `cfm_campaign --workers N` splits one campaign across N point-runner
// *processes* (and, with standalone `--worker` invocations, across
// hosts) that coordinate through nothing but the shared cache directory:
// workers claim pending points via atomic lease files (lease.hpp), run
// them through the exact same PointRun/retry/aggregate machinery as the
// in-process executor, and append results to their own cache packs.
// The coordinator streams completions as they land in the cache and
// aggregates the same deterministic report — byte-identical to the
// single-process path for any worker count, crash pattern or claim
// order.

struct WorkerOptions {
  /// Shared result-cache directory.  Required: the cache *is* the
  /// coordination medium, so worker mode refuses to run without one.
  std::string cache_dir = ".cfm-cache";
  /// Lease staleness horizon.  A worker heartbeats its held lease every
  /// ttl/4, so only a dead (or wedged) worker's leases go stale.
  std::chrono::milliseconds lease_ttl{60000};
  /// Idle poll interval while other workers hold every pending point.
  std::chrono::milliseconds poll{100};
  /// Point runner; null = run_point.  Test hook (slow/flaky runners).
  PointRunner runner;
  /// Per-point progress lines ("<key> <params>: ran"); null disables.
  std::function<void(const std::string&)> progress;
};

/// The claim→run→publish worker loop: scans the grid, claims pending
/// points via lease files (reaping stale leases from crashed workers),
/// and keeps going until every point is cached or carries a failure
/// verdict.  Safe to run concurrently with any number of other workers
/// on any host sharing the cache directory.  Returns 0 when the grid
/// completed clean, 4 when any point (not necessarily ours) recorded a
/// failure verdict.  Throws std::invalid_argument for spec errors or an
/// empty cache_dir, std::runtime_error when the shared directory is
/// unusable.
[[nodiscard]] int run_worker(const Scenario& scenario,
                             const WorkerOptions& options = {});

struct DistributedOptions {
  /// Shared result-cache directory (required non-empty).
  std::string cache_dir = ".cfm-cache";
  /// Worker subprocesses to keep alive (>= 1).
  unsigned workers = 1;
  std::chrono::milliseconds lease_ttl{60000};
  /// Coordinator poll interval for streaming completions + reaping
  /// children.
  std::chrono::milliseconds poll{100};
  /// argv prefix to exec one worker, e.g. {"/path/to/cfm_campaign",
  /// "scenario.json"}; the coordinator appends --worker --cache-dir
  /// --lease-ttl --quiet.  Unused when `spawn` is set.
  std::vector<std::string> spawn_argv;
  /// Test hook: spawns one worker process and returns its pid (< 0 on
  /// failure).  Null = fork/exec of spawn_argv.
  std::function<long long()> spawn;
  /// Replacement workers the coordinator may spawn after abnormal child
  /// exits before giving up; 0 = 3 * workers.
  unsigned max_respawns = 0;
  /// Completion-order progress lines, like CampaignOptions::progress.
  std::function<void(const std::string&)> progress;
};

/// The multi-process coordinator: spawns `workers` point-runner
/// subprocesses, streams per-point completions as they land in the
/// shared cache, respawns crashed workers while pending work remains
/// (their in-flight points are reclaimed via stale leases — stolen,
/// never lost), then aggregates the same deterministic
/// `cfm-campaign-report/v1` as run_campaign.  Leftover lease files are
/// swept on the way out.  POSIX only; throws std::runtime_error
/// elsewhere and std::invalid_argument for an empty cache_dir or zero
/// workers.
[[nodiscard]] CampaignResult run_campaign_workers(
    const Scenario& scenario, const DistributedOptions& options);

}  // namespace cfm::campaign
