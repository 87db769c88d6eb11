// Synthetic shared-memory access workloads and the efficiency experiments
// behind Figs 3.13 / 3.14 / 3.15.
//
// Open-loop model matching §3.4.1: every cycle, every processor generates
// a block access with probability r; the target module is uniform
// (conventional) or home-cluster with probability lambda (partially
// conflict-free).  A conflicting access backs off Uniform[1, beta] cycles
// and retries — the analytic model's mean-beta/2 assumption.  Efficiency
// is measured as beta / mean(completion - first attempt).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

/// Closed-loop random-read driver for one CfmMemory, as a scheduler
/// component: every Phase::Issue it harvests completed block operations
/// and issues a fresh read per idle processor with probability `rate`.
/// The driver lives in the *same tick domain* as its memory, so many
/// (driver, module) pairs share no mutable state: completions and access
/// times are recorded in the domain's statistics shard ("ops_completed"
/// counter, "access_time" running stat) and merged after the run.
class AccessDriver final : public sim::Component {
 public:
  AccessDriver(std::string name, sim::DomainId domain, core::CfmMemory& memory,
               double rate, std::uint64_t seed, sim::StatShard& shard);

  void tick_phase(sim::Phase phase, sim::Cycle now) override;

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Accesses that exhausted the bounded retry budget (only possible when
  /// the memory runs with a fault injector).
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Accesses still outstanding (issued or awaiting a retry slot) — the
  /// population a fixed cycle budget cuts off mid-flight.
  [[nodiscard]] std::uint64_t in_flight() const noexcept;
  /// Retries already accumulated by the in-flight accesses; excluded from
  /// the ops_retried counter's finished population until the access
  /// resolves, so retry exports must add these to avoid the same
  /// survivorship bias the completion side fixed with `unfinished`.
  [[nodiscard]] std::uint64_t in_flight_retries() const noexcept;

 private:
  struct ProcState {
    core::CfmMemory::OpToken op = core::CfmMemory::kNoOp;
    sim::Cycle issued = 0;
    sim::Cycle retry_at = 0;
    std::uint32_t retries = 0;
    bool pending_retry = false;
  };

  /// Aborted accesses (bounded-latency fault path) retry this many times
  /// with jittered back-off before counting as failed, so every access
  /// resolves within a bounded number of fault windows.
  static constexpr std::uint32_t kMaxRetries = 8;

  /// Publishes the Issue-phase quiescence hint after a tick: any idle
  /// processor rolls the Bernoulli generator every cycle (kAlways); with
  /// every processor busy or backing off, the driver sleeps until the
  /// earliest retry slot or the memory's completion lower bound.  Skipped
  /// cycles perform no RNG draws on the reference path either, so the
  /// random stream — and therefore the workload — is bit-identical.
  void publish_wake(sim::Cycle now);

  core::CfmMemory& mem_;
  double rate_;
  sim::Rng rng_;
  std::vector<ProcState> procs_;
  sim::StatShard& shard_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
};

struct EfficiencyResult {
  double efficiency = 1.0;        ///< beta / mean access time
  double mean_access_time = 0.0;  ///< cycles, first attempt -> completion
  /// Mean retries per access, *including* accesses still retrying at the
  /// budget cutoff (their retry counts are facts even though their final
  /// access times are not — excluding them biased the mean low, since the
  /// cutoff preferentially catches the most-retried accesses).
  double mean_retries = 0.0;
  std::uint64_t completed = 0;
  std::uint64_t conflicts = 0;
  /// Accesses still in flight when the cycle budget ran out.  Their
  /// access times are *not* in mean_access_time: a fixed budget
  /// preferentially cuts off the longest-waiting accesses, so a large
  /// unfinished count flags a survivorship-biased (optimistic)
  /// mean_access_time.
  std::uint64_t unfinished = 0;
  /// Retries already accumulated by those unfinished accesses (folded
  /// into mean_retries; broken out so callers can see the cutoff bias).
  std::uint64_t unfinished_retries = 0;
  /// Accesses that exhausted the fault-retry budget (zero without faults).
  std::uint64_t failed = 0;
};

/// Conventional interleaved memory: n processors, m modules, beta-cycle
/// block accesses, uniform module targets (§3.4.1 baseline).
[[nodiscard]] EfficiencyResult measure_conventional(
    std::uint32_t processors, std::uint32_t modules, std::uint32_t beta,
    double rate, sim::Cycle cycles, std::uint64_t seed);

/// Partially conflict-free machine: n processors in m clusters, locality
/// lambda = probability the access targets the home module (§3.4.2).
[[nodiscard]] EfficiencyResult measure_partial_cfm(
    std::uint32_t processors, std::uint32_t modules, std::uint32_t beta,
    double rate, double locality, sim::Cycle cycles, std::uint64_t seed);

/// Fully conflict-free machine, run on the *real* cycle-level CfmMemory:
/// every access must complete in exactly beta with zero conflicts —
/// the measured efficiency validates the paper's "~100%" claim.
[[nodiscard]] EfficiencyResult measure_cfm(std::uint32_t processors,
                                           std::uint32_t bank_cycle,
                                           double rate, sim::Cycle cycles,
                                           std::uint64_t seed);

/// Optional instrumentation for measure_cfm_instrumented.  All pointers
/// may be null; null everything is exactly measure_cfm.  This is the one
/// machine builder benches and the campaign executor share: the campaign
/// runner attaches the auditor / fault injector here instead of growing a
/// parallel construction path.
struct CfmRunHooks {
  sim::ConflictAuditor* auditor = nullptr;       ///< ConflictFree scope
  const sim::FaultInjector* injector = nullptr;  ///< degraded-mode faults
  std::uint32_t spare_banks = 1;                 ///< for dead-bank remap
  /// Merged driver-shard counters (ops_completed / ops_retried /
  /// ops_failed) plus the memory's own counters, written on return.
  sim::CounterSet* counters_out = nullptr;
  /// The full access_time RunningStat (count/mean/min/max/stddev/sum),
  /// richer than EfficiencyResult's mean — campaign reports merge these
  /// across grid points.
  sim::RunningStat* access_time_out = nullptr;
  /// Time-series telemetry: with `telemetry_window` > 0 and
  /// `timeseries_out` non-null, a TelemetrySampler rides the run
  /// (ops/retries/failures per window, in-flight and bank-health gauges)
  /// and its exported series — horizon = the cycle budget — is written to
  /// *timeseries_out on return.
  sim::Cycle telemetry_window = 0;
  std::size_t telemetry_capacity = 0;  ///< 0 = sampler default
  sim::Json* timeseries_out = nullptr;
};

[[nodiscard]] EfficiencyResult measure_cfm_instrumented(
    std::uint32_t processors, std::uint32_t bank_cycle, double rate,
    sim::Cycle cycles, std::uint64_t seed, const CfmRunHooks& hooks);

}  // namespace cfm::workload
