// Synthetic shared-memory access workloads and the efficiency experiments
// behind Figs 3.13 / 3.14 / 3.15.
//
// Open-loop model matching §3.4.1: every cycle, every processor generates
// a block access with probability r; the target module is uniform
// (conventional) or home-cluster with probability lambda (partially
// conflict-free).  A conflicting access backs off Uniform[1, beta] cycles
// and retries — the analytic model's mean-beta/2 assumption.  Efficiency
// is measured as beta / mean(completion - first attempt).
//
// On the cycle-level memories the same closed loop runs as a
// core::PortDriver over CfmMemory (Fig 3.13's ~100% claim) or over the
// coded backend (mem/coded).  The coded experiment asks not whether the
// machine is conflict-free (with banks < c*n it cannot be) but how much
// of the CFM's efficiency it keeps at a fraction of the bank budget, and
// whether it keeps any with a bank dead; it therefore mixes reads with
// block writes, since parity maintenance is the interesting cost.
#pragma once

#include <cstdint>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "cfm/port_driver.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

/// The closed-loop request source behind Figs 3.13 / 3.14 on a real
/// memory (core::PortDriver supplies the port discipline): every cycle
/// each idle port draws a fresh access with probability `rate`, a block
/// write with probability `write_fraction` of those (drawn only when the
/// fraction is > 0).  Distinct blocks per port: the experiments are about
/// bank traffic, not same-address races.
class ClosedLoop {
 public:
  struct Request {
    sim::BlockAddr block = 0;
    sim::Cycle arrival = 0;  ///< generated and first issued here
    bool write = false;
  };

  explicit ClosedLoop(double rate, double write_fraction = 0.0)
      : rate_(rate), write_fraction_(write_fraction) {}

  void admit(sim::Cycle) noexcept {}

  template <typename Memory>
  bool next(Memory& mem, sim::Cycle now, std::uint32_t p, Request& out,
            sim::Rng& rng) {
    if (!rng.chance(rate_)) return false;
    out.write = write_fraction_ > 0.0 && rng.chance(write_fraction_);
    out.block = 1000 + p * 7919 + (now % 97);
    out.arrival = now;
    if constexpr (requires { mem.txn_tracer(); }) {
      // Generated and issued in the same cycle, so the queue hint
      // records a zero wait: the txn trace shows that the driver never
      // holds work back.
      if (auto* tracer = mem.txn_tracer()) {
        tracer->queued_since(mem.txn_unit(), p, now);
      }
    }
    return true;
  }

  template <typename Memory>
  typename Memory::OpToken issue(Memory& mem, sim::Cycle now, std::uint32_t p,
                                 const Request& req) {
    if (!req.write) {
      return mem.issue(now, p, core::BlockOpKind::Read, req.block);
    }
    // A pure function of (block, word, arrival), so replays and
    // fast-path-vs-reference runs write the same bits without RNG draws.
    scratch_.resize(mem.block_words());
    for (std::uint32_t w = 0; w < scratch_.size(); ++w) {
      scratch_[w] = (req.block * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<sim::Word>(w) << 32) ^ req.arrival;
    }
    return mem.issue(now, p, core::BlockOpKind::Write, req.block, scratch_);
  }

  void resolved(const Request&, const core::BlockOpResult&) noexcept {}

  /// An idle port rolls the generator every cycle, so it can never be
  /// skipped (skipping would desynchronise the random stream); with every
  /// port busy the loop has nothing of its own to wake for.
  static constexpr bool kIdlePortsPoll = true;
  [[nodiscard]] sim::Cycle wake() const noexcept { return sim::kNeverCycle; }

 private:
  double rate_;
  double write_fraction_;
  std::vector<sim::Word> scratch_;
};

template <typename Memory>
using ClosedLoopDriver = core::PortDriver<Memory, ClosedLoop>;

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

/// Optional instrumentation for measure_instrumented; every pointer may
/// be null.  Auditor, fault injector and spares are set on the memory
/// itself before the call.
struct RunHooks {
  /// The driver's ops_completed / ops_retried / ops_failed counters (each
  /// only once nonzero) plus the memory's own counters, added on return.
  sim::CounterSet* counters_out = nullptr;
  /// The full access_time RunningStat, richer than EfficiencyResult's
  /// mean: campaign reports merge these across grid points.
  sim::RunningStat* access_time_out = nullptr;
  /// With `telemetry_window` > 0 and `timeseries_out` set, a
  /// TelemetrySampler rides the run (ops/retries/failures per window,
  /// in-flight and bank-health gauges) and its series, horizon = the
  /// cycle budget, is written to *timeseries_out.
  sim::Cycle telemetry_window = 0;
  std::size_t telemetry_capacity = 0;  ///< 0 = sampler default
  sim::Json* timeseries_out = nullptr;
  /// With telemetry on and a fault injector on the memory: the per-fault
  /// recovery table derived from that series.
  sim::Json* recovery_out = nullptr;
};

/// The one closed-loop machine builder benches and the campaign runner
/// share: runs ClosedLoop(rate, write_fraction) against `memory` (built
/// and configured by the caller, not yet attached to an engine) on its
/// own engine for `cycles` cycles.  The memory stays readable afterwards
/// (counters, decode statistics, fault recovery) but is attached to an
/// engine that no longer exists, so it must not be issued to again.
/// EfficiencyResult::efficiency is measured against the memory's own
/// stall-free block time: beta for CfmMemory, data_banks + c - 1 for
/// CodedMemory.  Instantiated for both.
template <typename Memory>
[[nodiscard]] EfficiencyResult measure_instrumented(
    Memory& memory, double rate, double write_fraction, sim::Cycle cycles,
    std::uint64_t seed, const RunHooks& hooks = {});

}  // namespace cfm::workload
