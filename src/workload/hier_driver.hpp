// Think-time closed-loop driver for the hierarchical CFM machine.
//
// Each processor alternates between a memory request (read or write,
// private or shared working set) and a "think" interval drawn uniformly
// from [think_min, think_max] at the moment the request completes.  This
// is the classic interactive-machine model: the machine is bursty, with
// long provably-idle stretches between requests — exactly the shape the
// engine's quiescence fast path (DESIGN.md §12) converts into clock
// jumps.  The driver is fully wake-aware:
//
//   * every processor thinking      -> hint = earliest resume cycle
//   * requests in flight            -> hint = kNeverCycle, and the
//     machine's completion hook marks the retiring processor and
//     re-publishes kAlways the cycle a request retires, so the driver
//     harvests at exactly the same cycle as the per-cycle reference
//     schedule, and visits only the processors that retired;
//   * all RNG draws happen at harvest/issue points, which the fast path
//     visits at the same cycles as the reference path — the random
//     stream, and therefore the workload, is bit-identical.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cache/hierarchical.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

class HierDriver final : public sim::Component {
 public:
  struct Params {
    std::uint32_t think_min = 8;    ///< shortest think interval, cycles
    std::uint32_t think_max = 96;   ///< longest think interval, cycles
    double write_fraction = 0.3;    ///< P(request is a write)
    double shared_fraction = 0.2;   ///< P(target is the machine-wide pool)
    std::uint32_t private_blocks = 4;  ///< per-processor working set
    std::uint32_t shared_blocks = 8;   ///< machine-wide hot pool
    /// Bulk-synchronous rounds: every processor issues its request, the
    /// round barrier waits for the last completion, then the whole
    /// machine thinks for ONE shared interval before the next burst —
    /// the superstep structure of barrier-synchronized parallel
    /// programs, and the shape that lets the engine jump the clock
    /// across entire think phases.  false = independent think timers.
    bool barrier = false;
  };

  /// Registers itself on `engine` (shared domain, Phase::Issue — it calls
  /// into the shared HierarchicalCfm) and installs the machine's
  /// completion hook.  The driver must outlive the engine run.
  HierDriver(std::string name, sim::Engine& engine,
             cache::HierarchicalCfm& machine, const Params& params,
             std::uint64_t seed, sim::StatShard& shard);

  void tick_phase(sim::Phase phase, sim::Cycle now) override;

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Requests still outstanding (issued, not yet harvested).
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    return outstanding_;
  }
  /// Raw tick_phase invocations — on the reference path this equals the
  /// cycle count; the fast path skips provably idle cycles, so tests can
  /// assert the machinery engaged without timing anything.
  [[nodiscard]] std::uint64_t ticks() const noexcept { return ticks_; }

 private:
  struct ProcState {
    cache::HierarchicalCfm::ReqId req = 0;  ///< 0 = none outstanding
    sim::Cycle issued = 0;
    sim::Cycle resume_at = 0;  ///< end of the current think interval
  };

  /// Takes the results of the processors the completion hook marked,
  /// in ascending order, and draws their think times.
  void harvest(sim::Cycle now);
  /// Issues for every processor whose think interval is over, in
  /// ascending order, and recomputes next_resume_.
  void issue_due(sim::Cycle now);
  void issue(sim::Cycle now, std::uint32_t p, ProcState& st);
  [[nodiscard]] sim::Cycle draw_think();

  cache::HierarchicalCfm& hier_;
  Params params_;
  sim::Rng rng_;
  std::vector<ProcState> procs_;
  /// Bit p % 64 of word p / 64: processor p's request retired and its
  /// result is not yet harvested.
  std::vector<std::uint64_t> retired_;
  std::uint64_t outstanding_ = 0;  ///< processors with a request issued
  /// Earliest resume_at over the processors with no request outstanding:
  /// the Issue-phase hint (kNeverCycle with everything in flight, as the
  /// completion hook wakes us; never kAlways, as after a tick every
  /// processor is either thinking or waiting on the machine).
  sim::Cycle next_resume_ = 0;
  sim::StatShard& shard_;
  sim::RunningStat& access_time_;  ///< shard_'s "hier.access_time"
  sim::CounterId ops_completed_;   ///< shard_'s "hier.ops_completed"
  std::uint64_t completed_ = 0;
  std::uint64_t ticks_ = 0;
};

}  // namespace cfm::workload
