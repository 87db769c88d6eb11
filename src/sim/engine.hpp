// Clock-stepped simulation engine over the Component/tick-domain model.
//
// The CFM design is *fully synchronous* — every switch state, demultiplexer
// state and bank action is a pure function of the global cycle counter — so
// the natural simulation style is a lock-step tick loop rather than a
// discrete-event queue.  Components register in phases (see component.hpp
// for the phase order and the domain execution contract); within a phase,
// shared-domain components run first in registration order, then every
// independent domain runs its components in registration order.  This gives
// deterministic intra-cycle sequencing that mirrors the hardware pipeline
// (address out -> switch -> bank -> data back).  Because independent
// domains never share state, the fast path may also run one domain's
// schedule for a whole span of cycles before moving to the next domain
// (DESIGN.md §12).
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "sim/component.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::sim {

struct EngineConfig {
  /// Table-driven fast path (DESIGN.md §12): skip components whose
  /// quiescence hints prove them idle, fuse runs of cycles into one
  /// span dispatch per tick domain, and convert machine-wide idle
  /// stretches into a single clock jump.  Bit-exact with the reference
  /// loop by construction; `false` restores today's
  /// every-component-every-phase-every-cycle loop.
  bool fast_path = true;
  /// Upper bound on cycles fused into one span dispatch; 1 degenerates
  /// the span machinery to per-cycle dispatch.
  Cycle max_span = 64;
};

/// Process-wide experimentation overrides for engine construction, set
/// from bench/CLI `--fast-path` / `--max-span` flags.  Applied by every
/// Engine constructor on top of the config it was given; unset fields
/// leave the config untouched.  The fast path is bit-exact, so flipping
/// these never changes simulation results — only how fast they are
/// produced.
struct EngineTuning {
  std::optional<bool> fast_path;
  std::optional<Cycle> max_span;
};
void set_engine_tuning(const EngineTuning& tuning) noexcept;
[[nodiscard]] const EngineTuning& engine_tuning() noexcept;

class Engine {
 public:
  Engine() : Engine(EngineConfig{}) {}
  explicit Engine(const EngineConfig& cfg);
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  [[nodiscard]] const EngineConfig& config() const noexcept { return cfg_; }

  // ---- registration -------------------------------------------------

  /// Allocates a fresh independent tick domain (never kSharedDomain).
  [[nodiscard]] DomainId allocate_domain();

  /// Registers a component (shared ownership).  Returns the registered
  /// component so attach helpers can keep the pointer for quiescence-hint
  /// publishing (Component::set_next_event).
  Component* add(std::shared_ptr<Component> component);

  /// Registers a component without taking ownership; `component` must
  /// outlive the engine.
  Component* add(Component& component);

  // ---- per-domain statistics ----------------------------------------

  /// The statistics shard of `domain`; components must only write the
  /// shard of their own domain during ticks.
  [[nodiscard]] StatShard& shard(DomainId domain);

  /// All shards merged in ascending domain order (deterministic for
  /// RunningStat rounding).  Never call while a step is in flight.
  [[nodiscard]] StatShard merged_stats() const;

  // ---- execution ----------------------------------------------------

  /// Advances the simulation by exactly one cycle.  Under the fast path
  /// this still executes every phase of exactly one cycle (no spans or
  /// jumps), but provably quiescent components are skipped.
  void step();

  /// Runs `cycles` more cycles.  This is the span/jump entry point: with
  /// fast_path enabled the engine fuses quiescent stretches into span
  /// dispatches and clock jumps (see advance_to).
  void run_for(Cycle cycles);

  [[nodiscard]] Cycle now() const noexcept { return now_; }

 private:
  /// Execution plan for one phase, derived from the registry.
  struct PhasePlan {
    std::vector<Component*> shared;               ///< registration order
    std::vector<std::vector<Component*>> groups;  ///< ascending domain id
  };

  /// Table-driven fast-path plan: the same registry regrouped
  /// domain-major so one span dispatch can run a domain's whole
  /// phase-interleaved schedule for a run of cycles, plus a flat entry
  /// table for the machine-wide quiescence (clock-jump) scan.
  struct FastPlan {
    struct DomainGroup {
      DomainId domain = kSharedDomain;
      /// Registration order within each phase, as in PhasePlan.
      std::array<std::vector<Component*>, kPhaseCount> by_phase;
      std::size_t entry_count = 0;  ///< total (component, phase) entries
      /// Set iff entry_count == 1: the engine may hand this component
      /// whole spans via tick_span (see Component::tick_span).
      Component* sole = nullptr;
      Phase sole_phase = Phase::Issue;
    };
    std::vector<DomainGroup> groups;  ///< ascending domain id
    /// Every (component, phase) entry including shared ones, for the
    /// jump scan.  Phase-major then registration order — the scan only
    /// needs "is anything actionable now / what is the earliest hint",
    /// which is order-independent.
    std::vector<std::pair<Component*, Phase>> entries;
  };

  void rebuild_plans_if_dirty();
  /// The canonical reference schedule: every component, every phase,
  /// every cycle.
  void step_serial();
  /// One full cycle with quiescence-hint skips — same phase/domain order
  /// as step_serial, each tick guarded by the component's next_event.
  void step_cycle_fast();
  /// Fast-path core of run_for: advances now_ to `target` using skips,
  /// span fusion and clock jumps.  Only a cycle in which a shared entry
  /// acts steps per cycle (step_cycle_fast); every other stretch, down
  /// to one cycle before a shared wake, is one span per domain group.
  void advance_to(Cycle target);
  /// Scans the flat entry table at cycle `now_`.  Returns kAlways when
  /// any entry is actionable this cycle, otherwise the earliest future
  /// hint (the clock-jump target), clamped to kNeverCycle.
  [[nodiscard]] Cycle quiescent_until() const;
  /// Minimum quiescence hint over *shared-domain* entries.  Bounds span
  /// fusion: domain components may never touch shared state, so these
  /// hints stay valid for a whole span.
  [[nodiscard]] Cycle shared_quiescent_until() const;
  /// What scan_group saw at one point of a cycle.
  struct GroupScan {
    std::size_t actionable = 0;  ///< entries that may act at t
    Component* sole = nullptr;   ///< the last actionable entry found
    Phase sole_phase = Phase::Issue;
    Cycle others = 0;  ///< earliest hint of the non-actionable entries
  };
  /// Reads a group's hints at cycle t just before phase `from_phase`
  /// runs: entries of earlier phases have had their tick at t, so their
  /// hints count as at least t + 1 and never as actionable.  `others`
  /// is clamped to `end`.
  [[nodiscard]] static GroupScan scan_group(const FastPlan::DomainGroup& group,
                                            std::size_t from_phase, Cycle t,
                                            Cycle end);
  /// Runs one domain group over [begin, end) with the phase order of the
  /// reference schedule and per-tick quiescence guards; single-entry
  /// groups get the whole span as one tick_span call.  Multi-entry
  /// groups rescan before each phase that has entries: they jump while no
  /// entry is actionable, and hand an entry that is the only actionable
  /// one, single-phase and span-capable a sub-span from the current
  /// cycle up to the others' earliest hint, however short.
  static void run_group_span(const FastPlan::DomainGroup& group, Cycle begin,
                             Cycle end);

  EngineConfig cfg_;
  Cycle now_ = 0;
  std::vector<std::shared_ptr<Component>> components_;
  std::deque<StatShard> shards_;  ///< deque: stable references on growth
  DomainId next_domain_ = 1;      ///< 0 is kSharedDomain
  std::array<PhasePlan, kPhaseCount> plans_;
  FastPlan fast_plan_;
  bool plans_dirty_ = true;
};

}  // namespace cfm::sim
