// Component model for the tick scheduler.
//
// The CFM design is *fully synchronous*: every switch state, demultiplexer
// state and bank action is a pure function of the global cycle counter.
// Each cycle runs four phases in a fixed order:
//
//   Phase::Issue    processors decide what to inject this slot
//   Phase::Network  switches move addresses/data
//   Phase::Memory   banks perform word accesses, ATTs shift
//   Phase::Commit   completions retire, statistics update
//
// A `Component` is an object that ticks in one or more of those phases and
// belongs to exactly one **tick domain**.  Domains capture the paper's
// conflict-freedom argument structurally: the AT-space schedule makes each
// CfmMemory module (or cluster memory) independent of every other within
// a phase: a component must touch only state owned by its own domain.
// Cross-domain pieces — the hierarchical controller, the processor driver
// that feeds it, the telemetry sampler — live in the shared domain
// (`kSharedDomain`), which runs before the other domains of each phase.
//
// The reference execution contract:
//
//   for each phase (Issue, Network, Memory, Commit):
//     1. shared-domain components, in registration order;
//     2. every other domain in ascending domain id, components in
//        registration order within the domain.
//
// Because domains are independent by construction, the domains of (2)
// commute — which is what lets the fast path below run one domain's
// schedule for a whole span of cycles before the next domain's.
//
// Batch-tick + quiescence (the fast-path contract, DESIGN.md §12): a
// component may additionally
//
//   * publish a **quiescence hint** per phase via `set_next_event` — the
//     earliest cycle at which its `tick_phase(phase, ·)` could have any
//     effect.  The engine's fast path checks the hint at exactly the
//     program point where the reference schedule would have ticked the
//     component, so a hint is evaluated against fully up-to-date state and
//     skipping is bit-exact by construction.  `kAlways` (the default —
//     components that never publish are simply ticked every cycle) means
//     "assume I can act every cycle"; `kNeverCycle` means "quiescent until
//     some external call mutates me" — any such call must re-publish.
//   * accept a **batched span** via `tick_span(phase, begin, end)`, which
//     must be observably equivalent to ticking every cycle of
//     [begin, end) in order (honouring its own quiescence hints).  The
//     engine only dispatches spans in contexts where no *other* component
//     can observe or mutate state mid-span, so implementations are free
//     to fast-forward provably idle stretches.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "sim/types.hpp"

namespace cfm::sim {

enum class Phase : std::uint8_t { Issue = 0, Network, Memory, Commit };
inline constexpr std::size_t kPhaseCount = 4;

/// Identifier of a tick domain.  Domain 0 is the shared (serial) domain;
/// independent domains are allocated by the engine.
using DomainId = std::uint32_t;
inline constexpr DomainId kSharedDomain = 0;

/// Bitmask over phases a component participates in.
using PhaseMask = std::uint8_t;

[[nodiscard]] constexpr PhaseMask phase_bit(Phase p) noexcept {
  return static_cast<PhaseMask>(1u << static_cast<std::uint8_t>(p));
}
inline constexpr PhaseMask kAllPhases =
    phase_bit(Phase::Issue) | phase_bit(Phase::Network) |
    phase_bit(Phase::Memory) | phase_bit(Phase::Commit);

/// A schedulable unit: declares its phases and its tick domain.
class Component {
 public:
  /// Quiescence hint meaning "may act at every cycle" (the safe default).
  static constexpr Cycle kAlways = 0;

  Component(std::string name, DomainId domain, PhaseMask phases)
      : name_(std::move(name)), domain_(domain), phases_(phases) {}
  virtual ~Component() = default;

  Component(const Component&) = delete;
  Component& operator=(const Component&) = delete;

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  [[nodiscard]] DomainId domain() const noexcept { return domain_; }
  [[nodiscard]] PhaseMask phases() const noexcept { return phases_; }
  [[nodiscard]] bool participates_in(Phase p) const noexcept {
    return (phases_ & phase_bit(p)) != 0;
  }

  /// Called once per cycle for every phase in `phases()`.  Must touch only
  /// state owned by this component's domain (plus engine-provided
  /// domain-sharded statistics); shared-domain components may touch
  /// anything, since a domain span ends before any shared component can
  /// act.
  virtual void tick_phase(Phase phase, Cycle now) = 0;

  /// Batched execution: equivalent to
  ///
  ///   for (Cycle t = begin; t < end; ++t)
  ///     if (next_event(phase) <= t) tick_phase(phase, t);
  ///
  /// The engine calls this when every shared-domain component is provably
  /// quiescent across the span, and either
  ///
  ///   * the component is the *sole* schedulable entry of its tick
  ///     domain; or
  ///   * it is single-phase, span-capable, and the *only actionable*
  ///     entry of its independent domain once the phases before it at
  ///     `begin` have run, with `end` no later than the earliest hint of
  ///     the domain's other entries (an in-domain sub-span, DESIGN.md
  ///     §12; an entry that already ticked at `begin` counts as waking
  ///     at `begin + 1` at the earliest, so a sub-span may be one cycle
  ///     long);
  ///
  /// so nothing can observe intermediate state or mutate the component
  /// mid-span.
  /// Overrides may therefore fast-forward idle stretches or use
  /// precomputed schedule tables, as long as the end-of-span state and
  /// every externally visible side effect (statistics, traces, audit
  /// probes) are identical to the per-cycle loop above.
  virtual void tick_span(Phase phase, Cycle begin, Cycle end) {
    for (Cycle t = begin; t < end; ++t) {
      const Cycle w = next_event(phase);
      if (w > t) {
        if (w >= end) return;  // covers kNeverCycle
        t = w - 1;             // fast-forward the provably idle stretch
        continue;
      }
      tick_phase(phase, t);
    }
  }

  /// The earliest cycle at which tick_phase(phase, ·) could have any
  /// effect, as last published by the component (kAlways until it ever
  /// publishes).  The fast path reads this at the exact program point the
  /// reference schedule would have ticked the component and skips the
  /// tick while the hint is in the future.
  [[nodiscard]] Cycle next_event(Phase phase) const noexcept {
    return next_event_[static_cast<std::size_t>(phase)];
  }

  /// Publishes the quiescence hint for one phase.  Model classes that
  /// register through an adapter component (TickComponent,
  /// LambdaComponent) call this through the adapter pointer handed back
  /// at attach time; every entry point that can make a quiescent
  /// component actionable again MUST re-publish (typically kAlways).
  void set_next_event(Phase phase, Cycle at) noexcept {
    next_event_[static_cast<std::size_t>(phase)] = at;
  }

  /// Publishes the same hint for every phase the component participates
  /// in (other phases are left untouched: the engine never reads them).
  void set_next_event(Cycle at) noexcept {
    for (std::size_t pi = 0; pi < kPhaseCount; ++pi) {
      if ((phases_ & phase_bit(static_cast<Phase>(pi))) != 0) {
        next_event_[pi] = at;
      }
    }
  }

  /// Self-containment promise of an independent-domain component.
  /// Default false: unsure means no sub-span.  While every other entry of
  /// the domain is quiescent, the component's ticks change none of their
  /// hints and touch no state they read before their hints come due — so
  /// the engine may hand it a sub-span up to the earliest such hint
  /// instead of ticking the group cycle by cycle.  A CfmMemory qualifies
  /// (its drivers wake on next_completion_hint); a component that calls
  /// into its neighbours does not.  The engine ignores the flag on
  /// shared-domain components.
  [[nodiscard]] bool span_capable() const noexcept { return span_capable_; }
  void set_span_capable(bool on = true) noexcept { span_capable_ = on; }

 protected:
  void add_phases(PhaseMask m) noexcept { phases_ |= m; }

 private:
  std::string name_;
  DomainId domain_;
  PhaseMask phases_;
  bool span_capable_ = false;
  /// Per-phase quiescence hints, kAlways by default.  Plain fields so the
  /// engine's fast path can poll them with one load and no virtual call.
  std::array<Cycle, kPhaseCount> next_event_{};
};

/// Adapter for callback-style registration: one or more `void(Cycle)`
/// callbacks per phase.  Callbacks are indexed by phase at registration
/// time, so a multi-phase component pays one array lookup per tick
/// instead of scanning every registered pair.  A span runs the per-cycle
/// loop of Component::tick_span over them.
class LambdaComponent final : public Component {
 public:
  using TickFn = std::function<void(Cycle)>;

  LambdaComponent(std::string name, DomainId domain, Phase phase, TickFn fn)
      : Component(std::move(name), domain, phase_bit(phase)) {
    fns_[static_cast<std::size_t>(phase)].push_back(std::move(fn));
  }

  /// Multi-phase variant: call `on` repeatedly before registration.
  LambdaComponent(std::string name, DomainId domain)
      : Component(std::move(name), domain, 0) {}

  void on(Phase phase, TickFn fn) {
    add_phases(phase_bit(phase));
    fns_[static_cast<std::size_t>(phase)].push_back(std::move(fn));
  }

  void tick_phase(Phase phase, Cycle now) override {
    for (auto& fn : fns_[static_cast<std::size_t>(phase)]) fn(now);
  }

 private:
  std::array<std::vector<TickFn>, kPhaseCount> fns_;
};

/// Wraps any `T` with a `void tick(Cycle)` method as a single-phase
/// component.  Non-owning: the target must outlive the engine run.
/// Targets that additionally expose `tick_span(Cycle, Cycle)` get span
/// dispatch forwarded to it; targets that want to publish quiescence
/// hints keep the pointer returned by Engine::add / their attach helper
/// and call set_next_event on it.
template <typename T>
class TickComponent final : public Component {
 public:
  TickComponent(std::string name, DomainId domain, Phase phase, T& target)
      : Component(std::move(name), domain, phase_bit(phase)), target_(target) {}

  void tick_phase(Phase, Cycle now) override { target_.tick(now); }

  void tick_span(Phase phase, Cycle begin, Cycle end) override {
    if constexpr (requires(T& t, Cycle b, Cycle e) { t.tick_span(b, e); }) {
      target_.tick_span(begin, end);
    } else {
      Component::tick_span(phase, begin, end);
    }
  }

 private:
  T& target_;
};

}  // namespace cfm::sim
