// Deterministic fault injection for the simulated machine.
//
// The paper proves conflict freedom *by construction*; this module asks
// what the machine does when the construction's physical substrate
// misbehaves.  A `FaultPlan` is a declarative, seeded schedule of
// component faults:
//
//   * bank stuck-dead      — a memory bank stops serving word accesses
//                            (CfmMemory remaps its AT slot to a spare);
//   * module brownout      — a whole module's service pauses for a window
//                            (latency degradation, tours restart after);
//   * omega stage/link     — one switch-output line of the omega network
//                            misroutes (audited as an injected fault);
//   * message drop         — inter-cluster / protocol messages are lost
//                            with probability p (bounded retransmission).
//
// Components consult a `FaultInjector` on their tick through the same
// null-check fast path as `TxnTracer`: a machine without an injector
// attached pays one pointer compare per tick and nothing else.  All
// queries except `drop_message` are const and touch only immutable plan
// state, so per-domain components may consult one shared injector;
// `drop_message` draws from the seeded RNG and must only be called from
// shared-domain code (the cluster link, cache pending queues) — the
// single-writer discipline every stat shard already obeys, which keeps
// the draw order the same under the fast path's domain-at-a-time spans.
//
// Plans parse from the `--fault-plan` bench flag, e.g.
//
//   bank_dead@100:module=0,bank=3;brownout@200+50:module=0;drop@0:prob=0.01
//
// entry := <kind>@<start>[+<duration>][:<key>=<value>,...]; duration 0
// (or absent) means permanent.  Malformed text throws
// std::invalid_argument — a typo must not silently run a clean machine.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::sim {

enum class FaultKind : std::uint8_t {
  BankDead,        ///< bank never serves again (until duration expires)
  ModuleBrownout,  ///< module pauses service for the window
  OmegaLink,       ///< switch output line (stage, link) misroutes (parsed;
                   ///< no machine consults it)
  MessageDrop,     ///< messages dropped with `probability` while active
};

[[nodiscard]] std::string_view fault_kind_name(FaultKind kind) noexcept;

struct FaultSpec {
  FaultKind kind = FaultKind::BankDead;
  Cycle at = 0;        ///< first faulty cycle
  Cycle duration = 0;  ///< 0 = permanent
  ModuleId module = 0;
  BankId bank = 0;          ///< BankDead
  std::uint32_t stage = 0;  ///< OmegaLink
  std::uint32_t link = 0;   ///< OmegaLink
  double probability = 1.0;  ///< MessageDrop

  [[nodiscard]] bool active(Cycle now) const noexcept {
    return now >= at && (duration == 0 || now < at + duration);
  }
};

/// A validated, ordered collection of fault specs.
class FaultPlan {
 public:
  FaultPlan() = default;

  /// Validates and appends; throws std::invalid_argument on nonsense
  /// (probability outside [0,1], a MessageDrop with probability 0, ...).
  void add(const FaultSpec& spec);

  [[nodiscard]] bool empty() const noexcept { return specs_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return specs_.size(); }
  [[nodiscard]] const std::vector<FaultSpec>& specs() const noexcept {
    return specs_;
  }

  /// Parses the `--fault-plan` entry grammar (see file comment).  Throws
  /// std::invalid_argument with a pointed message on malformed text.
  [[nodiscard]] static FaultPlan parse(std::string_view text);

  /// Round-trips through parse(): to_string() of a parsed plan parses
  /// back to an identical plan.
  [[nodiscard]] std::string to_string() const;

  /// For a backend that is one memory module with `banks` banks and no
  /// network: throws std::invalid_argument naming the entry when it
  /// targets a module other than 0, a bank >= `banks`, or the
  /// interconnect (omega_link, drop).  Nothing would consult such a
  /// fault, so the run would measure a healthy machine.  `what` names
  /// the backend in the message ("coded memory (data + parity banks)").
  void validate_single_module(std::uint32_t banks,
                              std::string_view what) const;

 private:
  std::vector<FaultSpec> specs_;
};

/// The runtime query surface components consult on their tick.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan, std::uint64_t seed = 0x0fa017ULL);

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  /// Pure queries — safe from any tick domain.
  [[nodiscard]] bool bank_dead(Cycle now, ModuleId module, BankId bank) const;
  [[nodiscard]] bool module_paused(Cycle now, ModuleId module) const;
  [[nodiscard]] bool any_active(Cycle now) const;
  /// Number of specs active at `now` — the telemetry fault-lifecycle gauge.
  [[nodiscard]] std::uint32_t active_count(Cycle now) const;

  /// Bernoulli draw against every active MessageDrop spec.  Mutates the
  /// seeded RNG and the drop counters: call only from shared-domain code.
  [[nodiscard]] bool drop_message(Cycle now);

  /// "messages_dropped" / "messages_offered" from drop_message().
  [[nodiscard]] const CounterSet& counters() const noexcept {
    return counters_;
  }

 private:
  FaultPlan plan_;
  Rng rng_;
  /// The injector's counters, with every id interned at construction.
  struct Counters : CounterSet {
    CounterId messages_offered = intern("messages_offered");
    CounterId messages_dropped = intern("messages_dropped");
  };
  Counters counters_;
};

}  // namespace cfm::sim
