// Slot oversubscription (§7.2 future work).
//
// "When a processor is not accessing memory, its time slot is wasted.
//  One way to utilize this valuable resource is to assign a time slot to
//  more than one processor.  Although processors sharing the same time
//  slot can conflict with each other ... the memory and network
//  utilizations are further improved."
//
// `SharedSlotFabric` models exactly that trade: v virtual processors
// share s AT-space slots (v >= s).  An access occupies the issuing
// processor's slot for beta cycles; processors mapped to the same slot
// conflict with each other (and only with each other).  The closed-form
// model mirrors §3.4.1 with (v/s - 1) competitors per slot.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/types.hpp"

namespace cfm::core {

class SharedSlotFabric {
 public:
  /// `processors` virtual processors over `slots` AT-space slots
  /// (`slots` must divide `processors`); block time `beta`.
  SharedSlotFabric(std::uint32_t processors, std::uint32_t slots,
                   std::uint32_t beta);

  [[nodiscard]] std::uint32_t processors() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t slots() const noexcept { return s_; }
  [[nodiscard]] std::uint32_t beta() const noexcept { return beta_; }

  /// Slot owned (shared) by virtual processor p.
  [[nodiscard]] std::uint32_t slot_of(std::uint32_t p) const noexcept {
    return p % s_;
  }

  /// Attempts a block access by processor p at `now`.  Returns completion
  /// cycle or sim::kNeverCycle when the slot is held by a sharer.
  sim::Cycle try_access(std::uint32_t p, sim::Cycle now);

  [[nodiscard]] std::uint64_t accesses_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }
  /// Fraction of slot-cycles actually carrying data in [0, elapsed).
  [[nodiscard]] double utilization(sim::Cycle elapsed) const noexcept;

 private:
  std::uint32_t n_;
  std::uint32_t s_;
  std::uint32_t beta_;
  std::vector<sim::Cycle> busy_until_;
  std::uint64_t started_ = 0;
  std::uint64_t conflicts_ = 0;
  std::uint64_t busy_ = 0;
};

/// Closed-form model in the style of §3.4.1: a slot shared by k = v/s
/// processors sees conflicts with probability P = (k-1) r beta and the
/// efficiency is E = (2 - 2P) / (2 - P); slot utilization approaches
/// k·r·beta (capped at 1).
struct SharedSlotModel {
  std::uint32_t processors = 8;
  std::uint32_t slots = 4;
  std::uint32_t beta = 17;

  [[nodiscard]] double conflict_probability(double rate) const noexcept;
  [[nodiscard]] double efficiency(double rate) const noexcept;
  [[nodiscard]] double slot_utilization(double rate) const noexcept;
};

/// Measures the fabric under closed-loop Bernoulli(r) traffic; returns
/// {efficiency, utilization, conflicts}.
struct SharedSlotResult {
  double efficiency = 1.0;
  double utilization = 0.0;
  std::uint64_t conflicts = 0;
  std::uint64_t completed = 0;
};

[[nodiscard]] SharedSlotResult measure_shared_slots(std::uint32_t processors,
                                                    std::uint32_t slots,
                                                    std::uint32_t beta,
                                                    double rate,
                                                    sim::Cycle cycles,
                                                    std::uint64_t seed);

}  // namespace cfm::core
