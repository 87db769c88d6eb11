// Omega network topology and the clock-driven ("synchronous") omega.
//
// An N x N omega (N = 2^k) is k shuffle-exchange stages of N/2 two-by-two
// switches (Fig 3.7).  `OmegaTopology` captures the wiring and classic
// destination-tag routing; `SyncOmega` derives, for every time slot t, the
// switch-state schedule that realizes the uniform shift sigma_t(i) =
// (t + i) mod N with zero conflicts (Table 3.4 / Fig 3.8) — this is
// Lawrie's result that omega passes all uniform shifts, applied to make
// every switch state a pure function of the clock.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/permutation.hpp"
#include "sim/types.hpp"

namespace cfm::net {

/// Switch state: 0 = straight, 1 = interchange (paper Fig 3.7 legend).
enum class SwitchState : std::uint8_t { Straight = 0, Interchange = 1 };

class OmegaTopology {
 public:
  /// `ports` must be a power of two >= 2.
  explicit OmegaTopology(std::uint32_t ports);

  [[nodiscard]] std::uint32_t ports() const noexcept { return ports_; }
  [[nodiscard]] std::uint32_t stages() const noexcept { return stages_; }
  [[nodiscard]] std::uint32_t switches_per_stage() const noexcept {
    return ports_ / 2;
  }

  /// Perfect shuffle: rotate the k-bit line number left by one.
  [[nodiscard]] Port shuffle(Port x) const noexcept {
    return ((x << 1) | (x >> (stages_ - 1))) & (ports_ - 1);
  }

  /// One hop of a routed path.
  struct PathStep {
    std::uint32_t stage = 0;         ///< column index, 0 = nearest sources
    std::uint32_t switch_index = 0;  ///< switch within the column
    std::uint8_t in_port = 0;        ///< 0 = upper, 1 = lower
    std::uint8_t out_port = 0;       ///< chosen by the destination bit
    Port line_after = 0;             ///< line number leaving the stage
  };

  /// Destination-tag route from `src` to `dst`: at stage s the switch
  /// output is bit (stages-1-s) of `dst`.  Always exists and is unique.
  [[nodiscard]] std::vector<PathStep> route(Port src, Port dst) const;

 private:
  std::uint32_t ports_;
  std::uint32_t stages_;
};

/// Per-slot switch-state table: state_of[stage][switch].
using StageStates = std::vector<std::vector<SwitchState>>;

class SyncOmega {
 public:
  explicit SyncOmega(std::uint32_t ports);

  [[nodiscard]] const OmegaTopology& topology() const noexcept { return topo_; }
  [[nodiscard]] std::uint32_t ports() const noexcept { return topo_.ports(); }

  /// State of switch (`stage`, `sw`) at time slot t (Table 3.4).
  [[nodiscard]] SwitchState switch_state(sim::Cycle t, std::uint32_t stage,
                                         std::uint32_t sw) const;

  /// Output port reached from `input` at slot t, computed by *traversing
  /// the switches* (not by formula) so tests can confirm the schedule
  /// really implements sigma_t.
  [[nodiscard]] Port output_for(sim::Cycle t, Port input) const;

  /// Derives the conflict-free state table for an arbitrary permutation,
  /// or nullopt if the permutation cannot pass the omega in one slot.
  /// Exposed for property tests (uniform shifts always succeed; most
  /// random permutations do not — that is why plain MINs have contention).
  [[nodiscard]] static std::optional<StageStates> schedule_for_permutation(
      const OmegaTopology& topo, const std::vector<Port>& perm);

 private:
  OmegaTopology topo_;
  std::vector<StageStates> per_slot_;  ///< index = t mod ports
};

}  // namespace cfm::net
