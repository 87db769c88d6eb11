// Closed-form memory-access efficiency models (§3.4.1 / §3.4.2).
//
// Conventional interleaved memory, n processors / m modules / block time
// beta, uniform access rate r per processor per cycle:
//
//   P(r)   = (n-1) * r * beta / m                (prob. target module busy)
//   M(r)   = beta * (2 - P) / (2 - 2P)           (expected completion time,
//                                                 failed try costs beta/2)
//   E(r)   = beta / M(r) = (2 - 2P) / (2 - P)
//          = (2m - 2(n-1) r beta) / (2m - (n-1) r beta)
//
// Partially conflict-free machine, locality lambda (fraction of accesses
// to the local cluster), m conflict-free modules:
//
//   P1 = (1 - lambda) r beta                     (local access blocked)
//   P2 = (1 - (1 - lambda)/(m - 1)) r beta       (remote access blocked)
//   P(r,lambda) = P1*lambda + P2*(1-lambda)
//               = ((-m l^2 + 2 l + m - 2) / (m - 1)) r beta
//   E(r,lambda) = (2 - 2P) / (2 - P)
//
// The fully conflict-free machine has E = 1 identically.  These are the
// exact curves of Figs 3.13 / 3.14 / 3.15; the simulation counterparts
// live in workload/ and the benches overlay the two.
#pragma once

#include <cstdint>

namespace cfm::analytic {

struct ConventionalModel {
  std::uint32_t processors = 8;  ///< n
  std::uint32_t modules = 8;     ///< m
  std::uint32_t beta = 17;       ///< block access time

  /// Probability a block access finds its module busy.
  [[nodiscard]] double conflict_probability(double rate) const noexcept;
  /// Expected cycles to complete one block access (>= beta).
  [[nodiscard]] double expected_access_time(double rate) const noexcept;
  /// Memory access efficiency E(r) in (0, 1].
  [[nodiscard]] double efficiency(double rate) const noexcept;
};

struct PartialCfmModel {
  std::uint32_t processors = 64;  ///< n
  std::uint32_t modules = 8;      ///< m (conflict-free modules)
  std::uint32_t beta = 17;

  /// P1: a local access blocked by a remote one occupying its slot.
  [[nodiscard]] double local_block_probability(double rate, double locality) const noexcept;
  /// P2: a remote access finding its slot busy.
  [[nodiscard]] double remote_block_probability(double rate, double locality) const noexcept;
  /// Combined P(r, lambda).
  [[nodiscard]] double conflict_probability(double rate, double locality) const noexcept;
  [[nodiscard]] double efficiency(double rate, double locality) const noexcept;
};

}  // namespace cfm::analytic
