// Partially synchronous omega networks (§3.2.2, Figs 3.10/3.11, Table 3.5).
//
// With N = 2^k banks and 2x2 switches, the first j columns are routed by
// circuit switching on the *module number* (top j address bits) and the
// remaining k-j columns are clock-driven.  This groups the banks into
// m = 2^j conflict-free modules of 2^(k-j) banks each, trading block size
// against the degree of conflict freedom:
//
//   * j = 0  -> fully conflict-free CFM (one module, N-word blocks)
//   * j = k  -> fully conventional     (N one-word modules)
//
// Processors split into N/m "contention sets" (p mod (N/m)); picking one
// processor per set yields a "conflict-free cluster" whose members never
// conflict with each other.  `PartialCfmFabric` captures the resulting
// resource model exactly: an access by processor p to module M occupies
// the (module, AT-slot-channel) pair (M, p mod (N/m)) for beta cycles —
// local cluster traffic is conflict-free by construction, and conflicts
// happen only when *remote* clusters collide on a channel (the P1/P2
// probabilities of §3.4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "net/omega.hpp"
#include "sim/types.hpp"

namespace cfm::net {

/// One row of Table 3.5: how a fixed bank pool can be split into modules.
struct PartialOmegaConfig {
  std::uint32_t modules = 1;          ///< m = 2^j
  std::uint32_t banks_per_module = 1; ///< N / m
  std::uint32_t block_words = 1;      ///< == banks_per_module
  std::uint32_t circuit_columns = 0;  ///< j
  std::uint32_t clock_columns = 0;    ///< k - j
  [[nodiscard]] bool fully_conflict_free() const noexcept {
    return circuit_columns == 0;
  }
  [[nodiscard]] bool fully_conventional() const noexcept {
    return clock_columns == 0;
  }
};

/// Enumerates all rows of Table 3.5 for a machine with `banks` banks.
[[nodiscard]] std::vector<PartialOmegaConfig> enumerate_partial_configs(
    std::uint32_t banks);

/// Structural view of one partially synchronous omega.
class PartialOmega {
 public:
  /// `ports` = N (power of two), `modules` = m (power of two <= N).
  PartialOmega(std::uint32_t ports, std::uint32_t modules);

  [[nodiscard]] std::uint32_t ports() const noexcept { return topo_.ports(); }
  [[nodiscard]] std::uint32_t modules() const noexcept { return modules_; }
  [[nodiscard]] std::uint32_t banks_per_module() const noexcept {
    return topo_.ports() / modules_;
  }
  [[nodiscard]] std::uint32_t circuit_columns() const noexcept {
    return log2_exact(modules_);
  }
  [[nodiscard]] std::uint32_t contention_sets() const noexcept {
    return banks_per_module();
  }
  /// Contention set of processor p: p mod (N/m) (§3.2.2).
  [[nodiscard]] std::uint32_t contention_set(Port p) const noexcept {
    return p % banks_per_module();
  }
  /// Conflict-free cluster of processor p (one member per contention set).
  [[nodiscard]] std::uint32_t cluster_of(Port p) const noexcept {
    return p / banks_per_module();
  }

  /// Bank reached by processor p when accessing `module` at slot t: the
  /// clock-driven columns shift within the module subtree.
  [[nodiscard]] Port bank_for(sim::Cycle t, Port p, std::uint32_t module) const;

  /// True iff accesses (p1 -> module1) and (p2 -> module2), both live at
  /// the same slot, collide somewhere in the network or at a bank.  Used
  /// by property tests to confirm that a conflict-free cluster (distinct
  /// contention sets) never self-conflicts, whatever modules are chosen.
  [[nodiscard]] bool conflicts(sim::Cycle t, Port p1, std::uint32_t module1,
                               Port p2, std::uint32_t module2) const;

 private:
  OmegaTopology topo_;
  std::uint32_t modules_;
};

/// Cycle-level resource model for the partially conflict-free machine.
class PartialCfmFabric {
 public:
  /// `processors` = n, `modules` = m (must divide n), `beta` = block time.
  PartialCfmFabric(std::uint32_t processors, std::uint32_t modules,
                   std::uint32_t beta);

  [[nodiscard]] std::uint32_t processors() const noexcept { return n_; }
  [[nodiscard]] std::uint32_t modules() const noexcept { return m_; }
  [[nodiscard]] std::uint32_t channels_per_module() const noexcept {
    return n_ / m_;
  }
  [[nodiscard]] std::uint32_t beta() const noexcept { return beta_; }

  /// Home module (= cluster) of processor p.
  [[nodiscard]] std::uint32_t home_module(std::uint32_t p) const noexcept {
    return p / channels_per_module();
  }
  /// AT-slot channel processor p uses in *every* module.
  [[nodiscard]] std::uint32_t channel_of(std::uint32_t p) const noexcept {
    return p % channels_per_module();
  }

  /// Attempts a block access by processor p to `module` at `now`.
  /// Returns the completion cycle or sim::kNeverCycle on a channel
  /// conflict (the caller backs off and retries, §3.4.2 model).
  sim::Cycle try_access(std::uint32_t p, std::uint32_t module, sim::Cycle now);

  [[nodiscard]] std::uint64_t accesses_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

 private:
  std::uint32_t n_;
  std::uint32_t m_;
  std::uint32_t beta_;
  std::vector<sim::Cycle> busy_until_;  // [module * channels + channel]
  std::uint64_t started_ = 0;
  std::uint64_t conflicts_ = 0;
};

}  // namespace cfm::net
