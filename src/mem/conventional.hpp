// Conventional interleaved shared memory — the paper's baseline (§3.4.1).
//
// m memory modules, each serving one block access at a time for β CPU
// cycles.  A request to a busy module *conflicts*: the requester backs off
// and retries (the analytic model assumes a mean back-off of β/2; the
// workload driver draws Uniform[1, β]).  This is the abstraction the paper
// uses for the Ultracomputer/RP3/Butterfly class of machines before adding
// network contention on top (which `net::CircuitOmega` supplies).
#pragma once

#include <cstdint>
#include <vector>

#include "sim/audit.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::mem {

class ConventionalMemory {
 public:
  /// `modules` == m, `block_access_time` == β.
  ConventionalMemory(std::uint32_t modules, std::uint32_t block_access_time);

  [[nodiscard]] std::uint32_t module_count() const noexcept {
    return static_cast<std::uint32_t>(busy_until_.size());
  }
  [[nodiscard]] std::uint32_t block_access_time() const noexcept { return beta_; }

  /// True if `module` is serving another block access at `now`.
  [[nodiscard]] bool busy(sim::ModuleId module, sim::Cycle now) const {
    return now < busy_until_.at(module);
  }

  /// Attempts to start a block access on `module` at `now`.  On success the
  /// module is held for β cycles and the access completes at `now + β`
  /// (returned).  On conflict returns sim::kNeverCycle and counts it.
  sim::Cycle try_start(sim::ModuleId module, sim::Cycle now);

  [[nodiscard]] std::uint64_t accesses_started() const noexcept { return started_; }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

  /// Negative-control instrumentation: registers a Contended scope (this
  /// memory *expects* module conflicts) and reports every try_start so the
  /// auditor independently re-counts the contention Fig 2.1 quantifies.
  void set_audit(sim::ConflictAuditor& auditor);

 private:
  std::uint32_t beta_;
  std::vector<sim::Cycle> busy_until_;
  std::uint64_t started_ = 0;
  std::uint64_t conflicts_ = 0;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
};

}  // namespace cfm::mem
