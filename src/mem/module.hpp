// A memory module: b banks over one shared backing store.
//
// In a fully conflict-free machine there is exactly one module; the
// partially conflict-free extension (§3.2.2) groups banks into m modules,
// each of which is a conflict-free unit with smaller blocks.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/bank.hpp"
#include "mem/backing_store.hpp"
#include "sim/audit.hpp"
#include "sim/types.hpp"

namespace cfm::mem {

class Module {
 public:
  /// `banks` words per block, each bank with `bank_cycle_time` == c.
  Module(sim::ModuleId id, std::uint32_t banks, std::uint32_t bank_cycle_time);

  [[nodiscard]] sim::ModuleId id() const noexcept { return id_; }
  [[nodiscard]] std::uint32_t bank_count() const noexcept {
    return static_cast<std::uint32_t>(banks_.size());
  }
  /// Banks the AT schedule addresses (bank_count() minus spares).
  [[nodiscard]] std::uint32_t logical_bank_count() const noexcept {
    return static_cast<std::uint32_t>(banks_.size()) - spares_;
  }
  [[nodiscard]] Bank& bank(sim::BankId i) { return banks_.at(i); }
  [[nodiscard]] const Bank& bank(sim::BankId i) const { return banks_.at(i); }
  [[nodiscard]] BackingStore& store() noexcept { return store_; }
  [[nodiscard]] const BackingStore& store() const noexcept { return store_; }

  /// Registers one ConflictFree scope covering all banks of this module
  /// and wires every bank's access probe into it.  `beta` is the nominal
  /// block access time the owner promises (b + c − 1 for a full CFM).
  /// Call before the run starts; returns the scope for the owner's
  /// schedule/completion checks.
  sim::ConflictAuditor::ScopeId set_audit(sim::ConflictAuditor& auditor,
                                          std::uint32_t beta);

  /// Appends `count` spare banks for graceful degradation.  Spares sit at
  /// physical indices [logical_bank_count(), bank_count()) and serve a
  /// dead logical bank's word slice via Bank::access_as once the owner
  /// remaps onto them.  Safe to call before or after set_audit().
  void provision_spares(std::uint32_t count);

 private:
  sim::ModuleId id_;
  BackingStore store_;
  std::vector<Bank> banks_;
  std::uint32_t spares_ = 0;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
};

}  // namespace cfm::mem
