#include "mem/module.hpp"

#include <string>

namespace cfm::mem {

Module::Module(sim::ModuleId id, std::uint32_t banks,
               std::uint32_t bank_cycle_time)
    : id_(id), store_(banks) {
  banks_.reserve(banks);
  for (std::uint32_t i = 0; i < banks; ++i) {
    banks_.emplace_back(i, bank_cycle_time, store_);
  }
}

sim::ConflictAuditor::ScopeId Module::set_audit(sim::ConflictAuditor& auditor,
                                                std::uint32_t beta) {
  // The scope is registered over the *logical* banks: the AT-space
  // schedule check reduces modulo this count, and the auditor grows its
  // per-bank occupancy state on demand when a spare's probe fires.
  const auto scope = auditor.add_scope(
      "module" + std::to_string(id_), sim::AuditScopeKind::ConflictFree,
      logical_bank_count(), banks_.empty() ? 1 : banks_.front().cycle_time(),
      beta);
  audit_ = &auditor;
  audit_scope_ = scope;
  for (auto& b : banks_) b.set_audit(&auditor, scope);
  return scope;
}

void Module::provision_spares(std::uint32_t count) {
  const auto cycle =
      banks_.empty() ? 1 : banks_.front().cycle_time();
  banks_.reserve(banks_.size() + count);
  for (std::uint32_t i = 0; i < count; ++i) {
    banks_.emplace_back(static_cast<sim::BankId>(banks_.size()), cycle,
                        store_);
    if (audit_ != nullptr) banks_.back().set_audit(audit_, audit_scope_);
  }
  spares_ += count;
}

}  // namespace cfm::mem
