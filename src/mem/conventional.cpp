#include "mem/conventional.hpp"

#include <stdexcept>

namespace cfm::mem {

ConventionalMemory::ConventionalMemory(std::uint32_t modules,
                                       std::uint32_t block_access_time)
    : beta_(block_access_time), busy_until_(modules, 0) {
  if (modules == 0 || beta_ == 0) {
    throw std::invalid_argument(
        "module count and block access time must be positive");
  }
}

sim::Cycle ConventionalMemory::try_start(sim::ModuleId module, sim::Cycle now) {
  if (audit_) audit_->on_module_access(audit_scope_, now, module, beta_);
  auto& until = busy_until_.at(module);
  if (now < until) {
    ++conflicts_;
    return sim::kNeverCycle;
  }
  until = now + beta_;
  ++started_;
  return until;
}

void ConventionalMemory::set_audit(sim::ConflictAuditor& auditor) {
  audit_ = &auditor;
  audit_scope_ = auditor.add_scope("conventional", sim::AuditScopeKind::Contended,
                                   module_count(), beta_, beta_);
}

}  // namespace cfm::mem
