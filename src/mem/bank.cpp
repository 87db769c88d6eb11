#include "mem/bank.hpp"

namespace cfm::mem {

Bank::Bank(sim::BankId index, std::uint32_t cycle_time, BackingStore& store)
    : index_(index), cycle_time_(cycle_time), store_(store) {
  assert(cycle_time_ > 0);
}

sim::Word Bank::access(sim::Cycle now, WordOp op, sim::BlockAddr block,
                       sim::Word value) {
  return access_as(now, op, block, index_, value);
}

sim::Word Bank::access_as(sim::Cycle now, WordOp op, sim::BlockAddr block,
                          sim::BankId word_index, sim::Word value) {
  return access_row(now, op,
                    op == WordOp::Read ? store_.find_row(block)
                                       : store_.row(block),
                    word_index, value);
}

sim::Word Bank::access_row(sim::Cycle now, WordOp op, sim::Word* row,
                           sim::BankId word_index, sim::Word value) {
  // The AT-space partitioning must keep banks conflict-free; a violation
  // here is a scheduling bug in the caller, not a runtime condition.
  assert(!busy(now) && "bank conflict: AT-space schedule violated");
  assert(word_index < store_.words_per_block());
  if (audit_ != nullptr) [[unlikely]] {
    audit_->on_bank_access(audit_scope_, now, index_);
  }
  busy_until_ = now + cycle_time_;
  if (op == WordOp::Read) return row == nullptr ? 0 : row[word_index];
  assert(row != nullptr);
  row[word_index] = value;
  return value;
}

}  // namespace cfm::mem
