// A single memory bank.
//
// Bank k of a module stores word k of every block (interleaving at the
// word level, §3.1.1).  A word access occupies the bank for `cycle_time`
// CPU cycles; in a conflict-free machine no two accesses ever overlap in
// one bank, and this class *checks* that invariant rather than arbitrating
// — overlap would mean the AT-space schedule is broken.
#pragma once

#include <cassert>
#include <cstdint>

#include "mem/backing_store.hpp"
#include "sim/audit.hpp"
#include "sim/types.hpp"

namespace cfm::mem {

enum class WordOp : std::uint8_t { Read, Write };

class Bank {
 public:
  /// `index` is this bank's position within its module; `cycle_time` is c.
  Bank(sim::BankId index, std::uint32_t cycle_time, BackingStore& store);

  [[nodiscard]] sim::BankId index() const noexcept { return index_; }
  [[nodiscard]] std::uint32_t cycle_time() const noexcept { return cycle_time_; }

  /// True if an access started earlier is still holding the bank at `now`.
  [[nodiscard]] bool busy(sim::Cycle now) const noexcept {
    return now < busy_until_;
  }

  /// Performs one word access starting at `now`.  For reads, returns the
  /// stored word (architecturally available to the requester at
  /// `now + cycle_time`, the engine accounts for the transfer slot).
  /// Requires the bank to be idle — the CFM schedule guarantees it.
  sim::Word access(sim::Cycle now, WordOp op, sim::BlockAddr block,
                   sim::Word value = 0);

  /// Like access(), but serves word `word_index` of the block instead of
  /// this bank's own index.  Degraded mode uses this to let a *spare*
  /// physical bank stand in for a dead logical bank: the spare inherits
  /// the dead bank's word slice while keeping its own occupancy state.
  sim::Word access_as(sim::Cycle now, WordOp op, sim::BlockAddr block,
                      sim::BankId word_index, sim::Word value = 0);

  /// Like access_as(), on a row the caller already resolved in the
  /// backing store (BackingStore::row / find_row), so the block is not
  /// hashed again.  A read may pass nullptr for a never-written block,
  /// which reads as zero; a write needs a materialized row.
  sim::Word access_row(sim::Cycle now, WordOp op, sim::Word* row,
                       sim::BankId word_index, sim::Word value = 0);

  /// Runtime conflict-freedom observation: every access() additionally
  /// reports to `auditor`'s `scope`, which independently re-derives the
  /// no-overlap invariant that the assert above only checks in debug
  /// builds.  Null by default — the untraced path costs one branch.
  void set_audit(sim::ConflictAuditor* auditor,
                 sim::ConflictAuditor::ScopeId scope) noexcept {
    audit_ = auditor;
    audit_scope_ = scope;
  }

 private:
  sim::BankId index_;
  std::uint32_t cycle_time_;
  BackingStore& store_;
  sim::Cycle busy_until_ = 0;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
};

}  // namespace cfm::mem
