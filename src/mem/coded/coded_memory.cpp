#include "mem/coded/coded_memory.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace cfm::mem::coded {

void CodedConfig::validate() const {
  if (processors == 0) {
    throw std::invalid_argument("coded memory: processors must be positive");
  }
  if (bank_cycle == 0) {
    throw std::invalid_argument("coded memory: bank_cycle must be positive");
  }
  code.validate();
}

CodedMemory::CodedMemory(const CodedConfig& cfg)
    : cfg_(cfg),
      store_(cfg.code.data_banks + cfg.code.parity_banks()),
      log_capacity_(cfg.log_capacity == 0 ? 4 : cfg.log_capacity),
      results_(cfg.processors) {
  cfg_.validate();
  const std::uint32_t total = cfg_.code.total_banks();
  banks_.reserve(total);  // Bank holds a store reference: never reallocate
  for (std::uint32_t i = 0; i < total; ++i) {
    banks_.emplace_back(i, cfg_.bank_cycle, store_);
  }
  dead_.assign(total, false);
  peers_.resize(cfg_.code.data_banks);
  if (cfg_.code.parity_per_stripe != 0) {
    for (std::uint32_t w = 0; w < cfg_.code.data_banks; ++w) {
      peers_[w] = cfg_.code.group_peers(w);
    }
  }
  logs_.resize(cfg_.code.parity_banks());
  inflight_.resize(cfg_.processors);
  // Materialize the headline counters at zero so every report carries the
  // same keys whether or not the path fired (validators check arithmetic
  // over these; absent-vs-zero should not depend on the workload).
  for (const sim::CounterId id :
       {counters_.word_reads_direct, counters_.word_reads_decoded,
        counters_.word_writes_direct, counters_.word_writes_decoded,
        counters_.parity_updates, counters_.decode_mismatches,
        counters_.decode_bank_reads, counters_.bank_failures,
        counters_.fault_aborts}) {
    counters_.inc(id, 0);
  }
}

CodedMemory::OpToken CodedMemory::issue(sim::Cycle now, sim::ProcessorId p,
                                        core::BlockOpKind kind,
                                        sim::BlockAddr block,
                                        std::span<const sim::Word> data) {
  if (p >= cfg_.processors) {
    throw std::invalid_argument("coded memory: processor id out of range");
  }
  if (!idle(p)) {
    throw std::logic_error("coded memory: processor already has an op");
  }
  const std::uint32_t d = cfg_.code.data_banks;
  if (kind != core::BlockOpKind::Read && kind != core::BlockOpKind::Write) {
    throw std::invalid_argument("coded memory: only Read and Write block ops");
  }
  if (kind == core::BlockOpKind::Write && data.size() != d) {
    throw std::invalid_argument(
        "coded memory: a block write must supply exactly data_banks words");
  }
  InFlight op;
  op.token = next_token_++;
  op.kind = kind;
  op.block = block;
  op.proc = p;
  op.issued = now;
  // De-phase the tours CFM-style so stall-free traffic sweeps the data
  // banks without colliding: processor p starts its tour at word c·p mod D.
  op.start_word = (p * cfg_.bank_cycle) % d;
  if (kind == core::BlockOpKind::Read) {
    op.read_buf.assign(d, 0);
  } else {
    op.write_buf.assign(data.begin(), data.end());
  }
  const OpToken token = op.token;
  inflight_[p] = std::move(op);
  counters_.inc(kind == core::BlockOpKind::Read ? counters_.reads
                                                : counters_.writes);
  publish_wake();
  return token;
}

void CodedMemory::tick(sim::Cycle now) {
  if (faults_ != nullptr) check_faults(now);
  const bool paused = faults_ != nullptr && faults_->module_paused(now, 0);
  if (paused && !was_paused_) {
    counters_.inc(counters_.brownouts);
    if (audit_ != nullptr) audit_->on_injected(audit_scope_, now, "brownout");
  }
  was_paused_ = paused;
  if (!paused) {
    for (auto& slot : inflight_) {
      if (slot.has_value()) step_op(now, *slot);
    }
    drain_logs(now);
  }
  publish_wake();
}

void CodedMemory::check_faults(sim::Cycle now) {
  // Death is permanent even if the spec carries a duration (see the file
  // comment): the scan only ever flips dead_[i] false -> true.
  for (std::uint32_t i = 0; i < dead_.size(); ++i) {
    if (!dead_[i] && faults_->bank_dead(now, 0, i)) {
      dead_[i] = true;
      counters_.inc(counters_.bank_failures);
      counters_.inc(i < cfg_.code.data_banks ? counters_.data_bank_failures
                                             : counters_.parity_bank_failures);
      if (audit_ != nullptr) {
        audit_->on_injected(audit_scope_, now, "bank_dead");
      }
      // A parity bank dying orphans its pending deltas — the group is now
      // uncoded and the queued XORs have nowhere to land.
      if (i >= cfg_.code.data_banks) {
        auto& log = logs_[i - cfg_.code.data_banks];
        if (!log.empty()) {
          counters_.inc(counters_.parity_deltas_orphaned, log.size());
          pending_total_ -= log.size();
          log.clear();
        }
      }
    }
  }
}

bool CodedMemory::structurally_unserviceable(std::uint32_t word) const {
  if (!dead_[word]) return false;
  if (cfg_.code.parity_per_stripe == 0) return true;
  const std::uint32_t g = cfg_.code.group_of(word);
  if (parity_dead(g)) return true;
  for (const std::uint32_t peer : peers_[word]) {
    if (dead_[peer]) return true;
  }
  return false;
}

bool CodedMemory::group_claimable(sim::Cycle now, std::uint32_t word) const {
  if (cfg_.code.parity_per_stripe == 0) return false;
  const std::uint32_t g = cfg_.code.group_of(word);
  if (parity_dead(g) || banks_[cfg_.code.data_banks + g].busy(now)) {
    return false;
  }
  for (const std::uint32_t peer : peers_[word]) {
    if (dead_[peer] || banks_[peer].busy(now)) return false;
  }
  return true;
}

sim::Word CodedMemory::decode_word(sim::Cycle now, sim::BlockAddr block,
                                   std::uint32_t word) {
  const std::uint32_t g = cfg_.code.group_of(word);
  const std::uint64_t pending = logs_[g].size();
  sim::Word acc = parity_bank(g).access(now, WordOp::Read, block);
  std::uint32_t fanout = 1;
  for (const std::uint32_t peer : peers_[word]) {
    acc ^= banks_[peer].access(now, WordOp::Read, block);
    ++fanout;
  }
  counters_.inc(counters_.decode_bank_reads, fanout);
  decode_fanout_max_ = std::max(decode_fanout_max_, fanout);
  if (audit_ != nullptr) {
    audit_->on_decode(audit_scope_, now, fanout);
    audit_->on_parity_guard(audit_scope_, now, pending);
  }
  // The code is checked, not assumed: the XOR of parity and survivors
  // must equal the architectural word.
  if (acc != store_.read_word(block, word)) {
    counters_.inc(counters_.decode_mismatches);
  }
  return acc;
}

void CodedMemory::step_op(sim::Cycle now, InFlight& op) {
  const std::uint32_t d = cfg_.code.data_banks;
  const std::uint32_t word = (op.start_word + op.progress) % d;
  const bool served = op.kind == core::BlockOpKind::Read
                          ? step_read_word(now, op, word)
                          : step_write_word(now, op, word);
  if (served) {
    advance(now, op);
    return;
  }
  stall(now, op);
  if (structurally_unserviceable(word)) {
    if (!op.unserviceable_noted) {
      op.unserviceable_noted = true;
      counters_.inc(counters_.bank_failures_unmapped);
    }
    if (faults_ != nullptr && now - op.stalled_since >= fault_timeout_) {
      counters_.inc(counters_.fault_aborts);
      finish(now, op, core::OpStatus::Aborted);
    }
  }
}

bool CodedMemory::step_read_word(sim::Cycle now, InFlight& op,
                                 std::uint32_t word) {
  if (!dead_[word] && !banks_[word].busy(now)) {
    op.read_buf[word] = banks_[word].access(now, WordOp::Read, op.block);
    counters_.inc(counters_.word_reads_direct);
    return true;
  }
  if (!group_claimable(now, word)) {
    counters_.inc(counters_.bank_stalls);
    return false;
  }
  // Logged policy: decoding through unapplied deltas would reconstruct
  // from stale parity — wait for the group's log to drain.
  const std::uint32_t g = cfg_.code.group_of(word);
  if (cfg_.code.policy == ParityPolicy::Logged && !logs_[g].empty()) {
    counters_.inc(counters_.torn_parity_waits);
    return false;
  }
  op.read_buf[word] = decode_word(now, op.block, word);
  counters_.inc(counters_.word_reads_decoded);
  return true;
}

bool CodedMemory::step_write_word(sim::Cycle now, InFlight& op,
                                  std::uint32_t word) {
  const sim::Word value = op.write_buf[word];
  const sim::Word old = store_.read_word(op.block, word);
  const bool uncoded = cfg_.code.parity_per_stripe == 0;
  const std::uint32_t g = uncoded ? 0 : cfg_.code.group_of(word);

  if (!dead_[word]) {
    if (banks_[word].busy(now)) {
      counters_.inc(counters_.bank_stalls);
      return false;
    }
    if (uncoded || parity_dead(g)) {
      banks_[word].access(now, WordOp::Write, op.block, value);
      if (!uncoded) counters_.inc(counters_.parity_skipped);
      counters_.inc(counters_.word_writes_direct);
      return true;
    }
    if (cfg_.code.policy == ParityPolicy::ReadModifyWrite) {
      Bank& pb = parity_bank(g);
      if (pb.busy(now)) {
        counters_.inc(counters_.bank_stalls);
        return false;
      }
      banks_[word].access(now, WordOp::Write, op.block, value);
      const sim::Word pold =
          store_.read_word(op.block, cfg_.code.data_banks + g);
      pb.access(now, WordOp::Write, op.block, pold ^ old ^ value);
      counters_.inc(counters_.parity_updates);
      counters_.inc(counters_.word_writes_direct);
      return true;
    }
    // Logged: the data bank commits now, the parity XOR delta queues on
    // the bounded per-group log for the background drain.
    if (logs_[g].size() >= log_capacity_) {
      counters_.inc(counters_.log_stalls);
      return false;
    }
    banks_[word].access(now, WordOp::Write, op.block, value);
    logs_[g].push_back(PendingDelta{op.block, old ^ value});
    ++pending_total_;
    counters_.inc(counters_.parity_deltas_logged);
    counters_.inc(counters_.word_writes_direct);
    return true;
  }

  // Dead data bank: recover the old word from the survivors and fold the
  // update into parity — the written word lives on only through the code.
  if (!group_claimable(now, word)) {
    counters_.inc(counters_.bank_stalls);
    return false;
  }
  if (cfg_.code.policy == ParityPolicy::Logged && !logs_[g].empty()) {
    counters_.inc(counters_.torn_parity_waits);
    return false;
  }
  const std::uint32_t parity_word = cfg_.code.data_banks + g;
  const sim::Word pold = store_.read_word(op.block, parity_word);
  sim::Word others = 0;
  std::uint32_t fanout = 1;  // the parity bank's read-modify-write slot
  for (const std::uint32_t peer : peers_[word]) {
    others ^= banks_[peer].access(now, WordOp::Read, op.block);
    ++fanout;
  }
  const sim::Word recovered_old = pold ^ others;
  counters_.inc(counters_.decode_bank_reads, fanout);
  decode_fanout_max_ = std::max(decode_fanout_max_, fanout);
  if (audit_ != nullptr) {
    audit_->on_decode(audit_scope_, now, fanout);
    audit_->on_parity_guard(audit_scope_, now, 0);
  }
  if (recovered_old != old) counters_.inc(counters_.decode_mismatches);
  parity_bank(g).access(now, WordOp::Write, op.block,
                        pold ^ recovered_old ^ value);
  // Keep the architectural store current: the dead cell itself is stale
  // forever, but it is also unreachable — every future read decodes.
  store_.write_word(op.block, word, value);
  counters_.inc(counters_.parity_updates);
  counters_.inc(counters_.word_writes_decoded);
  return true;
}

void CodedMemory::stall(sim::Cycle now, InFlight& op) {
  if (op.stalled_since == sim::kNeverCycle) op.stalled_since = now;
}

void CodedMemory::advance(sim::Cycle now, InFlight& op) {
  op.stalled_since = sim::kNeverCycle;
  op.unserviceable_noted = false;
  ++op.progress;
  if (op.progress == cfg_.code.data_banks) {
    finish(now, op, core::OpStatus::Completed);
  }
}

void CodedMemory::finish(sim::Cycle now, InFlight& op, core::OpStatus status) {
  core::BlockOpResult result;
  result.status = status;
  result.issued = op.issued;
  // The final word's data lands bank_cycle later, as in the CFM timing.
  result.completed = status == core::OpStatus::Completed
                         ? now + cfg_.bank_cycle
                         : now;
  if (op.kind == core::BlockOpKind::Read &&
      status == core::OpStatus::Completed) {
    result.data = std::move(op.read_buf);
  }
  counters_.inc(status == core::OpStatus::Completed ? counters_.ops_completed
                                                    : counters_.ops_aborted);
  const sim::ProcessorId p = op.proc;
  results_.put(op.token, p, std::move(result));
  inflight_[p].reset();
}

void CodedMemory::drain_logs(sim::Cycle now) {
  for (std::uint32_t g = 0; g < logs_.size(); ++g) {
    auto& log = logs_[g];
    if (log.empty()) continue;
    Bank& pb = parity_bank(g);
    if (parity_dead(g) || pb.busy(now)) continue;
    // One parity-bank access per cycle applies every queued delta against
    // the head's block in a single XOR (same-block coalescing).
    const sim::BlockAddr block = log.front().block;
    sim::Word merged = 0;
    std::uint64_t taken = 0;
    for (auto it = log.begin(); it != log.end();) {
      if (it->block == block) {
        merged ^= it->delta;
        ++taken;
        it = log.erase(it);
      } else {
        ++it;
      }
    }
    const std::uint32_t parity_word = cfg_.code.data_banks + g;
    const sim::Word pold = store_.read_word(block, parity_word);
    pb.access(now, WordOp::Write, block, pold ^ merged);
    pending_total_ -= taken;
    counters_.inc(counters_.parity_updates);
    if (taken > 1) counters_.inc(counters_.parity_deltas_coalesced, taken - 1);
  }
}

void CodedMemory::attach(sim::Engine& engine, sim::DomainId domain) {
  domain_ = domain;
  auto comp = std::make_shared<sim::LambdaComponent>(
      "mem.coded", domain, sim::Phase::Memory,
      [this](sim::Cycle now) { tick(now); });
  ticker_ = engine.add(std::move(comp));
  publish_wake();
}

void CodedMemory::publish_wake() {
  if (ticker_ == nullptr) return;
  bool busy = pending_total_ > 0 || faults_ != nullptr;
  if (!busy) {
    for (const auto& slot : inflight_) {
      if (slot.has_value()) {
        busy = true;
        break;
      }
    }
  }
  ticker_->set_next_event(busy ? sim::Component::kAlways : sim::kNeverCycle);
}

sim::Cycle CodedMemory::next_completion_hint(sim::Cycle now) const {
  if (!results_.empty()) return now;
  sim::Cycle earliest = sim::kNeverCycle;
  for (const auto& slot : inflight_) {
    if (!slot.has_value()) continue;
    // Stall-free lower bound: one word per remaining slot, the last one
    // served at now + left - 1 at the earliest.  finish() publishes the
    // result at that slot (its `completed` stamp adds bank_cycle, but the
    // result is takeable from the next slot on).  Contention only pushes
    // completion later, so sleeping until this cycle never misses one.
    const sim::Cycle left = cfg_.code.data_banks - slot->progress;
    sim::Cycle bound = now + left;
    if (faults_ != nullptr) {
      // A fault can instead abort the op once it has stalled for
      // fault_timeout_, publishing at once; a stall starts at `now` at
      // the earliest.
      const sim::Cycle since = slot->stalled_since == sim::kNeverCycle
                                   ? now
                                   : slot->stalled_since;
      bound = std::min(bound, std::max(now, since + fault_timeout_));
    }
    earliest = std::min(earliest, bound);
  }
  return earliest;
}

std::optional<core::BlockOpResult> CodedMemory::take_result(OpToken token) {
  return results_.take(token);
}

std::vector<sim::Word> CodedMemory::peek_block(sim::BlockAddr block) const {
  std::vector<sim::Word> words(cfg_.code.data_banks);
  for (std::uint32_t w = 0; w < cfg_.code.data_banks; ++w) {
    words[w] = store_.read_word(block, w);
  }
  return words;
}

void CodedMemory::poke_block(sim::BlockAddr block,
                             std::span<const sim::Word> words) {
  if (words.size() != cfg_.code.data_banks) {
    throw std::invalid_argument(
        "coded memory: poke_block needs exactly data_banks words");
  }
  for (std::uint32_t w = 0; w < cfg_.code.data_banks; ++w) {
    store_.write_word(block, w, words[w]);
  }
  rebuild_parity(block);
}

void CodedMemory::rebuild_parity(sim::BlockAddr block) {
  const std::uint32_t d = cfg_.code.data_banks;
  if (cfg_.code.parity_per_stripe == 0) return;
  std::vector<sim::Word> parity(cfg_.code.parity_banks(), 0);
  for (std::uint32_t w = 0; w < d; ++w) {
    parity[cfg_.code.group_of(w)] ^= store_.read_word(block, w);
  }
  for (std::uint32_t g = 0; g < parity.size(); ++g) {
    store_.write_word(block, d + g, parity[g]);
  }
}

void CodedMemory::set_audit(sim::ConflictAuditor& auditor) {
  audit_ = &auditor;
  audit_scope_ = auditor.add_scope(
      "coded_memory", sim::AuditScopeKind::CodedRelaxed,
      cfg_.code.total_banks(), cfg_.bank_cycle, /*beta=*/0,
      /*fanout_limit=*/cfg_.code.stripe_width);
  for (auto& bank : banks_) bank.set_audit(audit_, audit_scope_);
}

void CodedMemory::set_fault_injector(const sim::FaultInjector& injector,
                                     sim::Cycle timeout) {
  faults_ = &injector;
  fault_timeout_ =
      timeout != 0 ? timeout : sim::Cycle{8} * cfg_.block_access_time();
  publish_wake();
}

}  // namespace cfm::mem::coded
