#include "cfm/cfm_memory.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace cfm::core {

CfmMemory::CfmMemory(const CfmConfig& cfg, ConsistencyPolicy policy)
    : cfg_(cfg),
      policy_(policy),
      at_(cfg),
      module_(0, cfg.banks, cfg.bank_cycle),
      inflight_(cfg.processors),
      active_((cfg.processors + 63) / 64, 0),
      lazy_(active_.size(), 0),
      per_slot_(active_.size(), 0),
      results_(cfg.processors) {
  atts_.reserve(cfg_.banks);
  for (std::uint32_t i = 0; i < cfg_.banks; ++i) {
    atts_.emplace_back(cfg_.banks - 1);
  }
}

bool CfmMemory::idle(sim::ProcessorId p) const {
  if (p >= inflight_.size()) {
    throw std::out_of_range("processor " + std::to_string(p) +
                            " out of range");
  }
  return !has_bit(active_, p);
}

// An instrument sees every slot from the one it attaches at: settle the
// lazy ops first, so none of their slots runs unobserved later.
void CfmMemory::set_audit(sim::ConflictAuditor& auditor) {
  settle_lazy(next_slot_);
  audit_ = &auditor;
  audit_scope_ = module_.set_audit(auditor, cfg_.block_access_time());
}

void CfmMemory::set_txn_trace(sim::TxnTracer& tracer) {
  settle_lazy(next_slot_);
  tracer_ = &tracer;
  tracer_unit_ = tracer.add_unit("cfm");
}

void CfmMemory::set_fault_injector(const sim::FaultInjector& injector,
                                   std::uint32_t spare_banks,
                                   sim::Cycle timeout) {
  settle_lazy(next_slot_);
  faults_ = &injector;
  next_spare_ = module_.bank_count();
  module_.provision_spares(spare_banks);
  remap_.resize(cfg_.banks);
  for (sim::BankId b = 0; b < cfg_.banks; ++b) remap_[b] = b;
  dead_.assign(cfg_.banks, false);
  fault_timeout_ =
      timeout != 0 ? timeout
                   : sim::Cycle{8} * cfg_.block_access_time();
}

namespace {

[[nodiscard]] const char* op_kind_name(BlockOpKind kind) noexcept {
  switch (kind) {
    case BlockOpKind::Read: return "read";
    case BlockOpKind::Write: return "write";
    case BlockOpKind::Swap: return "swap";
    case BlockOpKind::ProtoRead: return "proto_read";
    case BlockOpKind::ProtoReadInv: return "proto_read_inv";
    case BlockOpKind::ProtoWriteBack: return "proto_write_back";
  }
  return "?";
}

}  // namespace

CfmMemory::OpToken CfmMemory::issue(sim::Cycle now, sim::ProcessorId p,
                                    BlockOpKind kind, sim::BlockAddr offset,
                                    std::span<const sim::Word> data,
                                    ModifyFn modify) {
  if (!idle(p)) throw std::logic_error("processor already has an op in flight");
  if (now < next_slot_) {
    throw std::logic_error("issue at cycle " + std::to_string(now) +
                           " precedes the next unticked slot " +
                           std::to_string(next_slot_));
  }
  if (kind == BlockOpKind::Swap && policy_ != ConsistencyPolicy::EarliestWins) {
    // §4.2.1: atomic operations require the first-issued-wins priority.
    throw std::logic_error("swap requires ConsistencyPolicy::EarliestWins");
  }
  if (kind == BlockOpKind::ProtoRead || kind == BlockOpKind::ProtoReadInv ||
      kind == BlockOpKind::ProtoWriteBack) {
    throw std::logic_error(
        "protocol primitives are driven by cache::CfmProtocol, not CfmMemory");
  }
  const OpToken token = next_token_++;
  const bool writes = kind == BlockOpKind::Write || kind == BlockOpKind::Swap;
  if (writes && !modify && data.size() != cfg_.banks) {
    throw std::invalid_argument("write data must supply one word per bank");
  }
  if (kind == BlockOpKind::Write && modify) {
    throw std::invalid_argument("modify callback is only valid for Swap");
  }
  // A lazy op on this offset stops being uncontended: bring it to the
  // per-slot state before the new op can meet it.
  settle_lazy(next_slot_, offset);
  // Reuse the slot's buffers: their capacity outlives the op.
  InFlight& op = inflight_[p];
  auto read_buf = std::move(op.read_buf);
  auto write_buf = std::move(op.write_buf);
  op = InFlight{};
  op.token = token;
  op.kind = kind;
  op.offset = offset;
  op.proc = p;
  op.original_issue = now;
  op.tour_start = now;
  op.read_buf = std::move(read_buf);
  op.write_buf = std::move(write_buf);
  if (kind != BlockOpKind::Write) op.read_buf.assign(cfg_.banks, 0);
  if (writes && !modify) op.write_buf.assign(data.begin(), data.end());
  op.modify = std::move(modify);
  if (tracer_) {
    op.txn = tracer_->begin(tracer_unit_, now, p, op_kind_name(kind), offset);
  }
  // Contention bookkeeping (see contended()): every same-offset op in
  // flight shares with the new one, and every recent ATT entry for the
  // offset is foreign to it.
  for_each_active([&](sim::ProcessorId q) {
    auto& other = inflight_[q];
    if (other.offset != offset) return;
    ++other.sharers;
    ++op.sharers;
  });
  for (const auto& r : recent_inserts_) {
    if (r.offset == offset) {
      op.foreign_att_end = std::max(op.foreign_att_end, r.slot + cfg_.banks);
    }
  }
  set_bit(active_, p, true);
  counters_.inc(counters_.ops_issued);
  // A quiescent memory just became actionable: the Memory phase of this
  // same cycle must tick the fresh tour.
  if (ticker_ != nullptr) ticker_->set_next_event(sim::Component::kAlways);
  return token;
}

void CfmMemory::tick(sim::Cycle now) {
  settle_lazy(now);
  if (faults_ != nullptr) [[unlikely]] check_faults(now);
  // One pass over the in-flight ops both steps them and gathers the
  // quiescence hint: an op's state after its own step is final for this
  // slot (ops never mutate each other outside check_faults).
  sim::Cycle wake = sim::kNeverCycle;
  for_each_active([&](sim::ProcessorId p) {
    auto& op = inflight_[p];
    if (tick_op(now, op)) wake = std::min(wake, op_wake(op, now));
  });
  next_slot_ = now + 1;
  if (ticker_ == nullptr) return;
  // Fault windows open and close on arbitrary cycles and remap/abort
  // timing is observable in traces and counters: stay per-cycle.
  ticker_->set_next_event(faults_ != nullptr ? sim::Component::kAlways : wake);
}

bool CfmMemory::tick_op(sim::Cycle now, InFlight& op) {
  if (op.drain_until != sim::kNeverCycle) {
    // Bank tour done; publish once the trailing data words have crossed.
    if (now + 1 < op.drain_until) return true;
    finish(now, op, OpStatus::Completed);
    return false;
  }
  if (halted_) return true;              // fault pause: tours are frozen
  if (op.tour_start > now) return true;  // restart back-off pending
  const sim::ProcessorId p = op.proc;
  step_op(now, op);
  return has_bit(active_, p);
}

sim::Cycle CfmMemory::op_wake(const InFlight& op, sim::Cycle now) noexcept {
  // Draining tours act again at the tick that publishes the result
  // (now + 1 >= drain_until); everything else acts at its tour_start,
  // or immediately next cycle if the tour is already under way.  A lazy
  // op's fields are as of its lazy_from, which can only make this
  // earlier than its true next action: a lazy tour under way wakes the
  // memory every slot.
  return op.drain_until != sim::kNeverCycle ? op.drain_until - 1
                                            : std::max(op.tour_start, now + 1);
}

void CfmMemory::publish_wake(sim::Cycle now) {
  if (ticker_ == nullptr) return;
  if (faults_ != nullptr) {
    ticker_->set_next_event(sim::Component::kAlways);
    return;
  }
  sim::Cycle wake = sim::kNeverCycle;
  for_each_active([&](sim::ProcessorId p) {
    wake = std::min(wake, op_wake(inflight_[p], now));
  });
  ticker_->set_next_event(wake);
}

void CfmMemory::tick_span(sim::Cycle begin, sim::Cycle end) {
  if (audit_ == nullptr && faults_ == nullptr && tracer_ == nullptr &&
      policy_ != ConsistencyPolicy::NoTracking) {
    batched_span(begin, end);
    return;
  }
  // Per-slot path: the real tick() on every cycle the hints cannot rule
  // out, so the auditor's probes, the tracer's records and the fault
  // checks fire exactly as on the reference path.  A skipped cycle has
  // no tour step to probe, trace or fault.
  for (sim::Cycle t = begin; t < end; ++t) {
    if (ticker_ != nullptr) {
      const sim::Cycle w = ticker_->next_event(sim::Phase::Memory);
      if (w > t) {
        if (w >= end) break;  // covers kNeverCycle
        t = w - 1;            // provably idle: nothing external can
        continue;             // mutate us mid-span (tick_span contract)
      }
    }
    tick(t);
  }
  next_slot_ = end;
}

void CfmMemory::batched_span(sim::Cycle begin, sim::Cycle end) {
  // Partition.  No op is issued mid-span, so an op uncontended at
  // `begin` stays so to the end: nothing can bring its offset back.  A
  // lazy op is uncontended: only a same-offset issue() could change
  // that, and it settles the op first.
  std::fill(per_slot_.begin(), per_slot_.end(), 0);
  bool any_per_slot = false;
  for_each_active([&](sim::ProcessorId p) {
    if (contended(inflight_[p], begin)) {
      assert(!has_bit(lazy_, p));
      set_bit(per_slot_, p, true);
      any_per_slot = true;
    }
  });

  // Contended ops first, per slot in processor order exactly as tick()
  // runs them.  They precede the settled tours so that every find() they
  // make sees the ATTs before any later-slot settled insert prunes them.
  if (any_per_slot) {
    for (sim::Cycle t = begin; t < end;) {
      sim::Cycle wake = sim::kNeverCycle;
      for_each_active([&](sim::ProcessorId p) {
        if (!has_bit(per_slot_, p)) return;
        auto& op = inflight_[p];
        if (tick_op(t, op)) wake = std::min(wake, op_wake(op, t));
      });
      if (wake >= end) break;
      t = wake;  // op_wake is always past t
    }
  }
  // Uncontended ops turn lazy; only those that finish inside the span
  // are settled.
  for_each_active([&](sim::ProcessorId p) {
    if (has_bit(per_slot_, p)) return;
    InFlight& op = inflight_[p];
    if (!has_bit(lazy_, p)) {
      set_bit(lazy_, p, true);
      op.lazy_from = begin;
    }
    if (finish_slot(op) < end) settle(op, end);
  });
  next_slot_ = end;
  publish_wake(end - 1);
}

sim::Cycle CfmMemory::finish_slot(const InFlight& op) const noexcept {
  if (op.drain_until != sim::kNeverCycle) return op.drain_until - 1;
  // A swap's write tour starts the slot its read tour ends.
  const bool read_tour_left =
      op.kind == BlockOpKind::Swap && !op.write_phase;
  const sim::Cycle last_tour_start =
      op.tour_start + (read_tour_left ? cfg_.banks : 0);
  return at_.completion(last_tour_start) - 1;
}

void CfmMemory::settle_lazy(sim::Cycle until,
                            std::optional<sim::BlockAddr> offset) {
  for_each_bit(lazy_, [&](sim::ProcessorId p) {
    InFlight& op = inflight_[p];
    if (!offset.has_value() || op.offset == *offset) settle(op, until);
  });
}

void CfmMemory::settle(InFlight& op, sim::Cycle until) {
  // The per-slot path with every ATT lookup known to miss: no restart,
  // no abort, one word per slot on bank (t + c*p) mod b.  A tour segment
  // covers consecutive banks, so it is at most two copies, split where
  // it wraps to bank 0.
  const std::uint32_t b = cfg_.banks;
  const sim::ProcessorId p = op.proc;
  set_bit(lazy_, p, false);
  sim::Cycle t = op.lazy_from;
  for (;;) {
    if (op.drain_until != sim::kNeverCycle) {
      // tick() publishes at the slot where now + 1 >= drain_until.
      if (op.drain_until - 1 < until) {
        finish(op.drain_until - 1, op, OpStatus::Completed);
      }
      return;
    }
    t = std::max(t, op.tour_start);
    if (t >= until) return;
    const bool writing =
        op.kind == BlockOpKind::Write ||
        (op.kind == BlockOpKind::Swap && op.write_phase);
    const auto words = static_cast<std::uint32_t>(
        std::min<sim::Cycle>(until - t, b - op.progress));
    const sim::BankId bank = at_.bank_at(t, p);
    assert(bank == at_.visit_bank(op.tour_start, p, op.progress));
#ifndef NDEBUG
    // Bank's per-access conflict assert is skipped here; check the
    // AT-space partition itself for every word instead.
    for (std::uint32_t j = 0; j < words; ++j) {
      assert(at_.processor_at(t + j, (bank + j) % b) == p);
    }
#endif
    const std::uint32_t head = std::min(words, b - bank);
    if (writing) {
      if (op.progress == 0) att_insert(t, bank, op, att_kind(op));
      sim::Word* row = write_row(op);
      std::copy_n(op.write_buf.data() + bank, head, row + bank);
      std::copy_n(op.write_buf.data(), words - head, row);
      if (bank == 0 || words > head) op.bank0_done = true;
    } else if (const sim::Word* row = read_row(op)) {
      std::copy_n(row + bank, head, op.read_buf.data() + bank);
      std::copy_n(row, words - head, op.read_buf.data());
    } else {
      std::fill_n(op.read_buf.data() + bank, head, sim::Word{0});
      std::fill_n(op.read_buf.data(), words - head, sim::Word{0});
    }
    t += words;
    op.progress += words;
    if (op.progress < b) return;  // settled mid-tour
    if (!writing && op.kind == BlockOpKind::Swap) {
      // Read phase done: the write tour starts at the next slot, as in
      // handle_read_side.
      op.write_phase = true;
      if (op.modify) op.write_buf = op.modify(op.read_buf);
      assert(op.write_buf.size() == b);
      op.tour_start = t;
      op.progress = 0;
      op.bank0_done = false;
      continue;
    }
    complete_or_drain(t - 1, op);
    if (!has_bit(active_, p)) return;
  }
}

sim::Cycle CfmMemory::next_completion_hint(sim::Cycle now) const {
  if (faults_ != nullptr || !results_.empty()) return sim::Component::kAlways;
  sim::Cycle hint = sim::kNeverCycle;
  for_each_active([&](sim::ProcessorId p) {
    const InFlight& op = inflight_[p];
    // finish_slot + 1 is when this op would complete if nothing restarts
    // it (a swap in its read tour also runs one write tour after it);
    // restarts only push completion later, and a lazy op never restarts.
    // A plain write can instead abort at its next step and publish at
    // the slot after — but only while it races a same-offset op or a
    // live foreign ATT entry, and a new race needs a new issue, after
    // which the issuing driver re-polls this bound.
    const bool may_abort = op.kind == BlockOpKind::Write &&
                           op.drain_until == sim::kNeverCycle &&
                           policy_ != ConsistencyPolicy::NoTracking &&
                           contended(op, now);
    hint = std::min(hint, may_abort ? std::max(op.tour_start, now) + 1
                                    : finish_slot(op) + 1);
  });
  return hint;
}

void CfmMemory::check_faults(sim::Cycle now) {
  const bool paused = faults_->module_paused(now, module_.id());
  if (paused && !halted_) {
    counters_.inc(counters_.brownouts);
    if (audit_) audit_->on_injected(audit_scope_, now, "module_brownout");
  }
  bool dead_unmapped = false;
  for (sim::BankId b = 0; b < cfg_.banks; ++b) {
    if (faults_->bank_dead(now, module_.id(), b)) {
      if (!dead_[b]) {
        dead_[b] = true;
        counters_.inc(counters_.bank_failures);
        if (audit_) audit_->on_injected(audit_scope_, now, "bank_failure");
        if (next_spare_ < module_.bank_count()) {
          // Remap the logical slot onto a spare.  The AT schedule is
          // untouched (the indirection is purely logical→physical), so
          // every schedule/occupancy invariant still holds; reconfiguring
          // flushes the address tours, so every op restarts this slot on
          // the repaired machine.
          remap_[b] = next_spare_++;
          counters_.inc(counters_.bank_remaps);
          for_each_active([&](sim::ProcessorId p) {
            InFlight& op = inflight_[p];
            if (op.drain_until != sim::kNeverCycle) return;
            if (op.tour_start > now) return;
            if (op.fault_at == sim::kNeverCycle) op.fault_at = now;
            restart(now, op, at_.bank_at(now, p), counters_.fault_restarts);
          });
        } else {
          counters_.inc(counters_.bank_failures_unmapped);
        }
      }
    } else if (dead_[b]) {
      // Fault window over.  A remapped slot keeps its spare (the spare
      // owns the slot now); an unmapped one simply resumes service.
      dead_[b] = false;
    }
    if (dead_[b] && remap_[b] == b) dead_unmapped = true;
  }
  const bool halted = paused || dead_unmapped;
  if (!halted && halted_) {
    // Service resumes: re-synchronise every interrupted tour with the AT
    // schedule (a stale tour_start would break the bank congruence).
    for_each_active([&](sim::ProcessorId p) {
      InFlight& op = inflight_[p];
      if (op.drain_until != sim::kNeverCycle) return;
      if (op.tour_start > now) return;
      restart(now, op, at_.bank_at(now, p), counters_.fault_restarts);
    });
  }
  halted_ = halted;
  if (halted_) {
    // Bounded latency: an op that has waited out the whole fault window
    // fails with Aborted instead of hanging until (maybe never) repair.
    for_each_active([&](sim::ProcessorId p) {
      InFlight& op = inflight_[p];
      if (op.drain_until != sim::kNeverCycle) return;
      if (op.fault_at == sim::kNeverCycle) {
        op.fault_at = now;
      } else if (now >= op.fault_at + fault_timeout_) {
        counters_.inc(counters_.fault_aborts);
        abort_write(now, op, at_.bank_at(now, p));
      }
    });
  }
}

sim::Word CfmMemory::bank_access(sim::Cycle now, sim::BankId bank,
                                 mem::WordOp op, sim::Word* row,
                                 sim::Word value) {
  // Degraded mode: the logical slot may be served by a spare, which
  // inherits the dead bank's word slice (same backing store).
  const sim::BankId physical = faults_ != nullptr ? remap_[bank] : bank;
  return module_.bank(physical).access_row(now, op, row, bank, value);
}

void CfmMemory::attach(sim::Engine& engine) {
  attach(engine, engine.allocate_domain());
}

void CfmMemory::attach(sim::Engine& engine, sim::DomainId domain) {
  attach(*engine.add(std::make_shared<sim::TickComponent<CfmMemory>>(
      "cfm.memory/" + std::to_string(cfg_.processors) + "p", domain,
      sim::Phase::Memory, *this)));
}

void CfmMemory::attach(sim::Component& ticker) {
  domain_ = ticker.domain();
  ticker_ = &ticker;
  // In an independent domain the memory's ticks touch nothing but its
  // own state and its own hint, and its drivers (in its domain, or a
  // shared-domain controller such as HierarchicalCfm's) wake on
  // next_completion_hint before any result they could take appears: it
  // may run spans and sub-spans while they are quiescent.  A memory in
  // the shared domain may be polled every cycle and must not batch.
  if (domain_ != sim::kSharedDomain) ticker_->set_span_capable();
}

void CfmMemory::att_insert(sim::Cycle now, sim::BankId bank,
                           const InFlight& op, OpKind kind) {
  atts_[bank].insert(now, op.offset, kind, op.token, op.proc);
  if (op.sharers != 0) {
    // The entry is foreign to every other op on this offset.
    for_each_active([&](sim::ProcessorId q) {
      auto& other = inflight_[q];
      if (q == op.proc || other.offset != op.offset) return;
      other.foreign_att_end = std::max(other.foreign_att_end, now + cfg_.banks);
    });
  }
  // Every later issue() comes at a slot past `now`, so pruning against
  // `now` keeps every entry it could need to seed foreign_att_end.
  // Inserts come (almost) in slot order: prune once the oldest expires.
  const sim::Cycle life = cfg_.banks - 1;
  if (!recent_inserts_.empty() && recent_inserts_.front().slot + life < now) {
    std::erase_if(recent_inserts_, [&](const RecentInsert& r) {
      return r.slot + life < now;
    });
  }
  recent_inserts_.push_back(RecentInsert{now, op.offset});
}

OpKind CfmMemory::att_kind(const InFlight& op) const noexcept {
  switch (op.kind) {
    case BlockOpKind::Write:
      return OpKind::Write;
    case BlockOpKind::Swap:
      return op.write_phase ? OpKind::SwapWrite : OpKind::SwapRead;
    case BlockOpKind::Read:
    default:
      return OpKind::Read;
  }
}

void CfmMemory::restart(sim::Cycle now, InFlight& op, sim::BankId bank,
                        sim::CounterId counter) {
  const bool abandoned_writes =
      op.progress > 0 &&
      (op.kind == BlockOpKind::Write ||
       (op.kind == BlockOpKind::Swap && op.write_phase));
  if (abandoned_writes) {
    // Mark the abandonment boundary so trailing readers restart here; the
    // competitor that forced this restart covers the orphaned prefix
    // before any such reader wraps around to it.
    att_insert(now, bank, op, OpKind::Abandon);
  }
  ++op.restarts;
  counters_.inc(counter);
  if (tracer_) tracer_->restart(op.txn, now, counters_.name(counter));
  op.tour_start = now;
  op.progress = 0;
  op.bank0_done = false;
  if (op.kind == BlockOpKind::Swap) {
    op.write_phase = false;  // the *entire* swap restarts (§4.2.1)
  }
}

void CfmMemory::abort_write(sim::Cycle now, InFlight& op, sim::BankId bank) {
  if (op.progress > 0) att_insert(now, bank, op, OpKind::Abandon);
  finish(now, op, OpStatus::Aborted);
}

void CfmMemory::complete_or_drain(sim::Cycle now, InFlight& op) {
  const auto done = op.tour_start + cfg_.block_access_time();
  if (now + 1 >= done) {
    finish(now, op, OpStatus::Completed);
  } else {
    op.drain_until = done;  // c > 1: data path trails the address tour
  }
}

void CfmMemory::finish(sim::Cycle now, InFlight& op, OpStatus status) {
  BlockOpResult result;
  result.status = status;
  result.issued = op.original_issue;
  result.completed = (status == OpStatus::Completed)
                         ? op.tour_start + cfg_.block_access_time()
                         : now + 1;
  result.restarts = op.restarts;
  if (op.kind != BlockOpKind::Write && status == OpStatus::Completed) {
    result.data = std::move(op.read_buf);  // the op retires below
  }
  counters_.inc(status == OpStatus::Completed ? counters_.ops_completed
                                             : counters_.ops_aborted);
  if (status == OpStatus::Completed &&
      op.fault_at != sim::kNeverCycle) [[unlikely]] {
    recovery_latency_.add(
        static_cast<double>(result.completed - op.fault_at));
  }
  if (status == OpStatus::Completed) {
    if (audit_) {
      audit_->on_block_complete(audit_scope_, op.tour_start, result.completed);
    }
    if (tracer_) {
      // The data path trails the address tour by c-1 slots (§3.1.4).
      const sim::Cycle tour_end = op.tour_start + cfg_.banks;
      if (result.completed > tour_end) {
        tracer_->span(op.txn, sim::TxnPhase::Drain, tour_end,
                      result.completed);
      }
      tracer_->end(op.txn, result.completed, true);
    }
  } else if (tracer_) {
    tracer_->end(op.txn, now + 1, false);
  }
  results_.put(op.token, op.proc, std::move(result));
  if (op.sharers != 0) {
    for_each_active([&](sim::ProcessorId q) {
      if (q != op.proc && inflight_[q].offset == op.offset) {
        --inflight_[q].sharers;
      }
    });
  }
  assert(!has_bit(lazy_, op.proc));
  op.modify = nullptr;
  set_bit(active_, op.proc, false);
}

bool CfmMemory::handle_write_side(sim::Cycle now, InFlight& op,
                                  sim::BankId bank) {
  auto& att = atts_[bank];
  if (policy_ != ConsistencyPolicy::NoTracking && op.progress == 0) {
    att_insert(now, bank, op, att_kind(op));
  }
  // §4.1 comparing window: positions [0, progress) before updating bank 0
  // (simultaneous ops included, bank-0 tie-break), [0, progress-1) after
  // (strictly later ops only).  Entries in this window belong to writes
  // that will overwrite everything we write — the safe-abort window.
  const std::uint32_t later_hi =
      op.bank0_done ? (op.progress == 0 ? 0 : op.progress - 1) : op.progress;
  const auto cap = att.capacity();

  if (policy_ == ConsistencyPolicy::NoTracking) {
    // Ablation: no detection at all — same-address writes interleave and
    // tear blocks (Fig 4.1).
  } else if (policy_ == ConsistencyPolicy::LatestWins) {
    if (att.find(now, op.offset, 0, later_hi, kWriteLike, op.token)) {
      // §4.1: the later (or tie-winning) write overwrites everything we
      // wrote; abort and let it land.
      abort_write(now, op, bank);
      return false;
    }
  } else if (op.kind == BlockOpKind::Swap) {
    // §4.2.1: the write of a swap that meets a write issued earlier (or a
    // simultaneous one that beat it to bank 0) restarts the whole swap,
    // preserving atomicity; later writes defer to the swap instead.  The
    // fresh read phase starts on this very bank this slot (same as a read
    // restart, Fig 4.5).
    const std::uint32_t earlier_lo =
        op.progress == 0 ? 0
                         : (op.bank0_done ? op.progress : op.progress - 1);
    if (att.find(now, op.offset, earlier_lo, cap, kWriteLike, op.token)) {
      restart(now, op, bank, counters_.swap_restarts);
      // "The operation retries, with or without delay" (§5.2.3): a
      // deterministic, processor- and attempt-varied back-off breaks the
      // phase-locked livelock of symmetric competing swaps.
      op.tour_start = now + 1 + (op.restarts * 7 + op.proc * 3) % cfg_.banks;
      return false;
    }
  } else {
    // Plain write in the atomic regime.  §4.2.1: meeting a swap's write
    // (at any age) restarts — our value must land *after* the atomic
    // operation completes.  The new tour begins at the NEXT slot;
    // retrying this bank immediately would re-detect the same entry.
    if (att.find(now, op.offset, 0, cap, kind_bit(OpKind::SwapWrite),
                 op.token)) {
      restart(now, op, bank, counters_.write_restarts);
      op.tour_start = now + 1;
      return false;
    }
    // Among plain writes we keep the §4.1 ordering (later wins, earlier
    // aborts; simultaneous ties broken at bank 0 — Fig 4.6f).  The §4.2
    // text flips the priority for writes too, but taken literally that
    // lets an *older* writer force a later one to abandon a partial tour
    // after its own ATT entry expires, leaving trailing readers with a
    // torn block; with later-wins the winner is always fresher, so its
    // live entry re-captures every trailing reader.  See DESIGN.md.
    if (att.find(now, op.offset, 0, later_hi, kWriteLike, op.token)) {
      abort_write(now, op, bank);
      return false;
    }
  }
  bank_access(now, bank, mem::WordOp::Write, write_row(op),
              op.write_buf[bank]);
  if (tracer_ != nullptr) [[unlikely]] {
    tracer_->span(op.txn, sim::TxnPhase::Bank, now, now + 1, bank);
  }
  if (bank == 0) op.bank0_done = true;
  ++op.progress;
  if (op.progress == cfg_.banks) {
    complete_or_drain(now, op);
  }
  return true;
}

bool CfmMemory::handle_read_side(sim::Cycle now, InFlight& op,
                                 sim::BankId bank) {
  auto& att = atts_[bank];
  // §4.1.2: a read compares against *all* live entries; any same-address
  // write forces a restart from the current bank so the block assembled
  // is a single version.
  const auto hit =
      policy_ == ConsistencyPolicy::NoTracking
          ? std::nullopt
          : att.find(now, op.offset, 0, att.capacity(), kReadSensitive,
                     op.token);
  if (hit.has_value()) {
    restart(now, op, bank,
            op.kind == BlockOpKind::Swap ? counters_.swap_restarts
                                         : counters_.read_restarts);
    // The triggering write has already updated this bank (its entry is at
    // position >= 0), so reading it right now starts the fresh tour on
    // the new version.
  }
  op.read_buf[bank] = bank_access(now, bank, mem::WordOp::Read, read_row(op));
  if (tracer_ != nullptr) [[unlikely]] {
    tracer_->span(op.txn, sim::TxnPhase::Bank, now, now + 1, bank);
  }
  ++op.progress;
  if (op.progress == cfg_.banks) {
    if (op.kind == BlockOpKind::Swap && !op.write_phase) {
      // Read phase done: compute the write block and start the write tour
      // at the next slot (which lands on the same starting bank).
      op.write_phase = true;
      if (op.modify) op.write_buf = op.modify(op.read_buf);
      assert(op.write_buf.size() == cfg_.banks);
      if (tracer_) tracer_->event(op.txn, now, "modify");
      op.tour_start = now + 1;
      op.progress = 0;
      op.bank0_done = false;
    } else {
      complete_or_drain(now, op);
    }
  }
  return true;
}

void CfmMemory::step_op(sim::Cycle now, InFlight& op) {
  const auto bank = at_.bank_at(now, op.proc);
  assert(bank == at_.visit_bank(op.tour_start, op.proc, op.progress));
  if (audit_ != nullptr) [[unlikely]] {
    audit_->on_scheduled_access(audit_scope_, now, op.proc, bank);
  }
  const bool writing =
      op.kind == BlockOpKind::Write ||
      (op.kind == BlockOpKind::Swap && op.write_phase);
  if (writing) {
    handle_write_side(now, op, bank);
  } else {
    handle_read_side(now, op, bank);
  }
}

const BlockOpResult* CfmMemory::result(OpToken token) const {
  return results_.find(token);
}

std::optional<BlockOpResult> CfmMemory::take_result(OpToken token) {
  return results_.take(token);
}

std::vector<sim::Word> CfmMemory::peek_block(sim::BlockAddr offset) {
  settle_lazy(next_slot_, offset);
  return module_.store().read_block(offset);
}

void CfmMemory::poke_block(sim::BlockAddr offset,
                           std::span<const sim::Word> words) {
  settle_lazy(next_slot_, offset);
  module_.store().write_block(offset, words);
}

}  // namespace cfm::core
