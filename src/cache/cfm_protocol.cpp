#include "cache/cfm_protocol.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace cfm::cache {

using core::Att;
using core::OpKind;

namespace {

constexpr core::KindMask kInvWbMask =
    core::kind_bit(OpKind::ProtoReadInv) | core::kind_bit(OpKind::ProtoWriteBack);
constexpr core::KindMask kWbMask = core::kind_bit(OpKind::ProtoWriteBack);
constexpr core::KindMask kInvMask = core::kind_bit(OpKind::ProtoReadInv);

}  // namespace

CfmCacheSystem::CfmCacheSystem(const Params& params)
    : cfg_(params.mem),
      params_(params),
      at_(cfg_),
      module_(0, cfg_.banks, cfg_.bank_cycle),
      ctls_(cfg_.processors),
      retry_rng_(params.retry_seed) {
  cfg_.validate();
  atts_.reserve(cfg_.banks);
  for (std::uint32_t i = 0; i < cfg_.banks; ++i) atts_.emplace_back(cfg_.banks - 1);
  caches_.reserve(cfg_.processors);
  for (std::uint32_t p = 0; p < cfg_.processors; ++p) {
    caches_.push_back(
        std::make_unique<DirectCache>(params.cache_lines, cfg_.banks));
  }
}

bool CfmCacheSystem::processor_idle(sim::ProcessorId p) const {
  return !ctls_.at(p).req.has_value();
}

void CfmCacheSystem::set_audit(sim::ConflictAuditor& auditor) {
  audit_ = &auditor;
  audit_scope_ = module_.set_audit(auditor, cfg_.block_access_time());
}

sim::Word CfmCacheSystem::bank_access(sim::Cycle now, sim::BankId bank,
                                      mem::WordOp op, sim::BlockAddr block,
                                      sim::Word value) {
  return module_.bank(bank).access(now, op, block, value);
}

bool CfmCacheSystem::quiescent(sim::ProcessorId p) const {
  const auto& c = ctls_.at(p);
  return !c.req.has_value() && !c.proto.has_value() && c.remote_wb_queue.empty();
}

CfmCacheSystem::ReqId CfmCacheSystem::load(sim::Cycle now, sim::ProcessorId p,
                                           sim::BlockAddr offset) {
  Request r;
  r.id = next_req_++;
  r.kind = ReqKind::Load;
  r.offset = offset;
  r.issued = now;
  accept(now, p, std::move(r));
  return next_req_ - 1;
}

CfmCacheSystem::ReqId CfmCacheSystem::store(sim::Cycle now, sim::ProcessorId p,
                                            sim::BlockAddr offset,
                                            std::uint32_t word_index,
                                            sim::Word value) {
  Request r;
  r.id = next_req_++;
  r.kind = ReqKind::Store;
  r.offset = offset;
  r.word_index = word_index;
  r.value = value;
  r.issued = now;
  accept(now, p, std::move(r));
  return next_req_ - 1;
}

CfmCacheSystem::ReqId CfmCacheSystem::rmw(sim::Cycle now, sim::ProcessorId p,
                                          sim::BlockAddr offset,
                                          core::ModifyFn fn) {
  Request r;
  r.id = next_req_++;
  r.kind = ReqKind::Rmw;
  r.offset = offset;
  r.fn = std::move(fn);
  r.issued = now;
  accept(now, p, std::move(r));
  return next_req_ - 1;
}

void CfmCacheSystem::accept(sim::Cycle now, sim::ProcessorId p, Request req) {
  auto& c = ctls_.at(p);
  if (c.req.has_value()) {
    throw std::logic_error("processor already has a request in flight");
  }
  auto& cache = *caches_[p];
  auto* line = cache.find(req.offset);
  // A remote write-back of this very block is touring with the line's
  // current data.  A local store or rmw now would be lost when it lands
  // (the line turns Valid over memory without the update), so such a hit
  // waits for it and then re-acquires ownership like a miss.
  const bool flushing = c.proto.has_value() && c.proto->offset == req.offset;
  c.req = std::move(req);
  Request& r = *c.req;

  switch (r.kind) {
    case ReqKind::Load:
      if (line != nullptr) {  // Table 5.1 read hit: no memory access
        cache.count_hit();
        counters_.inc(counters_.local_hits);
        r.old_block = line->data;
        c.stage = Stage::LocalHit;
        c.stage_until = now + 1;
        return;
      }
      cache.count_miss();
      break;

    case ReqKind::Store:
      if (line != nullptr && line->state == LineState::Dirty && !flushing) {
        // Write hit on a dirty line: update locally, no memory access.
        cache.count_hit();
        counters_.inc(counters_.local_hits);
        line->data.at(r.word_index) = r.value;
        c.stage = Stage::LocalHit;
        c.stage_until = now + 1;
        return;
      }
      if (line == nullptr) cache.count_miss(); else cache.count_hit();
      break;

    case ReqKind::Rmw:
      if (line != nullptr && line->state == LineState::Dirty && !flushing) {
        // Already the exclusive owner: go straight to the modify phase.
        cache.count_hit();
        r.old_block = line->data;
        line->wb_locked = true;
        c.stage = Stage::Modify;
        c.stage_until = now + params_.modify_cycles;
        return;
      }
      if (line == nullptr) cache.count_miss(); else cache.count_hit();
      break;
  }
  if (c.proto.has_value()) {
    // A remote write-back is still touring: it keeps the controller's one
    // primitive slot, and the request's primitives start once it lands.
    c.stage = Stage::RetryWait;
    c.stage_until = now;
    return;
  }
  begin_request_ops(now, p);
}

void CfmCacheSystem::begin_request_ops(sim::Cycle now, sim::ProcessorId p) {
  auto& c = ctls_.at(p);
  Request& r = *c.req;
  auto& cache = *caches_[p];

  // A retried load may find the line filled meanwhile (it cannot today —
  // only our own primitives fill — but keep the check for robustness).
  if (r.kind == ReqKind::Load) {
    if (auto* line = cache.find(r.offset)) {
      r.old_block = line->data;
      c.stage = Stage::LocalHit;
      c.stage_until = now + 1;
      return;
    }
  }

  // Dirty victim in the target set: write it back before the fill.
  auto& victim = cache.slot_for(r.offset);
  const bool need_evict = victim.state == LineState::Dirty &&
                          victim.tag != r.offset && !victim.wb_locked;
  if (need_evict) {
    counters_.inc(counters_.evict_wbs);
    c.stage = Stage::EvictWb;
    start_primitive(now, p, OpKind::ProtoWriteBack, victim.tag);
    c.proto->buf = victim.data;
    return;
  }

  c.stage = Stage::ProtoOp;
  const bool exclusive = r.kind != ReqKind::Load;
  start_primitive(now, p,
                  exclusive ? OpKind::ProtoReadInv : OpKind::ProtoRead,
                  r.offset);
}

void CfmCacheSystem::start_primitive(sim::Cycle now, sim::ProcessorId p,
                                     OpKind kind, sim::BlockAddr offset) {
  auto& c = ctls_.at(p);
  assert(!c.proto.has_value());
  ProtoOp op;
  op.kind = kind;
  op.offset = offset;
  op.proc = p;
  op.tour_start = now;
  op.id = next_proto_++;
  op.buf.assign(cfg_.banks, 0);
  c.proto = std::move(op);
  c.proto_is_remote_wb = false;
  counters_.inc(kind == OpKind::ProtoRead ? counters_.proto_reads
                : kind == OpKind::ProtoReadInv ? counters_.proto_read_invs
                                               : counters_.proto_write_backs);
}

void CfmCacheSystem::start_remote_wb_if_due(sim::Cycle now, sim::ProcessorId p) {
  auto& c = ctls_.at(p);
  if (c.proto.has_value() || c.remote_wb_queue.empty()) return;
  if (c.stage != Stage::Idle && c.stage != Stage::RetryWait) return;
  while (!c.remote_wb_queue.empty()) {
    const auto offset = c.remote_wb_queue.front();
    c.remote_wb_queue.pop_front();
    auto* line = caches_[p]->find(offset);
    if (line == nullptr || line->state != LineState::Dirty || line->wb_locked) {
      continue;  // already flushed / invalidated / held for an atomic op
    }
    start_primitive(now, p, OpKind::ProtoWriteBack, offset);
    c.proto->buf = line->data;
    c.proto_is_remote_wb = true;
    counters_.inc(counters_.remote_wbs_served);
    return;
  }
}

void CfmCacheSystem::trigger_remote_wb(sim::ProcessorId owner,
                                       sim::BlockAddr offset) {
  auto& c = ctls_.at(owner);
  if (std::find(c.remote_wb_queue.begin(), c.remote_wb_queue.end(), offset) !=
      c.remote_wb_queue.end()) {
    return;
  }
  if (c.proto.has_value() && c.proto_is_remote_wb &&
      c.proto->offset == offset) {
    return;  // already being flushed
  }
  c.remote_wb_queue.push_back(offset);
  counters_.inc(counters_.remote_wbs_triggered);
}

void CfmCacheSystem::complete(sim::Cycle now, sim::ProcessorId p) {
  auto& c = ctls_.at(p);
  Request& r = *c.req;
  Outcome out;
  out.kind = r.kind;
  out.local_hit = (c.stage == Stage::LocalHit) && r.retries == 0;
  out.remote_dirty = r.remote_dirty;
  out.issued = r.issued;
  out.completed = now;
  out.proto_retries = r.retries;
  out.data = std::move(r.old_block);
  results_.emplace(r.id, std::move(out));
  c.req.reset();
  c.stage = Stage::Idle;
}

void CfmCacheSystem::controller_step(sim::Cycle now, sim::ProcessorId p) {
  auto& c = ctls_.at(p);
  auto& cache = *caches_[p];

  // Resolve a finished primitive first (Done waits for the trailing data
  // words when the bank cycle exceeds one CPU cycle).
  if (c.proto.has_value() && c.proto->fate != Fate::InFlight &&
      !(c.proto->fate == Fate::Done && now < c.proto->done_at)) {
    ProtoOp op = std::move(*c.proto);
    c.proto.reset();
    if (c.proto_is_remote_wb) {
      c.proto_is_remote_wb = false;
      assert(op.fate == Fate::Done);  // write-backs never lose (Table 5.2)
      if (auto* line = cache.find(op.offset)) line->state = LineState::Valid;
    } else if (op.fate == Fate::Done) {
      Request& r = *c.req;
      switch (c.stage) {
        case Stage::EvictWb: {
          if (auto* line = cache.find(op.offset)) line->state = LineState::Valid;
          begin_request_ops(now, p);
          break;
        }
        case Stage::ProtoOp: {
          if (op.kind == OpKind::ProtoRead) {
            cache.fill(r.offset, op.buf, LineState::Valid);
            r.old_block = std::move(op.buf);
            complete(now, p);
          } else {  // ProtoReadInv: we are now the exclusive owner
            auto& line = cache.fill(r.offset, op.buf, LineState::Dirty);
            if (r.kind == ReqKind::Store) {
              line.data.at(r.word_index) = r.value;
              complete(now, p);
            } else {  // Rmw: modify locally with write-back disabled
              r.old_block = line.data;
              line.wb_locked = true;
              c.stage = Stage::Modify;
              c.stage_until = now + params_.modify_cycles;
            }
          }
          break;
        }
        default:
          assert(c.stage == Stage::RmwWb);
          if (auto* line = cache.find(op.offset)) {
            line->state = LineState::Valid;
            line->wb_locked = false;
          }
          complete(now, p);
          break;
      }
    } else {
      // Lost a Table 5.2 race: retry immediately after a write-back,
      // after a short delay otherwise.  The delay is jittered per
      // processor and attempt ("with or without delay", §5.2.3) so
      // symmetric competitors cannot phase-lock into starvation.
      Request& r = *c.req;
      ++r.retries;
      counters_.inc(counters_.proto_retries);
      c.stage = Stage::RetryWait;
      const sim::Cycle base =
          op.fate == Fate::RetryNow ? 1 : params_.retry_delay;
      c.stage_until = now + base + retry_rng_.below(2 * cfg_.banks);
    }
  }

  // Stage deadlines.
  switch (c.stage) {
    case Stage::LocalHit:
      if (now >= c.stage_until) complete(now, p);
      break;
    case Stage::Modify:
      if (now >= c.stage_until && !c.proto.has_value()) {
        Request& r = *c.req;
        auto* line = cache.find(r.offset);
        assert(line != nullptr && line->state == LineState::Dirty);
        line->data = r.fn(line->data);
        assert(line->data.size() == cfg_.banks);
        c.stage = Stage::RmwWb;
        start_primitive(now, p, OpKind::ProtoWriteBack, r.offset);
        c.proto->buf = line->data;
      }
      break;
    case Stage::RetryWait:
      // Serve a pending remote write-back during the wait (Table 5.4:
      // write-back has the highest priority).
      start_remote_wb_if_due(now, p);
      if (!c.proto.has_value() && now >= c.stage_until) {
        begin_request_ops(now, p);
      }
      break;
    case Stage::Idle:
      start_remote_wb_if_due(now, p);
      break;
    default:
      break;
  }
}

std::optional<CfmCacheSystem::PendingOp> CfmCacheSystem::pending_exclusive(
    sim::ProcessorId q, sim::BlockAddr offset) const {
  const auto& c = ctls_[q];
  if (c.proto.has_value() && c.proto->offset == offset &&
      c.proto->kind != OpKind::ProtoRead) {
    return PendingOp{c.proto->kind, c.proto->fate != Fate::InFlight};
  }
  return std::nullopt;
}

void CfmCacheSystem::proto_step(sim::Cycle now, ProtoOp& op) {
  const auto bank = at_.bank_at(now, op.proc);
  if (audit_) audit_->on_scheduled_access(audit_scope_, now, op.proc, bank);
  auto& att = atts_[bank];
  const auto cap = att.capacity();

  switch (op.kind) {
    case OpKind::ProtoWriteBack: {
      if (op.progress == 0) {
        att.insert(now, op.offset, OpKind::ProtoWriteBack, op.id, op.proc);
      }
      bank_access(now, bank, mem::WordOp::Write, op.offset, op.buf[bank]);
      break;
    }

    case OpKind::ProtoRead: {
      // Table 5.2 row "Read": a read-invalidate or write-back on the same
      // block wins; retry later (after a write-back: immediately).
      if (const auto hit = att.find(now, op.offset, 0, cap, kInvWbMask, op.id)) {
        op.fate = hit->kind == OpKind::ProtoWriteBack ? Fate::RetryNow
                                                      : Fate::RetryLater;
        return;
      }
      // Directory coupling: bank i shares processor i's cache directory,
      // including the *transient* state of an outstanding same-block
      // primitive (the hardware analogue of an MSHR entry) — this closes
      // the window where a competitor's ATT entry has already expired but
      // its operation has not yet retired.
      if (bank < cfg_.processors && bank != op.proc) {
        const auto q = static_cast<sim::ProcessorId>(bank);
        // A read defers to ANY outstanding exclusive primitive (Table 5.2:
        // write-back > read-invalidate > read).
        if (const auto pending = pending_exclusive(q, op.offset)) {
          op.fate = (pending->kind == OpKind::ProtoWriteBack || pending->done)
                        ? Fate::RetryNow
                        : Fate::RetryLater;
          return;
        }
        if (const auto* line = caches_[q]->find(op.offset);
            line != nullptr && line->state == LineState::Dirty) {
          trigger_remote_wb(q, op.offset);
          if (auto& req = ctls_[op.proc].req; req.has_value()) {
            req->remote_dirty = true;
          }
          op.fate = Fate::RetryNow;  // keep retrying until the flush lands
          return;
        }
      }
      op.buf[bank] = bank_access(now, bank, mem::WordOp::Read, op.offset);
      break;
    }

    case OpKind::ProtoReadInv: {
      if (op.progress == 0) {
        att.insert(now, op.offset, OpKind::ProtoReadInv, op.id, op.proc);
      }
      // Write-back beats read-invalidate at any age.
      if (att.find(now, op.offset, 0, cap, kWbMask, op.id)) {
        op.fate = Fate::RetryNow;
        return;
      }
      if (bank < cfg_.processors && bank != op.proc) {
        const auto q = static_cast<sim::ProcessorId>(bank);
        // Squash q's in-flight same-block read: its fill would otherwise
        // land *after* this invalidation pass and leave a stale Valid
        // copy (the MSHR-invalidation of real protocols).
        if (auto& qproto = ctls_[q].proto;
            qproto.has_value() && qproto->kind == OpKind::ProtoRead &&
            qproto->offset == op.offset && qproto->fate != Fate::RetryNow &&
            qproto->fate != Fate::RetryLater) {
          qproto->fate = Fate::RetryLater;
          counters_.inc(counters_.fill_squashes);
        }
        // Any in-flight same-block exclusive wins: every tour crosses
        // every coupled bank, so the later-starting tour is guaranteed to
        // see the earlier one and defer — exactly one read-invalidate can
        // ever finish its tour unchallenged.  The randomized retry
        // back-off prevents two contenders from phase-locking.
        if (const auto pending = pending_exclusive(q, op.offset)) {
          op.fate = (pending->kind == OpKind::ProtoWriteBack || pending->done)
                        ? Fate::RetryNow
                        : Fate::RetryLater;
          return;
        }
        if (auto* line = caches_[q]->find(op.offset)) {
          if (line->state == LineState::Dirty) {
            if (!line->wb_locked) trigger_remote_wb(q, op.offset);
            if (auto& req = ctls_[op.proc].req; req.has_value()) {
              req->remote_dirty = true;
            }
            op.fate = line->wb_locked ? Fate::RetryLater : Fate::RetryNow;
            return;
          }
          // Valid remote copy: invalidate in-flight, no acknowledgement.
          caches_[q]->invalidate(op.offset);
          counters_.inc(counters_.invalidations);
        }
      }
      op.buf[bank] = bank_access(now, bank, mem::WordOp::Read, op.offset);
      break;
    }

    default:
      assert(false && "plain data ops do not run in the protocol engine");
  }

  if (bank == 0) op.bank0_passed = true;
  ++op.progress;
  if (op.progress == cfg_.banks) {
    op.fate = Fate::Done;
    op.done_at = op.tour_start + cfg_.block_access_time();
    if (audit_) audit_->on_block_complete(audit_scope_, op.tour_start, op.done_at);
  }
}

void CfmCacheSystem::tick(sim::Cycle now) {
  for (sim::ProcessorId p = 0; p < cfg_.processors; ++p) {
    controller_step(now, p);
  }
  for (auto& c : ctls_) {
    if (c.proto.has_value() && c.proto->fate == Fate::InFlight &&
        c.proto->tour_start <= now) {
      proto_step(now, *c.proto);
    }
  }
}

std::optional<CfmCacheSystem::Outcome> CfmCacheSystem::take_result(ReqId id) {
  const auto it = results_.find(id);
  if (it == results_.end()) return std::nullopt;
  auto out = std::move(it->second);
  results_.erase(it);
  return out;
}

const CfmCacheSystem::Outcome* CfmCacheSystem::result(ReqId id) const {
  const auto it = results_.find(id);
  return it == results_.end() ? nullptr : &it->second;
}

LineState CfmCacheSystem::line_state(sim::ProcessorId p,
                                     sim::BlockAddr offset) const {
  return caches_.at(p)->state_of(offset);
}

std::vector<sim::Word> CfmCacheSystem::memory_block(sim::BlockAddr offset) const {
  return module_.store().read_block(offset);
}

void CfmCacheSystem::poke_memory(sim::BlockAddr offset,
                                 const std::vector<sim::Word>& words) {
  module_.store().write_block(offset, words);
}

bool CfmCacheSystem::check_single_dirty_owner() const {
  // Collect every block that is dirty somewhere and ensure uniqueness.
  std::unordered_map<sim::BlockAddr, std::uint32_t> owners;
  for (std::uint32_t p = 0; p < cfg_.processors; ++p) {
    auto& cache = *caches_[p];
    for (std::uint32_t i = 0; i < cache.line_count(); ++i) {
      const auto& line = cache.slot_for(i);  // slot i (offset i maps to it)
      if (line.state == LineState::Dirty) {
        auto [it, inserted] = owners.try_emplace(line.tag, p);
        if (!inserted && it->second != p) return false;
      }
    }
  }
  return true;
}

}  // namespace cfm::cache
