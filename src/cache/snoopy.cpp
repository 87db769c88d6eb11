#include "cache/snoopy.hpp"

#include <cassert>
#include <stdexcept>

namespace cfm::cache {

SnoopyBus::SnoopyBus(const Params& params)
    : params_(params), ctls_(params.processors) {
  caches_.reserve(params.processors);
  for (std::uint32_t p = 0; p < params.processors; ++p) {
    caches_.push_back(
        std::make_unique<DirectCache>(params.cache_lines, params.block_words));
  }
}

bool SnoopyBus::processor_idle(sim::ProcessorId p) const {
  return !ctls_.at(p).req.has_value();
}

SnoopyBus::ReqId SnoopyBus::load(sim::Cycle now, sim::ProcessorId p,
                                 sim::BlockAddr offset) {
  auto& c = ctls_.at(p);
  if (c.req.has_value()) throw std::logic_error("processor busy");
  Request r;
  r.id = next_req_++;
  r.kind = 0;
  r.offset = offset;
  r.issued = now;
  auto& cache = *caches_[p];
  if (const auto* line = cache.find(offset)) {
    cache.count_hit();
    r.old_block = line->data;
    r.local_hit = true;
    c.req = std::move(r);
    c.stage = Stage::LocalHit;
    c.stage_until = now + 1;
  } else {
    cache.count_miss();
    c.req = std::move(r);
    c.stage = Stage::WaitBus;
    enqueue(TxnKind::BusRd, p, offset);
  }
  return next_req_ - 1;
}

SnoopyBus::ReqId SnoopyBus::store(sim::Cycle now, sim::ProcessorId p,
                                  sim::BlockAddr offset,
                                  std::uint32_t word_index, sim::Word value) {
  auto& c = ctls_.at(p);
  if (c.req.has_value()) throw std::logic_error("processor busy");
  Request r;
  r.id = next_req_++;
  r.kind = 1;
  r.offset = offset;
  r.word_index = word_index;
  r.value = value;
  r.issued = now;
  auto& cache = *caches_[p];
  auto* line = cache.find(offset);
  if (line != nullptr && line->state == LineState::Dirty) {
    cache.count_hit();
    line->data.at(word_index) = value;
    r.local_hit = true;
    c.req = std::move(r);
    c.stage = Stage::LocalHit;
    c.stage_until = now + 1;
  } else {
    if (line != nullptr) {
      cache.count_hit();  // valid hit: upgrade (invalidate-only transaction)
      c.req = std::move(r);
      c.stage = Stage::WaitBus;
      enqueue(TxnKind::BusUpgr, p, offset);
    } else {
      cache.count_miss();
      c.req = std::move(r);
      c.stage = Stage::WaitBus;
      enqueue(TxnKind::BusRdX, p, offset);
    }
  }
  return next_req_ - 1;
}

SnoopyBus::ReqId SnoopyBus::rmw(sim::Cycle now, sim::ProcessorId p,
                                sim::BlockAddr offset, core::ModifyFn fn) {
  auto& c = ctls_.at(p);
  if (c.req.has_value()) throw std::logic_error("processor busy");
  Request r;
  r.id = next_req_++;
  r.kind = 2;
  r.offset = offset;
  r.fn = std::move(fn);
  r.issued = now;
  auto& cache = *caches_[p];
  auto* line = cache.find(offset);
  c.req = std::move(r);
  if (line != nullptr && line->state == LineState::Dirty) {
    cache.count_hit();
    c.req->old_block = line->data;
    c.stage = Stage::Modify;
    c.stage_until = now + params_.modify_cycles;
  } else {
    if (line == nullptr) cache.count_miss(); else cache.count_hit();
    c.stage = Stage::WaitBus;
    enqueue(line != nullptr ? TxnKind::BusUpgr : TxnKind::BusRdX, p, offset);
  }
  return next_req_ - 1;
}

void SnoopyBus::enqueue(TxnKind kind, sim::ProcessorId p,
                        sim::BlockAddr offset) {
  bus_queue_.push_back(Txn{kind, p, offset});
  counters_.inc(counters_.bus_txns);
}

void SnoopyBus::apply_txn(sim::Cycle now, const Txn& txn) {
  auto block_of = [&](sim::BlockAddr offset) -> std::vector<sim::Word>& {
    auto [it, inserted] = memory_.try_emplace(offset);
    if (inserted) it->second.assign(params_.block_words, 0);
    return it->second;
  };

  // Snoop: a dirty owner flushes during BusRd/BusRdX (cost folded into the
  // block transaction time — a "cache-to-cache + reflection" simplication).
  auto flush_dirty_owner = [&](sim::BlockAddr offset) {
    for (std::uint32_t q = 0; q < params_.processors; ++q) {
      if (q == txn.proc) continue;
      if (auto* line = caches_[q]->find(offset);
          line != nullptr && line->state == LineState::Dirty) {
        block_of(offset) = line->data;
        line->state = LineState::Valid;
        counters_.inc(counters_.snoop_flushes);
      }
    }
  };

  auto invalidate_others = [&](sim::BlockAddr offset) {
    for (std::uint32_t q = 0; q < params_.processors; ++q) {
      if (q == txn.proc) continue;
      if (caches_[q]->invalidate(offset)) {
        counters_.inc(counters_.invalidations);
      }
    }
  };

  auto& c = ctls_.at(txn.proc);
  auto& cache = *caches_[txn.proc];
  switch (txn.kind) {
    case TxnKind::BusRd: {
      flush_dirty_owner(txn.offset);
      // Dirty victim write-back is modeled as part of the fill transaction.
      auto& victim = cache.slot_for(txn.offset);
      if (victim.state == LineState::Dirty && victim.tag != txn.offset) {
        block_of(victim.tag) = victim.data;
        counters_.inc(counters_.evict_wbs);
      }
      auto& line = cache.fill(txn.offset, block_of(txn.offset), LineState::Valid);
      if (c.req.has_value() && c.req->offset == txn.offset) {
        c.req->old_block = line.data;
        complete(now, txn.proc);
      }
      break;
    }
    case TxnKind::BusRdX:
    case TxnKind::BusUpgr: {
      flush_dirty_owner(txn.offset);
      invalidate_others(txn.offset);
      auto& victim = cache.slot_for(txn.offset);
      if (victim.state == LineState::Dirty && victim.tag != txn.offset) {
        block_of(victim.tag) = victim.data;
        counters_.inc(counters_.evict_wbs);
      }
      auto& line = cache.fill(txn.offset, block_of(txn.offset), LineState::Dirty);
      if (!c.req.has_value() || c.req->offset != txn.offset) break;
      if (c.req->kind == 1) {  // store
        line.data.at(c.req->word_index) = c.req->value;
        complete(now, txn.proc);
      } else {  // rmw
        c.req->old_block = line.data;
        c.stage = Stage::Modify;
        c.stage_until = now + params_.modify_cycles;
      }
      break;
    }
    case TxnKind::BusWb: {
      if (auto* line = cache.find(txn.offset);
          line != nullptr && line->state == LineState::Dirty) {
        block_of(txn.offset) = line->data;
        line->state = LineState::Valid;
      }
      if (c.req.has_value() && c.stage == Stage::WaitWb) {
        complete(now, txn.proc);
      }
      break;
    }
  }
}

void SnoopyBus::complete(sim::Cycle now, sim::ProcessorId p) {
  auto& c = ctls_.at(p);
  Request& r = *c.req;
  Outcome out;
  out.local_hit = r.local_hit;
  out.issued = r.issued;
  out.completed = now;
  out.data = std::move(r.old_block);
  results_.emplace(r.id, std::move(out));
  c.req.reset();
  c.stage = Stage::Idle;
}

void SnoopyBus::tick(sim::Cycle now) {
  // Finish the current bus transaction.
  if (bus_current_.has_value() && now >= bus_until_) {
    const Txn txn = *bus_current_;
    bus_current_.reset();
    apply_txn(now, txn);
  }
  // Start the next one.
  if (!bus_current_.has_value() && !bus_queue_.empty()) {
    bus_current_ = bus_queue_.front();
    bus_queue_.pop_front();
    const auto cost = bus_current_->kind == TxnKind::BusUpgr
                          ? params_.inv_cycles
                          : params_.block_cycles;
    bus_until_ = now + cost;
    bus_busy_ += cost;
  }
  // Stage deadlines (local hits, rmw modify phases).
  for (std::uint32_t p = 0; p < params_.processors; ++p) {
    auto& c = ctls_[p];
    if (!c.req.has_value()) continue;
    if (c.stage == Stage::LocalHit && now >= c.stage_until) {
      complete(now, p);
    } else if (c.stage == Stage::Modify && now >= c.stage_until) {
      auto* line = caches_[p]->find(c.req->offset);
      if (line == nullptr || line->state != LineState::Dirty) {
        // A competing BusRdX stole the line before we modified: the rmw
        // has not executed yet, so simply re-acquire ownership.  (The CFM
        // protocol prevents this with wb_locked; a bus has no such hook.)
        c.stage = Stage::WaitBus;
        enqueue(TxnKind::BusRdX, p, c.req->offset);
        counters_.inc(counters_.rmw_reacquires);
        continue;
      }
      line->data = c.req->fn(line->data);
      // Write-back the result so contenders spin on memory state, matching
      // the CFM rmw; the bus pays another block transaction for it.
      c.stage = Stage::WaitWb;
      enqueue(TxnKind::BusWb, p, c.req->offset);
    }
  }
}

std::optional<SnoopyBus::Outcome> SnoopyBus::take_result(ReqId id) {
  const auto it = results_.find(id);
  if (it == results_.end()) return std::nullopt;
  auto out = std::move(it->second);
  results_.erase(it);
  return out;
}

LineState SnoopyBus::line_state(sim::ProcessorId p, sim::BlockAddr offset) const {
  return caches_.at(p)->state_of(offset);
}

std::vector<sim::Word> SnoopyBus::memory_block(sim::BlockAddr offset) const {
  const auto it = memory_.find(offset);
  if (it == memory_.end()) return std::vector<sim::Word>(params_.block_words, 0);
  return it->second;
}

void SnoopyBus::poke_memory(sim::BlockAddr offset, std::vector<sim::Word> words) {
  assert(words.size() == params_.block_words);
  memory_[offset] = std::move(words);
}

}  // namespace cfm::cache
