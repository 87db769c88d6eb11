#include "cache/hierarchical.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace cfm::cache {

using core::BlockOpKind;
using core::CfmMemory;

HierarchicalCfm::HierarchicalCfm(const Params& params)
    : params_(params),
      l2_(params.clusters),
      slots_(params.clusters * params.procs_per_cluster) {
  const auto cluster_cfg = core::CfmConfig::make(
      params.procs_per_cluster, params.bank_cycle, params.word_bits);
  cluster_mem_.reserve(params.clusters);
  for (std::uint32_t c = 0; c < params.clusters; ++c) {
    cluster_mem_.push_back(std::make_unique<CfmMemory>(cluster_cfg));
  }
  // One global port per network controller; same bank cycle, and the line
  // size must match the cluster's so blocks move 1:1 between levels, so
  // the global word width scales with the cluster/controller ratio.
  if ((params.procs_per_cluster * params.word_bits) % params.clusters != 0) {
    throw std::invalid_argument(
        "clusters must divide the cluster block width for 1:1 line movement");
  }
  core::CfmConfig gcfg = core::CfmConfig::make(
      params.clusters, params.bank_cycle,
      params.procs_per_cluster * params.word_bits / params.clusters);
  global_mem_ = std::make_unique<CfmMemory>(gcfg);
  l1_.reserve(processor_count());
  const auto words = cluster_cfg.banks;
  for (std::uint32_t p = 0; p < processor_count(); ++p) {
    l1_.push_back(std::make_unique<DirectCache>(params.l1_lines, words));
  }
  (void)words;
}

std::uint32_t HierarchicalCfm::beta_cluster() const noexcept {
  return cluster_mem_[0]->config().block_access_time();
}
std::uint32_t HierarchicalCfm::beta_global() const noexcept {
  return global_mem_->config().block_access_time();
}

bool HierarchicalCfm::processor_idle(sim::ProcessorId p) const {
  return slots_.at(p).id == 0;
}

void HierarchicalCfm::check_processor(sim::ProcessorId p) const {
  if (p >= processor_count()) {
    throw std::invalid_argument("processor " + std::to_string(p) +
                                " is out of range (the machine has " +
                                std::to_string(processor_count()) + ")");
  }
}

void HierarchicalCfm::check_idle(sim::ProcessorId p) const {
  const Slot& slot = slots_[p];
  if (slot.id == 0) return;
  throw std::logic_error("processor " + std::to_string(p) +
                         " is busy: request " + std::to_string(slot.id) +
                         (slot.done ? " has an untaken result"
                                    : " is in flight"));
}

HierarchicalCfm::ReqId HierarchicalCfm::submit(Pending&& q) {
  slots_[q.proc].id = q.id;  // idle, so the slot is empty
  pending_.push_back(std::move(q));
  // A sleeping controller must see the new request this very cycle.
  if (controller_ != nullptr) {
    controller_->set_next_event(sim::Component::kAlways);
  }
  return pending_.back().id;
}

void HierarchicalCfm::set_txn_trace(sim::TxnTracer& tracer) {
  tracer_ = &tracer;
  tracer_unit_ = tracer.add_unit("hier");
  for (auto& mem : cluster_mem_) mem->set_txn_trace(tracer);
  global_mem_->set_txn_trace(tracer);
}

HierarchicalCfm::ReqId HierarchicalCfm::read(sim::Cycle now, sim::ProcessorId p,
                                             sim::BlockAddr offset) {
  check_processor(p);
  check_idle(p);
  Pending q;
  q.id = next_req_++;
  q.proc = p;
  q.offset = offset;
  q.issued = now;
  if (tracer_) q.txn = tracer_->begin(tracer_unit_, now, p, "read", offset);
  auto& cache = *l1_[p];
  if (cache.find(offset) != nullptr) {
    // The hit's data is the line itself; nothing downstream reads a copy.
    cache.count_hit();
    counters_.inc(counters_.l1_hits);
    q.phase = Phase::L1Hit;
    q.phase_until = now + 1;
    q.cls = AccessClass::L1Hit;
    if (tracer_) tracer_->span(q.txn, sim::TxnPhase::Cache, now, now + 1);
  } else {
    cache.count_miss();
    auto& victim = cache.slot_for(offset);
    q.phase = (victim.state == LineState::Dirty && victim.tag != offset)
                  ? Phase::VictimWb
                  : Phase::ClusterOp;  // resolved further in try-issue
    q.cls = AccessClass::LocalCluster;
  }
  return submit(std::move(q));
}

HierarchicalCfm::ReqId HierarchicalCfm::write(sim::Cycle now, sim::ProcessorId p,
                                              sim::BlockAddr offset,
                                              std::uint32_t word_index,
                                              sim::Word value) {
  check_processor(p);
  const auto words = cluster_mem_[0]->block_words();
  if (word_index >= words) {
    throw std::invalid_argument("word index " + std::to_string(word_index) +
                                " is past the " + std::to_string(words) +
                                "-word block");
  }
  check_idle(p);
  Pending q;
  q.id = next_req_++;
  q.proc = p;
  q.offset = offset;
  q.is_write = true;
  q.word_index = word_index;
  q.value = value;
  q.issued = now;
  if (tracer_) q.txn = tracer_->begin(tracer_unit_, now, p, "write", offset);
  auto& cache = *l1_[p];
  auto* line = cache.find(offset);
  if (line != nullptr && line->state == LineState::Dirty) {
    cache.count_hit();
    counters_.inc(counters_.l1_hits);
    line->data.at(word_index) = value;
    q.phase = Phase::L1Hit;
    q.phase_until = now + 1;
    q.cls = AccessClass::L1Hit;
    if (tracer_) tracer_->span(q.txn, sim::TxnPhase::Cache, now, now + 1);
  } else {
    if (line == nullptr) cache.count_miss(); else cache.count_hit();
    auto& victim = cache.slot_for(offset);
    q.phase = (victim.state == LineState::Dirty && victim.tag != offset)
                  ? Phase::VictimWb
                  : Phase::ClusterOp;
    q.cls = AccessClass::LocalCluster;
  }
  return submit(std::move(q));
}

std::optional<sim::ProcessorId> HierarchicalCfm::l1_dirty_owner(
    std::uint32_t cluster, sim::BlockAddr offset,
    sim::ProcessorId except) const {
  const auto base = cluster * params_.procs_per_cluster;
  for (std::uint32_t i = 0; i < params_.procs_per_cluster; ++i) {
    const auto q = base + i;
    if (q == except) continue;
    if (l1_[q]->state_of(offset) == LineState::Dirty) return q;
  }
  return std::nullopt;
}

std::optional<sim::ProcessorId> HierarchicalCfm::borrow_cluster_port(
    std::uint32_t cluster) const {
  // The network controller has no dedicated AT-space slot; it borrows an
  // idle processor port ("stealing time slots", §5.4.1).
  const auto& mem = *cluster_mem_[cluster];
  for (std::uint32_t i = 0; i < params_.procs_per_cluster; ++i) {
    if (mem.idle(i)) return i;
  }
  return std::nullopt;
}

void HierarchicalCfm::finish(sim::Cycle now, Pending& p) {
  if (p.holds_block_lock) {
    global_dir_[p.offset].busy = false;
    p.holds_block_lock = false;
    lock_freed_ = true;
  }
  p.retired = true;
  Slot& slot = slots_[p.proc];
  slot.done = true;
  slot.out = Outcome{.cls = p.cls,
                     .is_write = p.is_write,
                     .issued = p.issued,
                     .completed = now,
                     .invalidations = p.invalidations};
  if (tracer_) tracer_->end(p.txn, now, true);
  if (completion_hook_) completion_hook_(now, p.proc);
  const auto& c = counters_;
  counters_.inc(p.cls == AccessClass::L1Hit          ? c.class_l1_hit
                : p.cls == AccessClass::LocalCluster ? c.class_local
                : p.cls == AccessClass::Global       ? c.class_global
                                                     : c.class_dirty_remote);
}

void HierarchicalCfm::enter_cluster_fill(sim::Cycle now, Pending& p) {
  (void)now;
  p.phase = Phase::ClusterOp;
  p.op = CfmMemory::kNoOp;
}

void HierarchicalCfm::advance(sim::Cycle now, Pending& p) {
  const auto cluster = cluster_of(p.proc);
  auto& cmem = *cluster_mem_[cluster];
  auto& l2 = l2_[cluster];

  if (p.phase == Phase::L1Hit) {
    if (now >= p.phase_until) finish(now, p);
    return;
  }

  // ---- Issue the op for the current phase if not yet in flight. ----
  if (p.op == CfmMemory::kNoOp) {
    switch (p.phase) {
      case Phase::VictimWb: {
        const auto port = local_index(p.proc);
        if (!cmem.idle(port)) return;
        auto& victim = l1_[p.proc]->slot_for(p.offset);
        assert(victim.state == LineState::Dirty);
        p.op = cmem.issue(now, port, BlockOpKind::Write, victim.tag,
                          victim.data);
        p.op_is_global = false;
        p.op_port = port;
        counters_.inc(counters_.victim_wbs);
        if (tracer_) tracer_->event(p.txn, now, "victim_wb");
        break;
      }
      case Phase::ClusterOp: {
        // Entry point after accept / fills.  Same-block transactions are
        // serialized machine-wide: acquire the block's transaction lock
        // before consulting any state, hold it until retirement.  This
        // keeps the global directory and the two cache levels from ever
        // being observed mid-transition (Table 5.3 coupling).
        if (!p.holds_block_lock) {
          auto& g = global_dir_[p.offset];
          if (g.busy) return;
          g.busy = true;
          p.holds_block_lock = true;
        }
        const auto it = l2.find(p.offset);
        const auto l2s = it == l2.end() ? LineState::Invalid : it->second.state;
        if (l2s == LineState::Invalid) {
          // L2 miss: the controller must fetch from global memory.
          p.phase = Phase::GlobalAttempt;
          p.cls = AccessClass::Global;
          return;  // issue on the next advance call path below
        }
        if (p.is_write && l2s != LineState::Dirty) {
          // Ownership upgrade at the global level before any processor in
          // the cluster may own the block (Table 5.3).
          p.phase = Phase::GlobalAttempt;
          p.cls = AccessClass::Global;
          return;
        }
        // Intra-cluster dirty owner? trigger its write-back first.
        if (const auto owner = l1_dirty_owner(cluster, p.offset, p.proc)) {
          p.remote_owner = *owner;
          p.phase = Phase::LocalL1Wb;
          return;
        }
        const auto port = local_index(p.proc);
        if (!cmem.idle(port)) return;
        p.op = cmem.issue(now, port, BlockOpKind::Read, p.offset);
        p.op_is_global = false;
        p.op_port = port;
        if (tracer_) tracer_->event(p.txn, now, "cluster_tour");
        break;
      }
      case Phase::LocalL1Wb: {
        const auto port = local_index(p.remote_owner);
        if (!cmem.idle(port)) return;
        auto* line = l1_[p.remote_owner]->find(p.offset);
        if (line == nullptr || line->state != LineState::Dirty) {
          // Flushed meanwhile; go read it.
          p.phase = Phase::ClusterOp;
          return;
        }
        p.op = cmem.issue(now, port, BlockOpKind::Write, p.offset, line->data);
        p.op_is_global = false;
        p.op_port = port;
        counters_.inc(counters_.local_l1_wbs);
        if (tracer_) tracer_->event(p.txn, now, "local_l1_wb");
        break;
      }
      case Phase::GlobalAttempt:
      case Phase::GlobalRetry: {
        const auto port = cluster;  // controller's global AT-space slot
        if (!global_mem_->idle(port)) return;
        p.op = global_mem_->issue(now, port, BlockOpKind::Read, p.offset);
        p.op_is_global = true;
        p.op_port = port;
        counters_.inc(counters_.global_reads);
        if (tracer_) {
          tracer_->event(p.txn, now,
                         p.phase == Phase::GlobalRetry ? "global_retry"
                                                       : "global_tour");
        }
        break;
      }
      case Phase::RemoteL1Wb: {
        auto& rmem = *cluster_mem_[p.remote_cluster];
        const auto port = local_index(p.remote_owner);
        if (!rmem.idle(port)) return;
        auto* line = l1_[p.remote_owner]->find(p.offset);
        if (line == nullptr || line->state != LineState::Dirty) {
          p.phase = Phase::RemoteL2Wb;
          return;
        }
        p.op = rmem.issue(now, port, BlockOpKind::Write, p.offset, line->data);
        p.op_is_global = false;
        p.op_port = port;
        counters_.inc(counters_.remote_l1_wbs);
        if (tracer_) tracer_->event(p.txn, now, "remote_l1_wb");
        break;
      }
      case Phase::RemoteL2Wb: {
        // An L1 owner may have appeared (a local write that was already in
        // flight when the chain started): flush it first.
        if (const auto owner = l1_dirty_owner(p.remote_cluster, p.offset,
                                              /*except=*/UINT32_MAX)) {
          p.remote_owner = *owner;
          p.phase = Phase::RemoteL1Wb;
          return;
        }
        const auto port = p.remote_cluster;
        if (!global_mem_->idle(port)) return;
        const auto data = cluster_mem_[p.remote_cluster]->peek_block(p.offset);
        p.op = global_mem_->issue(now, port, BlockOpKind::Write, p.offset, data);
        p.op_is_global = true;
        p.op_port = port;
        counters_.inc(counters_.remote_l2_wbs);
        if (tracer_) tracer_->event(p.txn, now, "remote_l2_wb");
        break;
      }
      case Phase::L2Fill: {
        const auto port = borrow_cluster_port(cluster);
        if (!port.has_value()) return;
        p.op = cmem.issue(now, *port, BlockOpKind::Write, p.offset, p.block);
        p.op_is_global = false;
        p.op_port = *port;
        counters_.inc(counters_.l2_fills);
        if (tracer_) tracer_->event(p.txn, now, "l2_fill");
        break;
      }
      default:
        break;
    }
    return;
  }

  // ---- Poll the in-flight op. ----
  auto& mem = p.op_is_global ? *global_mem_ : (p.phase == Phase::RemoteL1Wb
                                                   ? *cluster_mem_[p.remote_cluster]
                                                   : cmem);
  auto result = mem.take_result(p.op);
  if (!result.has_value()) return;
  p.op = CfmMemory::kNoOp;
  if (result->status == core::OpStatus::Aborted) {
    // A write lost a same-address race (possible only under heavy sharing);
    // reissue the phase.
    counters_.inc(counters_.phase_retries);
    if (tracer_) tracer_->restart(p.txn, now, "phase_retry");
    return;
  }

  switch (p.phase) {
    case Phase::VictimWb: {
      auto& victim = l1_[p.proc]->slot_for(p.offset);
      victim.state = LineState::Valid;
      p.phase = Phase::ClusterOp;
      break;
    }
    case Phase::LocalL1Wb: {
      if (auto* line = l1_[p.remote_owner]->find(p.offset)) {
        line->state = LineState::Valid;
      }
      p.phase = Phase::ClusterOp;
      break;
    }
    case Phase::GlobalAttempt: {
      auto& g = global_dir_[p.offset];
      if (g.dirty_cluster.has_value() && *g.dirty_cluster != cluster) {
        // Dirty in a remote cluster: run the write-back chain (§5.4.2).
        p.cls = AccessClass::DirtyRemote;
        p.remote_cluster = *g.dirty_cluster;
        const auto owner =
            l1_dirty_owner(p.remote_cluster, p.offset, /*except=*/UINT32_MAX);
        if (owner.has_value()) {
          p.remote_owner = *owner;
          p.phase = Phase::RemoteL1Wb;
        } else {
          p.phase = Phase::RemoteL2Wb;
        }
        break;
      }
      p.block = std::move(result->data);
      if (p.is_write) {
        // Invalidate every other cluster's copies (L2 and the L1s above).
        for (std::uint32_t rc = 0; rc < params_.clusters; ++rc) {
          if (rc == cluster) continue;
          auto it = l2_[rc].find(p.offset);
          if (it != l2_[rc].end() && it->second.state != LineState::Invalid) {
            it->second.state = LineState::Invalid;
            ++p.invalidations;
            const auto base = rc * params_.procs_per_cluster;
            for (std::uint32_t i = 0; i < params_.procs_per_cluster; ++i) {
              if (l1_[base + i]->invalidate(p.offset)) ++p.invalidations;
            }
          }
        }
        g.dirty_cluster = cluster;
      }
      const auto l2s = l2_[cluster].find(p.offset);
      const bool have_data_in_l2 =
          l2s != l2_[cluster].end() && l2s->second.state != LineState::Invalid;
      if (have_data_in_l2) {
        // Upgrade: the line is already in L2; just adjust its state.
        l2_[cluster][p.offset].state =
            p.is_write ? LineState::Dirty : LineState::Valid;
        enter_cluster_fill(now, p);
      } else {
        p.phase = Phase::L2Fill;
      }
      break;
    }
    case Phase::RemoteL1Wb: {
      if (auto* line = l1_[p.remote_owner]->find(p.offset)) {
        line->state = LineState::Valid;
      }
      p.phase = Phase::RemoteL2Wb;
      break;
    }
    case Phase::RemoteL2Wb: {
      if (const auto owner = l1_dirty_owner(p.remote_cluster, p.offset,
                                            /*except=*/UINT32_MAX)) {
        // A dirty L1 copy slipped in while we flushed: flush it and redo
        // the L2 write-back so memory gets the newest data.
        p.remote_owner = *owner;
        p.phase = Phase::RemoteL1Wb;
        break;
      }
      l2_[p.remote_cluster][p.offset].state = LineState::Valid;
      auto& g = global_dir_[p.offset];
      g.dirty_cluster.reset();
      p.phase = Phase::GlobalRetry;
      break;
    }
    case Phase::GlobalRetry: {
      p.block = std::move(result->data);
      auto& g = global_dir_[p.offset];
      if (p.is_write) {
        for (std::uint32_t rc = 0; rc < params_.clusters; ++rc) {
          if (rc == cluster) continue;
          auto it = l2_[rc].find(p.offset);
          if (it != l2_[rc].end() && it->second.state != LineState::Invalid) {
            it->second.state = LineState::Invalid;
            ++p.invalidations;
            const auto base = rc * params_.procs_per_cluster;
            for (std::uint32_t i = 0; i < params_.procs_per_cluster; ++i) {
              if (l1_[base + i]->invalidate(p.offset)) ++p.invalidations;
            }
          }
        }
        g.dirty_cluster = cluster;
      }
      p.phase = Phase::L2Fill;
      break;
    }
    case Phase::L2Fill: {
      l2_[cluster][p.offset].state =
          p.is_write ? LineState::Dirty : LineState::Valid;
      enter_cluster_fill(now, p);
      break;
    }
    case Phase::ClusterOp: {
      // A remote writer may have invalidated this cluster's L2 copy while
      // our tour was in flight; filling L1 now would violate the Table 5.3
      // coupling.  Re-run the decision phase (it will fetch globally).
      const auto it2 = l2.find(p.offset);
      const auto l2s =
          it2 == l2.end() ? LineState::Invalid : it2->second.state;
      if (l2s == LineState::Invalid || (p.is_write && l2s != LineState::Dirty)) {
        counters_.inc(counters_.fill_races);
        break;  // phase stays ClusterOp; the issue path re-decides
      }
      auto& cache = *l1_[p.proc];
      if (p.is_write) {
        // Invalidate other L1 copies in the cluster before taking
        // exclusive ownership.
        const auto base = cluster * params_.procs_per_cluster;
        for (std::uint32_t i = 0; i < params_.procs_per_cluster; ++i) {
          const auto q = base + i;
          if (q == p.proc) continue;
          if (l1_[q]->invalidate(p.offset)) ++p.invalidations;
        }
        auto& line = cache.fill(p.offset, std::move(result->data),
                                LineState::Dirty);
        line.data.at(p.word_index) = p.value;
        l2_[cluster][p.offset].state = LineState::Dirty;
      } else {
        cache.fill(p.offset, std::move(result->data), LineState::Valid);
      }
      finish(now, p);
      break;
    }
    default:
      assert(false);
  }
}

void HierarchicalCfm::advance_pending(sim::Cycle now) {
  lock_freed_ = false;
  bool chain_cut = false;
  for (auto& p : pending_) {
    // A phase completion and the next phase's issue happen in the same
    // cycle (the controller reacts combinationally); bound the chain so a
    // blocked issue cannot spin.
    bool moved = true;
    for (int hop = 0; hop < 3 && moved && !p.retired; ++hop) {
      const auto phase_before = p.phase;
      const auto op_before = p.op;
      advance(now, p);
      moved = p.phase != phase_before || p.op != op_before;
    }
    // Still moving after the last hop means the bound cut the chain,
    // unless that hop issued an op: all it can do next is poll the op,
    // which the member's completion hint covers.
    if (!p.retired && moved && p.op == CfmMemory::kNoOp) chain_cut = true;
  }
  std::erase_if(pending_, [](const Pending& p) { return p.retired; });
  if (controller_ == nullptr) return;
  // A freed block lock may be the one a request earlier in this pass
  // found busy, and a cut chain has its next hop to run: either way the
  // next cycle's pass may act whatever the member tours do.
  controller_->set_next_event(lock_freed_ || chain_cut ? now + 1
                                                       : next_wake(now));
}

sim::Cycle HierarchicalCfm::next_wake(sim::Cycle now) const {
  // With nothing pending only read()/write() can wake the controller.
  if (pending_.empty()) return sim::kNeverCycle;
  // Otherwise every request waits for one of: its L1 hit's cycle, a
  // member tour publishing a result (the only way a member port goes
  // idle, too), or a block lock being freed (only finish() frees one).
  // A member with a fault injector answers kAlways, so faulted machines
  // keep a per-cycle controller.
  sim::Cycle wake = sim::kNeverCycle;
  for (const auto& p : pending_) {
    if (p.phase == Phase::L1Hit) wake = std::min(wake, p.phase_until);
  }
  for (const auto& mem : cluster_mem_) {
    wake = std::min(wake, mem->next_completion_hint(now));
  }
  return std::min(wake, global_mem_->next_completion_hint(now));
}

void HierarchicalCfm::tick(sim::Cycle now) {
  advance_pending(now);
  for (auto& mem : cluster_mem_) mem->tick(now);
  global_mem_->tick(now);
}

void HierarchicalCfm::attach(sim::Engine& engine) {
  // The controller state machine touches L1s, L2 directories and the
  // global directory across every cluster, so it is cross-domain and runs
  // in the shared domain during Phase::Network — before any bank tour of
  // the same cycle, matching the manual tick() ordering.
  auto controller = std::make_shared<sim::LambdaComponent>("hier.controller",
                                                           sim::kSharedDomain);
  controller->on(sim::Phase::Network,
                 [this](sim::Cycle now) { advance_pending(now); });
  controller_ = engine.add(std::move(controller));
  // Each cluster's CFM and the global CFM are independent AT-spaces,
  // each its own tick domain.  The controller is the only component that
  // issues to them or takes their results, and its wake hint covers
  // every result they can publish, so the engine runs their tours as
  // spans up to the controller's next wake.
  for (auto& mem : cluster_mem_) mem->attach(engine);
  global_mem_->attach(engine);
}

std::optional<HierarchicalCfm::Outcome> HierarchicalCfm::take_result(ReqId id) {
  if (id == 0) return std::nullopt;
  for (sim::ProcessorId p = 0; p < slots_.size(); ++p) {
    if (slots_[p].id == id) return take_result_of(p);
  }
  return std::nullopt;
}

std::optional<HierarchicalCfm::Outcome> HierarchicalCfm::take_result_of(
    sim::ProcessorId p) {
  Slot& slot = slots_.at(p);
  if (!slot.done) return std::nullopt;
  const Outcome out = slot.out;
  slot = Slot{};
  return out;
}

LineState HierarchicalCfm::l1_state(sim::ProcessorId p,
                                    sim::BlockAddr offset) const {
  return l1_.at(p)->state_of(offset);
}

LineState HierarchicalCfm::l2_state(std::uint32_t cluster,
                                    sim::BlockAddr offset) const {
  const auto it = l2_.at(cluster).find(offset);
  return it == l2_.at(cluster).end() ? LineState::Invalid : it->second.state;
}

bool HierarchicalCfm::check_state_coupling() const {
  // Table 5.3: L1 Valid requires L2 Valid or Dirty; L1 Dirty requires L2
  // Dirty.  Probe every resident L1 line.
  for (std::uint32_t p = 0; p < processor_count(); ++p) {
    auto& cache = *l1_[p];
    for (std::uint32_t i = 0; i < cache.line_count(); ++i) {
      const auto& line = cache.slot_for(i);
      if (line.state == LineState::Invalid) continue;
      const auto l2s = l2_state(cluster_of(p), line.tag);
      if (line.state == LineState::Dirty && l2s != LineState::Dirty) return false;
      if (line.state == LineState::Valid && l2s == LineState::Invalid) return false;
    }
  }
  return true;
}

}  // namespace cfm::cache
