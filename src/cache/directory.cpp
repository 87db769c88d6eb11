#include "cache/directory.hpp"

#include <bit>
#include <cassert>
#include <stdexcept>

namespace cfm::cache {

DirectoryProtocol::DirectoryProtocol(const Params& params)
    : params_(params), busy_(params.processors) {
  if (params.processors % params.clusters != 0) {
    throw std::invalid_argument("clusters must divide processors");
  }
}

bool DirectoryProtocol::processor_idle(sim::ProcessorId p) const {
  return !busy_.at(p).has_value();
}

DirectoryProtocol::ReqId DirectoryProtocol::read(sim::Cycle now,
                                                 sim::ProcessorId p,
                                                 sim::BlockAddr offset) {
  if (!processor_idle(p)) throw std::logic_error("processor busy");
  Pending q;
  q.id = next_req_++;
  q.proc = p;
  q.offset = offset;
  q.is_write = false;
  q.issued = now;
  busy_.at(p) = q.id;
  pending_.push_back(std::move(q));
  return next_req_ - 1;
}

DirectoryProtocol::ReqId DirectoryProtocol::write(sim::Cycle now,
                                                  sim::ProcessorId p,
                                                  sim::BlockAddr offset) {
  if (!processor_idle(p)) throw std::logic_error("processor busy");
  Pending q;
  q.id = next_req_++;
  q.proc = p;
  q.offset = offset;
  q.is_write = true;
  q.issued = now;
  busy_.at(p) = q.id;
  pending_.push_back(std::move(q));
  return next_req_ - 1;
}

void DirectoryProtocol::start(sim::Cycle now, Pending& p) {
  auto& dir = directory_[p.offset];
  assert(!dir.busy);
  dir.busy = true;
  p.started = true;

  const bool remote = home_of(p.offset) != cluster_of(p.proc);
  const bool dirty_elsewhere =
      dir.state == BlockState::Dirty && dir.owner != p.proc;

  sim::Cycle latency = 0;
  if (dirty_elsewhere) {
    latency = params_.remote_dirty_cycles;
    // request -> home -> owner -> (flush) home -> reply
    messages_ += 4;
    counters_.inc(counters_.dirty_forwards);
  } else if (remote) {
    latency = params_.remote_clean_cycles;
    messages_ += 2;  // request + reply
  } else {
    latency = params_.local_miss_cycles;
    messages_ += 2;  // local bus request/response accounted as messages
  }

  if (p.is_write) {
    // Invalidate every sharer and wait for every acknowledgement — the
    // overhead §5.2.3 points at ("point-to-point invalidation messages
    // and required acknowledgements").
    const auto sharer_mask = dir.sharers & ~(std::uint64_t{1} << p.proc);
    const auto n_inv = static_cast<std::uint32_t>(std::popcount(sharer_mask));
    if (n_inv > 0) {
      latency += params_.inv_ack_cycles;
      messages_ += 2ull * n_inv;
      acks_ += n_inv;
      counters_.inc(counters_.invalidations, n_inv);
    }
    p.out.invalidations = n_inv;
    dir.state = BlockState::Dirty;
    dir.owner = p.proc;
    dir.sharers = std::uint64_t{1} << p.proc;
  } else {
    if (dirty_elsewhere) {
      dir.state = BlockState::Shared;  // flushed on the way
    } else if (dir.state == BlockState::Uncached) {
      dir.state = BlockState::Shared;
    }
    dir.sharers |= std::uint64_t{1} << p.proc;
  }

  p.out.issued = p.issued;
  p.out.remote = remote;
  p.out.dirty_third_party = dirty_elsewhere;
  p.done_at = now + latency;
}

void DirectoryProtocol::tick(sim::Cycle now) {
  // Start any pending transaction whose block is free (home-order FIFO).
  for (auto& p : pending_) {
    if (p.started) continue;
    if (directory_[p.offset].busy) continue;
    start(now, p);
  }
  // Retire finished transactions.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (it->started && now >= it->done_at) {
      directory_[it->offset].busy = false;
      it->out.completed = now;
      results_.emplace(it->id, it->out);
      busy_.at(it->proc).reset();
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
}

std::optional<DirectoryProtocol::Outcome> DirectoryProtocol::take_result(
    ReqId id) {
  const auto it = results_.find(id);
  if (it == results_.end()) return std::nullopt;
  auto out = it->second;
  results_.erase(it);
  return out;
}

}  // namespace cfm::cache
