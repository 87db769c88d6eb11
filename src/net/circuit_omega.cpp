#include "net/circuit_omega.hpp"

#include <stdexcept>

#include <cassert>

namespace cfm::net {

BufferedOmega::BufferedOmega(std::uint32_t ports, std::uint32_t queue_capacity,
                             std::uint32_t sink_service, bool combining)
    : topo_(ports),
      capacity_(queue_capacity),
      sink_service_(sink_service),
      combining_(combining),
      queues_(topo_.stages(), std::vector<Queue>(ports)),
      pending_(ports),
      sink_busy_until_(ports, 0) {
  if (queue_capacity == 0 || sink_service == 0) {
    throw std::invalid_argument(
        "queue capacity and sink service time must be positive");
  }
}

bool BufferedOmega::try_inject(sim::Cycle now, Port src, Port dst, bool hot) {
  auto& slot = pending_.at(src);
  if (slot.has_value()) {
    ++rejected_count_;
    if (audit_) audit_->on_contention(audit_scope_, now, "rejected_injection");
    return false;
  }
  Packet p;
  p.src = src;
  p.dst = dst;
  p.injected = now;
  p.id = next_id_++;
  p.hot = hot;
  slot = p;
  return true;
}

void BufferedOmega::enqueue(std::deque<Packet>& q, const Packet& p) {
  if (combining_ && p.hot && !q.empty() && q.back().hot &&
      q.back().dst == p.dst) {
    // Fetch-and-add combining: the waiting packet absorbs this one; a
    // single memory access will serve both (§2.1.1).
    q.back().combined += p.combined;
    combined_count_ += p.combined;
    --in_flight_;  // the absorbed packet no longer travels
    return;
  }
  q.push_back(p);
}

void BufferedOmega::tick(sim::Cycle now) {
  delivered_.clear();
  const auto stages = topo_.stages();
  const auto ports = topo_.ports();

  // 1. Deliver from last-stage queues into the sinks.  The last-stage
  //    output line number *is* the destination (destination-tag routing).
  for (Port line = 0; line < ports; ++line) {
    auto& q = queues_[stages - 1][line].fifo;
    if (q.empty() || now < sink_busy_until_[line]) continue;
    Packet p = q.front();
    q.pop_front();
    --in_flight_;
    sink_busy_until_[line] = now + sink_service_;
    p.delivered = now;
    delivered_.push_back(p);
  }

  // 2. Hop packets from stage s into stage s+1, sink-side first so a queue
  //    drained this cycle frees a slot for its upstream neighbour.  Each
  //    2x2 switch forwards at most one packet per *output* per cycle;
  //    input-port priority alternates each cycle (fair arbitration).
  for (std::uint32_t s = stages - 1; s >= 1; --s) {
    for (std::uint32_t sw = 0; sw < topo_.switches_per_stage(); ++sw) {
      bool out_taken[2] = {false, false};
      const int first = static_cast<int>((now + sw) & 1);
      for (int side = 0; side < 2; ++side) {
        const Port in_line = 2 * sw + static_cast<Port>((first + side) & 1);
        auto& src_q = queues_[s - 1][unshuffle(in_line)].fifo;
        if (src_q.empty()) continue;
        const Packet& p = src_q.front();
        const auto out_bit = (p.dst >> (stages - 1 - s)) & 1u;
        const Port out_line = (in_line & ~Port{1}) | out_bit;
        if (out_taken[out_bit]) continue;
        auto& dst_q = queues_[s][out_line].fifo;
        const bool combines = combining_ && p.hot && !dst_q.empty() &&
                              dst_q.back().hot && dst_q.back().dst == p.dst;
        if (!combines && dst_q.size() >= capacity_) continue;
        enqueue(dst_q, p);
        src_q.pop_front();
        out_taken[out_bit] = true;
      }
    }
  }

  // 3. Inject pending packets into stage-0 queues via the same switch
  //    discipline.  Source i feeds stage-0 input line shuffle(i).
  for (std::uint32_t sw = 0; sw < topo_.switches_per_stage(); ++sw) {
    bool out_taken[2] = {false, false};
    const int first = static_cast<int>((now + sw) & 1);
    for (int side = 0; side < 2; ++side) {
      const Port in_line = 2 * sw + static_cast<Port>((first + side) & 1);
      auto& slot = pending_[unshuffle(in_line)];
      if (!slot.has_value()) continue;
      const auto out_bit = (slot->dst >> (stages - 1)) & 1u;
      const Port out_line = (in_line & ~Port{1}) | out_bit;
      if (out_taken[out_bit]) continue;
      auto& dst_q = queues_[0][out_line].fifo;
      const bool combines = combining_ && slot->hot && !dst_q.empty() &&
                            dst_q.back().hot && dst_q.back().dst == slot->dst;
      if (!combines && dst_q.size() >= capacity_) continue;
      ++in_flight_;
      enqueue(dst_q, *slot);
      slot.reset();
      out_taken[out_bit] = true;
    }
  }
}

std::size_t BufferedOmega::queue_depth(std::uint32_t stage, Port line) const {
  return queues_.at(stage).at(line).fifo.size();
}

double BufferedOmega::saturated_queue_fraction() const {
  std::size_t full = 0;
  std::size_t total = 0;
  for (const auto& stage : queues_) {
    for (const auto& q : stage) {
      ++total;
      if (q.fifo.size() >= capacity_) ++full;
    }
  }
  return total ? static_cast<double>(full) / static_cast<double>(total) : 0.0;
}

CircuitOmega::CircuitOmega(std::uint32_t ports)
    : topo_(ports),
      hold_until_(topo_.stages(), std::vector<sim::Cycle>(ports, 0)),
      sink_until_(ports, 0) {}

std::optional<sim::Cycle> CircuitOmega::try_circuit(sim::Cycle now, Port src,
                                                    Port dst,
                                                    std::uint32_t hold) {
  ++attempts_;
  const auto path = topo_.route(src, dst);
  for (const auto& step : path) {
    if (now < hold_until_[step.stage][step.line_after]) {
      ++conflicts_;
      return std::nullopt;
    }
  }
  if (now < sink_until_[dst]) {
    ++conflicts_;
    return std::nullopt;
  }
  const sim::Cycle done = now + hold;
  for (const auto& step : path) hold_until_[step.stage][step.line_after] = done;
  sink_until_[dst] = done;
  return done;
}

}  // namespace cfm::net
