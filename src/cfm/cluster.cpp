#include "cfm/cluster.hpp"

#include <cassert>
#include <stdexcept>

namespace cfm::core {
namespace {

[[nodiscard]] std::uint32_t isqrt(std::uint32_t x) {
  std::uint32_t r = 0;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

}  // namespace

std::uint32_t cluster_hops(ClusterTopology topo, std::uint32_t clusters,
                           sim::ClusterId src, sim::ClusterId dst) {
  if (src == dst) return 0;
  switch (topo) {
    case ClusterTopology::FullyConnected:
      return 1;
    case ClusterTopology::Ring: {
      const auto d = src > dst ? src - dst : dst - src;
      return std::min(d, clusters - d);
    }
    case ClusterTopology::Mesh2D: {
      const auto side = isqrt(clusters);
      if (side * side != clusters) {
        throw std::invalid_argument("Mesh2D requires a square cluster count");
      }
      const auto dx = (src % side) > (dst % side) ? (src % side) - (dst % side)
                                                  : (dst % side) - (src % side);
      const auto dy = (src / side) > (dst / side) ? (src / side) - (dst / side)
                                                  : (dst / side) - (src / side);
      return dx + dy;
    }
    case ClusterTopology::Hypercube: {
      if ((clusters & (clusters - 1)) != 0) {
        throw std::invalid_argument(
            "Hypercube requires a power-of-two cluster count");
      }
      return static_cast<std::uint32_t>(__builtin_popcount(src ^ dst));
    }
  }
  return 1;
}

ClusterSystem::ClusterSystem(std::uint32_t clusters, const ClusterConfig& cfg,
                             ConsistencyPolicy policy)
    : cfg_(cfg) {
  if (cfg.local_processors >= cfg.total_slots) {
    throw std::invalid_argument(
        "remote access needs at least one free AT-space slot per cluster");
  }
  CfmConfig mc;
  // The memory is built for the full slot count; only the first
  // `local_processors` slots host CPUs, the rest belong to the remote port.
  mc.processors = cfg.total_slots;
  mc.bank_cycle = cfg.bank_cycle;
  mc.word_bits = cfg.word_bits;
  mc.banks = cfg.bank_cycle * cfg.total_slots;
  memories_.reserve(clusters);
  for (std::uint32_t i = 0; i < clusters; ++i) {
    memories_.push_back(std::make_unique<CfmMemory>(mc, policy));
  }
}

ClusterSystem::RequestId ClusterSystem::remote_request(
    sim::Cycle now, sim::ClusterId src_cluster, sim::ClusterId dst_cluster,
    BlockOpKind kind, sim::BlockAddr offset, std::span<const sim::Word> data) {
  if (src_cluster == dst_cluster) {
    throw std::invalid_argument("remote_request requires distinct clusters");
  }
  Pending p;
  p.id = next_id_++;
  p.src = src_cluster;
  p.dst = dst_cluster;
  p.kind = kind;
  p.offset = offset;
  p.data.assign(data.begin(), data.end());
  p.issued = now;
  const auto hops = cluster_hops(cfg_.topology,
                                 static_cast<std::uint32_t>(memories_.size()),
                                 src_cluster, dst_cluster);
  p.arrives = now + static_cast<sim::Cycle>(hops) * cfg_.link_latency;
  queue_.push_back(std::move(p));
  return queue_.back().id;
}

void ClusterSystem::tick(sim::Cycle now) {
  const auto first_port = cfg_.local_processors;  // pseudo-processor ids
  for (auto it = queue_.begin(); it != queue_.end();) {
    Pending& p = *it;
    if (p.done_at.has_value()) {
      // Result is travelling back over the link(s).
      const auto hops = cluster_hops(
          cfg_.topology, static_cast<std::uint32_t>(memories_.size()), p.src,
          p.dst);
      if (now >= *p.done_at + static_cast<sim::Cycle>(hops) * cfg_.link_latency) {
        auto res = memories_[p.dst]->take_result(p.op);
        assert(res.has_value());
        const auto hops_back = cluster_hops(
            cfg_.topology, static_cast<std::uint32_t>(memories_.size()),
            p.src, p.dst);
        res->issued = p.issued;
        res->completed =
            *p.done_at + static_cast<sim::Cycle>(hops_back) * cfg_.link_latency;
        results_.emplace(p.id, std::move(*res));
        it = queue_.erase(it);
        continue;
      }
    } else if (p.op != CfmMemory::kNoOp) {
      // Memory op in flight at the destination cluster.
      if (const auto* res = memories_[p.dst]->result(p.op)) {
        p.done_at = res->completed;
      }
    } else if (now >= p.arrives) {
      if (faults_ != nullptr && !p.drop_checked &&
          faults_->drop_message(now)) [[unlikely]] {
        // The request was lost on the link.  Retransmit (another full
        // link flight) up to the bound, then give up with Aborted so the
        // requester never waits unbounded.
        const auto hops = cluster_hops(
            cfg_.topology, static_cast<std::uint32_t>(memories_.size()),
            p.src, p.dst);
        ++link_drops_;
        if (p.retransmits < kMaxRetransmits) {
          ++p.retransmits;
          p.arrives =
              now + static_cast<sim::Cycle>(hops) * cfg_.link_latency;
        } else {
          ++link_failures_;
          BlockOpResult res;
          res.status = OpStatus::Aborted;
          res.issued = p.issued;
          res.completed = now + 1;
          results_.emplace(p.id, std::move(res));
          it = queue_.erase(it);
          continue;
        }
        ++it;
        continue;
      }
      p.drop_checked = true;
      // Find an idle free-slot port in the destination cluster.
      auto& mem = *memories_[p.dst];
      for (std::uint32_t port = first_port; port < cfg_.total_slots; ++port) {
        if (!mem.idle(port)) continue;
        p.op = mem.issue(now, port, p.kind, p.offset, p.data);
        break;
      }
    }
    ++it;
  }
}

const BlockOpResult* ClusterSystem::result(RequestId id) const {
  const auto it = results_.find(id);
  return it == results_.end() ? nullptr : &it->second;
}

std::optional<BlockOpResult> ClusterSystem::take_result(RequestId id) {
  const auto it = results_.find(id);
  if (it == results_.end()) return std::nullopt;
  auto out = std::move(it->second);
  results_.erase(it);
  return out;
}

}  // namespace cfm::core
