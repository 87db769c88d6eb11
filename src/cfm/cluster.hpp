// Multi-cluster CFM with free-slot remote access (§3.3, Fig 3.12).
//
// A CFM cluster may install fewer processors than the AT-space has slots;
// the free slots are donated to a memory-mapped remote port that serves
// block requests arriving from other clusters.  Remote service uses the
// free slot, so it adds *zero* contention inside the serving cluster —
// "to processor 0, the remote memory access can be considered as just a
// slower regular memory access".  The inter-cluster link itself can still
// contend; we model it as one request in flight per direction with a
// fixed hop latency.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <span>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "sim/types.hpp"

namespace cfm::core {

/// Inter-cluster interconnection topologies (§3.3: "These include
/// hypercube, 2-D mesh, etc.").  The request/response latency scales with
/// the hop distance between the clusters.
enum class ClusterTopology : std::uint8_t {
  FullyConnected,  ///< one hop between any pair (Fig 3.12's direct link)
  Ring,
  Mesh2D,          ///< square mesh; cluster count must be a perfect square
  Hypercube,       ///< cluster count must be a power of two
};

/// Hop distance between clusters under `topo` (0 for src == dst).
[[nodiscard]] std::uint32_t cluster_hops(ClusterTopology topo,
                                         std::uint32_t clusters,
                                         sim::ClusterId src, sim::ClusterId dst);

struct ClusterConfig {
  std::uint32_t local_processors = 3;  ///< installed CPUs
  std::uint32_t total_slots = 4;       ///< AT-space slots (= banks / c)
  std::uint32_t bank_cycle = 1;
  std::uint32_t word_bits = 32;
  std::uint32_t link_latency = 4;      ///< cycles per inter-cluster hop
  ClusterTopology topology = ClusterTopology::FullyConnected;
};

/// A system of identical conflict-free clusters connected pairwise.
class ClusterSystem {
 public:
  ClusterSystem(std::uint32_t clusters, const ClusterConfig& cfg,
                ConsistencyPolicy policy = ConsistencyPolicy::EarliestWins);

  [[nodiscard]] std::uint32_t cluster_count() const noexcept {
    return static_cast<std::uint32_t>(memories_.size());
  }
  [[nodiscard]] const ClusterConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] CfmMemory& memory(sim::ClusterId c) { return *memories_.at(c); }

  using RequestId = std::uint64_t;

  /// Issues a remote block read/write from (`src_cluster`) against
  /// `dst_cluster`'s memory.  Served by the destination's free slot(s).
  RequestId remote_request(sim::Cycle now, sim::ClusterId src_cluster,
                           sim::ClusterId dst_cluster, BlockOpKind kind,
                           sim::BlockAddr offset,
                           std::span<const sim::Word> data = {});

  /// Advances link transport and remote-port service by one cycle.  Call
  /// once per cycle *before* ticking the member memories.
  void tick(sim::Cycle now);

  /// Completed remote request results (latency = completed - issued).
  [[nodiscard]] const BlockOpResult* result(RequestId id) const;
  std::optional<BlockOpResult> take_result(RequestId id);

  /// Enables degraded mode across the whole system: every member memory
  /// consults `injector` with one spare bank (spare-bank remap + brownout
  /// handling, see CfmMemory::set_fault_injector), and the inter-cluster
  /// link drops requests per the injector's MessageDrop faults.  A dropped
  /// request is retransmitted over the link up to kMaxRetransmits times,
  /// then the request completes with OpStatus::Aborted — bounded latency
  /// either way.  Non-const: link drops draw from the injector's seeded
  /// RNG, and the link mover ticks in the shared domain.
  void set_fault_injector(sim::FaultInjector& injector) {
    faults_ = &injector;
    for (auto& mem : memories_) mem->set_fault_injector(injector);
  }
  /// Link retransmissions a remote request survives before it aborts.
  static constexpr std::uint32_t kMaxRetransmits = 3;
  [[nodiscard]] std::uint64_t link_drops() const noexcept {
    return link_drops_;
  }
  [[nodiscard]] std::uint64_t link_failures() const noexcept {
    return link_failures_;
  }

 private:
  struct Pending {
    RequestId id = 0;
    sim::ClusterId src = 0;
    sim::ClusterId dst = 0;
    BlockOpKind kind = BlockOpKind::Read;
    sim::BlockAddr offset = 0;
    std::vector<sim::Word> data;
    sim::Cycle issued = 0;
    sim::Cycle arrives = 0;              ///< when it reaches dst's port
    CfmMemory::OpToken op = CfmMemory::kNoOp;
    std::optional<sim::Cycle> done_at;   ///< memory op completed, returning
    std::uint32_t retransmits = 0;       ///< link drops survived so far
    bool drop_checked = false;           ///< one drop roll per link flight
  };

  std::vector<std::unique_ptr<CfmMemory>> memories_;
  ClusterConfig cfg_;
  std::deque<Pending> queue_;
  std::unordered_map<RequestId, BlockOpResult> results_;
  RequestId next_id_ = 1;
  sim::FaultInjector* faults_ = nullptr;
  std::uint64_t link_drops_ = 0;
  std::uint64_t link_failures_ = 0;
};

}  // namespace cfm::core
