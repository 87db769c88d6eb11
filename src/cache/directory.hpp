// Directory-based (DASH-style) protocol baseline (§5.1.2, §5.4.4).
//
// A transaction-level model of an invalidation-based ownership protocol
// with a full-bit-vector directory at each block's home cluster and
// point-to-point messages.  Where the CFM protocol piggybacks coherence on
// the bank tour, a directory machine pays:
//   * request / reply message hops between clusters,
//   * an explicit invalidation message per sharer PLUS an acknowledgement
//     per sharer before ownership is granted,
//   * serialization at the home node for same-block requests.
//
// Latency constants default to the published DASH numbers the paper
// quotes in Table 5.5 (29 / 100 / 130 cycles for a 16-processor, 4-cluster
// machine) — exactly the comparison the paper makes; the message and
// acknowledgement counters are what our model adds.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>
#include <vector>

#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::cache {

class DirectoryProtocol {
 public:
  struct Params {
    std::uint32_t processors = 16;
    std::uint32_t clusters = 4;
    std::uint32_t local_miss_cycles = 29;    ///< fill from local cluster
    std::uint32_t remote_clean_cycles = 100; ///< fill from a remote home
    std::uint32_t remote_dirty_cycles = 130; ///< fill via a dirty third party
    std::uint32_t inv_ack_cycles = 40;       ///< extra wait for inv+ack round
  };

  using ReqId = std::uint64_t;

  struct Outcome {
    sim::Cycle issued = 0;
    sim::Cycle completed = 0;
    bool remote = false;
    bool dirty_third_party = false;
    std::uint32_t invalidations = 0;
  };

  explicit DirectoryProtocol(const Params& params);

  [[nodiscard]] std::uint32_t cluster_of(sim::ProcessorId p) const noexcept {
    return p / (params_.processors / params_.clusters);
  }
  [[nodiscard]] std::uint32_t home_of(sim::BlockAddr offset) const noexcept {
    return static_cast<std::uint32_t>(offset % params_.clusters);
  }

  [[nodiscard]] bool processor_idle(sim::ProcessorId p) const;
  ReqId read(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset);
  ReqId write(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset);
  void tick(sim::Cycle now);
  std::optional<Outcome> take_result(ReqId id);

  /// Total protocol messages (requests, replies, invalidations, acks).
  [[nodiscard]] std::uint64_t messages() const noexcept { return messages_; }
  [[nodiscard]] std::uint64_t acks() const noexcept { return acks_; }
  [[nodiscard]] const sim::CounterSet& counters() const noexcept { return counters_; }

 private:
  enum class BlockState : std::uint8_t { Uncached, Shared, Dirty };
  struct DirEntry {
    BlockState state = BlockState::Uncached;
    std::uint64_t sharers = 0;  ///< bit per processor
    sim::ProcessorId owner = 0;
    bool busy = false;          ///< home serializes same-block transactions
  };
  struct Pending {
    ReqId id = 0;
    sim::ProcessorId proc = 0;
    sim::BlockAddr offset = 0;
    bool is_write = false;
    sim::Cycle issued = 0;
    sim::Cycle done_at = 0;
    Outcome out;
    bool started = false;
  };

  void start(sim::Cycle now, Pending& p);

  Params params_;
  std::unordered_map<sim::BlockAddr, DirEntry> directory_;
  std::vector<std::optional<ReqId>> busy_;  // per processor
  std::deque<Pending> pending_;
  std::unordered_map<ReqId, Outcome> results_;
  std::uint64_t messages_ = 0;
  std::uint64_t acks_ = 0;
  /// The protocol's counters, with every id interned at construction.
  struct Counters : sim::CounterSet {
    sim::CounterId dirty_forwards = intern("dirty_forwards");
    sim::CounterId invalidations = intern("invalidations");
  };
  Counters counters_;
  ReqId next_req_ = 1;
};

}  // namespace cfm::cache
