// Conventional (contended) omega networks — the baselines CFM removes.
//
// Two operating modes from the machines surveyed in §2.1:
//
//  * `BufferedOmega` — store-and-forward with a finite FIFO per switch
//    output (Ultracomputer/RP3 style).  Under a hot spot the hot sink's
//    queues fill, back-pressure climbs stage by stage toward the sources,
//    and eventually *unrelated* traffic stalls: tree saturation (Fig 2.1).
//
//  * `CircuitOmega` — circuit switching (BBN Butterfly style).  A request
//    holds an entire source-to-sink path for the duration of the transfer;
//    any overlap with a held path aborts the request, which must be
//    retransmitted later (§2.1.2).
//
// Both exist to quantify what the synchronous omega eliminates.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "net/omega.hpp"
#include "sim/audit.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::net {

struct Packet {
  Port src = 0;
  Port dst = 0;
  sim::Cycle injected = 0;
  sim::Cycle delivered = 0;
  std::uint64_t id = 0;
  bool hot = false;  ///< tagged by the workload (hot-spot vs background)
  /// How many requests this packet represents (> 1 after fetch-and-add
  /// combining at a switch, §2.1.1).
  std::uint32_t combined = 1;
};

class BufferedOmega {
 public:
  /// `queue_capacity` packets per switch-output FIFO; the sink (memory
  /// module) consumes one packet every `sink_service` cycles.  With
  /// `combining` enabled (the NYU Ultracomputer / IBM RP3 technique,
  /// §2.1.1), two *hot* packets for the same sink meeting in one switch
  /// queue merge into a single request — "combining, however, can be
  /// applied only among operations that access the same memory location",
  /// which the hot flag stands in for.
  BufferedOmega(std::uint32_t ports, std::uint32_t queue_capacity,
                std::uint32_t sink_service = 1, bool combining = false);

  [[nodiscard]] std::uint32_t ports() const noexcept { return topo_.ports(); }

  /// Offers a packet at source `src`.  Returns false if the source's
  /// injection slot is still occupied (back-pressure has reached the
  /// processor — the visible symptom of tree saturation).
  bool try_inject(sim::Cycle now, Port src, Port dst, bool hot = false);

  /// Advances the network one cycle: delivery, internal hops, injection.
  void tick(sim::Cycle now);

  /// Packets delivered during the most recent tick.
  [[nodiscard]] const std::vector<Packet>& delivered_last_tick() const noexcept {
    return delivered_;
  }

  [[nodiscard]] std::size_t queue_depth(std::uint32_t stage, Port line) const;
  /// Total packets buffered in the network right now.
  [[nodiscard]] std::size_t in_flight() const noexcept { return in_flight_; }
  /// Fraction of switch-output queues currently full.
  [[nodiscard]] double saturated_queue_fraction() const;

  [[nodiscard]] std::uint64_t rejected_count() const noexcept { return rejected_count_; }
  /// Requests absorbed into other packets by switch combining.
  [[nodiscard]] std::uint64_t combined_count() const noexcept { return combined_count_; }

  /// Negative-control instrumentation: a Contended scope counting every
  /// rejected injection — back-pressure reaching a source is the visible
  /// symptom of tree saturation (Fig 2.1), made machine-checkable.
  void set_audit(sim::ConflictAuditor& auditor) {
    audit_ = &auditor;
    audit_scope_ =
        auditor.add_scope("buffered_omega", sim::AuditScopeKind::Contended,
                          ports(), /*bank_cycle=*/1, /*beta=*/0);
  }

 private:
  struct Queue {
    std::deque<Packet> fifo;
  };

  [[nodiscard]] Port unshuffle(Port x) const noexcept {
    const auto k = topo_.stages();
    return ((x >> 1) | ((x & 1) << (k - 1))) & (topo_.ports() - 1);
  }

  /// Appends `p` to `q`, combining with the queue tail when enabled.
  void enqueue(std::deque<Packet>& q, const Packet& p);

  OmegaTopology topo_;
  std::uint32_t capacity_;
  std::uint32_t sink_service_;
  bool combining_;
  // queues_[stage][output line]
  std::vector<std::vector<Queue>> queues_;
  std::vector<std::optional<Packet>> pending_;  // per-source injection slot
  std::vector<sim::Cycle> sink_busy_until_;
  std::vector<Packet> delivered_;
  std::size_t in_flight_ = 0;
  std::uint64_t rejected_count_ = 0;
  std::uint64_t combined_count_ = 0;
  std::uint64_t next_id_ = 0;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
};

class CircuitOmega {
 public:
  explicit CircuitOmega(std::uint32_t ports);

  [[nodiscard]] std::uint32_t ports() const noexcept { return topo_.ports(); }

  /// Attempts to establish the src->dst circuit at `now`, holding every
  /// switch output on the path (and the sink) for `hold` cycles.  Returns
  /// the completion cycle, or nullopt on conflict (caller retries later —
  /// the Butterfly's abort-and-retransmit behaviour).
  std::optional<sim::Cycle> try_circuit(sim::Cycle now, Port src, Port dst,
                                        std::uint32_t hold);

  [[nodiscard]] std::uint64_t attempts() const noexcept { return attempts_; }
  [[nodiscard]] std::uint64_t conflicts() const noexcept { return conflicts_; }

 private:
  OmegaTopology topo_;
  // hold_until_[stage][output line]; sinks tracked separately.
  std::vector<std::vector<sim::Cycle>> hold_until_;
  std::vector<sim::Cycle> sink_until_;
  std::uint64_t attempts_ = 0;
  std::uint64_t conflicts_ = 0;
};

}  // namespace cfm::net
