// Transaction-level tracing for the *simulated* memory system.
//
// This tracer instruments the machine being simulated, not the host
// simulator.
// Every block access becomes a transaction with a stable id and a causal
// lifecycle: when it was enqueued by the workload, when it issued, every
// bank it visited (the paper's Fig 3.6 address walk), network stages and
// link hops, coherence actions, restarts, and completion.  Exports:
//
//   * Chrome trace — per-span duration ("X") events on one timeline lane
//     per (unit, processor), instant events for restarts and coherence
//     actions, and flow arrows stitching a transaction across units;
//   * the "txn_trace" section of a cfm-bench-report/v1 document —
//     per-phase latency-attribution histograms (queueing vs. stall vs.
//     bank service vs. network vs. drain) whose per-transaction sums
//     equal the end-to-end latency by construction, plus a bounded
//     sample of full span lists (tools/validate_report.py checks both).
//
// Cost model: components hold a `TxnTracer*` that is null by default, so
// the untraced fast path is one predictable branch and zero allocations.
// When attached, the tracer allocates freely — tracing is an experiment
// mode, not a production path.
//
// Units: each traced component registers a unit (like the auditor's
// scopes and the engine's StatShards).  All mutable per-transaction state
// lives in the unit, which is only touched from the tick domain that owns
// the component, so tracing is lock-free and each unit's record sequence
// is the same under the fast path's domain-at-a-time spans; aggregate
// before the run or after it, never mid-step.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "sim/types.hpp"

namespace cfm::sim {

class ChromeTrace;
class Json;
class Report;

/// Transaction id.  Encodes (unit, sequence) so ids are deterministic per
/// unit regardless of domain interleaving.  0 = no transaction.
using TxnId = std::uint64_t;
inline constexpr TxnId kNoTxn = 0;

/// Latency-attribution phases of a transaction's lifecycle.
enum class TxnPhase : std::uint8_t {
  Queue,      ///< enqueued by the workload, waiting to issue
  Stall,      ///< issued but not progressing: restarts, back-off, retries
  Cache,      ///< served by a local cache (hits, directory lookups)
  Bank,       ///< address tour: one bank visit per slot (Fig 3.6)
  Network,    ///< omega stages, bus occupancy, inter-cluster link hops
  Coherence,  ///< invalidations, triggered write-backs, ack rounds
  Modify,     ///< local read-modify-write computation
  Drain,      ///< trailing data words crossing the data path (c-1 slots)
};
inline constexpr std::size_t kTxnPhaseCount = 8;

[[nodiscard]] constexpr const char* txn_phase_name(TxnPhase p) noexcept {
  switch (p) {
    case TxnPhase::Queue: return "queue";
    case TxnPhase::Stall: return "stall";
    case TxnPhase::Cache: return "cache";
    case TxnPhase::Bank: return "bank";
    case TxnPhase::Network: return "network";
    case TxnPhase::Coherence: return "coherence";
    case TxnPhase::Modify: return "modify";
    case TxnPhase::Drain: return "drain";
  }
  return "?";
}

class TxnTracer {
 public:
  using UnitId = std::uint32_t;

  struct Span {
    TxnPhase phase = TxnPhase::Bank;
    Cycle begin = 0;
    Cycle end = 0;           ///< exclusive
    std::uint32_t detail = 0;  ///< bank id / stage / hop count
  };

  struct Event {
    Cycle cycle = 0;
    std::string what;
  };

  struct Record {
    TxnId id = kNoTxn;
    ProcessorId proc = 0;
    std::string kind;
    BlockAddr offset = 0;
    Cycle enqueued = 0;   ///< workload hand-off (== issued if unqueued)
    Cycle issued = 0;     ///< first cycle at the memory system
    Cycle completed = kNeverCycle;
    bool ok = false;      ///< completed successfully (vs aborted/in flight)
    std::uint32_t restarts = 0;
    std::array<std::uint64_t, kTxnPhaseCount> attr{};  ///< cycles per phase
    std::vector<Span> spans;
    std::vector<Event> events;

    [[nodiscard]] std::uint64_t attr_total() const noexcept {
      std::uint64_t t = 0;
      for (const auto a : attr) t += a;
      return t;
    }
    [[nodiscard]] Cycle latency() const noexcept {
      return completed == kNeverCycle ? 0 : completed - enqueued;
    }
  };

  /// Registers a traced component.  Not thread-safe: register before the
  /// run starts (same discipline as ConflictAuditor scopes).
  UnitId add_unit(std::string name);

  /// Caps stored transaction records per unit; beyond it, begin() still
  /// counts but returns kNoTxn (all mutators no-op on kNoTxn).
  void set_capacity(std::size_t max_records_per_unit) noexcept {
    capacity_ = max_records_per_unit;
  }

  // ---- hot path (single writer per unit) ------------------------------

  /// Marks the next begin() by `proc` on `unit` as having waited in the
  /// workload queue since `since` (becomes the Queue span + attribution).
  void queued_since(UnitId unit, ProcessorId proc, Cycle since);

  /// Opens a transaction.  `kind` is a stable label ("read", "swap",
  /// "proto_read_inv", "remote_read"...).
  TxnId begin(UnitId unit, Cycle now, ProcessorId proc, std::string_view kind,
              BlockAddr offset);

  /// Records a lifecycle span [begin, end).  Spans are appended in
  /// chronological order by construction of the tick loop.
  void span(TxnId id, TxnPhase phase, Cycle begin, Cycle end,
            std::uint32_t detail = 0);

  /// Adds `cycles` to the phase-attribution bucket without a span (for
  /// aggregate accounting like "b slots of bank service").
  void attr(TxnId id, TxnPhase phase, std::uint64_t cycles);

  /// Instant lifecycle event ("restart", "invalidate p3", ...).
  void event(TxnId id, Cycle now, std::string_view what);

  /// Convenience: event + restart counter.
  void restart(TxnId id, Cycle now, std::string_view reason);

  /// Closes the transaction.  For completed transactions any
  /// still-unattributed latency is folded into the Stall bucket, so
  /// attribution sums always equal end-to-end latency.
  void end(TxnId id, Cycle now, bool completed);

  // ---- aggregation (call only while no tick is in flight) --------------

  [[nodiscard]] std::uint64_t started() const;
  [[nodiscard]] std::uint64_t completed() const;
  [[nodiscard]] std::uint64_t aborted() const;
  [[nodiscard]] std::uint64_t dropped() const;

  /// Looks a record up by id; nullptr if unknown/dropped.  Test hook.
  [[nodiscard]] const Record* find(TxnId id) const;

  /// The "txn_trace" report section:
  ///   {"started","completed","aborted","dropped",
  ///    "attribution": {"<phase>": {histogram}},
  ///    "latency": {histogram},
  ///    "units": {"<name>": {"started","completed"}},
  ///    "spans": [per-txn record...], "spans_truncated": bool}
  [[nodiscard]] Json to_json(std::size_t max_span_records = 256) const;
  /// Adds the section under key "txn_trace".
  void to_report(Report& report,
                 std::size_t max_span_records = 256) const;

  /// Emits every record into a Chrome trace: one lane per (unit, proc),
  /// "X" events per span, instants per event, and a flow arrow from
  /// issue to completion.  Lane tid = unit * kLaneStride + proc.
  void to_chrome(ChromeTrace& chrome) const;

  static constexpr int kLaneStride = 1024;

 private:
  struct Unit {
    std::string name;
    std::vector<Record> records;
    std::vector<Cycle> queued;  ///< per-proc queue hint, kNeverCycle = none
    std::uint64_t started = 0;
    std::uint64_t completed = 0;
    std::uint64_t aborted = 0;
    std::uint64_t dropped = 0;
  };

  [[nodiscard]] Record* resolve(TxnId id);
  [[nodiscard]] const Record* resolve(TxnId id) const;

  std::deque<Unit> units_;  ///< deque: stable references across growth
  std::size_t capacity_ = 1u << 20;
};

}  // namespace cfm::sim
