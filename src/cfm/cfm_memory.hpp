// CfmMemory — the conflict-free memory module, cycle-accurate.
//
// Wires together the AT-space schedule (synchronous switch + demuxes),
// b memory banks over one backing store, and one ATT per bank, and runs
// the per-slot lifecycle of block operations:
//
//   * any processor may have one block operation in flight;
//   * the op touches bank (t + c*p) mod b at every slot t of its tour;
//   * writes insert an ATT entry at their first bank and consult the
//     position windows described in att.hpp at every later bank, aborting
//     or restarting per the ConsistencyPolicy (§4.1 / §4.2);
//   * reads consult the whole ATT at every bank and restart their tour
//     from the current bank when a same-address write is detected, which
//     guarantees the block returned is a single consistent version;
//   * swaps run a read tour immediately followed by a write tour and
//     restart wholesale when they meet a competing write (§4.2.1), which
//     makes them atomic;
//   * completion: a tour that started at slot s finishes at s + beta.
//
// The class never arbitrates banks — it *asserts* conflict freedom (the
// schedule makes collisions impossible) via mem::Bank.
#pragma once

#include <bit>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "cfm/at_space.hpp"
#include "cfm/att.hpp"
#include "cfm/block_engine.hpp"
#include "cfm/config.hpp"
#include "mem/module.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "sim/txn_trace.hpp"
#include "sim/types.hpp"

namespace cfm::core {

class CfmMemory {
 public:
  using OpToken = std::uint64_t;
  static constexpr OpToken kNoOp = 0;

  explicit CfmMemory(const CfmConfig& cfg,
                     ConsistencyPolicy policy = ConsistencyPolicy::EarliestWins);

  [[nodiscard]] const CfmConfig& config() const noexcept { return cfg_; }
  /// Words in one block: a Write supplies exactly this many.
  [[nodiscard]] std::uint32_t block_words() const noexcept { return cfg_.banks; }
  [[nodiscard]] const AtSpace& at_space() const noexcept { return at_; }
  [[nodiscard]] ConsistencyPolicy policy() const noexcept { return policy_; }

  /// True iff processor p can issue a new operation at this moment.
  [[nodiscard]] bool idle(sim::ProcessorId p) const;

  /// Issues a block operation for processor p at slot `now` (its first
  /// bank is touched during this same slot's tick).  `data` supplies the
  /// block for Write and the swap-in block for Swap; `modify`, if given,
  /// overrides `data` for Swap by computing the write block from the read
  /// block (read-modify-write); it runs exactly once per completed read
  /// tour, but a lazy swap (see tick_span) runs it when it is settled,
  /// not at its boundary slot.  Returns the op token.
  /// Precondition: idle(p).  Throws std::logic_error when `now` precedes
  /// the slot after the last tick: that slot's bank has already been
  /// visited, so the tour would leave the AT-space schedule.
  OpToken issue(sim::Cycle now, sim::ProcessorId p, BlockOpKind kind,
                sim::BlockAddr offset, std::span<const sim::Word> data = {},
                ModifyFn modify = nullptr);

  /// Advances every in-flight operation by one slot.  Call exactly once
  /// per cycle (sim::Phase::Memory).
  void tick(sim::Cycle now);

  /// Batched form of tick() over [begin, end), used by the engine's fast
  /// path when this memory is the sole schedulable entry of its tick
  /// domain, or — attached in an independent domain — the only actionable
  /// one (see Component::tick_span).  Nothing else can issue, take a
  /// result or observe the memory mid-span.
  ///
  ///   * With an auditor, a transaction tracer or a fault injector
  ///     attached, or under ConsistencyPolicy::NoTracking, it runs tick()
  ///     per cycle and fast-forwards idle stretches via the published
  ///     hints: an idle memory has nothing to probe, trace or fault, so
  ///     the per-cycle probes are unweakened (DESIGN.md §12).
  ///   * Otherwise an op is *uncontended* when no other in-flight op has
  ///     its offset and no other op's ATT entry for that offset is live.
  ///     Only same-offset ops ever interact (§4.1.2), so such a tour is a
  ///     pure function of its start slot, and it becomes *lazy*: no span
  ///     touches it until it is settled.  Settling applies its deferred
  ///     slots as one copy per contiguous bank run and inserts its write
  ///     ATT entry at its own slot.  It happens in the span that holds the
  ///     op's finish slot, or earlier when the op could be observed: a
  ///     same-offset issue(), tick(), peek_block/poke_block, and the
  ///     set_audit/set_txn_trace/set_fault_injector setters.  Contended
  ///     ops keep tick()'s per-slot loop, and run first.
  ///
  /// Every path leaves results, counters, ATTs and blocks, as any caller
  /// can observe them, identical to ticking each cycle of the span.
  void tick_span(sim::Cycle begin, sim::Cycle end);

  /// Lower bound on the next cycle at which a new result could become
  /// visible to callers of take_result, from the perspective of a driver
  /// polling at `now`'s Issue phase.  kAlways while results are already
  /// pending or a fault injector is attached (fault timing is per-cycle
  /// observable); kNeverCycle when nothing is in flight.  Restarts only
  /// ever delay completions, and a swap still in its read tour completes
  /// no earlier than one write tour after that read tour ends; a write
  /// racing a same-offset op may abort at its next step, so such a write
  /// bounds the hint by that step.
  /// The bound holds until the next issue(): a driver that issues must
  /// re-poll it, and wake-aware drivers may sleep until it.
  [[nodiscard]] sim::Cycle next_completion_hint(sim::Cycle now) const;

  /// Registers tick() with an engine as a Phase::Memory component in a
  /// freshly allocated tick domain.  A CFM module is conflict-free by
  /// construction, so each instance is an independent domain.
  void attach(sim::Engine& engine);

  /// Same, but joins an existing tick domain, e.g. the one its driver
  /// ticks in (serve::Server, the closed-loop port drivers).  In any
  /// domain but the shared one the memory is span-capable: whoever
  /// drives it must wake on next_completion_hint.
  void attach(sim::Engine& engine, sim::DomainId domain);

  /// Same, on a Phase::Memory component the caller registered that
  /// forwards tick_phase to tick() and tick_span to tick_span(), e.g. a
  /// probe that records the spans the engine hands out.  The memory
  /// publishes its hints on `ticker` and joins its domain.
  void attach(sim::Component& ticker);

  /// Tick domain assigned by the last attach (kSharedDomain before).
  [[nodiscard]] sim::DomainId domain() const noexcept { return domain_; }

  /// Non-destructive result lookup; nullptr while still in flight or if
  /// the token is unknown.
  [[nodiscard]] const BlockOpResult* result(OpToken token) const;

  /// Destructive result retrieval (erases the stored result).
  std::optional<BlockOpResult> take_result(OpToken token);

  /// Bit p % 64 of word p / 64 is set iff processor p holds a result
  /// take_result has not collected yet.
  [[nodiscard]] std::span<const std::uint64_t> result_holders() const noexcept {
    return results_.holders();
  }

  /// Functional (zero-time) accessors for test setup and checkers.  Both
  /// first settle a lazy op on `offset` (see tick_span), so they see and
  /// change the block as of the slot after the last tick.
  [[nodiscard]] std::vector<sim::Word> peek_block(sim::BlockAddr offset);
  void poke_block(sim::BlockAddr offset, std::span<const sim::Word> words);

  [[nodiscard]] const sim::CounterSet& counters() const noexcept { return counters_; }

  /// Attaches the runtime conflict auditor: registers a ConflictFree
  /// scope over this module's banks (wiring every bank's access probe)
  /// and makes the op loop report the AT-space schedule of every bank
  /// visit plus the β timing of every completed tour.  Call before the
  /// run starts.
  void set_audit(sim::ConflictAuditor& auditor);

  /// Enables degraded mode: the memory consults `injector` every tick and
  /// reacts to its faults —
  ///
  ///   * a dead bank's AT slot is remapped onto one of `spare_banks`
  ///     freshly provisioned spare banks (same backing store, so service
  ///     continues with the same data) and every in-flight tour restarts
  ///     on the reconfigured machine; the AT schedule itself is untouched
  ///     (remapping is a pure logical→physical indirection), so the
  ///     ConflictAuditor's schedule and occupancy checks stay green;
  ///   * a module brownout pauses address tours for its window; tours
  ///     restart when service resumes;
  ///   * an unserviceable machine (brownout in progress, or a dead bank
  ///     with no spare left) aborts ops that waited longer than `timeout`
  ///     cycles (default 8β), so every access completes — possibly with
  ///     OpStatus::Aborted — within bounded latency instead of hanging.
  ///
  /// Injected faults are reported to the auditor via on_injected and
  /// never count as violations.  Call before the run starts.  The
  /// injector-free fast path costs one pointer compare per tick.
  void set_fault_injector(const sim::FaultInjector& injector,
                          std::uint32_t spare_banks = 1,
                          sim::Cycle timeout = 0);
  [[nodiscard]] const sim::FaultInjector* fault_injector() const noexcept {
    return faults_;
  }
  /// Completion − fault-hit cycle for every op that was interrupted by a
  /// fault (remap or brownout) and still completed.
  [[nodiscard]] const sim::RunningStat& fault_recovery() const noexcept {
    return recovery_latency_;
  }
  /// Logical banks not currently marked dead by the injector — the bank-
  /// health gauge of the telemetry flight recorder.  Remapped banks still
  /// count as dead while their fault is active: the gauge tracks physical
  /// substrate health, not schedule availability (which remapping keeps).
  [[nodiscard]] std::uint32_t live_banks() const noexcept {
    auto live = static_cast<std::uint32_t>(dead_.size());
    for (const bool d : dead_) live -= d ? 1u : 0u;
    return live;
  }

  /// Attaches the transaction tracer: every issued op becomes a traced
  /// transaction with per-bank-visit spans, restart events, and drain
  /// attribution.  Call before the run starts.
  void set_txn_trace(sim::TxnTracer& tracer);
  [[nodiscard]] sim::TxnTracer* txn_tracer() const noexcept { return tracer_; }
  /// Unit this memory's transactions are recorded under (valid after
  /// set_txn_trace) — workload drivers use it for queued_since hints.
  [[nodiscard]] sim::TxnTracer::UnitId txn_unit() const noexcept {
    return tracer_unit_;
  }

 private:
  struct InFlight {
    OpToken token = kNoOp;
    BlockOpKind kind = BlockOpKind::Read;
    sim::BlockAddr offset = 0;
    sim::ProcessorId proc = 0;
    sim::Cycle original_issue = 0;
    sim::Cycle tour_start = 0;      ///< restarts reset this
    std::uint32_t progress = 0;     ///< banks touched in the current tour
    bool bank0_done = false;        ///< current tour updated bank 0 yet?
    bool write_phase = false;       ///< swap: in the write tour?
    std::uint32_t restarts = 0;
    std::vector<sim::Word> read_buf;   ///< unused by a Write
    /// Keeps its capacity across ops: issue() overwrites it in place.
    std::vector<sim::Word> write_buf;
    ModifyFn modify;
    /// Set when the bank tour is done but the data path is still draining
    /// (the last word crosses at tour_start + beta - 1); the result is
    /// published at tour_start + beta.
    sim::Cycle drain_until = sim::kNeverCycle;
    sim::TxnId txn = sim::kNoTxn;
    /// The block's backing-store row, resolved on first use (rows never
    /// move).  A read of a never-written block leaves it null and looks
    /// again once the store has grown, since a racing write may have
    /// materialized it.
    sim::Word* row = nullptr;
    std::size_t rows_seen = 0;  ///< store size at the last failed lookup
    /// Other in-flight ops with this offset (issue and finish keep it).
    std::uint32_t sharers = 0;
    /// One past the last slot at which another op's ATT entry for this
    /// offset is visible to find(); 0 while there is none.
    sim::Cycle foreign_att_end = 0;
    /// First cycle a fault (remap / brownout) interrupted this op, for
    /// the recovery-latency statistic.
    sim::Cycle fault_at = sim::kNeverCycle;
    /// While the op is lazy: the first slot not yet applied.  Every
    /// other field holds the op's state as of that slot.
    sim::Cycle lazy_from = 0;
  };

  /// An ATT entry as recorded memory-wide for the contention test.
  struct RecentInsert {
    sim::Cycle slot = 0;
    sim::BlockAddr offset = 0;
  };

  [[nodiscard]] OpKind att_kind(const InFlight& op) const noexcept;
  /// Inserts into bank's ATT and records the entry in recent_inserts_.
  void att_insert(sim::Cycle now, sim::BankId bank, const InFlight& op,
                  OpKind kind);
  /// One op's share of tick(now).  Returns false once the op has retired.
  bool tick_op(sim::Cycle now, InFlight& op);
  /// Cycle at which a still-in-flight op acts next, seen after tick(now).
  [[nodiscard]] static sim::Cycle op_wake(const InFlight& op,
                                          sim::Cycle now) noexcept;
  /// True iff another in-flight op has op's offset, or another op's ATT
  /// entry for it is live at some slot >= `from`: the only ways op can
  /// restart or abort (§4.1.2).  O(1): issue, finish and att_insert keep
  /// the op's sharers and foreign_att_end current.
  [[nodiscard]] bool contended(const InFlight& op,
                               sim::Cycle from) const noexcept {
    return op.sharers != 0 || op.foreign_att_end > from;
  }
  /// The op's backing-store row: materialized for a write, null for a
  /// read of a block nothing has written yet.
  sim::Word* write_row(InFlight& op) {
    if (op.row == nullptr) op.row = module_.store().row(op.offset);
    return op.row;
  }
  sim::Word* read_row(InFlight& op) {
    auto& store = module_.store();
    if (op.row == nullptr && op.rows_seen != store.touched_blocks()) {
      op.rows_seen = store.touched_blocks();
      op.row = store.find_row(op.offset);
    }
    return op.row;
  }
  /// tick_span's batched path (see tick_span).
  void batched_span(sim::Cycle begin, sim::Cycle end);
  /// Slot at which an uncontended op publishes its result.
  [[nodiscard]] sim::Cycle finish_slot(const InFlight& op) const noexcept;
  /// Applies a lazy op's slots [op.lazy_from, until) as the per-slot path
  /// would with every ATT lookup missing, finishing it if its finish slot
  /// precedes `until`.  The op is no longer lazy afterwards.
  void settle(InFlight& op, sim::Cycle until);
  /// Settles every lazy op (on `offset` only, if given) to `until`.
  void settle_lazy(sim::Cycle until,
                   std::optional<sim::BlockAddr> offset = std::nullopt);
  static void set_bit(std::vector<std::uint64_t>& set, sim::ProcessorId p,
                      bool on) noexcept {
    const auto bit = std::uint64_t{1} << (p % 64);
    if (on) {
      set[p / 64] |= bit;
    } else {
      set[p / 64] &= ~bit;
    }
  }
  [[nodiscard]] static bool has_bit(const std::vector<std::uint64_t>& set,
                                    sim::ProcessorId p) noexcept {
    return (set[p / 64] >> (p % 64) & 1) != 0;
  }
  /// Calls fn(p) for every processor in `set`, ascending.  Bits cleared
  /// during the walk (ops retiring) are not revisited.
  template <typename Fn>
  static void for_each_bit(const std::vector<std::uint64_t>& set, Fn&& fn) {
    for (std::size_t w = 0; w < set.size(); ++w) {
      for (std::uint64_t bits = set[w]; bits != 0; bits &= bits - 1) {
        fn(static_cast<sim::ProcessorId>(w * 64 + std::countr_zero(bits)));
      }
    }
  }
  /// Calls fn(p) for every processor with an op in flight, ascending.
  template <typename Fn>
  void for_each_active(Fn&& fn) const {
    for_each_bit(active_, std::forward<Fn>(fn));
  }
  void check_faults(sim::Cycle now);
  sim::Word bank_access(sim::Cycle now, sim::BankId bank, mem::WordOp op,
                        sim::Word* row, sim::Word value = 0);
  void step_op(sim::Cycle now, InFlight& op);
  bool handle_write_side(sim::Cycle now, InFlight& op, sim::BankId bank);
  bool handle_read_side(sim::Cycle now, InFlight& op, sim::BankId bank);
  void restart(sim::Cycle now, InFlight& op, sim::BankId bank,
               sim::CounterId counter);
  void abort_write(sim::Cycle now, InFlight& op, sim::BankId bank);
  void complete_or_drain(sim::Cycle now, InFlight& op);
  void finish(sim::Cycle now, InFlight& op, OpStatus status);
  /// Re-publishes the Phase::Memory quiescence hint on the registered
  /// tick component after the state transition that ended at `now`.
  void publish_wake(sim::Cycle now);

  CfmConfig cfg_;
  ConsistencyPolicy policy_;
  AtSpace at_;
  mem::Module module_;
  std::vector<Att> atts_;           ///< one per bank
  std::vector<InFlight> inflight_;  ///< one slot per processor
  /// Bitset over processors: bit p set iff inflight_[p] holds an op.
  std::vector<std::uint64_t> active_;
  /// Same layout: the in-flight ops that are lazy (see tick_span).
  std::vector<std::uint64_t> lazy_;
  /// batched_span scratch, same layout: ops kept on the per-slot loop.
  std::vector<std::uint64_t> per_slot_;
  /// ATT inserts of about the last b slots, memory-wide (pruned on each
  /// insert), so issue() can seed a new op's foreign_att_end without a
  /// scan of all b tables.
  std::vector<RecentInsert> recent_inserts_;
  /// Slot after the last tick (or span); issue() may not precede it.
  /// A lazy op's wake is the next slot, so while one exists the engine
  /// ticks the memory every slot and this equals the engine clock.
  sim::Cycle next_slot_ = 0;
  ResultBox results_;
  /// The memory's counters, with every id interned at construction.
  struct Counters : sim::CounterSet {
    sim::CounterId ops_issued = intern("ops_issued");
    sim::CounterId ops_completed = intern("ops_completed");
    sim::CounterId ops_aborted = intern("ops_aborted");
    sim::CounterId read_restarts = intern("read_restarts");
    sim::CounterId write_restarts = intern("write_restarts");
    sim::CounterId swap_restarts = intern("swap_restarts");
    sim::CounterId fault_restarts = intern("fault_restarts");
    sim::CounterId fault_aborts = intern("fault_aborts");
    sim::CounterId brownouts = intern("brownouts");
    sim::CounterId bank_failures = intern("bank_failures");
    sim::CounterId bank_remaps = intern("bank_remaps");
    sim::CounterId bank_failures_unmapped = intern("bank_failures_unmapped");
  };
  Counters counters_;
  sim::DomainId domain_ = sim::kSharedDomain;
  /// Component registered by attach(); carries the quiescence hints the
  /// engine's fast path polls.  Null when never attached (manual tick()).
  sim::Component* ticker_ = nullptr;
  OpToken next_token_ = 1;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
  sim::TxnTracer* tracer_ = nullptr;
  sim::TxnTracer::UnitId tracer_unit_ = 0;

  // ---- degraded mode (all inert while faults_ == nullptr) --------------
  const sim::FaultInjector* faults_ = nullptr;
  std::vector<sim::BankId> remap_;  ///< logical bank -> physical bank
  std::vector<bool> dead_;          ///< per logical bank
  sim::BankId next_spare_ = 0;      ///< next unused physical spare index
  bool halted_ = false;             ///< brownout or unmapped dead bank
  sim::Cycle fault_timeout_ = 0;    ///< bounded-latency abort threshold
  sim::RunningStat recovery_latency_;
};

}  // namespace cfm::core
