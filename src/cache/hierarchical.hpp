// Hierarchical (two-level) CFM architecture (§5.4, Fig 5.6).
//
// Clusters of processors, each cluster's memory banks acting as a
// second-level cache, network controllers as pseudo-processors on a
// global CFM among the clusters.  Both levels are *real* CfmMemory
// instances — every phase of a miss is an actual conflict-free block tour
// and its latency emerges from the machine, not from a constant:
//
//   L1 hit                 : 1 cycle
//   local-cluster read     : one cluster tour              ~  beta_c
//   global read            : global tour + L2 fill + L1 fill  ~ 3*beta
//   dirty-remote read      : + remote L1 wb + remote L2 wb + retry ~ 6*beta
//
// (the paper's Table 5.5/5.6 CFM column: 9 / 27 / 63 cycles for the
// 16-byte-line machine; our phase accounting yields 9 / 27 / ~54-63 —
// see EXPERIMENTS.md for the phase-by-phase mapping.)
//
// State coupling follows Table 5.3: a line can be L1-Valid only if its L2
// state is Valid or Dirty, and L1-Dirty only if L2-Dirty; the network
// controller must own a block before any processor in its cluster can.
// Controller event priorities follow Table 5.4.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cfm/cfm_memory.hpp"
#include "sim/audit.hpp"
#include "sim/stats.hpp"
#include "sim/txn_trace.hpp"
#include "sim/types.hpp"

namespace cfm::cache {

class HierarchicalCfm {
 public:
  struct Params {
    std::uint32_t clusters = 4;
    std::uint32_t procs_per_cluster = 4;
    std::uint32_t bank_cycle = 2;     ///< c (Table 5.5/5.6 use c = 2)
    std::uint32_t word_bits = 16;     ///< 8 banks x 2 bytes = 16-byte lines
    std::uint32_t l1_lines = 64;
  };

  enum class AccessClass : std::uint8_t {
    L1Hit,
    LocalCluster,  ///< served from the local second-level cache
    Global,        ///< fetched from global memory (clean)
    DirtyRemote,   ///< required a remote write-back chain
  };

  using ReqId = std::uint64_t;

  struct Outcome {
    AccessClass cls = AccessClass::L1Hit;
    bool is_write = false;
    sim::Cycle issued = 0;
    sim::Cycle completed = 0;
    std::uint32_t invalidations = 0;
  };

  explicit HierarchicalCfm(const Params& params);

  [[nodiscard]] const Params& params() const noexcept { return params_; }
  [[nodiscard]] std::uint32_t processor_count() const noexcept {
    return params_.clusters * params_.procs_per_cluster;
  }
  [[nodiscard]] std::uint32_t cluster_of(sim::ProcessorId p) const noexcept {
    return p / params_.procs_per_cluster;
  }
  [[nodiscard]] std::uint32_t local_index(sim::ProcessorId p) const noexcept {
    return p % params_.procs_per_cluster;
  }
  /// beta at the cluster level (= global level; both have c*n_local banks).
  [[nodiscard]] std::uint32_t beta_cluster() const noexcept;
  [[nodiscard]] std::uint32_t beta_global() const noexcept;

  /// A processor is idle once its last request's result is taken:
  /// each processor has one result slot.
  [[nodiscard]] bool processor_idle(sim::ProcessorId p) const;
  /// Both throw std::invalid_argument, before any side effect, for a
  /// processor past processor_count() or (write) a word index past the
  /// block; std::logic_error, naming `p`, while `p` still has a request
  /// outstanding or its result untaken.
  ReqId read(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset);
  ReqId write(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset,
              std::uint32_t word_index, sim::Word value);
  void tick(sim::Cycle now);
  /// Takes request `id`'s result; nullopt while it is in flight, or when
  /// `id` was taken already or never issued.  Looks through every
  /// processor's slot: a driver that knows the processor uses
  /// take_result_of.
  std::optional<Outcome> take_result(ReqId id);
  /// Takes the result in processor `p`'s slot, if it holds one.
  std::optional<Outcome> take_result_of(sim::ProcessorId p);

  /// Engine registration, decomposed by tick domain: the cross-cluster
  /// controller stays in the shared domain, while each cluster's CFM and
  /// the global CFM get a domain of their own (the controller is their
  /// only caller, so their tours can run as spans between its wakes).
  /// Drive the machine either via attach() + engine stepping or via
  /// manual tick() calls, never both.
  void attach(sim::Engine& engine);

  /// Cluster c's second-level CFM (e.g. for reading its tick domain
  /// after attach()).
  [[nodiscard]] core::CfmMemory& cluster_memory(std::uint32_t c) {
    return *cluster_mem_.at(c);
  }
  [[nodiscard]] core::CfmMemory& global_memory() { return *global_mem_; }

  [[nodiscard]] LineState l1_state(sim::ProcessorId p, sim::BlockAddr offset) const;
  [[nodiscard]] LineState l2_state(std::uint32_t cluster, sim::BlockAddr offset) const;
  /// Table 5.3 invariant: legal (L1, L2) state combinations everywhere.
  [[nodiscard]] bool check_state_coupling() const;

  [[nodiscard]] const sim::CounterSet& counters() const noexcept { return counters_; }

  /// Attaches the conflict auditor to every cluster CFM and the global
  /// CFM — each registers its own ConflictFree scope, so both levels of
  /// the hierarchy are held to the paper's invariants at once.
  void set_audit(sim::ConflictAuditor& auditor) {
    for (auto& mem : cluster_mem_) mem->set_audit(auditor);
    global_mem_->set_audit(auditor);
  }

  /// Enables degraded mode in every member memory (cluster CFMs and the
  /// global CFM each get one spare bank; see
  /// CfmMemory::set_fault_injector).  Member ops aborted by a fault
  /// timeout come back as phase retries, so processor requests still
  /// complete once the fault window closes.
  void set_fault_injector(sim::FaultInjector& injector) {
    for (auto& mem : cluster_mem_) mem->set_fault_injector(injector);
    global_mem_->set_fault_injector(injector);
  }

  /// Attaches the transaction tracer: the member memories trace their
  /// tours, and unit "hier" records each processor request's lifecycle
  /// (L1 hit span, per-phase events, completion) across both levels.
  void set_txn_trace(sim::TxnTracer& tracer);
  [[nodiscard]] sim::TxnTracer* txn_tracer() const noexcept { return tracer_; }
  [[nodiscard]] sim::TxnTracer::UnitId txn_unit() const noexcept {
    return tracer_unit_;
  }

  /// Called (in the shared domain) with the processor whenever a
  /// processor request completes — wake-aware drivers use it to
  /// re-publish their own quiescence hints and to take only the results
  /// that exist, instead of polling take_result every cycle.  It runs
  /// mid-pass, so it must not call read() or write().
  using CompletionHook = std::function<void(sim::Cycle, sim::ProcessorId)>;
  void set_completion_hook(CompletionHook hook) {
    completion_hook_ = std::move(hook);
  }

 private:
  enum class Phase : std::uint8_t {
    L1Hit,
    LocalL1Wb,     ///< intra-cluster dirty owner flushing to L2
    ClusterOp,     ///< the requesting processor's cluster tour (final fill)
    GlobalAttempt, ///< controller's global tour (may find dirty remote)
    RemoteL1Wb,    ///< remote owner's L1 -> remote L2
    RemoteL2Wb,    ///< remote controller's L2 -> global banks
    GlobalRetry,   ///< controller's global tour after the flush chain
    L2Fill,        ///< controller writing the fetched line into local L2
    VictimWb,      ///< L1 dirty victim flush before the fill
  };

  struct Pending {
    ReqId id = 0;
    sim::ProcessorId proc = 0;
    sim::BlockAddr offset = 0;
    bool is_write = false;
    std::uint32_t word_index = 0;
    sim::Word value = 0;
    sim::Cycle issued = 0;
    Phase phase = Phase::L1Hit;
    sim::Cycle phase_until = 0;
    core::CfmMemory::OpToken op = core::CfmMemory::kNoOp;
    std::uint32_t op_cluster = 0;       ///< cluster whose memory runs `op`
    bool op_is_global = false;
    sim::ProcessorId op_port = 0;
    std::vector<sim::Word> block;       ///< data being moved
    AccessClass cls = AccessClass::LocalCluster;
    bool holds_block_lock = false;  ///< per-block transaction serialization
    std::uint32_t invalidations = 0;
    sim::ProcessorId remote_owner = 0;  ///< for the write-back chain
    std::uint32_t remote_cluster = 0;
    sim::TxnId txn = sim::kNoTxn;
    bool retired = false;  ///< set by finish(); compacted out after the pass
  };

  struct L2Entry {
    LineState state = LineState::Invalid;
  };
  struct GlobalEntry {
    std::optional<std::uint32_t> dirty_cluster;
    bool busy = false;  ///< serializes global transactions per block
  };

  /// Throws std::invalid_argument naming `p` unless it is a processor.
  void check_processor(sim::ProcessorId p) const;
  /// Throws std::logic_error naming `p` unless processor_idle(p).
  void check_idle(sim::ProcessorId p) const;
  /// Queues `q` (its id, processor and issue cycle set) and wakes the
  /// controller; returns q.id.
  ReqId submit(Pending&& q);
  void advance_pending(sim::Cycle now);
  /// Earliest cycle at which a pass could act again when the pass at
  /// `now` freed no block lock and cut no phase chain (DESIGN.md §12).
  [[nodiscard]] sim::Cycle next_wake(sim::Cycle now) const;
  [[nodiscard]] std::optional<sim::ProcessorId> borrow_cluster_port(
      std::uint32_t cluster) const;
  void advance(sim::Cycle now, Pending& p);
  void finish(sim::Cycle now, Pending& p);
  void enter_cluster_fill(sim::Cycle now, Pending& p);
  /// L1-dirty owner of `offset` in `cluster` other than `except`, if any.
  [[nodiscard]] std::optional<sim::ProcessorId> l1_dirty_owner(
      std::uint32_t cluster, sim::BlockAddr offset,
      sim::ProcessorId except) const;

  Params params_;
  std::vector<std::unique_ptr<core::CfmMemory>> cluster_mem_;
  std::unique_ptr<core::CfmMemory> global_mem_;
  std::vector<std::unique_ptr<DirectCache>> l1_;
  std::vector<std::unordered_map<sim::BlockAddr, L2Entry>> l2_;
  std::unordered_map<sim::BlockAddr, GlobalEntry> global_dir_;
  std::vector<Pending> pending_;  ///< issue order
  /// One per processor: the request issued and not yet taken (id 0: none)
  /// and, once it retires, its outcome.
  struct Slot {
    ReqId id = 0;
    bool done = false;
    Outcome out;
  };
  std::vector<Slot> slots_;
  bool lock_freed_ = false;  ///< finish() released a block lock this pass
  /// The protocol's counters, with every id interned at construction.
  struct Counters : sim::CounterSet {
    sim::CounterId l1_hits = intern("l1_hits");
    sim::CounterId class_l1_hit = intern("class_l1_hit");
    sim::CounterId class_local = intern("class_local");
    sim::CounterId class_global = intern("class_global");
    sim::CounterId class_dirty_remote = intern("class_dirty_remote");
    sim::CounterId victim_wbs = intern("victim_wbs");
    sim::CounterId local_l1_wbs = intern("local_l1_wbs");
    sim::CounterId global_reads = intern("global_reads");
    sim::CounterId remote_l1_wbs = intern("remote_l1_wbs");
    sim::CounterId remote_l2_wbs = intern("remote_l2_wbs");
    sim::CounterId l2_fills = intern("l2_fills");
    sim::CounterId phase_retries = intern("phase_retries");
    sim::CounterId fill_races = intern("fill_races");
  };
  Counters counters_;
  ReqId next_req_ = 1;
  /// Controller component registered by attach(); carries the
  /// Phase::Network wake hint each pass publishes (DESIGN.md §12).
  sim::Component* controller_ = nullptr;
  CompletionHook completion_hook_;
  sim::TxnTracer* tracer_ = nullptr;
  sim::TxnTracer::UnitId tracer_unit_ = 0;
};

}  // namespace cfm::cache
