// CodedMemory — conflict *tolerance* through erasure coding, instead of
// conflict freedom through provisioning.
//
// The CFM (cfm/cfm_memory.hpp) provisions b = c·n banks so the AT-space
// schedule can guarantee that no two processors ever meet at a bank.
// CodedMemory drops that identity: it provisions D data banks plus P
// parity banks (see code_descriptor.hpp for the stripe layout) with
// D + P typically far below c·n, arbitrates banks dynamically, and when a
// requested bank is busy — or permanently dead — serves the word by
// XOR-decoding it from the surviving members of its stripe sub-group.
//
// Per cycle (Phase::Memory), in processor order:
//
//   * a read's next word goes to its data bank if the bank is alive and
//     free; otherwise, if every sub-group survivor and the group's parity
//     bank are alive and free (and, under the Logged policy, the group's
//     delta log is drained — the torn-parity guard), all of them are
//     claimed for the slot and the word is reconstructed by XOR;
//     otherwise the op stalls one cycle;
//   * a write updates its data bank and maintains parity per the
//     configured ParityPolicy: ReadModifyWrite claims data and parity
//     bank in the same slot, Logged writes the data bank immediately and
//     queues the XOR delta on a bounded per-group log that a background
//     drain applies (coalescing same-block deltas) whenever the parity
//     bank is free;
//   * a `bank_dead` fault is absorbed by *permanent decode*: reads of the
//     dead bank reconstruct forever, writes recover the old word from the
//     survivors and fold the update into parity — no spare, no remap.
//     Death is permanent even if the fault spec carries a duration: a
//     revived cell would hold stale data, so the backend never trusts it
//     again.
//
// What the machine still guarantees — at most one access per bank per
// slot, decode fan-out bounded by the stripe width, no decode through
// unapplied parity deltas — is exactly what the auditor's CodedRelaxed
// scope re-derives at runtime.  Every decoded word is additionally
// verified against the architectural store ("decode_mismatches" must
// stay 0): the code is checked, not assumed.
#pragma once

#include <cassert>
#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "cfm/block_engine.hpp"
#include "mem/backing_store.hpp"
#include "mem/bank.hpp"
#include "mem/coded/code_descriptor.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::mem::coded {

struct CodedConfig {
  std::uint32_t processors = 8;
  std::uint32_t bank_cycle = 1;  ///< c — word-access hold time
  CodeDescriptor code;
  /// Logged-policy delta-log bound per parity group (0 = default 4).
  std::uint32_t log_capacity = 0;

  /// Stall-free block access time: D words pipelined one per slot, the
  /// last one landing bank_cycle later — the coded analogue of
  /// β = b + c − 1.  Contention adds stalls on top; the CodedRelaxed
  /// contract deliberately does not bound them.
  [[nodiscard]] std::uint32_t block_access_time() const noexcept {
    return code.data_banks + bank_cycle - 1;
  }
  /// Banks this backend provisions — decoupled from the c·n the CFM
  /// would require for the same processor count.
  [[nodiscard]] std::uint32_t banks_provisioned() const noexcept {
    return code.total_banks();
  }
  [[nodiscard]] std::uint32_t banks_required_cfm() const noexcept {
    return bank_cycle * processors;
  }

  /// Throws std::invalid_argument on nonsense (and validates the code).
  void validate() const;
};

class CodedMemory {
 public:
  using OpToken = std::uint64_t;
  static constexpr OpToken kNoOp = 0;

  explicit CodedMemory(const CodedConfig& cfg);

  [[nodiscard]] const CodedConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] const CodeDescriptor& descriptor() const noexcept {
    return cfg_.code;
  }
  /// Words in one block: a Write supplies exactly this many.
  [[nodiscard]] std::uint32_t block_words() const noexcept {
    return cfg_.code.data_banks;
  }

  [[nodiscard]] bool idle(sim::ProcessorId p) const {
    return !inflight_[p].has_value();
  }

  /// Issues a block Read or Write for processor p (other kinds throw).
  /// Writes must supply exactly data_banks words.  Precondition: idle(p).
  OpToken issue(sim::Cycle now, sim::ProcessorId p, core::BlockOpKind kind,
                sim::BlockAddr block, std::span<const sim::Word> data = {});

  /// Advances every in-flight op by one slot and drains parity logs.
  /// Call exactly once per cycle (sim::Phase::Memory).
  void tick(sim::Cycle now);

  /// Registers tick() with an engine as a Phase::Memory component.
  void attach(sim::Engine& engine, sim::DomainId domain);

  /// Lower bound on the next cycle a new result could appear; wake-aware
  /// drivers may sleep until it.
  [[nodiscard]] sim::Cycle next_completion_hint(sim::Cycle now) const;

  std::optional<core::BlockOpResult> take_result(OpToken token);
  /// Bit p % 64 of word p / 64 is set iff processor p holds a result
  /// take_result has not collected yet.
  [[nodiscard]] std::span<const std::uint64_t> result_holders() const noexcept {
    return results_.holders();
  }

  /// Functional (zero-time) accessors.  poke_block also rebuilds the
  /// parity of every touched group, so the code stays consistent.
  [[nodiscard]] std::vector<sim::Word> peek_block(sim::BlockAddr block) const;
  void poke_block(sim::BlockAddr block, std::span<const sim::Word> words);

  [[nodiscard]] const sim::CounterSet& counters() const noexcept {
    return counters_;
  }
  /// Largest decode fan-out observed (banks touched by one decode).
  [[nodiscard]] std::uint32_t decode_fanout_max() const noexcept {
    return decode_fanout_max_;
  }
  /// Parity deltas queued and not yet applied — the stripe-queue-depth
  /// telemetry gauge.
  [[nodiscard]] std::uint64_t pending_parity() const noexcept {
    return pending_total_;
  }
  /// Banks (data + parity) not marked dead — the bank-health gauge.
  [[nodiscard]] std::uint32_t live_banks() const noexcept {
    auto live = static_cast<std::uint32_t>(dead_.size());
    for (const bool d : dead_) live -= d ? 1u : 0u;
    return live;
  }

  /// Attaches the runtime auditor: registers a CodedRelaxed scope over
  /// all provisioned banks with the stripe width as the decode fan-out
  /// bound, and wires every bank's occupancy probe.  Call before the run.
  void set_audit(sim::ConflictAuditor& auditor);

  /// Enables degraded mode: bank_dead faults (bank indices cover data
  /// banks [0, D) then parity banks [D, D+P)) are absorbed by permanent
  /// decode.  An op whose word is *structurally* unserviceable (its bank
  /// dead and its group unable to decode — second death in the group, or
  /// an uncoded stripe) aborts after `timeout` cycles of stall (default
  /// 8·block_access_time), so every access resolves in bounded time.
  void set_fault_injector(const sim::FaultInjector& injector,
                          sim::Cycle timeout = 0);
  [[nodiscard]] const sim::FaultInjector* fault_injector() const noexcept {
    return faults_;
  }

 private:
  struct InFlight {
    OpToken token = kNoOp;
    core::BlockOpKind kind = core::BlockOpKind::Read;
    sim::BlockAddr block = 0;
    sim::ProcessorId proc = 0;
    sim::Cycle issued = 0;
    std::uint32_t start_word = 0;  ///< de-phased first word of the tour
    std::uint32_t progress = 0;    ///< words served
    sim::Cycle stalled_since = sim::kNeverCycle;
    bool unserviceable_noted = false;
    std::vector<sim::Word> read_buf;
    std::vector<sim::Word> write_buf;
  };

  struct PendingDelta {
    sim::BlockAddr block = 0;
    sim::Word delta = 0;
  };

  [[nodiscard]] Bank& parity_bank(std::uint32_t group) noexcept {
    return banks_[cfg_.code.data_banks + group];
  }
  [[nodiscard]] bool parity_dead(std::uint32_t group) const noexcept {
    return dead_[cfg_.code.data_banks + group];
  }
  /// Dead bank whose group can never decode it (r = 0, dead parity, or a
  /// dead sub-group peer): no amount of waiting serves this word.
  [[nodiscard]] bool structurally_unserviceable(std::uint32_t word) const;
  [[nodiscard]] bool group_claimable(sim::Cycle now, std::uint32_t word) const;

  void check_faults(sim::Cycle now);
  void step_op(sim::Cycle now, InFlight& op);
  bool step_read_word(sim::Cycle now, InFlight& op, std::uint32_t word);
  bool step_write_word(sim::Cycle now, InFlight& op, std::uint32_t word);
  /// Claims the survivors + parity of `word`'s group and reconstructs the
  /// word; assumes group_claimable.  Reports the decode to the auditor.
  sim::Word decode_word(sim::Cycle now, sim::BlockAddr block,
                        std::uint32_t word);
  void stall(sim::Cycle now, InFlight& op);
  void advance(sim::Cycle now, InFlight& op);
  void finish(sim::Cycle now, InFlight& op, core::OpStatus status);
  void drain_logs(sim::Cycle now);
  void rebuild_parity(sim::BlockAddr block);
  void publish_wake();

  CodedConfig cfg_;
  BackingStore store_;  ///< words [0, D) data, [D, D+P) parity
  std::vector<Bank> banks_;
  std::vector<bool> dead_;
  std::vector<std::vector<std::uint32_t>> peers_;  ///< per data word
  std::vector<std::deque<PendingDelta>> logs_;     ///< per parity group
  std::uint64_t pending_total_ = 0;
  std::uint32_t log_capacity_ = 4;
  std::vector<std::optional<InFlight>> inflight_;
  core::ResultBox results_;
  OpToken next_token_ = 1;
  /// The memory's counters, with every id interned at construction.
  struct Counters : sim::CounterSet {
    sim::CounterId reads = intern("reads");
    sim::CounterId writes = intern("writes");
    sim::CounterId ops_completed = intern("ops_completed");
    sim::CounterId ops_aborted = intern("ops_aborted");
    sim::CounterId word_reads_direct = intern("word_reads_direct");
    sim::CounterId word_reads_decoded = intern("word_reads_decoded");
    sim::CounterId word_writes_direct = intern("word_writes_direct");
    sim::CounterId word_writes_decoded = intern("word_writes_decoded");
    sim::CounterId parity_updates = intern("parity_updates");
    sim::CounterId parity_skipped = intern("parity_skipped");
    sim::CounterId parity_deltas_logged = intern("parity_deltas_logged");
    sim::CounterId parity_deltas_coalesced = intern("parity_deltas_coalesced");
    sim::CounterId parity_deltas_orphaned = intern("parity_deltas_orphaned");
    sim::CounterId decode_bank_reads = intern("decode_bank_reads");
    sim::CounterId decode_mismatches = intern("decode_mismatches");
    sim::CounterId bank_stalls = intern("bank_stalls");
    sim::CounterId log_stalls = intern("log_stalls");
    sim::CounterId torn_parity_waits = intern("torn_parity_waits");
    sim::CounterId brownouts = intern("brownouts");
    sim::CounterId bank_failures = intern("bank_failures");
    sim::CounterId data_bank_failures = intern("data_bank_failures");
    sim::CounterId parity_bank_failures = intern("parity_bank_failures");
    sim::CounterId bank_failures_unmapped = intern("bank_failures_unmapped");
    sim::CounterId fault_aborts = intern("fault_aborts");
  };
  Counters counters_;
  std::uint32_t decode_fanout_max_ = 0;
  sim::DomainId domain_ = sim::kSharedDomain;
  sim::Component* ticker_ = nullptr;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
  const sim::FaultInjector* faults_ = nullptr;
  sim::Cycle fault_timeout_ = 0;
  bool was_paused_ = false;
};

}  // namespace cfm::mem::coded
