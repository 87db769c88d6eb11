// The CFM cache coherence protocol (§5.2) — cycle accurate.
//
// An invalidation-based write-back protocol built from three primitive
// block operations:
//
//   read            fetch a block; if a remote cache holds it dirty, the
//                   visit to that processor's coupled bank triggers the
//                   remote write-back and the read retries (Table 5.1).
//   read-invalidate fetch + obtain exclusive ownership: every remote
//                   *valid* copy is invalidated in-flight, bank by bank,
//                   with no broadcast bus and no acknowledgement messages;
//                   a remote *dirty* copy triggers a write-back first.
//   write-back      flush a dirty line to the banks.
//
// Every primitive tours all b banks (one per slot, the CFM block-access
// style), and bank i shares processor i's cache directory (Fig 5.1), so
// coherence actions happen as a side effect of the tour itself.
// Same-block races between primitives are resolved through the ATT with
// the Table 5.2 priorities: write-back > read-invalidate > read; the
// loser aborts its tour and retries (immediately after a write-back,
// after a short delay otherwise).
//
// Processor-side behaviour (Table 5.1): hits in Valid/Dirty are served
// locally in one cycle; a store needs ownership first; a victim that is
// dirty is written back before the fill.  Atomic read-modify-write =
// read-invalidate + local modify (with remote-triggered write-back
// disabled) + write-back (§5.3.1), which also yields test-and-set,
// fetch-and-add, swap and the multiple test-and-set of Fig 5.5.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cfm/at_space.hpp"
#include "cfm/att.hpp"
#include "cfm/block_engine.hpp"
#include "cfm/config.hpp"
#include "mem/module.hpp"
#include "sim/audit.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::cache {

class CfmCacheSystem {
 public:
  struct Params {
    core::CfmConfig mem = core::CfmConfig::make(4);
    std::uint32_t cache_lines = 64;
    /// Delay before retrying a primitive that lost to a read-invalidate
    /// (a write-back loss retries after 1 cycle; §5.2.4).
    std::uint32_t retry_delay = 2;
    /// Local modification time of an atomic read-modify-write.
    std::uint32_t modify_cycles = 1;
    /// Seed for the randomized retry back-off ("with or without delay",
    /// §5.2.3) — deterministic per seed, prevents retry phase-lock.
    std::uint64_t retry_seed = 0x5eedULL;
  };

  enum class ReqKind : std::uint8_t { Load, Store, Rmw };

  using ReqId = std::uint64_t;

  struct Outcome {
    ReqKind kind = ReqKind::Load;
    bool local_hit = false;          ///< served without any memory op
    bool remote_dirty = false;       ///< had to trigger a remote write-back
    sim::Cycle issued = 0;
    sim::Cycle completed = 0;
    std::uint32_t proto_retries = 0;
    std::vector<sim::Word> data;     ///< load: block; rmw: the OLD block
  };

  explicit CfmCacheSystem(const Params& params);

  [[nodiscard]] const core::CfmConfig& config() const noexcept { return cfg_; }
  [[nodiscard]] std::uint32_t processor_count() const noexcept {
    return cfg_.processors;
  }
  /// Words per block/cache line (uniform across the machine).
  [[nodiscard]] std::uint32_t block_words() const noexcept { return cfg_.banks; }

  /// True iff processor p can accept a new request.
  [[nodiscard]] bool processor_idle(sim::ProcessorId p) const;

  /// Weak-consistency quiescence: no request in flight and no pending
  /// write-back work for p (Condition 2.3 hooks; with one outstanding
  /// access per processor the ordering conditions hold by construction).
  [[nodiscard]] bool quiescent(sim::ProcessorId p) const;

  ReqId load(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset);
  ReqId store(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset,
              std::uint32_t word_index, sim::Word value);
  /// Atomic read-modify-write of the whole block (§5.3.1).
  ReqId rmw(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset,
            core::ModifyFn fn);

  /// Advances controllers and primitive operations one cycle.
  void tick(sim::Cycle now);

  std::optional<Outcome> take_result(ReqId id);
  [[nodiscard]] const Outcome* result(ReqId id) const;

  [[nodiscard]] LineState line_state(sim::ProcessorId p, sim::BlockAddr offset) const;
  [[nodiscard]] DirectCache& cache(sim::ProcessorId p) { return *caches_.at(p); }
  [[nodiscard]] std::vector<sim::Word> memory_block(sim::BlockAddr offset) const;
  void poke_memory(sim::BlockAddr offset, const std::vector<sim::Word>& words);

  [[nodiscard]] const sim::CounterSet& counters() const noexcept { return counters_; }

  /// Protocol invariant (§5.2.2): at most one Dirty copy of any block.
  [[nodiscard]] bool check_single_dirty_owner() const;

  /// Attaches the conflict auditor: bank probes plus the AT-space
  /// schedule and β checks over every protocol primitive's tour — the
  /// coherence layer must preserve conflict freedom (§5.2's premise).
  void set_audit(sim::ConflictAuditor& auditor);

 private:
  enum class Fate : std::uint8_t { InFlight, Done, RetryLater, RetryNow };

  struct ProtoOp {
    core::OpKind kind = core::OpKind::ProtoRead;
    sim::BlockAddr offset = 0;
    sim::ProcessorId proc = 0;
    sim::Cycle tour_start = 0;
    std::uint32_t progress = 0;
    bool bank0_passed = false;
    std::uint64_t id = 0;
    std::vector<sim::Word> buf;
    Fate fate = Fate::InFlight;
    sim::Cycle done_at = 0;  ///< Done is resolved only once data drained
  };

  enum class Stage : std::uint8_t {
    Idle,
    LocalHit,   ///< hit being served (1 cycle)
    EvictWb,    ///< dirty victim write-back before the fill
    ProtoOp,    ///< primitive in flight for the request
    RetryWait,  ///< lost a Table 5.2 race, waiting to retry
    Modify,     ///< rmw local modification (ownership held, wb locked)
    RmwWb,      ///< rmw final write-back
  };

  struct Request {
    ReqId id = 0;
    ReqKind kind = ReqKind::Load;
    sim::BlockAddr offset = 0;
    std::uint32_t word_index = 0;
    sim::Word value = 0;
    core::ModifyFn fn;
    sim::Cycle issued = 0;
    std::uint32_t retries = 0;
    bool remote_dirty = false;
    std::vector<sim::Word> old_block;  ///< rmw: pre-modification copy
  };

  struct Ctl {
    Stage stage = Stage::Idle;
    sim::Cycle stage_until = 0;
    std::optional<Request> req;
    std::optional<ProtoOp> proto;           ///< at most one per processor
    bool proto_is_remote_wb = false;        ///< current proto serves the queue
    std::deque<sim::BlockAddr> remote_wb_queue;
  };

  void accept(sim::Cycle now, sim::ProcessorId p, Request req);
  void controller_step(sim::Cycle now, sim::ProcessorId p);
  void start_primitive(sim::Cycle now, sim::ProcessorId p, core::OpKind kind,
                       sim::BlockAddr offset);
  void start_remote_wb_if_due(sim::Cycle now, sim::ProcessorId p);
  void begin_request_ops(sim::Cycle now, sim::ProcessorId p);
  void proto_step(sim::Cycle now, ProtoOp& op);
  struct PendingOp {
    core::OpKind kind;
    bool done;  ///< tour finished, retirement pending (ownership taken)
  };
  /// Outstanding exclusive primitive (read-invalidate / write-back) of
  /// processor q on `offset`, visible through the shared directory.
  [[nodiscard]] std::optional<PendingOp> pending_exclusive(
      sim::ProcessorId q, sim::BlockAddr offset) const;
  void trigger_remote_wb(sim::ProcessorId owner, sim::BlockAddr offset);
  void complete(sim::Cycle now, sim::ProcessorId p);
  sim::Word bank_access(sim::Cycle now, sim::BankId bank, mem::WordOp op,
                        sim::BlockAddr block, sim::Word value = 0);

  core::CfmConfig cfg_;
  Params params_;
  core::AtSpace at_;
  mem::Module module_;
  std::vector<core::Att> atts_;
  std::vector<std::unique_ptr<DirectCache>> caches_;
  std::vector<Ctl> ctls_;
  std::unordered_map<ReqId, Outcome> results_;
  /// The protocol's counters, with every id interned at construction.
  struct Counters : sim::CounterSet {
    sim::CounterId local_hits = intern("local_hits");
    sim::CounterId evict_wbs = intern("evict_wbs");
    sim::CounterId proto_reads = intern("proto_reads");
    sim::CounterId proto_read_invs = intern("proto_read_invs");
    sim::CounterId proto_write_backs = intern("proto_write_backs");
    sim::CounterId remote_wbs_served = intern("remote_wbs_served");
    sim::CounterId remote_wbs_triggered = intern("remote_wbs_triggered");
    sim::CounterId proto_retries = intern("proto_retries");
    sim::CounterId fill_squashes = intern("fill_squashes");
    sim::CounterId invalidations = intern("invalidations");
  };
  Counters counters_;
  sim::Rng retry_rng_{0x5eedULL};
  ReqId next_req_ = 1;
  std::uint64_t next_proto_ = 1;
  sim::ConflictAuditor* audit_ = nullptr;
  sim::ConflictAuditor::ScopeId audit_scope_ = 0;
};

}  // namespace cfm::cache
