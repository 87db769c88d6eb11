// Snoopy write-invalidate (MSI) baseline on a shared bus (§5.1.1).
//
// Everything the CFM protocol gets for free — broadcast state checks,
// contention-free transfers — costs bus bandwidth here: every miss, every
// ownership upgrade and every flush is a bus transaction, and the single
// bus serializes them all.  Under lock contention the bus queue *is* the
// hot spot.  Used by the comparison benches to show what the CFM cache
// protocol eliminates.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "cache/cache.hpp"
#include "cfm/block_engine.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::cache {

class SnoopyBus {
 public:
  struct Params {
    std::uint32_t processors = 4;
    std::uint32_t cache_lines = 64;
    std::uint32_t block_words = 8;
    std::uint32_t block_cycles = 9;  ///< bus occupancy of a block transfer
    std::uint32_t inv_cycles = 1;    ///< bus occupancy of an invalidate-only
    std::uint32_t modify_cycles = 1;
  };

  using ReqId = std::uint64_t;

  struct Outcome {
    bool local_hit = false;
    sim::Cycle issued = 0;
    sim::Cycle completed = 0;
    std::vector<sim::Word> data;  ///< load: block; rmw: old block
  };

  explicit SnoopyBus(const Params& params);

  [[nodiscard]] std::uint32_t block_words() const noexcept {
    return params_.block_words;
  }
  [[nodiscard]] DirectCache& cache(sim::ProcessorId p) { return *caches_.at(p); }
  [[nodiscard]] bool processor_idle(sim::ProcessorId p) const;
  ReqId load(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset);
  ReqId store(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset,
              std::uint32_t word_index, sim::Word value);
  ReqId rmw(sim::Cycle now, sim::ProcessorId p, sim::BlockAddr offset,
            core::ModifyFn fn);
  void tick(sim::Cycle now);
  std::optional<Outcome> take_result(ReqId id);

  [[nodiscard]] LineState line_state(sim::ProcessorId p, sim::BlockAddr offset) const;
  [[nodiscard]] std::vector<sim::Word> memory_block(sim::BlockAddr offset) const;
  void poke_memory(sim::BlockAddr offset, std::vector<sim::Word> words);

  /// Bus pressure metrics — the contention CFM does not have.  bus_busy()
  /// counts the cycles the bus was held.
  [[nodiscard]] std::uint64_t bus_busy() const noexcept { return bus_busy_; }
  [[nodiscard]] const sim::CounterSet& counters() const noexcept { return counters_; }

 private:
  enum class TxnKind : std::uint8_t { BusRd, BusRdX, BusUpgr, BusWb };
  struct Txn {
    TxnKind kind = TxnKind::BusRd;
    sim::ProcessorId proc = 0;
    sim::BlockAddr offset = 0;
  };
  enum class Stage : std::uint8_t { Idle, LocalHit, WaitBus, Modify, WaitWb };
  struct Request {
    ReqId id = 0;
    std::uint8_t kind = 0;  // 0 load, 1 store, 2 rmw
    sim::BlockAddr offset = 0;
    std::uint32_t word_index = 0;
    sim::Word value = 0;
    core::ModifyFn fn;
    sim::Cycle issued = 0;
    std::vector<sim::Word> old_block;
    bool local_hit = false;
  };
  struct Ctl {
    Stage stage = Stage::Idle;
    sim::Cycle stage_until = 0;
    std::optional<Request> req;
  };

  void enqueue(TxnKind kind, sim::ProcessorId p, sim::BlockAddr offset);
  void apply_txn(sim::Cycle now, const Txn& txn);
  void complete(sim::Cycle now, sim::ProcessorId p);

  Params params_;
  std::vector<std::unique_ptr<DirectCache>> caches_;
  std::vector<Ctl> ctls_;
  std::unordered_map<sim::BlockAddr, std::vector<sim::Word>> memory_;
  std::deque<Txn> bus_queue_;
  std::optional<Txn> bus_current_;
  sim::Cycle bus_until_ = 0;
  std::uint64_t bus_busy_ = 0;
  std::unordered_map<ReqId, Outcome> results_;
  /// The protocol's counters, with every id interned at construction.
  struct Counters : sim::CounterSet {
    sim::CounterId bus_txns = intern("bus_txns");
    sim::CounterId snoop_flushes = intern("snoop_flushes");
    sim::CounterId invalidations = intern("invalidations");
    sim::CounterId evict_wbs = intern("evict_wbs");
    sim::CounterId rmw_reacquires = intern("rmw_reacquires");
  };
  Counters counters_;
  ReqId next_req_ = 1;
};

}  // namespace cfm::cache
