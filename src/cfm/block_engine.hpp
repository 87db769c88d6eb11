// Block-operation state machine types shared by CfmMemory (Ch. 4 data
// operations) and the cache protocol layer (Ch. 5 primitives).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <unordered_map>
#include <vector>

#include "cfm/att.hpp"
#include "sim/types.hpp"

namespace cfm::core {

/// User-visible operation kinds.  Swap bundles a read phase and a write
/// phase that execute back-to-back on the same block (§4.2.1); a modify
/// callback between the phases generalizes it to read-modify-write.
enum class BlockOpKind : std::uint8_t {
  Read,
  Write,
  Swap,
  ProtoRead,
  ProtoReadInv,
  ProtoWriteBack,
};

enum class OpStatus : std::uint8_t {
  InFlight,
  Completed,
  Aborted,   ///< write lost to a higher-priority same-address write
  Rejected,  ///< cache-protocol op told to retry later (Table 5.2)
};

/// Priority policy for same-address write conflicts.
///   LatestWins   — §4.1 plain consistency: the latest issued write
///                  completes, earlier ones abort.
///   EarliestWins — §4.2 atomic-operation support: swaps restart when they
///                  meet earlier writes, plain writes defer to swap writes;
///                  plain-vs-plain keeps the §4.1 ordering (see DESIGN.md).
///   NoTracking   — ablation: the ATT machinery disabled.  Same-address
///                  races then corrupt blocks exactly as Fig 4.1 warns;
///                  exists only to quantify what the ATT buys.
enum class ConsistencyPolicy : std::uint8_t {
  LatestWins,
  EarliestWins,
  NoTracking,
};

/// Outcome of one block operation.
struct BlockOpResult {
  OpStatus status = OpStatus::InFlight;
  sim::Cycle issued = 0;          ///< original issue slot
  sim::Cycle completed = 0;       ///< first cycle the result is available
  std::uint32_t restarts = 0;     ///< read restarts / swap restarts
  std::vector<sim::Word> data;    ///< block read (old value, for swaps)
};

/// Results a block memory has published and its drivers have not taken
/// yet, keyed by op token, plus which processors hold one.  A port
/// driver walks holders() instead of polling take_result for every busy
/// port (DESIGN.md §13).
class ResultBox {
 public:
  using Token = std::uint64_t;

  explicit ResultBox(std::uint32_t processors)
      : held_(processors, 0), holders_((processors + 63) / 64, 0) {}

  [[nodiscard]] bool empty() const noexcept { return results_.empty(); }

  void put(Token token, sim::ProcessorId p, BlockOpResult result) {
    results_.emplace(token, Entry{std::move(result), p});
    if (held_[p]++ == 0) holders_[p / 64] |= std::uint64_t{1} << (p % 64);
  }

  [[nodiscard]] const BlockOpResult* find(Token token) const {
    const auto it = results_.find(token);
    return it == results_.end() ? nullptr : &it->second.result;
  }

  std::optional<BlockOpResult> take(Token token) {
    const auto it = results_.find(token);
    if (it == results_.end()) return std::nullopt;
    const sim::ProcessorId p = it->second.proc;
    std::optional<BlockOpResult> out(std::move(it->second.result));
    results_.erase(it);
    if (--held_[p] == 0) holders_[p / 64] &= ~(std::uint64_t{1} << (p % 64));
    return out;
  }

  /// Bit p % 64 of word p / 64 is set iff processor p holds an untaken
  /// result.
  [[nodiscard]] std::span<const std::uint64_t> holders() const noexcept {
    return holders_;
  }

 private:
  struct Entry {
    BlockOpResult result;
    sim::ProcessorId proc = 0;
  };
  std::unordered_map<Token, Entry> results_;
  std::vector<std::uint32_t> held_;  ///< untaken results per processor
  std::vector<std::uint64_t> holders_;
};

/// Callback producing the write-phase block of a read-modify-write from
/// the block read in the read phase.
using ModifyFn =
    std::function<std::vector<sim::Word>(const std::vector<sim::Word>&)>;

}  // namespace cfm::core
