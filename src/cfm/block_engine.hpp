// Block-operation state machine types shared by CfmMemory (Ch. 4 data
// operations) and the cache protocol layer (Ch. 5 primitives).
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <utility>
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
/// yet, plus which processors hold one.  A port driver walks holders()
/// instead of polling take_result for every busy port (DESIGN.md §13).
///
/// Each processor keeps its own list of (token, result) entries, and a
/// list's capacity outlives the results in it, so publishing and taking
/// a result allocates nothing once every list has grown to its peak.  A
/// processor may hold several untaken results (a cache controller issues
/// on borrowed ports and takes by token in any order), so a lookup walks
/// the holders' lists in ascending processor order; a driver that takes
/// its ports' results in that order finds each one first.
class ResultBox {
 public:
  using Token = std::uint64_t;

  explicit ResultBox(std::uint32_t processors)
      : lists_(processors), holders_((processors + 63) / 64, 0) {}

  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  void put(Token token, sim::ProcessorId p, BlockOpResult result) {
    auto& list = lists_[p];
    if (list.empty()) holders_[p / 64] |= std::uint64_t{1} << (p % 64);
    list.push_back(Entry{token, std::move(result)});
    ++count_;
  }

  [[nodiscard]] const BlockOpResult* find(Token token) const {
    const auto [p, i] = locate(token);
    return i == kMissing ? nullptr : &lists_[p][i].result;
  }

  std::optional<BlockOpResult> take(Token token) {
    const auto [p, i] = locate(token);
    if (i == kMissing) return std::nullopt;
    auto& list = lists_[p];
    std::optional<BlockOpResult> out(std::move(list[i].result));
    // Entry order within a list carries no meaning: fill the hole from
    // the back.
    if (i + 1 != list.size()) list[i] = std::move(list.back());
    list.pop_back();
    --count_;
    if (list.empty()) holders_[p / 64] &= ~(std::uint64_t{1} << (p % 64));
    return out;
  }

  /// Bit p % 64 of word p / 64 is set iff processor p holds an untaken
  /// result.
  [[nodiscard]] std::span<const std::uint64_t> holders() const noexcept {
    return holders_;
  }

 private:
  struct Entry {
    Token token = 0;
    BlockOpResult result;
  };
  static constexpr std::size_t kMissing = SIZE_MAX;

  /// (processor, index in its list) of `token`'s entry; index kMissing
  /// when no processor holds it.
  [[nodiscard]] std::pair<sim::ProcessorId, std::size_t> locate(
      Token token) const {
    for (std::size_t w = 0; w < holders_.size(); ++w) {
      for (auto bits = holders_[w]; bits != 0; bits &= bits - 1) {
        const auto p =
            static_cast<sim::ProcessorId>(w * 64 + std::countr_zero(bits));
        const auto& list = lists_[p];
        for (std::size_t i = 0; i < list.size(); ++i) {
          if (list[i].token == token) return {p, i};
        }
      }
    }
    return {0, kMissing};
  }

  std::vector<std::vector<Entry>> lists_;  ///< untaken results per processor
  std::vector<std::uint64_t> holders_;
  std::size_t count_ = 0;
};

/// Callback producing the write-phase block of a read-modify-write from
/// the block read in the read phase.
using ModifyFn =
    std::function<std::vector<sim::Word>(const std::vector<sim::Word>&)>;

}  // namespace cfm::core
