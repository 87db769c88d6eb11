// Sparse block-granular backing store.
//
// Holds the architectural contents of a memory module: a map from block
// offset to the block's words.  Unwritten blocks read as zero, so large
// address spaces (the paper discusses >4 GB shared spaces, §3.4.3) cost
// nothing until touched.
#pragma once

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "mem/address.hpp"
#include "sim/types.hpp"

namespace cfm::mem {

class BackingStore {
 public:
  /// `words_per_block` is the number of memory banks b (one word per bank,
  /// §3.1.1: "each set of memory locations with the same offset in all the
  /// memory banks ... is defined as a block").
  explicit BackingStore(std::uint32_t words_per_block);

  [[nodiscard]] std::uint32_t words_per_block() const noexcept {
    return words_per_block_;
  }

  /// Reads one word; unwritten locations are zero.
  [[nodiscard]] sim::Word read_word(sim::BlockAddr block,
                                    std::uint32_t word_index) const;

  /// Writes one word, materializing the block if needed.
  void write_word(sim::BlockAddr block, std::uint32_t word_index, sim::Word value);

  /// The block's words as one stable row, materializing it (zeros) if
  /// needed.  Blocks are never erased and never resized, so the pointer
  /// stays valid for the store's lifetime; batched tours resolve it once
  /// per op instead of hashing the offset for every word.
  [[nodiscard]] sim::Word* row(sim::BlockAddr block);

  /// Row of a written block, or nullptr while the block has never been
  /// written (it reads as zero and stays unmaterialized).
  [[nodiscard]] sim::Word* find_row(sim::BlockAddr block);
  [[nodiscard]] const sim::Word* find_row(sim::BlockAddr block) const;

  /// Whole-block convenience accessors (used by tests and by functional —
  /// as opposed to cycle-accurate — paths).  write_block throws
  /// std::invalid_argument unless `words` holds exactly one block, so a
  /// row never changes size.
  [[nodiscard]] std::vector<sim::Word> read_block(sim::BlockAddr block) const;
  void write_block(sim::BlockAddr block, std::span<const sim::Word> words);

  [[nodiscard]] std::size_t touched_blocks() const noexcept { return blocks_.size(); }

 private:
  std::uint32_t words_per_block_;
  std::unordered_map<sim::BlockAddr, std::vector<sim::Word>> blocks_;
};

}  // namespace cfm::mem
