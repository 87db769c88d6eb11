#include "mem/backing_store.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <string>

namespace cfm::mem {

BackingStore::BackingStore(std::uint32_t words_per_block)
    : words_per_block_(words_per_block) {
  assert(words_per_block_ > 0);
}

sim::Word BackingStore::read_word(sim::BlockAddr block,
                                  std::uint32_t word_index) const {
  assert(word_index < words_per_block_);
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return 0;
  return it->second[word_index];
}

void BackingStore::write_word(sim::BlockAddr block, std::uint32_t word_index,
                              sim::Word value) {
  assert(word_index < words_per_block_);
  auto [it, inserted] = blocks_.try_emplace(block);
  if (inserted) it->second.assign(words_per_block_, 0);
  it->second[word_index] = value;
}

sim::Word* BackingStore::row(sim::BlockAddr block) {
  auto [it, inserted] = blocks_.try_emplace(block);
  if (inserted) it->second.assign(words_per_block_, 0);
  return it->second.data();
}

sim::Word* BackingStore::find_row(sim::BlockAddr block) {
  const auto it = blocks_.find(block);
  return it == blocks_.end() ? nullptr : it->second.data();
}

const sim::Word* BackingStore::find_row(sim::BlockAddr block) const {
  const auto it = blocks_.find(block);
  return it == blocks_.end() ? nullptr : it->second.data();
}

std::vector<sim::Word> BackingStore::read_block(sim::BlockAddr block) const {
  const auto it = blocks_.find(block);
  if (it == blocks_.end()) return std::vector<sim::Word>(words_per_block_, 0);
  return it->second;
}

void BackingStore::write_block(sim::BlockAddr block,
                               std::span<const sim::Word> words) {
  if (words.size() != words_per_block_) {
    throw std::invalid_argument(
        "backing store: a block has " + std::to_string(words_per_block_) +
        " words, not " + std::to_string(words.size()));
  }
  std::copy(words.begin(), words.end(), row(block));
}

}  // namespace cfm::mem
