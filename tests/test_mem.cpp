// Unit tests for the memory substrate: backing store, banks, modules, and
// the conventional contended baseline.
#include <gtest/gtest.h>

#include <stdexcept>
#include <vector>

#include "mem/backing_store.hpp"
#include "mem/bank.hpp"
#include "mem/conventional.hpp"
#include "mem/module.hpp"

namespace {

using namespace cfm;
using namespace cfm::mem;

TEST(BackingStore, UnwrittenReadsZero) {
  BackingStore store(4);
  EXPECT_EQ(store.read_word(99, 0), 0u);
  EXPECT_EQ(store.read_block(99), (std::vector<sim::Word>{0, 0, 0, 0}));
  EXPECT_EQ(store.touched_blocks(), 0u);
}

TEST(BackingStore, WordWriteReadRoundtrip) {
  BackingStore store(4);
  store.write_word(5, 2, 42);
  EXPECT_EQ(store.read_word(5, 2), 42u);
  EXPECT_EQ(store.read_word(5, 1), 0u);
  EXPECT_EQ(store.touched_blocks(), 1u);
}

TEST(BackingStore, BlockWriteReadRoundtrip) {
  BackingStore store(3);
  const std::vector<sim::Word> data{7, 8, 9};
  store.write_block(2, data);
  EXPECT_EQ(store.read_block(2), data);
  EXPECT_EQ(store.read_word(2, 1), 8u);
}

TEST(BackingStore, SparseAcrossLargeAddressSpace) {
  BackingStore store(2);
  store.write_word(1ull << 40, 0, 1);
  store.write_word(1ull << 50, 1, 2);
  EXPECT_EQ(store.read_word(1ull << 40, 0), 1u);
  EXPECT_EQ(store.read_word(1ull << 50, 1), 2u);
  EXPECT_EQ(store.touched_blocks(), 2u);
}

TEST(BackingStore, RowsStayPutAsTheStoreGrows) {
  // Block memories keep an op's row pointer across its whole tour, while
  // other ops materialize new blocks: growing the store must move no row.
  BackingStore store(32);
  sim::Word* first = store.row(7);
  first[3] = 42;
  for (sim::BlockAddr b = 100; b < 5000; ++b) store.row(b)[0] = b;
  EXPECT_EQ(store.row(7), first);
  EXPECT_EQ(store.find_row(7), first);
  EXPECT_EQ(store.read_word(7, 3), 42u);
  EXPECT_EQ(store.read_word(4999, 0), 4999u);
  EXPECT_EQ(store.read_word(4999, 1), 0u);  // new rows start zeroed
  EXPECT_EQ(store.find_row(6), nullptr);
  EXPECT_EQ(store.touched_blocks(), 4901u);
}

TEST(BackingStore, WriteBlockRejectsAWrongSizedBlock) {
  BackingStore store(4);
  EXPECT_THROW(store.write_block(1, std::vector<sim::Word>{1, 2, 3}),
               std::invalid_argument);
  EXPECT_THROW(store.write_block(1, std::vector<sim::Word>(5, 0)),
               std::invalid_argument);
  EXPECT_EQ(store.touched_blocks(), 0u);
}

TEST(Bank, AccessOccupiesForCycleTime) {
  BackingStore store(4);
  Bank bank(1, 3, store);
  EXPECT_FALSE(bank.busy(0));
  bank.access(0, WordOp::Write, 7, 99);
  EXPECT_TRUE(bank.busy(0));
  EXPECT_TRUE(bank.busy(2));
  EXPECT_FALSE(bank.busy(3));
  EXPECT_EQ(bank.access(3, WordOp::Read, 7), 99u);
}

TEST(Bank, ReadsOwnWordIndex) {
  BackingStore store(4);
  store.write_block(3, std::vector<cfm::sim::Word>{10, 11, 12, 13});
  Bank b0(0, 1, store);
  Bank b2(2, 1, store);
  EXPECT_EQ(b0.access(0, WordOp::Read, 3), 10u);
  EXPECT_EQ(b2.access(0, WordOp::Read, 3), 12u);
}

TEST(Bank, AccessAsKeepsWordSlicesAndOccupancyContinuous) {
  // One physical bank serving two roles inside one window: standing in
  // for a dead bank's word slice (remap path, access_as) and serving its
  // own slice (decode/survivor path, access).  The occupancy state must
  // be continuous across both — it is one physical bank — while the two
  // word slices stay fully separate.
  BackingStore store(8);
  store.write_block(
      9, std::vector<cfm::sim::Word>{100, 101, 102, 103, 104, 105, 106, 107});
  Bank bank(6, 2, store);

  // Remap path: the spare inherits dead bank 3's slice...
  EXPECT_EQ(bank.access_as(0, WordOp::Read, 9, 3), 103u);
  // ...and the access occupies the *physical* bank, not slice 3.
  EXPECT_TRUE(bank.busy(1));
  EXPECT_FALSE(bank.busy(2));

  // Survivor path in the same window: the bank's own slice is untouched
  // by the remap traffic and still serves word 6.
  EXPECT_EQ(bank.access(2, WordOp::Read, 9), 106u);

  // A remapped write lands in the inherited slice only.
  bank.access_as(4, WordOp::Write, 9, 3, 77);
  EXPECT_EQ(store.read_word(9, 3), 77u);
  EXPECT_EQ(store.read_word(9, 6), 106u);
}

TEST(Module, BankCountAndSharedStore) {
  Module m(0, 8, 2);
  EXPECT_EQ(m.bank_count(), 8u);
  m.bank(3).access(0, WordOp::Write, 5, 77);
  EXPECT_EQ(m.store().read_word(5, 3), 77u);
}

TEST(Conventional, GrantsWhenIdle) {
  ConventionalMemory mem(4, 17);
  EXPECT_EQ(mem.try_start(2, 0), 17u);
  EXPECT_EQ(mem.accesses_started(), 1u);
  EXPECT_EQ(mem.conflicts(), 0u);
}

TEST(Conventional, ConflictsWhileBusy) {
  ConventionalMemory mem(4, 17);
  ASSERT_NE(mem.try_start(2, 0), cfm::sim::kNeverCycle);
  EXPECT_EQ(mem.try_start(2, 5), cfm::sim::kNeverCycle);
  EXPECT_EQ(mem.conflicts(), 1u);
  // Free again exactly at cycle 17.
  EXPECT_TRUE(mem.busy(2, 16));
  EXPECT_FALSE(mem.busy(2, 17));
  EXPECT_EQ(mem.try_start(2, 17), 34u);
}

TEST(Conventional, ModulesAreIndependent) {
  ConventionalMemory mem(4, 17);
  ASSERT_NE(mem.try_start(0, 0), cfm::sim::kNeverCycle);
  EXPECT_NE(mem.try_start(1, 0), cfm::sim::kNeverCycle);
  EXPECT_NE(mem.try_start(2, 0), cfm::sim::kNeverCycle);
  EXPECT_EQ(mem.conflicts(), 0u);
}

}  // namespace
