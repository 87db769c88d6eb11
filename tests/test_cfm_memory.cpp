// Scenario tests for CfmMemory, mirroring the paper's Chapter 4 figures:
// same-address write races (Figs 4.1, 4.3, 4.4), read restarts (Fig 4.5),
// and swap interactions (Fig 4.6), plus exact block-access timing.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"

namespace {

using namespace cfm::core;
using cfm::sim::BlockAddr;
using cfm::sim::Cycle;
using cfm::sim::Word;

std::vector<Word> block_of(std::uint32_t banks, Word v) {
  return std::vector<Word>(banks, v);
}

/// Ticks until every listed op has a result or `limit` cycles pass.
void run_until_done(CfmMemory& mem, Cycle& t,
                    const std::vector<CfmMemory::OpToken>& ops,
                    Cycle limit = 10000) {
  const Cycle deadline = t + limit;
  while (t < deadline) {
    bool all = true;
    for (const auto op : ops) {
      if (mem.result(op) == nullptr) all = false;
    }
    if (all) return;
    mem.tick(t++);
  }
  FAIL() << "ops did not complete";
}

TEST(CfmMemory, ReadTakesExactlyBeta) {
  for (const std::uint32_t c : {1u, 2u, 4u}) {
    CfmMemory mem(CfmConfig::make(4, c));
    const auto beta = mem.config().block_access_time();
    Cycle t = 0;
    const auto op = mem.issue(0, 1, BlockOpKind::Read, 5);
    run_until_done(mem, t, {op});
    const auto r = mem.take_result(op);
    EXPECT_EQ(r->status, OpStatus::Completed);
    EXPECT_EQ(r->completed - r->issued, beta) << "c=" << c;
  }
}

TEST(CfmMemory, NonStallStartAtAnySlot) {
  // §3.1.1: "a block access can start at any time slot" with the same
  // latency — no phase alignment stalls (unlike Monarch/OMP).
  // Each access is issued at the current slot, once the clock reaches the
  // next slot of the wanted phase of the b-slot schedule period.
  CfmMemory mem(CfmConfig::make(8, 1));
  const auto beta = mem.config().block_access_time();
  const auto b = mem.config().banks;
  Cycle t = 0;
  for (Cycle phase = 0; phase < b; ++phase) {
    while (t % b != phase) mem.tick(t++);
    const auto op = mem.issue(t, 0, BlockOpKind::Read, phase);
    run_until_done(mem, t, {op});
    const auto r = mem.take_result(op);
    EXPECT_EQ(r->issued % b, phase);
    EXPECT_EQ(r->completed - r->issued, beta) << "start phase " << phase;
  }
}

TEST(CfmMemory, WriteReadRoundtrip) {
  CfmMemory mem(CfmConfig::make(4, 1));
  Cycle t = 0;
  const std::vector<Word> data{10, 20, 30, 40};
  const auto w = mem.issue(0, 0, BlockOpKind::Write, 9, data);
  run_until_done(mem, t, {w});
  EXPECT_EQ(mem.take_result(w)->status, OpStatus::Completed);
  const auto r = mem.issue(t, 1, BlockOpKind::Read, 9);
  run_until_done(mem, t, {r});
  EXPECT_EQ(mem.take_result(r)->data, data);
}

TEST(CfmMemory, ConcurrentDistinctBlocksAllComplete) {
  // The headline property: four processors, four concurrent block ops,
  // zero conflicts, all complete in exactly beta.
  CfmMemory mem(CfmConfig::make(4, 1));
  const auto beta = mem.config().block_access_time();
  Cycle t = 0;
  std::vector<CfmMemory::OpToken> ops;
  for (std::uint32_t p = 0; p < 4; ++p) {
    ops.push_back(mem.issue(0, p, BlockOpKind::Read, 100 + p));
  }
  run_until_done(mem, t, ops);
  for (const auto op : ops) {
    EXPECT_EQ(mem.take_result(op)->completed, beta);
  }
}

TEST(CfmMemory, Fig41SimultaneousWritesOneWinsCleanly) {
  // Two simultaneous same-address writes: without tracking this corrupts
  // (Fig 4.1); with the ATT exactly one completes and the block holds
  // only its data.
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::LatestWins);
  Cycle t = 0;
  const auto a = mem.issue(0, 0, BlockOpKind::Write, 7, block_of(4, 1));
  const auto b = mem.issue(0, 1, BlockOpKind::Write, 7, block_of(4, 2));
  run_until_done(mem, t, {a, b});
  const auto ra = *mem.take_result(a);
  const auto rb = *mem.take_result(b);
  // Processor 0 touches bank 0 first -> it has priority.
  EXPECT_EQ(ra.status, OpStatus::Completed);
  EXPECT_EQ(rb.status, OpStatus::Aborted);
  EXPECT_EQ(mem.peek_block(7), block_of(4, 1));
}

TEST(CfmMemory, Fig43LaterWriteWinsUnderLatestWins) {
  // Write a (slot 0) vs write b (slot 1): a aborts at b's first bank,
  // b completes and owns the whole block.
  CfmMemory mem(CfmConfig::make(8, 1), ConsistencyPolicy::LatestWins);
  Cycle t = 0;
  const auto a = mem.issue(0, 1, BlockOpKind::Write, 7, block_of(8, 0xA));
  mem.tick(t++);
  const auto b = mem.issue(1, 3, BlockOpKind::Write, 7, block_of(8, 0xB));
  run_until_done(mem, t, {a, b});
  EXPECT_EQ(mem.take_result(a)->status, OpStatus::Aborted);
  EXPECT_EQ(mem.take_result(b)->status, OpStatus::Completed);
  EXPECT_EQ(mem.peek_block(7), block_of(8, 0xB));
}

TEST(CfmMemory, Fig44SimultaneousEightBanks) {
  // The paper's Fig 4.4: simultaneous writes starting at banks 1 and 5 of
  // an 8-bank module; the one reaching bank 0 first (processor 5's op,
  // which starts at bank 5 and reaches bank 0 after 3 slots) survives.
  CfmMemory mem(CfmConfig::make(8, 1), ConsistencyPolicy::LatestWins);
  Cycle t = 0;
  const auto c = mem.issue(0, 1, BlockOpKind::Write, 7, block_of(8, 0xC));
  const auto d = mem.issue(0, 5, BlockOpKind::Write, 7, block_of(8, 0xD));
  run_until_done(mem, t, {c, d});
  EXPECT_EQ(mem.take_result(c)->status, OpStatus::Aborted);
  EXPECT_EQ(mem.take_result(d)->status, OpStatus::Completed);
  EXPECT_EQ(mem.peek_block(7), block_of(8, 0xD));
}

TEST(CfmMemory, StaggeredWritesWithExpiredEntryBothComplete) {
  // If the second write starts after the first's ATT entry could matter
  // (>= b slots later), both complete and the later data stands.
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::LatestWins);
  Cycle t = 0;
  const auto a = mem.issue(0, 0, BlockOpKind::Write, 7, block_of(4, 1));
  while (t < 6) mem.tick(t++);
  const auto b = mem.issue(6, 0, BlockOpKind::Write, 7, block_of(4, 2));
  run_until_done(mem, t, {a, b});
  EXPECT_EQ(mem.take_result(a)->status, OpStatus::Completed);
  EXPECT_EQ(mem.take_result(b)->status, OpStatus::Completed);
  EXPECT_EQ(mem.peek_block(7), block_of(4, 2));
}

TEST(CfmMemory, Fig45ReadRestartsAndReturnsNewVersion) {
  CfmMemory mem(CfmConfig::make(8, 1), ConsistencyPolicy::LatestWins);
  mem.poke_block(5, block_of(8, 0));
  Cycle t = 0;
  const auto e = mem.issue(0, 1, BlockOpKind::Read, 5);
  const auto f = mem.issue(0, 3, BlockOpKind::Write, 5, block_of(8, 9));
  run_until_done(mem, t, {e, f});
  const auto re = *mem.take_result(e);
  EXPECT_EQ(re.status, OpStatus::Completed);
  EXPECT_GE(re.restarts, 1u);
  EXPECT_EQ(re.data, block_of(8, 9)) << "restarted read sees one version";
}

TEST(CfmMemory, ReadAheadOfWriteSeesOldVersion) {
  // A read that passes the writer's start bank before the write begins
  // reads entirely old data — also consistent.
  CfmMemory mem(CfmConfig::make(8, 1), ConsistencyPolicy::LatestWins);
  mem.poke_block(5, block_of(8, 1));
  Cycle t = 0;
  const auto e = mem.issue(0, 3, BlockOpKind::Read, 5);  // starts at bank 3
  mem.tick(t++);
  // Write starts at bank 3 too (proc 2 at slot 1): the read has passed it.
  const auto f = mem.issue(1, 2, BlockOpKind::Write, 5, block_of(8, 9));
  run_until_done(mem, t, {e, f});
  const auto re = *mem.take_result(e);
  EXPECT_EQ(re.restarts, 0u);
  EXPECT_EQ(re.data, block_of(8, 1));
}

TEST(CfmMemory, SwapReturnsOldAndStoresNew) {
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::EarliestWins);
  mem.poke_block(3, std::vector<Word>{1, 2, 3, 4});
  Cycle t = 0;
  const auto s = mem.issue(0, 2, BlockOpKind::Swap, 3, block_of(4, 7));
  run_until_done(mem, t, {s});
  const auto r = *mem.take_result(s);
  EXPECT_EQ(r.status, OpStatus::Completed);
  EXPECT_EQ(r.data, (std::vector<Word>{1, 2, 3, 4}));
  EXPECT_EQ(mem.peek_block(3), block_of(4, 7));
  // Timing: read tour + write tour = 2b + c - 1 total from issue.
  EXPECT_EQ(r.completed - r.issued, 2u * 4u);
}

TEST(CfmMemory, SwapRequiresEarliestWins) {
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::LatestWins);
  EXPECT_THROW(mem.issue(0, 0, BlockOpKind::Swap, 3, block_of(4, 7)),
               std::logic_error);
}

TEST(CfmMemory, Fig46SwapSwapSerializes) {
  // Two concurrent swaps on one block: result equals one of the two
  // sequential orders — one sees the initial value, the other sees the
  // first one's data.
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::EarliestWins);
  mem.poke_block(3, block_of(4, 0));
  Cycle t = 0;
  const auto s0 = mem.issue(0, 0, BlockOpKind::Swap, 3, block_of(4, 100));
  const auto s1 = mem.issue(0, 1, BlockOpKind::Swap, 3, block_of(4, 200));
  run_until_done(mem, t, {s0, s1});
  const auto r0 = *mem.take_result(s0);
  const auto r1 = *mem.take_result(s1);
  ASSERT_EQ(r0.status, OpStatus::Completed);
  ASSERT_EQ(r1.status, OpStatus::Completed);
  const auto final = mem.peek_block(3);
  const bool order_01 = r0.data == block_of(4, 0) &&
                        r1.data == block_of(4, 100) &&
                        final == block_of(4, 200);
  const bool order_10 = r1.data == block_of(4, 0) &&
                        r0.data == block_of(4, 200) &&
                        final == block_of(4, 100);
  EXPECT_TRUE(order_01 || order_10)
      << "swaps must appear in some sequential order";
}

TEST(CfmMemory, Fig46WriteVsSwapWriteRestartsAndLands) {
  // A plain write that meets a swap restarts; its value must land after
  // the swap completes, so the final block is the plain write's data and
  // the swap still observed a consistent pre-image.
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::EarliestWins);
  mem.poke_block(3, block_of(4, 0));
  Cycle t = 0;
  const auto s = mem.issue(0, 0, BlockOpKind::Swap, 3, block_of(4, 50));
  mem.tick(t++);
  mem.tick(t++);
  mem.tick(t++);
  mem.tick(t++);
  // Swap is now in its write phase; issue a plain write.
  const auto w = mem.issue(t, 2, BlockOpKind::Write, 3, block_of(4, 77));
  run_until_done(mem, t, {s, w});
  EXPECT_EQ(mem.take_result(s)->status, OpStatus::Completed);
  const auto rw = *mem.take_result(w);
  EXPECT_EQ(rw.status, OpStatus::Completed);
  EXPECT_EQ(mem.peek_block(3), block_of(4, 77));
}

TEST(CfmMemory, RmwAppliesModifyFunction) {
  CfmMemory mem(CfmConfig::make(4, 1), ConsistencyPolicy::EarliestWins);
  mem.poke_block(3, std::vector<Word>{5, 6, 7, 8});
  Cycle t = 0;
  const auto op = mem.issue(0, 0, BlockOpKind::Swap, 3, {},
                            [](const std::vector<Word>& in) {
                              auto out = in;
                              for (auto& w : out) w *= 10;
                              return out;
                            });
  run_until_done(mem, t, {op});
  EXPECT_EQ(mem.take_result(op)->data, (std::vector<Word>{5, 6, 7, 8}));
  EXPECT_EQ(mem.peek_block(3), (std::vector<Word>{50, 60, 70, 80}));
}

TEST(CfmMemory, IssueWhileBusyThrows) {
  CfmMemory mem(CfmConfig::make(4, 1));
  (void)mem.issue(0, 0, BlockOpKind::Read, 1);
  EXPECT_FALSE(mem.idle(0));
  EXPECT_THROW(mem.issue(0, 0, BlockOpKind::Read, 2), std::logic_error);
}

TEST(CfmMemory, IssueBeforeNextUntickedSlotThrows) {
  // Slot 2's bank has already been visited once tick(2) ran: an op
  // issued there would start its tour off the AT-space schedule.
  CfmMemory mem(CfmConfig::make(4, 1));
  for (Cycle t = 0; t < 3; ++t) mem.tick(t);
  try {
    (void)mem.issue(2, 0, BlockOpKind::Read, 1);
    FAIL() << "issue in the past was accepted";
  } catch (const std::logic_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("cycle 2"), std::string::npos) << what;
    EXPECT_NE(what.find("slot 3"), std::string::npos) << what;
  }
  EXPECT_TRUE(mem.idle(0));
  // The slot after the last tick is accepted and completes in beta.
  const auto op = mem.issue(3, 0, BlockOpKind::Read, 1);
  Cycle t = 3;
  run_until_done(mem, t, {op});
  EXPECT_EQ(mem.take_result(op)->completed, 3 + mem.config().block_access_time());
}

TEST(CfmMemory, ProtocolKindsRejected) {
  CfmMemory mem(CfmConfig::make(4, 1));
  EXPECT_THROW(mem.issue(0, 0, BlockOpKind::ProtoRead, 1), std::logic_error);
}

TEST(CfmMemory, WriteDataSizeValidated) {
  CfmMemory mem(CfmConfig::make(4, 1));
  EXPECT_THROW(mem.issue(0, 0, BlockOpKind::Write, 1, block_of(3, 1)),
               std::invalid_argument);
}

// ---- ResultBox: the published-results store both block memories share --

BlockOpResult result_at(Cycle completed) {
  BlockOpResult r;
  r.status = OpStatus::Completed;
  r.completed = completed;
  r.data = {static_cast<Word>(completed)};
  return r;
}

bool holds(const ResultBox& box, cfm::sim::ProcessorId p) {
  return ((box.holders()[p / 64] >> (p % 64)) & 1) != 0;
}

TEST(ResultBox, OneProcessorsResultsAreTakenByTokenInAnyOrder) {
  ResultBox box(4);
  box.put(/*token=*/7, /*p=*/2, result_at(10));
  box.put(/*token=*/8, /*p=*/2, result_at(20));
  const auto second = box.take(8);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->completed, 20u);
  EXPECT_EQ(second->data, std::vector<Word>{20});
  const auto first = box.take(7);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->completed, 10u);
  EXPECT_FALSE(box.take(7).has_value());
  EXPECT_FALSE(box.take(8).has_value());
}

TEST(ResultBox, FindDoesNotConsume) {
  ResultBox box(4);
  box.put(3, 1, result_at(5));
  EXPECT_EQ(box.find(4), nullptr);
  for (int i = 0; i < 2; ++i) {
    const auto* r = box.find(3);
    ASSERT_NE(r, nullptr);
    EXPECT_EQ(r->completed, 5u);
  }
  EXPECT_TRUE(holds(box, 1));
  EXPECT_TRUE(box.take(3).has_value());
  EXPECT_EQ(box.find(3), nullptr);
}

TEST(ResultBox, HolderBitClearsWithTheProcessorsLastResult) {
  ResultBox box(70);  // two holder words
  box.put(1, 65, result_at(1));
  box.put(2, 65, result_at(2));
  box.put(3, 0, result_at(3));
  ASSERT_EQ(box.holders().size(), 2u);
  EXPECT_TRUE(holds(box, 65));
  EXPECT_TRUE(holds(box, 0));
  EXPECT_TRUE(box.take(1).has_value());
  EXPECT_TRUE(holds(box, 65)) << "token 2 is still untaken";
  EXPECT_TRUE(box.take(2).has_value());
  EXPECT_FALSE(holds(box, 65));
  EXPECT_TRUE(holds(box, 0));
  EXPECT_EQ(box.holders()[1], 0u);
}

TEST(ResultBox, EmptyTracksTheCount) {
  ResultBox box(2);
  EXPECT_TRUE(box.empty());
  box.put(1, 0, result_at(1));
  box.put(2, 1, result_at(2));
  box.put(3, 1, result_at(3));
  EXPECT_FALSE(box.empty());
  EXPECT_FALSE(box.take(9).has_value());  // unknown tokens change nothing
  EXPECT_TRUE(box.take(2).has_value());
  EXPECT_TRUE(box.take(1).has_value());
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(box.take(3).has_value());
  EXPECT_TRUE(box.empty());
  // A drained box takes new results as before.
  box.put(4, 0, result_at(4));
  EXPECT_FALSE(box.empty());
  EXPECT_TRUE(holds(box, 0));
}

}  // namespace
