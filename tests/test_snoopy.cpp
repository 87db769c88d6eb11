// Tests for the snoopy MSI bus baseline (§5.1.1).
#include <gtest/gtest.h>

#include "cache/snoopy.hpp"
#include "cache/sync_ops.hpp"

namespace {

using namespace cfm::cache;
using cfm::sim::Cycle;
using cfm::sim::Word;

SnoopyBus::Params small() {
  SnoopyBus::Params p;
  p.processors = 4;
  p.block_words = 4;
  p.block_cycles = 4;
  return p;
}

SnoopyBus::Outcome run_one(SnoopyBus& sys, Cycle& t, SnoopyBus::ReqId id) {
  for (int i = 0; i < 5000; ++i) {
    sys.tick(t);
    ++t;
    if (auto r = sys.take_result(id)) return *r;
  }
  ADD_FAILURE() << "request timed out";
  return {};
}

TEST(Snoopy, LoadMissFillsValid) {
  SnoopyBus sys(small());
  sys.poke_memory(9, {1, 2, 3, 4});
  Cycle t = 0;
  const auto r = run_one(sys, t, sys.load(t, 0, 9));
  EXPECT_EQ(r.data, (std::vector<Word>{1, 2, 3, 4}));
  EXPECT_EQ(sys.line_state(0, 9), LineState::Valid);
}

TEST(Snoopy, LoadHitIsLocal) {
  SnoopyBus sys(small());
  Cycle t = 0;
  (void)run_one(sys, t, sys.load(t, 0, 9));
  const auto r = run_one(sys, t, sys.load(t, 0, 9));
  EXPECT_TRUE(r.local_hit);
  EXPECT_EQ(r.completed - r.issued, 1u);
}

TEST(Snoopy, StoreInvalidatesSharers) {
  SnoopyBus sys(small());
  Cycle t = 0;
  (void)run_one(sys, t, sys.load(t, 0, 9));
  (void)run_one(sys, t, sys.load(t, 2, 9));
  (void)run_one(sys, t, sys.store(t, 1, 9, 0, 7));
  EXPECT_EQ(sys.line_state(0, 9), LineState::Invalid);
  EXPECT_EQ(sys.line_state(2, 9), LineState::Invalid);
  EXPECT_EQ(sys.line_state(1, 9), LineState::Dirty);
  EXPECT_EQ(sys.counters().get("invalidations"), 2u);
}

TEST(Snoopy, DirtyOwnerFlushesOnRemoteRead) {
  SnoopyBus sys(small());
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 1, 9, 0, 7));
  const auto r = run_one(sys, t, sys.load(t, 3, 9));
  EXPECT_EQ(r.data.at(0), 7u);
  EXPECT_EQ(sys.line_state(1, 9), LineState::Valid);
  EXPECT_EQ(sys.counters().get("snoop_flushes"), 1u);
}

TEST(Snoopy, BusSerializesTransactions) {
  SnoopyBus sys(small());
  Cycle t = 0;
  const auto a = sys.load(t, 0, 1);
  const auto b = sys.load(t, 1, 2);
  const auto c = sys.load(t, 2, 3);
  Cycle done_a = 0;
  Cycle done_b = 0;
  Cycle done_c = 0;
  for (int i = 0; i < 200; ++i) {
    sys.tick(t);
    ++t;
    if (auto r = sys.take_result(a)) done_a = r->completed;
    if (auto r = sys.take_result(b)) done_b = r->completed;
    if (auto r = sys.take_result(c)) done_c = r->completed;
    if (done_a && done_b && done_c) break;
  }
  // Even to *different* blocks, transactions serialize on the one bus —
  // exactly what the CFM interconnect avoids.
  EXPECT_LT(done_a, done_b);
  EXPECT_LT(done_b, done_c);
  EXPECT_GE(done_c - done_a, 2u * small().block_cycles);
}

TEST(Snoopy, RmwAtomicCounter) {
  SnoopyBus sys(small());
  Cycle t = 0;
  std::vector<SnoopyBus::ReqId> live(4, 0);
  std::uint64_t done = 0;
  const auto inc = [](const std::vector<Word>& in) {
    auto out = in;
    out[0] += 1;
    return out;
  };
  for (; t < 4000; ++t) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      if (live[p] != 0 && sys.take_result(live[p])) {
        live[p] = 0;
        ++done;
      }
      if (live[p] == 0 && done + 4 < 60 && sys.processor_idle(p)) {
        live[p] = sys.rmw(t, p, 5, inc);
      }
    }
    sys.tick(t);
  }
  for (int i = 0; i < 200; ++i) sys.tick(t++);
  for (auto& id : live) {
    if (id != 0 && sys.take_result(id)) ++done;
  }
  EXPECT_EQ(sys.memory_block(5).at(0), done);
}

TEST(Snoopy, BusyLockClientWorksOnTheBus) {
  SnoopyBus sys(small());
  std::vector<BusyLockClient<SnoopyBus>> clients;
  for (std::uint32_t p = 0; p < 4; ++p) clients.emplace_back(p, 7);
  for (auto& c : clients) c.acquire();
  std::uint64_t acq = 0;
  for (Cycle t = 0; t < 8000; ++t) {
    int holders = 0;
    for (auto& c : clients) {
      if (c.holding()) {
        ++holders;
        ++acq;
        c.release();
      }
    }
    ASSERT_LE(holders, 1);
    for (auto& c : clients) {
      c.tick(t, sys);
      if (c.state() == BusyLockClient<SnoopyBus>::State::Idle) c.acquire();
    }
    sys.tick(t);
  }
  EXPECT_GT(acq, 20u);
  EXPECT_GT(sys.bus_busy(), 0u);
}

}  // namespace
