// Tests for the CFM cache coherence protocol (§5.2): every Table 5.1 row,
// broadcast-free invalidation, remote write-back triggering, Table 5.2
// races, randomized coherence properties, and conflict freedom under the
// runtime auditor.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cache/cfm_protocol.hpp"
#include "sim/audit.hpp"
#include "sim/rng.hpp"

namespace {

using namespace cfm::cache;
using cfm::sim::Cycle;
using cfm::sim::Word;

CfmCacheSystem::Params params_for(std::uint32_t n, std::uint32_t c = 1) {
  CfmCacheSystem::Params p;
  p.mem = cfm::core::CfmConfig::make(n, c);
  return p;
}

CfmCacheSystem::Outcome run_one(CfmCacheSystem& sys, Cycle& t,
                                CfmCacheSystem::ReqId id, Cycle limit = 5000) {
  const Cycle deadline = t + limit;
  while (t < deadline) {
    sys.tick(t);
    ++t;
    if (auto r = sys.take_result(id)) return *r;
  }
  ADD_FAILURE() << "request timed out";
  return {};
}

void settle(CfmCacheSystem& sys, Cycle& t, Cycle cycles = 50) {
  for (Cycle i = 0; i < cycles; ++i) sys.tick(t++);
}

TEST(CfmProtocol, ReadMissFillsValid) {
  CfmCacheSystem sys(params_for(4));
  sys.poke_memory(10, {1, 2, 3, 4});
  Cycle t = 0;
  const auto r = run_one(sys, t, sys.load(t, 0, 10));
  EXPECT_FALSE(r.local_hit);
  EXPECT_EQ(r.data, (std::vector<Word>{1, 2, 3, 4}));
  EXPECT_EQ(sys.line_state(0, 10), LineState::Valid);
  // Latency == beta (+1 resolution cycle).
  EXPECT_LE(r.completed - r.issued, sys.config().block_access_time() + 1);
}

TEST(CfmProtocol, ReadHitNoMemoryAccess) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.load(t, 0, 10));
  const auto before = sys.counters().get("proto_reads");
  const auto r = run_one(sys, t, sys.load(t, 0, 10));
  EXPECT_TRUE(r.local_hit);
  EXPECT_EQ(r.completed - r.issued, 1u);
  EXPECT_EQ(sys.counters().get("proto_reads"), before);  // Table 5.1 row 1
}

TEST(CfmProtocol, SharedCopiesCoexist) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.load(t, 0, 10));
  (void)run_one(sys, t, sys.load(t, 1, 10));
  (void)run_one(sys, t, sys.load(t, 2, 10));
  EXPECT_EQ(sys.line_state(0, 10), LineState::Valid);
  EXPECT_EQ(sys.line_state(1, 10), LineState::Valid);
  EXPECT_EQ(sys.line_state(2, 10), LineState::Valid);
}

TEST(CfmProtocol, StoreInvalidatesRemoteCopiesWithoutAck) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.load(t, 0, 10));
  (void)run_one(sys, t, sys.load(t, 2, 10));
  const auto r = run_one(sys, t, sys.store(t, 1, 10, 0, 77));
  EXPECT_FALSE(r.local_hit);
  EXPECT_EQ(sys.line_state(0, 10), LineState::Invalid);
  EXPECT_EQ(sys.line_state(2, 10), LineState::Invalid);
  EXPECT_EQ(sys.line_state(1, 10), LineState::Dirty);
  EXPECT_EQ(sys.counters().get("invalidations"), 2u);
}

TEST(CfmProtocol, WriteHitDirtyIsLocal) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 1, 10, 0, 77));
  const auto before = sys.counters().get("proto_read_invs");
  const auto r = run_one(sys, t, sys.store(t, 1, 10, 1, 88));
  EXPECT_TRUE(r.local_hit);  // Table 5.1: write hit on dirty, no access
  EXPECT_EQ(sys.counters().get("proto_read_invs"), before);
}

TEST(CfmProtocol, WriteHitValidUpgradesViaReadInvalidate) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.load(t, 1, 10));
  const auto before = sys.counters().get("proto_read_invs");
  (void)run_one(sys, t, sys.store(t, 1, 10, 0, 5));
  EXPECT_EQ(sys.counters().get("proto_read_invs"), before + 1);
  EXPECT_EQ(sys.line_state(1, 10), LineState::Dirty);
}

TEST(CfmProtocol, ReadMissOnRemoteDirtyTriggersWriteBack) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 1, 10, 0, 77));
  ASSERT_EQ(sys.line_state(1, 10), LineState::Dirty);
  const auto r = run_one(sys, t, sys.load(t, 3, 10));
  EXPECT_TRUE(r.remote_dirty);
  EXPECT_GE(r.proto_retries, 1u);
  EXPECT_EQ(r.data.at(0), 77u);  // got the updated data
  EXPECT_EQ(sys.line_state(1, 10), LineState::Valid);  // owner downgraded
  EXPECT_EQ(sys.memory_block(10).at(0), 77u);          // memory updated
  EXPECT_GE(sys.counters().get("remote_wbs_served"), 1u);
}

TEST(CfmProtocol, RequestAcceptedDuringRemoteWriteBackWaitsForIt) {
  // The owner accepts a request of its own while its remote write-back
  // is still touring.  The write-back keeps the controller's primitive
  // slot and lands once; the request's fill starts after it.
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 1, 10, 0, 42));
  const auto reader = sys.load(t, 0, 10);
  while (sys.counters().get("remote_wbs_served") == 0) {
    ASSERT_LT(t, 1000u) << "remote write-back never started";
    sys.tick(t++);
  }
  ASSERT_EQ(sys.line_state(1, 10), LineState::Dirty);  // still touring
  const auto own = sys.load(t, 1, 20);
  const auto own_result = run_one(sys, t, own);
  EXPECT_FALSE(own_result.local_hit);
  const auto read = run_one(sys, t, reader);
  EXPECT_EQ(read.data.at(0), 42u);
  EXPECT_EQ(sys.memory_block(10).at(0), 42u);
  EXPECT_EQ(sys.counters().get("remote_wbs_served"), 1u);
  EXPECT_EQ(sys.counters().get("proto_write_backs"), 1u);
  EXPECT_TRUE(sys.check_single_dirty_owner());
}

TEST(CfmProtocol, StoreHitDuringOwnRemoteWriteBackIsNotLost) {
  // The owner stores to the very block its remote write-back is flushing.
  // The write-back carries the old data, so the store must wait for it
  // and re-acquire ownership; a local hit would leave the new value in a
  // line the landing write-back turns Valid over stale memory.
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 1, 10, 0, 42));
  const auto reader = sys.load(t, 0, 10);
  while (sys.counters().get("remote_wbs_served") == 0) {
    ASSERT_LT(t, 1000u) << "remote write-back never started";
    sys.tick(t++);
  }
  ASSERT_EQ(sys.line_state(1, 10), LineState::Dirty);  // still touring
  const auto store = run_one(sys, t, sys.store(t, 1, 10, 0, 99));
  EXPECT_FALSE(store.local_hit);
  (void)run_one(sys, t, reader);
  EXPECT_EQ(run_one(sys, t, sys.load(t, 0, 10)).data.at(0), 99u);
  EXPECT_TRUE(sys.check_single_dirty_owner());
}

TEST(CfmProtocol, WriteMissOnRemoteDirtyStealsOwnership) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 1, 10, 0, 77));
  const auto r = run_one(sys, t, sys.store(t, 2, 10, 1, 88));
  EXPECT_TRUE(r.remote_dirty);
  settle(sys, t);
  EXPECT_EQ(sys.line_state(2, 10), LineState::Dirty);
  EXPECT_NE(sys.line_state(1, 10), LineState::Dirty);
  EXPECT_TRUE(sys.check_single_dirty_owner());
}

TEST(CfmProtocol, DirtyVictimWrittenBackBeforeFill) {
  CfmCacheSystem::Params p = params_for(4);
  p.cache_lines = 2;  // tiny cache to force conflicts
  CfmCacheSystem sys(p);
  Cycle t = 0;
  (void)run_one(sys, t, sys.store(t, 0, 2, 0, 55));   // slot 0, dirty
  (void)run_one(sys, t, sys.load(t, 0, 4));           // 4 mod 2 == 0: evict
  EXPECT_EQ(sys.counters().get("evict_wbs"), 1u);
  EXPECT_EQ(sys.memory_block(2).at(0), 55u);  // flushed before replacement
  EXPECT_EQ(sys.line_state(0, 4), LineState::Valid);
}

TEST(CfmProtocol, RmwIsAtomicAgainstConcurrentRmw) {
  CfmCacheSystem sys(params_for(8));
  Cycle t = 0;
  const auto inc = [](const std::vector<Word>& in) {
    auto out = in;
    out[0] += 1;
    return out;
  };
  std::vector<CfmCacheSystem::ReqId> live(8, 0);
  std::uint64_t done = 0;
  for (; t < 4000; ++t) {
    for (std::uint32_t p = 0; p < 8; ++p) {
      if (live[p] != 0) {
        if (sys.take_result(live[p])) {
          live[p] = 0;
          ++done;
        }
      }
      if (live[p] == 0 && done + 8 < 200 && sys.processor_idle(p)) {
        live[p] = sys.rmw(t, p, 20, inc);
      }
    }
    sys.tick(t);
  }
  // Drain stragglers.
  for (Cycle extra = 0; extra < 500; ++extra) sys.tick(t++);
  for (auto& id : live) {
    if (id != 0 && sys.take_result(id)) ++done;
  }
  EXPECT_EQ(sys.memory_block(20).at(0), done) << "lost increments";
  EXPECT_TRUE(sys.check_single_dirty_owner());
}

TEST(CfmProtocol, CompetingReadInvalidatesExactlyOneWinsEachRound) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  const auto a = sys.store(t, 0, 9, 0, 1);
  const auto b = sys.store(t, 1, 9, 0, 2);
  const auto c = sys.store(t, 2, 9, 0, 3);
  Cycle limit = 3000;
  std::map<CfmCacheSystem::ReqId, bool> got{{a, false}, {b, false}, {c, false}};
  while (t < limit) {
    sys.tick(t);
    ++t;
    for (auto& [id, done] : got) {
      if (!done && sys.take_result(id)) {
        done = true;
      }
    }
    EXPECT_TRUE(sys.check_single_dirty_owner());
    if (got[a] && got[b] && got[c]) break;
  }
  EXPECT_TRUE(got[a] && got[b] && got[c]);
  // The last writer's value is in some cache/memory; all serialized.
  settle(sys, t);
  EXPECT_TRUE(sys.check_single_dirty_owner());
}

TEST(CfmProtocol, QuiescenceForWeakConsistency) {
  CfmCacheSystem sys(params_for(4));
  Cycle t = 0;
  EXPECT_TRUE(sys.quiescent(0));
  const auto id = sys.load(t, 0, 10);
  EXPECT_FALSE(sys.quiescent(0));
  (void)run_one(sys, t, id);
  EXPECT_TRUE(sys.quiescent(0));
}

TEST(CfmProtocol, RandomizedCoherence) {
  // Random loads/stores/rmws across processors and a small block set:
  //  * at most one dirty owner per block at all times,
  //  * every load returns the most recent completed store's value for
  //    single-writer blocks (checked on block 0 with writer 0 only).
  CfmCacheSystem sys(params_for(8));
  cfm::sim::Rng rng(2024);
  Cycle t = 0;
  std::vector<CfmCacheSystem::ReqId> live(8, 0);
  std::vector<std::uint8_t> kind(8, 0);
  std::vector<std::uint64_t> target(8, 0);
  Word last_written_block0 = 0;
  std::map<CfmCacheSystem::ReqId, Word> store_vals;

  for (; t < 6000; ++t) {
    for (std::uint32_t p = 0; p < 8; ++p) {
      if (live[p] != 0) {
        if (auto r = sys.take_result(live[p])) {
          if (kind[p] == 0 && p != 0 && target[p] == 0) {
            // Loads of block 0 by non-writers: value must be one of the
            // values ever written (monotone counter: <= last written).
            if (!r->data.empty()) {
              EXPECT_LE(r->data[0], last_written_block0);
            }
          }
          if (kind[p] == 1 && store_vals.count(live[p])) {
            last_written_block0 =
                std::max(last_written_block0, store_vals[live[p]]);
          }
          live[p] = 0;
        }
      }
      if (live[p] == 0 && sys.processor_idle(p) && rng.chance(0.3)) {
        const auto block = rng.below(4);
        if (p == 0 && block == 0 && rng.chance(0.5)) {
          const Word v = last_written_block0 + 1;
          live[p] = sys.store(t, p, 0, 0, v);
          store_vals[live[p]] = v;
          kind[p] = 1;
          target[p] = 0;
        } else if (rng.chance(0.7)) {
          live[p] = sys.load(t, p, block);
          kind[p] = 0;
          target[p] = block;
        } else if (block != 0) {
          live[p] = sys.store(t, p, block, 0, t);
          kind[p] = 2;
          target[p] = block;
        } else {
          live[p] = sys.load(t, p, block);
          kind[p] = 0;
          target[p] = block;
        }
      }
    }
    sys.tick(t);
    if (t % 64 == 0) {
      ASSERT_TRUE(sys.check_single_dirty_owner());
    }
  }
}

// §5.2's premise: coherence rides the bank tours, so it must keep the
// CFM's conflict freedom.  Random load/store/rmw traffic from every
// processor over a few shared blocks runs under the auditor (bank probes,
// AT-space schedule of every primitive's tour, β timing) at c = 1 and
// c = 2, and no check may fail.
TEST(CfmProtocol, AuditedRandomTrafficHasNoViolations) {
  constexpr std::uint32_t kProcs = 8;
  for (const std::uint32_t c : {1u, 2u}) {
    SCOPED_TRACE(c);
    CfmCacheSystem sys(params_for(kProcs, c));
    cfm::sim::ConflictAuditor auditor;
    sys.set_audit(auditor);
    cfm::sim::Rng rng(11 + c);
    std::vector<CfmCacheSystem::ReqId> live(kProcs, 0);
    for (Cycle t = 0; t < 20000; ++t) {
      for (std::uint32_t p = 0; p < kProcs; ++p) {
        if (live[p] != 0 && sys.take_result(live[p])) live[p] = 0;
        if (live[p] != 0 || !rng.chance(0.3)) continue;
        const auto block = rng.below(6);
        switch (rng.below(3)) {
          case 0:
            live[p] = sys.load(t, p, block);
            break;
          case 1:
            live[p] = sys.store(t, p, block, 0, t);
            break;
          default:
            live[p] = sys.rmw(t, p, block, [](const std::vector<Word>& w) {
              auto out = w;
              ++out[0];
              return out;
            });
            break;
        }
      }
      sys.tick(t);
    }
    EXPECT_GT(auditor.checks_performed(), 0u);
    EXPECT_EQ(auditor.violations(), 0u);
  }
}

}  // namespace
