// Tests for the two-level hierarchical CFM (§5.4): access-class latencies
// (Table 5.5 / 5.6 machines), Table 5.3 state coupling, and coherence
// across clusters.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cache/hierarchical.hpp"

namespace {

using namespace cfm::cache;
using cfm::sim::Cycle;

HierarchicalCfm::Outcome run_one(HierarchicalCfm& sys, Cycle& t,
                                 HierarchicalCfm::ReqId id,
                                 Cycle limit = 100000) {
  const Cycle deadline = t + limit;
  while (t < deadline) {
    sys.tick(t);
    ++t;
    if (auto r = sys.take_result(id)) return *r;
  }
  ADD_FAILURE() << "request timed out";
  return {};
}

TEST(Hierarchical, Table55MachineShape) {
  HierarchicalCfm sys({});  // 4 clusters x 4 procs, c=2, 16-byte lines
  EXPECT_EQ(sys.processor_count(), 16u);
  EXPECT_EQ(sys.beta_cluster(), 9u);
  EXPECT_EQ(sys.beta_global(), 9u);
  EXPECT_EQ(sys.cluster_of(0), 0u);
  EXPECT_EQ(sys.cluster_of(7), 1u);
  EXPECT_EQ(sys.local_index(7), 3u);
}

TEST(Hierarchical, GlobalReadIs3Beta) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  const auto r = run_one(sys, t, sys.read(t, 0, 42));
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::Global);
  EXPECT_EQ(r.completed - r.issued, 27u);  // Table 5.5: 27 cycles
}

TEST(Hierarchical, LocalClusterReadIsBeta) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  (void)run_one(sys, t, sys.read(t, 0, 42));  // brings the line into L2
  const auto r = run_one(sys, t, sys.read(t, 1, 42));  // same cluster
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::LocalCluster);
  EXPECT_EQ(r.completed - r.issued, 9u);  // Table 5.5: 9 cycles
}

TEST(Hierarchical, L1HitIsOneCycle) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  (void)run_one(sys, t, sys.read(t, 0, 42));
  const auto r = run_one(sys, t, sys.read(t, 0, 42));
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::L1Hit);
  EXPECT_EQ(r.completed - r.issued, 1u);
}

TEST(Hierarchical, DirtyRemoteReadCostsTheWriteBackChain) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  (void)run_one(sys, t, sys.write(t, 0, 42, 0, 99));  // cluster 0 owns dirty
  ASSERT_EQ(sys.l1_state(0, 42), LineState::Dirty);
  const auto r = run_one(sys, t, sys.read(t, 8, 42));  // cluster 2 reads
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::DirtyRemote);
  // Paper: 63 (7 phases of beta); our accounting: 6 phases = 54.
  EXPECT_GE(r.completed - r.issued, 54u);
  EXPECT_LE(r.completed - r.issued, 63u);
}

TEST(Hierarchical, Table56MachineLatencies) {
  // 1024 processors, 32 clusters, 128-byte lines, c=2 -> beta = 65.
  HierarchicalCfm::Params p;
  p.clusters = 32;
  p.procs_per_cluster = 32;
  p.bank_cycle = 2;
  p.word_bits = 16;  // 64 banks x 2 bytes = 128-byte lines
  HierarchicalCfm sys(p);
  EXPECT_EQ(sys.processor_count(), 1024u);
  EXPECT_EQ(sys.beta_cluster(), 65u);
  Cycle t = 0;
  const auto global = run_one(sys, t, sys.read(t, 0, 7));
  EXPECT_EQ(global.completed - global.issued, 195u);  // Table 5.6: 195
  const auto local = run_one(sys, t, sys.read(t, 1, 7));
  EXPECT_EQ(local.completed - local.issued, 65u);     // Table 5.6: 65
}

TEST(Hierarchical, WritePropagatesOwnershipAcrossClusters) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  (void)run_one(sys, t, sys.write(t, 0, 42, 0, 1));
  EXPECT_EQ(sys.l2_state(0, 42), LineState::Dirty);
  // A write from another cluster steals global ownership.
  const auto r = run_one(sys, t, sys.write(t, 12, 42, 1, 2));
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::DirtyRemote);
  EXPECT_EQ(sys.l2_state(3, 42), LineState::Dirty);
  EXPECT_NE(sys.l2_state(0, 42), LineState::Dirty);
  EXPECT_EQ(sys.l1_state(0, 42), LineState::Invalid);
  EXPECT_GE(r.invalidations, 1u);
  // The stolen line carries the first write's data plus the second's.
  const auto rd = run_one(sys, t, sys.read(t, 13, 42));
  (void)rd;
  EXPECT_TRUE(sys.check_state_coupling());
}

TEST(Hierarchical, ReadAfterRemoteWriteSeesData) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  (void)run_one(sys, t, sys.write(t, 0, 42, 2, 123));
  const auto r = run_one(sys, t, sys.read(t, 8, 42));
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::DirtyRemote);
  // The reader's L1 now holds the block with word 2 == 123.
  EXPECT_EQ(sys.l1_state(8, 42), LineState::Valid);
  EXPECT_TRUE(sys.check_state_coupling());
}

TEST(Hierarchical, StateCouplingInvariantUnderMixedTraffic) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  std::vector<HierarchicalCfm::ReqId> live(sys.processor_count(), 0);
  std::uint64_t issued = 0;
  std::uint64_t seed = 12345;
  for (; t < 20000; ++t) {
    for (std::uint32_t p = 0; p < sys.processor_count(); ++p) {
      if (live[p] != 0 && sys.take_result(live[p])) live[p] = 0;
      if (live[p] == 0 && sys.processor_idle(p) && issued < 300) {
        seed = seed * 6364136223846793005ull + 1442695040888963407ull;
        const auto roll = (seed >> 33) % 10;
        const auto block = (seed >> 20) % 5;
        if (roll < 6) {
          live[p] = sys.read(t, p, block);
        } else {
          live[p] = sys.write(t, p, block, 0, t);
        }
        ++issued;
      }
    }
    sys.tick(t);
    if (t % 128 == 0) {
      ASSERT_TRUE(sys.check_state_coupling()) << "Table 5.3 violated";
    }
  }
  EXPECT_TRUE(sys.check_state_coupling());
  EXPECT_EQ(issued, 300u);
}

TEST(Hierarchical, VictimWriteBackOnL1Conflict) {
  HierarchicalCfm::Params p;
  p.l1_lines = 2;  // force direct-mapped conflicts
  HierarchicalCfm sys(p);
  Cycle t = 0;
  (void)run_one(sys, t, sys.write(t, 0, 2, 0, 5));  // dirty in slot 0
  (void)run_one(sys, t, sys.read(t, 0, 4));         // 4 mod 2 == 0: evict
  EXPECT_GE(sys.counters().get("victim_wbs"), 1u);
  EXPECT_TRUE(sys.check_state_coupling());
}

// Out-of-range arguments are refused before any side effect: the
// processor stays idle and no block lock is left held, so the machine
// keeps serving the same block afterwards.
TEST(Hierarchical, WritePastTheBlockIsRejectedUpFront) {
  HierarchicalCfm sys({});  // 8-word blocks
  Cycle t = 0;
  try {
    (void)sys.write(t, 0, 42, /*word_index=*/99, 7);
    ADD_FAILURE() << "write past the block was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("99"), std::string::npos) << e.what();
  }
  EXPECT_TRUE(sys.processor_idle(0));
  for (int i = 0; i < 64; ++i) sys.tick(t++);  // nothing was left pending
  EXPECT_TRUE(sys.processor_idle(0));
  const auto w = run_one(sys, t, sys.write(t, 0, 42, 7, 5));
  EXPECT_EQ(w.cls, HierarchicalCfm::AccessClass::Global);
  const auto r = run_one(sys, t, sys.read(t, 4, 42));
  EXPECT_EQ(r.cls, HierarchicalCfm::AccessClass::DirtyRemote);
}

// Each processor has one result slot: until its result is taken, the
// processor is busy and a new request on it is refused by name.
TEST(Hierarchical, IssueOverAnUntakenResultThrowsNamingTheProcessor) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  const auto id = sys.read(t, 5, 42);
  const auto busy_message = [&] {
    try {
      (void)sys.write(t, 5, 43, 0, 1);
    } catch (const std::logic_error& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  EXPECT_NE(busy_message().find("processor 5"), std::string::npos)
      << busy_message();
  while (t < 100) sys.tick(t++);  // a global read retires in 27 cycles
  EXPECT_FALSE(sys.processor_idle(5)) << "the result is not taken yet";
  const auto untaken = busy_message();
  EXPECT_NE(untaken.find("processor 5"), std::string::npos) << untaken;
  EXPECT_THROW((void)sys.read(t, 5, 42), std::logic_error);
  ASSERT_TRUE(sys.take_result(id).has_value());
  EXPECT_TRUE(sys.processor_idle(5));
  EXPECT_EQ(run_one(sys, t, sys.read(t, 5, 42)).cls,
            HierarchicalCfm::AccessClass::L1Hit);
}

TEST(Hierarchical, TakenOrUnknownIdsReturnNothing) {
  HierarchicalCfm sys({});
  Cycle t = 0;
  EXPECT_FALSE(sys.take_result(0).has_value());
  EXPECT_FALSE(sys.take_result(12345).has_value());
  const auto id = sys.read(t, 3, 42);
  EXPECT_FALSE(sys.take_result(id).has_value()) << "still in flight";
  (void)run_one(sys, t, id);
  EXPECT_FALSE(sys.take_result(id).has_value()) << "taken already";
  EXPECT_FALSE(sys.take_result_of(3).has_value());
  // A later request on the processor does not revive the old id.
  const auto next = sys.read(t, 3, 42);
  for (int i = 0; i < 4; ++i) sys.tick(t++);
  EXPECT_FALSE(sys.take_result(id).has_value());
  const auto r = sys.take_result_of(3);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->cls, HierarchicalCfm::AccessClass::L1Hit);
  EXPECT_FALSE(sys.take_result(next).has_value());
}

TEST(Hierarchical, CompletionHookReceivesTheRetiringProcessor) {
  HierarchicalCfm sys({});
  std::vector<std::pair<Cycle, cfm::sim::ProcessorId>> retired;
  sys.set_completion_hook([&](Cycle now, cfm::sim::ProcessorId p) {
    retired.emplace_back(now, p);
  });
  Cycle t = 0;
  const auto a = sys.read(t, 9, 42);   // global read, 27 cycles
  const auto b = sys.read(t, 2, 100);  // another block, another cluster
  std::optional<HierarchicalCfm::Outcome> ra;
  std::optional<HierarchicalCfm::Outcome> rb;
  for (; t < 1000 && !(ra && rb); ++t) {
    sys.tick(t);
    if (!ra) ra = sys.take_result(a);
    if (!rb) rb = sys.take_result(b);
  }
  ASSERT_TRUE(ra && rb);
  std::sort(retired.begin(), retired.end(),
            [](const auto& x, const auto& y) { return x.second < y.second; });
  const std::vector<std::pair<Cycle, cfm::sim::ProcessorId>> expected{
      {rb->completed, 2}, {ra->completed, 9}};
  EXPECT_EQ(retired, expected);
}

TEST(Hierarchical, ProcessorOutOfRangeIsRejected) {
  HierarchicalCfm sys({});  // 16 processors
  const auto message = [&](auto&& call) {
    try {
      call();
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto read_msg = message([&] { (void)sys.read(0, 16, 1); });
  EXPECT_NE(read_msg.find("16"), std::string::npos) << read_msg;
  const auto write_msg = message([&] { (void)sys.write(0, 40, 1, 0, 1); });
  EXPECT_NE(write_msg.find("40"), std::string::npos) << write_msg;
  EXPECT_EQ(sys.counters().get("l1_hits"), 0u);
}

}  // namespace
