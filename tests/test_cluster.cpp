// Tests for multi-cluster CFM with free-slot remote access (Fig 3.12).
#include <gtest/gtest.h>

#include "cfm/cluster.hpp"
#include "sim/fault.hpp"

namespace {

using namespace cfm::core;
using cfm::sim::Cycle;
using cfm::sim::Word;

ClusterConfig small_config() {
  ClusterConfig cfg;
  cfg.local_processors = 3;
  cfg.total_slots = 4;
  cfg.bank_cycle = 1;
  cfg.link_latency = 4;
  return cfg;
}

void run(ClusterSystem& sys, Cycle& t, Cycle cycles) {
  for (Cycle i = 0; i < cycles; ++i) {
    sys.tick(t);
    for (std::uint32_t c = 0; c < sys.cluster_count(); ++c) {
      sys.memory(c).tick(t);
    }
    ++t;
  }
}

TEST(ClusterSystem, RequiresAFreeSlot) {
  ClusterConfig cfg = small_config();
  cfg.local_processors = 4;  // no free slot left
  EXPECT_THROW(ClusterSystem(2, cfg), std::invalid_argument);
}

TEST(ClusterSystem, RemoteReadRoundTrip) {
  ClusterSystem sys(2, small_config());
  const std::vector<Word> data{5, 6, 7, 8};
  sys.memory(1).poke_block(9, data);
  Cycle t = 0;
  const auto req = sys.remote_request(0, 0, 1, BlockOpKind::Read, 9);
  run(sys, t, 100);
  const auto* r = sys.result(req);
  ASSERT_NE(r, nullptr);
  EXPECT_EQ(r->data, data);
  // Latency = link + block access + link, plus port pickup jitter.
  const auto latency = r->completed - r->issued;
  EXPECT_GE(latency, 4u + 4u + 4u);
  EXPECT_LE(latency, 4u + 4u + 4u + 3u);
}

TEST(ClusterSystem, RemoteWriteLands) {
  ClusterSystem sys(2, small_config());
  Cycle t = 0;
  const std::vector<Word> data{1, 2, 3, 4};
  const auto req = sys.remote_request(0, 0, 1, BlockOpKind::Write, 7, data);
  run(sys, t, 100);
  ASSERT_NE(sys.result(req), nullptr);
  EXPECT_EQ(sys.memory(1).peek_block(7), data);
}

TEST(ClusterSystem, RemoteServiceDoesNotDisturbLocalAccesses) {
  // §3.3: "The service does not introduce network and memory contention
  // to cluster B, since it uses the free time slot."
  ClusterSystem sys(2, small_config());
  auto& memB = sys.memory(1);
  const auto beta = memB.config().block_access_time();
  Cycle t = 0;
  // Local processors of cluster B start block reads...
  std::vector<CfmMemory::OpToken> local;
  for (std::uint32_t p = 0; p < 3; ++p) {
    local.push_back(memB.issue(0, p, BlockOpKind::Read, 100 + p));
  }
  // ...while cluster A floods remote requests at B.
  for (int i = 0; i < 3; ++i) {
    (void)sys.remote_request(0, 0, 1, BlockOpKind::Read, 200 + i);
  }
  run(sys, t, 200);
  for (const auto op : local) {
    const auto r = memB.take_result(op);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(r->completed - r->issued, beta)
        << "local access disturbed by remote traffic";
  }
}

TEST(ClusterSystem, SameClusterRequestRejected) {
  ClusterSystem sys(2, small_config());
  EXPECT_THROW(sys.remote_request(0, 1, 1, BlockOpKind::Read, 1),
               std::invalid_argument);
}

TEST(ClusterSystem, ManyRemoteRequestsSerializeOnTheFreeSlot) {
  ClusterSystem sys(2, small_config());
  Cycle t = 0;
  std::vector<ClusterSystem::RequestId> reqs;
  for (int i = 0; i < 6; ++i) {
    reqs.push_back(sys.remote_request(0, 0, 1, BlockOpKind::Read, 50 + i));
  }
  run(sys, t, 400);
  Cycle prev_done = 0;
  for (const auto id : reqs) {
    const auto r = sys.take_result(id);
    ASSERT_TRUE(r.has_value());
    EXPECT_GE(r->completed, prev_done);  // served in order on one port
    prev_done = r->completed;
  }
}

// Link drops (the only consumer of `drop` faults): at drop probability 1
// every link flight is lost, so each remote request is sent once plus
// kMaxRetransmits times and then resolves Aborted, never hanging.
TEST(ClusterSystem, LinkDropsAbortAfterBoundedRetransmits) {
  constexpr int kRequests = 5;
  for (const bool faulted : {true, false}) {
    SCOPED_TRACE(faulted);
    ClusterSystem sys(2, small_config());
    cfm::sim::FaultInjector injector(cfm::sim::FaultPlan::parse("drop@0:prob=1"));
    if (faulted) sys.set_fault_injector(injector);
    Cycle t = 0;
    std::vector<ClusterSystem::RequestId> reqs;
    for (int i = 0; i < kRequests; ++i) {
      reqs.push_back(sys.remote_request(0, i % 2, 1 - i % 2, BlockOpKind::Read,
                                        20 + i));
    }
    run(sys, t, 400);
    for (const auto id : reqs) {
      const auto r = sys.take_result(id);
      ASSERT_TRUE(r.has_value());
      EXPECT_EQ(r->status,
                faulted ? OpStatus::Aborted : OpStatus::Completed);
    }
    const std::uint64_t n = faulted ? kRequests : 0;
    EXPECT_EQ(sys.link_failures(), n);
    EXPECT_EQ(sys.link_drops(), (ClusterSystem::kMaxRetransmits + 1) * n);
  }
}

}  // namespace
