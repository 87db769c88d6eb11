// Tests for workload drivers: efficiency measurement (simulation vs the
// analytic model), hot-spot runs, lock farms, and trace replay.
#include <gtest/gtest.h>

#include <sstream>

#include "analytic/efficiency.hpp"
#include "workload/access_gen.hpp"
#include "workload/lock_workload.hpp"
#include "workload/trace.hpp"

namespace {

using namespace cfm;
using namespace cfm::workload;

TEST(Efficiency, CfmIsExactlyOne) {
  const auto r = measure_cfm(8, 1, 0.05, 30000, 1);
  EXPECT_GT(r.completed, 100u);
  EXPECT_DOUBLE_EQ(r.efficiency, 1.0);
  EXPECT_EQ(r.conflicts, 0u);
}

TEST(Efficiency, CfmExactForLongerBankCycles) {
  const auto r = measure_cfm(4, 2, 0.04, 30000, 2);
  EXPECT_DOUBLE_EQ(r.efficiency, 1.0);
  EXPECT_DOUBLE_EQ(r.mean_access_time, 9.0);  // beta = 8 + 2 - 1
}

TEST(Efficiency, ConventionalDegradesWithRate) {
  const auto low = measure_conventional(8, 8, 17, 0.01, 150000, 3);
  const auto high = measure_conventional(8, 8, 17, 0.05, 150000, 3);
  EXPECT_LT(low.efficiency, 1.0);
  EXPECT_LT(high.efficiency, low.efficiency);
  EXPECT_GT(high.conflicts, low.conflicts);
}

TEST(Efficiency, ConventionalTracksAnalyticAtLowRate) {
  analytic::ConventionalModel model{8, 8, 17};
  for (const double r : {0.01, 0.02}) {
    const auto sim = measure_conventional(8, 8, 17, r, 300000, 5);
    EXPECT_NEAR(sim.efficiency, model.efficiency(r), 0.06)
        << "rate " << r;
  }
}

TEST(Efficiency, PartialCfmOrderedByLocality) {
  const auto l9 = measure_partial_cfm(64, 8, 17, 0.03, 0.9, 120000, 7);
  const auto l5 = measure_partial_cfm(64, 8, 17, 0.03, 0.5, 120000, 7);
  const auto l3 = measure_partial_cfm(64, 8, 17, 0.03, 0.3, 120000, 7);
  EXPECT_GT(l9.efficiency, l5.efficiency);
  EXPECT_GT(l5.efficiency, l3.efficiency);
}

TEST(Efficiency, PartialCfmTracksAnalytic) {
  analytic::PartialCfmModel model{64, 8, 17};
  for (const double l : {0.9, 0.7, 0.5}) {
    const auto sim = measure_partial_cfm(64, 8, 17, 0.02, l, 200000, 9);
    EXPECT_NEAR(sim.efficiency, model.efficiency(0.02, l), 0.07)
        << "lambda " << l;
  }
}

TEST(HotSpot, SaturationGrowsWithHotFraction) {
  const auto cold = run_hotspot_buffered(16, 0.3, 0.0, 2, 6000, 11);
  const auto hot = run_hotspot_buffered(16, 0.3, 0.5, 2, 6000, 11);
  EXPECT_GT(hot.background_latency, cold.background_latency);
  EXPECT_GT(hot.saturated_queues, cold.saturated_queues);
  EXPECT_GT(hot.reject_rate, cold.reject_rate);
}

TEST(LockFarms, AllThreeMakeProgress) {
  const auto cfm = run_lock_farm_cfm(4, 10, 20000);
  const auto cached = run_lock_farm_cached(4, 10, 20000);
  const auto snoopy = run_lock_farm_snoopy(4, 10, 20000);
  EXPECT_GT(cfm.total_acquisitions, 50u);
  EXPECT_GT(cached.total_acquisitions, 50u);
  EXPECT_GT(snoopy.total_acquisitions, 20u);
  EXPECT_GT(cfm.min_per_proc, 0.0);
  EXPECT_GT(cached.min_per_proc, 0.0);
}

TEST(LockFarms, SnoopyBusIsTheBottleneck) {
  const auto snoopy = run_lock_farm_snoopy(8, 5, 20000);
  // aux_pressure = bus utilization; under 8-way lock contention the bus
  // must be heavily loaded — the hot spot the CFM design removes.
  EXPECT_GT(snoopy.aux_pressure, 0.3);
}

TEST(Trace, SaveLoadRoundtrip) {
  const auto t = Trace::uniform(4, 2, 100, 50, 1000, 0.3, 21);
  std::stringstream ss;
  t.save(ss);
  const auto u = Trace::load(ss);
  ASSERT_EQ(u.size(), t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_EQ(u.records()[i].issue, t.records()[i].issue);
    EXPECT_EQ(u.records()[i].proc, t.records()[i].proc);
    EXPECT_EQ(u.records()[i].is_write, t.records()[i].is_write);
    EXPECT_EQ(u.records()[i].offset, t.records()[i].offset);
  }
}

TEST(Trace, UniformTraceSortedAndBounded) {
  const auto t = Trace::uniform(8, 4, 64, 200, 5000, 0.5, 33);
  EXPECT_EQ(t.size(), 200u);
  cfm::sim::Cycle prev = 0;
  for (const auto& r : t.records()) {
    EXPECT_GE(r.issue, prev);
    prev = r.issue;
    EXPECT_LT(r.proc, 8u);
    EXPECT_LT(r.module, 4u);
    EXPECT_LT(r.offset, 64u);
  }
}

TEST(Trace, ReplayOnCfmCompletesEverything) {
  const auto t = Trace::uniform(8, 1, 512, 300, 3000, 0.3, 44);
  const auto r = replay_on_cfm(t, 8, 1);
  EXPECT_EQ(r.completed + r.aborted_writes, 300u);
  EXPECT_GE(r.mean_latency, 8.0);  // beta = 8
}

}  // namespace
