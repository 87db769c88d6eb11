// Time-series telemetry: the Log2Histogram sketch, the windowed flight
// recorder (sparse recording, deterministic downsampling, pending-window
// flush, horizon truncation), and the derived recovery / anomaly tables.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/telemetry.hpp"

namespace cfm::sim {
namespace {

// ---- Log2Histogram ----------------------------------------------------

TEST(Log2Histogram, BucketMapping) {
  Log2Histogram h;
  h.add(0);
  h.add(1);
  h.add(2);
  h.add(3);
  h.add(4);
  h.add(7);
  h.add(8);
  EXPECT_EQ(h.bucket(0), 1u);  // zero
  EXPECT_EQ(h.bucket(1), 1u);  // [1, 2)
  EXPECT_EQ(h.bucket(2), 2u);  // [2, 4)
  EXPECT_EQ(h.bucket(3), 2u);  // [4, 8)
  EXPECT_EQ(h.bucket(4), 1u);  // [8, 16)
  EXPECT_EQ(h.total(), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), 25.0 / 7.0);
}

TEST(Log2Histogram, BucketUpperBounds) {
  EXPECT_EQ(Log2Histogram::bucket_upper(0), 0u);
  EXPECT_EQ(Log2Histogram::bucket_upper(1), 1u);
  EXPECT_EQ(Log2Histogram::bucket_upper(2), 3u);
  EXPECT_EQ(Log2Histogram::bucket_upper(10), 1023u);
}

TEST(Log2Histogram, QuantileReturnsBucketUpper) {
  Log2Histogram h;
  for (int i = 0; i < 90; ++i) h.add(3);    // bucket 2, upper 3
  for (int i = 0; i < 10; ++i) h.add(500);  // bucket 9, upper 511
  EXPECT_DOUBLE_EQ(h.quantile(0.50), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.90), 3.0);
  EXPECT_DOUBLE_EQ(h.quantile(0.95), 511.0);
  EXPECT_DOUBLE_EQ(h.quantile(1.0), 511.0);
}

TEST(Log2Histogram, MergeAndSubtractRoundTrip) {
  Log2Histogram a;
  Log2Histogram b;
  for (int i = 0; i < 5; ++i) a.add(10);
  for (int i = 0; i < 3; ++i) b.add(100);
  Log2Histogram merged = a;
  merged.merge(b);
  EXPECT_EQ(merged.total(), 8u);
  merged.subtract(a);  // window delta: cumulative minus previous snapshot
  EXPECT_EQ(merged.total(), b.total());
  EXPECT_DOUBLE_EQ(merged.sum(), b.sum());
  EXPECT_EQ(merged.bucket(7), 3u);  // 100 lands in [64, 128)
}

TEST(Log2Histogram, NegativeValuesClampToZeroBucket) {
  Log2Histogram h;
  h.add(-5.0);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_DOUBLE_EQ(h.sum(), 0.0);
}

// The whole point of the log2 geometry: the footprint is a compile-time
// constant, independent of run length or value range.  A run recording
// millions of samples must not grow the sketch.
TEST(Log2Histogram, MemoryFootprintIsFixed) {
  static_assert(sizeof(Log2Histogram) <=
                Log2Histogram::kBuckets * sizeof(std::uint64_t) + 32);
  Log2Histogram h;
  for (std::uint64_t i = 0; i < 100000; ++i) h.add(static_cast<double>(i));
  EXPECT_EQ(h.total(), 100000u);  // same object, no allocation possible
}

// ---- TelemetrySampler: windowing on a real engine ---------------------

/// A tiny deterministic workload: one counter that advances by
/// `increment` each cycle during [busy_from, busy_to), plus a gauge.
struct SyntheticLoad {
  std::uint64_t counter = 0;
  double gauge = 0.0;
};

struct Rig {
  Engine engine;
  SyntheticLoad load;
  std::shared_ptr<LambdaComponent> driver;
  std::unique_ptr<TelemetrySampler> sampler;

  Rig(Cycle window, std::size_t capacity, Cycle busy_from, Cycle busy_to) {
    const auto domain = engine.allocate_domain();
    driver = std::make_shared<LambdaComponent>("test.load", domain);
    driver->on(Phase::Issue, [this, busy_from, busy_to](Cycle now) {
      if (now >= busy_from && now < busy_to) {
        ++load.counter;
        load.gauge = static_cast<double>(now % 7);
      }
    });
    engine.add(driver);
    sampler = std::make_unique<TelemetrySampler>("test.telemetry", window,
                                                 capacity);
    sampler->add_counter("ops", [this] { return load.counter; });
    sampler->add_gauge("depth", [this](Cycle) { return load.gauge; });
    engine.add(*sampler);
  }
};

TEST(TelemetrySampler, WindowDeltasSumToTotals) {
  Rig rig(/*window=*/32, /*capacity=*/512, 0, 1000);
  rig.engine.run_for(1000);
  const auto s = rig.sampler->series(1000);
  EXPECT_EQ(s.window_cycles, 32u);
  std::uint64_t sum = 0;
  for (const auto& row : s.rows) sum += row.counters[0];
  EXPECT_EQ(sum, rig.load.counter);
  EXPECT_EQ(s.totals[0], rig.load.counter);
}

TEST(TelemetrySampler, SparseRecordingSkipsIdleWindows) {
  // Busy for [0, 128), idle to 2048: records exist only for the busy
  // prefix, and over-running the engine adds no rows.
  Rig rig(/*window=*/32, /*capacity=*/512, 0, 128);
  rig.engine.run_for(2048);
  const auto s = rig.sampler->series(2048);
  ASSERT_FALSE(s.rows.empty());
  // One trailing record may hold the busy->idle gauge transition.
  EXPECT_LE(s.rows.back().start, 128u + 32u);
  for (const auto& row : s.rows) EXPECT_LT(row.start, 192u);
}

TEST(TelemetrySampler, SeriesIdenticalAcrossEnginePacing) {
  // The per-cycle reference and every fast-path span must export the
  // same bytes: the sampler's boundary hint forces boundary cycles into
  // reference order regardless of how the engine got there.
  const auto run = [](bool fast, Cycle span) {
    EngineTuning saved = engine_tuning();
    EngineTuning t = saved;
    t.fast_path = fast;
    t.max_span = span;
    set_engine_tuning(t);
    Rig rig(48, 512, 100, 900);
    rig.engine.run_for(1500);
    std::string out = rig.sampler->to_json(1500).dump();
    set_engine_tuning(saved);
    return out;
  };
  const std::string reference = run(false, 1);
  EXPECT_EQ(reference, run(true, 1));
  EXPECT_EQ(reference, run(true, 7));
  EXPECT_EQ(reference, run(true, 64));
}

TEST(TelemetrySampler, PendingWindowFlushMatchesBoundarySample) {
  // Engine A stops mid-window; engine B (same workload) crosses the next
  // boundary with no further activity.  Exports at the same horizon must
  // agree: the flush materializes the still-open window.
  Rig a(100, 512, 0, 250);
  a.engine.run_for(250);  // stops 50 cycles short of the 300 boundary
  Rig b(100, 512, 0, 250);
  b.engine.run_for(400);  // crosses the boundary while idle
  EXPECT_EQ(a.sampler->to_json(250).dump(), b.sampler->to_json(250).dump());
}

TEST(TelemetrySampler, HorizonTruncationDropsLaterRows) {
  Rig rig(32, 512, 0, 1000);
  rig.engine.run_for(1000);
  const auto s = rig.sampler->series(500);
  for (const auto& row : s.rows) EXPECT_LE(row.start, 500u);
}

TEST(TelemetrySampler, FoldsDeterministicallyToCapacity) {
  // 64 busy windows into an 8-record recorder: scale doubles until the
  // rows fit, rows stay strictly increasing and aligned, and the fold is
  // the same whether it happened eagerly (small capacity, in-flight) or
  // all at export time (large capacity, folded view of the same stream).
  Rig small(16, 8, 0, 1024);
  small.engine.run_for(1024);
  const auto s = small.sampler->series(1024);
  EXPECT_LE(s.rows.size(), 8u);
  EXPECT_GT(s.scale, 1u);
  EXPECT_EQ(s.window_cycles, 16u * s.scale);
  for (std::size_t i = 1; i < s.rows.size(); ++i) {
    EXPECT_LT(s.rows[i - 1].start, s.rows[i].start);
    EXPECT_EQ(s.rows[i].start % s.window_cycles, 0u);
  }
  std::uint64_t sum = 0;
  for (const auto& row : s.rows) sum += row.counters[0];
  EXPECT_EQ(sum, small.load.counter);

  // Same stream, never folded in flight; fold only the exported copy.
  Rig big(16, 512, 0, 1024);
  big.engine.run_for(1024);
  auto wide = big.sampler->series(1024);
  // Re-fold the wide series down to the small recorder's scale by asking
  // the sampler machinery indirectly: compare window sums at s.scale.
  std::map<Cycle, std::uint64_t> folded;
  for (const auto& row : wide.rows) {
    folded[(row.start / s.window_cycles) * s.window_cycles] +=
        row.counters[0];
  }
  ASSERT_EQ(folded.size(), s.rows.size());
  std::size_t i = 0;
  for (const auto& [start, count] : folded) {
    EXPECT_EQ(start, s.rows[i].start);
    EXPECT_EQ(count, s.rows[i].counters[0]);
    ++i;
  }
}

TEST(TelemetrySampler, LiveJsonShowsOpenWindow) {
  Rig rig(64, 512, 0, 1000);
  rig.engine.run_for(100);  // 1 boundary crossed, 36 cycles into window 1
  const auto live = rig.sampler->live_json(rig.engine.now());
  EXPECT_EQ(live.at("cycle").as_uint(), 100u);
  EXPECT_EQ(live.at("window").at("start").as_uint(), 64u);
  const auto open_delta = live.at("window").at("counters").at("ops").as_uint();
  const auto total = live.at("totals").at("ops").as_uint();
  EXPECT_EQ(total, rig.load.counter);
  EXPECT_EQ(open_delta, total - 64u);  // first window's 64 increments
}

TEST(TelemetrySampler, PrometheusTextExposesCountersAndGauges) {
  Rig rig(64, 512, 0, 200);
  rig.engine.run_for(200);
  const auto text = rig.sampler->prometheus_text(rig.engine.now());
  EXPECT_NE(text.find("# TYPE cfm_ops counter"), std::string::npos);
  EXPECT_NE(text.find("cfm_ops 200\n"), std::string::npos);
  EXPECT_NE(text.find("# TYPE cfm_depth gauge"), std::string::npos);
}

// ---- recovery table and anomaly detection -----------------------------

/// Hand-built series: completed/degraded/slo columns over 10 windows of
/// 100 cycles, with a degradation burst in windows 4-5.
TelemetrySampler::Series synthetic_series() {
  TelemetrySampler::Series s;
  s.base_window = 100;
  s.window_cycles = 100;
  s.scale = 1;
  s.capacity = 512;
  s.horizon = 1000;
  s.counter_names = {"completed", "failed", "slo_within"};
  for (std::uint64_t w = 0; w < 10; ++w) {
    TelemetrySampler::Row row;
    row.start = w * 100;
    const bool degraded = w == 4 || w == 5;
    const std::uint64_t completed = degraded ? 18 : 50;
    row.counters = {completed, degraded ? 3u : 0u,
                    degraded ? completed / 2 : completed};
    s.rows.push_back(std::move(row));
  }
  s.totals = {436, 6, 418};
  return s;
}

TEST(RecoveryTable, DerivesMttrFromDegradedWindows) {
  const auto s = synthetic_series();
  const auto plan = FaultPlan::parse("bank_dead@420:module=0,bank=1");
  RecoveryConfig cfg;
  cfg.degraded_counters = {"failed"};
  cfg.completed_counter = "completed";
  cfg.slo_counter = "slo_within";
  const auto rows = recovery_table(s, plan, cfg);
  ASSERT_EQ(rows.as_array().size(), 1u);
  const auto& row = rows.as_array()[0];
  EXPECT_EQ(row.at("kind").as_string(), "bank_dead");
  EXPECT_EQ(row.at("degraded_windows").as_uint(), 2u);
  EXPECT_EQ(row.at("first_degraded_start").as_uint(), 400u);
  EXPECT_EQ(row.at("last_degraded_end").as_uint(), 600u);
  EXPECT_TRUE(row.at("recovered").as_bool());
  EXPECT_EQ(row.at("mttr_cycles").as_uint(), 180u);  // 600 - 420
  EXPECT_EQ(row.at("windows_under_slo").as_uint(), 2u);
  EXPECT_EQ(row.at("time_under_slo_cycles").as_uint(), 200u);
}

TEST(RecoveryTable, UnrecoveredWhenDegradationReachesHorizon) {
  auto s = synthetic_series();
  // Degrade the final window too: no clean air before the horizon.
  s.rows.back().counters[1] = 7;
  const auto plan = FaultPlan::parse("bank_dead@420:module=0,bank=1");
  RecoveryConfig cfg;
  cfg.degraded_counters = {"failed"};
  const auto rows = recovery_table(s, plan, cfg);
  EXPECT_FALSE(rows.as_array()[0].at("recovered").as_bool());
}

TEST(DetectAnomalies, FlagsSloBreachAndCliff) {
  const auto s = synthetic_series();
  // Thresholds: attainment < 0.9, cliff < 0.4 * mean.
  const auto out = detect_anomalies(s, "completed", "slo_within", nullptr);
  EXPECT_EQ(out.at("count").as_uint(), out.at("findings").as_array().size());
  bool saw_breach = false;
  bool saw_cliff = false;
  for (const auto& f : out.at("findings").as_array()) {
    if (f.at("kind").as_string() == "slo_window_breach") saw_breach = true;
    if (f.at("kind").as_string() == "throughput_cliff") saw_cliff = true;
  }
  EXPECT_TRUE(saw_breach);
  EXPECT_TRUE(saw_cliff);
}

TEST(DetectAnomalies, CleanSeriesHasNoFindings) {
  auto s = synthetic_series();
  for (auto& row : s.rows) row.counters = {50, 0, 50};
  const auto out = detect_anomalies(s, "completed", "slo_within", nullptr);
  EXPECT_EQ(out.at("count").as_uint(), 0u);
}

TEST(DetectAnomalies, ReportsNonRecoveryFromRecoveryRows) {
  auto s = synthetic_series();
  s.rows.back().counters[1] = 7;
  const auto plan = FaultPlan::parse("bank_dead@420:module=0,bank=1");
  RecoveryConfig cfg;
  cfg.degraded_counters = {"failed"};
  const auto recovery = recovery_table(s, plan, cfg);
  const auto out = detect_anomalies(s, "completed", "slo_within", &recovery);
  bool saw = false;
  for (const auto& f : out.at("findings").as_array()) {
    if (f.at("kind").as_string() == "post_fault_non_recovery") saw = true;
  }
  EXPECT_TRUE(saw);
}

}  // namespace
}  // namespace cfm::sim
