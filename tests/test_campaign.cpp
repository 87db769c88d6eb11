// Campaign subsystem: scenario DSL validation, grid expansion, the
// content-addressed result cache, and end-to-end run_campaign behaviour
// (cache-hit determinism, kill/resume, audit rollup exit codes).
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <unistd.h>
#include <fstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"

namespace fs = std::filesystem;
using namespace cfm;
using namespace cfm::campaign;

namespace {

/// Unique scratch directory per test, removed on destruction.
struct ScratchDir {
  fs::path path;
  explicit ScratchDir(const std::string& tag)
      : path(fs::temp_directory_path() /
             ("cfm_campaign_test_" + tag + "_" +
              std::to_string(::getpid()))) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
};

Scenario small_grid() {
  return Scenario::parse_text(R"({
    "name": "grid",
    "workload": "cfm",
    "audit": true,
    "params": { "rate": 0.3, "cycles": 300 },
    "sweep": { "n": [2, 4], "c": [1, 2] },
    "base_seed": 7 })");
}

}  // namespace

// ---------------------------------------------------------------------------
// Scenario DSL: negative cases.

TEST(Scenario, UnknownTopLevelKeyThrows) {
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "n": 2, "c": 1, "rate": 0.1, "cycles": 10 },
               "bogus": 1 })"),
      std::invalid_argument);
}

TEST(Scenario, UnknownWorkloadParamThrows) {
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "n": 2, "c": 1, "rate": 0.1, "cycles": 10,
                           "warp_drive": 9 } })"),
      std::invalid_argument);
}

TEST(Scenario, MissingRequiredParamThrows) {
  EXPECT_THROW(Scenario::parse_text(
                   R"({ "name": "x", "workload": "cfm",
                        "params": { "n": 2, "c": 1, "rate": 0.1 } })"),
               std::invalid_argument);
}

TEST(Scenario, BadAxisTypeThrows) {
  // Axis must be an array...
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "c": 1, "rate": 0.1, "cycles": 10 },
               "sweep": { "n": 4 } })"),
      std::invalid_argument);
  // ...of scalars.
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "c": 1, "rate": 0.1, "cycles": 10 },
               "sweep": { "n": [[2]] } })"),
      std::invalid_argument);
  // ...and non-empty.
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "c": 1, "rate": 0.1, "cycles": 10 },
               "sweep": { "n": [] } })"),
      std::invalid_argument);
}

TEST(Scenario, DuplicateAxisThrows) {
  // "n" both fixed and swept.
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "n": 2, "c": 1, "rate": 0.1, "cycles": 10 },
               "sweep": { "n": [2, 4] } })"),
      std::invalid_argument);
}

TEST(Scenario, NonConflictFreePointThrows) {
  // b = 5 with c*n = 4: breaks the paper's b = c*n constraint.
  const auto s = Scenario::parse_text(
      R"({ "name": "x", "workload": "cfm",
           "params": { "n": 4, "c": 1, "b": 5, "rate": 0.1,
                       "cycles": 10 } })");
  try {
    (void)s.expand();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("conflict"), std::string::npos)
        << e.what();
  }
}

// Regression: {"n": [4294967300, 2.5]} used to run a 4- and a
// 2-processor point under rows labelled with the values as written.
TEST(Scenario, NonIntegralOrOutOfRangeSweepValuesAreRejected) {
  const auto expand_error = [](const std::string& sweep) -> std::string {
    const auto s = Scenario::parse_text(
        R"({ "name": "x", "workload": "cfm",
             "params": { "c": 1, "rate": 0.1 },
             "sweep": )" + sweep + " }");
    try {
      (void)s.expand();
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const auto names = [](const std::string& what, const std::string& part) {
    return what.find(part) != std::string::npos;
  };
  std::string what = expand_error(R"({ "n": [4294967300], "cycles": [10] })");
  EXPECT_TRUE(names(what, "'n' = 4294967300 is out of range")) << what;
  what = expand_error(R"({ "n": [2.5], "cycles": [10] })");
  EXPECT_TRUE(names(what, "'n' = 2.5 is not a non-negative integer")) << what;
  what = expand_error(R"({ "n": [-4], "cycles": [10] })");
  EXPECT_TRUE(names(what, "'n' = -4 is not a non-negative integer")) << what;
  what = expand_error(R"({ "n": [2], "cycles": [1e30] })");
  EXPECT_TRUE(names(what, "'cycles' = 1e+30")) << what;
  // An integral double is exact, so it runs as written.
  EXPECT_EQ(expand_error(R"({ "n": [4.0], "cycles": [10] })"), "");
}

TEST(PointSpec, TypedAccessorsRejectWhatTheyWouldTruncate) {
  PointSpec point;
  point.params["whole"] = 4294967295u;
  point.params["wide"] = std::uint64_t{4294967296};
  point.params["half"] = 2.5;
  point.params["neg"] = -1;
  point.params["exact"] = 8.0;
  EXPECT_EQ(point.param_u32("whole"), 4294967295u);
  EXPECT_EQ(point.param_u64("wide"), 4294967296u);
  EXPECT_THROW((void)point.param_u32("wide"), std::invalid_argument);
  EXPECT_THROW((void)point.param_u64("half"), std::invalid_argument);
  EXPECT_THROW((void)point.param_u64("neg"), std::invalid_argument);
  EXPECT_EQ(point.param_u32("exact"), 8u);
}

TEST(Scenario, UnknownWorkloadNameThrows) {
  EXPECT_THROW((void)workload_from_name("quantum"), std::invalid_argument);
}

TEST(Scenario, BadFaultPlanRejectedAtParseTime) {
  EXPECT_THROW(
      Scenario::parse_text(
          R"({ "name": "x", "workload": "cfm",
               "params": { "n": 2, "c": 1, "rate": 0.1, "cycles": 10 },
               "fault_plan": "no_such_fault@7" })"),
      std::invalid_argument);
}

// Regression: the cfm and coded families run one module with no network,
// so these plans used to expand and measure a healthy machine.
TEST(Scenario, FaultPlanNamingMissingHardwareFailsTheExpand) {
  const std::string cfm_params =
      R"("params": { "n": 4, "c": 2, "rate": 0.1, "cycles": 10 })";
  const std::string coded_params =
      R"("params": { "n": 4, "c": 2, "rate": 0.1, "cycles": 10,
                     "data_banks": 8, "stripe_width": 4, "code_rate": 0.8,
                     "parity_policy": "rmw" })";
  for (const auto& [workload, params] :
       {std::pair{"cfm", cfm_params}, std::pair{"coded", coded_params}}) {
    for (const char* plan :
         {"bank_dead@0:module=3,bank=1", "brownout@0+100:module=5",
          "drop@0:prob=0.5", "omega_link@0:stage=0,link=1"}) {
      const auto s = Scenario::parse_text(
          std::string(R"({ "name": "x", "workload": ")") + workload +
          R"(", "fault_plan": ")" + plan + R"(", )" + params + " }");
      try {
        (void)s.expand();
        ADD_FAILURE() << workload << " expanded " << plan;
      } catch (const std::invalid_argument& e) {
        EXPECT_NE(std::string(e.what()).find(plan), std::string::npos)
            << e.what();
      }
    }
  }
}

// Regression: base_seed and retries were read with a truncating cast, so
// "base_seed": 1.5 ran as 1 and -5 as 2^64 - 5.
TEST(Scenario, NonIntegralTopLevelCountsAreRejected) {
  const auto parse_error = [](const std::string& extra) -> std::string {
    try {
      (void)Scenario::parse_text(
          R"({ "name": "x", "workload": "tradeoff",
               "params": { "block_bits": 64, "b": 8, "c": 2 }, )" +
          extra + " }");
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  const auto names = [](const std::string& what, const std::string& part) {
    return what.find(part) != std::string::npos;
  };
  std::string what = parse_error(R"("base_seed": 1.5)");
  EXPECT_TRUE(names(what, "'base_seed' = 1.5 is not a non-negative integer"))
      << what;
  what = parse_error(R"("base_seed": -5)");
  EXPECT_TRUE(names(what, "'base_seed' = -5 is not a non-negative integer"))
      << what;
  what = parse_error(R"("retries": 2.7)");
  EXPECT_TRUE(names(what, "'retries' = 2.7 is not a non-negative integer"))
      << what;
  what = parse_error(R"("base_seed": "7")");
  EXPECT_TRUE(names(what, "'base_seed'")) << what;
  // Integral doubles are exact, so they run as written.
  EXPECT_EQ(parse_error(R"("base_seed": 7.0, "retries": 2)"), "");
  EXPECT_EQ(Scenario::parse_text(
                R"({ "name": "x", "workload": "tradeoff",
                     "params": { "block_bits": 64, "b": 8, "c": 2 },
                     "base_seed": 18446744073709551615 })")
                .to_json()
                .at("base_seed")
                .as_uint(),
            18446744073709551615u);
}

// ---------------------------------------------------------------------------
// Expansion semantics.

TEST(Scenario, ExpansionIsSortedAxesLastFastest) {
  const auto s = small_grid();
  EXPECT_EQ(s.grid_size(), 4u);
  const auto points = s.expand();
  ASSERT_EQ(points.size(), 4u);
  // Axes sorted (c before n); n (the last axis) varies fastest.
  EXPECT_EQ(points[0].param_u64("c"), 1u);
  EXPECT_EQ(points[0].param_u64("n"), 2u);
  EXPECT_EQ(points[1].param_u64("c"), 1u);
  EXPECT_EQ(points[1].param_u64("n"), 4u);
  EXPECT_EQ(points[2].param_u64("c"), 2u);
  EXPECT_EQ(points[2].param_u64("n"), 2u);
}

TEST(Scenario, PointSeedsStableUnderGridEdits) {
  const auto before = small_grid().expand();
  // Append an axis value: existing points must keep their seeds and keys.
  const auto after = Scenario::parse_text(R"({
    "name": "grid",
    "workload": "cfm",
    "audit": true,
    "params": { "rate": 0.3, "cycles": 300 },
    "sweep": { "n": [2, 4, 8], "c": [1, 2] },
    "base_seed": 7 })")
                         .expand();
  ASSERT_EQ(after.size(), 6u);
  for (const auto& p : before) {
    bool found = false;
    for (const auto& q : after) {
      if (q.cache_key() == p.cache_key()) {
        EXPECT_EQ(q.rng_seed(), p.rng_seed());
        found = true;
      }
    }
    EXPECT_TRUE(found) << p.cache_key();
  }
}

TEST(Scenario, CanonicalRoundTripsThroughParse) {
  const auto s = small_grid();
  const auto reparsed = Scenario::parse(s.to_json());
  EXPECT_EQ(reparsed.to_json().dump(), s.to_json().dump());
}

// ---------------------------------------------------------------------------
// Result cache.

TEST(ResultCache, MissThenHitRoundTrip) {
  ScratchDir dir("cache");
  ResultCache cache((dir.path / "c").string());
  const auto point = small_grid().expand().front();
  EXPECT_FALSE(cache.load(point).has_value());
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  result["metrics"]["efficiency"] = 0.5;
  cache.store(point, result);
  const auto back = cache.load(point);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), result.dump());
}

TEST(ResultCache, CorruptEntryIsAMiss) {
  ScratchDir dir("corrupt");
  ResultCache cache((dir.path / "c").string());
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  cache.store(point, result);
  // Truncate the entry (a killed campaign's torn write is prevented by
  // the tmp+rename protocol, but a damaged disk file must still miss).
  std::ofstream(cache.path_for(point), std::ios::trunc) << "{ \"key\": 1";
  EXPECT_FALSE(cache.load(point).has_value());
}

TEST(ResultCache, EntryWithBadCounterValuesIsAMiss) {
  // A negative or fractional counter would wrap or truncate in the
  // campaign aggregate: the entry reads as corrupt and the point reruns.
  ScratchDir dir("badcounters");
  ResultCache cache((dir.path / "c").string());
  const auto point = small_grid().expand().front();
  for (const char* bad : {"-1", "2.7"}) {
    auto result = sim::Json::object();
    result["metrics"] = sim::Json::object();
    result["counters"] = sim::Json::parse(
        std::string(R"({"ops_completed": 5, "restarts": )") + bad + "}");
    cache.store(point, result);
    EXPECT_FALSE(cache.load(point).has_value()) << bad;
  }
  auto good = sim::Json::object();
  good["metrics"] = sim::Json::object();
  good["counters"] =
      sim::Json::parse(R"({"ops_completed": 5, "restarts": 2.0})");
  cache.store(point, good);
  EXPECT_TRUE(cache.load(point).has_value());
}

TEST(ResultCache, ConcurrentStoresOfSameKeyLandSafely) {
  // Sharded sweeps point several campaign *processes* at one cache
  // directory, so temp names carry the pid as well as the thread id (two
  // processes can hash their main-thread ids identically).  In-process we
  // can only exercise the thread half directly, but the invariant under
  // test is the same: many writers racing the identical key must leave
  // one valid entry and zero orphaned temp files.
  ScratchDir dir("race");
  const auto cache_dir = (dir.path / "c").string();
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  result["metrics"]["efficiency"] = 0.75;

  ResultCache a(cache_dir);
  ResultCache b(cache_dir);
  std::thread ta([&] { for (int i = 0; i < 50; ++i) a.store(point, result); });
  std::thread tb([&] { for (int i = 0; i < 50; ++i) b.store(point, result); });
  ta.join();
  tb.join();

  const auto back = a.load(point);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), result.dump());
  std::size_t leftovers = 0;
  for (const auto& entry : fs::directory_iterator(dir.path / "c")) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++leftovers;
    }
  }
  EXPECT_EQ(leftovers, 0u);
}

TEST(ResultCache, DisabledCacheNeverStores) {
  ResultCache cache("");
  const auto point = small_grid().expand().front();
  cache.store(point, sim::Json::object());
  EXPECT_FALSE(cache.load(point).has_value());
}

// ---------------------------------------------------------------------------
// End-to-end campaigns.

TEST(Campaign, SecondRunIsFullyCachedAndByteIdentical) {
  ScratchDir dir("rerun");
  CampaignOptions options;
  options.cache_dir = (dir.path / "cache").string();
  options.jobs = 2;
  const auto s = small_grid();
  const auto first = run_campaign(s, options);
  EXPECT_EQ(first.points, 4u);
  EXPECT_EQ(first.executed, 4u);
  EXPECT_EQ(first.cached, 0u);
  EXPECT_EQ(first.failed, 0u);
  EXPECT_EQ(first.exit_code(), 0);

  const auto second = run_campaign(s, options);
  EXPECT_EQ(second.executed, 0u);
  EXPECT_EQ(second.cached, 4u);
  EXPECT_EQ(second.report.dump(), first.report.dump());
}

TEST(Campaign, KillResumeReExecutesOnlyMissingPoints) {
  ScratchDir dir("resume");
  CampaignOptions options;
  options.cache_dir = (dir.path / "cache").string();
  options.jobs = 2;
  const auto s = small_grid();
  const auto first = run_campaign(s, options);

  // Simulate a campaign killed mid-flight: delete one cache entry and
  // corrupt another (as if the process died between store()s — the
  // tmp+rename protocol guarantees no torn entry, so "partial" means
  // some entries simply absent).
  const auto points = s.expand();
  ResultCache cache(options.cache_dir);
  ASSERT_TRUE(fs::remove(cache.path_for(points[1])));
  std::ofstream(cache.path_for(points[2]), std::ios::trunc) << "garbage";

  const auto resumed = run_campaign(s, options);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_EQ(resumed.cached, 2u);
  EXPECT_EQ(resumed.report.dump(), first.report.dump())
      << "resume must reproduce the interrupted campaign's report";
}

TEST(Campaign, NoAxesRunsSinglePoint) {
  CampaignOptions options;
  options.cache_dir.clear();
  const auto s = Scenario::parse_text(
      R"({ "name": "one", "workload": "tradeoff",
           "params": { "block_bits": 64, "b": 8, "c": 2 } })");
  const auto result = run_campaign(s, options);
  EXPECT_EQ(result.points, 1u);
  EXPECT_EQ(result.report.at("points").as_array().size(), 1u);
  const auto& m = result.report.at("points").as_array()[0].at("metrics");
  EXPECT_EQ(m.at("processors").as_uint(), 4u);
  EXPECT_EQ(m.at("memory_latency").as_uint(), 9u);
}

TEST(Campaign, ReportCarriesMergedCountersStatsAndTables) {
  CampaignOptions options;
  options.cache_dir.clear();
  const auto result = run_campaign(small_grid(), options);
  const auto& report = result.report;
  EXPECT_EQ(report.at("schema").as_string(), "cfm-campaign-report/v1");
  EXPECT_EQ(report.at("name").as_string(), "grid");
  EXPECT_EQ(report.at("spec_hash").as_string().size(), 16u);
  // Audited cfm points carry machine counters; the rollup merges them.
  EXPECT_FALSE(report.at("counters").as_object().empty());
  EXPECT_TRUE(report.at("stats").as_object().count("access_time"));
  // One per-axis table per axis, one row per axis value.
  const auto& tables = report.at("tables");
  ASSERT_TRUE(tables.as_object().count("by_n"));
  ASSERT_TRUE(tables.as_object().count("by_c"));
  EXPECT_EQ(tables.at("by_n").as_array().size(), 2u);
  const auto& row = tables.at("by_n").as_array()[0];
  EXPECT_EQ(row.at("points").as_uint(), 2u);
  EXPECT_TRUE(row.as_object().count("efficiency"));
  // Conflict-free machine under an auditor: zero violations, real checks.
  EXPECT_EQ(report.at("audit").at("violations").as_uint(), 0u);
  EXPECT_GT(report.at("audit").at("checks").as_uint(), 0u);
  EXPECT_EQ(result.audit_violations, 0u);
}

TEST(Campaign, RunPointCoversEveryWorkloadKind) {
  // Each workload family must produce metrics through the same runner
  // the sharded executor uses.
  const struct {
    const char* text;
    const char* metric;
  } cases[] = {
      {R"({ "name": "w", "workload": "cfm",
            "params": { "n": 2, "c": 1, "rate": 0.2, "cycles": 200 } })",
       "efficiency"},
      {R"({ "name": "w", "workload": "conventional",
            "params": { "n": 2, "m": 2, "beta": 4, "rate": 0.2,
                        "cycles": 200 } })",
       "efficiency"},
      {R"({ "name": "w", "workload": "partial_cfm",
            "params": { "n": 2, "m": 2, "beta": 4, "rate": 0.2,
                        "locality": 0.5, "cycles": 200 } })",
       "efficiency"},
      {R"({ "name": "w", "workload": "trace_replay",
            "params": { "n": 2, "c": 1, "blocks": 8, "accesses": 64,
                        "span": 4, "write_fraction": 0.25 } })",
       "mean_latency"},
      {R"({ "name": "w", "workload": "lock",
            "params": { "variant": "cfm", "contenders": 2, "hold": 3,
                        "cycles": 300 } })",
       "total_acquisitions"},
      {R"({ "name": "w", "workload": "tradeoff",
            "params": { "block_bits": 64, "b": 8, "c": 2 } })",
       "processors"},
  };
  for (const auto& c : cases) {
    const auto points = Scenario::parse_text(c.text).expand();
    ASSERT_EQ(points.size(), 1u);
    const auto result = run_point(points.front());
    EXPECT_TRUE(result.at("metrics").as_object().count(c.metric))
        << c.text << " missing metric " << c.metric;
  }
}

TEST(Campaign, DeterministicAcrossJobCounts) {
  // Sharding must not leak into the report: 1 job and 4 jobs agree.
  CampaignOptions serial;
  serial.cache_dir.clear();
  serial.jobs = 1;
  CampaignOptions wide = serial;
  wide.jobs = 4;
  const auto s = small_grid();
  EXPECT_EQ(run_campaign(s, serial).report.dump(),
            run_campaign(s, wide).report.dump());
}
