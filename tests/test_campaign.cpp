// Campaign subsystem: scenario DSL validation, grid expansion, the
// content-addressed result cache, and end-to-end run_campaign behaviour
// (cache-hit determinism, kill/resume, audit rollup exit codes).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sys/resource.h>
#include <unistd.h>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/lease.hpp"
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

/// The files directly in `dir` whose names contain `needle`.
std::vector<fs::path> files_with(const fs::path& dir,
                                 const std::string& needle) {
  std::vector<fs::path> out;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().filename().string().find(needle) != std::string::npos) {
      out.push_back(entry.path());
    }
  }
  return out;
}

std::string read_text(const fs::path& path) {
  std::ifstream is(path, std::ios::binary);
  std::ostringstream buf;
  buf << is.rdbuf();
  return buf.str();
}

void write_text(const fs::path& path, const std::string& text,
                std::ios::openmode mode = std::ios::trunc) {
  std::ofstream(path, std::ios::binary | mode) << text;
}

/// One pack record, spelled the way the cache format defines it: the key,
/// a space, the compact dump of {"key": canonical, "result": result}.
std::string record_line(const PointSpec& point, const sim::Json& result) {
  auto entry = sim::Json::object();
  entry["key"] = point.canonical();
  entry["result"] = result;
  return point.cache_key() + " " + entry.dump() + "\n";
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
  const auto cache_dir = dir.path / "c";
  ResultCache cache(cache_dir.string());
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  cache.store(point, result);
  // Damage the pack: the point's record keeps its key and its line but
  // loses its document, so the stored bytes no longer match the index
  // either.  Both the cache that wrote it and a fresh one must miss.
  const auto packs = files_with(cache_dir, ".pack");
  ASSERT_EQ(packs.size(), 1u);
  write_text(packs[0], point.cache_key() + " { \"key\": 1\n");
  EXPECT_FALSE(cache.load(point).has_value());
  EXPECT_FALSE(ResultCache(cache_dir.string()).load(point).has_value());
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
  // Campaign job threads share one cache, and sharded sweeps point
  // several caches (processes) at one directory.  Each cache appends to
  // its own pack under its own lock, so writers racing the identical key
  // must leave one pack per cache, every line whole, and no temp file.
  ScratchDir dir("race");
  const auto cache_dir = dir.path / "c";
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  result["metrics"]["efficiency"] = 0.75;

  ResultCache a(cache_dir.string());
  ResultCache b(cache_dir.string());
  const auto stores = [&](const ResultCache& cache) {
    for (int i = 0; i < 50; ++i) cache.store(point, result);
  };
  std::thread ta1(stores, std::cref(a));
  std::thread ta2(stores, std::cref(a));
  std::thread tb(stores, std::cref(b));
  ta1.join();
  ta2.join();
  tb.join();

  const auto back = a.load(point);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), result.dump());
  EXPECT_TRUE(ResultCache(cache_dir.string()).contains(point));
  const auto packs = files_with(cache_dir, ".pack");
  ASSERT_EQ(packs.size(), 2u);
  std::size_t lines = 0;
  for (const auto& pack : packs) {
    std::istringstream is(read_text(pack));
    for (std::string line; std::getline(is, line); ++lines) {
      EXPECT_EQ(line + "\n", record_line(point, result));
    }
  }
  EXPECT_EQ(lines, 150u);
  EXPECT_TRUE(files_with(cache_dir, ".tmp.").empty());
}

TEST(ResultCache, RecordAppendedByAnotherCacheAfterAMissBecomesVisible) {
  ScratchDir dir("visible");
  const auto cache_dir = (dir.path / "c").string();
  const auto points = small_grid().expand();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  ResultCache reader(cache_dir);
  ResultCache writer(cache_dir);
  writer.store(points[0], result);
  EXPECT_TRUE(reader.contains(points[0]));
  EXPECT_FALSE(reader.contains(points[1]));
  // The reader has indexed the writer's pack up to here.  A miss does not
  // rescan the directory (a pass over a grid lists it once); the next
  // refresh picks up what the pack gained since.
  writer.store(points[1], result);
  EXPECT_FALSE(reader.contains(points[1]));
  reader.refresh();
  EXPECT_TRUE(reader.contains(points[1]));
}

TEST(ResultCache, PacksBeyondTheDescriptorLimitStillHitAndLeasesStillClaim) {
  // A reused cache directory gains a pack per storing run.  The cache
  // opens a pack only while indexing it or reading a hit from it, so a
  // directory holding more packs than the process may open descriptors
  // still serves every point, and leases beside it can still be created.
  ScratchDir dir("fdlimit");
  const auto cache_dir = (dir.path / "c").string();
  constexpr int kPacks = 64;
  std::string cycles;
  for (int i = 0; i < kPacks; ++i) {
    cycles += (i == 0 ? "" : ", ") + std::to_string(300 + i);
  }
  const auto points = Scenario::parse_text(R"({
    "name": "wide", "workload": "cfm",
    "params": { "rate": 0.3, "n": 2, "c": 1 },
    "sweep": { "cycles": [)" + cycles + "] } }").expand();
  ASSERT_EQ(points.size(), static_cast<std::size_t>(kPacks));
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  // One pack per point, so a pack the cache failed to open loses a point.
  for (const auto& point : points) ResultCache(cache_dir).store(point, result);
  ASSERT_EQ(files_with(cache_dir, ".pack").size(), points.size());

  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  const int lowest_free = ::dup(0);
  ASSERT_GE(lowest_free, 0);
  ::close(lowest_free);
  rlimit low = saved;
  low.rlim_cur = static_cast<rlim_t>(lowest_free + 8);
  ASSERT_LT(low.rlim_cur, static_cast<rlim_t>(kPacks));
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &low), 0);
  // Restores the limit however the checks below end, before `dir` is
  // removed.
  struct RestoreLimit {
    rlimit saved;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &saved); }
  } restore{saved};
  ResultCache cache(cache_dir);
  for (const auto& point : points) {
    EXPECT_TRUE(cache.contains(point)) << point.cache_key();
  }
  cache.store(points[0], result);
  LeaseDir leases(cache_dir, std::chrono::milliseconds(60000));
  EXPECT_TRUE(leases.try_claim(points[0].cache_key()));
}

TEST(ResultCache, TornTailStaysInvisibleUntilItsLineIsComplete) {
  ScratchDir dir("torn");
  const auto cache_dir = dir.path / "c";
  fs::create_directories(cache_dir);
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  result["metrics"]["efficiency"] = 0.25;
  const std::string line = record_line(point, result);
  const auto pack = cache_dir / "other.pack";
  ResultCache cache(cache_dir.string());
  const std::size_t half = line.size() / 2;
  write_text(pack, line.substr(0, half));
  EXPECT_FALSE(cache.contains(point));
  // The whole document, still without its '\n': a writer mid-append.
  write_text(pack, line.substr(half, line.size() - half - 1), std::ios::app);
  cache.refresh();
  EXPECT_FALSE(cache.contains(point));
  write_text(pack, "\n", std::ios::app);
  cache.refresh();
  const auto back = cache.load(point);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), result.dump());
}

TEST(ResultCache, ValidRecordLoadsPastACorruptOneOfTheSameKey) {
  ScratchDir dir("dupkey");
  const auto cache_dir = dir.path / "c";
  fs::create_directories(cache_dir);
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  result["metrics"]["efficiency"] = 0.5;
  const std::string good = record_line(point, result);
  // The key's first record holds another point's spec (a hash collision
  // or a stale schema), its second is cut off mid-document, and only the
  // third is whole.
  auto other_result = result;
  other_result["metrics"]["efficiency"] = 0.9;
  const std::string other =
      record_line(small_grid().expand()[1], other_result);
  write_text(cache_dir / "dup.pack",
             point.cache_key() + other.substr(other.find(' ')) +
                 good.substr(0, good.size() - 10) + "\n" + good);
  const auto back = ResultCache(cache_dir.string()).load(point);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->dump(), result.dump());
}

TEST(ResultCache, OldOneFilePerPointLayoutReadsAsAllMisses) {
  // Before packs, each point was `<dir>/<cache_key>.json` holding the
  // indented entry document.  Such a directory is never read.
  ScratchDir dir("oldlayout");
  const auto cache_dir = dir.path / "c";
  fs::create_directories(cache_dir);
  const auto point = small_grid().expand().front();
  auto result = sim::Json::object();
  result["metrics"] = sim::Json::object();
  auto entry = sim::Json::object();
  entry["key"] = point.canonical();
  entry["result"] = result;
  const auto old_entry = cache_dir / (point.cache_key() + ".json");
  write_text(old_entry, entry.dump(2) + "\n");
  ResultCache cache(cache_dir.string());
  EXPECT_FALSE(cache.load(point).has_value());
  cache.store(point, result);
  EXPECT_TRUE(cache.contains(point));
  EXPECT_EQ(read_text(old_entry), entry.dump(2) + "\n");
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

  // Simulate a campaign killed mid-append: the pack ends partway through
  // its last record (a torn tail), and another record is damaged in place.
  const auto packs = files_with(options.cache_dir, ".pack");
  ASSERT_EQ(packs.size(), 1u);
  std::string pack = read_text(packs[0]);
  ASSERT_EQ(std::count(pack.begin(), pack.end(), '\n'), 4);
  const std::size_t last = pack.rfind('\n', pack.size() - 2) + 1;
  pack.resize(last + (pack.size() - last) / 2);
  const std::size_t second = pack.find('\n') + 1;
  pack.replace(pack.find(' ', second) + 1, 8, "garbage!");
  write_text(packs[0], pack);

  const auto resumed = run_campaign(s, options);
  EXPECT_EQ(resumed.executed, 2u);
  EXPECT_EQ(resumed.cached, 2u);
  EXPECT_EQ(resumed.report.dump(), first.report.dump())
      << "resume must reproduce the interrupted campaign's report";
}

TEST(Campaign, StoresAppendToOnePackAndCreateNoPerPointFile) {
  // Two job threads share the run's cache, and every store is an append
  // to its one pack: no per-point entry file, no temp file.
  ScratchDir dir("onepack");
  CampaignOptions options;
  options.cache_dir = (dir.path / "cache").string();
  options.jobs = 2;
  const auto result = run_campaign(small_grid(), options);
  EXPECT_EQ(result.executed, 4u);
  EXPECT_EQ(files_with(options.cache_dir, ".pack").size(), 1u);
  EXPECT_TRUE(files_with(options.cache_dir, ".json").empty());
  EXPECT_TRUE(files_with(options.cache_dir, ".tmp.").empty());
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
