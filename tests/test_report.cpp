// Tests for the structured report layer: the Json value type and its
// parser, the Report document schema, and the Chrome-trace event sink.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/report.hpp"
#include "sim/stats.hpp"

namespace {

using namespace cfm::sim;

TEST(Json, RoundTripsEveryKind) {
  auto obj = Json::object();
  obj["null"] = nullptr;
  obj["truth"] = true;
  obj["lie"] = false;
  obj["int"] = std::int64_t{-42};
  obj["uint"] = std::uint64_t{18446744073709551615ULL};
  obj["pi"] = 3.141592653589793;
  obj["text"] = "hello";
  auto arr = Json::array();
  arr.push_back(1);
  arr.push_back("two");
  arr.push_back(Json::object({{"nested", 3.5}}));
  obj["list"] = std::move(arr);

  const auto compact = Json::parse(obj.dump());
  EXPECT_EQ(compact, obj);
  const auto pretty = Json::parse(obj.dump(2));
  EXPECT_EQ(pretty, obj);
}

TEST(Json, PreservesFullUint64AndInt64) {
  auto obj = Json::object();
  obj["max_u"] = std::uint64_t{18446744073709551615ULL};
  obj["min_i"] = std::int64_t{-9223372036854775807LL - 1};
  const auto back = Json::parse(obj.dump());
  EXPECT_EQ(back.at("max_u").as_uint(), 18446744073709551615ULL);
  EXPECT_EQ(back.at("min_i").as_int(), -9223372036854775807LL - 1);
}

TEST(Json, StringEscapesRoundTrip) {
  const std::string nasty = "quote \" backslash \\ newline \n tab \t ctrl \x01";
  Json j = nasty;
  const auto back = Json::parse(j.dump());
  EXPECT_EQ(back.as_string(), nasty);
}

TEST(Json, DoubleFormattingRoundTrips) {
  for (const double d : {0.0, -0.0, 1.0, 0.1, 1e-300, 1e300, 1.0 / 3.0}) {
    Json j = d;
    const auto back = Json::parse(j.dump());
    EXPECT_DOUBLE_EQ(back.as_double(), d) << "value " << d;
  }
}

TEST(Json, ObjectKeysSerializeSorted) {
  auto obj = Json::object();
  obj["zebra"] = 1;
  obj["apple"] = 2;
  obj["mango"] = 3;
  const auto text = obj.dump();
  EXPECT_LT(text.find("apple"), text.find("mango"));
  EXPECT_LT(text.find("mango"), text.find("zebra"));
}

TEST(Json, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), JsonParseError);
  EXPECT_THROW((void)Json::parse("{"), JsonParseError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonParseError);
  EXPECT_THROW((void)Json::parse("{\"a\": 1} trailing"), JsonParseError);
  EXPECT_THROW((void)Json::parse("nul"), JsonParseError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonParseError);
}

// Regression: a 200 000-deep "[[[..." used to recurse until the stack
// overflowed.  Nesting is bounded; the error names the depth.
TEST(Json, ParseRejectsNestingBeyondTheDepthLimit) {
  const auto arrays = [](std::size_t depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  constexpr std::size_t kMax = Json::kMaxParseDepth;
  EXPECT_NO_THROW((void)Json::parse(arrays(kMax)));
  for (const std::size_t depth : {kMax + 1, std::size_t{200000}}) {
    try {
      (void)Json::parse(arrays(depth));
      FAIL() << "depth " << depth << " was accepted";
    } catch (const JsonParseError& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("nesting depth " + std::to_string(kMax + 1)),
                std::string::npos)
          << what;
    }
  }
  // Objects count toward the same limit.
  std::string objects;
  for (std::size_t i = 0; i <= kMax; ++i) objects += "{\"a\":";
  objects += "1" + std::string(kMax + 1, '}');
  EXPECT_THROW((void)Json::parse(objects), JsonParseError);
}

TEST(Json, AccessorsEnforceKind) {
  Json s = "text";
  EXPECT_THROW((void)s.as_array(), std::logic_error);
  auto obj = Json::object();
  obj["present"] = 1;
  EXPECT_TRUE(obj.contains("present"));
  EXPECT_FALSE(obj.contains("absent"));
  EXPECT_THROW((void)obj.at("absent"), std::out_of_range);
}

TEST(Report, EmitsSchemaAndAllSections) {
  Report report("unit");
  report.set_param("processors", 8);
  report.add_scalar("efficiency", 0.5);

  CounterSet counters;
  counters.inc(counters.intern("hits"), 3);
  counters.inc(counters.intern("misses"), 1);
  report.add_counters("cache", counters);

  RunningStat stat;
  for (const double x : {1.0, 2.0, 3.0}) stat.add(x);
  report.add_stat("latency", stat);

  Histogram hist(1.0, 10);
  for (int i = 0; i < 100; ++i) hist.add(static_cast<double>(i % 10));
  report.add_histogram("spread", hist);

  report.add_row("curve", Json::object({{"x", 1}, {"y", 2.0}}));
  report.add_row("curve", Json::object({{"x", 2}, {"y", 4.0}}));
  report.add_section("extra", Json::object({{"note", "hi"}}));

  const auto j = report.to_json();
  EXPECT_EQ(j.at("schema").as_string(), Report::kSchema);
  EXPECT_EQ(j.at("name").as_string(), "unit");
  EXPECT_EQ(j.at("params").at("processors").as_uint(), 8u);
  EXPECT_DOUBLE_EQ(j.at("metrics").at("efficiency").as_double(), 0.5);
  EXPECT_EQ(j.at("counters").at("cache").at("hits").as_uint(), 3u);
  EXPECT_EQ(j.at("stats").at("latency").at("count").as_uint(), 3u);
  EXPECT_DOUBLE_EQ(j.at("stats").at("latency").at("mean").as_double(), 2.0);
  EXPECT_EQ(j.at("histograms").at("spread").at("total").as_uint(), 100u);
  EXPECT_EQ(j.at("tables").at("curve").size(), 2u);
  EXPECT_EQ(j.at("extra").at("note").as_string(), "hi");

  // The streamed form parses back to the same document.
  std::ostringstream os;
  report.write(os);
  EXPECT_EQ(Json::parse(os.str()), j);
}

TEST(Report, StatSummaryRoundTrip) {
  RunningStat stat;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) stat.add(x);
  const auto summary = stat_summary_from_json(to_json(stat));
  EXPECT_EQ(summary.count, 8u);
  EXPECT_DOUBLE_EQ(summary.mean, 5.0);
  EXPECT_DOUBLE_EQ(summary.min, 2.0);
  EXPECT_DOUBLE_EQ(summary.max, 9.0);
  EXPECT_DOUBLE_EQ(summary.sum, 40.0);
  EXPECT_NEAR(summary.stddev, stat.stddev(), 1e-12);
}

TEST(Report, CountersRoundTrip) {
  CounterSet counters;
  counters.inc(counters.intern("restarts"), 17);
  counters.inc(counters.intern("invalidations"), 5);
  const auto back = counters_from_json(to_json(counters));
  EXPECT_EQ(back.get("restarts"), 17u);
  EXPECT_EQ(back.get("invalidations"), 5u);
  EXPECT_EQ(back.all().size(), 2u);
}

TEST(Report, CounterValuesMustBeNonNegativeIntegers) {
  // A negative value used to wrap and a fractional one to truncate:
  // merging {"ops_completed":5} with {"ops_completed":-1,"restarts":2.7}
  // gave {"ops_completed":4,"restarts":2}.
  const auto five = Json::parse(R"({"ops_completed": 5})");
  for (const char* bad : {R"({"ops_completed": -1})", R"({"restarts": 2.7})",
                          R"({"restarts": 1e30})", R"({"restarts": "3"})"}) {
    const auto b = Json::parse(bad);
    EXPECT_THROW((void)counters_from_json(b), std::invalid_argument) << bad;
    CounterSet merged = counters_from_json(five);
    EXPECT_THROW(add_counters_json(merged, b), std::invalid_argument) << bad;
  }
  try {
    (void)counters_from_json(Json::parse(R"({"restarts": 2.7})"));
    ADD_FAILURE() << "2.7 accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("restarts"), std::string::npos)
        << e.what();
  }
  // Integral doubles are exact.
  CounterSet merged = counters_from_json(five);
  add_counters_json(merged, Json::parse(R"({"ops_completed": 2.0})"));
  EXPECT_EQ(merged.get("ops_completed"), 7u);
}

TEST(Report, HistogramJsonIncludesQuantiles) {
  Histogram hist(1.0, 100);
  for (int i = 1; i <= 100; ++i) hist.add(static_cast<double>(i - 1));
  const auto j = to_json(hist, {0.5, 0.9});
  EXPECT_EQ(j.at("total").as_uint(), 100u);
  EXPECT_TRUE(j.at("quantiles").contains("p50"));
  EXPECT_TRUE(j.at("quantiles").contains("p90"));
  EXPECT_NEAR(j.at("quantiles").at("p50").as_double(), hist.quantile(0.5),
              1e-12);
}

TEST(ChromeTrace, CollectsEventsAsJsonArray) {
  ChromeTrace trace;
  trace.instant("issue", "sim", 10.0, 1);
  trace.complete("phase", "engine", 0.0, 42.5, 2);
  trace.counter("queue_depth", 5.0, 3.0);
  EXPECT_EQ(trace.event_count(), 3u);

  const auto j = trace.to_json();
  ASSERT_TRUE(j.is_array());
  ASSERT_EQ(j.size(), 3u);
  const auto& arr = j.as_array();
  EXPECT_EQ(arr[0].at("ph").as_string(), "i");
  EXPECT_EQ(arr[0].at("name").as_string(), "issue");
  EXPECT_EQ(arr[1].at("ph").as_string(), "X");
  EXPECT_DOUBLE_EQ(arr[1].at("dur").as_double(), 42.5);
  EXPECT_EQ(arr[2].at("ph").as_string(), "C");

  // The streamed form is valid chrome://tracing input (a JSON array).
  std::ostringstream os;
  trace.write(os);
  EXPECT_EQ(Json::parse(os.str()), j);
}

}  // namespace
