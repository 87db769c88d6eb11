// Serving front end (DESIGN.md §13): line protocol, open-loop arrival
// processes, admission control / deterministic shedding, SLO accounting,
// and the headline invariant — a fixed (requests, options, seed) triple
// produces a byte-identical cfm-serve-report/v1 document on every engine
// configuration (serial / parallel, fast path on / off, any span) and
// across a kill / re-feed of the same request stream.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "serve/arrival.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"

using namespace cfm;
using namespace cfm::serve;

namespace {

/// Restores the process-wide engine tuning even when a test fails.
struct TuningGuard {
  explicit TuningGuard(const sim::EngineTuning& t) {
    sim::set_engine_tuning(t);
  }
  ~TuningGuard() { sim::set_engine_tuning({}); }
};

std::string serve_report(const ServeOptions& opts,
                         const std::vector<Request>& requests) {
  Server server(opts);
  server.submit(requests);
  server.drain();
  return server.report_json().dump();
}

}  // namespace

// ---------------------------------------------------------------------------
// Line protocol.

TEST(Protocol, ParsesAllRequestKinds) {
  EXPECT_EQ(*parse_request_line("read 42"), (Request{RequestKind::Read, 42}));
  EXPECT_EQ(*parse_request_line("write 7"), (Request{RequestKind::Write, 7}));
  EXPECT_EQ(*parse_request_line("swap 0"), (Request{RequestKind::Swap, 0}));
  EXPECT_EQ(*parse_request_line("lock 99"), (Request{RequestKind::Lock, 99}));
  EXPECT_EQ(*parse_request_line("  read   5  "),
            (Request{RequestKind::Read, 5}));
}

TEST(Protocol, SkipsBlanksAndComments) {
  EXPECT_FALSE(parse_request_line("").has_value());
  EXPECT_FALSE(parse_request_line("   ").has_value());
  EXPECT_FALSE(parse_request_line("# a comment").has_value());
}

TEST(Protocol, MalformedLinesThrow) {
  EXPECT_THROW((void)parse_request_line("read"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("read abc"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("frob 3"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("read 3 4"), std::invalid_argument);
  EXPECT_THROW((void)parse_request_line("read -1"), std::invalid_argument);
}

TEST(Protocol, StreamErrorsNameTheLine) {
  std::istringstream is("read 1\n\nfrob 2\n");
  try {
    (void)parse_request_stream(is, "reqs.txt");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("reqs.txt:3"), std::string::npos)
        << e.what();
  }
}

TEST(Protocol, SynthIsDeterministicAndMixed) {
  const auto a = synth_requests(500, 0.25, 0.1, 0.1, 64, 42);
  const auto b = synth_requests(500, 0.25, 0.1, 0.1, 64, 42);
  EXPECT_EQ(a, b);
  const auto c = synth_requests(500, 0.25, 0.1, 0.1, 64, 43);
  EXPECT_NE(a, c);
  std::size_t kinds[4] = {0, 0, 0, 0};
  for (const auto& r : a) {
    ++kinds[static_cast<std::size_t>(r.kind)];
    EXPECT_LT(r.block, 64u);
  }
  for (const auto count : kinds) EXPECT_GT(count, 0u);
}

// ---------------------------------------------------------------------------
// Open-loop arrival processes.

TEST(Arrival, SameSeedSameSchedule) {
  for (const auto shape : {"poisson", "bursty", "diurnal"}) {
    const auto cfg = ArrivalConfig::parse(shape);
    const auto a = generate_arrivals(cfg, 5, 2000);
    const auto b = generate_arrivals(cfg, 5, 2000);
    EXPECT_EQ(a, b) << shape;
    const auto c = generate_arrivals(cfg, 6, 2000);
    EXPECT_NE(a, c) << shape;
  }
}

TEST(Arrival, SchedulesAreNondecreasing) {
  for (const auto shape : {"poisson", "bursty", "diurnal"}) {
    const auto arrivals =
        generate_arrivals(ArrivalConfig::parse(shape), 11, 2000);
    for (std::size_t i = 1; i < arrivals.size(); ++i) {
      ASSERT_GE(arrivals[i], arrivals[i - 1]) << shape << " @" << i;
    }
  }
}

TEST(Arrival, ShapesHitTheConfiguredMeanRate) {
  // All three shapes target the same long-run mean; check the empirical
  // rate over a long horizon to within 10%.
  for (const auto shape : {"poisson", "bursty", "diurnal"}) {
    auto cfg = ArrivalConfig::parse(shape);
    cfg.rate = 0.05;
    const std::size_t n = 50000;
    const auto arrivals = generate_arrivals(cfg, 3, n);
    const auto span = static_cast<double>(arrivals.back());
    const auto measured = static_cast<double>(n) / span;
    EXPECT_NEAR(measured, cfg.rate, cfg.rate * 0.1) << shape;
  }
}

TEST(Arrival, ConfigRoundTripsAndRejectsBadInput) {
  const auto cfg =
      ArrivalConfig::parse("bursty:rate=0.1,burst_factor=4,duty=0.2");
  const auto again = ArrivalConfig::parse(cfg.to_string());
  EXPECT_EQ(cfg.to_string(), again.to_string());
  EXPECT_THROW((void)ArrivalConfig::parse("square"), std::invalid_argument);
  EXPECT_THROW((void)ArrivalConfig::parse("poisson:rate=0"),
               std::invalid_argument);
  EXPECT_THROW((void)ArrivalConfig::parse("poisson:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ArrivalConfig::parse("bursty:burst_factor=1"),
               std::invalid_argument);
  EXPECT_THROW((void)ArrivalConfig::parse("diurnal:swing=1.5"),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// End-to-end serving.

TEST(Serve, CompletesEveryRequestUnderLightLoad) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.01");
  opts.audit = true;
  Server server(opts);
  server.submit(synth_requests(800, 0.25, 0.05, 0.05, 256, 2));
  EXPECT_TRUE(server.drain());
  const auto& st = server.stats();
  EXPECT_EQ(st.offered, 800u);
  EXPECT_EQ(st.completed, 800u);
  EXPECT_EQ(st.rejected, 0u);
  EXPECT_EQ(st.failed, 0u);
  EXPECT_EQ(server.outstanding(), 0u);
  ASSERT_NE(server.auditor(), nullptr);
  EXPECT_EQ(server.auditor()->violations(), 0u);
}

TEST(Serve, LockRequestsSplitIntoAcquiredAndBusy) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.02");
  Server server(opts);
  // Everyone hammers the same lock word: exactly one test-and-set can see
  // word 0 == 0; every later one must find it held.
  std::vector<Request> reqs(64, Request{RequestKind::Lock, 7});
  server.submit(reqs);
  EXPECT_TRUE(server.drain());
  const auto& st = server.stats();
  EXPECT_EQ(st.lock_acquired, 1u);
  EXPECT_EQ(st.lock_busy, 63u);
}

TEST(Serve, OverloadShedsDeterministically) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("bursty:rate=0.5,burst_factor=8");
  opts.queue_depth = 8;
  opts.seed = 3;
  const auto reqs = synth_requests(3000, 0.25, 0.05, 0.05, 512, 3);
  const auto a = serve_report(opts, reqs);
  const auto b = serve_report(opts, reqs);
  EXPECT_EQ(a, b);
  Server server(opts);
  server.submit(reqs);
  server.drain();
  const auto& st = server.stats();
  EXPECT_GT(st.rejected, 0u);
  EXPECT_EQ(st.offered, st.accepted + st.rejected);
  EXPECT_EQ(st.accepted, st.completed + st.failed);
}

TEST(Serve, SloAttainmentTracksTheBound) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.01");
  opts.slo = 1;  // unattainably tight: every completion misses
  Server tight(opts);
  tight.submit(synth_requests(200, 0.0, 0.0, 0.0, 64, 5));
  tight.drain();
  EXPECT_EQ(tight.stats().within_slo, 0u);

  opts.slo = 0;  // default 4 * beta: light load completes within it
  Server loose(opts);
  loose.submit(synth_requests(200, 0.0, 0.0, 0.0, 64, 5));
  loose.drain();
  EXPECT_EQ(loose.stats().within_slo, loose.stats().completed);
}

TEST(Serve, FaultPlanDegradesGracefully) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.05");
  opts.fault_plan = "bank_dead@500:module=0,bank=3";
  opts.spare_banks = 1;
  opts.audit = true;
  Server server(opts);
  server.submit(synth_requests(1500, 0.25, 0.05, 0.05, 256, 8));
  server.drain();
  const auto& st = server.stats();
  // Degraded, not broken: everything offered resolves (completed or
  // failed after bounded retries), and the conflict-free invariant holds
  // on the remapped machine.
  EXPECT_EQ(st.offered, 1500u);
  EXPECT_EQ(st.completed + st.failed, 1500u);
  EXPECT_GT(st.completed, 1000u);
  ASSERT_NE(server.auditor(), nullptr);
  EXPECT_EQ(server.auditor()->violations(), 0u);
  const auto report = server.report_json();
  EXPECT_TRUE(report.contains("audit"));
}

TEST(Serve, FaultPlanNamingAMissingBankIsRejected) {
  // 16 processors, c = 2: banks [0, 32).  Bank 40 does not exist, so the
  // plan would be inert; the server refuses it and names the bank.
  ServeOptions opts;
  opts.fault_plan = "bank_dead@0:bank=40";
  try {
    Server server(opts);
    FAIL() << "a fault plan naming bank 40 of 32 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bank 40"), std::string::npos) << what;
    EXPECT_NE(what.find("32"), std::string::npos) << what;
  }
  opts.fault_plan = "bank_dead@0:bank=31";
  EXPECT_NO_THROW(Server{opts});
}

// Regression: serve runs one module with no network, so a fault aimed at
// another module or at the interconnect used to leave a healthy machine
// running, and bank=4294967296 wrapped to bank 0 and killed that bank.
TEST(Serve, FaultPlanNamingMissingHardwareIsRejected) {
  ServeOptions opts;
  for (const char* plan :
       {"bank_dead@0:module=3,bank=1", "brownout@0+100:module=5",
        "drop@0:prob=0.5", "omega_link@0:stage=0,link=1",
        "bank_dead@0:bank=4294967296"}) {
    opts.fault_plan = plan;
    EXPECT_THROW(Server{opts}, std::invalid_argument) << plan;
  }
  opts.fault_plan = "brownout@0+100:module=0";
  EXPECT_NO_THROW(Server{opts});
}

TEST(Serve, ThreadsOtherThanOneIsRejected) {
  // The engine is serial; a multi-threaded request is refused, not
  // silently served on one thread.
  ServeOptions opts;
  opts.threads = 2;
  try {
    Server server(opts);
    FAIL() << "threads = 2 was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("threads = 2"), std::string::npos) << what;
  }
  opts.threads = 0;
  EXPECT_THROW(Server{opts}, std::invalid_argument);
  opts.threads = 1;
  EXPECT_NO_THROW(Server{opts});
}

// ---------------------------------------------------------------------------
// Report determinism across engine configurations.

TEST(Serve, ReportByteIdenticalAcrossEngineConfigs) {
  // The batched serve path (audit off) is the one production runs; the
  // audited one pins the memory to per-slot ticks.  Both must match the
  // per-cycle reference, on a cold mix and on a hot one: eight blocks
  // with swaps and locks, so ops contend, restart and abort (and the
  // ports retry).
  struct Case {
    const char* shape;
    std::vector<Request> reqs;
  };
  const std::vector<Case> cases = {
      {"poisson:rate=0.05", synth_requests(1200, 0.25, 0.05, 0.05, 512, 17)},
      {"bursty:rate=0.2,burst_factor=4",
       synth_requests(1200, 0.25, 0.05, 0.05, 512, 17)},
      {"diurnal:rate=0.05", synth_requests(1200, 0.25, 0.05, 0.05, 512, 17)},
      {"poisson:rate=0.2", synth_requests(1500, 0.4, 0.15, 0.15, 8, 17)},
  };
  for (const auto& c : cases) {
    for (const bool audit : {false, true}) {
      ServeOptions opts;
      opts.arrival = ArrivalConfig::parse(c.shape);
      opts.seed = 17;
      opts.audit = audit;

      std::string reference;
      {
        TuningGuard guard({.fast_path = false, .max_span = 1});
        Server server(opts);
        server.submit(c.reqs);
        server.drain();
        reference = server.report_json().dump();
        if (c.reqs.size() == 1500) {
          // The hot mix really contends: plain writes abort and retry.
          EXPECT_GT(server.stats().retried, 0u);
        }
      }
      for (const sim::Cycle span :
           {sim::Cycle{1}, sim::Cycle{7}, sim::Cycle{64}}) {
        TuningGuard guard({.fast_path = true, .max_span = span});
        EXPECT_EQ(serve_report(opts, c.reqs), reference)
            << c.shape << " audit=" << audit << " span=" << span;
      }
    }
  }
}

TEST(Serve, ReportByteIdenticalAcrossKillAndRefeed) {
  // An operator killing the server halfway and re-feeding the same
  // request file must reproduce the original report: arrivals are a pure
  // function of (config, seed), not of feeding cadence.
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.05");
  opts.seed = 23;
  const auto reqs = synth_requests(900, 0.25, 0.05, 0.05, 256, 23);
  const auto one_shot = serve_report(opts, reqs);

  Server restarted(opts);
  // Feed in ragged batches with interleaved partial runs — the "second
  // process" replaying the same file after a kill.
  std::size_t fed = 0;
  const std::size_t batches[] = {100, 350, 1, 449};
  for (const auto batch : batches) {
    restarted.submit(std::vector<Request>(reqs.begin() + fed,
                                          reqs.begin() + fed + batch));
    fed += batch;
    restarted.run(batch);  // partial progress between feeds
  }
  ASSERT_EQ(fed, reqs.size());
  restarted.drain();
  EXPECT_EQ(restarted.report_json().dump(), one_shot);
}

// ---------------------------------------------------------------------------
// Time-series telemetry (DESIGN.md §14).

TEST(Serve, TimeseriesByteIdenticalAcrossEnginesUnderFaults) {
  // The flight recorder must not observe the engine's pacing: series
  // bytes are a pure function of (requests, options, seed) even while a
  // fault plan is perturbing service mid-run.
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("bursty:rate=0.2,burst_factor=4");
  opts.seed = 31;
  opts.fault_plan = "bank_dead@2000:module=0,bank=3;brownout@6000+200:module=0";
  opts.spare_banks = 1;
  const auto reqs = synth_requests(1200, 0.25, 0.05, 0.05, 512, 31);

  std::string reference;
  {
    TuningGuard guard({.fast_path = false, .max_span = 1});
    reference = serve_report(opts, reqs);
  }
  EXPECT_NE(reference.find("\"timeseries\""), std::string::npos);
  for (const sim::Cycle span : {sim::Cycle{1}, sim::Cycle{64}}) {
    TuningGuard guard({.fast_path = true, .max_span = span});
    EXPECT_EQ(serve_report(opts, reqs), reference) << "span=" << span;
  }
}

TEST(Serve, DownsamplingDeterministicAcrossKillAndRefeed) {
  // A tiny recorder forces several scale-doubling folds mid-run.  Folding
  // happens eagerly as the run proceeds, so a killed-and-refed server
  // folds at different moments — the exported series must not notice.
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.1");
  opts.seed = 23;
  opts.telemetry_capacity = 8;
  const auto reqs = synth_requests(1200, 0.25, 0.05, 0.05, 256, 23);
  const auto one_shot = serve_report(opts, reqs);

  Server restarted(opts);
  std::size_t fed = 0;
  const std::size_t batches[] = {100, 350, 1, 749};
  for (const auto batch : batches) {
    restarted.submit(std::vector<Request>(reqs.begin() + fed,
                                          reqs.begin() + fed + batch));
    fed += batch;
    restarted.run(batch);
  }
  ASSERT_EQ(fed, reqs.size());
  restarted.drain();
  const auto report = restarted.report_json();
  EXPECT_EQ(report.dump(), one_shot);
  const auto& ts = report.at("timeseries");
  EXPECT_LE(ts.at("windows").as_array().size(), 8u);
  EXPECT_GT(ts.at("scale").as_uint(), 1u);
}

TEST(Serve, TimeseriesRecordsFaultDipAndRecovery) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.1");
  opts.seed = 7;
  opts.fault_plan = "bank_dead@2000:module=0,bank=3";
  opts.spare_banks = 1;
  Server server(opts);
  server.submit(synth_requests(1500, 0.25, 0.05, 0.05, 256, 7));
  server.drain();
  const auto doc = server.report_json();

  // The live-bank gauge must show the dip from the configured bank count.
  const auto& ts = doc.at("timeseries");
  const auto& gauges = ts.at("gauges").as_array();
  std::size_t live_banks = gauges.size();
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    if (gauges[i].as_string() == "live_banks") live_banks = i;
  }
  ASSERT_LT(live_banks, gauges.size());
  double lo = 1e9, hi = 0;
  for (const auto& w : ts.at("windows").as_array()) {
    const double v = w.at("gauges").as_array()[live_banks].as_double();
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  EXPECT_LT(lo, hi);  // the dead bank is visible in the series

  // And the derived recovery table attributes a bounded MTTR to it.
  const auto& recovery = doc.at("tables").at("recovery").as_array();
  ASSERT_EQ(recovery.size(), 1u);
  EXPECT_EQ(recovery[0].at("kind").as_string(), "bank_dead");
  EXPECT_GT(recovery[0].at("degraded_windows").as_uint(), 0u);
  EXPECT_TRUE(recovery[0].at("recovered").as_bool());
  EXPECT_GT(recovery[0].at("mttr_cycles").as_uint(), 0u);
}

TEST(Serve, LiveStatsAndMetricsFollowTelemetryToggle) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.05");
  {
    Server server(opts);
    server.submit(synth_requests(300, 0.25, 0.05, 0.05, 128, 3));
    server.drain();
    const auto live = server.live_stats_json();
    ASSERT_FALSE(live.is_null());
    EXPECT_EQ(live.at("schema").as_string(), "cfm-telemetry-live/v1");
    EXPECT_GT(live.at("totals").at("completed").as_uint(), 0u);
    const auto text = server.prometheus_text();
    EXPECT_NE(text.find("# TYPE cfm_completed counter"), std::string::npos);
    EXPECT_NE(text.find("cfm_latency_p99"), std::string::npos);
    EXPECT_TRUE(server.report_json().contains("timeseries"));
  }
  {
    ServeOptions off = opts;
    off.telemetry = false;
    Server server(off);
    server.submit(synth_requests(300, 0.25, 0.05, 0.05, 128, 3));
    server.drain();
    EXPECT_TRUE(server.live_stats_json().is_null());
    EXPECT_TRUE(server.prometheus_text().empty());
    EXPECT_FALSE(server.report_json().contains("timeseries"));
    EXPECT_FALSE(server.report_json().contains("anomalies"));
  }
}

TEST(Serve, ReportHasSchemaAndPercentiles) {
  ServeOptions opts;
  opts.arrival = ArrivalConfig::parse("poisson:rate=0.02");
  Server server(opts);
  server.submit(synth_requests(600, 0.25, 0.05, 0.05, 128, 4));
  server.drain();
  const auto doc = server.report_json();
  EXPECT_EQ(doc.at("schema").as_string(), std::string(Server::kSchema));
  const auto& metrics = doc.at("metrics");
  for (const auto* key :
       {"latency_p50", "latency_p95", "latency_p99", "latency_p999"}) {
    ASSERT_TRUE(metrics.contains(key)) << key;
    EXPECT_GT(metrics.at(key).as_double(), 0.0) << key;
  }
  EXPECT_LE(metrics.at("latency_p50").as_double(),
            metrics.at("latency_p99").as_double());
  EXPECT_EQ(metrics.at("offered").as_uint(),
            metrics.at("accepted").as_uint() +
                metrics.at("rejected").as_uint());
  const auto attain = metrics.at("slo_attainment").as_double();
  EXPECT_GE(attain, 0.0);
  EXPECT_LE(attain, 1.0);
}
