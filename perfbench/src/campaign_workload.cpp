// campaign_mixed: in-process campaign::run_campaign (one job) over three
// generated scenarios — a cfm grid with audit, a coded grid with a mid-run
// dead bank, and a lock grid over the cfm / cached / snoopy variants.
// Pass 1 starts from an empty result cache; pass 2 is served from it.
#include <algorithm>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/cache.hpp"
#include "campaign/campaign.hpp"
#include "campaign/executor.hpp"
#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

namespace campaign = cfm::campaign;
using cfm::sim::Json;

/// One job: the points then run one after the other, so pass 1 is their
/// pieces plus a remainder, and a point's least time over the repetitions
/// can stand for it (see set_end_to_end).  Two jobs wait for each other
/// and for the disk, and their pass time spread by 0.21 over ten runs.
constexpr unsigned kJobs = 1;
/// Seed-axis length of each grid: 9, 4 and 6 points per seed, so a pass
/// runs 1007 points and chunk_ms_p99 has ten points beyond it.
constexpr int kSeedsPerGrid = 53;

/// `count` seed-axis values drawn from the run's seed.
std::string seed_axis(std::uint64_t seed, std::uint64_t tag, int count) {
  std::string out = "[";
  for (int i = 0; i < count; ++i) {
    if (i != 0) out += ", ";
    out += std::to_string(derive_seed(seed, tag * 1000 + i) % 1000000007ULL);
  }
  return out + "]";
}

/// The three scenario documents; grid shapes are fixed, the seed only
/// picks the RNG streams.  Points are short (2000-3000 cycles, about a
/// millisecond each), so one run times every point a dozen times or more.
std::vector<std::string> scenario_texts(std::uint64_t seed) {
  const std::string base = std::to_string(derive_seed(seed, 10) % 1000000007);
  return {
      R"({ "name": "bench_cfm", "workload": "cfm", "audit": true,
           "params": { "rate": 0.2, "cycles": 2000 },
           "sweep": { "n": [2, 4, 8], "c": [1, 2, 4], "seed": )" +
          seed_axis(seed, 11, kSeedsPerGrid) + R"( },
           "base_seed": )" + base + " }",
      R"({ "name": "bench_coded", "workload": "coded", "audit": true,
           "fault_plan": "bank_dead@1000:module=0,bank=3",
           "params": { "n": 8, "c": 2, "rate": 0.25, "cycles": 3000,
                       "data_banks": 8, "stripe_width": 4,
                       "write_fraction": 0.3 },
           "sweep": { "code_rate": [0.5, 0.8],
                      "parity_policy": ["rmw", "logged"], "seed": )" +
          seed_axis(seed, 12, kSeedsPerGrid) + R"( },
           "base_seed": )" + base + " }",
      R"({ "name": "bench_lock", "workload": "lock",
           "params": { "hold": 8, "cycles": 3000 },
           "sweep": { "variant": ["cfm", "cached", "snoopy"],
                      "contenders": [4, 8], "seed": )" +
          seed_axis(seed, 13, kSeedsPerGrid) + R"( },
           "base_seed": )" + base + " }",
  };
}

struct Pass {
  double setup_s = 0.0;  ///< parse + expand the scenarios
  double pass1_s = 0.0;  ///< every point executed
  double pass2_s = 0.0;  ///< every point from the result cache
  /// Pass-1 run_point calls, and each point's piece of pass 1 (run_point
  /// through its cache store), in point order, so every repetition lists
  /// the same points alike.
  std::vector<double> point_ms;
  std::vector<double> piece_ms;
  std::map<std::string, std::vector<double>> point_s;  ///< by family
  std::vector<campaign::Scenario> scenarios;
  std::vector<Json> reports;  ///< pass 1, one per scenario
  std::vector<std::string> texts;
  std::size_t points = 0;
  std::uint64_t cycles = 0;  ///< simulated cycles over all points
  // Memory requests of the cfm and coded points (lock farms count
  // acquisitions, not requests).
  std::uint64_t mem_completed = 0;
  std::uint64_t mem_offered = 0;  ///< completed + failed + unfinished
  std::uint64_t mem_cycles = 0;
  std::vector<double> mem_latency;  ///< each point's mean access time
  std::size_t failed_points = 0;
};

/// Parses and expands the scenarios this many times per pass; setup_s is
/// the median, since one parse takes about a millisecond.
constexpr int kParseRepeats = 9;
/// Pass-2 repeats per pass (see campaign_pass).
constexpr int kCachedPasses = 8;

Pass campaign_pass(const Options& opt, Tracer& tracer, Result& r,
                   bool keep_cache) {
  Pass p;
  Span pass(tracer, "bench.campaign_pass");
  const auto texts = scenario_texts(opt.seed);
  std::vector<double> parse_s;
  for (int i = 0; i < kParseRepeats; ++i) {
    const auto t0 = Clock::now();
    p.scenarios.clear();
    p.points = 0;
    for (const auto& text : texts) {
      Span s(tracer, "campaign.parse_expand");
      p.scenarios.push_back(campaign::Scenario::parse_text(text));
      p.points += p.scenarios.back().expand().size();
    }
    parse_s.push_back(seconds_between(t0, Clock::now()));
  }
  p.setup_s = median(std::move(parse_s));

  const std::string cache_dir = opt.work_dir + "/campaign_cache";
  std::filesystem::remove_all(cache_dir);
  std::mutex mx;
  // (rng seed, ms), in completion order
  std::vector<std::pair<std::uint64_t, double>> point_ms, piece_ms;
  campaign::CampaignOptions co;
  co.cache_dir = cache_dir;
  co.jobs = kJobs;
  // A point's piece of pass 1 runs from run_point's start to its progress
  // line, which the executor announces on the same thread right after the
  // point's cache store.
  struct Ran {
    std::uint64_t key = 0;
    Clock::time_point start;
  };
  static thread_local Ran ran;
  co.progress = [&](const std::string&) {
    const double ms = 1e3 * seconds_between(ran.start, Clock::now());
    std::lock_guard<std::mutex> lock(mx);
    piece_ms.emplace_back(ran.key, ms);
  };

  const auto t1 = Clock::now();
  for (const auto& scenario : p.scenarios) {
    Span s(tracer, "campaign.run_campaign");
    const auto parent = s.id();
    co.runner = [&, parent](const campaign::PointSpec& point) {
      Span ps(tracer, "campaign.run_point", parent);
      ran = {point.rng_seed(), Clock::now()};
      Json out = campaign::run_point(point);
      const double dt = ps.stop();
      std::lock_guard<std::mutex> lock(mx);
      point_ms.emplace_back(ran.key, 1e3 * dt);
      p.point_s[std::string(campaign::workload_name(point.workload))]
          .push_back(dt);
      return out;
    };
    auto res = campaign::run_campaign(scenario, co);
    r.check(res.exit_code() == 0, "campaign_exit_code",
            scenario.name() + " pass 1 exit " +
                std::to_string(res.exit_code()));
    r.check(res.executed == res.points, "campaign_pass1_executed",
            scenario.name());
    p.failed_points += res.failed;
    p.reports.push_back(std::move(res.report));
  }
  p.pass1_s = seconds_between(t1, Clock::now());
  for (auto [from, to] : {std::pair{&point_ms, &p.point_ms},
                          std::pair{&piece_ms, &p.piece_ms}}) {
    std::sort(from->begin(), from->end());
    for (const auto& [key, ms] : *from) to->push_back(ms);
  }

  for (const auto& report : p.reports) p.texts.push_back(report.dump());

  // Pass 2 takes a few tens of milliseconds, so it runs several times and
  // keeps its least time; every repeat must match pass 1.
  co.runner = nullptr;
  co.progress = nullptr;
  for (int k = 0; k < kCachedPasses; ++k) {
    const auto t2 = Clock::now();
    std::vector<Json> cached;
    for (const auto& scenario : p.scenarios) {
      Span s(tracer, "campaign.run_campaign");
      auto res = campaign::run_campaign(scenario, co);
      r.check(res.exit_code() == 0, "campaign_exit_code",
              scenario.name() + " pass 2");
      r.check(res.cached == res.points, "campaign_pass2_cached",
              scenario.name());
      cached.push_back(std::move(res.report));
    }
    const double pass2_s = seconds_between(t2, Clock::now());
    p.pass2_s = k == 0 ? pass2_s : std::min(p.pass2_s, pass2_s);
    for (std::size_t i = 0; i < cached.size(); ++i) {
      r.check(cached[i].dump() == p.texts[i], "campaign_pass2_identical",
              p.scenarios[i].name());
    }
  }

  for (const auto& report : p.reports) {
    for (const auto& point : report.at("points").as_array()) {
      const auto cycles = point.at("params").at("cycles").as_uint();
      p.cycles += cycles;
      const auto& m = point.at("metrics");
      if (m.contains("mean_access_time")) {  // cfm and coded points
        const auto completed = m.at("completed").as_uint();
        p.mem_completed += completed;
        p.mem_offered += completed + m.at("failed").as_uint() +
                         m.at("unfinished").as_uint();
        p.mem_cycles += cycles;
        p.mem_latency.push_back(m.at("mean_access_time").as_double());
      }
    }
  }
  const auto& coded = p.reports[1].at("counters");
  r.check(coded.contains("decode_mismatches") &&
              coded.at("decode_mismatches").as_uint() == 0,
          "coded_decode_mismatches");
  if (!keep_cache) std::filesystem::remove_all(cache_dir);
  return p;
}

Json digest_doc(const Pass& p) {
  Json doc = Json::object();
  for (std::size_t i = 0; i < p.reports.size(); ++i) {
    doc[p.scenarios[i].name()] = p.reports[i];
  }
  return doc;
}

void write_reports(const Options& opt, const Pass& p, Result& r) {
  for (std::size_t i = 0; i < p.texts.size(); ++i) {
    const std::string path =
        opt.work_dir + "/" + p.scenarios[i].name() + "_report.json";
    r.check(write_file(path, p.texts[i] + "\n"), "write_report", path);
    r.reports.push_back(path);
  }
}

double max_of(const std::vector<double>& v) {
  double m = 0.0;
  for (const double x : v) m = std::max(m, x);
  return m;
}

/// Per-point cache I/O and aggregation, timed from outside on the cache
/// the traced pass filled: load every point, store it into a second
/// cache, and rebuild each report with campaign::aggregate.
void trace_cache_layers(const Options& opt, const Pass& p, Tracer& tracer,
                        Result& r) {
  const campaign::ResultCache filled(opt.work_dir + "/campaign_cache");
  const std::string probe_dir = opt.work_dir + "/campaign_cache_probe";
  std::filesystem::remove_all(probe_dir);
  const campaign::ResultCache probe(probe_dir);
  std::vector<double> load_s, store_s, aggregate_s;
  for (std::size_t i = 0; i < p.scenarios.size(); ++i) {
    const auto& scenario = p.scenarios[i];
    std::vector<campaign::PointRun> runs;
    for (const auto& spec : scenario.expand()) {
      campaign::PointRun run;
      run.spec = spec;
      {
        Span s(tracer, "campaign.cache_load");
        auto hit = filled.load(spec);
        load_s.push_back(s.stop());
        r.check(hit.has_value(), "campaign_cache_hit", spec.cache_key());
        if (hit) run.result = std::move(*hit);
      }
      {
        Span s(tracer, "campaign.cache_store");
        probe.store(spec, run.result);
        store_s.push_back(s.stop());
      }
      run.cached = true;
      runs.push_back(std::move(run));
    }
    Span s(tracer, "campaign.aggregate");
    const Json report = campaign::aggregate(scenario, runs);
    aggregate_s.push_back(s.stop());
    r.check(report.dump() == p.texts[i], "campaign_aggregate_identical",
            scenario.name());
  }
  std::filesystem::remove_all(probe_dir);
  std::filesystem::remove_all(opt.work_dir + "/campaign_cache");
  r.layer("campaign.cache_load_s", median(load_s));
  r.layer("campaign.cache_store_s", median(store_s));
  double aggregate_total = 0.0;
  for (const double s : aggregate_s) aggregate_total += s;
  r.layer("campaign.aggregate_s", aggregate_total);
}

void set_layers(Result& r, const Pass& p) {
  r.layer("campaign.parse_expand_s", p.setup_s);
  for (const char* family : {"cfm", "coded", "lock"}) {
    const auto it = p.point_s.find(family);
    if (it == p.point_s.end()) continue;
    r.layer(std::string("campaign.run_point_s.") + family + "_p50",
            median(it->second));
    r.layer(std::string("campaign.run_point_s.") + family + "_max",
            max_of(it->second));
  }
  double decode_rate = 0.0;
  double parity_amplification = 0.0;
  const auto& coded_points = p.reports[1].at("points").as_array();
  for (const auto& point : coded_points) {
    decode_rate += point.at("metrics").at("decode_rate").as_double();
    parity_amplification +=
        point.at("metrics").at("parity_amplification").as_double();
  }
  const auto n = static_cast<double>(coded_points.size());
  r.layer("mem.coded.decode_rate", decode_rate / n);
  r.layer("mem.coded.parity_amplification", parity_amplification / n);

}

}  // namespace

void run_campaign(const Options& opt, Tracer& tracer, Result& r) {
  if (opt.trace) {
    Tracer untraced(false, "");
    campaign_pass(opt, untraced, r, false);  // warm-up
    Pass p;
    const double overhead = median_share([&] {
      const Pass base = campaign_pass(opt, untraced, r, false);
      p = campaign_pass(opt, tracer, r, true);
      r.check(base.texts == p.texts, "digest_repeats", "traced pass differs");
      return (p.setup_s + p.pass1_s + p.pass2_s) /
                 (base.setup_s + base.pass1_s + base.pass2_s) -
             1.0;
    });
    r.layer("trace.overhead_share", overhead);
    trace_cache_layers(opt, p, tracer, r);
    set_layers(r, p);
    r.digest = cfm::sim::canonical_hash_hex(digest_doc(p));
    r.attempted = p.points;
    r.failed = p.failed_points;
    r.reps = 1;
    r.chunks = p.point_ms.size();
    write_reports(opt, p, r);
    return;
  }

  std::vector<Rep> reps;
  Pass first;
  const auto start = Clock::now();
  while (more_reps(r.reps, start, opt.seconds)) {
    Pass p = campaign_pass(opt, tracer, r, false);
    reps.push_back({.setup_s = p.setup_s,
                    .run_s = p.pass1_s,
                    .cached_s = p.pass2_s,
                    .chunk_ms = std::move(p.point_ms),
                    .piece_ms = std::move(p.piece_ms)});
    if (r.reps++ == 0) {
      first = std::move(p);
    } else {
      r.check(p.texts == first.texts, "digest_repeats",
              "rep " + std::to_string(r.reps) + " reports differ");
    }
  }
  // Latency percentiles run over the points' mean access times; goodput
  // is requests completed per request offered (the points carry no SLO).
  set_end_to_end(
      r, reps,
      {.requests = static_cast<double>(first.mem_completed),
       .cycles = static_cast<double>(first.cycles),
       .points = static_cast<double>(first.points),
       .cached_points = static_cast<double>(first.points),
       .chunks_tile_run = true},
      {.ops_per_kcycle = 1e3 * static_cast<double>(first.mem_completed) /
                         static_cast<double>(first.mem_cycles),
       .latency_p50 = percentile(first.mem_latency, 50.0),
       .latency_p99 = percentile(first.mem_latency, 99.0),
       .goodput = static_cast<double>(first.mem_completed) /
                  static_cast<double>(first.mem_offered)});
  r.extra["points"] = {static_cast<double>(first.points), "count"};
  r.digest = cfm::sim::canonical_hash_hex(digest_doc(first));
  r.attempted = first.points;
  r.failed = first.failed_points;
  write_reports(opt, first, r);
}

}  // namespace perfbench
