// hier_bsp: the two-level cached machine (8 clusters x 8 processors)
// under the bulk-synchronous think-time driver, serial engine.
#include <memory>
#include <string>
#include <vector>

#include "cache/hierarchical.hpp"
#include "sim/engine.hpp"
#include "workload/hier_driver.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cfm::sim::Cycle;
using cfm::sim::Json;

constexpr Cycle kWarmup = 32768;   ///< fills L1/L2 and the miss pipelines
constexpr Cycle kChunk = 4096;     ///< cycles per Engine::run_for call
constexpr Cycle kHorizon = kWarmup + 2000 * kChunk;

struct Pass {
  double setup_s = 0.0;  ///< build machine + driver, warm up
  double run_s = 0.0;    ///< warm clock through the horizon
  double merged_stats_s = 0.0;
  std::vector<double> chunk_ms;
  std::uint64_t completed = 0;  ///< requests completed after warm-up
  std::uint64_t ticks = 0;      ///< driver ticks after warm-up
  std::uint64_t unresolved = 0; ///< requests in flight at the horizon
  bool coupling_ok = false;
  cfm::sim::RunningStat access_time;
  cfm::sim::CounterSet cache_counters;
  cfm::sim::CounterSet memory_counters;  ///< summed over every CfmMemory
  Json digest_doc;
  Json report;          ///< counters and access time, as a report keeps them
  double reread_s = 0;  ///< parse the serialised report back, per parse
  bool round_trip_ok = false;
};

/// z of the 99th percentile of a standard normal distribution.
constexpr double kNormalZ99 = 2.326;

/// Parses of the (small) report per pass; one alone is too short to time.
constexpr int kReparses = 64;

Pass hier_pass(std::uint64_t seed, Tracer& tracer) {
  Pass p;
  Span pass(tracer, "bench.hier_pass");
  const auto t0 = Clock::now();
  auto engine = std::make_unique<cfm::sim::Engine>(cfm::sim::EngineConfig{});
  auto machine = std::make_unique<cfm::cache::HierarchicalCfm>(
      cfm::cache::HierarchicalCfm::Params{.clusters = 8,
                                          .procs_per_cluster = 8});
  cfm::workload::HierDriver driver(
      "bench.hier_driver", *engine, *machine,
      {.think_min = 128, .think_max = 1024, .shared_fraction = 0.1,
       .barrier = true},
      seed, engine->shard(cfm::sim::kSharedDomain));
  machine->attach(*engine);
  {
    Span s(tracer, "sim.engine.run_for");
    engine->run_for(kWarmup);
  }
  const auto t1 = Clock::now();
  p.setup_s = seconds_between(t0, t1);

  const auto completed0 = driver.completed();
  const auto ticks0 = driver.ticks();
  while (engine->now() < kHorizon) {
    Span s(tracer, "sim.engine.run_for");
    engine->run_for(kChunk);
    p.chunk_ms.push_back(1e3 * s.stop());
  }
  cfm::sim::StatShard merged;
  {
    Span s(tracer, "sim.engine.merged_stats");
    merged = engine->merged_stats();
    p.merged_stats_s = s.stop();
  }
  p.run_s = seconds_between(t1, Clock::now());

  p.completed = driver.completed() - completed0;
  p.ticks = driver.ticks() - ticks0;
  p.unresolved = driver.in_flight();
  p.coupling_ok = machine->check_state_coupling();
  p.access_time = merged.stat("hier.access_time");
  p.cache_counters = machine->counters();
  for (std::uint32_t c = 0; c < 8; ++c) {
    p.memory_counters.merge(machine->cluster_memory(c).counters());
  }
  p.memory_counters.merge(machine->global_memory().counters());
  p.digest_doc = Json::object(
      {{"counters", cfm::sim::to_json(p.cache_counters)},
       {"completed", driver.completed()}});
  p.report = Json::object(
      {{"counters", cfm::sim::to_json(p.cache_counters)},
       {"memory", cfm::sim::to_json(p.memory_counters)},
       {"access_time", cfm::sim::to_json(p.access_time)},
       {"completed", driver.completed()},
       {"in_flight", p.unresolved}});
  const std::string text = p.report.dump();
  Span s(tracer, "sim.json_parse");
  p.round_trip_ok = true;
  for (int i = 0; i < kReparses; ++i) {
    p.round_trip_ok = p.round_trip_ok && Json::parse(text) == p.report;
  }
  p.reread_s = s.stop() / kReparses;
  return p;
}

void check_pass(Result& r, const Pass& p) {
  r.check(p.coupling_ok, "hier_state_coupling",
          "an illegal (L1, L2) state pair (Table 5.3)");
  r.check(p.completed > 0, "hier_progress", "no request completed");
  r.check(p.memory_counters.get("bank_failures_unmapped") == 0,
          "bank_failures_unmapped");
  r.check(p.round_trip_ok, "report_round_trip",
          "the serialised report parses to another document");
  // A request still in flight at the horizon counts as failed.
  r.attempted = p.completed + p.unresolved;
  r.failed = p.unresolved;
}

void set_layers(Result& r, const Pass& p) {
  const auto& cc = p.cache_counters;
  for (const char* name : {"l1_hits", "global_reads", "l2_fills",
                           "phase_retries", "victim_wbs", "fill_races"}) {
    r.layer(std::string("cache.") + name, static_cast<double>(cc.get(name)));
  }
  const auto completed_total = p.digest_doc.at("completed").as_double();
  r.layer("cache.l1_hit_ratio",
          static_cast<double>(cc.get("l1_hits")) / completed_total);
  r.layer("workload.hier_tick_ratio",
          static_cast<double>(p.ticks) /
              static_cast<double>(kHorizon - kWarmup));
  r.layer("sim.engine.run_for_ms", median(p.chunk_ms));
  r.layer("sim.engine.merged_stats_us", 1e6 * p.merged_stats_s);
  const auto& mc = p.memory_counters;
  for (const char* name : {"ops_issued", "ops_completed", "ops_aborted",
                           "read_restarts", "write_restarts",
                           "swap_restarts"}) {
    r.layer(std::string("cfm.") + name, static_cast<double>(mc.get(name)));
  }
  const double tours =
      static_cast<double>(mc.get("ops_issued") + mc.get("read_restarts") +
                          mc.get("write_restarts") + mc.get("swap_restarts"));
  r.layer("cfm.useful_tour_ratio",
          static_cast<double>(mc.get("ops_completed")) / tours);
}

}  // namespace

void run_hier(const Options& opt, Tracer& tracer, Result& r) {
  const std::uint64_t seed = derive_seed(opt.seed, 3);
  if (opt.trace) {
    Tracer untraced(false, "");
    hier_pass(seed, untraced);  // warm-up
    Pass p;
    const double overhead = median_share([&] {
      const Pass base = hier_pass(seed, untraced);
      p = hier_pass(seed, tracer);
      r.check(base.digest_doc == p.digest_doc, "digest_repeats",
              "traced pass differs");
      return (p.setup_s + p.run_s) / (base.setup_s + base.run_s) - 1.0;
    });
    r.layer("trace.overhead_share", overhead);
    check_pass(r, p);
    set_layers(r, p);
    r.digest = cfm::sim::canonical_hash_hex(p.digest_doc);
    r.reps = 1;
    r.chunks = p.chunk_ms.size();
    return;
  }

  std::vector<Rep> reps;
  Pass first;
  const auto start = Clock::now();
  while (more_reps(r.reps, start, opt.seconds)) {
    Pass p = hier_pass(seed, tracer);
    check_pass(r, p);
    reps.push_back({.setup_s = p.setup_s,
                    .run_s = p.run_s,
                    .cached_s = p.reread_s,
                    .chunk_ms = std::move(p.chunk_ms),
                    .piece_ms = {}});
    if (r.reps++ == 0) {
      first = std::move(p);
    } else {
      r.check(p.digest_doc == first.digest_doc, "digest_repeats",
              "rep " + std::to_string(r.reps) + " statistics differ");
    }
  }
  // The driver keeps access time as a RunningStat, not a distribution:
  // its mean stands in for p50, and for p99 the p99 of a normal
  // distribution with its mean and deviation (the maximum, the only tail
  // figure it keeps, moves by a quarter from seed to seed).  No SLO
  // applies to the closed loop, so goodput is completed per request
  // issued.
  set_end_to_end(
      r, reps,
      {.requests = static_cast<double>(first.completed),
       .cycles = static_cast<double>(kHorizon - kWarmup),
       .points = 1.0,
       .cached_points = 1.0,
       .points_over_pass = true,
       .chunks_tile_run = true},
      {.ops_per_kcycle = 1e3 * static_cast<double>(first.completed) /
                         static_cast<double>(kHorizon - kWarmup),
       .latency_p50 = first.access_time.mean(),
       .latency_p99 = first.access_time.mean() +
                      kNormalZ99 * first.access_time.stddev(),
       .goodput = static_cast<double>(first.completed) /
                  static_cast<double>(first.completed + first.unresolved)});
  r.digest = cfm::sim::canonical_hash_hex(first.digest_doc);
}

}  // namespace perfbench
