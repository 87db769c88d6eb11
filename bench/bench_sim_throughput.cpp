// google-benchmark microbenchmarks of the simulator itself: cycles/sec of
// the CFM memory, the cache protocol, the hierarchical machine on the
// engine fast path, the serving path, the telemetry sampler, and the cost
// of deriving synchronous-omega schedules.  These guard against
// performance regressions in the simulation kernel, not the paper.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "cache/cfm_protocol.hpp"
#include "cache/hierarchical.hpp"
#include "cfm/cfm_memory.hpp"
#include "net/omega.hpp"
#include "report_main.hpp"
#include "serve/server.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/telemetry.hpp"
#include "sim/txn_trace.hpp"
#include "workload/access_gen.hpp"
#include "workload/hier_driver.hpp"

namespace {

using namespace cfm;

void BM_CfmMemoryTick(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::CfmMemory mem(core::CfmConfig::make(n));
  sim::Rng rng(1);
  std::vector<core::CfmMemory::OpToken> live(n, core::CfmMemory::kNoOp);
  sim::Cycle t = 0;
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < n; ++p) {
      if (live[p] != core::CfmMemory::kNoOp &&
          mem.take_result(live[p]).has_value()) {
        live[p] = core::CfmMemory::kNoOp;
      }
      if (live[p] == core::CfmMemory::kNoOp) {
        live[p] = mem.issue(t, p, core::BlockOpKind::Read, 1000 + p);
      }
    }
    mem.tick(t++);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CfmMemoryTick)->Arg(4)->Arg(16)->Arg(64);

// Tracing cost guard: the same tick loop with the transaction tracer and
// conflict auditor attached.  BM_CfmMemoryTick above is the untraced
// fast path (null tracer pointer, one predictable branch per hook);
// comparing the two quantifies what an experiment pays for
// observability.  Record capacity is capped so a long benchmark run
// exercises the drop path instead of growing without bound.
void BM_CfmMemoryTickInstrumented(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  core::CfmMemory mem(core::CfmConfig::make(n));
  sim::TxnTracer tracer;
  tracer.set_capacity(4096);
  sim::ConflictAuditor auditor;
  mem.set_txn_trace(tracer);
  mem.set_audit(auditor);
  std::vector<core::CfmMemory::OpToken> live(n, core::CfmMemory::kNoOp);
  sim::Cycle t = 0;
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < n; ++p) {
      if (live[p] != core::CfmMemory::kNoOp &&
          mem.take_result(live[p]).has_value()) {
        live[p] = core::CfmMemory::kNoOp;
      }
      if (live[p] == core::CfmMemory::kNoOp) {
        live[p] = mem.issue(t, p, core::BlockOpKind::Read, 1000 + p);
      }
    }
    mem.tick(t++);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CfmMemoryTickInstrumented)->Arg(4)->Arg(16)->Arg(64);

void BM_CacheProtocolTick(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  cache::CfmCacheSystem::Params params;
  params.mem = core::CfmConfig::make(n);
  cache::CfmCacheSystem sys(params);
  sim::Rng rng(2);
  std::vector<cache::CfmCacheSystem::ReqId> live(n, 0);
  sim::Cycle t = 0;
  for (auto _ : state) {
    for (std::uint32_t p = 0; p < n; ++p) {
      if (live[p] != 0 && sys.take_result(live[p]).has_value()) live[p] = 0;
      if (live[p] == 0 && sys.processor_idle(p)) {
        live[p] = sys.load(t, p, rng.below(64));
      }
    }
    sys.tick(t++);
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_CacheProtocolTick)->Arg(4)->Arg(16);

void BM_SyncOmegaConstruction(benchmark::State& state) {
  const auto ports = static_cast<std::uint32_t>(state.range(0));
  for (auto _ : state) {
    net::SyncOmega so(ports);
    benchmark::DoNotOptimize(so.output_for(1, 0));
  }
}
BENCHMARK(BM_SyncOmegaConstruction)->Arg(8)->Arg(64)->Arg(256);

// ---- batch-tick + quiescence fast path --------------------------------
//
// The headline fast-path scenario (DESIGN.md §12): a 64-processor
// hierarchical CFM machine under the wake-aware think-time workload.
// Between requests processors think for tens to hundreds of cycles, so
// the machine is mostly idle-but-correct; the fast path turns those
// stretches into component skips, span dispatches and clock jumps.
// Axes: range(0) = fast path off/on, range(1) = max_span.  Reported
// items/sec == simulated cycles/sec; the stored-baseline CI gate
// (tools/check_throughput.py) requires fast@span64 / off >= 5x and no
// >15% absolute regression vs bench/baselines/sim_throughput.json.
void BM_FastPathHierarchical(benchmark::State& state) {
  const bool fast = state.range(0) != 0;
  const auto span = static_cast<sim::Cycle>(state.range(1));
  sim::Engine engine(sim::EngineConfig{.fast_path = fast, .max_span = span});
  cache::HierarchicalCfm sys({.clusters = 8, .procs_per_cluster = 8});
  workload::HierDriver driver("bench.think_driver", engine, sys,
                              {.think_min = 128, .think_max = 1024,
                               .shared_fraction = 0.1, .barrier = true},
                              /*seed=*/0xbea7ULL,
                              engine.shard(sim::kSharedDomain));
  sys.attach(engine);
  engine.run_for(512);  // warm the caches, fill the miss pipelines
  constexpr sim::Cycle kChunk = 1024;
  for (auto _ : state) engine.run_for(kChunk);
  state.SetItemsProcessed(state.iterations() * kChunk);
  state.counters["completed"] = static_cast<double>(driver.completed());
}
BENCHMARK(BM_FastPathHierarchical)
    ->Args({0, 1})
    ->Args({1, 1})
    ->Args({1, 7})
    ->Args({1, 64})
    ->UseRealTime();

// The serving path (DESIGN.md §13) on the fast path: a 16-processor
// serve::Server under open-loop Poisson 0.05 arrivals, so most of the
// host time goes to in-domain sub-spans and batched uncontended tours
// (§12).  Each iteration serves a fresh 4000-request stream to drain;
// items/sec == requests/sec.
void BM_FastPathServe(benchmark::State& state) {
  serve::ServeOptions opts;
  opts.processors = 16;
  opts.arrival = serve::ArrivalConfig::parse("poisson:rate=0.05");
  opts.seed = 0x5e7eULL;
  const auto requests = serve::synth_requests(4000, 0.25, 0.05, 0.05, 4096,
                                              opts.seed);
  for (auto _ : state) {
    serve::Server server(opts);
    server.submit(requests);
    server.drain();
    benchmark::DoNotOptimize(server.stats().completed);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(requests.size()));
}
BENCHMARK(BM_FastPathServe)->UseRealTime();

// ---- telemetry overhead ----------------------------------------------
//
// The flight recorder's cost contract (DESIGN.md §14): one extra shared
// component whose hint points at the next window boundary, so between
// boundaries it costs nothing and at each boundary it snapshots a
// handful of counters.  Arg(0) = recorder off, Arg(1) = recorder on with
// the default serve geometry (window = 8*beta, capacity 512); the
// stored-baseline gate (tools/check_throughput.py) bounds on/off.
void BM_TelemetryOverhead(benchmark::State& state) {
  const bool telemetry = state.range(0) != 0;
  sim::Engine engine;
  core::CfmMemory mem(core::CfmConfig::make(16));
  const auto domain = engine.allocate_domain();
  mem.attach(engine, domain);
  workload::ClosedLoopDriver<core::CfmMemory> driver(
      "bench.telemetry_driver", domain, mem, /*seed=*/77, /*rate=*/1.0);
  engine.add(driver);
  std::unique_ptr<sim::TelemetrySampler> sampler;
  if (telemetry) {
    const auto window =
        static_cast<sim::Cycle>(8 * mem.config().block_access_time());
    sampler = std::make_unique<sim::TelemetrySampler>("bench.telemetry",
                                                      window, 512);
    sampler->add_counter("ops_completed",
                         [&driver] { return driver.completed(); });
    sampler->add_counter("ops_retried", [&driver] { return driver.retried(); });
    sampler->add_counter("ops_failed", [&driver] { return driver.failed(); });
    sampler->add_gauge("in_flight", [&driver](sim::Cycle) {
      return static_cast<double>(driver.in_flight());
    });
    sampler->add_gauge("live_banks", [&mem](sim::Cycle) {
      return static_cast<double>(mem.live_banks());
    });
    engine.add(*sampler);
  }
  engine.run_for(64);  // fill the tour pipeline
  constexpr sim::Cycle kChunk = 1024;
  for (auto _ : state) engine.run_for(kChunk);
  state.SetItemsProcessed(state.iterations() * kChunk);
  if (sampler) {
    state.counters["windows"] =
        static_cast<double>(sampler->windows_crossed());
  }
}
BENCHMARK(BM_TelemetryOverhead)->Arg(0)->Arg(1)->UseRealTime();

void BM_EfficiencyExperiment(benchmark::State& state) {
  for (auto _ : state) {
    const auto r = workload::measure_conventional(8, 8, 17, 0.03, 10000, 42);
    benchmark::DoNotOptimize(r.efficiency);
  }
}
BENCHMARK(BM_EfficiencyExperiment);

// Console reporter that additionally captures every run into a Report
// row, so --json-out gets the same schema as the table benches while
// the normal google-benchmark console output is preserved.
class CapturingReporter : public benchmark::ConsoleReporter {
 public:
  explicit CapturingReporter(sim::Report& report) : report_(report) {}

  void ReportRuns(const std::vector<Run>& runs) override {
    for (const auto& run : runs) {
      auto row = sim::Json::object();
      row["name"] = run.benchmark_name();
      if (run.run_type == Run::RT_Aggregate) {
        row["aggregate"] = run.aggregate_name;
      } else {
        // Pairs the raw rows of different benchmarks run in the same
        // repetition (tools/check_throughput.py).
        row["repetition_index"] = run.repetition_index;
      }
      row["iterations"] = run.iterations;
      row["real_time_ns"] = run.GetAdjustedRealTime();
      row["cpu_time_ns"] = run.GetAdjustedCPUTime();
      for (const auto& [key, counter] : run.counters) {
        row[key] = counter.value;
      }
      report_.add_row("runs", std::move(row));
    }
    benchmark::ConsoleReporter::ReportRuns(runs);
  }

 private:
  sim::Report& report_;
};

}  // namespace

int main(int argc, char** argv) {
  // Peel off this harness's own flags before google-benchmark sees the
  // argument list (it rejects flags it does not know).  They share
  // report_main.hpp's value-flag helper with every other bench.
  std::vector<char*> passthrough;
  cfm::bench::Options opts;
  passthrough.push_back(argv[0]);
  std::string value;
  for (int i = 1; i < argc; ++i) {
    if (cfm::bench::take_value_flag(argc, argv, i, "--json-out",
                                    opts.json_out)) {
      continue;
    }
    if (cfm::bench::take_value_flag(argc, argv, i, "--fast-path", value)) {
      cfm::sim::EngineTuning t = cfm::sim::engine_tuning();
      t.fast_path = cfm::bench::parse_fast_path_flag(argv[0], value);
      cfm::sim::set_engine_tuning(t);
      continue;
    }
    if (cfm::bench::take_value_flag(argc, argv, i, "--max-span", value)) {
      cfm::sim::EngineTuning t = cfm::sim::engine_tuning();
      t.max_span = cfm::bench::parse_max_span_flag(argv[0], value);
      cfm::sim::set_engine_tuning(t);
      continue;
    }
    // This harness reads no observability flag (see report_main.hpp).
    for (const char* flag : {"--txn-trace", "--fault-plan", "--seed"}) {
      if (cfm::bench::take_value_flag(argc, argv, i, flag, value)) {
        cfm::bench::reject_unread(argv[0], flag);
      }
    }
    const std::string arg = argv[i];
    if (arg == "--audit" || arg.rfind("--audit=", 0) == 0) {
      cfm::bench::reject_unread(argv[0], "--audit");
    }
    passthrough.push_back(argv[i]);
  }
  int bench_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&bench_argc, passthrough.data());
  if (benchmark::ReportUnrecognizedArguments(bench_argc,
                                             passthrough.data())) {
    return 1;
  }
  cfm::sim::Report report("sim_throughput");
  CapturingReporter reporter(report);
  benchmark::RunSpecifiedBenchmarks(&reporter);
  benchmark::Shutdown();
  return cfm::bench::finish(opts, report);
}
