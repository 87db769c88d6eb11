// perfbench — runs one benchmark workload and prints one JSON record.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Workloads: serve_poisson, hier_bsp, campaign_mixed.
// The record (last stdout line) carries the metrics of the mode, the
// simulated-statistics digest, the failed output checks and provenance;
// perfbench/run.py turns it into the benchmark's result line.  With
// --trace 1 the spans are written to <work-dir>/trace.json at exit.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>
#include <thread>

#include "sim/report.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

/// Per-layer metrics, in the order they are printed.  Must match the
/// "per_layer" list of BENCHMARK.json (perfbench/selftest.py checks).
const std::vector<std::pair<const char*, const char*>> kLayerMetrics = {
    {"serve.synth_s", "s"},
    {"serve.submit_s", "s"},
    {"serve.run_ms", "ms"},
    {"serve.report_s", "s"},
    {"serve.rejected", "count"},
    {"serve.retried", "count"},
    {"serve.shed_frac", "ratio"},
    {"sim.json_dump_s", "s"},
    {"sim.telemetry_share", "ratio"},
    {"sim.engine.run_for_ms", "ms"},
    {"sim.engine.merged_stats_us", "us"},
    {"cfm.tick_ns", "ns"},
    {"cfm.tick_audited_ns", "ns"},
    {"cfm.issue_ns", "ns"},
    {"cfm.ops_issued", "count"},
    {"cfm.ops_completed", "count"},
    {"cfm.ops_aborted", "count"},
    {"cfm.read_restarts", "count"},
    {"cfm.write_restarts", "count"},
    {"cfm.swap_restarts", "count"},
    {"cfm.useful_tour_ratio", "ratio"},
    {"cache.l1_hits", "count"},
    {"cache.global_reads", "count"},
    {"cache.l2_fills", "count"},
    {"cache.phase_retries", "count"},
    {"cache.victim_wbs", "count"},
    {"cache.fill_races", "count"},
    {"cache.l1_hit_ratio", "ratio"},
    {"workload.hier_tick_ratio", "ratio"},
    {"campaign.parse_expand_s", "s"},
    {"campaign.run_point_s.cfm_p50", "s"},
    {"campaign.run_point_s.cfm_max", "s"},
    {"campaign.run_point_s.coded_p50", "s"},
    {"campaign.run_point_s.coded_max", "s"},
    {"campaign.run_point_s.lock_p50", "s"},
    {"campaign.run_point_s.lock_max", "s"},
    {"campaign.aggregate_s", "s"},
    {"campaign.cache_store_s", "s"},
    {"campaign.cache_load_s", "s"},
    {"mem.coded.decode_rate", "ratio"},
    {"mem.coded.parity_amplification", "ratio"},
    {"trace.overhead_share", "ratio"},
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <serve_poisson|hier_bsp|campaign_mixed> "
               "--seed <n> --seconds <s> --trace <0|1> --work-dir <dir>\n",
               argv0);
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage(argv[0]);
    const std::string value = argv[++i];
    try {
      std::size_t used = 0;
      if (arg == "--workload") {
        opt.workload = value;
      } else if (arg == "--seed") {
        opt.seed = std::stoull(value, &used);
      } else if (arg == "--seconds") {
        opt.seconds = std::stod(value, &used);
      } else if (arg == "--trace") {
        opt.trace = std::stoi(value, &used) != 0;
      } else if (arg == "--work-dir") {
        opt.work_dir = value;
      } else {
        usage(argv[0]);
      }
      if (used != 0 && used != value.size()) usage(argv[0]);
    } catch (const std::logic_error&) {
      usage(argv[0]);
    }
  }
  if (opt.workload.empty() || opt.work_dir.empty() ||
      !(opt.seconds > 0.0 && std::isfinite(opt.seconds))) {
    usage(argv[0]);
  }
  return opt;
}

cfm::sim::Json metrics_json(const std::map<std::string, Metric>& metrics) {
  using cfm::sim::Json;
  Json out = Json::object();
  for (const auto& [name, m] : metrics) {
    out[name] = Json::object({{"value", m.value}, {"unit", m.unit}});
  }
  return out;
}

}  // namespace

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t tag) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL * (tag + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream os(path);
  os << text;
  return static_cast<bool>(os);
}

void set_end_to_end(Result& r, const std::vector<Rep>& reps, const Work& work,
                    const SimFigures& sim) {
  const auto least = [&](auto field) {
    double best = field(reps.front());
    for (const Rep& rep : reps) best = std::min(best, field(rep));
    return best;
  };
  // Chunk i is the same simulated work in every repetition, so its least
  // time over the repetitions is its cost without host interference.
  const auto least_each = [&](auto pieces) {
    std::vector<double> out = pieces(reps.front());
    for (const Rep& rep : reps) {
      const std::vector<double>& ms = pieces(rep);
      r.check(ms.size() == out.size(), "chunks_repeat",
              "repetitions split the work into different chunks");
      for (std::size_t i = 0; i < std::min(out.size(), ms.size()); ++i) {
        out[i] = std::min(out[i], ms[i]);
      }
    }
    return out;
  };
  const auto chunks = [](const Rep& x) -> const std::vector<double>& {
    return x.chunk_ms;
  };
  const auto pieces = [](const Rep& x) -> const std::vector<double>& {
    return x.piece_ms.empty() ? x.chunk_ms : x.piece_ms;
  };
  const std::vector<double> chunk_ms = least_each(chunks);
  const auto sum_s = [](const std::vector<double>& ms) {
    double total = 0.0;
    for (const double x : ms) total += x;
    return 1e-3 * total;
  };
  const double run_s =
      work.chunks_tile_run
          ? sum_s(least_each(pieces)) + least([&](const Rep& x) {
              return x.run_s - sum_s(pieces(x));
            })
          : least([](const Rep& x) { return x.run_s; });
  const double setup_s = least([](const Rep& x) { return x.setup_s; });
  const double pass_s = work.points_over_pass ? setup_s + run_s : run_s;
  r.chunks = chunk_ms.size();
  // The tail is p99 only with at least ten chunks beyond it.
  r.check(r.chunks >= kMinChunks, "chunk_count",
          std::to_string(r.chunks) + " chunks, p99 needs " +
              std::to_string(kMinChunks));
  r.end_to_end = {
      {"setup_s", {setup_s, "s"}},
      {"req_per_s", {work.requests / run_s, "req/s"}},
      {"sim_cycles_per_s", {work.cycles / run_s, "cycles/s"}},
      {"chunk_ms_p50", {percentile(chunk_ms, 50.0), "ms"}},
      {"chunk_ms_p99", {percentile(chunk_ms, 99.0), "ms"}},
      {"points_per_s", {work.points / pass_s, "points/s"}},
      {"cached_points_per_s",
       {work.cached_points / least([](const Rep& x) { return x.cached_s; }),
        "points/s"}},
      {"peak_rss_mb", {peak_rss_mb(), "MiB"}},
      {"sim_latency_p50_cycles", {sim.latency_p50, "cycles"}},
      {"sim_latency_p99_cycles", {sim.latency_p99, "cycles"}},
      {"goodput_attainment", {sim.goodput, "ratio"}},
      {"sim_ops_per_kcycle", {sim.ops_per_kcycle, "ops/kcycle"}},
  };
}

bool more_reps(std::uint64_t reps, Clock::time_point start, double seconds) {
  if (reps < 2) return true;
  const double elapsed = seconds_between(start, Clock::now());
  return elapsed * static_cast<double>(reps + 1) / static_cast<double>(reps) <=
         seconds;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  using cfm::sim::Json;
  const Options opt = parse_args(argc, argv);

  const std::string run_id = opt.workload + "-" + std::to_string(opt.seed) +
                             "-" + std::to_string(::getpid());
  Tracer tracer(opt.trace, run_id);
  Result result;
  for (const auto& [name, unit] : kLayerMetrics) {
    result.layers[name] = Metric{0.0, unit};
  }
  try {
    if (opt.workload == "serve_poisson") {
      run_serve(opt, tracer, result);
    } else if (opt.workload == "hier_bsp") {
      run_hier(opt, tracer, result);
    } else if (opt.workload == "campaign_mixed") {
      run_campaign(opt, tracer, result);
    } else {
      std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                   opt.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s: %s\n", opt.workload.c_str(),
                 e.what());
    return 1;
  }

  // Figures every workload prints beside its metrics (not bounded):
  // failed_frac reads 0 on most workloads, so it cannot carry a bound
  // relative to its median; the result line carries it as failed /
  // attempted.
  result.extra["failed_frac"] = {
      result.attempted == 0 ? 0.0
                            : static_cast<double>(result.failed) /
                                  static_cast<double>(result.attempted),
      "ratio"};
  result.extra["chunks"] = {static_cast<double>(result.chunks), "count"};

  Json record = Json::object();
  record["workload"] = opt.workload;
  record["seed"] = opt.seed;
  record["trace"] = opt.trace;
  record["run_id"] = run_id;
  record["digest"] = result.digest;
  record["attempted"] = result.attempted;
  record["failed"] = result.failed;
  record["reps"] = result.reps;
  record["chunks"] = result.chunks;
  Json checks = Json::array();
  for (const auto& [what, detail] : result.failed_checks) {
    checks.push_back(Json::object({{"check", what}, {"detail", detail}}));
  }
  record["failed_checks"] = std::move(checks);
  Json reports = Json::array();
  for (const auto& path : result.reports) reports.push_back(path);
  record["reports"] = std::move(reports);
  record["metrics"] =
      metrics_json(opt.trace ? result.layers : result.end_to_end);
  record["extra"] = metrics_json(result.extra);
  record["provenance"] = Json::object({
      {"build_type", PERFBENCH_BUILD_TYPE},
      {"compiler", PERFBENCH_COMPILER},
      {"engine_threads", 1},
      {"hardware_threads", std::thread::hardware_concurrency()},
      {"tracing", opt.trace},
  });

  if (opt.trace) {
    Json doc = tracer.to_json();
    doc["workload"] = opt.workload;
    doc["seed"] = opt.seed;
    if (!write_file(opt.work_dir + "/trace.json", doc.dump() + "\n")) {
      std::fprintf(stderr, "perfbench: cannot write the span file\n");
      return 1;
    }
  }
  std::cout << record.dump() << '\n';
  return 0;
}
