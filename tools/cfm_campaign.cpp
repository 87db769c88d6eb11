// cfm_campaign — run a scenario file's sweep grid as one schedulable,
// cacheable unit of work, on one process or sharded across many.
//
//   cfm_campaign <scenario.json> [options]
//
//   --json-out <path>   write the cfm-campaign-report/v1 document
//   --cache-dir <dir>   result cache location (default .cfm-cache)
//   --no-cache          disable the result cache entirely
//   --jobs <n>          concurrent point executions (default: hardware)
//   --workers <n>       shard across n point-runner subprocesses that
//                       claim points via lease files in the cache dir;
//                       crash-tolerant (stale leases are stolen) and
//                       byte-identical to the single-process report
//   --worker            run one worker loop in the foreground instead:
//                       claim + run + publish until the grid is done.
//                       Point several at one --cache-dir (any hosts
//                       sharing the filesystem) to shard by hand
//   --lease-ttl <sec>   staleness horizon for worker leases (default 60;
//                       fractional seconds accepted).  Held leases are
//                       heartbeat-refreshed, so only dead workers' leases
//                       age past it
//   --dry-run           expand + validate the grid, print it, run nothing
//   --quiet             suppress per-point progress lines
//
// Exit codes: 0 clean, 2 usage / spec error, 3 audit-violation rollup
// (a conflict-free point broke the paper's invariant), 4 a point failed
// after its bounded retries (in --worker mode: any point in the shared
// campaign carries a failure verdict), 1 the report artifact could not
// be written or an I/O fault stopped the run.
//
// The summary line ("N points — E executed, C cached, ...") is machine-
// readable on purpose: CI greps it to assert a fully cached second pass.
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <string>

#ifndef _WIN32
#include <unistd.h>
#endif

#include "campaign/campaign.hpp"
#include "campaign/lease.hpp"

namespace {

struct CliOptions {
  std::string scenario_path;
  std::string json_out;
  std::string cache_dir = ".cfm-cache";
  unsigned jobs = 0;
  unsigned workers = 0;  ///< 0 = in-process executor
  bool worker_mode = false;
  std::chrono::milliseconds lease_ttl{60000};
  bool dry_run = false;
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(stderr,
               "usage: %s <scenario.json> [--json-out <path>] "
               "[--cache-dir <dir>] [--no-cache] [--jobs <n>] "
               "[--workers <n>] [--worker] [--lease-ttl <seconds>] "
               "[--dry-run] [--quiet]\n",
               argv0);
  std::exit(code);
}

/// Strict non-negative integer parse for count flags.  `--jobs abc`
/// must not silently become 0 (= hardware default) and `--jobs -1` must
/// not wrap to four billion: anything but pure digits in range exits 2.
unsigned parse_count(const char* argv0, const char* flag,
                     const std::string& text) {
  bool digits = !text.empty();
  for (const char ch : text) {
    if (std::isdigit(static_cast<unsigned char>(ch)) == 0) digits = false;
  }
  if (!digits) {
    std::fprintf(stderr, "%s: %s expects a non-negative integer, got '%s'\n",
                 argv0, flag, text.c_str());
    std::exit(2);
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long value = std::strtoul(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size() ||
      value > std::numeric_limits<unsigned>::max()) {
    std::fprintf(stderr, "%s: %s value '%s' is out of range\n", argv0, flag,
                 text.c_str());
    std::exit(2);
  }
  return static_cast<unsigned>(value);
}

/// Strict positive seconds parse (fractional allowed) for --lease-ttl.
std::chrono::milliseconds parse_seconds(const char* argv0, const char* flag,
                                        const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (errno == ERANGE || end != text.c_str() + text.size() || text.empty() ||
      !std::isfinite(value) || value <= 0.0 || value > 86400.0 * 365.0) {
    std::fprintf(stderr, "%s: %s expects a positive number of seconds, "
                 "got '%s'\n",
                 argv0, flag, text.c_str());
    std::exit(2);
  }
  const auto ms = static_cast<long long>(value * 1000.0);
  return std::chrono::milliseconds(ms > 0 ? ms : 1);
}

CliOptions parse_cli(int argc, char** argv) {
  CliOptions opts;
  const auto value_of = [&](int& i, const char* flag) -> std::string {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
      std::exit(2);
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json-out") {
      opts.json_out = value_of(i, "--json-out");
    } else if (arg == "--cache-dir") {
      opts.cache_dir = value_of(i, "--cache-dir");
    } else if (arg == "--no-cache") {
      opts.cache_dir.clear();
    } else if (arg == "--jobs") {
      opts.jobs = parse_count(argv[0], "--jobs", value_of(i, "--jobs"));
    } else if (arg == "--workers") {
      opts.workers =
          parse_count(argv[0], "--workers", value_of(i, "--workers"));
      if (opts.workers == 0) {
        std::fprintf(stderr, "%s: --workers must be >= 1\n", argv[0]);
        std::exit(2);
      }
    } else if (arg == "--worker") {
      opts.worker_mode = true;
    } else if (arg == "--lease-ttl") {
      opts.lease_ttl =
          parse_seconds(argv[0], "--lease-ttl", value_of(i, "--lease-ttl"));
    } else if (arg == "--dry-run") {
      opts.dry_run = true;
    } else if (arg == "--quiet") {
      opts.quiet = true;
    } else if (!arg.empty() && arg[0] == '-') {
      usage(argv[0], 2);
    } else if (opts.scenario_path.empty()) {
      opts.scenario_path = arg;
    } else {
      usage(argv[0], 2);
    }
  }
  if (opts.scenario_path.empty()) usage(argv[0], 2);
  if (opts.worker_mode && opts.workers != 0) {
    std::fprintf(stderr, "%s: --worker and --workers are mutually "
                 "exclusive\n",
                 argv[0]);
    std::exit(2);
  }
  if ((opts.worker_mode || opts.workers != 0) && opts.cache_dir.empty()) {
    std::fprintf(stderr, "%s: worker execution requires a result cache "
                 "(drop --no-cache)\n",
                 argv[0]);
    std::exit(2);
  }
  return opts;
}

/// Path to this executable for re-execing worker subprocesses.
std::string self_exe(const char* argv0) {
#ifndef _WIN32
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n > 0) {
    buf[n] = '\0';
    return buf;
  }
#endif
  return argv0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cfm;
  const auto cli = parse_cli(argc, argv);

  campaign::Scenario scenario;
  try {
    scenario = campaign::Scenario::load_file(cli.scenario_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cli.scenario_path.c_str(), e.what());
    return 2;
  }
  // The lock farms draw no random numbers, so a seed axis only repeats
  // each point's result; the axis stays legal (it is part of the cache
  // key and of committed scenarios), but say so once.
  if (scenario.workload() == campaign::WorkloadKind::Lock) {
    for (const auto& [key, values] : scenario.axes()) {
      if (key == "seed" && values.size() > 1) {
        std::fprintf(stderr,
                     "note: %s: the lock workload is deterministic; its %zu "
                     "seed values repeat one result per point\n",
                     cli.scenario_path.c_str(), values.size());
      }
    }
  }

  if (cli.dry_run) {
    std::vector<campaign::PointSpec> points;
    try {
      points = scenario.expand();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", cli.scenario_path.c_str(), e.what());
      return 2;
    }
    campaign::ResultCache cache(cli.cache_dir);
    campaign::LeaseDir leases(cli.cache_dir.empty() ? "." : cli.cache_dir,
                              cli.lease_ttl);
    std::size_t hits = 0;
    for (const auto& point : points) {
      const bool hit = cache.load(point).has_value();
      const bool leased =
          !cli.cache_dir.empty() && leases.leased(point.cache_key());
      hits += hit ? 1 : 0;
      std::printf("%s %s%s%s\n", point.cache_key().c_str(),
                  point.params.dump().c_str(), hit ? " [cached]" : "",
                  leased ? " [leased]" : "");
    }
    std::printf("campaign '%s' (dry run): %zu points, %zu already cached\n",
                scenario.name().c_str(), points.size(), hits);
    return 0;
  }

  if (cli.worker_mode) {
    campaign::WorkerOptions options;
    options.cache_dir = cli.cache_dir;
    options.lease_ttl = cli.lease_ttl;
    if (!cli.quiet) {
      options.progress = [](const std::string& line) {
        std::printf("%s\n", line.c_str());
        std::fflush(stdout);
      };
    }
    try {
      const int code = campaign::run_worker(scenario, options);
      if (!cli.quiet) {
        std::printf("worker done (%s)\n",
                    code == 0 ? "grid complete" : "grid has failed points");
      }
      return code;
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "%s: %s\n", cli.scenario_path.c_str(), e.what());
      return 2;
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", cli.scenario_path.c_str(), e.what());
      return 1;
    }
  }

  campaign::CampaignResult result;
  try {
    if (cli.workers != 0) {
      campaign::DistributedOptions options;
      options.cache_dir = cli.cache_dir;
      options.workers = cli.workers;
      options.lease_ttl = cli.lease_ttl;
      options.spawn_argv = {self_exe(argv[0]), cli.scenario_path};
      if (!cli.quiet) {
        options.progress = [](const std::string& line) {
          std::printf("%s\n", line.c_str());
          std::fflush(stdout);
        };
      }
      result = campaign::run_campaign_workers(scenario, options);
    } else {
      campaign::CampaignOptions options;
      options.cache_dir = cli.cache_dir;
      options.jobs = cli.jobs;
      if (!cli.quiet) {
        options.progress = [](const std::string& line) {
          std::printf("%s\n", line.c_str());
          std::fflush(stdout);
        };
      }
      result = campaign::run_campaign(scenario, options);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", cli.scenario_path.c_str(), e.what());
    return 2;
  }

  std::printf("campaign '%s': %zu points — %zu executed, %zu cached, "
              "%zu failed; audit violations: %llu\n",
              scenario.name().c_str(), result.points, result.executed,
              result.cached, result.failed,
              static_cast<unsigned long long>(result.audit_violations));

  if (!cli.json_out.empty()) {
    std::ofstream os(cli.json_out);
    if (os) {
      result.report.dump_to(os, 2);
      os << '\n';
    }
    if (!os) {
      std::fprintf(stderr, "error: cannot write report to '%s'\n",
                   cli.json_out.c_str());
      return 1;
    }
    std::printf("report written to %s\n", cli.json_out.c_str());
  }
  return result.exit_code();
}
