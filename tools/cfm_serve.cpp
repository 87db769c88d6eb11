// cfm_serve — the CFM-as-a-service front end (DESIGN.md §13).
//
//   cfm_serve [options] [--requests <file>]
//
// Request sources (exactly one):
//   --requests <file>   replay a request file (protocol.hpp grammar),
//                       arrival-stamped by the open-loop process, then
//                       drain and report;
//   --count <n>         serve n synthetic requests (--blocks,
//                       --write-frac / --swap-frac / --lock-frac shape
//                       the mix), same pipeline;
//   (stdin)             with neither flag, an interactive command loop:
//                       request lines are submitted as they arrive, and
//                       dot-directives control the server:
//                         .run <cycles>   advance the engine
//                         .drain          run until quiescent (bounded)
//                         .stats          current telemetry window snapshot
//                                         (falls back to lifetime totals
//                                         with --no-telemetry)
//                         .metrics        Prometheus text exposition (live
//                                         scrape of counters / gauges /
//                                         latency quantiles)
//                         .report         print the JSON report so far
//                         .quit           drain, report, exit
//
// Serving options:
//   --load <shape[:k=v,...]>  poisson | bursty | diurnal (arrival.hpp)
//   --slo <cycles>            latency SLO (default 4*beta)
//   --queue-depth <n>         admission bound, n >= 1 (default 4*processors)
//   --processors <c> --bank-cycle <n> --seed <s>
//   --fault-plan <plan>       sim::FaultPlan grammar
//   --spares <n>              spare banks for dead-bank remap
//   --audit                   attach the conflict-freedom auditor
//   --fast-path <0|1> --max-span <n>   engine tuning override (n >= 1)
//   --json-out <path>         write the cfm-serve-report/v1 document
//   --metrics-out <path>      write the final Prometheus text exposition
//   --no-telemetry            disable the flight recorder
//   --telemetry-window <W>    sampling window in cycles (default 8*beta)
//   --telemetry-capacity <n>  flight-recorder bound before downsampling
//   --anomaly-exit            exit 4 when the anomaly scan has findings
//   --quiet                   suppress the progress summary
//
// Exit codes: 0 clean, 2 usage / input error, 3 audit violations,
// 4 anomalies found (with --anomaly-exit), 1 the report artifact could
// not be written.
//
// The summary line ("served N requests — ...") is machine-readable on
// purpose: the serve-smoke CI job greps it.
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <iostream>
#include <limits>
#include <sstream>
#include <string>

#include "serve/server.hpp"
#include "sim/engine.hpp"

namespace {

struct CliOptions {
  std::string requests_path;
  std::string json_out;
  std::string metrics_out;
  bool anomaly_exit = false;
  cfm::serve::ServeOptions serve;
  std::size_t count = 0;
  std::uint64_t blocks = 4096;
  double write_frac = 0.25;
  double swap_frac = 0.05;
  double lock_frac = 0.05;
  bool quiet = false;
  bool tuning_set = false;
  cfm::sim::EngineTuning tuning;
};

[[noreturn]] void usage(const char* argv0, int code) {
  std::fprintf(
      stderr,
      "usage: %s [--requests <file> | --count <n>] [--load <shape[:k=v,..]>]\n"
      "  [--slo <cycles>] [--queue-depth <n>] [--processors <c>]\n"
      "  [--bank-cycle <n>] [--seed <s>] [--fault-plan <p>]\n"
      "  [--spares <n>] [--audit] [--blocks <n>] [--write-frac <f>]\n"
      "  [--swap-frac <f>] [--lock-frac <f>] [--fast-path <0|1>]\n"
      "  [--max-span <n>] [--json-out <path>] [--metrics-out <path>]\n"
      "  [--no-telemetry] [--telemetry-window <W>]\n"
      "  [--telemetry-capacity <n>] [--anomaly-exit] [--quiet]\n"
      "with no request source, reads a request / directive stream on stdin\n",
      argv0);
  std::exit(code);
}

/// Strict unsigned parse for serving flags: every character must be a
/// digit (so "abc", "-1", "12x" and "" are all usage errors, not silent
/// zeros) and the value must fit.  Matches cfm_campaign's flag parsing.
std::uint64_t parse_u64(const char* argv0, const char* flag,
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
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  if (errno == ERANGE || end != text.c_str() + text.size()) {
    std::fprintf(stderr, "%s: %s value '%s' is out of range\n", argv0, flag,
                 text.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(value);
}

/// parse_u64 with an additional ceiling, for flags narrowed to 32 bits
/// (processors, bank cycle, spares) or to a 0/1 switch.
std::uint64_t parse_u64_max(const char* argv0, const char* flag,
                            const std::string& text, std::uint64_t max) {
  const auto value = parse_u64(argv0, flag, text);
  if (value > max) {
    std::fprintf(stderr, "%s: %s value '%s' is out of range (max %llu)\n",
                 argv0, flag, text.c_str(),
                 static_cast<unsigned long long>(max));
    std::exit(2);
  }
  return value;
}

/// Strict fraction parse: a finite decimal number, fully consumed.  The
/// fraction flags additionally require [0, 1].
double parse_frac(const char* argv0, const char* flag,
                  const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() || errno == ERANGE ||
      !(value >= 0.0 && value <= 1.0)) {
    std::fprintf(stderr, "%s: %s expects a fraction in [0, 1], got '%s'\n",
                 argv0, flag, text.c_str());
    std::exit(2);
  }
  return value;
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
  const auto as_u64 = [&](const char* flag, const std::string& v) {
    return parse_u64(argv[0], flag, v);
  };
  const auto as_positive = [&](const char* flag, const std::string& v) {
    const auto value = parse_u64(argv[0], flag, v);
    if (value == 0) {
      std::fprintf(stderr, "%s: %s must be at least 1, got '%s'\n", argv[0],
                   flag, v.c_str());
      std::exit(2);
    }
    return value;
  };
  const auto as_u32 = [&](const char* flag, const std::string& v) {
    return static_cast<std::uint32_t>(parse_u64_max(
        argv[0], flag, v, std::numeric_limits<std::uint32_t>::max()));
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--requests") {
        opts.requests_path = value_of(i, "--requests");
      } else if (arg == "--json-out") {
        opts.json_out = value_of(i, "--json-out");
      } else if (arg == "--metrics-out") {
        opts.metrics_out = value_of(i, "--metrics-out");
      } else if (arg == "--no-telemetry") {
        opts.serve.telemetry = false;
      } else if (arg == "--telemetry-window") {
        opts.serve.telemetry_window =
            as_u64("--telemetry-window", value_of(i, "--telemetry-window"));
      } else if (arg == "--telemetry-capacity") {
        opts.serve.telemetry_capacity =
            static_cast<std::size_t>(as_u64("--telemetry-capacity",
                                            value_of(i, "--telemetry-capacity")));
      } else if (arg == "--anomaly-exit") {
        opts.anomaly_exit = true;
      } else if (arg == "--load") {
        opts.serve.arrival =
            cfm::serve::ArrivalConfig::parse(value_of(i, "--load"));
      } else if (arg == "--slo") {
        opts.serve.slo = as_u64("--slo", value_of(i, "--slo"));
      } else if (arg == "--queue-depth") {
        // 0 is ServeOptions' "4 x processors" default; asked for
        // explicitly it is refused, not silently replaced.
        opts.serve.queue_depth = static_cast<std::size_t>(
            as_positive("--queue-depth", value_of(i, "--queue-depth")));
      } else if (arg == "--processors") {
        opts.serve.processors =
            as_u32("--processors", value_of(i, "--processors"));
      } else if (arg == "--bank-cycle") {
        opts.serve.bank_cycle =
            as_u32("--bank-cycle", value_of(i, "--bank-cycle"));
      } else if (arg == "--seed") {
        opts.serve.seed = as_u64("--seed", value_of(i, "--seed"));
      } else if (arg == "--fault-plan") {
        opts.serve.fault_plan = value_of(i, "--fault-plan");
      } else if (arg == "--spares") {
        opts.serve.spare_banks = as_u32("--spares", value_of(i, "--spares"));
      } else if (arg == "--audit") {
        opts.serve.audit = true;
      } else if (arg == "--count") {
        opts.count =
            static_cast<std::size_t>(as_u64("--count", value_of(i, "--count")));
      } else if (arg == "--blocks") {
        opts.blocks = as_u64("--blocks", value_of(i, "--blocks"));
      } else if (arg == "--write-frac") {
        opts.write_frac =
            parse_frac(argv[0], "--write-frac", value_of(i, "--write-frac"));
      } else if (arg == "--swap-frac") {
        opts.swap_frac =
            parse_frac(argv[0], "--swap-frac", value_of(i, "--swap-frac"));
      } else if (arg == "--lock-frac") {
        opts.lock_frac =
            parse_frac(argv[0], "--lock-frac", value_of(i, "--lock-frac"));
      } else if (arg == "--fast-path") {
        opts.tuning.fast_path =
            parse_u64_max(argv[0], "--fast-path", value_of(i, "--fast-path"),
                          1) != 0;
        opts.tuning_set = true;
      } else if (arg == "--max-span") {
        opts.tuning.max_span =
            as_positive("--max-span", value_of(i, "--max-span"));
        opts.tuning_set = true;
      } else if (arg == "--quiet") {
        opts.quiet = true;
      } else {
        std::fprintf(stderr, "%s: unknown flag '%s'\n", argv[0], arg.c_str());
        usage(argv[0], 2);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s: %s\n", argv[0], arg.c_str(), e.what());
      std::exit(2);
    }
  }
  if (!opts.requests_path.empty() && opts.count != 0) {
    std::fprintf(stderr, "%s: --requests and --count are exclusive\n",
                 argv[0]);
    std::exit(2);
  }
  return opts;
}

void print_summary(const cfm::serve::Server& server) {
  const auto& st = server.stats();
  const auto violations =
      server.auditor() != nullptr ? server.auditor()->violations() : 0;
  std::printf(
      "served %llu requests — %llu completed, %llu rejected, %llu failed, "
      "%llu unfinished; slo_attainment %.4f; audit violations: %llu\n",
      static_cast<unsigned long long>(st.offered),
      static_cast<unsigned long long>(st.completed),
      static_cast<unsigned long long>(st.rejected),
      static_cast<unsigned long long>(st.failed),
      static_cast<unsigned long long>(server.outstanding()),
      st.completed == 0
          ? 1.0
          : static_cast<double>(st.within_slo) /
                static_cast<double>(st.completed),
      static_cast<unsigned long long>(violations));
  std::fflush(stdout);
}

/// `.stats`: the *current telemetry window*, not lifetime averages — a
/// mid-run scrape should show what the machine is doing now.  Falls back
/// to the cumulative summary when telemetry is off.
void print_window_stats(const cfm::serve::Server& server) {
  const auto live = server.live_stats_json();
  if (live.is_null()) {
    print_summary(server);
    return;
  }
  const auto& win = live.at("window");
  const auto& counters = win.at("counters");
  const auto& latency = win.at("hist").at("latency");
  const auto& gauges = live.at("gauges");
  std::printf(
      "window @%llu (start %llu): %llu offered, %llu completed, %llu shed, "
      "%llu retried; p99 %.0f; queue %.0f, in service %.0f\n",
      static_cast<unsigned long long>(live.at("cycle").as_uint()),
      static_cast<unsigned long long>(win.at("start").as_uint()),
      static_cast<unsigned long long>(counters.at("offered").as_uint()),
      static_cast<unsigned long long>(counters.at("completed").as_uint()),
      static_cast<unsigned long long>(counters.at("rejected").as_uint()),
      static_cast<unsigned long long>(counters.at("retried").as_uint()),
      latency.at("p99").as_double(), gauges.at("queue_depth").as_double(),
      gauges.at("in_service").as_double());
  std::fflush(stdout);
}

/// Interactive mode: request lines are submitted as they arrive; dot
/// directives drive the engine.  Ends at .quit or EOF (both drain).
int run_command_loop(cfm::serve::Server& server, std::istream& in,
                     bool quiet) {
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (!line.empty() && line[0] == '.') {
      std::istringstream directive(line.substr(1));
      std::string verb;
      directive >> verb;
      if (verb == "run") {
        cfm::sim::Cycle cycles = 0;
        directive >> cycles;
        server.run(cycles);
      } else if (verb == "drain") {
        server.drain();
      } else if (verb == "stats") {
        print_window_stats(server);
      } else if (verb == "metrics") {
        std::fputs(server.prometheus_text().c_str(), stdout);
        std::fflush(stdout);
      } else if (verb == "report") {
        std::cout << server.report_json().dump(2) << '\n';
      } else if (verb == "quit") {
        break;
      } else {
        std::fprintf(stderr, "stdin:%zu: unknown directive '.%s'\n", lineno,
                     verb.c_str());
        return 2;
      }
      continue;
    }
    try {
      if (const auto req = cfm::serve::parse_request_line(line)) {
        server.submit(*req);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "stdin:%zu: %s\n", lineno, e.what());
      return 2;
    }
    if (!quiet && lineno % 4096 == 0) print_summary(server);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cfm;
  const auto cli = parse_cli(argc, argv);
  if (cli.tuning_set) sim::set_engine_tuning(cli.tuning);

  std::unique_ptr<serve::Server> server;
  try {
    server = std::make_unique<serve::Server>(cli.serve);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  int rc = 0;
  try {
    if (!cli.requests_path.empty()) {
      server->submit(serve::load_request_file(cli.requests_path));
      server->drain();
    } else if (cli.count != 0) {
      server->submit(serve::synth_requests(cli.count, cli.write_frac,
                                           cli.swap_frac, cli.lock_frac,
                                           cli.blocks, cli.serve.seed));
      server->drain();
    } else {
      rc = run_command_loop(*server, std::cin, cli.quiet);
      if (rc != 0) return rc;
      server->drain();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }

  if (!cli.quiet) print_summary(*server);

  if (!cli.json_out.empty()) {
    std::ofstream os(cli.json_out);
    if (os) {
      server->report_json().dump_to(os, 2);
      os << '\n';
    }
    if (!os) {
      std::fprintf(stderr, "error: cannot write report to '%s'\n",
                   cli.json_out.c_str());
      return 1;
    }
    if (!cli.quiet) {
      std::printf("report written to %s\n", cli.json_out.c_str());
    }
  }

  if (!cli.metrics_out.empty()) {
    std::ofstream os(cli.metrics_out);
    if (os) os << server->prometheus_text();
    if (!os) {
      std::fprintf(stderr, "error: cannot write metrics to '%s'\n",
                   cli.metrics_out.c_str());
      return 1;
    }
    if (!cli.quiet) {
      std::printf("metrics written to %s\n", cli.metrics_out.c_str());
    }
  }

  const auto* auditor = server->auditor();
  if (auditor != nullptr && auditor->violations() != 0) return 3;
  if (cli.anomaly_exit && server->telemetry() != nullptr) {
    const auto report = server->report_json();
    const auto count = report.at("anomalies").at("count").as_uint();
    if (count != 0) {
      std::fprintf(stderr, "anomaly gate: %llu finding(s) in the report\n",
                   static_cast<unsigned long long>(count));
      return 4;
    }
  }
  return rc;
}
