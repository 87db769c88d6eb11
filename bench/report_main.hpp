// Shared command-line plumbing for the bench harnesses.
//
// Every bench prints its human-readable table to stdout exactly as
// before; with `--json-out <path>` it additionally serializes a
// cfm::sim::Report (schema "cfm-bench-report/v1") so CI can diff the
// numbers and archive them as artifacts.  Keeping the flag parsing and
// the exit-code convention here means each bench main() only has to
// fill in its Report.
//
// Observability flags.  Each bench passes parse_options the ones it reads
// (`Reads`; bench_sim_throughput, with its own parser, reads none).  Any
// other one it is given is a usage error (exit 2 naming the flag), so a
// flag is never accepted and then silently ignored:
//   --audit             attach the runtime ConflictAuditor; the bench
//                       adds the "audit" report section and fails when a
//                       conflict-free scope reports violations
//   --txn-trace <path>  attach the TxnTracer and write its Chrome trace
//                       (chrome://tracing / Perfetto format) to <path>;
//                       the "txn_trace" report section rides --json-out
//   --fault-plan <spec> deterministic fault schedule (sim::FaultPlan
//                       grammar, e.g. "bank_dead@100+500:bank=3")
//   --seed <u64>        override the bench's built-in workload seed, so
//                       campaigns and CI can vary seeds without a rebuild
// Engine-tuning flags (every bench):
//   --fast-path <0|1>   force the engine's batch-tick fast path off/on for
//                       every engine the bench constructs (DESIGN.md §12);
//                       bit-exact either way, so this only changes speed
//   --max-span <N>      cap span fusion at N >= 1 cycles (default 64)
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <utility>

#include "sim/engine.hpp"
#include "sim/report.hpp"

namespace cfm::bench {

/// Checked flag values, shared with bench mains that parse their own
/// argument lists (bench_sim_throughput hands the rest to
/// google-benchmark).  Each prints a message naming the flag and exits 2
/// on a bad value.

/// An unsigned integer (decimal, or 0x hex / 0 octal), fully consumed.
inline std::uint64_t parse_uint_flag(const char* argv0, const char* flag,
                                     const std::string& text) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 0);
  if (text.empty() || text.front() == '-' || end == text.c_str() ||
      *end != '\0' || errno == ERANGE) {
    std::fprintf(stderr, "%s: %s wants an unsigned integer, got '%s'\n",
                 argv0, flag, text.c_str());
    std::exit(2);
  }
  return static_cast<std::uint64_t>(v);
}

/// --fast-path: exactly 0 or 1.
inline bool parse_fast_path_flag(const char* argv0, const std::string& text) {
  if (text != "0" && text != "1") {
    std::fprintf(stderr, "%s: --fast-path wants 0 or 1, got '%s'\n", argv0,
                 text.c_str());
    std::exit(2);
  }
  return text == "1";
}

/// --max-span: a span of at least one cycle.
inline sim::Cycle parse_max_span_flag(const char* argv0,
                                      const std::string& text) {
  const std::uint64_t span = parse_uint_flag(argv0, "--max-span", text);
  if (span == 0) {
    std::fprintf(stderr, "%s: --max-span must be at least 1, got '%s'\n",
                 argv0, text.c_str());
    std::exit(2);
  }
  return static_cast<sim::Cycle>(span);
}

/// Consumes the value flag `flag` at argv[i], given as `--flag <value>`
/// or `--flag=<value>`, into `out` and returns true; returns false when
/// argv[i] is another argument.  A missing value (the flag is the last
/// argument) or an empty one exits 2 with "missing value for <flag>", so
/// `--json-out=` cannot run the bench and silently skip its report.
inline bool take_value_flag(int argc, char** argv, int& i, const char* flag,
                            std::string& out) {
  const std::string arg = argv[i];
  const std::string prefix = std::string(flag) + "=";
  std::string value;
  if (arg == flag) {
    if (i + 1 < argc) value = argv[++i];
  } else if (arg.rfind(prefix, 0) == 0) {
    value = arg.substr(prefix.size());
  } else {
    return false;
  }
  if (value.empty()) {
    std::fprintf(stderr, "%s: missing value for %s\n", argv[0], flag);
    std::exit(2);
  }
  out = std::move(value);
  return true;
}

/// Usage error for an observability flag the bench does not read.
[[noreturn]] inline void reject_unread(const char* argv0, const char* flag) {
  std::fprintf(stderr, "%s: this bench does not read %s\n", argv0, flag);
  std::exit(2);
}

/// The observability flags a bench reads; parse_options rejects the rest.
struct Reads {
  bool audit = false;
  bool txn_trace = false;
  bool fault_plan = false;
  bool seed = false;
};

struct Options {
  std::string json_out;   ///< empty = table output only
  std::string txn_trace_out;  ///< empty = transaction tracing off
  std::string fault_plan;     ///< empty = no injected faults
  bool audit = false;         ///< attach the conflict auditor
  /// Workload seed override; benches use `opts.seed.value_or(<default>)`
  /// so the built-in numbers stay reproducible when the flag is absent.
  std::optional<std::uint64_t> seed;
};

/// Parses `--json-out <path>` / `--json-out=<path>`, `--audit`,
/// `--txn-trace <path>` / `--txn-trace=<path>`, `--fault-plan <spec>` /
/// `--fault-plan=<spec>`, and `--seed <u64>` / `--seed=<u64>`.  Unknown
/// arguments print usage and exit(2) so a typo cannot silently drop the
/// report.  An observability flag `reads` leaves out exits(2) naming it,
/// so a bench never accepts a flag it would ignore.  A value flag given
/// as the last argument with no value is diagnosed explicitly ("missing
/// value for --json-out") instead of falling through to the generic
/// usage message, and so is an empty one (take_value_flag).  The
/// fault-plan spec itself is validated by the consuming bench
/// (sim::FaultPlan::parse throws std::invalid_argument; benches exit(2)
/// on a malformed spec).
inline Options parse_options(int argc, char** argv, Reads reads = {}) {
  Options opts;
  sim::EngineTuning tuning;
  std::string text;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (take_value_flag(argc, argv, i, "--json-out", opts.json_out)) continue;
    if (take_value_flag(argc, argv, i, "--txn-trace", opts.txn_trace_out)) {
      if (!reads.txn_trace) reject_unread(argv[0], "--txn-trace");
      continue;
    }
    if (take_value_flag(argc, argv, i, "--fault-plan", opts.fault_plan)) {
      if (!reads.fault_plan) reject_unread(argv[0], "--fault-plan");
      continue;
    }
    if (take_value_flag(argc, argv, i, "--seed", text)) {
      if (!reads.seed) reject_unread(argv[0], "--seed");
      opts.seed = parse_uint_flag(argv[0], "--seed", text);
      continue;
    }
    if (take_value_flag(argc, argv, i, "--fast-path", text)) {
      tuning.fast_path = parse_fast_path_flag(argv[0], text);
      continue;
    }
    if (take_value_flag(argc, argv, i, "--max-span", text)) {
      tuning.max_span = parse_max_span_flag(argv[0], text);
      continue;
    }
    if (arg == "--audit") {
      if (!reads.audit) reject_unread(argv[0], "--audit");
      opts.audit = true;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--json-out <path>] [--audit] "
                   "[--txn-trace <path>] [--fault-plan <spec>] "
                   "[--seed <u64>] [--fast-path <0|1>] [--max-span <N>]\n",
                   argv[0]);
      std::exit(2);
    }
  }
  if (tuning.fast_path.has_value() || tuning.max_span.has_value()) {
    sim::set_engine_tuning(tuning);
  }
  return opts;
}

/// Writes the report if requested and returns the process exit code:
/// `code` normally, 1 when the report file cannot be written (a bench
/// that passed but lost its artifact must still fail CI).
inline int finish(const Options& opts, const sim::Report& report,
                  int code = 0) {
  if (opts.json_out.empty()) return code;
  if (!report.write_file(opts.json_out)) {
    std::fprintf(stderr, "error: cannot write report to '%s'\n",
                 opts.json_out.c_str());
    return 1;
  }
  std::printf("\nreport written to %s\n", opts.json_out.c_str());
  return code;
}

}  // namespace cfm::bench
