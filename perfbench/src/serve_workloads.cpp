// serve_poisson: the open-loop serving path (serve::Server over one
// 16-processor, c = 2 CfmMemory, serial engine).
#include <optional>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "serve/server.hpp"
#include "sim/audit.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using cfm::serve::Request;
using cfm::serve::RequestKind;
using cfm::sim::Cycle;
using cfm::sim::Json;

struct ServeShape {
  double rate;          ///< Poisson arrivals per cycle
  std::size_t count;    ///< synthesised requests
  std::uint64_t blocks; ///< distinct block addresses
  double write_frac;
  double swap_frac;
  double lock_frac;
  Cycle chunk;          ///< cycles per Server::run call
};

// The cfm_serve default mix, mostly idle between arrivals.  A pass of
// 250 000 requests (5 M cycles, about a second of host time) lets one run
// time each of its 1221 chunks some forty times.
constexpr ServeShape kPoisson{0.05, 250'000, 4096, 0.25, 0.05, 0.05, 4096};

constexpr std::uint32_t kProcessors = 16;
constexpr std::uint32_t kBankCycle = 2;
/// Prefix of the request stream that drives the standalone CfmMemory.
constexpr std::size_t kStandaloneRequests = 100'000;
/// Parses of the serialised report per pass (about a millisecond each).
constexpr int kReparses = 4;

struct Pass {
  double setup_s = 0.0;  ///< synth + construct + submit
  double run_s = 0.0;    ///< first run() through the serialised report
  double synth_s = 0.0;
  double submit_s = 0.0;
  double report_s = 0.0;
  double dump_s = 0.0;
  double reread_s = 0.0;  ///< parse the serialised report back
  std::vector<double> chunk_ms;
  Cycle cycles = 0;  ///< engine clock at the end
  std::size_t submitted = 0;
  Json report;
  std::string text;
  Json reread;
};

Pass serve_pass(const cfm::serve::ServeOptions& so, const ServeShape& shape,
                std::uint64_t synth_seed, Tracer& tracer) {
  Pass p;
  Span pass(tracer, "bench.serve_pass");
  const auto t0 = Clock::now();
  std::vector<Request> requests;
  {
    Span s(tracer, "serve.synth_requests");
    requests = cfm::serve::synth_requests(shape.count, shape.write_frac,
                                          shape.swap_frac, shape.lock_frac,
                                          shape.blocks, synth_seed);
    p.synth_s = s.stop();
  }
  std::optional<cfm::serve::Server> server;
  {
    Span s(tracer, "serve.Server");
    server.emplace(so);
  }
  {
    Span s(tracer, "serve.submit");
    server->submit(requests);
    p.submit_s = s.stop();
  }
  const auto t1 = Clock::now();
  p.setup_s = seconds_between(t0, t1);

  // Fixed chunks until every request resolved; the cap only bounds a hang
  // (drain() then reports the remainder as unfinished).
  const auto cap = static_cast<Cycle>(2.0 * static_cast<double>(shape.count) /
                                      shape.rate) +
                   (Cycle{1} << 20);
  while (server->outstanding() != 0 && server->now() < cap) {
    Span s(tracer, "serve.run");
    server->run(shape.chunk);
    p.chunk_ms.push_back(1e3 * s.stop());
  }
  {
    Span s(tracer, "serve.drain");
    server->drain();
  }
  {
    Span s(tracer, "serve.report_json");
    p.report = server->report_json();
    p.report_s = s.stop();
  }
  {
    Span s(tracer, "sim.json_dump");
    p.text = p.report.dump();
    p.dump_s = s.stop();
  }
  p.run_s = seconds_between(t1, Clock::now());
  p.cycles = server->now();
  p.submitted = requests.size();
  {
    Span s(tracer, "sim.json_parse");
    for (int i = 0; i < kReparses; ++i) p.reread = Json::parse(p.text);
    p.reread_s = s.stop() / kReparses;
  }
  return p;
}

std::uint64_t metric_u64(const Json& report, const char* name) {
  return report.at("metrics").at(name).as_uint();
}

std::uint64_t memory_counter(const Json& report, const char* name) {
  const auto& mem = report.at("counters").at("memory");
  return mem.contains(name) ? mem.at(name).as_uint() : 0;
}

/// Output checks on one serve report; returns requests resolved.
std::uint64_t check_report(Result& r, const Pass& p) {
  const auto& rep = p.report;
  const auto offered = metric_u64(rep, "offered");
  const auto completed = metric_u64(rep, "completed");
  const auto rejected = metric_u64(rep, "rejected");
  const auto failed = metric_u64(rep, "failed");
  const auto unfinished = metric_u64(rep, "unfinished");
  r.check(offered == completed + rejected + failed + unfinished,
          "serve_ledger",
          "offered " + std::to_string(offered) + " != completed + rejected + "
              "failed + unfinished");
  r.check(offered == p.submitted, "serve_all_offered",
          std::to_string(offered) + " of " + std::to_string(p.submitted));
  r.check(memory_counter(rep, "bank_failures_unmapped") == 0,
          "bank_failures_unmapped");
  r.check(p.reread == rep, "report_round_trip",
          "the serialised report parses to another document");
  r.attempted = offered;
  r.failed = failed + unfinished;
  return completed + rejected + failed;
}

double useful_tour_ratio(const Json& report) {
  const double tours =
      static_cast<double>(memory_counter(report, "ops_issued") +
                          memory_counter(report, "read_restarts") +
                          memory_counter(report, "write_restarts") +
                          memory_counter(report, "swap_restarts"));
  return tours == 0.0 ? 0.0
                      : static_cast<double>(
                            memory_counter(report, "ops_completed")) /
                            tours;
}

void set_memory_layers(Result& r, const Json& report) {
  for (const char* name : {"ops_issued", "ops_completed", "ops_aborted",
                           "read_restarts", "write_restarts",
                           "swap_restarts"}) {
    r.layer(std::string("cfm.") + name,
            static_cast<double>(memory_counter(report, name)));
  }
  r.layer("cfm.useful_tour_ratio", useful_tour_ratio(report));
}

struct TickTiming {
  double tick_ns = 0.0;
  double issue_ns = 0.0;
  std::uint64_t violations = 0;
};

/// A standalone CfmMemory of the serve shape, ticked by hand: every idle
/// port issues the next request of the stream (ops the memory aborts are
/// not retried).  Times each tick() and issue() call.
TickTiming drive_memory(const std::vector<Request>& requests, bool audited,
                        Tracer& tracer) {
  namespace core = cfm::core;
  core::CfmMemory mem(core::CfmConfig::make(kProcessors, kBankCycle));
  std::optional<cfm::sim::ConflictAuditor> auditor;
  if (audited) {
    auditor.emplace();
    mem.set_audit(*auditor);
  }
  const core::ModifyFn increment = [](const std::vector<cfm::sim::Word>& in) {
    auto out = in;
    if (!out.empty()) ++out[0];
    return out;
  };
  const core::ModifyFn test_and_set =
      [](const std::vector<cfm::sim::Word>& in) {
        auto out = in;
        if (!out.empty()) out[0] = 1;
        return out;
      };
  std::vector<cfm::sim::Word> payload(mem.config().banks);

  Span span(tracer, audited ? "cfm.drive_audited" : "cfm.drive");
  std::vector<core::CfmMemory::OpToken> ops(kProcessors,
                                            core::CfmMemory::kNoOp);
  std::size_t next = 0;
  std::size_t resolved = 0;
  double tick_s = 0.0;
  double issue_s = 0.0;
  Cycle now = 0;
  while (resolved < requests.size()) {
    for (std::uint32_t p = 0; p < kProcessors; ++p) {
      if (ops[p] != core::CfmMemory::kNoOp && mem.take_result(ops[p])) {
        ops[p] = core::CfmMemory::kNoOp;
        ++resolved;
      }
      if (ops[p] != core::CfmMemory::kNoOp || next == requests.size()) {
        continue;
      }
      const Request& req = requests[next++];
      for (std::size_t w = 0; w < payload.size(); ++w) {
        payload[w] = req.block ^ w;
      }
      const auto t0 = Clock::now();
      switch (req.kind) {
        case RequestKind::Read:
          ops[p] = mem.issue(now, p, core::BlockOpKind::Read, req.block);
          break;
        case RequestKind::Write:
          ops[p] = mem.issue(now, p, core::BlockOpKind::Write, req.block,
                             payload);
          break;
        case RequestKind::Swap:
          ops[p] = mem.issue(now, p, core::BlockOpKind::Swap, req.block, {},
                             increment);
          break;
        case RequestKind::Lock:
          ops[p] = mem.issue(now, p, core::BlockOpKind::Swap, req.block, {},
                             test_and_set);
          break;
      }
      issue_s += seconds_between(t0, Clock::now());
    }
    const auto t0 = Clock::now();
    mem.tick(now);
    tick_s += seconds_between(t0, Clock::now());
    ++now;
  }
  TickTiming out;
  out.tick_ns = 1e9 * tick_s / static_cast<double>(now);
  out.issue_ns = 1e9 * issue_s / static_cast<double>(requests.size());
  out.violations = auditor ? auditor->violations() : 0;
  return out;
}

/// Keeps one report for tools/validate_report.py.
void write_report(const Options& opt, const Pass& p, Result& r) {
  const std::string path = opt.work_dir + "/serve_report.json";
  r.check(write_file(path, p.text + "\n"), "write_report", path);
  r.reports.push_back(path);
}

void trace_serve(const Options& opt, const ServeShape& shape,
                 const cfm::serve::ServeOptions& so, std::uint64_t synth_seed,
                 Tracer& tracer, Result& r) {
  // The first pass in a process pays for fresh heap pages; warm up before
  // the untraced / traced pairs whose ratio is the tracing overhead.
  Tracer untraced(false, "");
  serve_pass(so, shape, synth_seed, untraced);
  Pass p;
  const double overhead = median_share([&] {
    const Pass base = serve_pass(so, shape, synth_seed, untraced);
    p = serve_pass(so, shape, synth_seed, tracer);
    r.check(base.report == p.report, "digest_repeats", "traced pass differs");
    return (p.setup_s + p.run_s) / (base.setup_s + base.run_s) - 1.0;
  });
  r.layer("trace.overhead_share", overhead);

  // Host-time share of telemetry: 1 - run time without it / with it.
  {
    Span s(tracer, "bench.rerun_no_telemetry");
    auto no_telemetry = so;
    no_telemetry.telemetry = false;
    r.layer("sim.telemetry_share", median_share([&] {
              const Pass with = serve_pass(so, shape, synth_seed, untraced);
              const Pass without =
                  serve_pass(no_telemetry, shape, synth_seed, untraced);
              return 1.0 - without.run_s / with.run_s;
            }));
  }

  auto stream = cfm::serve::synth_requests(
      std::min(shape.count, kStandaloneRequests), shape.write_frac,
      shape.swap_frac, shape.lock_frac, shape.blocks, synth_seed);
  const auto plain = drive_memory(stream, false, tracer);
  const auto audited = drive_memory(stream, true, tracer);
  r.check(audited.violations == 0, "standalone_audit_violations");
  r.layer("cfm.tick_ns", plain.tick_ns);
  r.layer("cfm.issue_ns", plain.issue_ns);
  r.layer("cfm.tick_audited_ns", audited.tick_ns);

  check_report(r, p);
  const auto& m = p.report.at("metrics");
  r.layer("serve.synth_s", p.synth_s);
  r.layer("serve.submit_s", p.submit_s);
  r.layer("serve.run_ms", median(p.chunk_ms));
  r.layer("serve.report_s", p.report_s);
  r.layer("serve.rejected", m.at("rejected").as_double());
  r.layer("serve.retried", m.at("retried").as_double());
  r.layer("serve.shed_frac", m.at("shed_fraction").as_double());
  r.layer("sim.json_dump_s", p.dump_s);
  set_memory_layers(r, p.report);
  r.digest = cfm::sim::canonical_hash_hex(p.report);
  r.reps = 1;
  r.chunks = p.chunk_ms.size();
  write_report(opt, p, r);
}

}  // namespace

void run_serve(const Options& opt, Tracer& tracer, Result& r) {
  const ServeShape& shape = kPoisson;
  cfm::serve::ServeOptions so;
  so.processors = kProcessors;
  so.bank_cycle = kBankCycle;
  so.arrival.shape = cfm::serve::LoadShape::Poisson;
  so.arrival.rate = shape.rate;
  so.seed = derive_seed(opt.seed, 1);
  so.threads = 1;
  so.telemetry = true;
  const std::uint64_t synth_seed = derive_seed(opt.seed, 2);

  if (opt.trace) {
    trace_serve(opt, shape, so, synth_seed, tracer, r);
  } else {
    std::vector<Rep> reps;
    Pass first;
    std::uint64_t resolved = 0;
    const auto start = Clock::now();
    while (more_reps(r.reps, start, opt.seconds)) {
      Pass p = serve_pass(so, shape, synth_seed, tracer);
      resolved = check_report(r, p);
      reps.push_back({.setup_s = p.setup_s,
                      .run_s = p.run_s,
                      .cached_s = p.reread_s,
                      .chunk_ms = std::move(p.chunk_ms),
                      .piece_ms = {}});
      if (r.reps++ == 0) {
        first = std::move(p);
      } else {
        r.check(p.text == first.text, "digest_repeats",
                "rep " + std::to_string(r.reps) + " report differs");
      }
    }
    const auto& m = first.report.at("metrics");
    set_end_to_end(
        r, reps,
        {.requests = static_cast<double>(resolved),
         .cycles = static_cast<double>(first.cycles),
         .points = 1.0,
         .cached_points = 1.0,
         .points_over_pass = true,
         .chunks_tile_run = true},
        {.ops_per_kcycle = 1e3 * m.at("completed").as_double() /
                           m.at("cycles").as_double(),
         .latency_p50 = m.at("latency_p50").as_double(),
         .latency_p99 = m.at("latency_p99").as_double(),
         .goodput = m.at("goodput_attainment").as_double()});
    r.digest = cfm::sim::canonical_hash_hex(first.report);
    write_report(opt, first, r);
  }
}

}  // namespace perfbench
