// Reproduces Fig 3.6: the timing diagram of a CFM read with memory bank
// cycle c = 2 — addresses walk the banks one slot apart, data returns one
// bank cycle later, the whole block completes at beta = b + c - 1.
//
// With --txn-trace <path> the per-slot bank walk is also emitted as a
// Chrome trace (load <path> in chrome://tracing or Perfetto): each bank
// visit is a 1-slot span on processor 0's lane — the figure, live.
#include <cstdio>

#include "cfm/at_space.hpp"
#include "cfm/cfm_memory.hpp"
#include "report_main.hpp"
#include "sim/audit.hpp"
#include "sim/txn_trace.hpp"

int main(int argc, char** argv) {
  using namespace cfm;
  const auto opts =
      bench::parse_options(argc, argv, {.audit = true, .txn_trace = true});
  const auto cfg = core::CfmConfig::make(4, 2, 16);
  core::AtSpace at(cfg);
  sim::Report report("fig3_6_timing");
  report.set_param("processors", cfg.processors);
  report.set_param("bank_cycle", cfg.bank_cycle);
  report.set_param("banks", cfg.banks);

  std::printf("Fig 3.6 — Timing of a read issued by processor 0 at slot 0 "
              "(n=4, c=2, b=8)\n\n");
  std::printf("%-8s %-16s %-18s\n", "word j", "address at slot",
              "data returns at slot");
  for (std::uint32_t j = 0; j < cfg.banks; ++j) {
    std::printf("B%-7u %-16llu %-18llu\n", at.visit_bank(0, 0, j),
                static_cast<unsigned long long>(0 + j),
                static_cast<unsigned long long>(at.data_slot(0, j)));
    auto row = sim::Json::object();
    row["bank"] = at.visit_bank(0, 0, j);
    row["address_slot"] = j;
    row["data_slot"] = at.data_slot(0, j);
    report.add_row("word_timing", std::move(row));
  }
  std::printf("\ncompletion: slot %llu  (beta = %u)\n",
              static_cast<unsigned long long>(at.completion(0)),
              cfg.block_access_time());
  report.add_scalar("completion_slot", at.completion(0));
  report.add_scalar("beta", cfg.block_access_time());

  // Non-stall start: the same access issued at every possible phase.
  std::printf("\nNon-stall block access (issued at any slot, §3.1.1):\n");
  core::CfmMemory mem(cfg);
  sim::TxnTracer tracer;
  sim::ConflictAuditor auditor;
  if (!opts.txn_trace_out.empty()) mem.set_txn_trace(tracer);
  if (opts.audit) mem.set_audit(auditor);
  sim::Cycle t = 0;
  bool all_beta = true;
  for (sim::Cycle start = 0; start < cfg.banks; ++start) {
    // Align the live clock to phase `start` (issuing with a stale cycle
    // would fake the timing math while the banks serve on the real one).
    while (t % cfg.banks != start) mem.tick(t++);
    const auto op = mem.issue(t, 0, core::BlockOpKind::Read, start);
    while (mem.result(op) == nullptr) mem.tick(t++);
    const auto r = mem.take_result(op);
    const auto latency = r->completed - r->issued;
    std::printf("  issue slot %llu -> %llu cycles\n",
                static_cast<unsigned long long>(start),
                static_cast<unsigned long long>(latency));
    if (latency != cfg.block_access_time()) all_beta = false;
    auto row = sim::Json::object();
    row["issue_slot"] = start;
    row["latency"] = latency;
    report.add_row("start_phase_latency", std::move(row));
  }
  std::printf("\nevery start phase costs exactly beta: %s "
              "(the Monarch/OMP stall does not exist here)\n",
              all_beta ? "PASS" : "FAIL");
  report.add_scalar("all_phases_cost_beta", all_beta);

  bool audit_ok = true;
  if (opts.audit) {
    auditor.to_report(report);
    audit_ok = auditor.violations() == 0;
    std::printf("audit: %llu checks, %llu violations: %s\n",
                static_cast<unsigned long long>(auditor.checks_performed()),
                static_cast<unsigned long long>(auditor.violations()),
                audit_ok ? "PASS" : "FAIL");
  }
  if (!opts.txn_trace_out.empty()) {
    tracer.to_report(report);
    sim::ChromeTrace chrome;
    tracer.to_chrome(chrome);
    if (!chrome.write_file(opts.txn_trace_out)) {
      std::fprintf(stderr, "error: cannot write txn trace to '%s'\n",
                   opts.txn_trace_out.c_str());
      return 1;
    }
    std::printf("txn trace written to %s\n", opts.txn_trace_out.c_str());
  }
  return bench::finish(opts, report, all_beta && audit_ok ? 0 : 1);
}
