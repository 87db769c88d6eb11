// Coded-redundancy memory at equal bank budgets.
//
// CFM buys conflict freedom with b = c·n banks; the coded backend asks
// what a machine with a *smaller* bank budget B < c·n keeps of that
// performance when busy-or-dead banks are served by XOR-decoding the
// stripe instead of stalling.  Three machines, one workload shape:
//
//   * coded        B banks split D data + P parity per
//                  enumerate_coded_tradeoffs (the code-rate axis, from
//                  uncoded through single-parity stripes to mirrors),
//                  runtime-audited under the CodedRelaxed scope;
//   * full CFM     b = c·n banks, the strict conflict-free scope as the
//                  negative control — the relaxed scope must not be the
//                  only one that can pass;
//   * conventional B modules, no schedule — what the same budget buys
//                  without any structure at all.
//
// A second pass reruns the representative coded split with a data bank
// killed mid-run: the dead bank must be absorbed entirely by permanent
// decode (zero failed accesses, auditor still green, decode fan-out
// within the stripe-width bound).
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "mem/coded/code_descriptor.hpp"
#include "mem/coded/coded_memory.hpp"
#include "report_main.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm;

constexpr std::uint32_t kProcessors = 8;
constexpr std::uint32_t kBankCycle = 2;
constexpr std::uint32_t kBankBudget = 12;  ///< < c·n = 16: the point
constexpr double kRate = 0.25;
constexpr double kWriteFraction = 0.3;
constexpr sim::Cycle kCycles = 20000;

struct CodedCase {
  workload::EfficiencyResult r;
  sim::CounterSet counters;
  std::uint32_t decode_fanout_max = 0;
  std::uint64_t pending_parity = 0;
  std::uint64_t violations = 0;
  std::uint64_t injected = 0;
  sim::Json audit;  ///< full auditor export when --audit (else null)
};

CodedCase run_coded(const mem::coded::CodedConfig& cfg, bool audit,
                    const std::string& plan_text, std::uint64_t seed) {
  CodedCase out;
  mem::coded::CodedMemory memory(cfg);
  sim::ConflictAuditor auditor;
  if (audit) memory.set_audit(auditor);
  std::unique_ptr<sim::FaultInjector> injector;
  if (!plan_text.empty()) {
    auto plan = sim::FaultPlan::parse(plan_text);
    plan.validate_single_module(cfg.banks_provisioned(),
                                "coded memory (data + parity banks)");
    injector = std::make_unique<sim::FaultInjector>(std::move(plan), seed);
    memory.set_fault_injector(*injector);
  }
  workload::RunHooks hooks;
  hooks.counters_out = &out.counters;
  out.r = workload::measure_instrumented(memory, kRate, kWriteFraction,
                                         kCycles, seed, hooks);
  out.decode_fanout_max = memory.decode_fanout_max();
  out.pending_parity = memory.pending_parity();
  out.violations = auditor.violations();
  out.injected = auditor.injected_detected();
  if (audit) out.audit = auditor.to_json();
  return out;
}

sim::Json coded_row(const char* scenario, const mem::coded::CodedConfig& cfg,
                    const CodedCase& c) {
  const auto& code = cfg.code;
  const auto reads_direct = c.counters.get("word_reads_direct");
  const auto reads_decoded = c.counters.get("word_reads_decoded");
  const auto writes = c.counters.get("word_writes_direct") +
                      c.counters.get("word_writes_decoded");
  auto row = sim::Json::object();
  row["scenario"] = scenario;
  row["data_banks"] = code.data_banks;
  row["parity_banks"] = code.parity_banks();
  row["stripe_width"] = code.stripe_width;
  row["parity_per_stripe"] = code.parity_per_stripe;
  row["parity_policy"] = std::string(mem::coded::parity_policy_name(code.policy));
  row["code_rate"] = code.code_rate();
  row["banks_provisioned"] = cfg.banks_provisioned();
  row["banks_required_cfm"] = cfg.banks_required_cfm();
  row["efficiency"] = c.r.efficiency;
  row["mean_access_time"] = c.r.mean_access_time;
  row["completed"] = c.r.completed;
  row["failed"] = c.r.failed;
  row["unfinished"] = c.r.unfinished;
  row["reads_direct"] = reads_direct;
  row["reads_decoded"] = reads_decoded;
  row["writes"] = writes;
  row["decode_fanout_max"] = c.decode_fanout_max;
  row["parity_updates"] = c.counters.get("parity_updates");
  row["parity_amplification"] =
      writes == 0 ? 0.0
                  : static_cast<double>(c.counters.get("parity_updates")) /
                        static_cast<double>(writes);
  row["decode_mismatches"] = c.counters.get("decode_mismatches");
  row["bank_failures"] = c.counters.get("bank_failures");
  row["violations"] = c.violations;
  row["injected_detected"] = c.injected;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace cfm;
  const auto opts =
      bench::parse_options(argc, argv, {.audit = true, .fault_plan = true,
                                        .seed = true});
  const std::uint64_t seed = opts.seed.value_or(2024);

  sim::Report report("coded_memory");
  report.set_param("processors", kProcessors);
  report.set_param("bank_cycle", kBankCycle);
  report.set_param("bank_budget", kBankBudget);
  report.set_param("rate", kRate);
  report.set_param("write_fraction", kWriteFraction);
  report.set_param("cycles", kCycles);
  report.set_param("seed", seed);

  std::printf("Coded memory at equal bank budgets "
              "(n=%u, c=%u, budget=%u banks vs CFM's c*n=%u, r=%.2f, "
              "wf=%.2f, %llu cycles)\n\n",
              kProcessors, kBankCycle, kBankBudget,
              kProcessors * kBankCycle, kRate, kWriteFraction,
              static_cast<unsigned long long>(kCycles));
  std::printf("%-10s %-5s %-5s %-3s %-3s %-7s %-6s %-9s %-9s %-7s %-8s "
              "%-8s %-7s %-7s\n",
              "scenario", "D", "P", "k", "r", "policy", "rate", "mean_lat",
              "eff", "failed", "decoded", "fanout", "par_amp", "violate");

  bool ok = true;
  const auto emit = [&](const char* scenario,
                        const mem::coded::CodedConfig& cfg,
                        const CodedCase& c) {
    auto row = coded_row(scenario, cfg, c);
    std::printf("%-10s %-5u %-5u %-3u %-3u %-7s %-6.2f %-9.2f %-9.3f "
                "%-7llu %-8llu %-8u %-7.2f %-7llu\n",
                scenario, cfg.code.data_banks, cfg.code.parity_banks(),
                cfg.code.stripe_width, cfg.code.parity_per_stripe,
                std::string(mem::coded::parity_policy_name(cfg.code.policy))
                    .c_str(),
                cfg.code.code_rate(), c.r.mean_access_time, c.r.efficiency,
                static_cast<unsigned long long>(c.r.failed),
                static_cast<unsigned long long>(
                    c.counters.get("word_reads_decoded")),
                c.decode_fanout_max, row.at("parity_amplification").as_double(),
                static_cast<unsigned long long>(c.violations));
    // The coded contract: decodes never exceed the stripe-width fan-out
    // bound, every decode reproduces the architectural word, the relaxed
    // scope stays green, and nothing fails without a fault in play.
    if (c.decode_fanout_max > cfg.code.stripe_width) ok = false;
    if (c.counters.get("decode_mismatches") != 0) ok = false;
    if (c.violations != 0) ok = false;
    if (c.r.completed == 0) ok = false;
    report.add_row("coded", std::move(row));
  };

  // --- Clean sweep over every realizable split of the budget. ---------
  bool saw_uncoded = false;
  for (const std::uint32_t k : {4u, 2u}) {
    for (const auto& t :
         mem::coded::enumerate_coded_tradeoffs(kBankBudget, k)) {
      if (t.parity_per_stripe == 0) {
        // The uncoded split is policy- and width-independent; keep one.
        if (saw_uncoded) continue;
        saw_uncoded = true;
      }
      for (const auto policy : {mem::coded::ParityPolicy::ReadModifyWrite,
                                mem::coded::ParityPolicy::Logged}) {
        if (t.parity_per_stripe == 0 &&
            policy == mem::coded::ParityPolicy::Logged) {
          continue;  // no parity, nothing to log
        }
        mem::coded::CodedConfig cfg;
        cfg.processors = kProcessors;
        cfg.bank_cycle = kBankCycle;
        cfg.code.data_banks = t.data_banks;
        cfg.code.stripe_width = k;
        cfg.code.parity_per_stripe = t.parity_per_stripe;
        cfg.code.policy = policy;
        cfg.validate();
        const auto c = run_coded(cfg, opts.audit, "", seed);
        if (c.r.failed != 0) ok = false;  // clean run: nothing may fail
        emit("clean", cfg, c);
      }
    }
  }

  // --- Representative split with a data bank killed mid-run. ----------
  // A (k=4, r=2) stripe group tolerates one erasure per sub-group: the
  // dead bank's words must arrive by decode for the rest of the run with
  // zero failed accesses.
  {
    mem::coded::CodedConfig cfg;
    cfg.processors = kProcessors;
    cfg.bank_cycle = kBankCycle;
    cfg.code.data_banks = 8;
    cfg.code.stripe_width = 4;
    cfg.code.parity_per_stripe = 2;
    cfg.validate();
    const std::string plan = opts.fault_plan.empty()
                                 ? "bank_dead@5000:module=0,bank=3"
                                 : opts.fault_plan;
    CodedCase c;
    try {
      c = run_coded(cfg, opts.audit, plan, seed);
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "error: bad fault plan '%s': %s\n", plan.c_str(),
                   e.what());
      return 2;
    }
    // Degraded contract: the death is absorbed by decode — no failed
    // accesses, decodes actually happened, and (when auditing) the
    // injected event was classified, not counted as a violation.
    if (c.r.failed != 0) ok = false;
    if (c.counters.get("word_reads_decoded") == 0) ok = false;
    if (c.counters.get("bank_failures") == 0) ok = false;
    if (opts.audit && c.injected == 0) ok = false;
    // The degraded run's auditor export is the report's audit section:
    // the CodedRelaxed scope observed under fire, injected events and all.
    if (opts.audit) report.add_section("audit", c.audit);
    emit("bank_dead", cfg, c);
  }

  // --- Reference machines. --------------------------------------------
  // Full CFM at b = c·n (4/3 of the coded budget) under the *strict*
  // conflict-free scope: the negative control proving the relaxed scope
  // is a deliberate weakening, not the only scope that can pass.
  {
    core::CfmMemory memory(core::CfmConfig::make(kProcessors, kBankCycle));
    sim::ConflictAuditor auditor;
    if (opts.audit) memory.set_audit(auditor);
    const auto r =
        workload::measure_instrumented(memory, kRate, 0.0, kCycles, seed);
    std::printf("%-10s %-5u %-5s %-3s %-3s %-7s %-6s %-9.2f %-9.3f "
                "%-7llu %-8s %-8s %-7s %-7llu\n",
                "cfm_full", kProcessors * kBankCycle, "-", "-", "-", "-",
                "-", r.mean_access_time, r.efficiency,
                static_cast<unsigned long long>(r.failed), "-", "-", "-",
                static_cast<unsigned long long>(auditor.violations()));
    if (auditor.violations() != 0) ok = false;
    if (r.efficiency < 0.95) ok = false;  // the paper's ~100% claim
    auto row = sim::Json::object();
    row["machine"] = "cfm_full";
    row["banks"] = kProcessors * kBankCycle;
    row["efficiency"] = r.efficiency;
    row["mean_access_time"] = r.mean_access_time;
    row["completed"] = r.completed;
    row["failed"] = r.failed;
    row["violations"] = auditor.violations();
    report.add_row("reference", std::move(row));
  }
  // Conventional machine at exactly the coded budget: B modules, no
  // schedule — the floor the code has to beat to justify its parity.
  {
    const auto r = workload::measure_conventional(
        kProcessors, kBankBudget, kBankBudget + kBankCycle - 1, kRate,
        kCycles, seed);
    std::printf("%-10s %-5u %-5s %-3s %-3s %-7s %-6s %-9.2f %-9.3f "
                "%-7llu %-8s %-8s %-7s %-7s\n",
                "convent", kBankBudget, "-", "-", "-", "-", "-",
                r.mean_access_time, r.efficiency,
                static_cast<unsigned long long>(r.failed), "-", "-", "-",
                "-");
    auto row = sim::Json::object();
    row["machine"] = "conventional";
    row["banks"] = kBankBudget;
    row["efficiency"] = r.efficiency;
    row["mean_access_time"] = r.mean_access_time;
    row["completed"] = r.completed;
    row["failed"] = r.failed;
    report.add_row("reference", std::move(row));
  }

  report.add_scalar("pass", ok);
  std::printf("\ncoded contract (fan-out within stripe width, decodes "
              "verified, auditor green,\nbank death absorbed by decode with "
              "zero failures): %s\n",
              ok ? "PASS" : "FAIL");
  return bench::finish(opts, report, ok ? 0 : 1);
}
