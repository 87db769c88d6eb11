#include "campaign/runner.hpp"

#include <optional>
#include <string>
#include <type_traits>

#include "cfm/cfm_memory.hpp"
#include "mem/coded/code_descriptor.hpp"
#include "mem/coded/coded_memory.hpp"
#include "sim/audit.hpp"
#include "sim/fault.hpp"
#include "workload/access_gen.hpp"
#include "workload/lock_workload.hpp"
#include "workload/trace.hpp"

namespace cfm::campaign {
namespace {

using sim::Json;

/// Logical workload seed: the explicit "seed" axis value when given,
/// otherwise the content-derived stream (both flow through rng_seed()'s
/// canonical hash, so either way two distinct points never share one).
std::uint64_t effective_seed(const PointSpec& point) {
  return point.rng_seed();
}

Json audit_section(const sim::ConflictAuditor& auditor) {
  Json out = Json::object();
  out["violations"] = auditor.violations();
  out["conflicts_detected"] = auditor.conflicts_detected();
  out["checks"] = auditor.checks_performed();
  return out;
}

Json efficiency_metrics(const workload::EfficiencyResult& r) {
  Json m = Json::object();
  m["efficiency"] = r.efficiency;
  m["mean_access_time"] = r.mean_access_time;
  m["mean_retries"] = r.mean_retries;
  m["completed"] = r.completed;
  m["conflicts"] = r.conflicts;
  m["unfinished"] = r.unfinished;
  m["failed"] = r.failed;
  return m;
}

/// A closed-loop point (the cfm and coded families) on a memory the
/// caller built: the point's audit, fault plan, spares and telemetry
/// knobs wired in, and the result sections both families report.
template <typename Memory>
Json run_closed_loop(const PointSpec& point, Memory& memory,
                     double write_fraction) {
  const std::uint64_t seed = effective_seed(point);
  sim::ConflictAuditor auditor;
  if (point.audit) memory.set_audit(auditor);
  std::optional<sim::FaultInjector> injector;
  if (!point.fault_plan.empty()) {
    injector.emplace(sim::FaultPlan::parse(point.fault_plan), seed);
    if constexpr (std::is_same_v<Memory, core::CfmMemory>) {
      memory.set_fault_injector(
          *injector, point.has_param("spares") ? point.param_u32("spares") : 1);
    } else {
      memory.set_fault_injector(*injector);
    }
  }
  sim::CounterSet counters;
  sim::RunningStat access_time;
  workload::RunHooks hooks;
  hooks.counters_out = &counters;
  hooks.access_time_out = &access_time;
  Json timeseries;
  if (point.has_param("telemetry_window")) {
    hooks.telemetry_window = point.param_u64("telemetry_window");
    if (point.has_param("telemetry_capacity")) {
      hooks.telemetry_capacity =
          static_cast<std::size_t>(point.param_u64("telemetry_capacity"));
    }
    hooks.timeseries_out = &timeseries;
  }

  const auto r = workload::measure_instrumented(
      memory, point.param_double("rate"), write_fraction,
      point.param_u64("cycles"), seed, hooks);

  Json out = Json::object();
  out["metrics"] = efficiency_metrics(r);
  out["counters"] = sim::to_json(counters);
  Json stats = Json::object();
  stats["access_time"] = sim::to_json(access_time);
  out["stats"] = std::move(stats);
  if (hooks.timeseries_out != nullptr) out["timeseries"] = std::move(timeseries);
  if (point.audit) out["audit"] = audit_section(auditor);
  return out;
}

Json run_cfm(const PointSpec& point) {
  core::CfmMemory memory(
      core::CfmConfig::make(point.param_u32("n"), point.param_u32("c")));
  return run_closed_loop(point, memory, 0.0);
}

Json run_conventional(const PointSpec& point) {
  const auto r = workload::measure_conventional(
      point.param_u32("n"), point.param_u32("m"), point.param_u32("beta"),
      point.param_double("rate"), point.param_u64("cycles"),
      effective_seed(point));
  Json out = Json::object();
  out["metrics"] = efficiency_metrics(r);
  return out;
}

Json run_partial_cfm(const PointSpec& point) {
  const auto r = workload::measure_partial_cfm(
      point.param_u32("n"), point.param_u32("m"), point.param_u32("beta"),
      point.param_double("rate"), point.param_double("locality"),
      point.param_u64("cycles"), effective_seed(point));
  Json out = Json::object();
  out["metrics"] = efficiency_metrics(r);
  return out;
}

Json run_trace_replay(const PointSpec& point) {
  const auto n = point.param_u32("n");
  const auto c = point.param_u32("c");
  const auto trace = workload::Trace::uniform(
      n, 1, point.param_u64("blocks"),
      static_cast<std::size_t>(point.param_u64("accesses")),
      point.param_u64("span"), point.param_double("write_fraction"),
      effective_seed(point));
  sim::ConflictAuditor auditor;
  const auto r = workload::replay_on_cfm_instrumented(
      trace, n, c, nullptr, point.audit ? &auditor : nullptr);
  Json m = Json::object();
  m["mean_latency"] = r.mean_latency;
  m["completed"] = r.completed;
  m["aborted_writes"] = r.aborted_writes;
  m["restarts"] = r.restarts;
  m["unfinished"] = r.unfinished;
  m["makespan"] = r.makespan;
  Json out = Json::object();
  out["metrics"] = std::move(m);
  if (point.audit) out["audit"] = audit_section(auditor);
  return out;
}

Json run_lock(const PointSpec& point) {
  const auto contenders = point.param_u32("contenders");
  const auto hold = point.param_u32("hold");
  const auto cycles = point.param_u64("cycles");
  const auto& variant = point.params.at("variant").as_string();
  // The farms are deterministic: a swept seed repeats the same point.
  workload::LockFarmResult r;
  if (variant == "cfm") {
    r = workload::run_lock_farm_cfm(contenders, hold, cycles);
  } else if (variant == "cached") {
    r = workload::run_lock_farm_cached(contenders, hold, cycles);
  } else {
    r = workload::run_lock_farm_snoopy(contenders, hold, cycles);
  }
  Json m = Json::object();
  m["total_acquisitions"] = r.total_acquisitions;
  m["throughput"] = r.throughput;
  m["mean_acquire_latency"] = r.mean_acquire_latency;
  m["mean_transfer_cycles"] = r.mean_transfer_cycles;
  m["min_per_proc"] = r.min_per_proc;
  m["max_per_proc"] = r.max_per_proc;
  m["aux_pressure"] = r.aux_pressure;
  Json out = Json::object();
  out["metrics"] = std::move(m);
  return out;
}

Json run_coded(const PointSpec& point) {
  mem::coded::CodedConfig cfg;
  cfg.processors = point.param_u32("n");
  cfg.bank_cycle = point.param_u32("c");
  cfg.code = mem::coded::CodeDescriptor::from_rate(
      point.param_u32("data_banks"), point.param_u32("stripe_width"),
      point.param_double("code_rate"),
      mem::coded::parity_policy_from_name(
          point.params.at("parity_policy").as_string()));
  if (point.has_param("log_capacity")) {
    cfg.log_capacity = point.param_u32("log_capacity");
  }
  mem::coded::CodedMemory memory(cfg);
  Json out = run_closed_loop(point, memory,
                             point.has_param("write_fraction")
                                 ? point.param_double("write_fraction")
                                 : 0.0);

  // Coded-specific headline metrics, derived from the memory counters so
  // the validator can re-check the arithmetic against them.
  const auto& counters = memory.counters();
  const auto decoded =
      counters.get("word_reads_decoded") + counters.get("word_writes_decoded");
  const auto writes =
      counters.get("word_writes_direct") + counters.get("word_writes_decoded");
  const auto served = counters.get("word_reads_direct") +
                      counters.get("word_reads_decoded") + writes;
  Json& metrics = out["metrics"];
  metrics["decode_rate"] =
      served == 0 ? 0.0
                  : static_cast<double>(decoded) / static_cast<double>(served);
  metrics["parity_amplification"] =
      writes == 0 ? 0.0
                  : static_cast<double>(counters.get("parity_updates")) /
                        static_cast<double>(writes);
  metrics["decode_fanout_max"] = memory.decode_fanout_max();
  metrics["pending_parity_end"] = memory.pending_parity();
  metrics["banks_provisioned"] = cfg.banks_provisioned();
  metrics["banks_required_cfm"] = cfg.banks_required_cfm();
  return out;
}

Json run_tradeoff(const PointSpec& point) {
  // One Table 3.3 row: the same arithmetic enumerate_tradeoffs applies
  // to its whole column (w = l/b, beta = b + c - 1, n = b/c), checked
  // divisible at expansion.
  const auto l = point.param_u32("block_bits");
  const auto b = point.param_u32("b");
  const auto c = point.param_u32("c");
  Json m = Json::object();
  m["banks"] = b;
  m["word_bits"] = l / b;
  m["memory_latency"] = b + c - 1;
  m["processors"] = b / c;
  Json out = Json::object();
  out["metrics"] = std::move(m);
  return out;
}

}  // namespace

sim::Json run_point(const PointSpec& point) {
  switch (point.workload) {
    case WorkloadKind::Cfm: return run_cfm(point);
    case WorkloadKind::Conventional: return run_conventional(point);
    case WorkloadKind::PartialCfm: return run_partial_cfm(point);
    case WorkloadKind::TraceReplay: return run_trace_replay(point);
    case WorkloadKind::Lock: return run_lock(point);
    case WorkloadKind::Tradeoff: return run_tradeoff(point);
    case WorkloadKind::Coded: return run_coded(point);
  }
  throw std::invalid_argument("campaign: unknown workload kind");
}

}  // namespace cfm::campaign
