#include "workload/access_gen.hpp"

#include <array>
#include <optional>
#include <type_traits>
#include <utility>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "mem/coded/coded_memory.hpp"
#include "mem/conventional.hpp"
#include "net/partial_omega.hpp"
#include "sim/rng.hpp"

namespace cfm::workload {
namespace {

struct Access {
  sim::Cycle first_attempt = 0;
  sim::Cycle next_try = 0;
  std::uint32_t module = 0;
  std::uint32_t retries = 0;
};

/// Closed-loop driver: each processor has at most one outstanding block
/// access (it owns exactly one AT path / port), generates a fresh one
/// with probability `rate` per idle cycle, and backs off Uniform[1, beta]
/// after a conflict.  Matching the analytic model, conflicts can only be
/// caused by the *other* processors.
template <typename TryStart, typename PickModule>
EfficiencyResult run_closed_loop(std::uint32_t processors, std::uint32_t beta,
                                 double rate, sim::Cycle cycles,
                                 std::uint64_t seed, TryStart&& try_start,
                                 PickModule&& pick_module) {
  sim::Rng rng(seed);

  struct Proc {
    std::optional<Access> access;  // in flight (retrying)
    sim::Cycle busy_until = 0;     // completion of the started access
    sim::Cycle done_stat_at = 0;
    bool counting = false;
  };
  std::vector<Proc> procs(processors);
  sim::RunningStat access_time;
  sim::RunningStat retry_count;
  std::uint64_t conflicts = 0;
  const sim::Cycle warmup = cycles / 10;

  for (sim::Cycle now = 0; now < cycles; ++now) {
    for (std::uint32_t p = 0; p < processors; ++p) {
      auto& st = procs[p];
      if (st.access.has_value()) {
        auto& a = *st.access;
        if (a.next_try > now) continue;
        const auto done = try_start(p, a, now);
        if (done == sim::kNeverCycle) {
          ++conflicts;
          ++a.retries;
          a.next_try = now + rng.between(1, beta);
        } else {
          if (a.first_attempt >= warmup) {
            access_time.add(static_cast<double>(done - a.first_attempt));
            retry_count.add(static_cast<double>(a.retries));
          }
          st.busy_until = done;
          st.access.reset();
        }
        continue;
      }
      if (now < st.busy_until) continue;  // data still streaming
      if (!rng.chance(rate)) continue;
      Access a;
      a.first_attempt = now;
      a.next_try = now;
      a.module = pick_module(p, rng);
      const auto done = try_start(p, a, now);
      if (done == sim::kNeverCycle) {
        ++conflicts;
        ++a.retries;
        a.next_try = now + rng.between(1, beta);
        st.access = a;
      } else {
        if (a.first_attempt >= warmup) {
          access_time.add(static_cast<double>(done - a.first_attempt));
          retry_count.add(0.0);
        }
        st.busy_until = done;
      }
    }
  }

  EfficiencyResult out;
  out.completed = access_time.count();
  out.conflicts = conflicts;
  out.mean_access_time = access_time.mean();
  out.efficiency = access_time.count() == 0
                       ? 1.0
                       : static_cast<double>(beta) / access_time.mean();
  // Accesses still retrying when the budget ran out are cut off exactly
  // because they retried the longest, so a finished-only mean_retries is
  // survivorship-biased low — the retry-side twin of the completion-side
  // `unfinished` fix.  Their access *times* stay excluded (an unfinished
  // access has no completion to measure; `unfinished` bounds that bias),
  // but their retry counts are facts and fold into the statistic under
  // the same warmup filter the finished samples use.
  for (const auto& st : procs) {
    if (!st.access.has_value()) continue;
    ++out.unfinished;
    out.unfinished_retries += st.access->retries;
    if (st.access->first_attempt >= warmup) {
      retry_count.add(static_cast<double>(st.access->retries));
    }
  }
  out.mean_retries = retry_count.mean();
  return out;
}

}  // namespace

EfficiencyResult measure_conventional(std::uint32_t processors,
                                      std::uint32_t modules,
                                      std::uint32_t beta, double rate,
                                      sim::Cycle cycles, std::uint64_t seed) {
  mem::ConventionalMemory memory(modules, beta);
  return run_closed_loop(
      processors, beta, rate, cycles, seed,
      [&](std::uint32_t, const Access& a, sim::Cycle now) {
        return memory.try_start(a.module, now);
      },
      [&](std::uint32_t, sim::Rng& rng) {
        return static_cast<std::uint32_t>(rng.below(modules));
      });
}

EfficiencyResult measure_partial_cfm(std::uint32_t processors,
                                     std::uint32_t modules, std::uint32_t beta,
                                     double rate, double locality,
                                     sim::Cycle cycles, std::uint64_t seed) {
  net::PartialCfmFabric fabric(processors, modules, beta);
  return run_closed_loop(
      processors, beta, rate, cycles, seed,
      [&](std::uint32_t p, const Access& a, sim::Cycle now) {
        return fabric.try_access(p, a.module, now);
      },
      [&](std::uint32_t p, sim::Rng& rng) {
        const auto home = fabric.home_module(p);
        if (modules == 1 || rng.chance(locality)) return home;
        // Uniform over the other m-1 modules.
        auto pick = static_cast<std::uint32_t>(rng.below(modules - 1));
        return pick >= home ? pick + 1 : pick;
      });
}

EfficiencyResult measure_cfm(std::uint32_t processors, std::uint32_t bank_cycle,
                             double rate, sim::Cycle cycles,
                             std::uint64_t seed) {
  core::CfmMemory memory(core::CfmConfig::make(processors, bank_cycle));
  return measure_instrumented(memory, rate, 0.0, cycles, seed);
}

namespace {

/// Memory counters the flight recorder follows, per backend.
constexpr std::array<const char*, 5> kCfmSeries{
    "fault_restarts", "bank_failures", "bank_remaps", "brownouts",
    "fault_aborts"};
constexpr std::array<const char*, 5> kCodedSeries{
    "word_reads_decoded", "word_writes_decoded", "parity_updates",
    "bank_failures", "fault_aborts"};

}  // namespace

template <typename Memory>
EfficiencyResult measure_instrumented(Memory& memory, double rate,
                                      double write_fraction, sim::Cycle cycles,
                                      std::uint64_t seed,
                                      const RunHooks& hooks) {
  // The memory ticks in its own domain (Phase::Memory) and the driver
  // issues in the same domain (Phase::Issue): the classic issue-then-tick
  // cycle order.
  constexpr bool kCoded = std::is_same_v<Memory, mem::coded::CodedMemory>;
  sim::Engine engine;
  const auto domain = engine.allocate_domain();
  memory.attach(engine, domain);
  ClosedLoopDriver<Memory> driver("workload.driver", domain, memory, seed,
                                  rate, write_fraction);
  engine.add(driver);
  const auto* injector = memory.fault_injector();
  std::optional<sim::TelemetrySampler> telemetry;
  if (hooks.telemetry_window > 0 && hooks.timeseries_out != nullptr) {
    telemetry.emplace("workload.telemetry", hooks.telemetry_window,
                      hooks.telemetry_capacity != 0
                          ? hooks.telemetry_capacity
                          : sim::TelemetrySampler::kDefaultCapacity);
    telemetry->add_counter("ops_completed",
                           [&driver] { return driver.completed(); });
    telemetry->add_counter("ops_retried",
                           [&driver] { return driver.retried(); });
    telemetry->add_counter("ops_failed", [&driver] { return driver.failed(); });
    for (const char* name : kCoded ? kCodedSeries : kCfmSeries) {
      // A counter this memory never interns reads 0 for the whole run.
      const auto id = memory.counters().find(name);
      telemetry->add_counter(std::string("mem.") + name, [&memory, id] {
        return id ? memory.counters().get(*id) : 0;
      });
    }
    telemetry->add_gauge("in_flight", [&driver](sim::Cycle) {
      return static_cast<double>(driver.in_flight());
    });
    telemetry->add_gauge("live_banks", [&memory](sim::Cycle) {
      return static_cast<double>(memory.live_banks());
    });
    if constexpr (kCoded) {
      telemetry->add_gauge("stripe_queue_depth", [&memory](sim::Cycle) {
        return static_cast<double>(memory.pending_parity());
      });
    }
    if (injector != nullptr) {
      telemetry->add_gauge("active_faults", [injector](sim::Cycle now) {
        return static_cast<double>(injector->active_count(now));
      });
    }
    engine.add(*telemetry);
  }
  engine.run_for(cycles);

  if (telemetry) {
    *hooks.timeseries_out = telemetry->to_json(cycles);
    if (hooks.recovery_out != nullptr && injector != nullptr) {
      sim::RecoveryConfig rc;
      rc.degraded_counters = {"ops_retried",        "ops_failed",
                              "mem.fault_restarts", "mem.bank_failures",
                              "mem.brownouts",      "mem.fault_aborts"};
      *hooks.recovery_out = sim::recovery_table(telemetry->series(cycles),
                                                injector->plan(), rc);
    }
  }
  if (hooks.counters_out != nullptr) {
    for (const auto& [name, n] :
         {std::pair{"ops_completed", driver.completed()},
          std::pair{"ops_retried", driver.retried()},
          std::pair{"ops_failed", driver.failed()}}) {
      auto& out = *hooks.counters_out;
      if (n != 0) out.inc(out.intern(name), n);
    }
    hooks.counters_out->merge(memory.counters());
  }
  if (hooks.access_time_out != nullptr) {
    hooks.access_time_out->merge(driver.latency());
  }

  EfficiencyResult out;
  out.completed = driver.completed();
  out.mean_access_time = driver.latency().mean();
  out.efficiency =
      out.completed == 0
          ? 1.0
          : static_cast<double>(memory.config().block_access_time()) /
                out.mean_access_time;
  out.unfinished = driver.in_flight();
  out.unfinished_retries = driver.in_flight_retries();
  out.failed = driver.failed();
  // Retry accounting over the whole issued population — resolved *and*
  // in flight.  The retry count covers every retry event, so dividing by
  // finished accesses alone would overstate the mean exactly when the
  // budget cut off the most-retried accesses.
  const auto population = out.completed + out.failed + out.unfinished;
  out.mean_retries = population == 0
                         ? 0.0
                         : static_cast<double>(driver.retried()) /
                               static_cast<double>(population);
  return out;
}

template EfficiencyResult measure_instrumented(core::CfmMemory&, double,
                                               double, sim::Cycle,
                                               std::uint64_t,
                                               const RunHooks&);
template EfficiencyResult measure_instrumented(mem::coded::CodedMemory&,
                                               double, double, sim::Cycle,
                                               std::uint64_t,
                                               const RunHooks&);

}  // namespace cfm::workload
