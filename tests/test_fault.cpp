// Tests for the fault-injection & graceful-degradation subsystem:
// FaultPlan grammar, injector windows, CfmMemory's spare-bank remap and
// bounded-latency contract (fast path and per-cycle reference), the
// closed-loop survivorship-bias accounting, the Uniform[1, beta] back-off
// draw, and the assert->invalid_argument guard conversions.
#include <gtest/gtest.h>

#include <array>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "mem/conventional.hpp"
#include "net/circuit_omega.hpp"
#include "net/omega.hpp"
#include "net/partial_omega.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "mem/coded/coded_memory.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm;
using sim::FaultInjector;
using sim::FaultKind;
using sim::FaultPlan;
using sim::FaultSpec;

// ------------------------------------------------------------ grammar --

TEST(FaultPlan, ParsesEveryKind) {
  const auto plan = FaultPlan::parse(
      "bank_dead@100+500:module=1,bank=3;"
      "brownout@200+50:module=0;"
      "omega_link@10:stage=2,link=5;"
      "drop@0:prob=0.25");
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::BankDead);
  EXPECT_EQ(plan.specs()[0].at, 100u);
  EXPECT_EQ(plan.specs()[0].duration, 500u);
  EXPECT_EQ(plan.specs()[0].module, 1u);
  EXPECT_EQ(plan.specs()[0].bank, 3u);
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::ModuleBrownout);
  EXPECT_EQ(plan.specs()[2].kind, FaultKind::OmegaLink);
  EXPECT_EQ(plan.specs()[2].stage, 2u);
  EXPECT_EQ(plan.specs()[2].link, 5u);
  EXPECT_EQ(plan.specs()[3].kind, FaultKind::MessageDrop);
  EXPECT_DOUBLE_EQ(plan.specs()[3].probability, 0.25);
}

TEST(FaultPlan, ToStringRoundTrips) {
  const char* text =
      "bank_dead@100+500:module=1,bank=3;brownout@200+50:module=0;"
      "drop@0:prob=0.25";
  const auto plan = FaultPlan::parse(text);
  const auto again = FaultPlan::parse(plan.to_string());
  ASSERT_EQ(again.size(), plan.size());
  for (std::size_t i = 0; i < plan.size(); ++i) {
    EXPECT_EQ(again.specs()[i].kind, plan.specs()[i].kind) << i;
    EXPECT_EQ(again.specs()[i].at, plan.specs()[i].at) << i;
    EXPECT_EQ(again.specs()[i].duration, plan.specs()[i].duration) << i;
    EXPECT_EQ(again.specs()[i].module, plan.specs()[i].module) << i;
    EXPECT_EQ(again.specs()[i].bank, plan.specs()[i].bank) << i;
    EXPECT_DOUBLE_EQ(again.specs()[i].probability,
                     plan.specs()[i].probability)
        << i;
  }
}

TEST(FaultPlan, MalformedTextThrows) {
  // A typo must not silently run a clean machine.
  EXPECT_THROW((void)FaultPlan::parse("bank_dead"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("nonsense@10"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("bank_dead@"), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("bank_dead@abc"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("bank_dead@5:bogus=1"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop@0:prob=1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse("drop@0:prob=0"),
               std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW((void)FaultPlan::parse(";"), std::invalid_argument);
}

TEST(FaultPlan, ValidateSingleModuleRejectsMissingHardware) {
  // A fault aimed at hardware a one-module, network-free machine lacks
  // would never fire, so the plan must be rejected up front instead of
  // silently running a clean machine.
  const auto plan =
      FaultPlan::parse("bank_dead@100:module=0,bank=11;brownout@200:module=0");
  EXPECT_NO_THROW(plan.validate_single_module(12, "cfm memory"));  // 11 < 12
  EXPECT_THROW(plan.validate_single_module(11, "cfm memory"),      // 11 >= 11
               std::invalid_argument);
  const auto message = [](const char* text, std::uint32_t banks) {
    try {
      FaultPlan::parse(text).validate_single_module(
          banks, "coded memory (data + parity banks)");
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string();
  };
  std::string what = message("bank_dead@100:module=0,bank=11", 4);
  EXPECT_NE(what.find("'bank_dead@100:module=0,bank=11'"), std::string::npos)
      << what;
  EXPECT_NE(what.find("bank 11"), std::string::npos) << what;
  EXPECT_NE(what.find("coded memory"), std::string::npos) << what;
  EXPECT_NE(what.find("silently inert"), std::string::npos) << what;
  what = message("bank_dead@0:module=3,bank=1", 16);
  EXPECT_NE(what.find("'bank_dead@0:module=3,bank=1'"), std::string::npos)
      << what;
  EXPECT_NE(what.find("module 3"), std::string::npos) << what;
  what = message("brownout@0+100:module=5", 16);
  EXPECT_NE(what.find("'brownout@0+100:module=5'"), std::string::npos)
      << what;
  EXPECT_NE(what.find("module 5"), std::string::npos) << what;
  // Interconnect faults have nothing to act on without a network.
  what = message("drop@0:prob=0.5", 16);
  EXPECT_NE(what.find("'drop@0:prob=0.5'"), std::string::npos) << what;
  EXPECT_NE(what.find("no network"), std::string::npos) << what;
  what = message("omega_link@10:stage=1,link=2", 16);
  EXPECT_NE(what.find("'omega_link@10:stage=1,link=2'"), std::string::npos)
      << what;
  EXPECT_NE(what.find("no network"), std::string::npos) << what;
}

// Regression: ids were narrowed from 64 bits, so bank=4294967296 parsed
// as bank 0 and killed a bank the plan never named.
TEST(FaultPlan, IdsAbove32BitsAreRejected) {
  const std::pair<const char*, const char*> cases[] = {
      {"bank_dead@0:module=4294967296,bank=1", "module"},
      {"bank_dead@0:bank=4294967296", "bank"},
      {"omega_link@0:stage=4294967296,link=0", "stage"},
      {"omega_link@0:stage=0,link=4294967296", "link"},
  };
  for (const auto& [text, key] : cases) {
    try {
      (void)FaultPlan::parse(text);
      ADD_FAILURE() << text << " parsed";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string(key) + " 4294967296 is out of range"),
                std::string::npos)
          << what;
    }
  }
  const auto max = FaultPlan::parse("bank_dead@0:bank=4294967295");
  EXPECT_EQ(max.specs()[0].bank, 4294967295u);
}

TEST(FaultInjector, QueriesHonorTheFaultWindow) {
  FaultPlan plan;
  FaultSpec dead;
  dead.kind = FaultKind::BankDead;
  dead.at = 100;
  dead.duration = 50;
  dead.module = 0;
  dead.bank = 3;
  plan.add(dead);
  const FaultInjector inj(plan);
  EXPECT_FALSE(inj.bank_dead(99, 0, 3));
  EXPECT_TRUE(inj.bank_dead(100, 0, 3));
  EXPECT_TRUE(inj.bank_dead(149, 0, 3));
  EXPECT_FALSE(inj.bank_dead(150, 0, 3));
  EXPECT_FALSE(inj.bank_dead(120, 0, 4));  // other bank
  EXPECT_FALSE(inj.bank_dead(120, 1, 3));  // other module
  EXPECT_TRUE(inj.any_active(120));
  EXPECT_FALSE(inj.any_active(200));
}

// ---------------------------------------------- CFM degraded operation --

// Property: with one bank stuck dead and a spare provisioned, every
// issued access completes, conflict freedom holds (zero genuine
// violations) and the injected fault is classified separately.
TEST(CfmDegradation, DeadBankWithSpareCompletesEveryAccess) {
  const auto cfg = core::CfmConfig::make(8, 2);
  core::CfmMemory mem(cfg);
  sim::ConflictAuditor auditor;
  mem.set_audit(auditor);
  FaultInjector inj(FaultPlan::parse("bank_dead@100:module=0,bank=3"));
  mem.set_fault_injector(inj, /*spare_banks=*/1);

  sim::Rng rng(99);
  struct Slot {
    core::CfmMemory::OpToken op = core::CfmMemory::kNoOp;
    sim::Cycle issued = 0;
  };
  std::array<Slot, 8> slots;
  std::uint64_t completed = 0;
  sim::Cycle worst = 0;
  for (sim::Cycle now = 0; now < 4000; ++now) {
    for (sim::ProcessorId p = 0; p < 8; ++p) {
      auto& s = slots[p];
      if (s.op != core::CfmMemory::kNoOp) {
        if (auto r = mem.take_result(s.op)) {
          ASSERT_EQ(r->status, core::OpStatus::Completed)
              << "access aborted at " << r->completed;
          worst = std::max(worst, r->completed - r->issued);
          ++completed;
          s.op = core::CfmMemory::kNoOp;
        }
      }
      if (s.op == core::CfmMemory::kNoOp && rng.chance(0.3)) {
        s.issued = now;
        s.op = mem.issue(now, p, core::BlockOpKind::Read, 7 + p * 131);
      }
    }
    mem.tick(now);
  }

  EXPECT_GT(completed, 500u);
  EXPECT_EQ(mem.counters().get("bank_remaps"), 1u);
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GE(auditor.injected_detected(), 1u);
  // Bounded latency: the remap costs at most one restarted tour.
  const auto beta = cfg.block_access_time();
  EXPECT_LE(worst, sim::Cycle{3} * beta);
  // Ops interrupted by the failure recovered (stat only counts them).
  EXPECT_LE(mem.fault_recovery().max(), 3.0 * beta);
}

// The same property must hold on the engine fast path: under a fault
// plan the fast-path run stays bit-identical with the per-cycle
// reference.
TEST(CfmDegradation, FastPathMatchesReferenceUnderFaults) {
  struct Run {
    std::uint64_t completed = 0;
    std::uint64_t failed = 0;
    double mean = 0.0;
    std::uint64_t violations = 0;
  };
  auto run = [](bool fast) {
    sim::Engine engine(sim::EngineConfig{.fast_path = fast});
    core::CfmMemory mem(core::CfmConfig::make(8, 2));
    sim::ConflictAuditor auditor;
    mem.set_audit(auditor);
    FaultInjector inj(
        FaultPlan::parse("bank_dead@500:module=0,bank=5;"
                         "brownout@3000+60:module=0"));
    mem.set_fault_injector(inj, 1);
    const auto domain = engine.allocate_domain();
    mem.attach(engine, domain);
    workload::ClosedLoopDriver<core::CfmMemory> driver("fault.driver", domain,
                                                       mem, 4321, 0.25);
    engine.add(driver);
    engine.run_for(8000);
    Run out;
    out.completed = driver.completed();
    out.failed = driver.failed();
    out.mean = driver.latency().mean();
    out.violations = auditor.violations();
    return out;
  };

  const auto reference = run(false);
  const auto fast = run(true);
  EXPECT_GT(reference.completed, 1000u);
  EXPECT_EQ(reference.failed, 0u);
  EXPECT_EQ(reference.violations, 0u);
  EXPECT_EQ(fast.completed, reference.completed);
  EXPECT_EQ(fast.failed, reference.failed);
  EXPECT_DOUBLE_EQ(fast.mean, reference.mean);
  EXPECT_EQ(fast.violations, reference.violations);
}

// Without a spare the machine halts on the dead bank; the watchdog must
// still answer every access within the fault timeout (status Aborted, so
// the caller can retry or fail over).
TEST(CfmDegradation, UnmappedFaultKeepsLatencyBounded) {
  const auto cfg = core::CfmConfig::make(4, 2);
  core::CfmMemory mem(cfg);
  FaultInjector inj(FaultPlan::parse("bank_dead@50:module=0,bank=2"));
  const sim::Cycle timeout = 64;
  mem.set_fault_injector(inj, /*spare_banks=*/0, timeout);

  const auto op = mem.issue(60, 0, core::BlockOpKind::Read, 42);
  sim::Cycle now = 60;
  std::optional<core::BlockOpResult> res;
  while (now < 60 + 10 * timeout) {
    mem.tick(now++);
    if ((res = mem.take_result(op))) break;
  }
  ASSERT_TRUE(res.has_value()) << "access never resolved";
  EXPECT_NE(res->status, core::OpStatus::Completed);
  EXPECT_LE(res->completed - res->issued,
            timeout + cfg.block_access_time() + 1);
  EXPECT_GE(mem.counters().get("fault_aborts"), 1u);
  EXPECT_GE(mem.counters().get("bank_failures_unmapped"), 1u);
}

// ------------------------------------- closed-loop measurement honesty --

TEST(ClosedLoop, ShortBudgetReportsUnfinishedAccesses) {
  // One module, saturating rate, tiny budget: most processors are still
  // retrying when the run is cut off.  Those accesses are excluded from
  // the mean (survivorship), so the result must disclose them.
  const auto r = workload::measure_conventional(8, 1, 17, 0.9, 60, 13);
  EXPECT_GT(r.unfinished, 0u);
  // A long budget drains the backlog at a modest rate: near-zero leftover
  // relative to completions.
  const auto big = workload::measure_conventional(8, 8, 17, 0.01, 200000, 13);
  EXPECT_GT(big.completed, 1000u);
  EXPECT_LE(big.unfinished, 8u);  // at most one in-flight access per proc
}

TEST(ClosedLoop, CfmMeasurementReportsUnfinished) {
  const auto r = workload::measure_cfm(8, 2, 0.9, 300, 17);
  // Closed loop: whatever is still in flight is at most one per
  // processor, and it is reported rather than silently dropped.
  EXPECT_LE(r.unfinished, 8u);
  EXPECT_EQ(r.failed, 0u);
  // A clean CFM never conflicts and never faults, so nothing — finished
  // or in flight — can have retried.
  EXPECT_EQ(r.unfinished_retries, 0u);
  EXPECT_EQ(r.mean_retries, 0.0);
}

TEST(ClosedLoop, RetryMeanIncludesCutOffAccesses) {
  // Two processors fight over one module and the budget expires while the
  // loser is still backing off: nothing completes after warmup, yet the
  // machine spent the whole run conflicting.  The old finished-only
  // statistic reported mean_retries == 0 here — the cutoff discards
  // exactly the most-retried accesses (survivorship bias, the retry-side
  // twin of the `unfinished` completion fix).  Folded accounting must
  // both disclose the in-flight retries and include them in the mean.
  const auto r = workload::measure_conventional(2, 1, 32, 0.5, 30, 7);
  EXPECT_EQ(r.completed, 0u);
  EXPECT_GT(r.unfinished, 0u);
  EXPECT_GT(r.unfinished_retries, 0u);
  EXPECT_GT(r.mean_retries, 0.0);
}

TEST(ClosedLoop, CfmRetryMeanCountsWholePopulation) {
  // Under a dead bank without spares the CFM driver retries off fault
  // aborts.  mean_retries must average the retry events over the whole
  // issued population — completed, failed, *and* still in flight — so
  // a cutoff mid-retry cannot deflate it.
  FaultInjector inj(FaultPlan::parse("bank_dead@100:module=0,bank=1"));
  core::CfmMemory mem(core::CfmConfig::make(4, 2));
  mem.set_fault_injector(inj, /*spare_banks=*/0);
  sim::CounterSet counters;
  workload::RunHooks hooks;
  hooks.counters_out = &counters;
  const auto r = workload::measure_instrumented(mem, 0.5, 0.0, 2000, 21, hooks);
  const auto retried = counters.get("ops_retried");
  ASSERT_GT(retried, 0u);
  const auto population = r.completed + r.failed + r.unfinished;
  ASSERT_GT(population, 0u);
  EXPECT_DOUBLE_EQ(r.mean_retries, static_cast<double>(retried) /
                                       static_cast<double>(population));
}

// --------------------------------------------- retry-budget exhaustion --

// A permanent brownout aborts every access, so every port driver must
// walk each request through the whole retry budget to `failed`: nothing
// completes, and every retry event belongs either to a failed request
// (exactly kMaxRetries each) or to one still retrying at the cutoff.
TEST(RetryBudget, PermanentBrownoutExhaustsEveryPortDriver) {
  const char* plan = "brownout@0+100000000:module=0";
  {
    FaultInjector inj(FaultPlan::parse(plan));
    core::CfmMemory mem(core::CfmConfig::make(4, 2));
    mem.set_fault_injector(inj);
    sim::CounterSet counters;
    workload::RunHooks hooks;
    hooks.counters_out = &counters;
    const auto r = workload::measure_instrumented(mem, 0.5, 0.0, 6000, 3,
                                                  hooks);
    EXPECT_EQ(r.completed, 0u);
    EXPECT_GT(r.failed, 0u);
    EXPECT_EQ(counters.get("ops_retried"),
              core::kMaxRetries * r.failed + r.unfinished_retries);
  }
  // The coded backend has no brownout watchdog: a paused module stalls
  // its ops instead of aborting them, so the brownout leaves every port
  // stuck and nothing retries.  An uncoded stripe (r = 0) with a dead
  // data bank is structurally unserviceable, which does abort, and walks
  // the same budget.
  for (const char* coded_plan : {plan, "bank_dead@0:module=0,bank=0"}) {
    mem::coded::CodedConfig cfg;
    cfg.processors = 4;
    cfg.bank_cycle = 1;
    cfg.code.data_banks = 8;
    cfg.code.stripe_width = 4;
    cfg.code.parity_per_stripe = coded_plan == plan ? 1 : 0;
    FaultInjector inj(FaultPlan::parse(coded_plan));
    mem::coded::CodedMemory mem(cfg);
    mem.set_fault_injector(inj);
    sim::CounterSet counters;
    workload::RunHooks hooks;
    hooks.counters_out = &counters;
    const auto r = workload::measure_instrumented(mem, 0.5, 0.3, 6000, 3,
                                                  hooks);
    EXPECT_EQ(r.completed, 0u) << coded_plan;
    if (coded_plan == plan) {
      EXPECT_EQ(r.failed, 0u);
      EXPECT_EQ(r.unfinished, cfg.processors);
    } else {
      EXPECT_GT(r.failed, 0u);
    }
    EXPECT_EQ(counters.get("ops_retried"),
              core::kMaxRetries * r.failed + r.unfinished_retries)
        << coded_plan;
  }
  {
    serve::ServeOptions so;
    so.processors = 4;
    so.fault_plan = plan;
    so.seed = 3;
    serve::Server server(so);
    server.submit(serve::synth_requests(40, 0.25, 0.05, 0.05, 64, 3));
    EXPECT_TRUE(server.drain());
    const auto st = server.stats();
    EXPECT_EQ(st.completed, 0u);
    EXPECT_GT(st.failed, 0u);
    // Drained: no request is still retrying.
    EXPECT_EQ(st.retried, core::kMaxRetries * st.failed);
  }
}

// --------------------------------------------- Uniform[1, beta] draws --

TEST(Rng, BetweenIsInclusiveOnBothEnds) {
  // §3.4.1's back-off is Uniform[1, beta]: rng.between(1, beta) must be
  // able to return both endpoints and nothing outside them.
  sim::Rng rng(7);
  constexpr std::uint64_t kBeta = 5;
  std::array<std::uint64_t, kBeta + 1> hits{};
  for (int i = 0; i < 20000; ++i) {
    const auto v = rng.between(1, kBeta);
    ASSERT_GE(v, 1u);
    ASSERT_LE(v, kBeta);
    ++hits[v];
  }
  for (std::uint64_t v = 1; v <= kBeta; ++v) {
    // Each value should land ~4000 times; even a loose bound catches an
    // off-by-one that would zero an endpoint.
    EXPECT_GT(hits[v], 3000u) << "value " << v;
    EXPECT_LT(hits[v], 5000u) << "value " << v;
  }
}

// ------------------------------- guard conversions (release-safe APIs) --

TEST(InputValidation, OmegaRouteRejectsOutOfRangePorts) {
  const net::OmegaTopology topo(8);
  EXPECT_THROW((void)topo.route(8, 0), std::invalid_argument);
  EXPECT_THROW((void)topo.route(0, 9), std::invalid_argument);
}

TEST(InputValidation, OmegaPermutationScheduleRejectsWrongSize) {
  const net::OmegaTopology topo(8);
  const std::vector<net::Port> wrong(4, 0);
  EXPECT_THROW((void)net::SyncOmega::schedule_for_permutation(topo, wrong),
               std::invalid_argument);
}

TEST(InputValidation, PartialFabricRejectsBadConfigAndArgs) {
  EXPECT_THROW(net::PartialCfmFabric(8, 3, 17), std::invalid_argument);
  EXPECT_THROW(net::PartialCfmFabric(8, 4, 0), std::invalid_argument);
  net::PartialCfmFabric fabric(8, 4, 17);
  EXPECT_THROW((void)fabric.try_access(8, 0, 0), std::invalid_argument);
  EXPECT_THROW((void)fabric.try_access(0, 4, 0), std::invalid_argument);
}

TEST(InputValidation, BufferedOmegaRejectsZeroCapacityOrService) {
  EXPECT_THROW(net::BufferedOmega(8, 0, 1), std::invalid_argument);
  EXPECT_THROW(net::BufferedOmega(8, 4, 0), std::invalid_argument);
}

TEST(InputValidation, ConventionalMemoryRejectsZeroModulesOrBeta) {
  EXPECT_THROW(mem::ConventionalMemory(0, 17), std::invalid_argument);
  EXPECT_THROW(mem::ConventionalMemory(8, 0), std::invalid_argument);
}

}  // namespace
