// The runtime conflict-freedom auditor, both directions:
//   * positive: every CFM configuration passes live traffic with zero
//     violations — including a 64-processor hierarchical machine with
//     both levels audited;
//   * negative: the same instrument counts module conflicts on the
//     conventional interleaved memory, alignment stalls on the
//     phase-aligned (Monarch/OMP) model, and rejected injections on the
//     buffered omega — Fig 2.1's contention, machine-checked;
//   * sensitivity: fed a fabricated overlap / mis-scheduled bank /
//     stretched tour / broken permutation, the checks actually fire.
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "cache/hierarchical.hpp"
#include "cfm/cfm_memory.hpp"
#include "mem/conventional.hpp"
#include "mem/phase_aligned.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "workload/lock_workload.hpp"
#include "workload/trace.hpp"

namespace {

using namespace cfm;
using cfm::sim::AuditScopeKind;
using cfm::sim::ConflictAuditor;
using cfm::sim::Cycle;

// ---- sensitivity: the checks must fire when the invariant is broken ----

TEST(AuditSensitivity, DetectsBankOverlap) {
  ConflictAuditor a;
  const auto s = a.add_scope("unit", AuditScopeKind::ConflictFree, 4,
                             /*bank_cycle=*/2, /*beta=*/0);
  a.on_bank_access(s, 10, 1);
  a.on_bank_access(s, 11, 1);  // bank 1 still held until 12
  a.on_bank_access(s, 13, 1);  // the re-hold from cycle 11 expired: legal
  EXPECT_EQ(a.violations(), 1u);
  const auto samples = a.violation_samples();
  ASSERT_EQ(samples.size(), 1u);
  EXPECT_EQ(samples[0].kind, "bank_conflict");
  EXPECT_EQ(samples[0].cycle, 11u);
}

TEST(AuditSensitivity, DetectsScheduleMismatch) {
  ConflictAuditor a;
  // 4 processors, c = 1, b = 4: slot t, proc p -> bank (t + p) mod 4.
  const auto s = a.add_scope("unit", AuditScopeKind::ConflictFree, 4, 1, 0);
  a.on_scheduled_access(s, 3, 2, (3 + 2) % 4);  // correct
  EXPECT_EQ(a.violations(), 0u);
  a.on_scheduled_access(s, 3, 2, 0);  // wrong bank
  EXPECT_EQ(a.violations(), 1u);
}

TEST(AuditSensitivity, DetectsStretchedTour) {
  ConflictAuditor a;
  const auto s = a.add_scope("unit", AuditScopeKind::ConflictFree, 8, 1,
                             /*beta=*/8);
  a.on_block_complete(s, 100, 108);  // beta = 8: exact
  EXPECT_EQ(a.violations(), 0u);
  a.on_block_complete(s, 100, 109);  // stretched
  EXPECT_EQ(a.violations(), 1u);
}

TEST(AuditSensitivity, DetectsBrokenOmegaPermutation) {
  ConflictAuditor a;
  const auto s = a.add_scope("omega", AuditScopeKind::ConflictFree, 4, 1, 0);
  // The uniform shift at slot 1: output (1 + i) mod 4.
  std::array<std::uint32_t, 4> good{1, 2, 3, 0};
  a.on_omega_slot(s, 1, good);
  EXPECT_EQ(a.violations(), 0u);
  std::array<std::uint32_t, 4> collide{1, 1, 3, 0};  // not a permutation
  a.on_omega_slot(s, 2, collide);
  EXPECT_GT(a.violations(), 0u);
  const auto before = a.violations();
  std::array<std::uint32_t, 4> wrong_shift{2, 3, 0, 1};  // permutation, not σ_3
  a.on_omega_slot(s, 3, wrong_shift);
  EXPECT_GT(a.violations(), before);
}

// ---- scope kinds: same detections, different ledgers -------------------

TEST(AuditScopes, ContendedScopeCountsConflictsNotViolations) {
  ConflictAuditor a;
  const auto s = a.add_scope("baseline", AuditScopeKind::Contended, 2,
                             /*bank_cycle=*/4, 0);
  a.on_module_access(s, 0, 0, 4);
  a.on_module_access(s, 1, 0, 4);  // module 0 busy until 4
  EXPECT_EQ(a.violations(), 0u);
  EXPECT_EQ(a.conflicts_detected(), 1u);
}

// ---- positive control: live CFM traffic, zero violations ---------------

TEST(AuditCfm, RandomDistinctBlockTrafficIsClean) {
  for (const auto& [procs, c] : std::vector<std::pair<std::uint32_t,
                                                      std::uint32_t>>{
           {2, 1}, {4, 1}, {8, 2}, {16, 1}, {16, 4}}) {
    core::CfmMemory mem(core::CfmConfig::make(procs, c));
    ConflictAuditor auditor;
    mem.set_audit(auditor);
    sim::Rng rng(7 + procs + c);
    std::vector<core::CfmMemory::OpToken> live(procs, core::CfmMemory::kNoOp);
    Cycle t = 0;
    for (; t < 2000; ++t) {
      for (std::uint32_t p = 0; p < procs; ++p) {
        if (live[p] != core::CfmMemory::kNoOp &&
            mem.take_result(live[p]).has_value()) {
          live[p] = core::CfmMemory::kNoOp;
        }
        if (live[p] == core::CfmMemory::kNoOp && rng.chance(0.6)) {
          live[p] = mem.issue(t, p, core::BlockOpKind::Read, 500 + p);
        }
      }
      mem.tick(t);
    }
    EXPECT_GT(auditor.checks_performed(), 0u)
        << procs << " procs, c = " << c;
    EXPECT_EQ(auditor.violations(), 0u) << procs << " procs, c = " << c;
  }
}

TEST(AuditCfm, TraceReplayIsClean) {
  const auto trace = workload::Trace::uniform(8, 1, 64, 500, 600, 0.3, 11);
  ConflictAuditor auditor;
  const auto r =
      workload::replay_on_cfm_instrumented(trace, 8, 2, nullptr, &auditor);
  EXPECT_EQ(r.unfinished, 0u);
  EXPECT_GT(auditor.checks_performed(), 0u);
  EXPECT_EQ(auditor.violations(), 0u);
}

// 64 processors, both levels audited: the paper's invariants hold on the
// largest hierarchical configuration the tests build.
TEST(AuditCfm, HierarchicalSixtyFourProcs) {
  sim::Engine engine;
  cache::HierarchicalCfm::Params params;
  params.clusters = 8;
  params.procs_per_cluster = 8;
  cache::HierarchicalCfm sys(params);
  ConflictAuditor auditor;
  sys.set_audit(auditor);
  sys.attach(engine);

  sim::Rng rng(42);
  std::vector<cache::HierarchicalCfm::ReqId> pending(sys.processor_count(), 0);
  auto driver = std::make_shared<sim::LambdaComponent>("audit.driver",
                                                       sim::kSharedDomain);
  driver->on(sim::Phase::Issue, [&](Cycle now) {
    const auto n = static_cast<sim::ProcessorId>(pending.size());
    for (sim::ProcessorId p = 0; p < n; ++p) {
      if (pending[p] != 0 && sys.take_result(pending[p])) pending[p] = 0;
      if (pending[p] == 0 && sys.processor_idle(p)) {
        pending[p] =
            sys.read(now, p, static_cast<sim::BlockAddr>(rng.below(512)));
      }
    }
  });
  engine.add(std::move(driver));
  engine.run_for(3000);

  EXPECT_GT(auditor.checks_performed(), 1000u);
  EXPECT_EQ(auditor.violations(), 0u)
      << auditor.to_json().dump(2).substr(0, 2000);
}

// ---- negative controls: the baselines must show their contention -------

TEST(AuditNegative, ConventionalHotSpotShowsConflicts) {
  mem::ConventionalMemory memory(4, /*beta=*/8);
  ConflictAuditor auditor;
  memory.set_audit(auditor);
  // Four requesters hammer module 0 every cycle: all but one conflict.
  std::uint64_t direct = 0;
  for (Cycle now = 0; now < 200; ++now) {
    for (int req = 0; req < 4; ++req) {
      if (memory.try_start(0, now) == sim::kNeverCycle) ++direct;
    }
  }
  EXPECT_GT(direct, 0u);
  EXPECT_EQ(auditor.violations(), 0u);  // Contended scope: not violations
  EXPECT_EQ(auditor.conflicts_detected(), direct)
      << "auditor must re-count exactly the module conflicts";
}

TEST(AuditNegative, PhaseAlignedStallsAreCounted) {
  mem::PhaseAlignedMemory memory(/*period=*/4, /*phase=*/0,
                                 /*access_time=*/4);
  ConflictAuditor auditor;
  memory.set_audit(auditor);
  std::uint64_t stalled = 0;
  for (Cycle now = 0; now < 40; ++now) {
    if (memory.stall_for(now) > 0) ++stalled;
    (void)memory.start(now);
  }
  EXPECT_GT(stalled, 0u);
  EXPECT_EQ(auditor.conflicts_detected(), stalled);
  EXPECT_EQ(auditor.violations(), 0u);
}

TEST(AuditNegative, BufferedOmegaHotSpotRejectsAreCounted) {
  ConflictAuditor auditor;
  const auto r = workload::run_hotspot_buffered(16, 0.35, 0.5, 2, 4000, 5,
                                                /*combining=*/false, &auditor);
  EXPECT_GT(r.reject_rate, 0.0);
  EXPECT_GT(auditor.conflicts_detected(), 0u);
  EXPECT_EQ(auditor.violations(), 0u);
}

// ---- report section ----------------------------------------------------

TEST(AuditReport, SectionShapeAndTotals) {
  core::CfmMemory mem(core::CfmConfig::make(4));
  ConflictAuditor auditor;
  mem.set_audit(auditor);
  std::vector<core::CfmMemory::OpToken> ops;
  for (std::uint32_t p = 0; p < 4; ++p) {
    ops.push_back(mem.issue(0, p, core::BlockOpKind::Read, p));
  }
  Cycle t = 0;
  for (; t < 32; ++t) mem.tick(t);

  sim::Report report("audit_test");
  auditor.to_report(report);
  const auto doc = sim::Json::parse(report.to_json().dump());
  const auto& audit = doc.at("audit");
  EXPECT_EQ(audit.at("violations").as_uint(), 0u);
  EXPECT_EQ(audit.at("checks").as_uint(), auditor.checks_performed());
  EXPECT_TRUE(audit.at("scopes").is_object());
  EXPECT_TRUE(audit.at("samples").is_array());
  for (const auto& [name, scope] : audit.at("scopes").as_object()) {
    EXPECT_TRUE(scope.at("kind").is_string()) << name;
    EXPECT_TRUE(scope.at("checks").is_object()) << name;
  }
}

}  // namespace
