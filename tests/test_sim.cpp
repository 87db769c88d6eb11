// Unit tests for the simulation kernel: RNG, statistics, engine.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "mem/coded/coded_memory.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm::sim;

TEST(Rng, DeterministicForEqualSeeds) {
  Rng a(12345);
  Rng b(12345);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(7);
  double sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound) {
  Rng rng(9);
  std::vector<int> hist(10, 0);
  for (int i = 0; i < 100000; ++i) {
    const auto x = rng.below(10);
    ASSERT_LT(x, 10u);
    ++hist[static_cast<std::size_t>(x)];
  }
  for (const int h : hist) EXPECT_NEAR(h, 10000, 600);
}

TEST(Rng, BetweenInclusive) {
  Rng rng(11);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto x = rng.between(3, 5);
    ASSERT_GE(x, 3u);
    ASSERT_LE(x, 5u);
    saw_lo |= (x == 3);
    saw_hi |= (x == 5);
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, ChanceEdgeCases) {
  Rng rng(13);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng a(17);
  Rng b = a.split();
  int equal = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 2);
}

// Regression: between(0, UINT64_MAX) makes the span wrap to 0, which used
// to feed below(0) and pin every draw to lo.  The full-range case must
// fall back to the raw generator draw.
TEST(Rng, BetweenFullRangeIsNotPinned) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  Rng rng(19);
  Rng raw(19);
  bool high_half = false;
  bool low_half = false;
  for (int i = 0; i < 1000; ++i) {
    const auto x = rng.between(0, kMax);
    // Must be the raw xoshiro output — uniform over all 64 bits.
    EXPECT_EQ(x, raw());
    high_half |= (x > kMax / 2);
    low_half |= (x <= kMax / 2);
  }
  EXPECT_TRUE(high_half);
  EXPECT_TRUE(low_half);
}

TEST(Rng, BetweenFullRangeWithNonzeroLoStillWraps) {
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  // hi - lo + 1 wraps to 0 for any lo = hi + 1 (mod 2^64); the contract is
  // a full-range draw, so values below lo are legitimate.
  Rng rng(23);
  bool below_lo = false;
  for (int i = 0; i < 1000; ++i) {
    below_lo |= (rng.between(1, 0) < 1) || (rng.between(kMax, kMax - 1) < kMax);
  }
  EXPECT_TRUE(below_lo);
}

TEST(Rng, SplitChildUnaffectedByParentAdvance) {
  // Splitting must hand the child its own state: advancing the parent
  // afterwards cannot perturb the child's stream.
  Rng parent_a(29);
  Rng parent_b(29);
  Rng child_a = parent_a.split();
  Rng child_b = parent_b.split();
  for (int i = 0; i < 500; ++i) (void)parent_a();  // only parent A advances
  for (int i = 0; i < 200; ++i) EXPECT_EQ(child_a(), child_b());
}

TEST(RunningStat, BasicMoments) {
  RunningStat s;
  for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_EQ(s.count(), 8u);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
  EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
  EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStat, EmptyIsZero) {
  RunningStat s;
  EXPECT_EQ(s.count(), 0u);
  EXPECT_EQ(s.mean(), 0.0);
  EXPECT_EQ(s.variance(), 0.0);
}

TEST(RunningStat, MergeMatchesCombinedStream) {
  RunningStat a;
  RunningStat b;
  RunningStat all;
  Rng rng(23);
  for (int i = 0; i < 1000; ++i) {
    const double x = rng.uniform() * 10;
    (i % 2 == 0 ? a : b).add(x);
    all.add(x);
  }
  a.merge(b);
  EXPECT_EQ(a.count(), all.count());
  EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
  EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(a.min(), all.min());
  EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(Histogram, BucketsAndOverflow) {
  Histogram h(1.0, 4);
  for (const double x : {0.5, 1.5, 1.7, 3.9, 10.0}) h.add(x);
  EXPECT_EQ(h.total(), 5u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 2u);
  EXPECT_EQ(h.bucket(2), 0u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.overflow(), 1u);
}

TEST(Histogram, Quantile) {
  Histogram h(1.0, 10);
  for (int i = 0; i < 100; ++i) h.add(static_cast<double>(i % 10));
  EXPECT_NEAR(h.quantile(0.5), 5.0, 1.0);
  EXPECT_NEAR(h.quantile(0.9), 9.0, 1.0);
}

TEST(Histogram, QuantileEdgeCases) {
  Histogram empty(1.0, 4);
  EXPECT_EQ(empty.quantile(0.0), 0.0);
  EXPECT_EQ(empty.quantile(0.5), 0.0);
  EXPECT_EQ(empty.quantile(1.0), 0.0);

  // q = 0 is never "satisfied" by an empty prefix; q > 1 clamps.
  Histogram h(1.0, 4);
  h.add(2.5);  // lands in bucket [2, 3)
  EXPECT_EQ(h.quantile(0.0), 0.0);
  EXPECT_EQ(h.quantile(0.01), 3.0);  // leading empty buckets must not count
  EXPECT_EQ(h.quantile(1.0), 3.0);
  EXPECT_EQ(h.quantile(2.0), 3.0);

  // All samples in overflow: the quantile saturates at the top edge.
  Histogram over(1.0, 2);
  over.add(50.0);
  EXPECT_EQ(over.quantile(0.5), 2.0);
}

TEST(RunningStat, MergeWithEmptySides) {
  RunningStat empty1;
  RunningStat empty2;
  empty1.merge(empty2);
  EXPECT_EQ(empty1.count(), 0u);
  EXPECT_EQ(empty1.mean(), 0.0);
  EXPECT_EQ(empty1.variance(), 0.0);

  RunningStat data;
  for (const double x : {1.0, 2.0, 3.0}) data.add(x);
  const auto count = data.count();
  const auto mean = data.mean();
  const auto var = data.variance();

  // empty ⊕ nonempty adopts the nonempty side exactly.
  RunningStat lhs;
  lhs.merge(data);
  EXPECT_EQ(lhs.count(), count);
  EXPECT_DOUBLE_EQ(lhs.mean(), mean);
  EXPECT_DOUBLE_EQ(lhs.variance(), var);
  EXPECT_DOUBLE_EQ(lhs.min(), 1.0);
  EXPECT_DOUBLE_EQ(lhs.max(), 3.0);

  // nonempty ⊕ empty is a no-op.
  data.merge(empty2);
  EXPECT_EQ(data.count(), count);
  EXPECT_DOUBLE_EQ(data.mean(), mean);
  EXPECT_DOUBLE_EQ(data.variance(), var);
}

TEST(RunningStat, MergedHalvesMatchWholeStream) {
  RunningStat lo;
  RunningStat hi;
  RunningStat whole;
  Rng rng(77);
  for (int i = 0; i < 500; ++i) {
    const double x = rng.uniform() * 100 - 50;
    (i < 250 ? lo : hi).add(x);
    whole.add(x);
  }
  lo.merge(hi);
  EXPECT_EQ(lo.count(), whole.count());
  EXPECT_NEAR(lo.mean(), whole.mean(), 1e-9);
  EXPECT_NEAR(lo.variance(), whole.variance(), 1e-9);
  EXPECT_DOUBLE_EQ(lo.min(), whole.min());
  EXPECT_DOUBLE_EQ(lo.max(), whole.max());
  EXPECT_NEAR(lo.sum(), whole.sum(), 1e-9);
}

TEST(CounterSet, MergeIsAdditive) {
  CounterSet a;
  CounterSet b;
  a.inc(a.intern("x"), 3);
  a.inc(a.intern("y"));
  b.inc(b.intern("x"), 2);
  b.inc(b.intern("z"), 5);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 5u);
  EXPECT_EQ(a.get("y"), 1u);
  EXPECT_EQ(a.get("z"), 5u);
  EXPECT_EQ(b.get("x"), 2u);  // source untouched
}

TEST(StatShard, MergeCombinesCountersAndRunningStats) {
  StatShard a;
  StatShard b;
  a.counters.inc(a.counters.intern("ops"), 10);
  a.stat("lat").add(4.0);
  b.counters.inc(b.counters.intern("ops"), 5);
  b.stat("lat").add(8.0);
  b.stat("depth").add(1.0);
  a.merge(b);
  EXPECT_EQ(a.counters.get("ops"), 15u);
  EXPECT_EQ(a.stat("lat").count(), 2u);
  EXPECT_DOUBLE_EQ(a.stat("lat").mean(), 6.0);
  EXPECT_EQ(a.stat("depth").count(), 1u);
}

TEST(CounterSet, IncrementAndQuery) {
  CounterSet c;
  EXPECT_EQ(c.get("x"), 0u);
  c.inc(c.intern("x"));
  c.inc(c.intern("x"), 4);
  c.inc(c.intern("y"));
  EXPECT_EQ(c.get("x"), 5u);
  EXPECT_EQ(c.get("y"), 1u);
  EXPECT_EQ(c.all().size(), 2u);
  c.reset();
  EXPECT_EQ(c.get("x"), 0u);
}

TEST(CounterSet, InternIsIdempotent) {
  CounterSet c;
  const auto x = c.intern("x");
  const auto y = c.intern("y");
  EXPECT_NE(x, y);
  EXPECT_EQ(c.intern("x"), x);
  EXPECT_EQ(c.intern(std::string("y")), y);
  EXPECT_EQ(c.find("x"), x);
  EXPECT_FALSE(c.find("z").has_value());
  c.inc(x, 2);
  EXPECT_EQ(c.intern("x"), x);
  EXPECT_EQ(c.get(x), 2u);
  EXPECT_EQ(c.name(x), "x");
}

TEST(CounterSet, InternedButNeverIncrementedIsAbsent) {
  CounterSet c;
  const auto quiet = c.intern("quiet");
  const auto zero = c.intern("zero");
  c.inc(c.intern("loud"), 3);
  EXPECT_EQ(to_json(c).dump(), R"({"loud":3})");
  EXPECT_EQ(c.get("quiet"), 0u);
  c.inc(zero, 0);  // an increment by 0 still makes the counter reportable
  EXPECT_EQ(to_json(c).dump(), R"({"loud":3,"zero":0})");
  EXPECT_EQ(c.all().size(), 2u);
  CounterSet merged;
  merged.merge(c);
  EXPECT_EQ(to_json(merged).dump(), R"({"loud":3,"zero":0})");
  EXPECT_FALSE(merged.find("quiet").has_value());
  (void)quiet;
}

TEST(CounterSet, MergeMatchesCountersByName) {
  CounterSet a;
  CounterSet b;
  const auto ax = a.intern("x");
  const auto ay = a.intern("y");
  const auto by = b.intern("y");
  const auto bz = b.intern("z");
  const auto bx = b.intern("x");
  ASSERT_EQ(ax, by);  // the same id names different counters in a and b
  a.inc(ax, 1);
  a.inc(ay, 10);
  b.inc(bx, 100);
  b.inc(by, 1000);
  b.inc(bz, 10000);
  a.merge(b);
  EXPECT_EQ(a.get("x"), 101u);
  EXPECT_EQ(a.get("y"), 1010u);
  EXPECT_EQ(a.get("z"), 10000u);
  EXPECT_EQ(b.get("x"), 100u);  // source untouched
}

TEST(CounterSet, CopyMoveAndResetKeepIdsValid) {
  CounterSet a;
  const auto x = a.intern("x");
  const auto y = a.intern("y");
  a.inc(x, 4);
  CounterSet copy = a;
  copy.inc(x);
  copy.inc(y);
  EXPECT_EQ(copy.get(x), 5u);
  EXPECT_EQ(copy.get(y), 1u);
  EXPECT_EQ(a.get(x), 4u);  // the copy is independent
  EXPECT_EQ(a.get(y), 0u);
  CounterSet moved = std::move(copy);
  moved.inc(x);
  EXPECT_EQ(moved.get(x), 6u);
  CounterSet assigned;
  assigned = moved;
  EXPECT_EQ(assigned.get(y), 1u);
  assigned.reset();
  EXPECT_EQ(to_json(assigned).dump(), "{}");
  EXPECT_EQ(assigned.get(x), 0u);
  assigned.inc(y, 2);
  EXPECT_EQ(assigned.intern("y"), y);
  EXPECT_EQ(to_json(assigned).dump(), R"({"y":2})");
}

TEST(CounterSet, ToJsonKeysAreSortedByName) {
  CounterSet c;
  for (const char* name : {"zeta", "alpha", "mid", "Beta", "alpha2"}) {
    c.inc(c.intern(name));
  }
  EXPECT_EQ(to_json(c).dump(),
            R"({"Beta":1,"alpha":1,"alpha2":1,"mid":1,"zeta":1})");
  std::vector<std::string> seen;
  c.for_each([&seen](const std::string& name, std::uint64_t) {
    seen.push_back(name);
  });
  EXPECT_EQ(seen, (std::vector<std::string>{"Beta", "alpha", "alpha2", "mid",
                                            "zeta"}));
}

std::vector<std::string> keys_of(const Json& object) {
  std::vector<std::string> out;
  for (const auto& [key, value] : object.as_object()) out.push_back(key);
  return out;
}

using Keys = std::vector<std::string>;

// Units intern every counter they may bump at construction; a report must
// still list only the counters that fired.  Pins the key sets of an
// audited CfmMemory run and a faulted CodedMemory run.
TEST(CounterSet, AuditedRunReportKeySetsArePinned) {
  {
    cfm::core::CfmMemory mem(cfm::core::CfmConfig::make(8, 2));
    ConflictAuditor auditor;
    mem.set_audit(auditor);
    cfm::workload::RunHooks hooks;
    CounterSet out;
    hooks.counters_out = &out;
    (void)cfm::workload::measure_instrumented(mem, 0.3, 0.3, 4000, 7, hooks);
    const Keys memory{"ops_completed", "ops_issued"};
    EXPECT_EQ(keys_of(to_json(mem.counters())), memory);
    EXPECT_EQ(keys_of(to_json(out)), memory);
    const auto audit = auditor.to_json();
    EXPECT_EQ(keys_of(audit.at("scopes")), (Keys{"module0"}));
    const auto& scope = audit.at("scopes").at("module0");
    EXPECT_EQ(keys_of(scope.at("checks")),
              (Keys{"bank_accesses", "blocks_completed",
                    "scheduled_accesses"}));
    EXPECT_EQ(keys_of(scope.at("issues")), (Keys{}));
    EXPECT_EQ(keys_of(scope.at("injected")), (Keys{}));
  }
  {
    cfm::mem::coded::CodedConfig cfg;
    cfg.processors = 4;
    cfg.bank_cycle = 1;
    cfg.code.data_banks = 8;
    cfg.code.stripe_width = 4;
    cfg.code.parity_per_stripe = 1;
    cfg.code.policy = cfm::mem::coded::ParityPolicy::Logged;
    cfm::mem::coded::CodedMemory mem(cfg);
    ConflictAuditor auditor;
    mem.set_audit(auditor);
    FaultInjector injector(FaultPlan::parse(
        "bank_dead@2000:module=0,bank=3;brownout@3000+50:module=0"));
    mem.set_fault_injector(injector);
    cfm::workload::RunHooks hooks;
    CounterSet out;
    hooks.counters_out = &out;
    (void)cfm::workload::measure_instrumented(mem, 0.3, 0.25, 6000, 11, hooks);
    // fault_aborts is materialized at zero; parity_skipped, ops_aborted,
    // bank_failures_unmapped and the rest never fire here.
    const Keys memory{"bank_failures",        "bank_stalls",
                      "brownouts",            "data_bank_failures",
                      "decode_bank_reads",    "decode_mismatches",
                      "fault_aborts",         "log_stalls",
                      "ops_completed",        "parity_deltas_coalesced",
                      "parity_deltas_logged", "parity_updates",
                      "reads",                "torn_parity_waits",
                      "word_reads_decoded",   "word_reads_direct",
                      "word_writes_decoded",  "word_writes_direct",
                      "writes"};
    EXPECT_EQ(keys_of(to_json(mem.counters())), memory);
    EXPECT_EQ(keys_of(to_json(out)), memory);
    const auto audit = auditor.to_json();
    EXPECT_EQ(keys_of(audit.at("scopes")), (Keys{"coded_memory"}));
    const auto& scope = audit.at("scopes").at("coded_memory");
    EXPECT_EQ(keys_of(scope.at("checks")),
              (Keys{"bank_accesses", "decodes", "injected_checks",
                    "parity_guards"}));
    EXPECT_EQ(keys_of(scope.at("issues")), (Keys{}));
    EXPECT_EQ(keys_of(scope.at("injected")), (Keys{"bank_dead", "brownout"}));
  }
}

TEST(Engine, PhasesRunInOrderEveryCycle) {
  Engine e;
  std::vector<int> order;
  const auto on = [&](Phase phase, int tag) {
    e.add(std::make_shared<LambdaComponent>(
        "phase" + std::to_string(tag), kSharedDomain, phase,
        [&order, tag](Cycle) { order.push_back(tag); }));
  };
  on(Phase::Commit, 3);
  on(Phase::Issue, 0);
  on(Phase::Memory, 2);
  on(Phase::Network, 1);
  e.run_for(2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
  EXPECT_EQ(e.now(), 2u);
}

}  // namespace
