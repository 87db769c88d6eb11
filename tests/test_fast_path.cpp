// Tests for the batch-tick + quiescence fast path (DESIGN.md §12): the
// skip / jump / span rules in isolation, in-domain sub-spans (those that
// start in the cycle a driver issues included) and batched CfmMemory
// tours against the per-cycle reference, and the
// headline cross-product bit-exactness
// suite — fast path on at max_span {1, 7, 64} against the fast-path-off
// reference, with {no faults, bank_dead + brownout, a hot contended pool,
// the transaction tracer}, all produce identical results on a
// 64-processor hierarchical CFM machine driven by the wake-aware
// think-time workload — and a guard that the hierarchical controller
// sleeps between member-tour completions.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/hierarchical.hpp"
#include "cfm/cfm_memory.hpp"
#include "cfm/port_driver.hpp"
#include "serve/server.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/txn_trace.hpp"
#include "workload/access_gen.hpp"
#include "workload/hier_driver.hpp"

namespace {

using namespace cfm;
using sim::Cycle;
using sim::Engine;
using sim::EngineConfig;
using sim::Phase;

// ------------------------------------------------------- layout / tuning --

static_assert(alignof(sim::StatShard) == sim::kCacheLineBytes,
              "StatShard must start on its own cache line");
static_assert(sizeof(sim::StatShard) % sim::kCacheLineBytes == 0,
              "adjacent StatShards must not share a line");

TEST(EngineTuning, OverridesApplyToEveryConstructedEngine) {
  sim::set_engine_tuning({.fast_path = false, .max_span = 7});
  Engine tuned;
  EXPECT_FALSE(tuned.config().fast_path);
  EXPECT_EQ(tuned.config().max_span, 7u);
  sim::set_engine_tuning({});  // clear for the rest of the suite
  Engine plain;
  EXPECT_TRUE(plain.config().fast_path);
  EXPECT_EQ(plain.config().max_span, 64u);
}

// ------------------------------------------------------------- skip rule --

// Acts every `period` cycles and publishes the next pulse as its hint;
// raw_ticks counts how often the engine actually invoked it.
class PulseComponent final : public sim::Component {
 public:
  PulseComponent(std::string name, sim::DomainId domain, Cycle period)
      : Component(std::move(name), domain, sim::phase_bit(Phase::Memory)),
        period_(period) {}

  void tick_phase(Phase phase, Cycle now) override {
    ++raw_ticks;
    if (now % period_ != 0) return;
    ++pulses;
    checksum = checksum * 31 + now;
    set_next_event(phase, now + period_);
  }

  Cycle period_;
  std::uint64_t raw_ticks = 0;
  std::uint64_t pulses = 0;
  std::uint64_t checksum = 0;
};

TEST(FastPath, SkipRuleMatchesReferenceWithFewerInvocations) {
  constexpr Cycle kCycles = 1000;
  constexpr Cycle kPeriod = 10;

  Engine ref(EngineConfig{.fast_path = false});
  PulseComponent a("pulse", sim::kSharedDomain, kPeriod);
  ref.add(a);
  ref.run_for(kCycles);

  Engine fast(EngineConfig{.fast_path = true});
  PulseComponent b("pulse", sim::kSharedDomain, kPeriod);
  fast.add(b);
  fast.run_for(kCycles);

  EXPECT_EQ(a.raw_ticks, kCycles);
  EXPECT_EQ(a.pulses, b.pulses);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(fast.now(), kCycles);
  // The fast path visited only the pulse cycles (plus none extra).
  EXPECT_EQ(b.raw_ticks, b.pulses);
}

// ------------------------------------------------------------- jump rule --

TEST(FastPath, JumpRuleTeleportsOverQuiescentStretches) {
  // Publishes kNeverCycle after cycle 5: from then on the machine is
  // provably idle and run_for must jump straight to the target.
  class GoesQuiet final : public sim::Component {
   public:
    GoesQuiet() : Component("quiet", sim::kSharedDomain,
                            sim::phase_bit(Phase::Issue)) {}
    void tick_phase(Phase phase, Cycle now) override {
      ++raw_ticks;
      if (now >= 5) set_next_event(phase, sim::kNeverCycle);
    }
    std::uint64_t raw_ticks = 0;
  };

  Engine fast;
  GoesQuiet c;
  fast.add(c);
  fast.run_for(1'000'000);
  EXPECT_EQ(fast.now(), 1'000'000u);
  EXPECT_EQ(c.raw_ticks, 6u);  // cycles 0..5, then one jump
}

// ------------------------------------------------------------- span rule --

// Sole component of an independent domain: the fast path must hand it
// whole spans; the recorded spans must tile [0, cycles) exactly.
class SpanRecorder final : public sim::Component {
 public:
  SpanRecorder(std::string name, sim::DomainId domain)
      : Component(std::move(name), domain, sim::phase_bit(Phase::Memory)) {}

  void tick_phase(Phase, Cycle now) override {
    ++cell_ticks;
    checksum = checksum * 31 + now;
  }
  void tick_span(Phase phase, Cycle begin, Cycle end) override {
    spans.emplace_back(begin, end);
    Component::tick_span(phase, begin, end);
  }

  std::vector<std::pair<Cycle, Cycle>> spans;
  std::uint64_t cell_ticks = 0;
  std::uint64_t checksum = 0;
};

TEST(FastPath, SoleDomainComponentReceivesTilingSpans) {
  constexpr Cycle kCycles = 1000;
  constexpr Cycle kSpan = 64;
  Engine fast(EngineConfig{.fast_path = true, .max_span = kSpan});
  SpanRecorder rec("rec", fast.allocate_domain());
  fast.add(rec);
  fast.run_for(kCycles);

  ASSERT_FALSE(rec.spans.empty());
  Cycle expect_begin = 0;
  for (const auto& [begin, end] : rec.spans) {
    EXPECT_EQ(begin, expect_begin);
    EXPECT_GT(end, begin);
    EXPECT_LE(end - begin, kSpan);
    expect_begin = end;
  }
  EXPECT_EQ(expect_begin, kCycles);
  EXPECT_EQ(rec.cell_ticks, kCycles);

  Engine ref(EngineConfig{.fast_path = false});
  SpanRecorder r2("rec", ref.allocate_domain());
  ref.add(r2);
  ref.run_for(kCycles);
  EXPECT_TRUE(r2.spans.empty());  // reference path never batches
  EXPECT_EQ(r2.checksum, rec.checksum);
}

// Every shared entry's hint bounds span fusion: no domain span may cross
// a cycle at which a shared entry can act.  span_capable is an in-domain
// promise and lifts nothing for a shared entry.  Only the cycles in which
// the shared entry acts run per cycle: at period 2 every cycle between
// pulses is a 1-cycle span.
TEST(FastPath, SharedEntryHintBoundsSpanFusion) {
  constexpr Cycle kCycles = 500;

  auto build = [](Engine& engine, Cycle period, std::uint64_t* pulses,
                  SpanRecorder*& rec_out) {
    auto pulse = std::make_shared<sim::LambdaComponent>("pulse",
                                                        sim::kSharedDomain);
    auto* self = pulse.get();
    pulse->on(Phase::Network, [self, period, pulses](Cycle now) {
      if (now % period != 0) return;  // the reference path ticks every cycle
      ++*pulses;
      self->set_next_event(now + period);
    });
    pulse->set_span_capable();
    engine.add(std::move(pulse));
    auto rec = std::make_shared<SpanRecorder>("rec", engine.allocate_domain());
    rec_out = rec.get();
    engine.add(std::move(rec));
  };

  for (const Cycle period : {Cycle{10}, Cycle{2}}) {
    Engine fast(EngineConfig{.fast_path = true, .max_span = 64});
    std::uint64_t fast_pulses = 0;
    SpanRecorder* fast_rec = nullptr;
    build(fast, period, &fast_pulses, fast_rec);
    fast.run_for(kCycles);

    Engine ref(EngineConfig{.fast_path = false});
    std::uint64_t ref_pulses = 0;
    SpanRecorder* ref_rec = nullptr;
    build(ref, period, &ref_pulses, ref_rec);
    ref.run_for(kCycles);

    ASSERT_FALSE(fast_rec->spans.empty()) << "period " << period;
    for (const auto& [begin, end] : fast_rec->spans) {
      EXPECT_NE(begin % period, 0u) << "span starts on a pulse cycle";
      EXPECT_EQ(begin / period, (end - 1) / period) << "span crosses a pulse";
    }
    if (period == 2) {
      EXPECT_EQ(fast_rec->spans.size(), kCycles / 2);  // every odd cycle
    }
    EXPECT_EQ(fast_pulses, kCycles / period);
    EXPECT_EQ(fast_pulses, ref_pulses);
    EXPECT_EQ(fast_rec->cell_ticks, kCycles);
    EXPECT_EQ(fast_rec->checksum, ref_rec->checksum);
  }
}

// -------------------------------------------------- LambdaComponent API --

TEST(LambdaComponent, PhaseIndexedCallbacksFireInPhaseOrder) {
  Engine engine(EngineConfig{.fast_path = false});
  std::vector<int> order;
  auto multi = std::make_shared<sim::LambdaComponent>("multi",
                                                      sim::kSharedDomain);
  multi->on(Phase::Commit, [&order](Cycle) { order.push_back(3); });
  multi->on(Phase::Issue, [&order](Cycle) { order.push_back(0); });
  multi->on(Phase::Issue, [&order](Cycle) { order.push_back(1); });
  multi->on(Phase::Network, [&order](Cycle) { order.push_back(2); });
  engine.add(std::move(multi));
  engine.run_for(2);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 0, 1, 2, 3}));
}

// --------------------------------------------- in-domain sub-spans --

// Two entries in one domain: a span-capable pulse (Memory phase) and a
// plain pulse (Issue phase) with a longer period.  Between the slow
// pulses the fast one is the only actionable entry and must receive
// sub-spans; the group must jump when neither can act.
TEST(FastPath, SpanCapableEntryGetsSubSpansInsideItsDomain) {
  constexpr Cycle kCycles = 2000;
  class SubSpanPulse final : public sim::Component {
   public:
    SubSpanPulse(sim::DomainId domain, Phase phase, Cycle period)
        : Component("pulse", domain, sim::phase_bit(phase)), period_(period) {}
    void tick_phase(Phase phase, Cycle now) override {
      ++ticks;
      if (now < next_) return;  // the reference ticks every cycle
      checksum = checksum * 31 + now;
      next_ = now + period_;
      set_next_event(phase, next_);
    }
    void tick_span(Phase phase, Cycle begin, Cycle end) override {
      ++spans;
      Component::tick_span(phase, begin, end);
    }
    Cycle period_;
    Cycle next_ = 0;
    std::uint64_t ticks = 0;
    std::uint64_t spans = 0;
    std::uint64_t checksum = 0;
  };
  auto run = [&](bool fast, bool capable) {
    Engine engine(EngineConfig{.fast_path = fast, .max_span = 64});
    const auto domain = engine.allocate_domain();
    SubSpanPulse quick(domain, Phase::Memory, 3);
    SubSpanPulse slow(domain, Phase::Issue, 50);
    quick.set_span_capable(capable);
    engine.add(quick);
    engine.add(slow);
    engine.run_for(kCycles);
    return std::tuple{quick.checksum, slow.checksum, quick.ticks, slow.ticks,
                      quick.spans};
  };
  const auto ref = run(false, true);
  const auto batched = run(true, true);
  const auto plain = run(true, false);
  EXPECT_EQ(std::get<0>(batched), std::get<0>(ref));
  EXPECT_EQ(std::get<1>(batched), std::get<1>(ref));
  EXPECT_EQ(std::get<0>(plain), std::get<0>(ref));
  EXPECT_EQ(std::get<1>(plain), std::get<1>(ref));
  EXPECT_EQ(std::get<2>(ref), kCycles);  // reference: every cycle
  EXPECT_EQ(std::get<2>(batched), (kCycles + 2) / 3);
  EXPECT_EQ(std::get<3>(batched), kCycles / 50);
  EXPECT_GT(std::get<4>(batched), 0u);  // sub-spans were handed out
  EXPECT_EQ(std::get<4>(plain), 0u);    // only when span-capable
}

// ------------------------------------------- batched CfmMemory tours --

// Closed-loop stream in the memory's tick domain: each port thinks for a
// seeded 0..47 cycles, then issues a Read, Write or (optionally) a
// fetch-and-increment Swap on one of four hot offsets half the time and
// on a wide cold range otherwise.  The hot offsets keep same-address
// races (restarts, aborts, live ATT entries) in the stream; the cold ones
// are the uncontended tours the fast path batches.
class StreamDriver final : public sim::Component {
 public:
  struct Record {
    std::uint32_t port = 0;
    core::OpStatus status = core::OpStatus::Completed;
    Cycle issued = 0;
    Cycle completed = 0;
    std::vector<sim::Word> data;
    std::uint32_t restarts = 0;
    bool operator==(const Record&) const = default;
  };

  StreamDriver(sim::DomainId domain, core::CfmMemory& mem, bool swaps,
               std::uint64_t seed)
      : Component("stream", domain, sim::phase_bit(Phase::Issue)),
        mem_(mem),
        swaps_(swaps),
        rng_(seed),
        ports_(mem.config().processors) {}

  void tick_phase(Phase, Cycle now) override {
    Cycle wake = sim::kNeverCycle;
    bool in_flight = false;
    for (std::uint32_t p = 0; p < ports_.size(); ++p) {
      auto& port = ports_[p];
      if (port.op != core::CfmMemory::kNoOp) {
        if (auto r = mem_.take_result(port.op)) {
          records.push_back(Record{p, r->status, r->issued, r->completed,
                                   r->data, r->restarts});
          port.op = core::CfmMemory::kNoOp;
          port.ready = now + rng_.below(48);
        }
      }
      if (port.op == core::CfmMemory::kNoOp && port.ready <= now) issue(now, p);
      if (port.op != core::CfmMemory::kNoOp) {
        in_flight = true;
      } else {
        wake = std::min(wake, port.ready);
      }
    }
    if (in_flight) wake = std::min(wake, mem_.next_completion_hint(now));
    set_next_event(wake);
  }

  std::vector<Record> records;
  std::vector<sim::BlockAddr> offsets;  ///< every offset issued
  std::uint64_t modify_calls = 0;       ///< swap modify callbacks run

 private:
  struct Port {
    core::CfmMemory::OpToken op = core::CfmMemory::kNoOp;
    Cycle ready = 0;
  };

  void issue(Cycle now, std::uint32_t p) {
    const sim::BlockAddr offset =
        rng_.chance(0.5) ? rng_.below(4) : 1000 + rng_.below(100000);
    offsets.push_back(offset);
    const auto roll = rng_.below(10);
    if (swaps_ && roll < 2) {
      ports_[p].op = mem_.issue(now, p, core::BlockOpKind::Swap, offset, {},
                                [this](const std::vector<sim::Word>& read) {
                                  ++modify_calls;
                                  auto out = read;
                                  ++out[0];
                                  return out;
                                });
    } else if (roll < 6) {
      std::vector<sim::Word> data(mem_.config().banks);
      const sim::Word v = rng_.below(1u << 30);
      for (std::size_t j = 0; j < data.size(); ++j) data[j] = v ^ j;
      ports_[p].op =
          mem_.issue(now, p, core::BlockOpKind::Write, offset, data);
    } else {
      ports_[p].op = mem_.issue(now, p, core::BlockOpKind::Read, offset);
    }
  }

  core::CfmMemory& mem_;
  bool swaps_;
  sim::Rng rng_;
  std::vector<Port> ports_;
};

struct StreamRun {
  std::vector<StreamDriver::Record> records;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::vector<sim::Word>> blocks;
  std::uint64_t modify_calls = 0;
  std::uint64_t audit_checks = 0;
  std::uint64_t audit_violations = 0;
  std::string trace;

  bool operator==(const StreamRun&) const = default;
};

enum class Instrument { None, Audit, Trace };

StreamRun run_stream(core::ConsistencyPolicy policy, bool fast, Cycle span,
                     Instrument instrument = Instrument::None,
                     Cycle cycles = 20000) {
  Engine engine(EngineConfig{.fast_path = fast, .max_span = span});
  core::CfmMemory mem(core::CfmConfig::make(8, 2), policy);
  sim::ConflictAuditor auditor;
  sim::TxnTracer tracer;
  if (instrument == Instrument::Audit) mem.set_audit(auditor);
  if (instrument == Instrument::Trace) mem.set_txn_trace(tracer);
  const auto domain = engine.allocate_domain();
  mem.attach(engine, domain);
  StreamDriver driver(domain, mem,
                      policy == core::ConsistencyPolicy::EarliestWins,
                      0xb47c4edULL);
  engine.add(driver);
  engine.run_for(cycles);

  StreamRun out;
  out.records = driver.records;
  for (const auto& [k, v] : mem.counters().all()) out.counters.emplace_back(k, v);
  auto offsets = driver.offsets;
  std::sort(offsets.begin(), offsets.end());
  offsets.erase(std::unique(offsets.begin(), offsets.end()), offsets.end());
  for (const auto o : offsets) out.blocks.push_back(mem.peek_block(o));
  // Read after the peeks: a lazy swap past its read tour runs modify
  // when it is settled, and peek_block settles it.
  out.modify_calls = driver.modify_calls;
  out.audit_checks = auditor.checks_performed();
  out.audit_violations = auditor.violations();
  if (instrument == Instrument::Trace) out.trace = tracer.to_json().dump();
  return out;
}

// Uncontended tours run lazily on the fast path, contended ones per
// slot; every observable must match the per-cycle reference.  The
// shorter run ends while lazy tours are under way, among them a swap
// past its read tour, so only peek_block's settle brings their blocks
// and modify calls level with the reference.
TEST(BatchedTours, MatchPerCycleReferenceUnderBothPolicies) {
  for (const auto policy : {core::ConsistencyPolicy::EarliestWins,
                            core::ConsistencyPolicy::LatestWins}) {
    for (const Cycle cycles : {Cycle{20000}, Cycle{19990}}) {
      const StreamRun ref =
          run_stream(policy, /*fast=*/false, 1, Instrument::None, cycles);
      ASSERT_GT(ref.records.size(), 2000u);
      // The stream really races on the hot offsets.
      std::uint64_t restarts = 0;
      std::uint64_t aborted = 0;
      for (const auto& [k, v] : ref.counters) {
        if (k.ends_with("_restarts")) restarts += v;
        if (k == "ops_aborted") aborted = v;
      }
      EXPECT_GT(restarts, 0u);
      if (policy == core::ConsistencyPolicy::LatestWins) {
        EXPECT_GT(aborted, 0u);
      }
      for (const Cycle span : {Cycle{1}, Cycle{7}, Cycle{64}}) {
        EXPECT_EQ(run_stream(policy, true, span, Instrument::None, cycles),
                  ref)
            << "policy " << static_cast<int>(policy) << " span " << span
            << " cycles " << cycles;
      }
    }
  }
}

// An audited or traced memory never batches: its probes and spans are
// exactly the per-cycle reference's, and the audit stays clean.
TEST(BatchedTours, InstrumentedMemoryStaysOnThePerSlotPath) {
  const auto policy = core::ConsistencyPolicy::EarliestWins;
  const StreamRun plain = run_stream(policy, false, 1);
  for (const auto instrument : {Instrument::Audit, Instrument::Trace}) {
    const StreamRun ref = run_stream(policy, false, 1, instrument);
    const StreamRun fast = run_stream(policy, true, 64, instrument);
    EXPECT_EQ(fast, ref);
    EXPECT_EQ(fast.records, plain.records);
    EXPECT_EQ(fast.audit_violations, 0u);
  }
  EXPECT_GT(run_stream(policy, true, 64, Instrument::Audit).audit_checks,
            plain.records.size());
  EXPECT_FALSE(run_stream(policy, true, 64, Instrument::Trace).trace.empty());
}

// ------------------------------------------- spans from the issue cycle --

// Stands in for CfmMemory's own tick component: forwards every tick and
// span to the memory and records which the engine handed out.
struct MemoryProbe {
  explicit MemoryProbe(core::CfmMemory& memory) : mem(memory) {}

  core::CfmMemory& mem;
  std::vector<std::pair<Cycle, Cycle>> spans;
  std::uint64_t slot_ticks = 0;

  void tick(Cycle now) {
    ++slot_ticks;
    mem.tick(now);
  }
  void tick_span(Cycle begin, Cycle end) {
    spans.emplace_back(begin, end);
    mem.tick_span(begin, end);
  }
};

// One port driver and its memory in one domain, attached through a
// MemoryProbe, which records the ticks and spans the memory gets.
template <typename Source, typename... SourceArgs>
struct ProbedDomain {
  Engine engine;
  core::CfmMemory mem;
  MemoryProbe probe{mem};
  core::PortDriver<core::CfmMemory, Source> driver;

  ProbedDomain(bool fast, std::uint32_t processors, SourceArgs... args)
      : engine(EngineConfig{.fast_path = fast, .max_span = 64}),
        mem(core::CfmConfig::make(processors, 2)),
        driver("test.driver", engine.allocate_domain(), mem, 0x1551eULL,
               args...) {
    auto ticker = std::make_shared<sim::TickComponent<MemoryProbe>>(
        "test.memory", driver.domain(), Phase::Memory, probe);
    mem.attach(*engine.add(ticker));
    engine.add(driver);
  }
};

// Sparse open-loop arrivals: each request issues in the cycle it arrives,
// and the driver then sleeps until the tour completes.  The memory must
// run that whole tour, issue slot included, as one span: the cycle the
// driver wakes in is part of the memory's batched span, not a per-slot
// tick() followed by a span from the next cycle.
TEST(FastPath, IssueCycleJoinsTheMemorySpan) {
  using Queue = serve::AdmissionQueue;
  const auto run = [](bool fast) {
    auto d = std::make_unique<ProbedDomain<Queue, Cycle, std::size_t, double,
                                           std::size_t>>(
        fast, 8, Cycle{1000}, std::size_t{16}, 1.0, std::size_t{64});
    for (Cycle a = 100; a < 4000; a += 200) {
      d->driver.source().submit({.kind = a % 400 == 100
                                             ? serve::RequestKind::Write
                                             : serve::RequestKind::Read,
                                 .block = a / 200},
                                a);
    }
    d->engine.run_for(4200);
    return d;
  };
  const auto ref = run(false);
  const auto fast = run(true);
  ASSERT_EQ(fast->driver.completed(), 20u);
  EXPECT_EQ(fast->driver.latency().mean(), ref->driver.latency().mean());
  EXPECT_EQ(fast->mem.counters().all(), ref->mem.counters().all());

  EXPECT_EQ(fast->probe.slot_ticks, 0u);
  for (Cycle a = 100; a < 4000; a += 200) {
    const bool starts_at_issue = std::any_of(
        fast->probe.spans.begin(), fast->probe.spans.end(),
        [&](const auto& s) { return s.first == a && s.second > a + 1; });
    EXPECT_TRUE(starts_at_issue) << "no span starts at issue cycle " << a;
  }
}

// A closed-loop driver with an idle port polls every cycle (kAlways), so
// after its Issue phase the others' earliest hint is t + 1.  The memory
// is still the only actionable entry there, so it gets that cycle as a
// 1-cycle span: a span-capable memory beside such a driver is never
// tick()ed per slot.
TEST(FastPath, KAlwaysClosedLoopMemoryGetsSpansOnly) {
  const auto run = [](bool fast) {
    auto d = std::make_unique<ProbedDomain<workload::ClosedLoop, double,
                                           double>>(fast, 8, 0.01, 0.3);
    d->engine.run_for(5000);
    return d;
  };
  const auto ref = run(false);
  const auto fast = run(true);
  ASSERT_GT(fast->driver.completed(), 100u);
  EXPECT_EQ(fast->driver.completed(), ref->driver.completed());
  EXPECT_EQ(fast->driver.latency().mean(), ref->driver.latency().mean());
  EXPECT_EQ(fast->mem.counters().all(), ref->mem.counters().all());
  EXPECT_FALSE(fast->probe.spans.empty());
  EXPECT_EQ(fast->probe.slot_ticks, 0u);
}

// ----------------------------------------- hierarchical cross-product --

struct HierRun {
  std::uint64_t completed = 0;
  std::uint64_t in_flight = 0;
  double mean_latency = 0.0;
  std::uint64_t latency_count = 0;
  std::vector<std::pair<std::string, std::uint64_t>> machine_counters;
  std::vector<std::pair<std::string, std::uint64_t>> mem_counters;
  bool coupling_ok = false;
  Cycle end_cycle = 0;
  std::string trace_hash;  ///< empty unless traced

  bool operator==(const HierRun&) const = default;

  [[nodiscard]] std::uint64_t machine_counter(const std::string& key) const {
    for (const auto& [k, v] : machine_counters) {
      if (k == key) return v;
    }
    return 0;
  }
};

struct HierCase {
  std::string fault_plan = {};  ///< empty = healthy machine
  bool audit = false;
  bool barrier = false;
  /// Every request on one of two shared blocks, half of them writes: the
  /// controller sees block-lock handoffs, dirty-remote chains and phase
  /// chains cut by the hop bound on almost every pass.
  bool hot = false;
  bool traced = false;  ///< TxnTracer on both levels and the controller
};

// One full machine build + run.
HierRun run_hier(bool fast, Cycle span, const HierCase& c = {}) {
  constexpr Cycle kCycles = 3000;
  Engine engine(EngineConfig{.fast_path = fast, .max_span = span});

  cache::HierarchicalCfm sys({.clusters = 8, .procs_per_cluster = 8});
  std::optional<sim::FaultInjector> injector;
  if (!c.fault_plan.empty()) {
    injector.emplace(sim::FaultPlan::parse(c.fault_plan));
    sys.set_fault_injector(*injector);
  }
  sim::ConflictAuditor auditor;
  if (c.audit) sys.set_audit(auditor);
  sim::TxnTracer tracer;
  if (c.traced) sys.set_txn_trace(tracer);

  workload::HierDriver::Params params{
      .think_min = 4, .think_max = 120, .write_fraction = 0.35,
      .shared_fraction = 0.25, .barrier = c.barrier};
  if (c.hot) {
    params.write_fraction = 0.5;
    params.shared_fraction = 1.0;
    params.shared_blocks = 2;
  }
  workload::HierDriver driver("test.think_driver", engine, sys, params,
                              /*seed=*/0x5eedULL,
                              engine.shard(sim::kSharedDomain));
  sys.attach(engine);
  engine.run_for(kCycles);

  HierRun out;
  out.completed = driver.completed();
  out.in_flight = driver.in_flight();
  const auto& shard = engine.shard(sim::kSharedDomain);
  const auto it = shard.running.find("hier.access_time");
  if (it != shard.running.end()) {
    out.mean_latency = it->second.mean();
    out.latency_count = it->second.count();
  }
  for (const auto& [k, v] : sys.counters().all()) {
    out.machine_counters.emplace_back(k, v);
  }
  for (std::uint32_t cl = 0; cl < 8; ++cl) {
    for (const auto& [k, v] : sys.cluster_memory(cl).counters().all()) {
      out.mem_counters.emplace_back("c" + std::to_string(cl) + "." + k, v);
    }
  }
  for (const auto& [k, v] : sys.global_memory().counters().all()) {
    out.mem_counters.emplace_back("g." + k, v);
  }
  out.coupling_ok = sys.check_state_coupling();
  out.end_cycle = engine.now();
  if (c.traced) {
    out.trace_hash = sim::canonical_hash_hex(tracer.to_json(1u << 20));
  }
  if (c.audit) {
    EXPECT_EQ(auditor.violations(), 0u);
  }
  return out;
}

// Every fast-path span is bit-exact with the per-cycle reference, healthy
// machine.
TEST(FastPathCrossProduct, HealthyMachineIsBitExactEverywhere) {
  const HierRun ref = run_hier(/*fast=*/false, 1);
  ASSERT_GT(ref.completed, 500u);
  ASSERT_TRUE(ref.coupling_ok);

  for (const Cycle span : {Cycle{1}, Cycle{7}, Cycle{64}}) {
    EXPECT_EQ(run_hier(true, span), ref) << "span " << span;
  }
}

// ...and with bank_dead + brownout faults injected at both levels.
TEST(FastPathCrossProduct, FaultedMachineIsBitExactEverywhere) {
  const HierCase faulted{
      .fault_plan =
          "bank_dead@400+900:module=0,bank=1;brownout@1400+150:module=0"};
  const HierRun ref = run_hier(/*fast=*/false, 1, faulted);
  ASSERT_GT(ref.completed, 200u);
  ASSERT_TRUE(ref.coupling_ok);

  for (const Cycle span : {Cycle{1}, Cycle{7}, Cycle{64}}) {
    EXPECT_EQ(run_hier(true, span, faulted), ref) << "span " << span;
  }
}

// The bulk-synchronous (BSP superstep) driver mode — the shape the CI
// throughput gate benchmarks — is bit-exact across the same grid.
TEST(FastPathCrossProduct, BarrierWorkloadIsBitExactEverywhere) {
  const HierRun ref = run_hier(false, 1, {.barrier = true});
  ASSERT_GT(ref.completed, 300u);
  for (const Cycle span : {Cycle{1}, Cycle{64}}) {
    EXPECT_EQ(run_hier(true, span, {.barrier = true}), ref)
        << "span " << span;
  }
}

// A hot, contended machine keeps the controller on its now + 1 wake
// (lock handoffs, dirty-remote chains, cut phase chains) most passes;
// the wakes it takes from member tours in between must still land on
// the reference schedule.
TEST(FastPathCrossProduct, ContendedMachineIsBitExactEverywhere) {
  const HierRun ref = run_hier(false, 1, {.hot = true});
  ASSERT_GT(ref.completed, 100u);  // serialized on two block locks
  ASSERT_TRUE(ref.coupling_ok);
  EXPECT_GT(ref.machine_counter("class_dirty_remote"), 0u);
  EXPECT_GT(ref.machine_counter("remote_l1_wbs"), 0u);
  for (const Cycle span : {Cycle{1}, Cycle{7}, Cycle{64}}) {
    EXPECT_EQ(run_hier(true, span, {.hot = true}), ref) << "span " << span;
  }
}

// With the transaction tracer attached the member memories leave their
// batched tours for the per-slot path; every record must still match.
TEST(FastPathCrossProduct, TracedMachineIsBitExactEverywhere) {
  for (const bool hot : {false, true}) {
    const HierRun ref = run_hier(false, 1, {.hot = hot, .traced = true});
    ASSERT_FALSE(ref.trace_hash.empty());
    for (const Cycle span : {Cycle{1}, Cycle{7}, Cycle{64}}) {
      EXPECT_EQ(run_hier(true, span, {.hot = hot, .traced = true}), ref)
          << "hot " << hot << " span " << span;
    }
  }
}

// The §9 conflict auditor keeps working on the fast path: zero
// violations, and auditing does not change results.
TEST(FastPathCrossProduct, AuditedFastRunMatchesAndStaysClean) {
  const HierRun ref = run_hier(false, 1);
  EXPECT_EQ(run_hier(false, 1, {.audit = true}), ref);
  EXPECT_EQ(run_hier(true, 64, {.audit = true}), ref);
}

// The controller sleeps between member-tour completions instead of
// polling every cycle: while one global-miss read is in flight, a probe
// alone in its own domain (hint kNeverCycle, so it never asks for a
// cycle) must be handed spans longer than one cycle.  A controller that
// stays actionable every cycle forces per-cycle steps and no spans.
TEST(FastPath, HierarchicalControllerSleepsBetweenTourCompletions) {
  Engine engine(EngineConfig{.fast_path = true, .max_span = 64});
  cache::HierarchicalCfm sys({});
  sys.attach(engine);
  SpanRecorder probe("test.probe", engine.allocate_domain());
  probe.set_next_event(sim::kNeverCycle);
  engine.add(probe);
  const auto& spans = probe.spans;

  const auto id = sys.read(engine.now(), 0, 42);
  engine.run_for(200);
  const auto result = sys.take_result(id);
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->cls, cache::HierarchicalCfm::AccessClass::Global);
  EXPECT_EQ(result->completed - result->issued, 27u);  // Table 5.5

  const bool long_span_in_flight =
      std::any_of(spans.begin(), spans.end(), [&](const auto& s) {
        return s.second - s.first > 1 && s.first >= result->issued &&
               s.second <= result->completed;
      });
  EXPECT_TRUE(long_span_in_flight) << spans.size() << " spans";
}

// A block-lock handoff with no member tour left in flight: request A,
// earlier in issue order, first flushes a dirty L1 victim, so B takes the
// block's lock ahead of it.  B retires in a pass that has already
// visited A; only the controller's now + 1 wake after a retirement lets
// A take the lock on the reference schedule's cycle.
TEST(FastPath, HierarchicalLockHandoffWakesTheNextCycle) {
  using Hier = cache::HierarchicalCfm;
  auto run = [](bool fast) {
    Engine engine(EngineConfig{.fast_path = fast, .max_span = 64});
    Hier sys({});  // 64 L1 lines: blocks 0 and 64 share a slot
    sys.attach(engine);
    const auto dirty = sys.write(engine.now(), 0, 64, 0, 1);
    engine.run_for(200);
    EXPECT_TRUE(sys.take_result(dirty).has_value());
    const auto a = sys.read(engine.now(), 0, 0);  // victim flush first
    const auto b = sys.read(engine.now(), 1, 0);  // same cluster and block
    engine.run_for(400);
    const auto ra = sys.take_result(a);
    const auto rb = sys.take_result(b);
    EXPECT_TRUE(ra.has_value() && rb.has_value());
    return std::pair{ra.value_or(Hier::Outcome{}),
                     rb.value_or(Hier::Outcome{})};
  };
  const auto [ref_a, ref_b] = run(false);
  const auto [fast_a, fast_b] = run(true);
  EXPECT_EQ(ref_b.cls, Hier::AccessClass::Global);
  EXPECT_EQ(ref_a.cls, Hier::AccessClass::LocalCluster);
  EXPECT_GT(ref_a.completed, ref_b.completed);  // A waited on B's lock
  EXPECT_EQ(fast_a.completed, ref_a.completed);
  EXPECT_EQ(fast_b.completed, ref_b.completed);
  EXPECT_EQ(fast_a.cls, ref_a.cls);
}

// The think-time workload really exercises the skip machinery: on the
// fast path the driver is invoked far less often than once per cycle
// while producing identical work.  (Guards against silently losing the
// speedup, without wall-clock flakiness.)
TEST(FastPath, ThinkTimeWorkloadActuallySkipsWork) {
  constexpr Cycle kCycles = 3000;

  // A sparse machine: few processors with long think times, so the driver
  // is provably idle most cycles and the skip ratio is unambiguous.
  auto run = [&](bool fast) {
    Engine engine(EngineConfig{.fast_path = fast, .max_span = 64});
    cache::HierarchicalCfm sys({.clusters = 2, .procs_per_cluster = 2});
    workload::HierDriver driver("test.think_driver", engine, sys,
                                {.think_min = 64, .think_max = 400},
                                0x5eedULL, engine.shard(sim::kSharedDomain));
    sys.attach(engine);
    engine.run_for(kCycles);
    EXPECT_EQ(engine.now(), kCycles);
    return std::pair{driver.completed(), driver.ticks()};
  };

  const auto [ref_completed, ref_ticks] = run(false);
  const auto [fast_completed, fast_ticks] = run(true);
  EXPECT_EQ(ref_completed, fast_completed);
  EXPECT_GT(fast_completed, 30u);
  EXPECT_EQ(ref_ticks, kCycles);       // reference: every cycle
  EXPECT_LT(fast_ticks, kCycles / 2);  // fast: long think stretches skipped
}

}  // namespace
