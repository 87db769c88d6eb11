// Tests for the coded-redundancy memory backend: the code descriptor
// (stripe layout, rate arithmetic, tradeoff enumeration), CodedMemory's
// read/decode/write/parity paths under both parity policies, permanent
// decode of dead banks, the CodedRelaxed audit scope, the closed loop on
// the coded backend, and the `coded` campaign workload family.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "campaign/runner.hpp"
#include "campaign/scenario.hpp"
#include "mem/coded/code_descriptor.hpp"
#include "mem/coded/coded_memory.hpp"
#include "sim/audit.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/rng.hpp"
#include "workload/access_gen.hpp"

namespace {

using namespace cfm;
using mem::coded::CodeDescriptor;
using mem::coded::CodedConfig;
using mem::coded::CodedMemory;
using mem::coded::ParityPolicy;

CodedConfig small_config(std::uint32_t parity_per_stripe,
                         ParityPolicy policy) {
  CodedConfig cfg;
  cfg.processors = 4;
  cfg.bank_cycle = 1;
  cfg.code.data_banks = 8;
  cfg.code.stripe_width = 4;
  cfg.code.parity_per_stripe = parity_per_stripe;
  cfg.code.policy = policy;
  return cfg;
}

/// Issues a whole-block write and ticks until it completes.
void write_block(CodedMemory& memory, sim::Cycle& now, sim::ProcessorId p,
                 sim::BlockAddr block, const std::vector<sim::Word>& words) {
  const auto token =
      memory.issue(now, p, core::BlockOpKind::Write, block, words);
  for (int guard = 0; guard < 1000; ++guard) {
    memory.tick(now);
    ++now;
    if (auto result = memory.take_result(token)) {
      ASSERT_EQ(result->status, core::OpStatus::Completed);
      return;
    }
  }
  FAIL() << "write did not complete";
}

std::vector<sim::Word> read_block(CodedMemory& memory, sim::Cycle& now,
                                  sim::ProcessorId p, sim::BlockAddr block) {
  const auto token = memory.issue(now, p, core::BlockOpKind::Read, block);
  for (int guard = 0; guard < 1000; ++guard) {
    memory.tick(now);
    ++now;
    if (auto result = memory.take_result(token)) {
      EXPECT_EQ(result->status, core::OpStatus::Completed);
      return result->data;
    }
  }
  ADD_FAILURE() << "read did not complete";
  return {};
}

// ------------------------------------------------------- descriptor ----

TEST(CodeDescriptor, ValidatesShape) {
  CodeDescriptor d;
  d.data_banks = 8;
  d.stripe_width = 4;
  d.parity_per_stripe = 1;
  EXPECT_NO_THROW(d.validate());
  d.stripe_width = 3;  // does not divide 8
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.stripe_width = 4;
  d.parity_per_stripe = 5;  // r > k
  EXPECT_THROW(d.validate(), std::invalid_argument);
  d.parity_per_stripe = 0;  // uncoded is a valid anchor
  EXPECT_NO_THROW(d.validate());
}

TEST(CodeDescriptor, LayoutArithmetic) {
  CodeDescriptor d;
  d.data_banks = 8;
  d.stripe_width = 4;
  d.parity_per_stripe = 2;
  EXPECT_EQ(d.stripes(), 2u);
  EXPECT_EQ(d.parity_banks(), 4u);
  EXPECT_EQ(d.total_banks(), 12u);
  EXPECT_DOUBLE_EQ(d.code_rate(), 4.0 / 6.0);
  EXPECT_EQ(d.max_decode_fanout(), 2u);  // ceil(4/2)

  // Stripe 1 (words 4..7), r=2: word 6 sits in sub-group 0 with word 4;
  // its parity group is stripe*r + 0 = 2.
  EXPECT_EQ(d.group_of(6), 2u);
  EXPECT_EQ(d.group_peers(6), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(d.group_of(5), 3u);
  EXPECT_EQ(d.group_peers(5), (std::vector<std::uint32_t>{7}));
}

TEST(CodeDescriptor, FromRateDerivesParityCount) {
  const auto half = CodeDescriptor::from_rate(8, 4, 0.5, ParityPolicy::Logged);
  EXPECT_EQ(half.parity_per_stripe, 4u);  // mirror
  const auto four_fifths =
      CodeDescriptor::from_rate(8, 4, 0.8, ParityPolicy::ReadModifyWrite);
  EXPECT_EQ(four_fifths.parity_per_stripe, 1u);
  const auto uncoded =
      CodeDescriptor::from_rate(8, 4, 1.0, ParityPolicy::ReadModifyWrite);
  EXPECT_EQ(uncoded.parity_per_stripe, 0u);
  // 0.7 with k=4 needs r = 12/7: not realizable.
  EXPECT_THROW(
      (void)CodeDescriptor::from_rate(8, 4, 0.7, ParityPolicy::Logged),
      std::invalid_argument);
  EXPECT_THROW(
      (void)CodeDescriptor::from_rate(8, 4, 0.0, ParityPolicy::Logged),
      std::invalid_argument);
}

TEST(CodeDescriptor, EnumerateTradeoffsCoversBudget) {
  // B = 12, k = 4: r=0 fails (12 % 4 = 0 works: 3 stripes, 12 data), r=1
  // fails (12 % 5), r=2 gives 2 stripes (8+4), r=4 gives (4+4)... wait
  // 12 % 8 = 4.  The enumeration is the authority; check its invariants.
  const auto rows = mem::coded::enumerate_coded_tradeoffs(12, 4);
  ASSERT_FALSE(rows.empty());
  for (const auto& row : rows) {
    EXPECT_EQ(row.data_banks + row.parity_banks, 12u);
    EXPECT_EQ(row.data_banks % 4u, 0u);
    CodeDescriptor d;
    d.data_banks = row.data_banks;
    d.stripe_width = 4;
    d.parity_per_stripe = row.parity_per_stripe;
    EXPECT_NO_THROW(d.validate());
    EXPECT_DOUBLE_EQ(row.code_rate, d.code_rate());
  }
  EXPECT_THROW((void)mem::coded::parity_policy_from_name("raid6"),
               std::invalid_argument);
}

// ---------------------------------------------------- memory: basics ---

TEST(CodedMemory, WriteThenReadRoundTripsBothPolicies) {
  for (const auto policy :
       {ParityPolicy::ReadModifyWrite, ParityPolicy::Logged}) {
    CodedMemory memory(small_config(1, policy));
    sim::Cycle now = 0;
    const std::vector<sim::Word> words{10, 20, 30, 40, 50, 60, 70, 80};
    write_block(memory, now, 0, 42, words);
    EXPECT_EQ(read_block(memory, now, 0, 42), words);
    EXPECT_EQ(memory.counters().get("decode_mismatches"), 0u);
  }
}

TEST(CodedMemory, ParityMaintainedByWrites) {
  // After any mix of writes, every parity word must equal the XOR of its
  // group — checked through a decode with the data bank killed later, and
  // directly via poke/peek consistency.
  CodedMemory memory(small_config(2, ParityPolicy::ReadModifyWrite));
  sim::Cycle now = 0;
  write_block(memory, now, 3, 0, {1, 2, 3, 4, 5, 6, 7, 8});
  write_block(memory, now, 3, 0, {9, 9, 9, 9, 9, 9, 9, 9});
  EXPECT_EQ(read_block(memory, now, 3, 0),
            (std::vector<sim::Word>{9, 9, 9, 9, 9, 9, 9, 9}));
  EXPECT_GT(memory.counters().get("parity_updates"), 0u);
  EXPECT_EQ(memory.counters().get("decode_mismatches"), 0u);
}

TEST(CodedMemory, LoggedPolicyDrainsAndCoalesces) {
  // Two processors write the same block concurrently; with r=1 their
  // words share a parity group, so two deltas of one block land on the
  // log in the same cycle — the drain must apply them as one coalesced
  // parity write, and every logged delta must be conserved:
  // applied-as-head + coalesced == logged.
  CodedMemory memory(small_config(1, ParityPolicy::Logged));
  sim::Cycle now = 0;
  const std::vector<sim::Word> words{1, 1, 1, 1, 1, 1, 1, 1};
  const auto t0 = memory.issue(now, 0, core::BlockOpKind::Write, 5, words);
  const auto t1 = memory.issue(now, 1, core::BlockOpKind::Write, 5, words);
  for (int guard = 0; guard < 200 && (!memory.idle(0) || !memory.idle(1));
       ++guard) {
    memory.tick(now);
    ++now;
  }
  ASSERT_TRUE(memory.take_result(t0).has_value());
  ASSERT_TRUE(memory.take_result(t1).has_value());
  // The background drain must finish once the machine idles.
  for (int i = 0; i < 20; ++i) {
    memory.tick(now);
    ++now;
  }
  EXPECT_EQ(memory.pending_parity(), 0u);
  const auto logged = memory.counters().get("parity_deltas_logged");
  const auto coalesced = memory.counters().get("parity_deltas_coalesced");
  EXPECT_EQ(logged, 16u);  // both full-block writes went through the log
  EXPECT_GT(coalesced, 0u);
  EXPECT_EQ(memory.counters().get("parity_updates") + coalesced, logged);
  EXPECT_EQ(read_block(memory, now, 0, 5), words);
}

TEST(CodedMemory, RejectsBadOps) {
  CodedMemory memory(small_config(1, ParityPolicy::ReadModifyWrite));
  const std::vector<sim::Word> short_block{1, 2, 3};
  EXPECT_THROW(
      memory.issue(0, 0, core::BlockOpKind::Write, 1, short_block),
      std::invalid_argument);
  EXPECT_THROW(memory.issue(0, 0, core::BlockOpKind::Swap, 1),
               std::invalid_argument);
  CodedConfig bad = small_config(1, ParityPolicy::ReadModifyWrite);
  bad.code.stripe_width = 3;
  EXPECT_THROW(CodedMemory{bad}, std::invalid_argument);
}

// ------------------------------------------------ memory: contention ---

TEST(CodedMemory, BusyBankServedByDecode) {
  // bank_cycle 4 with 8 data banks: processors 0 and 2 get the same
  // de-phased start word (0*4 and 2*4 mod 8), so both want bank 0 in the
  // same slot.  Processor 0 (stepped first) claims it directly; processor
  // 2 finds it busy and — with the rest of the stripe idle — must be
  // served by decode, not stall.
  CodedConfig cfg = small_config(1, ParityPolicy::ReadModifyWrite);
  cfg.bank_cycle = 4;
  CodedMemory memory(cfg);
  sim::Cycle now = 0;
  write_block(memory, now, 0, 3, {1, 2, 3, 4, 5, 6, 7, 8});

  const auto t0 = memory.issue(now, 0, core::BlockOpKind::Read, 3);
  const auto t1 = memory.issue(now, 2, core::BlockOpKind::Read, 3);
  for (int guard = 0; guard < 200 && (!memory.idle(0) || !memory.idle(2));
       ++guard) {
    memory.tick(now);
    ++now;
  }
  const auto r0 = memory.take_result(t0);
  const auto r1 = memory.take_result(t1);
  ASSERT_TRUE(r0.has_value());
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r0->data, (std::vector<sim::Word>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_EQ(r1->data, (std::vector<sim::Word>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_GT(memory.counters().get("word_reads_decoded"), 0u);
  EXPECT_EQ(memory.counters().get("decode_mismatches"), 0u);
}

// --------------------------------------------------- memory: faults ----

TEST(CodedMemory, DeadBankAbsorbedByPermanentDecode) {
  for (const auto policy :
       {ParityPolicy::ReadModifyWrite, ParityPolicy::Logged}) {
    CodedMemory memory(small_config(1, policy));
    sim::FaultInjector injector(
        sim::FaultPlan::parse("bank_dead@10:module=0,bank=2"));
    memory.set_fault_injector(injector);
    sim::Cycle now = 0;
    write_block(memory, now, 0, 9, {1, 2, 3, 4, 5, 6, 7, 8});
    while (now < 20) {
      memory.tick(now);
      ++now;
    }
    EXPECT_EQ(memory.live_banks(), memory.descriptor().total_banks() - 1);
    // Reads decode the dead bank's word forever; writes fold through
    // parity.  Both must keep returning correct data.
    EXPECT_EQ(read_block(memory, now, 0, 9),
              (std::vector<sim::Word>{1, 2, 3, 4, 5, 6, 7, 8}));
    write_block(memory, now, 1, 9, {11, 12, 13, 14, 15, 16, 17, 18});
    EXPECT_EQ(read_block(memory, now, 2, 9),
              (std::vector<sim::Word>{11, 12, 13, 14, 15, 16, 17, 18}));
    EXPECT_GT(memory.counters().get("word_reads_decoded"), 0u);
    EXPECT_GT(memory.counters().get("word_writes_decoded"), 0u);
    EXPECT_EQ(memory.counters().get("decode_mismatches"), 0u);
    EXPECT_EQ(memory.counters().get("fault_aborts"), 0u);
  }
}

TEST(CodedMemory, DeadParityDegradesToUncoded) {
  CodedMemory memory(small_config(1, ParityPolicy::ReadModifyWrite));
  // Parity banks sit above the 8 data banks: bank 8 is stripe 0's parity.
  sim::FaultInjector injector(
      sim::FaultPlan::parse("bank_dead@0:module=0,bank=8"));
  memory.set_fault_injector(injector);
  sim::Cycle now = 0;
  memory.tick(now);
  ++now;
  write_block(memory, now, 0, 4, {1, 2, 3, 4, 5, 6, 7, 8});
  EXPECT_EQ(read_block(memory, now, 0, 4),
            (std::vector<sim::Word>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_GT(memory.counters().get("parity_skipped"), 0u);
}

TEST(CodedMemory, DoubleDeathAbortsBoundedly) {
  // Kill a data bank AND its stripe's parity bank: words of that bank are
  // structurally unserviceable, so ops must abort within the timeout
  // instead of hanging.
  CodedMemory memory(small_config(1, ParityPolicy::ReadModifyWrite));
  sim::FaultInjector injector(sim::FaultPlan::parse(
      "bank_dead@0:module=0,bank=2;bank_dead@0:module=0,bank=8"));
  memory.set_fault_injector(injector);
  sim::Cycle now = 0;
  const auto token = memory.issue(now, 0, core::BlockOpKind::Read, 1);
  std::optional<core::BlockOpResult> result;
  for (int guard = 0; guard < 2000 && !result; ++guard) {
    memory.tick(now);
    ++now;
    result = memory.take_result(token);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, core::OpStatus::Aborted);
  EXPECT_GT(memory.counters().get("fault_aborts"), 0u);
  EXPECT_GT(memory.counters().get("bank_failures_unmapped"), 0u);
}

TEST(CodedMemory, UncodedStripeCannotAbsorbDeath) {
  CodedMemory memory(small_config(0, ParityPolicy::ReadModifyWrite));
  sim::FaultInjector injector(
      sim::FaultPlan::parse("bank_dead@0:module=0,bank=0"));
  memory.set_fault_injector(injector);
  sim::Cycle now = 0;
  const auto token = memory.issue(now, 0, core::BlockOpKind::Read, 1);
  std::optional<core::BlockOpResult> result;
  for (int guard = 0; guard < 2000 && !result; ++guard) {
    memory.tick(now);
    ++now;
    result = memory.take_result(token);
  }
  ASSERT_TRUE(result.has_value());
  EXPECT_EQ(result->status, core::OpStatus::Aborted);
}

// ---------------------------------------------------------- auditor ----

TEST(CodedMemory, CodedRelaxedScopeStaysGreenUnderFaults) {
  sim::ConflictAuditor auditor;
  CodedMemory memory(small_config(1, ParityPolicy::ReadModifyWrite));
  memory.set_audit(auditor);
  sim::FaultInjector injector(
      sim::FaultPlan::parse("bank_dead@5:module=0,bank=1"));
  memory.set_fault_injector(injector);
  sim::Cycle now = 0;
  write_block(memory, now, 0, 2, {1, 2, 3, 4, 5, 6, 7, 8});
  while (now < 10) {
    memory.tick(now);
    ++now;
  }
  EXPECT_EQ(read_block(memory, now, 0, 2),
            (std::vector<sim::Word>{1, 2, 3, 4, 5, 6, 7, 8}));
  EXPECT_GT(memory.counters().get("word_reads_decoded"), 0u);
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_GT(auditor.checks_performed(), 0u);
  EXPECT_GT(auditor.injected_detected(), 0u);
}

TEST(ConflictAuditor, CodedRelaxedProbesDetectBreaks) {
  // Direct probe sensitivity: the scope must actually bite, not just
  // stay green by never checking anything.
  sim::ConflictAuditor auditor;
  const auto scope =
      auditor.add_scope("probe", sim::AuditScopeKind::CodedRelaxed,
                        /*banks=*/12, /*bank_cycle=*/1, /*beta=*/0,
                        /*fanout_limit=*/4);
  auditor.on_decode(scope, 1, 4);       // at the bound: fine
  auditor.on_parity_guard(scope, 1, 0);  // drained: fine
  EXPECT_EQ(auditor.violations(), 0u);
  auditor.on_decode(scope, 2, 5);  // fan-out above stripe width
  EXPECT_EQ(auditor.violations(), 1u);
  auditor.on_parity_guard(scope, 2, 3);  // decode through torn parity
  EXPECT_EQ(auditor.violations(), 2u);
  // Bank overlap is a violation under CodedRelaxed too.
  auditor.on_bank_access(scope, 10, 7);
  auditor.on_bank_access(scope, 10, 7);
  EXPECT_EQ(auditor.violations(), 3u);
}

// ----------------------------------------------------------- driver ----

TEST(CodedClosedLoop, CleanRunCompletes) {
  CodedConfig cfg = small_config(1, ParityPolicy::ReadModifyWrite);
  CodedMemory mem(cfg);
  sim::ConflictAuditor auditor;
  mem.set_audit(auditor);
  workload::RunHooks hooks;
  sim::CounterSet counters;
  hooks.counters_out = &counters;
  const auto r = workload::measure_instrumented(
      mem, /*rate=*/0.3, /*write_fraction=*/0.3, /*cycles=*/4000,
      /*seed=*/7, hooks);
  EXPECT_GT(r.completed, 100u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_EQ(counters.get("decode_mismatches"), 0u);
  EXPECT_GE(r.mean_access_time,
            static_cast<double>(cfg.block_access_time()));
}

TEST(CodedClosedLoop, FaultedRunServesEverythingByDecode) {
  // The acceptance scenario in miniature: mid-run bank death, zero failed
  // accesses, auditor green, decodes observed.
  CodedConfig cfg = small_config(1, ParityPolicy::ReadModifyWrite);
  CodedMemory mem(cfg);
  sim::ConflictAuditor auditor;
  mem.set_audit(auditor);
  sim::FaultInjector injector(
      sim::FaultPlan::parse("bank_dead@2000:module=0,bank=3"));
  mem.set_fault_injector(injector);
  workload::RunHooks hooks;
  sim::CounterSet counters;
  hooks.counters_out = &counters;
  const auto r = workload::measure_instrumented(
      mem, /*rate=*/0.3, /*write_fraction=*/0.25, /*cycles=*/6000,
      /*seed=*/11, hooks);
  const auto fanout_max = mem.decode_fanout_max();
  EXPECT_GT(r.completed, 100u);
  EXPECT_EQ(r.failed, 0u);
  EXPECT_EQ(auditor.violations(), 0u);
  EXPECT_EQ(counters.get("bank_failures"), 1u);
  EXPECT_GT(counters.get("word_reads_decoded") +
                counters.get("word_writes_decoded"),
            0u);
  EXPECT_EQ(counters.get("decode_mismatches"), 0u);
  EXPECT_GT(fanout_max, 0u);
  EXPECT_LE(fanout_max, cfg.code.stripe_width);
}

TEST(CodedClosedLoop, DeterministicAcrossRuns) {
  CodedConfig cfg = small_config(2, ParityPolicy::Logged);
  const auto run = [&] {
    CodedMemory mem(cfg);
    const auto r = workload::measure_instrumented(mem, 0.4, 0.3, 3000, 99);
    return std::make_pair(r.completed, mem.counters().get("parity_updates"));
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a, b);
}

// -------------------------------------------------------- fast path ----

// Closed-loop stream in the memory's tick domain: each port thinks for a
// seeded 0..31 cycles, then writes or reads one of four hot blocks half
// the time (same-offset racing writes) and a wide cold range otherwise.
// It sleeps on the memory's completion hint while every port is busy, so
// a hint that runs late shows up as a schedule change.
class CodedStream final : public sim::Component {
 public:
  struct Record {
    std::uint32_t port = 0;
    core::OpStatus status = core::OpStatus::Completed;
    sim::Cycle issued = 0;
    sim::Cycle completed = 0;
    sim::Cycle harvested = 0;
    std::vector<sim::Word> data;
    bool operator==(const Record&) const = default;
  };

  CodedStream(sim::DomainId domain, CodedMemory& memory, std::uint64_t seed)
      : Component("coded.stream", domain, sim::phase_bit(sim::Phase::Issue)),
        mem_(memory),
        rng_(seed),
        ports_(memory.config().processors) {}

  void tick_phase(sim::Phase, sim::Cycle now) override {
    sim::Cycle wake = sim::kNeverCycle;
    bool in_flight = false;
    for (std::uint32_t p = 0; p < ports_.size(); ++p) {
      auto& port = ports_[p];
      if (port.op != CodedMemory::kNoOp) {
        if (auto r = mem_.take_result(port.op)) {
          records.push_back(
              Record{p, r->status, r->issued, r->completed, now, r->data});
          port.op = CodedMemory::kNoOp;
          port.ready = now + rng_.below(32);
        }
      }
      if (port.op == CodedMemory::kNoOp && port.ready <= now) issue(now, p);
      if (port.op != CodedMemory::kNoOp) {
        in_flight = true;
      } else {
        wake = std::min(wake, port.ready);
      }
    }
    if (in_flight) wake = std::min(wake, mem_.next_completion_hint(now));
    set_next_event(wake);
  }

  std::vector<Record> records;
  std::vector<sim::BlockAddr> blocks;  ///< every block issued

 private:
  struct Port {
    CodedMemory::OpToken op = CodedMemory::kNoOp;
    sim::Cycle ready = 0;
  };

  void issue(sim::Cycle now, std::uint32_t p) {
    const sim::BlockAddr block =
        rng_.chance(0.5) ? rng_.below(4) : 1000 + rng_.below(100000);
    blocks.push_back(block);
    if (rng_.chance(0.5)) {
      std::vector<sim::Word> data(mem_.descriptor().data_banks);
      const sim::Word v = rng_.below(1u << 30);
      for (std::size_t j = 0; j < data.size(); ++j) data[j] = v ^ j;
      ports_[p].op = mem_.issue(now, p, core::BlockOpKind::Write, block, data);
    } else {
      ports_[p].op = mem_.issue(now, p, core::BlockOpKind::Read, block);
    }
  }

  CodedMemory& mem_;
  sim::Rng rng_;
  std::vector<Port> ports_;
};

struct CodedStreamRun {
  std::vector<CodedStream::Record> records;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  std::vector<std::vector<sim::Word>> blocks;
  bool operator==(const CodedStreamRun&) const = default;
};

CodedStreamRun run_coded_stream(ParityPolicy policy, const std::string& plan,
                                bool fast, sim::Cycle span) {
  sim::Engine engine(sim::EngineConfig{.fast_path = fast, .max_span = span});
  CodedConfig cfg = small_config(1, policy);
  cfg.bank_cycle = 2;
  CodedMemory memory(cfg);
  std::optional<sim::FaultInjector> injector;
  if (!plan.empty()) {
    injector.emplace(sim::FaultPlan::parse(plan));
    memory.set_fault_injector(*injector);
  }
  const auto domain = engine.allocate_domain();
  memory.attach(engine, domain);
  CodedStream stream(domain, memory, 0xc0dedULL);
  engine.add(stream);
  engine.run_for(8000);

  CodedStreamRun out;
  out.records = stream.records;
  for (const auto& [k, v] : memory.counters().all()) {
    out.counters.emplace_back(k, v);
  }
  auto blocks = stream.blocks;
  std::sort(blocks.begin(), blocks.end());
  blocks.erase(std::unique(blocks.begin(), blocks.end()), blocks.end());
  for (const auto b : blocks) out.blocks.push_back(memory.peek_block(b));
  return out;
}

// CodedMemory::next_completion_hint must never let a sleeping driver
// harvest late: healthy, with a dead bank served by decode, and after a
// second death makes that bank's words unserviceable (timed-out aborts),
// every fast-path span matches the per-cycle reference exactly.
TEST(CodedFastPath, MatchesPerCycleReferenceHealthyAndFaulted) {
  const std::string kDecode = "bank_dead@1500:module=0,bank=3";
  const std::string kAbort = kDecode + ";bank_dead@5000:module=0,bank=8";
  for (const auto policy :
       {ParityPolicy::ReadModifyWrite, ParityPolicy::Logged}) {
    for (const auto& plan : {std::string(), kDecode, kAbort}) {
      const CodedStreamRun ref = run_coded_stream(policy, plan, false, 1);
      ASSERT_GT(ref.records.size(), 500u) << plan;
      for (const sim::Cycle span : {sim::Cycle{1}, sim::Cycle{7},
                                    sim::Cycle{64}}) {
        EXPECT_EQ(run_coded_stream(policy, plan, true, span), ref)
            << "plan '" << plan << "' span " << span;
      }
    }
  }
}

// --------------------------------------------------------- campaign ----

TEST(CodedCampaign, ScenarioParsesExpandsAndValidates) {
  const char* text = R"({
    "name": "coded_grid",
    "workload": "coded",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500,
               "data_banks": 8, "stripe_width": 4,
               "write_fraction": 0.25},
    "sweep": {"code_rate": [0.5, 0.8], "parity_policy": ["rmw", "logged"],
              "seed": [1, 2]},
    "audit": true,
    "fault_plan": "bank_dead@200:module=0,bank=3"
  })";
  const auto scenario = campaign::Scenario::parse_text(text);
  EXPECT_EQ(scenario.workload(), campaign::WorkloadKind::Coded);
  const auto points = scenario.expand();
  EXPECT_EQ(points.size(), 8u);

  // Unrealizable code_rate for the stripe width fails the expand.
  EXPECT_THROW(campaign::Scenario::parse_text(R"({
    "name": "bad", "workload": "coded",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500,
               "data_banks": 8, "stripe_width": 4, "code_rate": 0.7,
               "parity_policy": "rmw"}})")
                   .expand(),
               std::invalid_argument);
  // parity_policy must be a known name...
  EXPECT_THROW(campaign::Scenario::parse_text(R"({
    "name": "bad", "workload": "coded",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500,
               "data_banks": 8, "stripe_width": 4, "code_rate": 0.8,
               "parity_policy": "raid6"}})")
                   .expand(),
               std::invalid_argument);
  // ...and a string one at that (strings only on the coded workload).
  EXPECT_THROW(campaign::Scenario::parse_text(R"({
    "name": "bad", "workload": "cfm",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500,
               "parity_policy": "rmw"}})"),
               std::invalid_argument);
}

TEST(CodedCampaign, FaultPlanBankBoundsCheckedAtExpand) {
  // 8 data + 2 parity banks = banks [0, 10): bank 10 never exists.
  EXPECT_THROW(campaign::Scenario::parse_text(R"({
    "name": "bad", "workload": "coded",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500,
               "data_banks": 8, "stripe_width": 4, "code_rate": 0.8,
               "parity_policy": "rmw"},
    "fault_plan": "bank_dead@100:module=0,bank=10"})")
                   .expand(),
               std::invalid_argument);
  // The CFM side of the same seam: b = c*n = 4 banks, bank 7 is inert.
  EXPECT_THROW(campaign::Scenario::parse_text(R"({
    "name": "bad", "workload": "cfm",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500},
    "fault_plan": "bank_dead@100:module=0,bank=7"})")
                   .expand(),
               std::invalid_argument);
  // In-range plans still pass on both workloads.
  EXPECT_NO_THROW(campaign::Scenario::parse_text(R"({
    "name": "ok", "workload": "cfm",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 500},
    "fault_plan": "bank_dead@100:module=0,bank=3"})")
                      .expand());
}

TEST(CodedCampaign, RunPointProducesCodedMetrics) {
  const auto scenario = campaign::Scenario::parse_text(R"({
    "name": "one", "workload": "coded",
    "params": {"n": 4, "c": 1, "rate": 0.3, "cycles": 3000,
               "data_banks": 8, "stripe_width": 4, "code_rate": 0.8,
               "parity_policy": "rmw", "write_fraction": 0.25},
    "audit": true,
    "fault_plan": "bank_dead@1000:module=0,bank=2"
  })");
  const auto points = scenario.expand();
  ASSERT_EQ(points.size(), 1u);
  const auto out = campaign::run_point(points[0]);
  const auto& metrics = out.at("metrics");
  EXPECT_GT(metrics.at("completed").as_uint(), 0u);
  EXPECT_EQ(metrics.at("failed").as_uint(), 0u);
  const double decode_rate = metrics.at("decode_rate").as_double();
  EXPECT_GT(decode_rate, 0.0);
  EXPECT_LE(decode_rate, 1.0);
  EXPECT_GE(metrics.at("parity_amplification").as_double(), 0.0);
  EXPECT_LE(metrics.at("decode_fanout_max").as_uint(), 4u);
  EXPECT_EQ(metrics.at("banks_provisioned").as_uint(), 10u);
  EXPECT_EQ(metrics.at("banks_required_cfm").as_uint(), 4u);
  EXPECT_EQ(out.at("audit").at("violations").as_uint(), 0u);
  ASSERT_TRUE(out.at("counters").contains("decode_mismatches"));
  EXPECT_EQ(out.at("counters").at("decode_mismatches").as_uint(), 0u);
}

}  // namespace
