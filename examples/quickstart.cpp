// Quickstart: build a conflict-free memory, issue concurrent block
// accesses, and watch the AT-space schedule keep every processor's access
// at exactly beta cycles — the paper's headline property in ~60 lines.
// Finishes by running the same memory on the tick engine and printing a
// structured experiment report.
//
// Build & run:  cmake -B build -G Ninja && cmake --build build
//               ./build/examples/quickstart
#include <cstdio>
#include <iostream>
#include <vector>

#include "cfm/at_space.hpp"
#include "cfm/cfm_memory.hpp"
#include "sim/engine.hpp"
#include "sim/report.hpp"

using namespace cfm;

int main() {
  // A CFM with 4 processors, bank cycle c = 2 -> 8 banks, beta = 9.
  const auto cfg = core::CfmConfig::make(/*processors=*/4, /*bank_cycle=*/2,
                                         /*word_bits=*/16);
  std::printf("CFM config: n=%u processors, b=%u banks, c=%u, block=%u bytes, "
              "beta=%u cycles\n",
              cfg.processors, cfg.banks, cfg.bank_cycle, cfg.block_bytes(),
              cfg.block_access_time());

  // The Table 3.1 address-path schedule: which processor talks to which
  // bank at each slot of one period.
  core::AtSpace at(cfg);
  std::printf("\nAddress-path connections (Table 3.1 — rows are slots):\n");
  const auto table = at.connection_table();
  std::printf("      ");
  for (std::uint32_t b = 0; b < cfg.banks; ++b) std::printf("  B%u", b);
  std::printf("\n");
  for (std::uint32_t t = 0; t < cfg.banks; ++t) {
    std::printf("slot %u:", t);
    for (std::uint32_t b = 0; b < cfg.banks; ++b) {
      if (table[t][b].has_value()) {
        std::printf("  P%u", *table[t][b]);
      } else {
        std::printf("   .");
      }
    }
    std::printf("\n");
  }

  // All four processors issue block operations at the same instant —
  // to the same module — and each completes in exactly beta cycles.
  core::CfmMemory mem(cfg);
  std::vector<core::CfmMemory::OpToken> ops;
  std::vector<sim::Word> data(cfg.banks);
  for (std::uint32_t w = 0; w < cfg.banks; ++w) data[w] = 100 + w;

  sim::Cycle t = 0;
  ops.push_back(mem.issue(t, 0, core::BlockOpKind::Write, /*offset=*/5, data));
  ops.push_back(mem.issue(t, 1, core::BlockOpKind::Read, /*offset=*/6));
  ops.push_back(mem.issue(t, 2, core::BlockOpKind::Read, /*offset=*/7));
  ops.push_back(mem.issue(t, 3, core::BlockOpKind::Read, /*offset=*/8));

  bool done = false;
  while (!done) {
    mem.tick(t++);
    done = true;
    for (const auto op : ops) {
      if (mem.result(op) == nullptr) done = false;
    }
  }

  std::printf("\nConcurrent block accesses (issued together at slot 0):\n");
  for (std::size_t i = 0; i < ops.size(); ++i) {
    const auto r = mem.take_result(ops[i]);
    std::printf("  processor %zu: %s, %llu cycles, %u restarts\n", i,
                r->status == core::OpStatus::Completed ? "completed" : "?!",
                static_cast<unsigned long long>(r->completed - r->issued),
                r->restarts);
  }
  std::printf("\nNo conflicts, no retries, no arbitration — every access "
              "took exactly beta = %u cycles.\n",
              cfg.block_access_time());

  // Read back what processor 0 wrote.
  const auto block = mem.peek_block(5);
  std::printf("block 5 contents:");
  for (const auto w : block) {
    std::printf(" %llu", static_cast<unsigned long long>(w));
  }
  std::printf("\n");

  // ---- structured reports -------------------------------------------
  //
  // Every bench in bench/ emits one of these via --json-out; here we
  // build a small one by hand: run the memory on the tick engine and
  // capture the result.
  sim::Engine engine;
  core::CfmMemory timed(cfg);
  timed.attach(engine, engine.allocate_domain());

  const auto op = timed.issue(engine.now(), 0, core::BlockOpKind::Read, 5);
  while (timed.result(op) == nullptr) engine.step();
  (void)timed.take_result(op);

  sim::Report report("quickstart");
  report.set_param("processors", cfg.processors);
  report.set_param("beta", cfg.block_access_time());
  report.add_scalar("cycles_run", engine.now());
  report.add_counters("memory", timed.counters());

  std::printf("\nStructured report (the cfm-bench-report/v1 schema every "
              "bench emits with --json-out):\n");
  report.write(std::cout);
  return 0;
}
