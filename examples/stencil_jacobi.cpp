// A realistic shared-memory workload: red-black Gauss–Seidel relaxation
// on an N x N grid, strip-partitioned across processors — the kind of
// high-demand scientific computation the paper's introduction motivates.
//
// Each grid row is one memory block.  Every sweep, a processor updates
// its own rows (stores) after reading the neighbouring boundary rows
// (loads) — so boundary blocks ping-pong between owners, exercising the
// whole coherence protocol: fills, ownership transfers, triggered
// write-backs, invalidations.  The same access stream is replayed on the
// CFM cache protocol and on the snoopy bus, cycle for cycle.
#include <cstdio>
#include <vector>

#include "cache/cfm_protocol.hpp"
#include "cache/snoopy.hpp"

using namespace cfm;
using sim::Cycle;

namespace {

constexpr std::uint32_t kProcs = 8;
constexpr std::uint32_t kRows = 64;   // one block per row
constexpr int kSweeps = 6;

/// One processor's access script for a sweep: read the boundary rows of
/// the neighbouring strips, then store to every row it owns.
struct Script {
  struct Step {
    bool is_store = false;
    std::uint64_t row = 0;
  };
  std::vector<Step> steps;
};

std::vector<Script> build_scripts(int parity) {
  std::vector<Script> scripts(kProcs);
  const std::uint32_t strip = kRows / kProcs;
  for (std::uint32_t p = 0; p < kProcs; ++p) {
    auto& sc = scripts[p];
    const std::uint32_t lo = p * strip;
    const std::uint32_t hi = lo + strip;
    if (lo > 0) sc.steps.push_back({false, lo - 1});      // upper boundary
    if (hi < kRows) sc.steps.push_back({false, hi});      // lower boundary
    for (std::uint32_t r = lo; r < hi; ++r) {
      if (static_cast<int>(r) % 2 == parity) sc.steps.push_back({true, r});
    }
  }
  return scripts;
}

/// Drives the scripts to completion on any system with the common
/// load/store/take_result/processor_idle API; returns total cycles.
template <typename Sys>
Cycle run_sweeps(Sys& sys) {
  Cycle t = 0;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    const auto scripts = build_scripts(sweep % 2);
    std::vector<std::size_t> pos(kProcs, 0);
    std::vector<std::uint64_t> pending(kProcs, 0);
    bool all_done = false;
    while (!all_done) {
      all_done = true;
      for (std::uint32_t p = 0; p < kProcs; ++p) {
        if (pending[p] != 0) {
          if (sys.take_result(pending[p])) pending[p] = 0;
        }
        if (pending[p] == 0 && pos[p] < scripts[p].steps.size() &&
            sys.processor_idle(p)) {
          const auto& step = scripts[p].steps[pos[p]++];
          pending[p] = step.is_store
                           ? sys.store(t, p, step.row, 0, t)
                           : sys.load(t, p, step.row);
        }
        if (pending[p] != 0 || pos[p] < scripts[p].steps.size()) {
          all_done = false;
        }
      }
      sys.tick(t);
      ++t;
    }
  }
  return t;
}

}  // namespace

int main() {
  std::printf("Red-black stencil sweep: %u x %u grid, %u processors, "
              "%d sweeps, one block per row\n\n",
              kRows, kRows, kProcs, kSweeps);

  cache::CfmCacheSystem::Params cp;
  cp.mem = core::CfmConfig::make(kProcs, 1);
  cp.cache_lines = 128;
  cache::CfmCacheSystem cfm_sys(cp);
  const auto cfm_cycles = run_sweeps(cfm_sys);

  cache::SnoopyBus::Params sp;
  sp.processors = kProcs;
  sp.cache_lines = 128;
  sp.block_words = kProcs;
  sp.block_cycles = kProcs;  // block transfer occupies b bus cycles
  cache::SnoopyBus bus_sys(sp);
  const auto bus_cycles = run_sweeps(bus_sys);

  std::printf("%-26s %-12s %-12s\n", "", "CFM protocol", "snoopy bus");
  std::printf("%-26s %-12llu %-12llu\n", "total cycles",
              static_cast<unsigned long long>(cfm_cycles),
              static_cast<unsigned long long>(bus_cycles));
  std::printf("%-26s %-12llu %-12llu\n", "invalidations",
              static_cast<unsigned long long>(
                  cfm_sys.counters().get("invalidations")),
              static_cast<unsigned long long>(
                  bus_sys.counters().get("invalidations")));
  std::printf("%-26s %-12llu %-12s\n", "triggered write-backs",
              static_cast<unsigned long long>(
                  cfm_sys.counters().get("remote_wbs_served")),
              "(snoop flush)");
  std::printf("%-26s %-12s %-12llu\n", "bus busy cycles", "-",
              static_cast<unsigned long long>(bus_sys.bus_busy()));
  std::printf("%-26s %-12s %-11.0f%%\n", "bus utilization", "-",
              100.0 * static_cast<double>(bus_sys.bus_busy()) /
                  static_cast<double>(bus_cycles));
  std::printf("\ncoherence sanity: single dirty owner on CFM: %s\n",
              cfm_sys.check_single_dirty_owner() ? "yes" : "VIOLATED");
  std::printf("\nInterior rows stay cached and dirty at their owner across\n"
              "sweeps (write hits, zero traffic); only the strip boundaries\n"
              "move — and on the CFM they move through conflict-free bank\n"
              "tours instead of a serializing bus.\n");
  return 0;
}
