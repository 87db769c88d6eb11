// Hot-spot spin-lock shoot-out (§2.1, §4.2.2, §5.3.2).
//
// N processors hammer one lock.  Three machines:
//   1. a buffered multistage network fed the same traffic (the
//      Ultracomputer/RP3 situation): tree saturation punishes *bystander*
//      traffic as the hot fraction grows (Fig 2.1);
//   2. a snoopy bus: every contender's retry is a bus transaction — the
//      bus queue is the hot spot;
//   3. the CFM: waiters spin in their own AT-space slots (swap-based) or
//      in their local caches (protocol-based); no hot spot can exist.
#include <cstdio>

#include "workload/lock_workload.hpp"

using namespace cfm::workload;

int main() {
  std::printf("=== Tree saturation on a buffered omega (Fig 2.1) ===\n");
  std::printf("%-14s %-18s %-16s %-14s\n", "hot fraction", "background lat",
              "saturated queues", "reject rate");
  for (const double hot : {0.0, 0.1, 0.2, 0.4, 0.6}) {
    const auto r = run_hotspot_buffered(16, 0.35, hot, 2, 20000, 7);
    std::printf("%-14.2f %-18.2f %-16.3f %-14.3f\n", hot,
                r.background_latency, r.saturated_queues, r.reject_rate);
  }

  std::printf("\n=== Lock contention: throughput under N contenders ===\n");
  std::printf("(hold = 20 cycles per critical section, 40k-cycle runs)\n");
  std::printf("%-12s %-22s %-22s %-22s\n", "contenders", "CFM swap (acq/kcyc)",
              "CFM cached (acq/kcyc)", "snoopy bus (acq/kcyc)");
  for (const std::uint32_t n : {2u, 4u, 8u, 16u}) {
    const auto cfm = run_lock_farm_cfm(n, 20, 40000);
    const auto cached = run_lock_farm_cached(n, 20, 40000);
    const auto bus = run_lock_farm_snoopy(n, 20, 40000);
    std::printf("%-12u %-22.2f %-22.2f %-22.2f\n", n, cfm.throughput,
                cached.throughput, bus.throughput);
  }

  std::printf("\n=== Where the contention lives ===\n");
  const auto bus = run_lock_farm_snoopy(16, 20, 40000);
  const auto cached = run_lock_farm_cached(16, 20, 40000);
  std::printf("snoopy bus utilization at 16 contenders: %.0f%%\n",
              100.0 * bus.aux_pressure);
  std::printf("CFM invalidations per lock hand-off:     %.1f\n",
              cached.aux_pressure);
  std::printf("\nThe CFM numbers stay flat because read-looping waiters\n"
              "touch only their own AT-space slots / local caches — the\n"
              "hot-spot problem \"can never occur\" (§4.2.2).\n");
  return 0;
}
