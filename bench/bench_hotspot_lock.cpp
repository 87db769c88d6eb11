// Lock-contention scaling (§4.2.2 / §5.3.2 vs §2.1): throughput and
// fairness of one contended lock as contenders grow, on three machines —
// the CFM swap lock, the CFM cache-protocol lock, and a snoopy bus.
#include <cstdio>

#include "report_main.hpp"
#include "workload/lock_workload.hpp"

int main(int argc, char** argv) {
  using namespace cfm;
  using namespace cfm::workload;
  constexpr cfm::sim::Cycle kCycles = 60000;
  constexpr std::uint32_t kHold = 20;
  const auto opts = bench::parse_options(argc, argv);
  sim::Report report("hotspot_lock");
  report.set_param("hold_cycles", kHold);
  report.set_param("run_cycles", kCycles);
  // The farms draw no random numbers; the seed stays in the report's
  // parameters so reports of earlier builds compare byte for byte.
  report.set_param("seed", 1);

  std::printf("Busy-wait lock scaling (hold = %u cycles, %llu-cycle runs)\n\n",
              kHold, static_cast<unsigned long long>(kCycles));
  std::printf("%-11s | %-26s | %-26s | %-26s\n", "",
              "CFM swap lock (ch.4)", "CFM cached lock (ch.5)",
              "snoopy bus lock");
  std::printf("%-11s | %-12s %-13s | %-12s %-13s | %-12s %-13s\n",
              "contenders", "acq/kcycle", "min/proc", "acq/kcycle", "min/proc",
              "acq/kcycle", "min/proc");
  for (const std::uint32_t n : {2u, 4u, 8u, 16u, 32u}) {
    const auto swap_lock = run_lock_farm_cfm(n, kHold, kCycles);
    const auto cached = run_lock_farm_cached(n, kHold, kCycles);
    const auto bus = run_lock_farm_snoopy(n, kHold, kCycles);
    std::printf("%-11u | %-12.2f %-13.0f | %-12.2f %-13.0f | %-12.2f %-13.0f\n",
                n, swap_lock.throughput, swap_lock.min_per_proc,
                cached.throughput, cached.min_per_proc, bus.throughput,
                bus.min_per_proc);
    auto row = sim::Json::object();
    row["contenders"] = n;
    row["cfm_swap_throughput"] = swap_lock.throughput;
    row["cfm_swap_min_per_proc"] = swap_lock.min_per_proc;
    row["cfm_cached_throughput"] = cached.throughput;
    row["cfm_cached_min_per_proc"] = cached.min_per_proc;
    row["snoopy_throughput"] = bus.throughput;
    row["snoopy_min_per_proc"] = bus.min_per_proc;
    report.add_row("scaling", std::move(row));
  }

  std::printf("\nContention pressure at 16 contenders:\n");
  const auto cfm16 = run_lock_farm_cfm(16, kHold, kCycles);
  const auto cached16 = run_lock_farm_cached(16, kHold, kCycles);
  const auto bus16 = run_lock_farm_snoopy(16, kHold, kCycles);
  std::printf("  CFM swap restarts per acquisition:   %.2f\n",
              cfm16.aux_pressure);
  std::printf("  CFM invalidations per acquisition:   %.2f\n",
              cached16.aux_pressure);
  std::printf("  snoopy bus utilization:              %.0f%%\n",
              100.0 * bus16.aux_pressure);
  report.add_scalar("swap_restarts_per_acq_16", cfm16.aux_pressure);
  report.add_scalar("invalidations_per_acq_16", cached16.aux_pressure);
  report.add_scalar("snoopy_bus_utilization_16", bus16.aux_pressure);
  std::printf("\nShape: CFM throughput holds as contenders grow (waiters\n"
              "spin in their own AT slots / local caches); the snoopy bus\n"
              "saturates — the hot-spot problem the paper eliminates.\n");
  return bench::finish(opts, report);
}
