// Lock-contention and hot-spot workloads (§2.1 motivation, §4.2.2 / §5.3.2
// results).
//
//  * `run_hotspot_buffered` drives a buffered omega network with uniform
//    background traffic plus a configurable hot-spot fraction aimed at one
//    sink, and reports what tree saturation does to *unrelated* traffic
//    (Fig 2.1).
//  * `run_lock_farm_*` run N contenders hammering one lock and report
//    throughput, fairness and memory traffic for: the CFM swap-based
//    busy-wait lock (§4.2.2), the CFM cache-protocol lock (Fig 5.4), and
//    the snoopy-bus lock (the baseline whose bus is the hot spot).
#pragma once

#include <cstdint>

#include "sim/audit.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::workload {

struct HotSpotResult {
  double hot_fraction = 0.0;
  double offered_rate = 0.0;       ///< per-processor injection probability
  double background_latency = 0.0; ///< mean delivery latency, non-hot traffic
  double hot_latency = 0.0;
  double saturated_queues = 0.0;   ///< mean fraction of full switch queues
  double reject_rate = 0.0;        ///< injections refused (source back-pressure)
  std::uint64_t delivered = 0;
  std::uint64_t combined = 0;      ///< requests absorbed by switch combining
};

/// `combining` enables Ultracomputer/RP3 fetch-and-add combining at the
/// switches (§2.1.1) for the hot traffic.  A non-null `auditor` watches
/// the buffered omega as a Contended scope: every rejected injection is
/// tallied under conflicts_detected() — the Fig 2.1 negative control.
[[nodiscard]] HotSpotResult run_hotspot_buffered(
    std::uint32_t ports, double rate, double hot_fraction,
    std::uint32_t queue_capacity, sim::Cycle cycles, std::uint64_t seed,
    bool combining = false, sim::ConflictAuditor* auditor = nullptr);

struct LockFarmResult {
  std::uint64_t total_acquisitions = 0;
  double throughput = 0.0;          ///< acquisitions per 1000 cycles
  double mean_acquire_latency = 0.0;
  double mean_transfer_cycles = 0.0;  ///< cycles per ownership hand-off
  double min_per_proc = 0.0;        ///< fairness: fewest acquisitions
  double max_per_proc = 0.0;
  double aux_pressure = 0.0;        ///< protocol-specific contention metric
};

// The three lock farms draw no random numbers: each contender spins on
// one lock with a fixed hold, so a farm's result is a function of its
// arguments alone, and they take no seed.

/// CFM swap-based busy-wait lock straight on CfmMemory (§4.2.2).
[[nodiscard]] LockFarmResult run_lock_farm_cfm(std::uint32_t contenders,
                                               std::uint32_t hold_cycles,
                                               sim::Cycle cycles);

/// CFM cache-protocol lock (Fig 5.4).  aux_pressure = invalidations per
/// acquisition.
[[nodiscard]] LockFarmResult run_lock_farm_cached(std::uint32_t contenders,
                                                  std::uint32_t hold_cycles,
                                                  sim::Cycle cycles);

/// Snoopy-bus lock baseline.  aux_pressure = bus utilization in [0, 1].
[[nodiscard]] LockFarmResult run_lock_farm_snoopy(std::uint32_t contenders,
                                                  std::uint32_t hold_cycles,
                                                  sim::Cycle cycles);

}  // namespace cfm::workload
