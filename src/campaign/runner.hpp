// Executes one expanded campaign grid point.
//
// This is the single machine-construction path benches and campaigns
// share: every workload kind dispatches onto the existing workload entry
// points (measure_instrumented on a CfmMemory or CodedMemory /
// measure_conventional / measure_partial_cfm / replay_on_cfm_instrumented
// / run_lock_farm_* / enumerate_tradeoffs' row arithmetic) rather than
// growing a parallel builder.  run_point is a pure function of the PointSpec — no global
// state, no clocks — so the executor may run many points concurrently on
// independent Engine instances and the result is cacheable by content.
#pragma once

#include "campaign/scenario.hpp"
#include "sim/report.hpp"

namespace cfm::campaign {

/// Runs the point and returns its result document:
///
///   { "metrics":  { ... headline scalars ... },
///     "counters": { ... CounterSet, when the workload exposes one ... },
///     "stats":    { "access_time": {count,mean,...}, ... },
///     "audit":    { "violations": N, "conflicts_detected": N,
///                   "checks": N }        // only when point.audit
///   }
///
/// Deterministic: the same PointSpec always yields the same document.
/// Throws (std::exception) on a faulted run; the executor applies the
/// scenario's bounded retry budget around this call.
[[nodiscard]] sim::Json run_point(const PointSpec& point);

}  // namespace cfm::campaign
