// CFM-as-a-service: an open-loop serving front end over CfmMemory
// (DESIGN.md §13).
//
// `Server` owns one conflict-free memory module, a tick engine (fast path
// or per-cycle reference — results are bit-exact either way), and a
// `ServeDriver` component that turns a request stream into engine ticks:
//
//   arrivals   requests are stamped with arrival cycles by an open-loop
//              ArrivalProcess — load does not slow down because service
//              does;
//   admission  a bounded queue between arrival and issue.  When a request
//              arrives to a full queue it is shed deterministically (the
//              newest request is rejected and counted) — under overload
//              the server degrades by refusing work, never by growing an
//              unbounded backlog;
//   service    each of the c processor ports serves one request at a time
//              through CfmMemory::issue; Lock requests ride the atomic
//              Swap (test-and-set on word 0).  Faulted operations retry
//              with jittered backoff up to kMaxRetries, exactly like the
//              closed-loop AccessDriver;
//   reporting  per-request latency (arrival -> completion, so queue wait
//              counts) lands in a sim::Histogram for p50/p95/p99/p99.9,
//              plus SLO attainment and offered-vs-accepted throughput,
//              emitted as a `cfm-serve-report/v1` document.
//
// The driver lives in the memory's tick domain and publishes quiescence
// hints (earliest of: next arrival, earliest retry slot, the memory's
// completion bound), so the PR 6 fast path skips inter-arrival gaps
// wholesale.  Reports deliberately exclude execution provenance (span,
// wall time): a fixed (requests, options, seed) triple must produce a
// byte-identical report on any engine configuration.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cfm/cfm_memory.hpp"
#include "serve/arrival.hpp"
#include "serve/protocol.hpp"
#include "sim/audit.hpp"
#include "sim/component.hpp"
#include "sim/engine.hpp"
#include "sim/fault.hpp"
#include "sim/report.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/telemetry.hpp"
#include "sim/types.hpp"

namespace cfm::serve {

struct ServeOptions {
  std::uint32_t processors = 16;  ///< c (service ports); b = c * n banks
  std::uint32_t bank_cycle = 2;   ///< n
  ArrivalConfig arrival{};
  std::uint64_t seed = 1;
  /// Latency SLO in cycles (arrival -> completion); 0 = 4 * beta.
  sim::Cycle slo = 0;
  /// Admission-queue bound; 0 = 4 * processors.
  std::size_t queue_depth = 0;
  /// Must be 1: the simulation runs on one serial engine.  Any other
  /// value makes Server throw std::invalid_argument.
  unsigned threads = 1;
  /// Extra cycles past the last arrival before drain() gives up and
  /// reports the remainder as unfinished; 0 = a generous bounded default.
  sim::Cycle drain_limit = 0;
  /// Fault schedule (sim::FaultPlan grammar), empty = clean machine.
  std::string fault_plan;
  std::uint32_t spare_banks = 1;
  bool audit = false;
  /// Time-series telemetry (the flight recorder, DESIGN.md §14).  The
  /// sampler rides the quiescence-hint fast path, so the cost of leaving
  /// it on is one sample per window.
  bool telemetry = true;
  /// Sampling window W in cycles; 0 = 8 * beta.
  sim::Cycle telemetry_window = 0;
  /// Flight-recorder record bound before deterministic downsampling;
  /// 0 = sim::TelemetrySampler::kDefaultCapacity.
  std::size_t telemetry_capacity = 0;
};

/// Aggregated serving statistics, owned by the driver (single-writer in
/// its tick domain, read between runs).
struct ServeStats {
  std::uint64_t offered = 0;    ///< requests that reached admission
  std::uint64_t accepted = 0;   ///< admitted into the queue
  std::uint64_t rejected = 0;   ///< shed at a full queue
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;     ///< exhausted the fault-retry budget
  std::uint64_t retried = 0;    ///< retry events (fault path)
  std::uint64_t within_slo = 0; ///< completed with latency <= slo
  std::uint64_t lock_acquired = 0;  ///< lock requests that won the word
  std::uint64_t lock_busy = 0;      ///< lock requests that found it held
  sim::RunningStat latency;     ///< arrival -> completion, cycles
  sim::RunningStat queue_wait;  ///< arrival -> first issue, cycles
};

/// The serving component: admission, issue, harvest, retry.  Public only
/// for tests; use Server.
class ServeDriver final : public sim::Component {
 public:
  ServeDriver(std::string name, sim::DomainId domain,
              core::CfmMemory& memory, sim::Cycle slo,
              std::size_t queue_depth, double hist_bucket_width,
              std::size_t hist_buckets, std::uint64_t seed);

  void tick_phase(sim::Phase phase, sim::Cycle now) override;

  /// Enqueues a request that arrives at `arrival` (>= any previous
  /// arrival).  Call between runs only.
  void submit(const Request& req, sim::Cycle arrival);

  [[nodiscard]] const ServeStats& stats() const noexcept { return stats_; }
  [[nodiscard]] const sim::Histogram& latency_histogram() const noexcept {
    return latency_hist_;
  }
  /// Compact cumulative latency sketch for telemetry window deltas.
  [[nodiscard]] const sim::Log2Histogram& latency_log2() const noexcept {
    return latency_log2_;
  }
  /// Requests admitted but not yet issued (the queue-depth gauge).
  [[nodiscard]] std::size_t queued() const noexcept { return queue_.size(); }
  /// Arrived-but-unresolved requests: queued or occupying a port.  Unlike
  /// outstanding() this excludes submitted-but-future arrivals, whose
  /// count reflects operator feeding cadence rather than simulated state
  /// — telemetry gauges must never observe the former.
  [[nodiscard]] std::uint64_t in_service() const noexcept;
  /// Ports with an operation in flight (the utilization gauge).
  [[nodiscard]] std::uint32_t busy_ports() const noexcept {
    std::uint32_t n = 0;
    for (const auto& slot : slots_) {
      if (slot.op != core::CfmMemory::kNoOp) ++n;
    }
    return n;
  }
  /// Registers this driver's serving counters, gauges and latency sketch
  /// with a telemetry sampler (names: offered/accepted/rejected/...,
  /// queue_depth/ports_busy/in_service/utilization, "latency").
  void register_telemetry(sim::TelemetrySampler& sampler) const;
  /// Requests not yet resolved: waiting to arrive, queued, or in flight.
  [[nodiscard]] std::uint64_t outstanding() const noexcept;
  [[nodiscard]] sim::Cycle last_arrival() const noexcept {
    return last_arrival_;
  }
  /// Cycle of the latest resolved request (completion, abort-failure, or
  /// shed).  A pure function of the served stream — unlike the engine
  /// clock, which depends on how the caller paced run()/drain() — so the
  /// report derives its serving horizon from this.
  [[nodiscard]] sim::Cycle last_resolved() const noexcept {
    return last_resolved_;
  }
  [[nodiscard]] sim::Cycle slo() const noexcept { return slo_; }
  [[nodiscard]] std::size_t queue_depth() const noexcept {
    return queue_depth_;
  }

  /// Fault-retry bound, matching workload::AccessDriver.
  static constexpr std::uint32_t kMaxRetries = 8;

 private:
  struct Pending {
    Request req;
    sim::Cycle arrival = 0;
  };
  struct Slot {
    core::CfmMemory::OpToken op = core::CfmMemory::kNoOp;
    Request req;
    sim::Cycle arrival = 0;
    sim::Cycle issued = 0;
    std::uint32_t retries = 0;
    bool pending_retry = false;
    sim::Cycle retry_at = 0;
  };

  void harvest(sim::Cycle now);
  void admit(sim::Cycle now);
  void issue_ready(sim::Cycle now);
  void start(sim::Cycle now, std::uint32_t p);
  void publish_wake(sim::Cycle now);

  core::CfmMemory& mem_;
  sim::Cycle slo_;
  std::size_t queue_depth_;
  sim::Rng rng_;  ///< retry-backoff jitter only (event-driven draws)
  std::deque<Pending> arrivals_;  ///< submitted, arrival cycle in future
  std::deque<Pending> queue_;     ///< admitted, waiting for a port
  std::vector<Slot> slots_;       ///< one per processor port
  sim::Cycle last_arrival_ = 0;
  sim::Cycle last_resolved_ = 0;
  ServeStats stats_;
  sim::Histogram latency_hist_;
  sim::Log2Histogram latency_log2_;
};

/// The long-running front end: engine + memory + driver + arrival clock,
/// plus optional fault injection and conflict auditing.
class Server {
 public:
  explicit Server(const ServeOptions& options);

  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
  [[nodiscard]] sim::Cycle now() const noexcept { return engine_->now(); }
  [[nodiscard]] const ServeStats& stats() const noexcept {
    return driver_->stats();
  }
  [[nodiscard]] std::uint64_t outstanding() const noexcept {
    return driver_->outstanding();
  }
  [[nodiscard]] const sim::ConflictAuditor* auditor() const noexcept {
    return audit_ ? &*audit_ : nullptr;
  }
  /// The flight recorder, or nullptr when telemetry is disabled.
  [[nodiscard]] const sim::TelemetrySampler* telemetry() const noexcept {
    return telemetry_.get();
  }
  /// Current-window snapshot (the `.stats` view); null Json when
  /// telemetry is disabled.
  [[nodiscard]] sim::Json live_stats_json() const;
  /// Prometheus text exposition at the current cycle; empty when
  /// telemetry is disabled.
  [[nodiscard]] std::string prometheus_text() const;
  [[nodiscard]] sim::Cycle beta() const noexcept;

  /// Submits one request / a batch; arrival cycles come from the
  /// configured open-loop process (clamped to "now" so interactively fed
  /// requests never arrive in the past).
  void submit(const Request& request);
  void submit(const std::vector<Request>& requests);

  /// Advances the engine (fast path active: inter-arrival gaps are
  /// skipped, not simulated).
  void run(sim::Cycle cycles);

  /// Runs until every submitted request is resolved (completed, failed,
  /// or shed) or the bounded drain window closes.  Returns true iff fully
  /// drained; leftovers are reported as `unfinished`.
  bool drain();

  /// The cfm-serve-report/v1 document for everything served so far.
  [[nodiscard]] sim::Json report_json() const;

  static constexpr const char* kSchema = "cfm-serve-report/v1";

 private:
  ServeOptions opts_;
  sim::FaultPlan fault_plan_;
  std::optional<sim::FaultInjector> injector_;
  std::optional<sim::ConflictAuditor> audit_;
  std::unique_ptr<sim::Engine> engine_;
  std::unique_ptr<core::CfmMemory> memory_;
  std::unique_ptr<ServeDriver> driver_;
  std::unique_ptr<sim::TelemetrySampler> telemetry_;
  ArrivalProcess arrivals_;
};

}  // namespace cfm::serve
