// CFM-as-a-service: an open-loop serving front end over CfmMemory
// (DESIGN.md §13).
//
// `Server` owns one conflict-free memory module, a tick engine (fast path
// or per-cycle reference — results are bit-exact either way), and a
// core::PortDriver fed by an `AdmissionQueue` that turns a request stream
// into engine ticks:
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
//              with jittered backoff up to core::kMaxRetries: the port
//              discipline is the same PortDriver the closed-loop
//              experiments run;
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
#include "cfm/port_driver.hpp"
#include "serve/arrival.hpp"
#include "serve/protocol.hpp"
#include "sim/audit.hpp"
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

/// Aggregated serving statistics (read between runs).
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

/// The serving request source of core::PortDriver: submitted requests
/// wait for their arrival cycle, are admitted into (or shed at) the
/// bounded queue, and go to the ports in queue order.  Owns the serving
/// statistics the port driver does not (admission, SLO, locks, the
/// latency histograms).  Single-writer in the memory's tick domain.
class AdmissionQueue {
 public:
  struct Request {
    serve::Request req;
    sim::Cycle arrival = 0;
  };

  AdmissionQueue(sim::Cycle slo, std::size_t queue_depth,
                 double hist_bucket_width, std::size_t hist_buckets);

  /// Enqueues a request that arrives at `arrival` (clamped to >= any
  /// previous arrival).  Call between runs only.
  void submit(const serve::Request& req, sim::Cycle arrival);

  /// The core::PortDriver source hooks (cfm/port_driver.hpp).
  void admit(sim::Cycle now);
  bool next(core::CfmMemory& mem, sim::Cycle now, std::uint32_t port,
            Request& out, sim::Rng& rng);
  core::CfmMemory::OpToken issue(core::CfmMemory& mem, sim::Cycle now,
                                 std::uint32_t port, const Request& r);
  void resolved(const Request& r, const core::BlockOpResult& result);
  [[nodiscard]] sim::Cycle wake() const noexcept;
  static constexpr bool kIdlePortsPoll = false;

  /// Admission, SLO and lock counters plus queue_wait; completed, failed,
  /// retried and latency come from the port driver.
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
  /// Submitted requests whose arrival cycle is still ahead.
  [[nodiscard]] std::size_t future() const noexcept {
    return arrivals_.size();
  }
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

 private:
  sim::Cycle slo_;
  std::size_t queue_depth_;
  std::deque<Request> arrivals_;  ///< submitted, arrival cycle in future
  std::deque<Request> queue_;     ///< admitted, waiting for a port
  sim::Cycle last_arrival_ = 0;
  sim::Cycle last_resolved_ = 0;
  ServeStats stats_;
  sim::Histogram latency_hist_;
  sim::Log2Histogram latency_log2_;
  std::vector<sim::Word> payload_;  ///< issue()'s write-payload scratch
};

/// The long-running front end: engine + memory + driver + arrival clock,
/// plus optional fault injection and conflict auditing.
class Server {
 public:
  explicit Server(const ServeOptions& options);

  [[nodiscard]] const ServeOptions& options() const noexcept { return opts_; }
  [[nodiscard]] sim::Cycle now() const noexcept { return engine_->now(); }
  [[nodiscard]] ServeStats stats() const;
  /// Requests not yet resolved: waiting to arrive, queued, or in flight.
  [[nodiscard]] std::uint64_t outstanding() const noexcept;
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
  using Driver = core::PortDriver<core::CfmMemory, AdmissionQueue>;

  /// Registers the serving counters, gauges and latency sketch, then the
  /// memory's.  The in_service gauge counts arrived-but-unresolved
  /// requests (queued or on a port): unlike outstanding() it excludes
  /// submitted-but-future arrivals, whose count reflects the operator's
  /// feeding cadence rather than simulated state.
  void register_telemetry();

  std::unique_ptr<Driver> driver_;
  std::unique_ptr<sim::TelemetrySampler> telemetry_;
  ArrivalProcess arrivals_;
};

}  // namespace cfm::serve
