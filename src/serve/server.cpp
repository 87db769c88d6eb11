#include "serve/server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

namespace cfm::serve {

namespace {

/// Engine advance granularity for drain(): coarse enough that the fast
/// path amortizes spans and clock jumps, fine enough that drain stops
/// promptly once the last request resolves.  A fixed constant so the
/// final engine clock — and therefore the report — is identical across
/// engine configurations.
constexpr sim::Cycle kDrainChunk = 4096;

/// Fills `out` with the block's write payload, reusing its capacity.
void write_payload(sim::BlockAddr block, std::uint32_t words,
                   std::vector<sim::Word>& out) {
  out.resize(words);
  for (std::uint32_t j = 0; j < words; ++j) {
    out[j] = (block * 0x9e3779b97f4a7c15ULL) ^ j;
  }
}

}  // namespace

// ------------------------------------------------------- AdmissionQueue --

AdmissionQueue::AdmissionQueue(sim::Cycle slo, std::size_t queue_depth,
                               double hist_bucket_width,
                               std::size_t hist_buckets)
    : slo_(slo),
      queue_depth_(queue_depth),
      latency_hist_(hist_bucket_width, hist_buckets) {
  if (queue_depth_ == 0) {
    throw std::invalid_argument("serve: queue depth must be > 0");
  }
}

void AdmissionQueue::submit(const serve::Request& req, sim::Cycle arrival) {
  arrival = std::max(arrival, last_arrival_);
  arrivals_.push_back(Request{req, arrival});
  last_arrival_ = arrival;
}

void AdmissionQueue::admit(sim::Cycle now) {
  while (!arrivals_.empty() && arrivals_.front().arrival <= now) {
    ++stats_.offered;
    if (queue_.size() < queue_depth_) {
      queue_.push_back(arrivals_.front());
      ++stats_.accepted;
    } else {
      // Deterministic shedding: the arriving request is refused; queued
      // work is never evicted (oldest-accepted wins).
      ++stats_.rejected;
      last_resolved_ = std::max(last_resolved_, arrivals_.front().arrival);
    }
    arrivals_.pop_front();
  }
}

bool AdmissionQueue::next(core::CfmMemory&, sim::Cycle now, std::uint32_t,
                          Request& out, sim::Rng&) {
  if (queue_.empty()) return false;
  out = queue_.front();
  queue_.pop_front();
  stats_.queue_wait.add(static_cast<double>(now - out.arrival));
  return true;
}

core::CfmMemory::OpToken AdmissionQueue::issue(core::CfmMemory& mem,
                                               sim::Cycle now,
                                               std::uint32_t port,
                                               const Request& r) {
  const auto block = r.req.block;
  switch (r.req.kind) {
    case RequestKind::Read:
      return mem.issue(now, port, core::BlockOpKind::Read, block);
    case RequestKind::Write:
      write_payload(block, mem.block_words(), payload_);
      return mem.issue(now, port, core::BlockOpKind::Write, block, payload_);
    case RequestKind::Swap:
      // Fetch-and-increment on word 0 — the canonical atomic counter.
      return mem.issue(now, port, core::BlockOpKind::Swap, block, {},
                       [](const std::vector<sim::Word>& read) {
                         auto out = read;
                         if (!out.empty()) ++out[0];
                         return out;
                       });
    case RequestKind::Lock:
      // Test-and-set on word 0 via the atomic swap (§4.2.2).
      return mem.issue(now, port, core::BlockOpKind::Swap, block, {},
                       [](const std::vector<sim::Word>& read) {
                         auto out = read;
                         if (!out.empty()) out[0] = 1;
                         return out;
                       });
  }
  throw std::logic_error("serve: unknown request kind");
}

void AdmissionQueue::resolved(const Request& r,
                              const core::BlockOpResult& result) {
  last_resolved_ = std::max(last_resolved_, result.completed);
  if (result.status != core::OpStatus::Completed) return;
  const auto latency = static_cast<double>(result.completed - r.arrival);
  latency_hist_.add(latency);
  latency_log2_.add(latency);
  if (result.completed - r.arrival <= slo_) ++stats_.within_slo;
  if (r.req.kind == RequestKind::Lock) {
    // The swap's data is the pre-image: word 0 == 0 means the
    // test-and-set won the lock.
    if (!result.data.empty() && result.data[0] == 0) {
      ++stats_.lock_acquired;
    } else {
      ++stats_.lock_busy;
    }
  }
}

sim::Cycle AdmissionQueue::wake() const noexcept {
  // A non-empty queue with every port busy resolves via completions; the
  // memory's hint covers that.  A non-empty queue with a free port cannot
  // survive the issue pass, so the next arrival is the only wake source.
  return arrivals_.empty() ? sim::kNeverCycle : arrivals_.front().arrival;
}

// ---------------------------------------------------------------- Server --

Server::Server(const ServeOptions& options)
    : opts_(options),
      arrivals_(options.arrival,
                sim::Rng(options.seed).split()()) {
  if (opts_.processors == 0) {
    throw std::invalid_argument("serve: processors must be > 0");
  }
  if (opts_.bank_cycle == 0) {
    throw std::invalid_argument("serve: bank_cycle must be > 0");
  }
  if (opts_.threads != 1) {
    throw std::invalid_argument("serve: threads = " +
                                std::to_string(opts_.threads) +
                                " is not supported; the engine is serial, "
                                "so threads must be 1");
  }
  const auto cfg =
      core::CfmConfig::make(opts_.processors, opts_.bank_cycle);
  const auto beta_cycles = cfg.block_access_time();
  if (opts_.slo == 0) opts_.slo = 4 * beta_cycles;
  if (opts_.queue_depth == 0) opts_.queue_depth = 4 * opts_.processors;
  if (opts_.drain_limit == 0) {
    // Bounded by construction: every admitted request resolves within a
    // bounded number of fault windows (kMaxRetries x the memory's 8-beta
    // watchdog), and the bounded queue caps the backlog.
    opts_.drain_limit =
        beta_cycles * (512 + 8 * static_cast<sim::Cycle>(opts_.queue_depth));
  }

  engine_ = std::make_unique<sim::Engine>();
  memory_ = std::make_unique<core::CfmMemory>(cfg);
  if (!opts_.fault_plan.empty()) {
    fault_plan_ = sim::FaultPlan::parse(opts_.fault_plan);
    fault_plan_.validate_single_module(cfg.banks,
                                       "serve memory (b = c*n banks)");
    injector_.emplace(fault_plan_, opts_.seed ^ 0x5e47eULL);
  }
  if (opts_.audit) {
    audit_.emplace();
    memory_->set_audit(*audit_);
  }
  if (injector_) {
    memory_->set_fault_injector(*injector_, opts_.spare_banks);
  }
  const auto domain = engine_->allocate_domain();
  memory_->attach(*engine_, domain);
  driver_ = std::make_unique<Driver>(
      "serve.driver", domain, *memory_, opts_.seed ^ 0xd21f3ULL, opts_.slo,
      opts_.queue_depth,
      /*hist_bucket_width=*/std::max<double>(1.0, beta_cycles / 8.0),
      /*hist_buckets=*/2048);
  engine_->add(*driver_);

  if (opts_.telemetry) {
    if (opts_.telemetry_window == 0) opts_.telemetry_window = 8 * beta_cycles;
    telemetry_ = std::make_unique<sim::TelemetrySampler>(
        "serve.telemetry", opts_.telemetry_window,
        opts_.telemetry_capacity != 0
            ? opts_.telemetry_capacity
            : sim::TelemetrySampler::kDefaultCapacity);
    register_telemetry();
    engine_->add(*telemetry_);
  }
}

void Server::register_telemetry() {
  // Registration order fixes the series' column order; the recovery/
  // anomaly configs in report_json refer to these names.
  const Driver* d = driver_.get();
  const AdmissionQueue* q = &d->source();
  auto& t = *telemetry_;
  t.add_counter("offered", [q] { return q->stats().offered; });
  t.add_counter("accepted", [q] { return q->stats().accepted; });
  t.add_counter("rejected", [q] { return q->stats().rejected; });
  t.add_counter("completed", [d] { return d->completed(); });
  t.add_counter("failed", [d] { return d->failed(); });
  t.add_counter("retried", [d] { return d->retried(); });
  t.add_counter("slo_within", [q] { return q->stats().within_slo; });
  t.add_gauge("queue_depth", [q](sim::Cycle) {
    return static_cast<double>(q->queued());
  });
  t.add_gauge("ports_busy", [d](sim::Cycle) {
    return static_cast<double>(d->busy_ports());
  });
  t.add_gauge("in_service", [d, q](sim::Cycle) {
    return static_cast<double>(q->queued() + d->in_flight());
  });
  t.add_gauge("utilization", [d, ports = opts_.processors](sim::Cycle) {
    return static_cast<double>(d->busy_ports()) / static_cast<double>(ports);
  });
  t.add_histogram("latency", &q->latency_log2());
  const auto* mem = memory_.get();
  for (const char* name :
       {"ops_completed", "fault_restarts", "bank_failures", "bank_remaps",
        "brownouts", "fault_aborts", "fault_timeouts"}) {
    // A counter this memory never interns reads 0 for the whole run.
    const auto id = mem->counters().find(name);
    t.add_counter(std::string("mem.") + name, [mem, id] {
      return id ? mem->counters().get(*id) : 0;
    });
  }
  t.add_gauge("live_banks", [mem](sim::Cycle) {
    return static_cast<double>(mem->live_banks());
  });
  if (injector_) {
    const auto* inj = &*injector_;
    t.add_gauge("active_faults", [inj](sim::Cycle now) {
      return static_cast<double>(inj->active_count(now));
    });
  }
}

ServeStats Server::stats() const {
  ServeStats st = driver_->source().stats();
  st.completed = driver_->completed();
  st.failed = driver_->failed();
  st.retried = driver_->retried();
  st.latency = driver_->latency();
  return st;
}

std::uint64_t Server::outstanding() const noexcept {
  const auto& queue = driver_->source();
  return queue.future() + queue.queued() + driver_->in_flight();
}

sim::Cycle Server::beta() const noexcept {
  return memory_->config().block_access_time();
}

void Server::submit(const Request& request) {
  // Interactively fed requests must not arrive in the past: the open-loop
  // clock advances, but never behind the engine.
  driver_->source().submit(request,
                           std::max(arrivals_.next(), engine_->now()));
  // A quiescent driver just gained future work; the next tick recomputes
  // the precise wake cycle.
  driver_->set_next_event(sim::Component::kAlways);
}

void Server::submit(const std::vector<Request>& requests) {
  for (const auto& req : requests) submit(req);
}

void Server::run(sim::Cycle cycles) { engine_->run_for(cycles); }

bool Server::drain() {
  const sim::Cycle cap =
      driver_->source().last_arrival() + opts_.drain_limit;
  while (outstanding() != 0 && engine_->now() < cap) {
    engine_->run_for(std::min(kDrainChunk, cap - engine_->now()));
  }
  return outstanding() == 0;
}

sim::Json Server::report_json() const {
  using sim::Json;
  const ServeStats st = stats();
  const auto& queue = driver_->source();
  // Serving horizon: through the last resolved request / last arrival,
  // not the engine clock — the clock depends on how run()/drain() were
  // paced, and a re-fed stream must reproduce the original report.
  const auto cycles = std::max(queue.last_resolved(), queue.last_arrival());
  const auto beta_cycles = beta();

  Json params = Json::object();
  params["processors"] = opts_.processors;
  params["bank_cycle"] = opts_.bank_cycle;
  params["banks"] = memory_->config().banks;
  params["beta"] = beta_cycles;
  params["seed"] = opts_.seed;
  params["arrival"] = opts_.arrival.to_string();
  params["slo"] = opts_.slo;
  params["queue_depth"] = static_cast<std::uint64_t>(opts_.queue_depth);
  params["fault_plan"] = opts_.fault_plan;
  params["spare_banks"] = opts_.spare_banks;
  params["audit"] = opts_.audit;
  // Execution provenance (span, wall time) is deliberately
  // excluded: the same served stream must produce a byte-identical
  // report on every engine configuration.

  const std::uint64_t unfinished = outstanding();
  Json metrics = Json::object();
  metrics["cycles"] = cycles;
  metrics["offered"] = st.offered;
  metrics["accepted"] = st.accepted;
  metrics["rejected"] = st.rejected;
  metrics["completed"] = st.completed;
  metrics["failed"] = st.failed;
  metrics["retried"] = st.retried;
  metrics["unfinished"] = unfinished;
  metrics["shed_fraction"] =
      st.offered == 0 ? 0.0
                      : static_cast<double>(st.rejected) /
                            static_cast<double>(st.offered);
  metrics["slo_cycles"] = opts_.slo;
  metrics["slo_within"] = st.within_slo;
  metrics["slo_attainment"] =
      st.completed == 0 ? 1.0
                        : static_cast<double>(st.within_slo) /
                              static_cast<double>(st.completed);
  // The operator's view: of everything *offered*, how much came back
  // within the SLO?  Shed and failed requests count against it.
  metrics["goodput_attainment"] =
      st.offered == 0 ? 1.0
                      : static_cast<double>(st.within_slo) /
                            static_cast<double>(st.offered);
  metrics["offered_rate"] =
      cycles == 0 ? 0.0
                  : static_cast<double>(st.offered) /
                        static_cast<double>(cycles);
  metrics["completed_rate"] =
      cycles == 0 ? 0.0
                  : static_cast<double>(st.completed) /
                        static_cast<double>(cycles);
  const auto& hist = queue.latency_histogram();
  metrics["latency_p50"] = hist.quantile(0.50);
  metrics["latency_p95"] = hist.quantile(0.95);
  metrics["latency_p99"] = hist.quantile(0.99);
  metrics["latency_p999"] = hist.quantile(0.999);
  metrics["latency_mean"] = st.latency.mean();
  metrics["latency_max"] = st.latency.max();

  sim::CounterSet serve_counters;
  const auto add = [&serve_counters](std::string_view name,
                                     std::uint64_t value) {
    serve_counters.inc(serve_counters.intern(name), value);
  };
  add("offered", st.offered);
  add("accepted", st.accepted);
  add("rejected", st.rejected);
  add("completed", st.completed);
  add("failed", st.failed);
  add("retried", st.retried);
  add("lock_acquired", st.lock_acquired);
  add("lock_busy", st.lock_busy);
  Json counters = Json::object();
  counters["serve"] = sim::to_json(serve_counters);
  counters["memory"] = sim::to_json(memory_->counters());
  if (injector_) counters["faults"] = sim::to_json(injector_->counters());

  Json stats = Json::object();
  stats["latency"] = sim::to_json(st.latency);
  stats["queue_wait"] = sim::to_json(st.queue_wait);

  Json histograms = Json::object();
  histograms["latency"] = sim::to_json(hist, {0.5, 0.95, 0.99, 0.999});

  Json doc = Json::object();
  doc["schema"] = kSchema;
  doc["name"] = "cfm_serve";
  doc["params"] = std::move(params);
  doc["metrics"] = std::move(metrics);
  doc["counters"] = std::move(counters);
  doc["stats"] = std::move(stats);
  doc["histograms"] = std::move(histograms);
  doc["tables"] = Json::object();
  if (telemetry_) {
    // The series is derived at the activity horizon, not the engine
    // clock, so it inherits the report's pacing independence.
    doc["timeseries"] = telemetry_->to_json(cycles);
    const auto series = telemetry_->series(cycles);
    Json recovery;
    if (injector_) {
      sim::RecoveryConfig rc;
      rc.degraded_counters = {"failed",            "retried",
                              "mem.fault_restarts", "mem.bank_failures",
                              "mem.brownouts",      "mem.fault_aborts"};
      rc.completed_counter = "completed";
      rc.slo_counter = "slo_within";
      recovery = sim::recovery_table(series, fault_plan_, rc);
      doc["tables"]["recovery"] = recovery;
    }
    doc["anomalies"] = sim::detect_anomalies(
        series, "completed", "slo_within", injector_ ? &recovery : nullptr);
  }
  if (audit_) doc["audit"] = audit_->to_json();
  return doc;
}

sim::Json Server::live_stats_json() const {
  if (!telemetry_) return sim::Json();
  return telemetry_->live_json(engine_->now());
}

std::string Server::prometheus_text() const {
  if (!telemetry_) return {};
  return telemetry_->prometheus_text(engine_->now());
}

}  // namespace cfm::serve
