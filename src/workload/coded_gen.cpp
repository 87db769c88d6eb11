#include "workload/coded_gen.hpp"

#include <algorithm>
#include <optional>

namespace cfm::workload {

CodedDriver::CodedDriver(std::string name, sim::DomainId domain,
                         mem::coded::CodedMemory& memory, double rate,
                         double write_fraction, std::uint64_t seed,
                         sim::StatShard& shard)
    : sim::Component(std::move(name), domain,
                     sim::phase_bit(sim::Phase::Issue)),
      mem_(memory),
      rate_(rate),
      write_fraction_(write_fraction),
      rng_(seed),
      procs_(memory.config().processors),
      scratch_(memory.descriptor().data_banks),
      shard_(shard) {}

std::uint64_t CodedDriver::in_flight() const noexcept {
  std::uint64_t n = 0;
  for (const auto& st : procs_) {
    if (st.op != mem::coded::CodedMemory::kNoOp || st.pending_retry) ++n;
  }
  return n;
}

std::uint64_t CodedDriver::in_flight_retries() const noexcept {
  std::uint64_t n = 0;
  for (const auto& st : procs_) {
    if (st.op != mem::coded::CodedMemory::kNoOp || st.pending_retry) {
      n += st.retries;
    }
  }
  return n;
}

void CodedDriver::issue(sim::Cycle now, sim::ProcessorId p, ProcState& st) {
  if (st.is_write) {
    // Deterministic per-access pattern: a pure function of (block, word,
    // issue slot), so replays and fast-path-vs-reference runs write the
    // same bits without extra RNG draws.
    for (std::uint32_t w = 0; w < scratch_.size(); ++w) {
      scratch_[w] = (st.block * 0x9E3779B97F4A7C15ULL) ^
                    (static_cast<sim::Word>(w) << 32) ^ st.issued;
    }
    st.op = mem_.issue(now, p, core::BlockOpKind::Write, st.block, scratch_);
  } else {
    st.op = mem_.issue(now, p, core::BlockOpKind::Read, st.block);
  }
  st.pending_retry = false;
}

void CodedDriver::tick_phase(sim::Phase, sim::Cycle now) {
  auto& access_time = shard_.stat("access_time");
  const auto beta = mem_.config().block_access_time();
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    auto& st = procs_[p];
    if (st.op != mem::coded::CodedMemory::kNoOp) {
      if (auto result = mem_.take_result(st.op)) {
        if (result->status == core::OpStatus::Completed) {
          access_time.add(static_cast<double>(result->completed - st.issued));
          ++completed_;
          shard_.counters.inc("ops_completed");
          st.op = mem::coded::CodedMemory::kNoOp;
          st.retries = 0;
        } else if (st.retries < kMaxRetries) {
          ++st.retries;
          shard_.counters.inc("ops_retried");
          st.op = mem::coded::CodedMemory::kNoOp;
          st.pending_retry = true;
          st.retry_at = now + 1 + rng_.below(2 * beta);
        } else {
          ++failed_;
          shard_.counters.inc("ops_failed");
          st.op = mem::coded::CodedMemory::kNoOp;
          st.retries = 0;
        }
      }
    }
    if (st.op != mem::coded::CodedMemory::kNoOp) continue;
    const bool retrying = st.pending_retry;
    if (retrying ? now < st.retry_at : !rng_.chance(rate_)) continue;
    if (!retrying) {
      st.issued = now;
      st.is_write = write_fraction_ > 0.0 && rng_.chance(write_fraction_);
      // Distinct blocks per processor, as in AccessDriver: the experiment
      // is about bank traffic, not same-address races.
      st.block = 1000 + p * 7919 + (now % 97);
    }
    issue(now, p, st);
  }
  publish_wake(now);
}

void CodedDriver::publish_wake(sim::Cycle now) {
  sim::Cycle wake = sim::kNeverCycle;
  bool any_inflight = false;
  for (const auto& st : procs_) {
    if (st.op != mem::coded::CodedMemory::kNoOp) {
      any_inflight = true;
      continue;
    }
    if (st.pending_retry) {
      wake = std::min(wake, st.retry_at);
      continue;
    }
    // Idle processor: the Bernoulli draw happens every cycle, so skipping
    // would desynchronise the random stream.
    set_next_event(sim::Component::kAlways);
    return;
  }
  if (any_inflight) wake = std::min(wake, mem_.next_completion_hint(now));
  set_next_event(wake);
}

EfficiencyResult measure_coded_instrumented(const mem::coded::CodedConfig& cfg,
                                            double rate, double write_fraction,
                                            sim::Cycle cycles,
                                            std::uint64_t seed,
                                            const CodedRunHooks& hooks) {
  sim::Engine engine;
  mem::coded::CodedMemory memory(cfg);
  if (hooks.auditor != nullptr) memory.set_audit(*hooks.auditor);
  if (hooks.injector != nullptr) memory.set_fault_injector(*hooks.injector);
  const auto beta = cfg.block_access_time();
  const auto domain = engine.allocate_domain();
  memory.attach(engine, domain);
  CodedDriver driver("workload.coded_driver", domain, memory, rate,
                     write_fraction, seed, engine.shard(domain));
  engine.add(driver);
  std::optional<sim::TelemetrySampler> telemetry;
  if (hooks.telemetry_window > 0 && hooks.timeseries_out != nullptr) {
    telemetry.emplace("workload.coded_telemetry", hooks.telemetry_window,
                      hooks.telemetry_capacity != 0
                          ? hooks.telemetry_capacity
                          : sim::TelemetrySampler::kDefaultCapacity);
    auto& shard = engine.shard(domain);
    for (const char* name : {"ops_completed", "ops_retried", "ops_failed"}) {
      telemetry->add_counter(
          name, [&shard, name] { return shard.counters.get(name); });
    }
    for (const char* name :
         {"word_reads_decoded", "word_writes_decoded", "parity_updates",
          "bank_failures", "fault_aborts"}) {
      telemetry->add_counter(std::string("mem.") + name, [&memory, name] {
        return memory.counters().get(name);
      });
    }
    telemetry->add_gauge("in_flight", [&driver](sim::Cycle) {
      return static_cast<double>(driver.in_flight());
    });
    telemetry->add_gauge("live_banks", [&memory](sim::Cycle) {
      return static_cast<double>(memory.live_banks());
    });
    telemetry->add_gauge("stripe_queue_depth", [&memory](sim::Cycle) {
      return static_cast<double>(memory.pending_parity());
    });
    if (hooks.injector != nullptr) {
      telemetry->add_gauge(
          "active_faults", [inj = hooks.injector](sim::Cycle now) {
            return static_cast<double>(inj->active_count(now));
          });
    }
    engine.add(*telemetry);
  }
  engine.run_for(cycles);
  if (telemetry) *hooks.timeseries_out = telemetry->to_json(cycles);
  if (hooks.counters_out != nullptr) {
    hooks.counters_out->merge(engine.shard(domain).counters);
    hooks.counters_out->merge(memory.counters());
  }
  if (hooks.access_time_out != nullptr) {
    const auto found = engine.shard(domain).running.find("access_time");
    if (found != engine.shard(domain).running.end()) {
      hooks.access_time_out->merge(found->second);
    }
  }
  if (hooks.decode_fanout_max_out != nullptr) {
    *hooks.decode_fanout_max_out = memory.decode_fanout_max();
  }
  if (hooks.pending_parity_out != nullptr) {
    *hooks.pending_parity_out = memory.pending_parity();
  }

  const auto& shard = engine.shard(domain);
  const auto it = shard.running.find("access_time");
  const auto completed = driver.completed();
  const double mean_time = it == shard.running.end() ? 0.0 : it->second.mean();

  EfficiencyResult out;
  out.completed = completed;
  out.conflicts = 0;
  out.mean_access_time = mean_time;
  out.efficiency =
      completed == 0 ? 1.0 : static_cast<double>(beta) / mean_time;
  out.unfinished = driver.in_flight();
  out.unfinished_retries = driver.in_flight_retries();
  out.failed = driver.failed();
  const auto issued_population =
      completed + driver.failed() + driver.in_flight();
  out.mean_retries =
      issued_population == 0
          ? 0.0
          : static_cast<double>(shard.counters.get("ops_retried")) /
                static_cast<double>(issued_population);
  return out;
}

}  // namespace cfm::workload
