// One per-port access discipline for every driver that feeds a block
// memory (DESIGN.md §13).
//
// In the paper each processor owns one AT path, so it has at most one
// block access outstanding, whatever feeds the port (a closed-loop
// generator, an open-loop admission queue) and whatever serves it
// (CfmMemory, the coded backend).  PortDriver implements that discipline
// once, as an Issue-phase component in the memory's tick domain.  Each
// tick the source admits work, then every port in order harvests and
// issues:
//
//   harvest  Completed records latency = completion - arrival; any other
//            status (the memory's bounded-latency fault path) reissues
//            the request after a jittered 1 + U[0, 2*beta) backoff, up
//            to kMaxRetries times, and then counts it failed;
//   issue    a port whose retry slot came due reissues; an idle port asks
//            the source for a new request;
//   wake     the hint is the earliest retry slot, the source's wake and,
//            with an op in flight, the memory's completion bound.  Skipped
//            cycles draw no random numbers on the reference path either,
//            so the fast path keeps the workload bit-identical.
//
// The memory is a template parameter, not a virtual interface: issue is
// on the serving hot path.  A Source provides `Request` (with an
// `arrival` cycle), admit(now), next(mem, now, port, out, rng) -> bool,
// issue(mem, now, port, req) -> OpToken, resolved(req, result), its own
// wake() -> Cycle, and kIdlePortsPoll: whether an idle port asks it for
// work every cycle (then the driver can never be skipped while one is
// idle).
#pragma once

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cfm/block_engine.hpp"
#include "sim/component.hpp"
#include "sim/rng.hpp"
#include "sim/stats.hpp"
#include "sim/types.hpp"

namespace cfm::core {

/// Aborted accesses retry this many times before counting as failed, so
/// every access resolves within a bounded number of fault windows.
inline constexpr std::uint32_t kMaxRetries = 8;

template <typename Memory, typename Source>
class PortDriver final : public sim::Component {
 public:
  using Request = typename Source::Request;

  /// `seed` drives the backoff jitter and whatever the source draws
  /// through next(); `source_args` construct the source.
  template <typename... SourceArgs>
  PortDriver(std::string name, sim::DomainId domain, Memory& memory,
             std::uint64_t seed, SourceArgs&&... source_args)
      : sim::Component(std::move(name), domain,
                       sim::phase_bit(sim::Phase::Issue)),
        mem_(memory),
        rng_(seed),
        ports_(memory.config().processors),
        source_(std::forward<SourceArgs>(source_args)...) {}

  void tick_phase(sim::Phase, sim::Cycle now) override {
    source_.admit(now);
    for (std::uint32_t p = 0; p < ports_.size(); ++p) {
      auto& port = ports_[p];
      if (port.op != Memory::kNoOp) {
        const auto result = mem_.take_result(port.op);
        if (!result) continue;
        port.op = Memory::kNoOp;
        source_.resolved(port.req, *result);
        if (result->status == OpStatus::Completed) {
          latency_.add(static_cast<double>(result->completed -
                                           port.req.arrival));
          ++completed_;
          port.retries = 0;
        } else if (port.retries < kMaxRetries) {
          ++port.retries;
          ++retried_;
          port.pending_retry = true;
          port.retry_at =
              now + 1 + rng_.below(2 * mem_.config().block_access_time());
        } else {
          ++failed_;
          port.retries = 0;
        }
      }
      if (port.pending_retry) {
        if (now < port.retry_at) continue;
        port.pending_retry = false;
      } else if (!source_.next(mem_, now, p, port.req, rng_)) {
        continue;
      }
      port.op = source_.issue(mem_, now, p, port.req);
    }
    publish_wake(now);
  }

  [[nodiscard]] Source& source() noexcept { return source_; }
  [[nodiscard]] const Source& source() const noexcept { return source_; }

  [[nodiscard]] std::uint64_t completed() const noexcept { return completed_; }
  /// Retry events over every request, resolved or still in flight.
  [[nodiscard]] std::uint64_t retried() const noexcept { return retried_; }
  /// Requests that exhausted the retry budget (only possible when the
  /// memory runs with a fault injector).
  [[nodiscard]] std::uint64_t failed() const noexcept { return failed_; }
  /// Completion latency (arrival -> completion) of every completed request.
  [[nodiscard]] const sim::RunningStat& latency() const noexcept {
    return latency_;
  }
  /// Ports with an operation inside the memory.
  [[nodiscard]] std::uint32_t busy_ports() const noexcept {
    std::uint32_t n = 0;
    for (const auto& port : ports_) n += port.op != Memory::kNoOp;
    return n;
  }
  /// Requests still outstanding (issued or awaiting a retry slot): the
  /// population a fixed cycle budget cuts off mid-flight.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    std::uint64_t n = 0;
    for (const auto& port : ports_) n += busy(port);
    return n;
  }
  /// Retries already accumulated by the in-flight requests.  A retry
  /// export must add these to the resolved ones, or it repeats the
  /// survivorship bias of a completion count that drops the unfinished.
  [[nodiscard]] std::uint64_t in_flight_retries() const noexcept {
    std::uint64_t n = 0;
    for (const auto& port : ports_) n += busy(port) ? port.retries : 0;
    return n;
  }

 private:
  struct Port {
    typename Memory::OpToken op = Memory::kNoOp;
    Request req{};
    sim::Cycle retry_at = 0;
    std::uint32_t retries = 0;
    bool pending_retry = false;
  };

  [[nodiscard]] static bool busy(const Port& port) noexcept {
    return port.op != Memory::kNoOp || port.pending_retry;
  }

  void publish_wake(sim::Cycle now) {
    sim::Cycle wake = source_.wake();
    bool any_inflight = false;
    for (const auto& port : ports_) {
      if (port.op != Memory::kNoOp) {
        any_inflight = true;
      } else if (port.pending_retry) {
        wake = std::min(wake, port.retry_at);
      } else if constexpr (Source::kIdlePortsPoll) {
        set_next_event(sim::Component::kAlways);
        return;
      }
    }
    if (any_inflight) wake = std::min(wake, mem_.next_completion_hint(now));
    set_next_event(wake);
  }

  Memory& mem_;
  sim::Rng rng_;
  std::vector<Port> ports_;
  Source source_;
  std::uint64_t completed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t failed_ = 0;
  sim::RunningStat latency_;
};

}  // namespace cfm::core
