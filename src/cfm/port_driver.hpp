// One per-port access discipline for every driver that feeds a block
// memory (DESIGN.md §13).
//
// In the paper each processor owns one AT path, so it has at most one
// block access outstanding, whatever feeds the port (a closed-loop
// generator, an open-loop admission queue) and whatever serves it
// (CfmMemory, the coded backend).  PortDriver implements that discipline
// once, as an Issue-phase component in the memory's tick domain.  Each
// tick the source admits work, then every *ready* port, in ascending
// order, harvests and issues:
//
//   ready    a port whose op has a result (the memory's result_holders()),
//            a port whose retry slot came due, and an idle port while the
//            source may have work.  Any other port would do nothing this
//            tick, so the walk costs O(ready ports), not O(ports);
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
// on the serving hot path.  It provides result_holders() next to
// take_result.  A Source provides `Request` (with an `arrival` cycle),
// admit(now), next(mem, now, port, out, rng) -> bool, issue(mem, now,
// port, req) -> OpToken, resolved(req, result), its own wake() -> Cycle,
// and kIdlePortsPoll: whether an idle port asks it for work every cycle
// (then the driver can never be skipped while one is idle, and every
// idle port is ready).  A source with kIdlePortsPoll false also provides
// queued(), the work it holds for idle ports; once next() returns false
// it must keep doing so for the rest of the tick, so the walk stops
// offering it idle ports.
#pragma once

#include <algorithm>
#include <bit>
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
        busy_((ports_.size() + 63) / 64, 0),
        retry_(busy_.size(), 0),
        source_(std::forward<SourceArgs>(source_args)...) {}

  void tick_phase(sim::Phase, sim::Cycle now) override {
    source_.admit(now);
    bool want_idle = true;
    if constexpr (!Source::kIdlePortsPoll) want_idle = source_.queued() != 0;
    const auto holders = mem_.result_holders();
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      // Visiting a port changes only its own bits, and issuing publishes
      // no result, so the word's ready set is fixed up front.
      std::uint64_t ready = (busy_[w] & holders[w]) | due_retries(w, now);
      if (want_idle) ready |= idle_bits(w);
      while (ready != 0) {
        visit(static_cast<std::uint32_t>(w * 64 + std::countr_zero(ready)),
              now, want_idle);
        ready &= ready - 1;
        // The ports not yet visited still hold their pre-walk state, so
        // once the source runs dry its idle ones drop out.
        if (!want_idle) ready &= ~idle_bits(w);
      }
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
    for (const auto bits : busy_) n += std::popcount(bits);
    return n;
  }
  /// Requests still outstanding (issued or awaiting a retry slot): the
  /// population a fixed cycle budget cuts off mid-flight.
  [[nodiscard]] std::uint64_t in_flight() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      n += std::popcount(busy_[w] | retry_[w]);
    }
    return n;
  }
  /// Retries already accumulated by the in-flight requests.  A retry
  /// export must add these to the resolved ones, or it repeats the
  /// survivorship bias of a completion count that drops the unfinished.
  [[nodiscard]] std::uint64_t in_flight_retries() const noexcept {
    std::uint64_t n = 0;
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      for_each_bit(busy_[w] | retry_[w], w, [&](std::uint32_t p) {
        n += ports_[p].retries;
      });
    }
    return n;
  }

 private:
  struct Port {
    typename Memory::OpToken op = Memory::kNoOp;
    Request req{};
    sim::Cycle retry_at = 0;  ///< valid while the port's retry_ bit is set
    std::uint32_t retries = 0;
  };

  /// Calls fn(p) for every set bit of word w, ascending.
  template <typename Fn>
  static void for_each_bit(std::uint64_t bits, std::size_t w, Fn&& fn) {
    for (; bits != 0; bits &= bits - 1) {
      fn(static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits)));
    }
  }

  [[nodiscard]] static std::uint64_t bit(std::uint32_t p) noexcept {
    return std::uint64_t{1} << (p % 64);
  }

  /// Ports of word w with no op in flight and no retry pending.
  [[nodiscard]] std::uint64_t idle_bits(std::size_t w) const noexcept {
    const std::size_t left = ports_.size() - w * 64;
    const std::uint64_t mask = left >= 64 ? ~std::uint64_t{0}
                                          : (std::uint64_t{1} << left) - 1;
    return ~(busy_[w] | retry_[w]) & mask;
  }

  /// Ports of word w whose retry slot has come due.
  [[nodiscard]] std::uint64_t due_retries(std::size_t w,
                                          sim::Cycle now) const noexcept {
    std::uint64_t due = 0;
    for_each_bit(retry_[w], w, [&](std::uint32_t p) {
      if (ports_[p].retry_at <= now) due |= bit(p);
    });
    return due;
  }

  /// One ready port's harvest and issue.  `want_idle` drops to false once
  /// a non-polling source runs dry, so next() is asked only while the
  /// source still holds work.
  void visit(std::uint32_t p, sim::Cycle now, bool& want_idle) {
    auto& port = ports_[p];
    if (port.op != Memory::kNoOp) {
      const auto result = mem_.take_result(port.op);
      if (!result) return;
      port.op = Memory::kNoOp;
      busy_[p / 64] &= ~bit(p);
      source_.resolved(port.req, *result);
      if (result->status == OpStatus::Completed) {
        latency_.add(static_cast<double>(result->completed -
                                         port.req.arrival));
        ++completed_;
        port.retries = 0;
      } else if (port.retries < kMaxRetries) {
        ++port.retries;
        ++retried_;
        retry_[p / 64] |= bit(p);
        port.retry_at =
            now + 1 + rng_.below(2 * mem_.config().block_access_time());
        return;  // the retry slot is at least a cycle away
      } else {
        ++failed_;
        port.retries = 0;
      }
    }
    if ((retry_[p / 64] & bit(p)) != 0) {
      retry_[p / 64] &= ~bit(p);  // ready, so its slot came due
    } else if (!want_idle) {
      return;
    } else if (!source_.next(mem_, now, p, port.req, rng_)) {
      if constexpr (!Source::kIdlePortsPoll) want_idle = false;
      return;
    } else if constexpr (!Source::kIdlePortsPoll) {
      want_idle = source_.queued() != 0;
    }
    port.op = source_.issue(mem_, now, p, port.req);
    busy_[p / 64] |= bit(p);
  }

  void publish_wake(sim::Cycle now) {
    sim::Cycle wake = source_.wake();
    bool any_busy = false;
    for (std::size_t w = 0; w < busy_.size(); ++w) {
      if constexpr (Source::kIdlePortsPoll) {
        if (idle_bits(w) != 0) {
          set_next_event(sim::Component::kAlways);
          return;
        }
      }
      any_busy = any_busy || busy_[w] != 0;
      for_each_bit(retry_[w], w, [&](std::uint32_t p) {
        wake = std::min(wake, ports_[p].retry_at);
      });
    }
    if (any_busy) wake = std::min(wake, mem_.next_completion_hint(now));
    set_next_event(wake);
  }

  Memory& mem_;
  sim::Rng rng_;
  std::vector<Port> ports_;
  /// Port bitsets, bit p % 64 of word p / 64: an op in the memory, a
  /// retry pending.  A port in neither is idle.
  std::vector<std::uint64_t> busy_;
  std::vector<std::uint64_t> retry_;
  Source source_;
  std::uint64_t completed_ = 0;
  std::uint64_t retried_ = 0;
  std::uint64_t failed_ = 0;
  sim::RunningStat latency_;
};

}  // namespace cfm::core
