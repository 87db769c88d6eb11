#include "workload/hier_driver.hpp"

#include <algorithm>

#include "sim/engine.hpp"

namespace cfm::workload {

namespace {
// Private working sets start well above the shared pool so the two can
// never alias; 64 blocks of per-processor stride keeps neighbours from
// false-sharing L1 sets.
constexpr sim::BlockAddr kSharedBase = 16;
constexpr sim::BlockAddr kPrivateBase = 4096;
constexpr sim::BlockAddr kPrivateStride = 64;
}  // namespace

HierDriver::HierDriver(std::string name, sim::Engine& engine,
                       cache::HierarchicalCfm& machine, const Params& params,
                       std::uint64_t seed, sim::StatShard& shard)
    : sim::Component(std::move(name), sim::kSharedDomain,
                     sim::phase_bit(sim::Phase::Issue)),
      hier_(machine),
      params_(params),
      rng_(seed),
      procs_(machine.processor_count()),
      shard_(shard),
      access_time_(shard.stat("hier.access_time")),
      ops_completed_(shard.counters.intern("hier.ops_completed")) {
  engine.add(*this);
  machine.set_completion_hook([this](sim::Cycle) {
    // A request retired mid-cycle (controller's Network tick): harvest at
    // the next Issue phase, exactly when the reference path would.
    set_next_event(sim::Component::kAlways);
  });
}

std::uint64_t HierDriver::in_flight() const noexcept {
  std::uint64_t n = 0;
  for (const auto& st : procs_) {
    if (st.req != 0) ++n;
  }
  return n;
}

void HierDriver::issue(sim::Cycle now, std::uint32_t p, ProcState& st) {
  const bool shared = rng_.chance(params_.shared_fraction);
  const sim::BlockAddr addr =
      shared ? kSharedBase + rng_.below(params_.shared_blocks)
             : kPrivateBase + p * kPrivateStride +
                   rng_.below(params_.private_blocks);
  st.issued = now;
  if (rng_.chance(params_.write_fraction)) {
    st.req = hier_.write(now, p, addr, 0,
                         static_cast<sim::Word>(now ^ (p * 2654435761u)));
  } else {
    st.req = hier_.read(now, p, addr);
  }
}

sim::Cycle HierDriver::draw_think() {
  const auto spread = params_.think_max - params_.think_min;
  return params_.think_min + (spread == 0 ? 0 : rng_.below(spread + 1));
}

void HierDriver::tick_phase(sim::Phase, sim::Cycle now) {
  ++ticks_;
  // 1. Harvest completions.  Think times are drawn at the harvest point:
  //    the fast path reaches it at the same cycle as the reference path,
  //    so the random stream stays aligned.
  std::uint64_t harvested = 0;
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    auto& st = procs_[p];
    if (st.req == 0) continue;
    auto result = hier_.take_result(st.req);
    if (!result.has_value()) continue;
    access_time_.add(static_cast<double>(result->completed - st.issued));
    ++harvested;
    st.req = 0;
    st.resume_at =
        params_.barrier ? sim::kNeverCycle : now + draw_think();
  }
  if (harvested != 0) {
    completed_ += harvested;
    shard_.counters.inc(ops_completed_, harvested);
  }
  // 2. Round barrier: with the last completion harvested, the whole
  //    machine thinks for one shared interval (a BSP superstep), leaving
  //    the engine a provably idle stretch to jump across.
  if (params_.barrier) {
    bool all_waiting = true;
    for (const auto& st : procs_) {
      if (st.req != 0 || st.resume_at != sim::kNeverCycle) {
        all_waiting = false;
        break;
      }
    }
    if (all_waiting) {
      const sim::Cycle resume = now + draw_think();
      for (auto& st : procs_) st.resume_at = resume;
    }
  }
  // 3. Issue the next burst.
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    auto& st = procs_[p];
    if (st.req == 0 && now >= st.resume_at) issue(now, p, st);
  }
  publish_wake();
}

void HierDriver::publish_wake() {
  sim::Cycle wake = sim::kNeverCycle;
  for (const auto& st : procs_) {
    if (st.req != 0) continue;  // completion hook wakes us
    wake = std::min(wake, st.resume_at);
  }
  set_next_event(wake);
}

}  // namespace cfm::workload
