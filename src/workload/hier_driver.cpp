#include "workload/hier_driver.hpp"

#include <algorithm>
#include <bit>
#include <utility>

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
      retired_((procs_.size() + 63) / 64, 0),
      shard_(shard),
      access_time_(shard.stat("hier.access_time")),
      ops_completed_(shard.counters.intern("hier.ops_completed")) {
  engine.add(*this);
  machine.set_completion_hook([this](sim::Cycle, sim::ProcessorId p) {
    // A request retired mid-cycle (controller's Network tick): harvest at
    // the next Issue phase, exactly when the reference path would.
    retired_[p / 64] |= std::uint64_t{1} << (p % 64);
    set_next_event(sim::Component::kAlways);
  });
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
  ++outstanding_;
}

sim::Cycle HierDriver::draw_think() {
  const auto spread = params_.think_max - params_.think_min;
  return params_.think_min + (spread == 0 ? 0 : rng_.below(spread + 1));
}

void HierDriver::harvest(sim::Cycle now) {
  std::uint64_t harvested = 0;
  for (std::size_t w = 0; w < retired_.size(); ++w) {
    for (auto bits = std::exchange(retired_[w], 0); bits != 0;
         bits &= bits - 1) {
      const auto p =
          static_cast<std::uint32_t>(w * 64 + std::countr_zero(bits));
      auto& st = procs_[p];
      if (st.req == 0) continue;
      const auto result = hier_.take_result_of(p);
      if (!result.has_value()) continue;
      access_time_.add(static_cast<double>(result->completed - st.issued));
      ++harvested;
      st.req = 0;
      st.resume_at =
          params_.barrier ? sim::kNeverCycle : now + draw_think();
      next_resume_ = std::min(next_resume_, st.resume_at);
    }
  }
  if (harvested != 0) {
    outstanding_ -= harvested;
    completed_ += harvested;
    shard_.counters.inc(ops_completed_, harvested);
  }
}

void HierDriver::issue_due(sim::Cycle now) {
  next_resume_ = sim::kNeverCycle;
  for (std::uint32_t p = 0; p < procs_.size(); ++p) {
    auto& st = procs_[p];
    if (st.req != 0) continue;
    if (now >= st.resume_at) {
      issue(now, p, st);
    } else {
      next_resume_ = std::min(next_resume_, st.resume_at);
    }
  }
}

void HierDriver::tick_phase(sim::Phase, sim::Cycle now) {
  ++ticks_;
  // 1. Harvest completions.  Think times are drawn at the harvest point
  //    in ascending processor order, as a poll of every processor would
  //    draw them: the fast path reaches it at the same cycle as the
  //    reference path, so the random stream stays aligned.
  harvest(now);
  // 2. Round barrier: with the last completion harvested, the whole
  //    machine thinks for one shared interval (a BSP superstep), leaving
  //    the engine a provably idle stretch to jump across.  Every
  //    processor waits at the barrier iff none is in flight and none is
  //    thinking.
  if (params_.barrier && outstanding_ == 0 &&
      next_resume_ == sim::kNeverCycle) {
    const sim::Cycle resume = now + draw_think();
    for (auto& st : procs_) st.resume_at = resume;
    next_resume_ = resume;
  }
  // 3. Issue the next burst; before the earliest resume cycle no
  //    processor is due, so a harvest-only wake skips the walk.
  if (now >= next_resume_) issue_due(now);
  set_next_event(next_resume_);
}

}  // namespace cfm::workload
