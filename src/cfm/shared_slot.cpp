#include "cfm/shared_slot.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace cfm::core {

SharedSlotFabric::SharedSlotFabric(std::uint32_t processors,
                                   std::uint32_t slots, std::uint32_t beta)
    : n_(processors), s_(slots), beta_(beta), busy_until_(slots, 0) {
  if (slots == 0 || processors % slots != 0) {
    throw std::invalid_argument("slots must divide processors");
  }
  if (beta == 0) throw std::invalid_argument("beta must be nonzero");
}

sim::Cycle SharedSlotFabric::try_access(std::uint32_t p, sim::Cycle now) {
  auto& until = busy_until_.at(slot_of(p));
  if (now < until) {
    ++conflicts_;
    return sim::kNeverCycle;
  }
  until = now + beta_;
  ++started_;
  busy_ += beta_;
  return until;
}

double SharedSlotFabric::utilization(sim::Cycle elapsed) const noexcept {
  if (elapsed == 0) return 0.0;
  return static_cast<double>(busy_) /
         (static_cast<double>(elapsed) * static_cast<double>(s_));
}

double SharedSlotModel::conflict_probability(double rate) const noexcept {
  const double k = static_cast<double>(processors) / slots;
  return std::clamp((k - 1.0) * rate * beta, 0.0, 1.0);
}

double SharedSlotModel::efficiency(double rate) const noexcept {
  const double p = conflict_probability(rate);
  return (2.0 - 2.0 * p) / (2.0 - p);
}

double SharedSlotModel::slot_utilization(double rate) const noexcept {
  const double k = static_cast<double>(processors) / slots;
  return std::min(1.0, k * rate * beta);
}

SharedSlotResult measure_shared_slots(std::uint32_t processors,
                                      std::uint32_t slots, std::uint32_t beta,
                                      double rate, sim::Cycle cycles,
                                      std::uint64_t seed) {
  SharedSlotFabric fabric(processors, slots, beta);
  sim::Rng rng(seed);

  struct Proc {
    std::optional<sim::Cycle> retry_at;  // blocked access waiting
    sim::Cycle first_attempt = 0;
    sim::Cycle busy_until = 0;
  };
  std::vector<Proc> procs(processors);
  sim::RunningStat access_time;
  const sim::Cycle warmup = cycles / 10;

  for (sim::Cycle now = 0; now < cycles; ++now) {
    for (std::uint32_t p = 0; p < processors; ++p) {
      auto& st = procs[p];
      if (st.retry_at.has_value()) {
        if (*st.retry_at > now) continue;
        const auto done = fabric.try_access(p, now);
        if (done == sim::kNeverCycle) {
          st.retry_at = now + rng.between(1, beta);
        } else {
          if (st.first_attempt >= warmup) {
            access_time.add(static_cast<double>(done - st.first_attempt));
          }
          st.retry_at.reset();
          st.busy_until = done;
        }
        continue;
      }
      if (now < st.busy_until || !rng.chance(rate)) continue;
      st.first_attempt = now;
      const auto done = fabric.try_access(p, now);
      if (done == sim::kNeverCycle) {
        st.retry_at = now + rng.between(1, beta);
      } else {
        if (st.first_attempt >= warmup) {
          access_time.add(static_cast<double>(done - st.first_attempt));
        }
        st.busy_until = done;
      }
    }
  }

  SharedSlotResult out;
  out.completed = access_time.count();
  out.conflicts = fabric.conflicts();
  out.efficiency = access_time.count() == 0
                       ? 1.0
                       : static_cast<double>(beta) / access_time.mean();
  out.utilization = fabric.utilization(cycles);
  return out;
}

}  // namespace cfm::core
