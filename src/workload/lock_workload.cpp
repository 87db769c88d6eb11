#include "workload/lock_workload.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "cache/cfm_protocol.hpp"
#include "cache/snoopy.hpp"
#include "cache/sync_ops.hpp"
#include "cfm/atomic.hpp"
#include "cfm/cfm_memory.hpp"
#include "net/circuit_omega.hpp"
#include "sim/rng.hpp"

namespace cfm::workload {

HotSpotResult run_hotspot_buffered(std::uint32_t ports, double rate,
                                   double hot_fraction,
                                   std::uint32_t queue_capacity,
                                   sim::Cycle cycles, std::uint64_t seed,
                                   bool combining,
                                   sim::ConflictAuditor* auditor) {
  net::BufferedOmega network(ports, queue_capacity, 1, combining);
  if (auditor != nullptr) network.set_audit(*auditor);
  sim::Rng rng(seed);
  const net::Port hot_sink = 0;

  sim::RunningStat background;
  sim::RunningStat hot;
  sim::RunningStat saturation;
  std::uint64_t offered = 0;
  std::uint64_t rejected = 0;
  const sim::Cycle warmup = cycles / 10;

  for (sim::Cycle now = 0; now < cycles; ++now) {
    for (net::Port src = 0; src < ports; ++src) {
      if (!rng.chance(rate)) continue;
      ++offered;
      const bool is_hot = rng.chance(hot_fraction);
      const auto dst = is_hot
                           ? hot_sink
                           : static_cast<net::Port>(rng.below(ports));
      if (!network.try_inject(now, src, dst, is_hot)) ++rejected;
    }
    network.tick(now);
    if (now >= warmup) {
      for (const auto& pkt : network.delivered_last_tick()) {
        const auto latency = static_cast<double>(pkt.delivered - pkt.injected);
        if (pkt.hot) {
          // A combined packet satisfies all the requests it absorbed.
          for (std::uint32_t k = 0; k < pkt.combined; ++k) hot.add(latency);
        } else {
          background.add(latency);
        }
      }
      saturation.add(network.saturated_queue_fraction());
    }
  }

  HotSpotResult out;
  out.hot_fraction = hot_fraction;
  out.offered_rate = rate;
  out.background_latency = background.mean();
  out.hot_latency = hot.mean();
  out.saturated_queues = saturation.mean();
  out.reject_rate = offered ? static_cast<double>(rejected) /
                                  static_cast<double>(offered)
                            : 0.0;
  out.delivered = background.count() + hot.count();
  out.combined = network.combined_count();
  return out;
}

namespace {

/// Generic contention loop: clients acquire, hold for `hold_cycles`,
/// release, and immediately re-request, for `cycles` cycles.
template <typename Client, typename System>
LockFarmResult run_farm(std::vector<Client>& clients, System& sys,
                        std::uint32_t hold_cycles, sim::Cycle cycles) {
  std::vector<sim::Cycle> release_at(clients.size(), 0);
  for (auto& c : clients) c.acquire();

  for (sim::Cycle now = 0; now < cycles; ++now) {
    for (std::size_t i = 0; i < clients.size(); ++i) {
      auto& c = clients[i];
      if (c.holding()) {
        if (release_at[i] == 0) release_at[i] = now + hold_cycles;
        if (now >= release_at[i]) {
          c.release();
          release_at[i] = 0;
        }
      }
      c.tick(now, sys);
      if (!c.holding() && release_at[i] == 0 &&
          c.state() == Client::State::Idle) {
        c.acquire();
      }
    }
    sys.tick(now);
  }

  LockFarmResult out;
  sim::RunningStat latency;
  double min_acq = 1e300;
  double max_acq = 0.0;
  for (auto& c : clients) {
    out.total_acquisitions += c.acquisitions();
    latency.merge(c.acquire_latency());
    min_acq = std::min(min_acq, static_cast<double>(c.acquisitions()));
    max_acq = std::max(max_acq, static_cast<double>(c.acquisitions()));
  }
  out.throughput =
      1000.0 * static_cast<double>(out.total_acquisitions) /
      static_cast<double>(cycles);
  out.mean_acquire_latency = latency.mean();
  out.mean_transfer_cycles =
      out.total_acquisitions
          ? static_cast<double>(cycles) /
                static_cast<double>(out.total_acquisitions)
          : 0.0;
  out.min_per_proc = min_acq;
  out.max_per_proc = max_acq;
  return out;
}

}  // namespace

LockFarmResult run_lock_farm_cfm(std::uint32_t contenders,
                                 std::uint32_t hold_cycles,
                                 sim::Cycle cycles) {
  core::CfmMemory mem(core::CfmConfig::make(contenders),
                      core::ConsistencyPolicy::EarliestWins);
  std::vector<core::LockClient> clients;
  clients.reserve(contenders);
  for (std::uint32_t p = 0; p < contenders; ++p) clients.emplace_back(p, 3);
  auto out = run_farm(clients, mem, hold_cycles, cycles);
  out.aux_pressure =
      static_cast<double>(mem.counters().get("swap_restarts")) /
      std::max<double>(1.0, static_cast<double>(out.total_acquisitions));
  return out;
}

LockFarmResult run_lock_farm_cached(std::uint32_t contenders,
                                    std::uint32_t hold_cycles,
                                    sim::Cycle cycles) {
  cache::CfmCacheSystem::Params params;
  params.mem = core::CfmConfig::make(contenders);
  cache::CfmCacheSystem sys(params);
  std::vector<cache::CachedLockClient> clients;
  clients.reserve(contenders);
  for (std::uint32_t p = 0; p < contenders; ++p) clients.emplace_back(p, 3);
  auto out = run_farm(clients, sys, hold_cycles, cycles);
  out.aux_pressure =
      static_cast<double>(sys.counters().get("invalidations")) /
      std::max<double>(1.0, static_cast<double>(out.total_acquisitions));
  return out;
}

LockFarmResult run_lock_farm_snoopy(std::uint32_t contenders,
                                    std::uint32_t hold_cycles,
                                    sim::Cycle cycles) {
  cache::SnoopyBus::Params params;
  params.processors = contenders;
  params.block_words = contenders;  // match the CFM block size (b = n)
  params.block_cycles = contenders; // a block transfer occupies ~b bus cycles
  cache::SnoopyBus sys(params);
  std::vector<cache::BusyLockClient<cache::SnoopyBus>> clients;
  clients.reserve(contenders);
  for (std::uint32_t p = 0; p < contenders; ++p) clients.emplace_back(p, 3);
  auto out = run_farm(clients, sys, hold_cycles, cycles);
  out.aux_pressure = static_cast<double>(sys.bus_busy()) /
                     static_cast<double>(cycles);
  return out;
}

}  // namespace cfm::workload
