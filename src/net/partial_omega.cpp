#include "net/partial_omega.hpp"

#include <cassert>
#include <stdexcept>

namespace cfm::net {

std::vector<PartialOmegaConfig> enumerate_partial_configs(std::uint32_t banks) {
  const auto k = log2_exact(banks);
  if (k == UINT32_MAX) {
    throw std::invalid_argument("bank count must be a power of two");
  }
  std::vector<PartialOmegaConfig> rows;
  rows.reserve(k + 1);
  for (std::uint32_t j = 0; j <= k; ++j) {
    PartialOmegaConfig c;
    c.modules = 1u << j;
    c.banks_per_module = banks >> j;
    c.block_words = c.banks_per_module;
    c.circuit_columns = j;
    c.clock_columns = k - j;
    rows.push_back(c);
  }
  return rows;
}

PartialOmega::PartialOmega(std::uint32_t ports, std::uint32_t modules)
    : topo_(ports), modules_(modules) {
  if (log2_exact(modules) == UINT32_MAX || modules > ports) {
    throw std::invalid_argument("modules must be a power of two <= ports");
  }
}

Port PartialOmega::bank_for(sim::Cycle t, Port p, std::uint32_t module) const {
  if (p >= ports() || module >= modules_) {
    throw std::invalid_argument("bank_for: port or module out of range");
  }
  const auto sub = banks_per_module();
  // Clock-driven columns shift within the module subtree; the processor
  // enters the subtree at port (p mod sub) — its contention set.
  const auto within = static_cast<Port>((t + (p % sub)) % sub);
  return module * sub + within;
}

bool PartialOmega::conflicts(sim::Cycle t, Port p1, std::uint32_t module1,
                             Port p2, std::uint32_t module2) const {
  const Port d1 = bank_for(t, p1, module1);
  const Port d2 = bank_for(t, p2, module2);
  const auto path1 = topo_.route(p1, d1);
  const auto path2 = topo_.route(p2, d2);
  // A physical conflict is two live paths occupying the same output line
  // of the same stage in the same slot (circuit switching holds the line;
  // clock-driven switching dedicates it via the AT schedule).
  for (std::uint32_t s = 0; s < topo_.stages(); ++s) {
    if (path1[s].line_after == path2[s].line_after) return true;
  }
  return false;
}

PartialCfmFabric::PartialCfmFabric(std::uint32_t processors,
                                   std::uint32_t modules, std::uint32_t beta)
    : n_(processors), m_(modules), beta_(beta), busy_until_(processors, 0) {
  if (modules == 0 || processors % modules != 0) {
    throw std::invalid_argument("modules must divide processors");
  }
  if (beta_ == 0) {
    throw std::invalid_argument("block access time must be positive");
  }
}

sim::Cycle PartialCfmFabric::try_access(std::uint32_t p, std::uint32_t module,
                                        sim::Cycle now) {
  if (p >= n_ || module >= m_) {
    throw std::invalid_argument("try_access: processor or module out of range");
  }
  const auto idx = module * channels_per_module() + channel_of(p);
  auto& until = busy_until_[idx];
  if (now < until) {
    ++conflicts_;
    return sim::kNeverCycle;
  }
  until = now + beta_;
  ++started_;
  return until;
}

}  // namespace cfm::net
