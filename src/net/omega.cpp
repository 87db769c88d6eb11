#include "net/omega.hpp"

#include <cassert>
#include <stdexcept>

namespace cfm::net {

OmegaTopology::OmegaTopology(std::uint32_t ports)
    : ports_(ports), stages_(log2_exact(ports)) {
  if (stages_ == UINT32_MAX || ports < 2) {
    throw std::invalid_argument("omega network requires power-of-two ports >= 2");
  }
}

std::vector<OmegaTopology::PathStep> OmegaTopology::route(Port src,
                                                          Port dst) const {
  if (src >= ports_ || dst >= ports_) {
    throw std::invalid_argument("omega route: port out of range");
  }
  std::vector<PathStep> path;
  path.reserve(stages_);
  Port line = src;
  for (std::uint32_t s = 0; s < stages_; ++s) {
    line = shuffle(line);
    PathStep step;
    step.stage = s;
    step.switch_index = line >> 1;
    step.in_port = static_cast<std::uint8_t>(line & 1);
    step.out_port =
        static_cast<std::uint8_t>((dst >> (stages_ - 1 - s)) & 1);
    line = (line & ~Port{1}) | step.out_port;
    step.line_after = line;
    path.push_back(step);
  }
  assert(line == dst);
  return path;
}

std::optional<StageStates> SyncOmega::schedule_for_permutation(
    const OmegaTopology& topo, const std::vector<Port>& perm) {
  if (perm.size() != topo.ports()) {
    throw std::invalid_argument(
        "permutation size must equal the omega port count");
  }
  // -1 = unconstrained, otherwise the required SwitchState.
  std::vector<std::vector<int>> states(
      topo.stages(), std::vector<int>(topo.switches_per_stage(), -1));
  for (Port src = 0; src < topo.ports(); ++src) {
    for (const auto& step : topo.route(src, perm[src])) {
      // in_port -> out_port straight iff equal, interchange iff different.
      const int need = (step.in_port == step.out_port) ? 0 : 1;
      int& have = states[step.stage][step.switch_index];
      if (have == -1) {
        have = need;
      } else if (have != need) {
        return std::nullopt;  // both inputs demand the same output port
      }
    }
  }
  StageStates result(topo.stages(),
                     std::vector<SwitchState>(topo.switches_per_stage(),
                                              SwitchState::Straight));
  for (std::uint32_t s = 0; s < topo.stages(); ++s) {
    for (std::uint32_t w = 0; w < topo.switches_per_stage(); ++w) {
      // Unconstrained switches default to straight.
      result[s][w] =
          states[s][w] == 1 ? SwitchState::Interchange : SwitchState::Straight;
    }
  }
  return result;
}

SyncOmega::SyncOmega(std::uint32_t ports) : topo_(ports) {
  per_slot_.reserve(ports);
  for (std::uint32_t t = 0; t < ports; ++t) {
    auto schedule =
        schedule_for_permutation(topo_, shift_permutation(t, ports));
    // Lawrie: every uniform shift passes the omega conflict-free.
    assert(schedule.has_value());
    per_slot_.push_back(std::move(*schedule));
  }
}

SwitchState SyncOmega::switch_state(sim::Cycle t, std::uint32_t stage,
                                    std::uint32_t sw) const {
  return per_slot_[t % topo_.ports()].at(stage).at(sw);
}

Port SyncOmega::output_for(sim::Cycle t, Port input) const {
  const auto& states = per_slot_[t % topo_.ports()];
  Port line = input;
  for (std::uint32_t s = 0; s < topo_.stages(); ++s) {
    line = topo_.shuffle(line);
    const auto sw = line >> 1;
    const auto in_port = line & 1;
    const auto out_port = states[s][sw] == SwitchState::Straight
                              ? in_port
                              : (in_port ^ 1u);
    line = (line & ~Port{1}) | out_port;
  }
  return line;
}

}  // namespace cfm::net
