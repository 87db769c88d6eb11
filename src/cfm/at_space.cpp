#include "cfm/at_space.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cfm::core {

void AtSpace::check_table_size(const CfmConfig& cfg) {
  const std::uint64_t entries =
      std::uint64_t{cfg.banks} * std::uint64_t{cfg.processors};
  if (entries <= kMaxTableBytes / sizeof(sim::BankId)) return;
  // b * n * 4 passes 2^64 for large enough 32-bit n and b.
  const std::string bytes =
      entries > UINT64_MAX / sizeof(sim::BankId)
          ? std::string("more than 2^64")
          : std::to_string(entries * sizeof(sim::BankId));
  throw std::invalid_argument(
      "CFM with " + std::to_string(cfg.processors) + " processors and " +
      std::to_string(cfg.banks) + " banks needs a " + bytes +
      "-byte AT-space table, over the " + std::to_string(kMaxTableBytes) +
      "-byte limit");
}

std::optional<sim::ProcessorId> AtSpace::processor_at(sim::Cycle t,
                                                      sim::BankId bank) const noexcept {
  // Solve (t + c*p) mod b == bank for p in [0, n).
  const auto b = cfg_.banks;
  const auto c = cfg_.bank_cycle;
  const auto rem = static_cast<std::uint64_t>((bank + b - (t % b)) % b);
  if (rem % c != 0) return std::nullopt;  // bank mid-access this slot
  const auto p = static_cast<sim::ProcessorId>(rem / c);
  if (p >= cfg_.processors) return std::nullopt;
  return p;
}

std::vector<std::vector<std::optional<sim::ProcessorId>>>
AtSpace::connection_table() const {
  std::vector<std::vector<std::optional<sim::ProcessorId>>> table(
      cfg_.banks, std::vector<std::optional<sim::ProcessorId>>(cfg_.banks));
  for (sim::Cycle t = 0; t < cfg_.banks; ++t) {
    for (sim::BankId q = 0; q < cfg_.banks; ++q) {
      table[t][q] = processor_at(t, q);
    }
  }
  return table;
}

bool AtSpace::verify_exclusive() const {
  for (sim::Cycle t = 0; t < cfg_.banks; ++t) {
    std::vector<bool> taken(cfg_.banks, false);
    for (sim::ProcessorId p = 0; p < cfg_.processors; ++p) {
      const auto q = bank_at(t, p);
      if (taken[q]) return false;
      taken[q] = true;
    }
  }
  return true;
}

}  // namespace cfm::core
