#include "cfm/config.hpp"

#include <cstdint>
#include <stdexcept>
#include <string>

namespace cfm::core {

void CfmConfig::validate() const {
  if (processors == 0 || banks == 0 || word_bits == 0 || bank_cycle == 0) {
    throw std::invalid_argument("CfmConfig fields must be nonzero");
  }
  if (!conflict_free()) {
    throw std::invalid_argument(
        "conflict-free CFM requires banks == bank_cycle * processors");
  }
}

CfmConfig CfmConfig::make(std::uint32_t processors, std::uint32_t bank_cycle,
                          std::uint32_t word_bits) {
  const std::uint64_t banks = std::uint64_t{bank_cycle} * processors;
  if (banks > UINT32_MAX) {
    throw std::invalid_argument(
        std::to_string(processors) + " processors at bank cycle " +
        std::to_string(bank_cycle) + " need " + std::to_string(banks) +
        " banks, past the 32-bit bank count");
  }
  CfmConfig cfg;
  cfg.processors = processors;
  cfg.bank_cycle = bank_cycle;
  cfg.word_bits = word_bits;
  cfg.banks = bank_cycle * processors;
  cfg.validate();
  return cfg;
}

std::vector<ConfigTradeoff> enumerate_tradeoffs(std::uint32_t block_bits,
                                                std::uint32_t bank_cycle) {
  if (block_bits == 0 || bank_cycle == 0) {
    throw std::invalid_argument("block_bits and bank_cycle must be nonzero");
  }
  std::vector<ConfigTradeoff> rows;
  // Table 3.3 walks b from l (1-bit words) halving until n = b/c reaches 0.
  for (std::uint32_t b = block_bits; b >= 1; b /= 2) {
    if (block_bits % b != 0) continue;
    if (b / bank_cycle == 0) break;  // fewer banks than cycle: no processors
    ConfigTradeoff row;
    row.banks = b;
    row.word_bits = block_bits / b;
    row.memory_latency = b + bank_cycle - 1;
    row.processors = b / bank_cycle;
    rows.push_back(row);
    if (b == 1) break;
  }
  return rows;
}

}  // namespace cfm::core
