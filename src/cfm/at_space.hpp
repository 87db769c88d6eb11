// The AT-space (address-time space) mapping — the heart of CFM (§3.1).
//
// At time slot t, processor p's address path is connected to memory bank
//
//     bank(t, p) = (t + c*p) mod b          (Table 3.1 for c=2, n=4, b=8)
//
// A block access issued at slot t0 therefore delivers its address to bank
// (t0 + j + c*p) mod b at slot t0 + j, for j = 0..b-1, and the word from
// that bank moves on the data path c-1 slots later (the data connections
// are "similar but shifted", §3.1.3; Fig 3.6).  Because p appears scaled
// by c, the n processors occupy disjoint banks at every slot — the
// mutually exclusive AT-space partition of Fig 3.3.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "cfm/config.hpp"
#include "sim/types.hpp"

namespace cfm::core {

class AtSpace {
 public:
  /// Cap on the dense schedule table (b x n bank ids, 2n² at c = 2):
  /// 2896 processors fit at c = 2, 4096 at c = 1.
  static constexpr std::uint64_t kMaxTableBytes = std::uint64_t{64} << 20;

  /// Throws std::invalid_argument for an invalid config or one whose
  /// table exceeds kMaxTableBytes, naming processors, banks and bytes.
  explicit AtSpace(const CfmConfig& cfg) : cfg_(cfg) {
    cfg_.validate();
    check_table_size(cfg_);
    // The schedule is periodic in b slots, so the whole connection
    // pattern densifies into one b x n table; the hot per-op lookup
    // becomes one modulo (shared by every processor the same slot) and
    // one indexed load instead of a widening multiply + modulo.
    table_.resize(static_cast<std::size_t>(cfg_.banks) * cfg_.processors);
    for (std::uint32_t s = 0; s < cfg_.banks; ++s) {
      for (std::uint32_t p = 0; p < cfg_.processors; ++p) {
        table_[static_cast<std::size_t>(s) * cfg_.processors + p] =
            static_cast<sim::BankId>(
                (s + static_cast<sim::Cycle>(cfg_.bank_cycle) * p) %
                cfg_.banks);
      }
    }
  }

  [[nodiscard]] const CfmConfig& config() const noexcept { return cfg_; }

  /// Bank whose *address path* is connected to processor p at slot t.
  [[nodiscard]] sim::BankId bank_at(sim::Cycle t, sim::ProcessorId p) const noexcept {
    return table_[static_cast<std::size_t>(t % cfg_.banks) * cfg_.processors +
                  p];
  }

  /// Processor connected to `bank` at slot t, if any.  With c > 1 only
  /// n of the b banks receive a new address each slot; the rest are in
  /// the middle of a c-cycle word access.
  [[nodiscard]] std::optional<sim::ProcessorId> processor_at(
      sim::Cycle t, sim::BankId bank) const noexcept;

  /// The j-th bank visited by a block access issued by p at slot t0.
  [[nodiscard]] sim::BankId visit_bank(sim::Cycle t0, sim::ProcessorId p,
                                       std::uint32_t j) const noexcept {
    return bank_at(t0 + j, p);
  }

  /// Slot at which word j's data crosses the data path (Fig 3.6: one bank
  /// cycle after the address is delivered).
  [[nodiscard]] sim::Cycle data_slot(sim::Cycle t0, std::uint32_t j) const noexcept {
    return t0 + j + cfg_.bank_cycle - 1;
  }

  /// First cycle at which the whole block access is complete:
  /// t0 + beta, with beta = b + c - 1.
  [[nodiscard]] sim::Cycle completion(sim::Cycle t0) const noexcept {
    return t0 + cfg_.block_access_time();
  }

  /// Table 3.1: for each slot of one time period (b slots), which
  /// processor's address path is connected to each bank (nullopt = idle).
  [[nodiscard]] std::vector<std::vector<std::optional<sim::ProcessorId>>>
  connection_table() const;

  /// True iff the schedule partitions AT-space into mutually exclusive
  /// per-processor subsets: no slot connects two processors to one bank.
  [[nodiscard]] bool verify_exclusive() const;

 private:
  static void check_table_size(const CfmConfig& cfg);

  CfmConfig cfg_;
  /// bank(t, p) for t in [0, b), p in [0, n): row-major (slot, processor).
  std::vector<sim::BankId> table_;
};

}  // namespace cfm::core
