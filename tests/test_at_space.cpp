// Tests for the AT-space mapping, including the paper's Table 3.1.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>

#include "cfm/at_space.hpp"

namespace {

using namespace cfm::core;
using cfm::sim::Cycle;

TEST(AtSpace, SimpleMappingC1) {
  // Fig 3.3: at slot t, processor p accesses bank (t + p) mod 4.
  AtSpace at(CfmConfig::make(4, 1));
  EXPECT_EQ(at.bank_at(0, 0), 0u);
  EXPECT_EQ(at.bank_at(0, 3), 3u);
  EXPECT_EQ(at.bank_at(2, 3), 1u);
  EXPECT_EQ(at.bank_at(5, 2), 3u);
}

TEST(AtSpace, Table31AddressPathConnections) {
  // Table 3.1: c=2, n=4, b=8; at slot t processor p is connected to bank
  // (t + 2p) mod 8.  Spot-check the table's structure: at slot 0 the even
  // banks are P0..P3, at slot 1 the odd banks are P0..P3, and bank 0
  // serves P0 at slots 0-1, P3 at slots 2-3, P2 at 4-5, P1 at 6-7.
  AtSpace at(CfmConfig::make(4, 2));
  const auto table = at.connection_table();
  ASSERT_EQ(table.size(), 8u);
  for (std::uint32_t p = 0; p < 4; ++p) {
    EXPECT_EQ(table[0][2 * p], p);
    EXPECT_FALSE(table[0][2 * p + 1].has_value());
    EXPECT_EQ(table[1][(2 * p + 1) % 8], p);
  }
  EXPECT_EQ(table[2][0], 3u);
  EXPECT_EQ(table[4][0], 2u);
  EXPECT_EQ(table[6][0], 1u);
}

TEST(AtSpace, ProcessorAtInvertsBankAt) {
  AtSpace at(CfmConfig::make(4, 2));
  for (Cycle t = 0; t < 16; ++t) {
    for (std::uint32_t p = 0; p < 4; ++p) {
      const auto bank = at.bank_at(t, p);
      const auto back = at.processor_at(t, bank);
      ASSERT_TRUE(back.has_value());
      EXPECT_EQ(*back, p);
    }
  }
}

TEST(AtSpace, IdleBanksHaveNoProcessor) {
  AtSpace at(CfmConfig::make(4, 2));
  // At slot 0 the odd banks are mid-cycle (no new address).
  for (const std::uint32_t bank : {1u, 3u, 5u, 7u}) {
    EXPECT_FALSE(at.processor_at(0, bank).has_value());
  }
}

TEST(AtSpace, TourVisitsEveryBankOnce) {
  AtSpace at(CfmConfig::make(4, 2));
  for (std::uint32_t p = 0; p < 4; ++p) {
    std::vector<bool> seen(8, false);
    for (std::uint32_t j = 0; j < 8; ++j) {
      const auto bank = at.visit_bank(3, p, j);
      EXPECT_FALSE(seen[bank]);
      seen[bank] = true;
    }
  }
}

TEST(AtSpace, TimingMatchesFig36) {
  // Fig 3.6: read issued at slot 0 (c=2) -> data from banks 0 and 1 at
  // slots 1 and 2; full completion at t0 + beta.
  AtSpace at(CfmConfig::make(4, 2));
  EXPECT_EQ(at.data_slot(0, 0), 1u);
  EXPECT_EQ(at.data_slot(0, 1), 2u);
  EXPECT_EQ(at.completion(0), 9u);   // beta = 8 + 2 - 1
  EXPECT_EQ(at.completion(5), 14u);  // non-stall start at any slot
}

// The dense b x n table is capped: a machine past the cap is refused
// with a message naming its size instead of dying in the allocator.
TEST(AtSpace, OversizedTableIsRejectedWithItsSize) {
  try {
    AtSpace at(CfmConfig::make(100000, 2));
    ADD_FAILURE() << "a 2 x 10^10-entry table was accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("100000 processors"), std::string::npos) << what;
    EXPECT_NE(what.find("200000 banks"), std::string::npos) << what;
    EXPECT_NE(what.find("80000000000-byte"), std::string::npos) << what;
  }
  EXPECT_THROW(AtSpace(CfmConfig::make(4000000000u, 1)),
               std::invalid_argument);
  // At c = 2 the cap sits between n = 2896 and n = 2897.
  EXPECT_LE(std::uint64_t{2 * 2896} * 2896 * sizeof(cfm::sim::BankId),
            AtSpace::kMaxTableBytes);
  EXPECT_THROW(AtSpace(CfmConfig::make(2897, 2)), std::invalid_argument);
  // b = c * n must not wrap 32 bits into a "conflict-free" config.
  EXPECT_THROW((void)CfmConfig::make(4000000000u, 2), std::invalid_argument);
}

class AtSpaceExclusivity
    : public ::testing::TestWithParam<std::pair<std::uint32_t, std::uint32_t>> {};

TEST_P(AtSpaceExclusivity, MutuallyExclusivePartition) {
  const auto [n, c] = GetParam();
  AtSpace at(CfmConfig::make(n, c));
  EXPECT_TRUE(at.verify_exclusive());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, AtSpaceExclusivity,
    ::testing::Values(std::make_pair(2u, 1u), std::make_pair(4u, 1u),
                      std::make_pair(4u, 2u), std::make_pair(8u, 2u),
                      std::make_pair(8u, 4u), std::make_pair(16u, 2u),
                      std::make_pair(32u, 1u), std::make_pair(13u, 3u)));

}  // namespace
