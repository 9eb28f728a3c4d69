#include "nfv/common/flat_map.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace nfv {
namespace {

std::vector<std::uint32_t> keys(const FlatMap<std::uint32_t, std::string>& m) {
  std::vector<std::uint32_t> out;
  for (const auto& [k, v] : m) out.push_back(k);
  return out;
}

TEST(FlatMap, IteratesInAscendingKeyOrderWhateverTheInsertOrder) {
  // The serve engine's snapshots and checkpoints iterate live requests in
  // ascending id order, and a checkpoint may list them in any order.
  FlatMap<std::uint32_t, std::string> m;
  for (const std::uint32_t k : {7u, 2u, 9u, 4u, 0u}) {
    EXPECT_TRUE(m.emplace(k, std::to_string(k)).second);
  }
  EXPECT_EQ(keys(m), (std::vector<std::uint32_t>{0, 2, 4, 7, 9}));
  EXPECT_EQ(m.size(), 5u);
}

TEST(FlatMap, EmplaceKeepsTheExistingEntryOnADuplicateKey) {
  FlatMap<std::uint32_t, std::string> m;
  m.emplace(3, "first");
  const auto [it, inserted] = m.emplace(3, "second");
  EXPECT_FALSE(inserted);
  EXPECT_EQ(it->second, "first");
  EXPECT_EQ(m.size(), 1u);
}

TEST(FlatMap, FindCountAtAndEraseAgree) {
  FlatMap<std::uint32_t, std::string> m;
  for (const std::uint32_t k : {1u, 5u, 8u}) m.emplace(k, std::to_string(k));
  EXPECT_EQ(m.count(5), 1u);
  EXPECT_EQ(m.count(6), 0u);
  EXPECT_EQ(m.find(6), m.end());
  EXPECT_EQ(m.at(8), "8");
  EXPECT_THROW((void)m.at(6), std::out_of_range);
  EXPECT_EQ(m.erase(5), 1u);
  EXPECT_EQ(m.erase(5), 0u);
  m.erase(m.find(1));
  EXPECT_EQ(keys(m), (std::vector<std::uint32_t>{8}));
  m.clear();
  EXPECT_EQ(m.size(), 0u);
}

}  // namespace
}  // namespace nfv
