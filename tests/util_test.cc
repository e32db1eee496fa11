// Unit tests for src/util: enumeration helpers and hashing.
#include <gtest/gtest.h>

#include <set>

#include "util/enumerate.h"
#include "util/hash.h"

namespace amalgam {
namespace {

TEST(EnumerateTest, SetPartitionCountsAreBellNumbers) {
  // Bell numbers: 1, 1, 2, 5, 15, 52, 203.
  const int bell[] = {1, 1, 2, 5, 15, 52, 203};
  for (int m = 0; m <= 6; ++m) {
    int count = 0;
    std::set<std::vector<int>> seen;
    ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
      ++count;
      EXPECT_TRUE(seen.insert(block_of).second) << "duplicate partition";
      // Restricted growth: block_of[i] <= max(prefix) + 1.
      int max_seen = -1;
      for (int b : block_of) {
        EXPECT_LE(b, max_seen + 1);
        max_seen = std::max(max_seen, b);
      }
    });
    EXPECT_EQ(count, bell[m]) << "m=" << m;
  }
}

TEST(EnumerateTest, PermutationsAndTuples) {
  int perms = 0;
  ForEachPermutation(4, [&](const std::vector<int>&) { ++perms; });
  EXPECT_EQ(perms, 24);
  int tuples = 0;
  ForEachTuple(3, 4, [&](const std::vector<int>&) { ++tuples; });
  EXPECT_EQ(tuples, 81);
  // Degenerate cases.
  int empty = 0;
  ForEachTuple(5, 0, [&](const std::vector<int>& t) {
    ++empty;
    EXPECT_TRUE(t.empty());
  });
  EXPECT_EQ(empty, 1);
  int none = 0;
  ForEachTuple(0, 2, [&](const std::vector<int>&) { ++none; });
  EXPECT_EQ(none, 0);
}

TEST(EnumerateTest, IntPowSaturates) {
  EXPECT_EQ(IntPow(2, 10), 1024u);
  EXPECT_EQ(IntPow(10, 0), 1u);
  EXPECT_EQ(IntPow(0, 0), 1u);
  EXPECT_EQ(IntPow(0, 5), 0u);
  EXPECT_EQ(IntPow(2, 64), UINT64_MAX);  // saturation
  EXPECT_EQ(IntPow(UINT64_MAX, 2), UINT64_MAX);
}

TEST(EnumerateTest, IntPowAgreesWithRepeatedMultiplication) {
  for (std::uint64_t base = 0; base <= 17; ++base) {
    std::uint64_t expected = 1;
    bool saturated = false;
    for (unsigned exp = 0; exp <= 70; ++exp) {
      EXPECT_EQ(IntPow(base, exp), saturated ? UINT64_MAX : expected)
          << base << "^" << exp;
      if (!saturated && base != 0 && expected > UINT64_MAX / base) {
        saturated = true;
      } else if (!saturated) {
        expected *= base;
      }
    }
  }
  EXPECT_EQ(IntPow(2, 63), std::uint64_t{1} << 63);  // the largest exact power
  EXPECT_EQ(IntPow(3, 40), 12157665459056928801u);   // exact, near the top
  EXPECT_EQ(IntPow(3, 41), UINT64_MAX);
  EXPECT_EQ(IntPow(UINT64_MAX, 1), UINT64_MAX);
  EXPECT_EQ(IntPow(std::uint64_t{1} << 32, 2), UINT64_MAX);
}

TEST(EnumerateTest, IntPowReturnsAtOnceForBaseZeroOrOne) {
  // A schema arity reaches the exponent straight from a request line; a
  // linear loop would take 2^31 steps here.
  const unsigned huge = 2147483647u;
  EXPECT_EQ(IntPow(1, huge), 1u);
  EXPECT_EQ(IntPow(1, 4294967295u), 1u);
  EXPECT_EQ(IntPow(0, huge), 0u);
  EXPECT_EQ(IntPow(0, 0), 1u);
  EXPECT_EQ(IntPow(1, 0), 1u);
  EXPECT_EQ(IntPow(2, huge), UINT64_MAX);
  EXPECT_EQ(IntPow(7, 4294967295u), UINT64_MAX);
}

TEST(HashTest, VectorHashDistinguishesAndAgrees) {
  VectorHash<int> h;
  std::vector<int> a = {1, 2, 3};
  std::vector<int> b = {1, 2, 3};
  std::vector<int> c = {3, 2, 1};
  EXPECT_EQ(h(a), h(b));
  EXPECT_NE(h(a), h(c));  // order matters (with overwhelming probability)
  std::vector<int> empty;
  EXPECT_EQ(h(empty), h(std::vector<int>{}));
}

}  // namespace
}  // namespace amalgam
