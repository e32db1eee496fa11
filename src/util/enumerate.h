// Small combinatorial enumeration helpers used by the Fraïssé-class
// generated-structure enumerators and the canonicalizer.
#ifndef AMALGAM_UTIL_ENUMERATE_H_
#define AMALGAM_UTIL_ENUMERATE_H_

#include <algorithm>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

namespace amalgam {

/// Calls `cb(block_of)` for every set partition of {0..m-1}. `block_of[i]`
/// is the block index of element i; blocks are numbered in order of first
/// appearance (restricted growth strings), so each partition is produced
/// exactly once. `cb` may return void.
inline void ForEachSetPartition(
    int m, const std::function<void(const std::vector<int>&)>& cb) {
  if (m == 0) {
    std::vector<int> empty;
    cb(empty);
    return;
  }
  std::vector<int> block_of(m, 0);
  // Restricted growth string: block_of[0] = 0, block_of[i] <= max(prefix)+1.
  std::function<void(int, int)> rec = [&](int i, int max_used) {
    if (i == m) {
      cb(block_of);
      return;
    }
    for (int b = 0; b <= max_used + 1; ++b) {
      block_of[i] = b;
      rec(i + 1, std::max(max_used, b));
    }
  };
  block_of[0] = 0;
  rec(1, 0);
}

/// Calls `cb(perm)` for every permutation of {0..n-1}.
inline void ForEachPermutation(
    int n, const std::function<void(const std::vector<int>&)>& cb) {
  std::vector<int> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  do {
    cb(perm);
  } while (std::next_permutation(perm.begin(), perm.end()));
}

/// Calls `cb(tuple)` for every tuple in {0..base-1}^len (odometer order).
inline void ForEachTuple(
    int base, int len, const std::function<void(const std::vector<int>&)>& cb) {
  if (len == 0) {
    cb(std::vector<int>());
    return;
  }
  if (base == 0) return;  // no tuples: allocate nothing of length `len`
  std::vector<int> tuple(len, 0);
  while (true) {
    cb(tuple);
    int i = len - 1;
    while (i >= 0 && tuple[i] == base - 1) {
      tuple[i] = 0;
      --i;
    }
    if (i < 0) break;
    ++tuple[i];
  }
}

/// Integer power with 64-bit result; saturates at UINT64_MAX on overflow.
/// Squares and multiplies, so it takes O(log exp) steps: the exponent can
/// be a schema arity straight from a request line.
inline std::uint64_t IntPow(std::uint64_t base, unsigned exp) {
  if (base <= 1) return exp == 0 ? 1 : base;
  std::uint64_t result = 1;
  for (;;) {
    if (exp & 1) {
      if (result > UINT64_MAX / base) return UINT64_MAX;
      result *= base;
    }
    exp >>= 1;
    if (exp == 0) return result;
    // A remaining factor of at least base^2 overflows with it.
    if (base > UINT64_MAX / base) return UINT64_MAX;
    base *= base;
  }
}

}  // namespace amalgam

#endif  // AMALGAM_UTIL_ENUMERATE_H_
