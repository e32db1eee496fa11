// Hashing helpers shared across the library.
#ifndef AMALGAM_UTIL_HASH_H_
#define AMALGAM_UTIL_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

namespace amalgam {

/// Combines a hash value into a running seed (boost::hash_combine recipe).
inline void HashCombine(std::size_t& seed, std::size_t value) {
  seed ^= value + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2);
}

/// Finalizing 64-bit mixer (splitmix64). Open-addressing tables probe by
/// hash bits directly, so near-sequential keys (packed shape-id pairs,
/// dense ids) must be scattered before use; this is the standard full
/// avalanche finalizer.
inline std::uint64_t HashU64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The 64-bit FNV-1a hash of `bytes`: stable across runs and machines, so
/// it names store files (GraphStore::PathFor), checksums their payloads,
/// and identifies a graph key in the recent-query log.
inline std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // the offset basis
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Hashes a contiguous range of integral values.
template <typename It>
std::size_t HashRange(It first, It last) {
  std::size_t seed = 0xcbf29ce484222325ULL;
  for (; first != last; ++first) {
    HashCombine(seed, std::hash<std::uint64_t>{}(
                          static_cast<std::uint64_t>(*first)));
  }
  return seed;
}

/// Hash functor for std::vector of integral values; usable as the Hash
/// template argument of unordered containers.
template <typename T>
struct VectorHash {
  std::size_t operator()(const std::vector<T>& v) const {
    return HashRange(v.begin(), v.end());
  }
};

}  // namespace amalgam

#endif  // AMALGAM_UTIL_HASH_H_
