// Unit tests for the canonical-form interner: permutation invariance,
// collision (distinct shapes never merge), raw-key memoization, the
// memo-hit zero-allocation contract, and the precomputed CanonicalForm
// hash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>

#include "base/canonical.h"
#include "fraisse/relational.h"
#include "solver/intern.h"
#include "system/zoo.h"
#include "util/hash.h"

// Counting replacements for the global allocation functions: the
// MemoHitAllocatesNothing test below asserts the interner's hot path stays
// off the heap, and a counter hook is the only way to observe that.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace amalgam {
namespace {

// A small graph: 0 -> 1 -> 2, red(1).
Structure PathGraph() {
  Structure g(GraphZooSchema(), 3);
  g.SetHolds2(0, 0, 1);
  g.SetHolds2(0, 1, 2);
  g.SetHolds1(1, 1);
  return g;
}

TEST(InternTest, PermutationInvariance) {
  // Interning a structure and any renaming of it (with marks renamed the
  // same way) yields the same id.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {0, 2};
  const int id = interner.Intern(g, marks);

  std::vector<Elem> perms[] = {{1, 2, 0}, {2, 0, 1}, {2, 1, 0}, {0, 2, 1}};
  for (const auto& perm : perms) {
    Structure renamed = g.ApplyPermutation(perm);
    std::vector<Elem> renamed_marks = {perm[0], perm[2]};
    EXPECT_EQ(interner.Intern(renamed, renamed_marks), id)
        << "isomorphic marked structures interned to different ids";
  }
  EXPECT_EQ(interner.size(), 1);
}

TEST(InternTest, MarkPositionsDistinguish) {
  // Same structure, marks swapped: NOT isomorphic as marked structures
  // (the marked tuple is matched position-wise), so ids differ.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> forward = {0, 2};
  std::vector<Elem> backward = {2, 0};
  EXPECT_NE(interner.Intern(g, forward), interner.Intern(g, backward));
  EXPECT_EQ(interner.size(), 2);
}

TEST(InternTest, DistinctShapesNeverCollide) {
  // Sweep every graph on <= 2 marked nodes; distinct canonical keys must
  // map to distinct dense ids even when bucketed by hash, and re-interning
  // the same sweep must not grow the arena.
  ConfigInterner interner;
  AllStructuresClass cls(GraphZooSchema());
  std::set<std::string> keys;
  for (int round = 0; round < 2; ++round) {
    cls.EnumerateGenerated(2, [&](const Structure& s,
                                  std::span<const Elem> marks) {
      const int id = interner.Intern(s, marks);
      keys.insert(std::string(interner.shape(id).key));
      // The id round-trips: interning the shape its key decodes to gives
      // the same id.
      Structure decoded(s.schema_ref(), 0);
      std::vector<Elem> decoded_marks;
      ASSERT_TRUE(DecodeCanonicalKey(interner.shape(id).key, s.schema_ref(),
                                     marks.size(), &decoded, &decoded_marks));
      EXPECT_EQ(interner.Intern(decoded, decoded_marks), id);
    });
    EXPECT_EQ(static_cast<std::size_t>(interner.size()), keys.size())
        << "arena size diverged from the number of distinct canonical keys";
  }
}

TEST(InternTest, RawMemoSkipsRecanonicalization) {
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {0, 1};
  EXPECT_EQ(interner.raw_hits(), 0u);
  int a = interner.Intern(g, marks);
  int b = interner.Intern(g, marks);
  EXPECT_EQ(a, b);
  EXPECT_EQ(interner.raw_hits(), 1u);
}

TEST(InternTest, MemoHitAllocatesNothing) {
  // The sweep's steady state: every projection the hot loop interns is a
  // raw-memo hit. The direct key encoder plus the arena-backed memo must
  // serve such a hit without touching the heap at all — key construction
  // reuses the scratch buffer, the probe compares in place, and no
  // substructure is materialized.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {1, 2};
  // Warm: the first call misses, canonicalizes, and sizes every scratch
  // buffer; everything after is the steady state under test.
  const int hit = interner.InternProjection(g, marks);
  const std::uint64_t hits_before = interner.raw_hits();

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  int repeated = -1;
  for (int i = 0; i < 100; ++i) {
    repeated = interner.InternProjection(g, marks);
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;

  EXPECT_EQ(repeated, hit);
  EXPECT_EQ(interner.raw_hits(), hits_before + 100);
  EXPECT_EQ(allocs, 0u) << "memo-hit InternProjection touched the heap";
}

TEST(InternTest, ProjectionMatchesDirectIntern) {
  // InternProjection(joint, marks) must equal interning the generated
  // substructure directly.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {1, 2};
  const int via_projection = interner.InternProjection(g, marks);
  SubstructureResult sub = GeneratedSubstructure(g, marks);
  std::vector<Elem> sub_marks = {sub.old_to_new[1], sub.old_to_new[2]};
  const int direct = interner.Intern(sub.structure, sub_marks);
  EXPECT_EQ(via_projection, direct);
}

TEST(CanonicalHashTest, HashIsPrecomputedAndIsomorphismInvariant) {
  Structure g = PathGraph();
  std::vector<Elem> marks = {0, 2};
  CanonicalForm a = Canonicalize(g, marks);
  EXPECT_NE(a.hash, 0u);
  // Restored and witness shapes re-hash their keys the same way.
  EXPECT_EQ(a.hash, HashRange(a.key.begin(), a.key.end()));

  std::vector<Elem> perm = {2, 0, 1};
  Structure renamed = g.ApplyPermutation(perm);
  std::vector<Elem> renamed_marks = {perm[0], perm[2]};
  CanonicalForm b = Canonicalize(renamed, renamed_marks);
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.hash, b.hash);
}

}  // namespace
}  // namespace amalgam
