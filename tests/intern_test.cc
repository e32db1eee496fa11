// Unit tests for the canonical-form interner: permutation invariance,
// collision (distinct shapes never merge), raw-key memoization, the
// memo-hit zero-allocation contract, the cold-miss allocation bound, and
// the precomputed CanonicalForm hash.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <set>
#include <string>
#include <vector>

#include "base/canonical.h"
#include "base/ops.h"
#include "fraisse/relational.h"
#include "solver/intern.h"
#include "system/zoo.h"
#include "util/hash.h"

// Counting replacements for the global allocation functions: the
// MemoHitAllocatesNothing and ColdInternAllocatesAtMostFourPerMember tests
// below bound the interner's heap traffic, and a counter hook is the only
// way to observe that.
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
  // same way) yields the same id. The marks generate the structure, so the
  // projection is the whole of it.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {0, 2, 1};
  const int id = interner.InternProjection(g, marks);

  std::vector<Elem> perms[] = {{1, 2, 0}, {2, 0, 1}, {2, 1, 0}, {0, 2, 1}};
  for (const auto& perm : perms) {
    Structure renamed = g.ApplyPermutation(perm);
    std::vector<Elem> renamed_marks = {perm[0], perm[2], perm[1]};
    EXPECT_EQ(interner.InternProjection(renamed, renamed_marks), id)
        << "isomorphic marked structures interned to different ids";
  }
  EXPECT_EQ(interner.size(), 1);
}

TEST(InternTest, MarkPositionsDistinguish) {
  // Same structure, end marks swapped: NOT isomorphic as marked structures
  // (the marked tuple is matched position-wise), so ids differ.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> forward = {0, 2, 1};
  std::vector<Elem> backward = {2, 0, 1};
  EXPECT_NE(interner.InternProjection(g, forward),
            interner.InternProjection(g, backward));
  EXPECT_EQ(interner.size(), 2);
}

TEST(InternTest, DistinctShapesNeverCollide) {
  // Sweep every graph on <= 2 marked nodes (each generated by its marks);
  // distinct canonical keys must map to distinct dense ids even when
  // bucketed by hash, and re-interning the same sweep must not grow the
  // arena.
  ConfigInterner interner;
  AllStructuresClass cls(GraphZooSchema());
  std::set<std::string> keys;
  for (int round = 0; round < 2; ++round) {
    cls.EnumerateGenerated(2, [&](const Structure& s,
                                  std::span<const Elem> marks) {
      const int id = interner.InternProjection(s, marks);
      keys.insert(std::string(interner.shape(id).key));
      // The id round-trips: interning the shape its key decodes to gives
      // the same id.
      Structure decoded(s.schema_ref(), 0);
      std::vector<Elem> decoded_marks;
      ASSERT_TRUE(DecodeCanonicalKey(interner.shape(id).key, s.schema_ref(),
                                     marks.size(), &decoded, &decoded_marks));
      EXPECT_EQ(interner.InternProjection(decoded, decoded_marks), id);
    });
    EXPECT_EQ(static_cast<std::size_t>(interner.size()), keys.size())
        << "arena size diverged from the number of distinct canonical keys";
  }
}

TEST(InternTest, RawMemoSkipsRecanonicalization) {
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {0, 1, 2};
  EXPECT_EQ(interner.raw_hits(), 0u);
  int a = interner.InternProjection(g, marks);
  int b = interner.InternProjection(g, marks);
  EXPECT_EQ(a, b);
  EXPECT_EQ(interner.raw_hits(), 1u);
}

TEST(InternTest, ColdInternAllocatesAtMostFourPerMember) {
  // A fresh interner over the E/red joint stream at m = 2: every member is
  // a distinct shape, so each one misses the raw memo and is canonicalized.
  // The projection is canonicalized where it sits, in the interner's
  // scratch, so once the buffers have grown a miss allocates only for the
  // arenas and tables it appends to.
  AllStructuresClass cls(GraphZooSchema());
  struct Member {
    Structure s;
    std::vector<Elem> marks;
  };
  std::vector<Member> members;
  cls.EnumerateGenerated(
      2, [&](const Structure& s, std::span<const Elem> marks) {
        members.push_back(Member{s, {marks.begin(), marks.end()}});
      });
  ASSERT_EQ(members.size(), 68u);

  const std::uint64_t before = g_heap_allocs.load(std::memory_order_relaxed);
  {
    ConfigInterner cold;
    for (const Member& m : members) cold.InternProjection(m.s, m.marks);
    EXPECT_EQ(cold.raw_hits(), 0u);
  }
  const std::uint64_t allocs =
      g_heap_allocs.load(std::memory_order_relaxed) - before;
  EXPECT_LE(allocs, 4 * members.size())
      << allocs << " allocations over " << members.size() << " members";
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
  // InternProjection(joint, marks) must equal interning the reference
  // generated substructure, which its renamed marks generate — in the same
  // interner (where its raw key is the projection's) and, by canonical
  // key, in a fresh one that must canonicalize it.
  ConfigInterner interner;
  Structure g = PathGraph();
  std::vector<Elem> marks = {1, 2};
  const int via_projection = interner.InternProjection(g, marks);
  SubstructureResult sub = GeneratedSubstructure(g, marks);
  std::vector<Elem> sub_marks = {sub.old_to_new[1], sub.old_to_new[2]};
  const int direct = interner.InternProjection(sub.structure, sub_marks);
  EXPECT_EQ(via_projection, direct);
  ConfigInterner fresh;
  const int fresh_id = fresh.InternProjection(sub.structure, sub_marks);
  EXPECT_EQ(fresh.raw_hits(), 0u);
  EXPECT_EQ(fresh.shape(fresh_id).key, interner.shape(via_projection).key);
  EXPECT_EQ(fresh.shape(fresh_id).hash, interner.shape(via_projection).hash);
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
