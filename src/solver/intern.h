// Canonical-form interning for the exploration engine.
//
// The engine deduplicates small configurations up to isomorphism of
// (database, register valuation) pairs: the substructure a member's marks
// generate (paper §4.1), interned by InternProjection. Canonicalization is
// the expensive step, so the interner memoizes on two levels:
//   * a raw-key memo: identical (projected content, marks) pairs show up
//     for many members, and skip canonicalization entirely;
//   * hash-consing of canonical forms: each distinct form is stored once in
//     an arena — as its canonical key alone, which determines it — and
//     addressed by a dense id, so all downstream comparisons (edge dedup,
//     reachability) are integer compares.
// Both maps are open-addressing flat tables (util/flat_hash.h) keyed by
// precomputed hashes (the key hash the canonical search returns with the
// key, and a one-pass hash of the raw bytes); key bytes are only compared
// within a probe chain, never re-hashed.
// Both maps only serve interning: Freeze releases them once a graph is
// complete, keeping the shape keys.
// Raw keys are (offset, length) spans into a bump arena owned by the
// interner, encoded straight off the member in a reusable buffer, and a
// miss canonicalizes the projection in place (CanonicalizeSubset) in the
// interner's scratch. No projection is materialized: a memo hit performs
// zero heap allocations, and a miss allocates only as the arenas grow.
//
// Ids are assigned in first-encounter order, so a sweep over a fixed member
// stream numbers its shapes deterministically.
#ifndef AMALGAM_SOLVER_INTERN_H_
#define AMALGAM_SOLVER_INTERN_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/canonical.h"
#include "base/ops.h"
#include "base/structure.h"
#include "util/flat_hash.h"

namespace amalgam {

/// An interned shape: its canonical key (CanonicalForm::key), which
/// determines the shape (DecodeCanonicalKey), and the key's hash
/// (HashRange over the key bytes, as CanonicalForm::hash is, so a shape
/// restored from the store hashes alike). `key` views the interner's
/// arena, so the next intern into that interner may invalidate it.
struct ShapeKey {
  std::string_view key;
  std::size_t hash = 0;
};

/// Interns canonical forms of marked structures into dense shape ids.
class ConfigInterner {
 public:
  /// Interns the canonical form of the substructure of `joint` generated by
  /// `marks` (elements of joint) and returns its dense id. A member its
  /// marks generate, as every initial member is, is its own projection.
  int InternProjection(const Structure& joint, std::span<const Elem> marks);

  /// Interns a canonical key (hash-consing only; the raw-key memo is not
  /// consulted or populated). Used to map a MemberTable's shapes into a
  /// graph and to seed a witness's scratch interner with a path's shapes.
  /// The key is copied into the arena only when it is genuinely new.
  int InternCanonical(ShapeKey canon);

  /// Rebuilds an empty interner from a persisted shape arena (ids are the
  /// positions in `keys`), so later interning calls dedup against the
  /// restored shapes and a resumed build numbers fresh shapes exactly where
  /// a never-suspended build would. The raw-key memo starts empty — it is
  /// a per-process accelerator and regrows as a resumed build re-projects
  /// members; only raw_hits() can differ from an unsuspended build.
  /// Returns false (leaving the interner unusable) when `keys` holds a
  /// duplicate or the interner is non-empty — both mean a corrupt payload,
  /// and the store loader falls back to a fresh build.
  bool RestoreShapes(std::span<const std::string_view> keys);

  /// Releases everything only interning reads: the hash-consing table, the
  /// raw-key memo with its arena, the scratch buffers, and the shape
  /// arena's slack. shape(), size() and raw_hits() keep working; nothing
  /// may be interned afterwards. A complete graph's interner is frozen.
  void Freeze();

  /// The interned shape with id `id`.
  ShapeKey shape(int id) const {
    const Slot& slot = shapes_[id];
    return ShapeKey{
        std::string_view(shape_arena_).substr(slot.offset, slot.length),
        slot.hash};
  }

  /// Number of distinct canonical forms interned so far.
  int size() const { return static_cast<int>(shapes_.size()); }

  /// Raw-key memo hits: canonicalizations skipped entirely.
  std::uint64_t raw_hits() const { return raw_hits_; }

  /// The bytes one shape adds to the interner beyond its key bytes.
  static constexpr std::size_t kBytesPerShape = 16;

 private:
  // One interned shape: its key's span in shape_arena_, and its hash.
  struct Slot {
    std::uint32_t offset;
    std::uint32_t length;
    std::size_t hash;
  };
  static_assert(sizeof(Slot) == kBytesPerShape);

  // Bump arena holding every shape's canonical key back to back; ids
  // index shapes_, whose slots index the arena.
  std::string shape_arena_;
  std::vector<Slot> shapes_;
  // Hash-consing table: entries are shape ids stored under their key's
  // hash; equality compares against the shape arena.
  FlatTable<std::int32_t> by_canonical_hash_;
  // Raw-key memo: entries are (offset, length) spans into raw_arena_ plus
  // the memoized id, stored under a one-pass hash of the key bytes.
  struct RawEntry {
    std::uint32_t offset;
    std::uint32_t length;
    std::int32_t id;
  };
  FlatTable<RawEntry> by_raw_hash_;
  // Bump arena holding every memoized raw key back to back; entries index
  // into it, so growth never invalidates them.
  std::string raw_arena_;
  // Reusable key-construction buffer: InternProjection builds its probe
  // key here, and only a miss copies it into the arena.
  std::string raw_scratch_;
  // Reusable projection and canonicalization buffers.
  ProjectionScratch scratch_;
  std::uint64_t raw_hits_ = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_INTERN_H_
