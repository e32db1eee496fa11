// Canonical forms of finite structures with marked tuples.
//
// The Theorem 5 search deduplicates small configurations up to isomorphism
// of (database, register valuation) pairs. A canonical form is its key:
// color refinement splits the elements into classes, and every ordering
// within every class is encoded straight into one key buffer, the smallest
// encoding winning. The one search, CanonicalizeSubset, reads a projection
// in place in the structure it sits in; no substructure or renamed
// structure is built, and DecodeCanonicalKey recovers the canonical one
// from the key where it is needed. At the sizes the algorithm produces
// (databases generated by the register contents) this is instantaneous.
#ifndef AMALGAM_BASE_CANONICAL_H_
#define AMALGAM_BASE_CANONICAL_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/ops.h"
#include "base/structure.h"

namespace amalgam {

/// The canonical form of a marked structure. Two inputs produce equal
/// `key`s iff there is an isomorphism between them mapping marks to marks
/// position-wise. The key is the canonically renamed marks
/// (AppendFullWidth varints), byte 0x01, then the renamed structure's
/// content bytes (base/structure.h), so it determines the canonical
/// structure and marks: DecodeCanonicalKey recovers them.
struct CanonicalForm {
  std::string key;
  /// The canonical renaming: element e of the input is element perm[e] of
  /// the canonical structure, and mark i is perm[marks[i]]. Needed to chase
  /// embeddings during witness reconstruction.
  std::vector<Elem> perm;
  /// Hash of `key` (HashRange over its bytes, so a key read back alone
  /// re-hashes to it), computed once at canonicalization time so interners
  /// and hash-consing maps never re-hash the key string.
  std::size_t hash = 0;
};

/// Canonicalizes the substructure of `s` on `scratch.subset` (sorted and
/// closed under the function symbols, renamed densely by
/// `scratch.old_to_new`, as ComputeGeneratedSubset leaves them) with the
/// marked tuple `marks` (elements of the subset, in s's ids; repetitions
/// allowed; the tuple need not cover the subset), reading `s` in place.
/// Leaves the key and its hash in `scratch.key` and `scratch.hash`, and the
/// canonical renaming in `scratch.perm`, indexed by s's ids: subset element
/// e is element perm[e] of the canonical structure. All buffers are the
/// scratch's, so once they have grown a call allocates nothing.
void CanonicalizeSubset(const Structure& s, std::span<const Elem> marks,
                        ProjectionScratch& scratch);

/// CanonicalizeSubset over the whole domain of `s`, in a fresh scratch.
CanonicalForm Canonicalize(const Structure& s, std::span<const Elem> marks);

/// Decodes a canonical key (CanonicalForm::key) of a structure over
/// `schema` with `num_marks` marks back into the canonical structure and
/// marks, writing each to its output when that is non-null; with both null
/// it only validates. Returns false on bytes no such key holds: a truncated
/// key or trailing bytes, a mark or function value outside the domain, a
/// relation entry other than 0 or 1, or a domain larger than the marks plus
/// the table bytes account for (every element of a generated structure is a
/// mark or a function value).
/// Well-formed bytes decode even when they are not a canonical key.
bool DecodeCanonicalKey(std::string_view key, const SchemaRef& schema,
                        std::size_t num_marks, Structure* structure,
                        std::vector<Elem>* marks);

}  // namespace amalgam

#endif  // AMALGAM_BASE_CANONICAL_H_
