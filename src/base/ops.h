// Structure operations: induced substructures, generated substructures
// (closure under function symbols), disjoint unions, free amalgamation,
// embedding / homomorphism search. Paper §2 and §4.1.
#ifndef AMALGAM_BASE_OPS_H_
#define AMALGAM_BASE_OPS_H_

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/structure.h"

namespace amalgam {

/// A substructure together with the renaming from old element ids to new
/// dense ids (kNoElem for dropped elements).
struct SubstructureResult {
  Structure structure;
  std::vector<Elem> old_to_new;  // size = old domain; kNoElem if dropped
  std::vector<Elem> new_to_old;  // size = new domain
};

/// Returns the closure of `seeds` under all function symbols, as a sorted
/// list of distinct elements. This is the least generating superset
/// (paper §4.1: "S generates C if there is no proper substructure containing
/// S").
std::vector<Elem> GeneratedSubset(const Structure& s,
                                  std::span<const Elem> seeds);

/// Induced substructure on `subset` (sorted, distinct, and closed under
/// functions — asserts otherwise). It and GeneratedSubstructure materialize
/// projections, which the library reads in place instead, so they have no
/// library caller: they are the reference its tests compare against.
SubstructureResult Restrict(const Structure& s, std::span<const Elem> subset);

/// Substructure generated by `seeds` = Restrict(s, GeneratedSubset(s, seeds)).
SubstructureResult GeneratedSubstructure(const Structure& s,
                                         std::span<const Elem> seeds);

/// Reusable buffers for the allocation-free projection helpers below and
/// CanonicalizeSubset (base/canonical.h). Owned by the caller (one per
/// interner / per thread); every buffer keeps its capacity across calls, so
/// steady-state use performs zero allocations.
struct ProjectionScratch {
  std::vector<Elem> subset;       // sorted generated subset (old ids)
  std::vector<Elem> old_to_new;   // old id -> dense new id (kNoElem if out)
  std::vector<Elem> args;         // argument-tuple scratch
  // CanonicalizeSubset's refinement rows and colors (by subset position),
  // candidate orderings and key buffer, then its result: the key, its hash
  // and the canonical renaming (by the structure's ids).
  std::vector<int> sig, color, refined;
  std::vector<Elem> rows, order, best_order;
  std::string candidate;
  std::string key;
  std::size_t hash = 0;
  std::vector<Elem> perm;
};

/// GeneratedSubset into caller-owned buffers: fills `scratch.subset` with
/// the sorted closure of `seeds` under the function symbols and
/// `scratch.old_to_new` with the dense renaming Restrict would use.
void ComputeGeneratedSubset(const Structure& s, std::span<const Elem> seeds,
                            ProjectionScratch& scratch);

/// Appends to `out` the content bytes (base/structure.h) of the structure
/// whose element i is element order[i] of `s`, without materializing it.
/// `order` lists distinct elements of `s` closed under the function symbols,
/// and old_to_new[order[i]] == i. With ComputeGeneratedSubset's `subset` and
/// `old_to_new` these are the bytes `Restrict(s, subset)` encodes to, so the
/// interner's raw-key memo probes projected joint members without building
/// them; with a reordering of such a subset and its position map they are
/// the bytes of the projection renamed by that order, which is how
/// CanonicalizeSubset encodes its candidates. `scratch` is caller-owned.
void AppendRenamedContent(const Structure& s, std::span<const Elem> order,
                          std::span<const Elem> old_to_new,
                          std::vector<Elem>& scratch, std::string& out);

/// Disjoint union. Elements of `a` keep their ids; elements of `b` are
/// shifted by a.size(). Function values on argument tuples that mix the two
/// parts are set to the first argument (the library-wide encoding of
/// "undefined", matching the paper's self-loop convention for partial
/// pointers). The schema must contain no constants (0-ary functions).
Structure DisjointUnion(const Structure& a, const Structure& b);

/// Result of amalgamation: the amalgam plus the two embeddings.
struct AmalgamResult {
  Structure structure;
  std::vector<Elem> embed_a;  // a-element -> amalgam element
  std::vector<Elem> embed_b;  // b-element -> amalgam element
};

/// Free amalgam of `a` and `b` over a common part. `b_to_a[e]` maps elements
/// of `b` that belong to the common part to the corresponding element of
/// `a` (kNoElem for elements only in `b`). The common part must induce
/// isomorphic substructures (checked with assertions in debug builds).
/// Relations are the union of both sides; no cross tuples are added.
/// Function values with mixed-part argument tuples default to the first
/// argument. Classes needing a completion (transitive closures, order
/// extensions) post-process the result.
AmalgamResult FreeAmalgam(const Structure& a, const Structure& b,
                          std::span<const Elem> b_to_a);

/// Searches for an embedding of `a` into `b` (injective strong homomorphism
/// whose image is closed under functions). `fixed` optionally pre-assigns
/// images for a prefix of a's elements (kNoElem = unassigned). Returns the
/// full image map, or nullopt.
std::optional<std::vector<Elem>> FindEmbedding(
    const Structure& a, const Structure& b,
    std::span<const Elem> fixed = {});

/// Searches for a homomorphism of `a` into `b` (preserves relations and
/// functions; not necessarily injective; need not reflect relations).
std::optional<std::vector<Elem>> FindHomomorphism(const Structure& a,
                                                  const Structure& b);

/// True if the two structures are isomorphic (equal domain sizes and an
/// embedding exists; an embedding between equal-sized finite structures is
/// onto, hence an isomorphism).
bool AreIsomorphic(const Structure& a, const Structure& b);

/// True if `base` is a prefix of `extended` symbol-by-symbol (ids aligned).
bool IsPrefixSchema(const Schema& base, const Schema& extended);

/// Projects a structure over an extended schema down to a prefix schema:
/// `base` must be symbol-by-symbol a prefix of s.schema() (same ids). Used
/// by semi-Fraïssé lifts (Lemma 6): systems over the base schema run
/// unchanged over the extension.
Structure ProjectToPrefixSchema(const Structure& s, const SchemaRef& base);

}  // namespace amalgam

#endif  // AMALGAM_BASE_OPS_H_
