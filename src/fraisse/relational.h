// Relational Fraïssé classes and their positioned member streams.
//
// For a purely relational schema, the substructure generated by a tuple of
// marks is simply the restriction to the marked elements, so every
// m-generated member has at most m elements. Moreover, enumerating marked
// structures whose elements are numbered by first occurrence in the mark
// tuple produces every isomorphism class exactly once: an isomorphism of
// marked structures is the identity whenever every element carries a mark.
//
// Each class's stream is a product grid — the set partitions of the marks
// (restricted growth strings, lexicographic) times a per-partition inner
// space — walked by rank/unrank cursors, so a stream position decodes
// straight into a grid cell. The reference nests the cursors are checked
// against live in tests/backend_cursor_test.cc.
#ifndef AMALGAM_FRAISSE_RELATIONAL_H_
#define AMALGAM_FRAISSE_RELATIONAL_H_

#include <cstdint>

#include "fraisse/fraisse_class.h"

namespace amalgam {

/// Default cap on the per-partition atom count of the generic relational
/// enumerator: candidate spaces larger than 2^28 are refused. Surfaced per
/// query through SolveOptions::relational_atom_cap (0 keeps this default).
inline constexpr std::uint32_t kDefaultRelationalAtomCap = 28;

/// The atom cap a stream under EnumControl::atom_cap `atom_cap` runs
/// with: 0 selects kDefaultRelationalAtomCap, and caps past 62 are clamped
/// so that a grid's mask count stays representable.
std::uint32_t EffectiveAtomCap(std::uint32_t atom_cap);

/// The class of *all* finite structures over a relational schema. The
/// largest Fraïssé class over the schema; its Fraïssé limit is the "random
/// structure" of the schema.
///
/// The member stream is a product grid — set partitions of the marks times
/// atom masks — so this class carries a native cursor: positioned
/// enumeration decodes a stream position into (partition, mask) and seeds
/// the incremental SetHolds delta loop mid-grid. Cost: sum over set
/// partitions of m of 2^(atom count); every row size is checked against
/// the atom cap before any member is built, and a row past it throws
/// EnumerationCapError (callers with bigger register counts need a
/// class-specific enumerator — this exponential is exactly the PSPACE
/// lower bound showing through).
class AllStructuresClass : public FraisseClass {
 public:
  explicit AllStructuresClass(SchemaRef schema);
  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override;
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override { return n; }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;

 private:
  SchemaRef schema_;
};

/// Finite strict linear orders: one binary relation "<" that is irreflexive,
/// transitive and total on distinct elements (paper Example 3). Amalgamation
/// is supported by completing the glued partial order to a linear one.
class LinearOrderClass : public FraisseClass {
 public:
  LinearOrderClass();
  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override { return "linear-orders"; }
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override { return n; }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override;

  /// The id of the "<" relation (always 0).
  static constexpr int kLess = 0;

 private:
  SchemaRef schema_;
};

/// Finite equivalence relations: one binary relation "~" that is reflexive,
/// symmetric and transitive (paper Example 3). Amalgamation closes the
/// glued relation transitively.
class EquivalenceClass : public FraisseClass {
 public:
  EquivalenceClass();
  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override { return "equivalences"; }
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override { return n; }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override;

  static constexpr int kEquiv = 0;

 private:
  SchemaRef schema_;
};

/// True if relation `rel` of `s` is a strict linear order on the domain.
bool IsStrictLinearOrder(const Structure& s, int rel);
/// True if relation `rel` of `s` is an equivalence relation on the domain.
bool IsEquivalenceRelation(const Structure& s, int rel);
/// True if relation `rel` is a strict weak order (irreflexive, transitive,
/// with transitive incomparability) — the shape of "<" induced by labeling
/// elements with rationals non-injectively.
bool IsStrictWeakOrder(const Structure& s, int rel);

}  // namespace amalgam

#endif  // AMALGAM_FRAISSE_RELATIONAL_H_
