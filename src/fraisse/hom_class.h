// HOM(H): databases mapping homomorphically to a template H (paper §3.2).
//
// HOM(H) itself is usually *not* closed under amalgamation (Example 4:
// 2-colorable graphs). The paper's fix (Lemma 7) lifts the schema with one
// unary color predicate per template element; HOM(H~) over the lifted
// schema is Fraïssé and projects onto HOM(H). Running the solver over
// HomClass directly is deliberately possible — it demonstrates the
// unsoundness that the lift repairs (see the e1 experiment).
#ifndef AMALGAM_FRAISSE_HOM_CLASS_H_
#define AMALGAM_FRAISSE_HOM_CLASS_H_

#include "fraisse/fraisse_class.h"

namespace amalgam {

/// The raw class HOM(H) over the schema of H (relations only). Membership
/// is decided by backtracking homomorphism search. NOT amalgamation-closed
/// in general; use LiftedHomClass for sound emptiness checking.
class HomClass : public FraisseClass {
 public:
  explicit HomClass(Structure template_db);
  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override;
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override { return n; }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  const Structure& template_db() const { return template_; }

 private:
  Structure template_;
  SchemaRef schema_;
};

/// The Fraïssé lift HOM(H~) of Lemma 7: the schema of H extended with one
/// unary predicate per element of H; members are databases where every
/// element carries exactly one color and the color map is a homomorphism
/// to H. The base schema is a prefix of the lifted schema, so systems over
/// the schema of H run unchanged over members of this class (Lemma 6).
class LiftedHomClass : public FraisseClass {
 public:
  explicit LiftedHomClass(Structure template_db);
  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override;
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override { return n; }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  /// Free amalgamation — always succeeds in this class (Lemma 7's proof).
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override;

  const Structure& template_db() const { return template_; }
  /// Relation id of the color predicate for template element h.
  int ColorRel(Elem h) const { return first_color_rel_ + static_cast<int>(h); }
  /// The color of element e of a member, or kNoElem if ill-colored.
  Elem ColorOf(const Structure& s, Elem e) const;

 private:
  Structure template_;
  SchemaRef schema_;
  int first_color_rel_ = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_FRAISSE_HOM_CLASS_H_
