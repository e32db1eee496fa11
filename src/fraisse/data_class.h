// Data values (paper §4.4, Proposition 1): extending a Fraïssé class C with
// labelings of elements by values from a homogeneous relational structure F.
//
//   C (x) F : arbitrary labelings  (XML attributes — values may repeat)
//   C (.) F : injective labelings  (relational keys — values unique)
//
// Supported homogeneous structures:
//   <N,=> : schema gains a binary relation "deq"  (same data value)
//   <Q,<> : schema gains a binary relation "dlt"  (data value less-than)
//
// The finite trace of the labeling is exactly a constraint on the added
// relation: an equivalence relation / the diagonal for <N,=>, and a strict
// weak / strict linear order for <Q,<>. Proposition 1: the result is again
// Fraïssé with the same blowup function.
#ifndef AMALGAM_FRAISSE_DATA_CLASS_H_
#define AMALGAM_FRAISSE_DATA_CLASS_H_

#include <memory>

#include "fraisse/fraisse_class.h"

namespace amalgam {

/// Which homogeneous structure supplies the data values.
enum class DataDomain {
  kNaturalsWithEquality,  // <N,=>, relation "deq"
  kRationalsWithOrder,    // <Q,<>, relation "dlt"
};

/// Copies `s` into a structure over `extended` (s.schema() must be a prefix
/// of `extended`); added relations start empty, added functions start as
/// identity-on-first-argument for arity >= 1.
Structure ExtendToSchema(const Structure& s, const SchemaRef& extended);

/// The product class C (x) F or C (.) F.
class DataClass : public FraisseClass {
 public:
  DataClass(std::shared_ptr<const FraisseClass> base, DataDomain domain,
            bool injective);

  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override;
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override { return base_->Blowup(n); }
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override;

  /// Relation id of the data-comparison relation in the extended schema.
  int data_rel() const { return data_rel_; }
  DataDomain domain() const { return domain_; }
  bool injective() const { return injective_; }
  const FraisseClass& base() const { return *base_; }

 private:
  bool DataPartValid(const Structure& s) const;

  std::shared_ptr<const FraisseClass> base_;
  DataDomain domain_;
  bool injective_;
  SchemaRef schema_;
  int data_rel_;
};

}  // namespace amalgam

#endif  // AMALGAM_FRAISSE_DATA_CLASS_H_
