// The Fraïssé-class interface of Theorem 5.
//
// The generic emptiness solver (src/solver) is parameterized by a class C of
// databases through the SolverBackend interface. A FraisseClass adds the
// theorem's remaining assumptions on top of the backend capabilities:
//   * decidable membership                      -> Contains()
//   * a bound on the size of n-generated members -> Blowup()
//   * effective enumeration of the members generated by a marked tuple
//     (up to isomorphism)                        -> EnumerateGeneratedFrom()
// plus, optionally, an amalgamation operator used to reconstruct concrete
// witness databases (the executable form of the soundness proof).
#ifndef AMALGAM_FRAISSE_FRAISSE_CLASS_H_
#define AMALGAM_FRAISSE_FRAISSE_CLASS_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>

#include "base/ops.h"
#include "base/schema.h"
#include "base/structure.h"
#include "solver/backend.h"

namespace amalgam {

/// Abstract Fraïssé (or semi-Fraïssé lift) class of finite databases.
/// Implements SolverBackend, so any class plugs directly into the
/// exploration engine.
class FraisseClass : public SolverBackend {
 public:
  /// Membership test: is `s` a member of the class? `s` must be over
  /// schema().
  virtual bool Contains(const Structure& s) const = 0;

  /// The blowup function (paper §4.1): the least upper bound on the size of
  /// n-generated members. For purely relational schemas this is n.
  virtual std::uint64_t Blowup(int n) const = 0;

  /// Default amalgamation: the free amalgam if it happens to be a member.
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override;
};

}  // namespace amalgam

#endif  // AMALGAM_FRAISSE_FRAISSE_CLASS_H_
