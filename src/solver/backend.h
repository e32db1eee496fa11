// The backend interface consumed by the exploration engine.
//
// The Theorem 5 search is parameterized by a class of databases; the engine
// needs exactly two capabilities from it: enumeration of the members
// generated by a marked tuple (up to isomorphism), with support for early
// termination so the on-the-fly strategy can stop as soon as an accepting
// configuration is reached, and an amalgamation operator for witness
// reconstruction. FraisseClass (and through it the word/tree run-pattern
// classes and the data-value products) implements this interface, so all
// front doors — SolveEmptiness, SolveWordEmptiness, SolveTreeEmptiness —
// route through one engine. The interface depends only on base/, keeping
// the solver layer free of class-specific knowledge.
//
// Enumeration has one entry point, EnumerateGeneratedFrom: it fixes the
// member order and replays it from any stream position (the resume point
// of a suspended graph build). tests/backend_cursor_test.cc pins every
// backend's stream against test-local reference enumerations.
#ifndef AMALGAM_SOLVER_BACKEND_H_
#define AMALGAM_SOLVER_BACKEND_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>

#include "base/ops.h"
#include "base/schema.h"
#include "base/structure.h"

namespace amalgam {

/// Structured "candidate space too large" error thrown by enumerators whose
/// per-member candidate grid exceeds a configurable cap (the relational
/// atom-mask grids). Carries the offending size and the cap so front doors
/// can report it in-band (amalgamd surfaces it as a JSON error with
/// `error_code` = kCode) instead of dying on an opaque invalid_argument.
class EnumerationCapError : public std::runtime_error {
 public:
  static constexpr const char* kCode = "enumeration_cap";

  EnumerationCapError(std::uint64_t atoms, std::uint32_t cap)
      : std::runtime_error("enumeration candidate space too large: " +
                           std::to_string(atoms) +
                           " atoms exceeds the cap of " + std::to_string(cap) +
                           " (raise atom_cap to proceed)"),
        atoms_(atoms),
        cap_(cap) {}

  std::uint64_t atoms() const { return atoms_; }
  std::uint32_t cap() const { return cap_; }

 private:
  std::uint64_t atoms_;
  std::uint32_t cap_;
};

/// Out-of-band knobs threaded through EnumerateGeneratedFrom.
/// `generated` (when non-null) is incremented once per member the backend
/// *materializes* — for a native cursor that is only the requested suffix;
/// a backend that walks its stream from the beginning to skip the prefix
/// counts every member it walks. The members_generated /
/// members_enumerated split in SolveStats is exactly this distinction.
/// `atom_cap` overrides the relational candidate-space cap (0 = backend
/// default); every relational backend honours it.
struct EnumControl {
  std::uint64_t* generated = nullptr;
  std::uint32_t atom_cap = 0;
};

/// Abstract source of small configurations for the exploration engine.
class SolverBackend {
 public:
  virtual ~SolverBackend() = default;

  /// The common schema of all members.
  virtual const SchemaRef& schema() const = 0;

  /// A stable serialization of the class's identity: two backends with
  /// equal fingerprints must enumerate identical member streams (same
  /// structures, same marks, same order) for every m. Used by GraphCache
  /// to key complete sub-transition graphs across queries; include every
  /// parameter that shapes enumeration (schema, templates, automata,
  /// caps).
  virtual std::string Fingerprint() const = 0;

  /// Callback receiving a member structure and the generating m-tuple of
  /// (not necessarily distinct) elements.
  using EnumCallback =
      std::function<void(const Structure&, std::span<const Elem>)>;
  /// Callback for a positioned enumeration. `stream_index` is the member's
  /// position in the full stream — the position a suspended graph build
  /// records in its cursor. Returning false stops the enumeration.
  using PositionCallback = std::function<bool(
      const Structure&, std::span<const Elem>, std::uint64_t stream_index)>;

  /// Enumerates, up to isomorphism of marked structures, every pair
  /// (D, marks) where D is a member generated by the m-tuple `marks`, in a
  /// fixed order, starting at stream position `start` and reporting each
  /// member with its position. Each isomorphism class is produced exactly
  /// once by the full (start = 0) stream, and the stream from `start` is
  /// exactly its suffix, so a persisted partial graph resumes where its
  /// suspended sweep stopped (see SubTransitionGraph::cursor()). Stops
  /// (promptly, not necessarily instantly) once `cb` returns false.
  /// Backends with a real cursor into their member space seek to `start`;
  /// the others walk the stream from 0 and skip the prefix, which costs
  /// its generation but none of its processing (guard evaluation,
  /// canonicalization, interning — the dominant part).
  virtual void EnumerateGeneratedFrom(int m, std::uint64_t start,
                                      const PositionCallback& cb,
                                      const EnumControl& ctl = {}) const = 0;

  /// Run-to-completion convenience wrapper over EnumerateGeneratedFrom.
  void EnumerateGenerated(int m, const EnumCallback& cb) const {
    EnumerateGeneratedFrom(
        m, 0,
        [&](const Structure& s, std::span<const Elem> marks, std::uint64_t) {
          cb(s, marks);
          return true;
        });
  }

  /// Amalgamates members `a` and `b` over the common part described by
  /// `b_to_a` (b-element -> a-element, kNoElem when only in b). Returns a
  /// member containing both as substructures, or nullopt when the backend
  /// does not support witness reconstruction.
  virtual std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_BACKEND_H_
