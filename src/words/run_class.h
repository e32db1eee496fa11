// The run-pattern class C for regular word languages (paper §5.1).
//
// A member is (an isomorphic copy of) a substructure of Rundb(rho) for an
// accepting run rho of the automaton: a finite sequence of positions with
// states, the document order, letter predicates, and the per-component
// pointer functions leftmost_G / rightmost_G.
//
// Key structural facts (derived from the pointer semantics; they sharpen
// the paper's Lemma 12, whose bare chain condition does not account for
// pointer targets escaping the substructure):
//   * Because substructures are closed under the pointer functions, the
//     global first/last position of every component that is "visible" from
//     a slot belongs to the pattern. Consequently the pointer functions of
//     a member are *intrinsic*: leftmost_G(x) is the least pattern slot
//     with a state in G if it is < x, else x — so a member is fully
//     described by its ordered state sequence.
//   * The first slot of a member is literally the first position of its
//     run and the last slot the last position (their components' extremal
//     positions are dragged into every substructure).
//   * Membership reduces to: start(q1), accept(qs), and for every gap
//     between consecutive slots a path q_i ->+ q_{i+1} whose intermediate
//     states lie in components whose slot span covers the gap.
// These conditions are validated differentially against brute-force run
// extraction in tests/words_test.cc.
#ifndef AMALGAM_WORDS_RUN_CLASS_H_
#define AMALGAM_WORDS_RUN_CLASS_H_

#include <optional>
#include <vector>

#include "fraisse/fraisse_class.h"
#include "words/nfa.h"

namespace amalgam {

/// A member of the class, as its ordered state sequence.
struct WordPattern {
  std::vector<int> states;

  int size() const { return static_cast<int>(states.size()); }
  bool operator==(const WordPattern&) const = default;
};

/// The Fraïssé class of run patterns of a fixed automaton, pluggable into
/// the generic Theorem 5 solver. The schema prefix (letters + "lt") is the
/// paper's WordSchema(A), so database-driven systems over WordSchema run
/// unchanged over this class (Lemma 6).
class WordRunClass : public FraisseClass {
 public:
  /// `nfa` is trimmed internally. Throws if the trimmed automaton is empty.
  explicit WordRunClass(const Nfa& nfa);

  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override;
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override {
    return n + 2ULL * num_components_;
  }
  /// Positioned cursor: the run-pattern candidate walk (slot placement +
  /// state assignment + membership filter) determines positions, so the
  /// cursor cannot seek past it — but it materializes the structure
  /// encoding (PatternToStructure, the per-member allocation cost) only
  /// for members actually delivered, which is what EnumControl::generated
  /// counts.
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  /// Merges the two patterns (brute-force over interleavings, validated by
  /// membership + pointer-consistent embeddings) and completes the result
  /// to a full accepting run, so that the accumulated witness projects to a
  /// word of the language.
  std::optional<AmalgamResult> Amalgamate(
      const Structure& a, const Structure& b,
      std::span<const Elem> b_to_a) const override;

  const Nfa& nfa() const { return nfa_; }
  /// WordSchema(A): the letter predicates + the order "lt". Build systems
  /// over this schema.
  const SchemaRef& word_schema() const { return word_schema_; }
  int num_components() const { return num_components_; }
  int component_of(int state) const { return comp_[state]; }

  // -- Pattern-level API (exposed for tests and the words solver). --

  /// True if the pattern is a member (start/accept endpoints + realizable
  /// gaps).
  bool PatternInClass(const WordPattern& p) const;

  /// Encodes a pattern as a structure; element e is the slot at position e.
  Structure PatternToStructure(const WordPattern& p) const;

  /// Decodes a structure; returns nullopt if it is not a well-formed
  /// pattern encoding. `order_out`, if given, receives the element at each
  /// position.
  std::optional<WordPattern> StructureToPattern(
      const Structure& s, std::vector<Elem>* order_out = nullptr) const;

  /// Completes a member pattern to a full accepting run: returns the run's
  /// state sequence and the position of each pattern slot in it.
  std::optional<std::pair<std::vector<int>, std::vector<int>>> Complete(
      const WordPattern& p) const;

  /// Intrinsic pointer value: leftmost slot of x's visible component
  /// extremum (see file comment). Positions, not elements.
  int IntrinsicLeftmost(const WordPattern& p, int component, int pos) const;
  int IntrinsicRightmost(const WordPattern& p, int component, int pos) const;

 private:
  bool GapRealizable(const WordPattern& p, int gap) const;

  /// The enumeration core behind EnumerateGeneratedFrom: walks the
  /// candidate space (set partitions of the marks × slot placements × state
  /// assignments), runs the closure + membership filters, and hands every
  /// member to `sink` as a pattern + marks — without encoding it as a
  /// structure. `sink` returns false to stop.
  void EnumeratePatterns(
      int m,
      const std::function<bool(const WordPattern&, const std::vector<Elem>&)>&
          sink) const;

  Nfa nfa_;
  std::vector<int> comp_;
  int num_components_ = 0;
  SchemaRef word_schema_;
  SchemaRef schema_;
  int lt_rel_ = -1;
  int first_state_rel_ = -1;
  int first_lm_fn_ = -1;   // function ids: lm for component c, then rm
  int first_rm_fn_ = -1;
};

}  // namespace amalgam

#endif  // AMALGAM_WORDS_RUN_CLASS_H_
