// The Fraïssé-style run-pattern class for regular tree languages, pluggable
// into the generic Theorem 5 solver. See pattern.h for the underlying
// theory and docs/TREES.md for the closure analysis and the bounded-size
// caveat.
#ifndef AMALGAM_TREES_RUN_CLASS_H_
#define AMALGAM_TREES_RUN_CLASS_H_

#include <functional>
#include <optional>
#include <vector>

#include "fraisse/fraisse_class.h"
#include "trees/pattern.h"

namespace amalgam {

/// The class of pointer-closed substructures of Rundb(rho) over runs of a
/// fixed tree automaton. The schema prefix (labels, desc, doc, cca) is the
/// paper's TreeSchema(A); state predicates, the component-maximality flag
/// and the pointer functions extend it (a conservative refinement — guards
/// cannot mention them, Lemma 6).
///
/// The member stream explores patterns up to `max_pattern_size(m)` nodes;
/// the closure of m registers is bounded by Lemma 14's c*n with c
/// exponential in the state space, so for large automata the default cap
/// can in principle truncate the search (risking "empty" verdicts for
/// systems whose small configurations are huge). The differential tests
/// pick automata whose closures fit comfortably and cross-check against
/// brute-force tree search.
class TreeRunClass : public FraisseClass {
 public:
  /// `extra_cap`: pattern size cap is m + extra_cap for m marks.
  explicit TreeRunClass(const TreeAutomaton* automaton, int extra_cap = 4);

  const SchemaRef& schema() const override { return schema_; }
  std::string Fingerprint() const override;
  bool Contains(const Structure& s) const override;
  std::uint64_t Blowup(int n) const override {
    return static_cast<std::uint64_t>(n) + extra_cap_;
  }
  /// Positioned cursor: positions are determined by the candidate walk
  /// (shapes × states × flags × mark placements, filtered by realizability
  /// and closure), so the cursor cannot seek past it — but the structure
  /// encoding (PatternToStructure, the dominant per-member cost: quadratic
  /// relations plus all pointer-function tables) is built lazily, only for
  /// members the cursor actually delivers.
  void EnumerateGeneratedFrom(int m, std::uint64_t start,
                              const PositionCallback& cb,
                              const EnumControl& ctl = {}) const override;
  /// Not supported (tree witnesses come from trees/solve.h's bounded
  /// search); returns nullopt.
  std::optional<AmalgamResult> Amalgamate(
      const Structure&, const Structure&,
      std::span<const Elem>) const override {
    return std::nullopt;
  }

  const TreeAutomaton& automaton() const { return *automaton_; }
  const TreePatternOracle& oracle() const { return oracle_; }
  /// TreeSchema(A): labels, desc, doc, cca. Build systems over this.
  const SchemaRef& tree_schema() const { return tree_schema_; }

  Structure PatternToStructure(const TreePattern& p) const;
  std::optional<TreePattern> StructureToPattern(
      const Structure& s, std::vector<Elem>* order_out = nullptr) const;

 private:
  /// The enumeration sink: receives each member as a materializer (encodes
  /// the pattern on first call, cached across the pattern's mark
  /// placements) plus the marks. Returns false to stop.
  using PatternSink = std::function<bool(
      const std::function<const Structure&()>&, const std::vector<Elem>&)>;

  /// The enumeration core behind EnumerateGeneratedFrom: walks the
  /// candidate space and hands every member to `sink` without eagerly
  /// encoding it as a structure.
  void EnumeratePatterns(int m, const PatternSink& sink) const;

  /// Returns false when `sink` requested a stop.
  bool EmitWithMarks(const TreePattern& p, const std::vector<int>& block_of,
                     int d, const PatternSink& sink) const;

  const TreeAutomaton* automaton_;
  TreePatternOracle oracle_;
  int extra_cap_;
  SchemaRef tree_schema_;
  SchemaRef schema_;
  int desc_rel_, doc_rel_, cca_fn_;
  int first_state_rel_, cmax_rel_;
  int first_am_fn_, first_dm_fn_, first_lm_fn_, first_rm_fn_;
};

}  // namespace amalgam

#endif  // AMALGAM_TREES_RUN_CLASS_H_
