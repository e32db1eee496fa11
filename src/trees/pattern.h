// Run patterns for regular tree languages (paper §5.2–5.4).
//
// A member of the class C is a substructure of Rundb(rho) for a run rho of
// the tree automaton, closed under the closest-common-ancestor function and
// the pointer functions. The closure analysis (docs/TREES.md) yields:
//
//   * cca-closure makes a member a *meet-tree*: a rooted ordered tree of
//     pattern nodes whose real tree realizes each pattern edge as a
//     downward path;
//   * vertical component-contiguity (states on a path between two nodes of
//     one descendant component stay in that component) implies every
//     component block's top node on the root path of any pattern node is
//     itself a pattern node — so the real root belongs to every nonempty
//     member, and the ancestormost / descendantmost pointers are intrinsic
//     (computable from the pattern);
//   * for component-maximal nodes the leftmost_q / rightmost_q pointers
//     drag certified children into the pattern, making those intrinsic
//     too, given an explicit component-maximality flag per node.
//
// A pattern is therefore: a rooted ordered tree, a state per node, and a
// component-maximality flag per node. Membership reduces to per-node
// realizability: vertical gaps use only states of the parent's component
// (with linear components forbidding chain bottoms outside the pattern),
// and children words must embed the pattern children's tops subject to the
// certification rules. These conditions are validated differentially
// against brute-force run extraction in tests/trees_test.cc.
#ifndef AMALGAM_TREES_PATTERN_H_
#define AMALGAM_TREES_PATTERN_H_

#include <optional>
#include <vector>

#include "trees/automaton.h"

namespace amalgam {

/// A candidate member of the tree run class.
struct TreePattern {
  std::vector<int> parent;                 // -1 for the root (node 0)
  std::vector<std::vector<int>> children;  // in document order
  std::vector<int> state;
  std::vector<bool> cmax;  // component-maximal in the real run

  int size() const { return static_cast<int>(parent.size()); }

  int AddNode(int parent_id, int state_id, bool component_maximal);
  bool AncestorOrSelf(int a, int b) const;
  int Meet(int a, int b) const;
  /// Document order positions (preorder).
  std::vector<int> PreorderPositions() const;
};

/// Membership + completion machinery for the run-pattern class of a fixed
/// tree automaton.
class TreePatternOracle {
 public:
  explicit TreePatternOracle(const TreeAutomaton* automaton);

  const TreeAutomaton& automaton() const { return *automaton_; }

  /// True if the pattern is (up to isomorphism) a pointer-closed
  /// substructure of Rundb of some run.
  bool PatternInClass(const TreePattern& p) const;

  /// Builds a concrete tree + run embedding the pattern; returns the tree,
  /// the run and the node id of each pattern node in the tree. nullopt iff
  /// the pattern is not a member.
  struct Completion {
    Tree tree;
    std::vector<int> run;
    std::vector<int> pattern_node;  // pattern node -> tree node
  };
  std::optional<Completion> Complete(const TreePattern& p) const;

  // Intrinsic pointer values (pattern node ids; self = the node itself).
  int IntrinsicAncestormost(const TreePattern& p, int component,
                            int node) const;
  int IntrinsicDescendantmost(const TreePattern& p, int component,
                              int node) const;
  int IntrinsicLeftmost(const TreePattern& p, int state, int node) const;
  int IntrinsicRightmost(const TreePattern& p, int state, int node) const;

  /// Extracts the pattern induced by a run on the pointer-closure of the
  /// given seed nodes (ground truth for differential tests). Returns the
  /// pattern plus, for each pattern node, the tree node it came from.
  std::pair<TreePattern, std::vector<int>> ExtractClosedPattern(
      const Tree& t, const std::vector<int>& run,
      const std::vector<int>& seeds) const;

  /// The pointer-closure of `seeds` in the given run (tree node ids,
  /// sorted): cca, block tops, chain bottoms, certified children.
  std::vector<int> PointerClosure(const Tree& t, const std::vector<int>& run,
                                  const std::vector<int>& seeds) const;

  /// Per-node realizability (the conjunct of PatternInClass for one node);
  /// depends only on the node's own cmax flag, states, and its children —
  /// exposed so enumerators can compute valid flag sets independently.
  bool NodeRealizable(const TreePattern& p, int x,
                      std::vector<int>* chosen_tops) const;

 private:
  bool WordRealizable(int parent_state, bool parent_cmax, bool need_own_comp,
                      const std::vector<int>& tops,
                      std::vector<std::vector<int>>* word_out) const;

  const TreeAutomaton* automaton_;
};

}  // namespace amalgam

#endif  // AMALGAM_TREES_PATTERN_H_
