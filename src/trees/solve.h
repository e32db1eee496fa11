// Theorem 3 front door: emptiness of database-driven systems over the
// trees of a regular tree language, plus the brute-force reference and
// witness search used by tests and examples.
#ifndef AMALGAM_TREES_SOLVE_H_
#define AMALGAM_TREES_SOLVE_H_

#include <optional>
#include <string>

#include "solver/emptiness.h"
#include "trees/run_class.h"

namespace amalgam {

/// A concrete Theorem 3 witness: a tree of the language, a run on it, and
/// an accepting system run driven by Treedb(tree).
struct TreeWitness {
  Tree tree;
  std::vector<int> automaton_run;
  ConcreteRun system_run;
};

struct TreeSolveResult {
  bool nonempty = false;
  /// Produced by a bounded concrete search after a nonempty verdict (the
  /// tree class does not implement generic amalgamation); may be nullopt
  /// for nonempty instances whose smallest witness exceeds the search cap.
  std::optional<TreeWitness> witness;
  SolveStats stats;
};

/// Decides: is there a tree t accepted by `automaton` such that `system`
/// (over the automaton's TreeSchema) has an accepting run driven by
/// Treedb(t)? `witness_size_cap` bounds the post-hoc concrete witness
/// search (0 disables it). Routes through the shared exploration engine;
/// `strategy` selects on-the-fly (default) or the eager reference pipeline.
/// `cache`, when given, reuses/stores the sub-transition graph keyed by
/// (automaton fingerprint + pattern cap, k, guard set); complete entries
/// serve queries with zero enumeration, partial ones resume from their
/// cursor. A store attached to `cache` (GraphCache::AttachStore) persists
/// graphs to disk for cross-process reuse. A non-null `trace` is passed
/// through as SolveOptions::trace — the engine records its "solve" span
/// tree into it.
TreeSolveResult SolveTreeEmptiness(
    const DdsSystem& system, const TreeAutomaton& automaton,
    int witness_size_cap = 6, int extra_pattern_cap = 4,
    SolveStrategy strategy = SolveStrategy::kOnTheFly,
    GraphCache* cache = nullptr, TraceRecorder* trace = nullptr);

/// As above over a context from TreeGraphContext (the query service derives
/// it once per query, at submit time); its backend is the run class, which
/// also fixes the automaton and the pattern cap.
TreeSolveResult SolveTreeEmptiness(
    const DdsSystem& system, const GraphContext& context,
    int witness_size_cap = 6,
    SolveStrategy strategy = SolveStrategy::kOnTheFly,
    GraphCache* cache = nullptr, TraceRecorder* trace = nullptr);

/// The graph context of a tree query: a TreeRunClass over `automaton`
/// (which must outlive the context) and one guard per rule.
GraphContext TreeGraphContext(const DdsSystem& system,
                              const TreeAutomaton& automaton,
                              int extra_pattern_cap = 4);

/// Brute force: tries every tree with up to `max_size` nodes.
std::optional<TreeWitness> BruteForceTreeSearch(const DdsSystem& system,
                                                const TreeAutomaton& automaton,
                                                int max_size);

}  // namespace amalgam

#endif  // AMALGAM_TREES_SOLVE_H_
