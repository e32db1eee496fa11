// The per-query graph context: which sub-transition graph a query needs.
//
// A sub-transition graph depends only on (class, k, *set* of guards): a
// rule that repeats an earlier rule's guard adds no sub-transition, only a
// copy of every edge. So every front door — the linear engine, branching,
// words and trees — first interns its rule (or flattened branch) guards:
// identical guards, by printed form, collapse onto one distinct guard in
// first-occurrence order, and each rule keeps the index of its guard. The
// graph, the guard sweep and the store see only the distinct guards; the
// front doors map edges back onto rules through GraphContext::guard_of.
// The cache key still names the whole rule list (see GraphCache::Key): the
// distinct guards' printed forms, each printed once, plus the rule -> guard
// index when a guard repeats.
//
// GraphContext bundles that derivation with the backend and the cache key,
// so it is computed once per query: the query service builds it at submit
// time (it needs the key for single-flight registration) and hands it to
// the front door, and a front door called without one builds its own
// through the same function.
#ifndef AMALGAM_SOLVER_CONTEXT_H_
#define AMALGAM_SOLVER_CONTEXT_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "logic/formula.h"
#include "solver/backend.h"
#include "system/dds.h"

namespace amalgam {

/// A guard list deduplicated by printed form.
struct InternedGuards {
  /// The distinct guards, in first-occurrence order.
  std::vector<FormulaRef> guards;
  /// Their printed forms (parallel to `guards`), from which the cache key
  /// is assembled.
  std::vector<std::string> printed;
  /// guard_of[i] = index into `guards` of input entry i.
  std::vector<int> guard_of;
};

/// Interns `list`, printing each formula under `schema`. Entries that share
/// a FormulaRef are printed once; pointer-distinct but identical formulas
/// collapse by their printed form.
InternedGuards InternGuards(std::span<const FormulaRef> list,
                            const Schema& schema);

/// Everything a front door needs to find, build or persist its graph.
struct GraphContext {
  std::shared_ptr<const SolverBackend> backend;
  /// The distinct guards: the graph's guard list (edge labels index it).
  std::vector<FormulaRef> guards;
  /// Per rule (or flattened branch), the index of its guard in `guards`.
  std::vector<int> guard_of;
  int k = 0;
  /// GraphCache::Key of the rule list.
  std::string key;
  /// The length of the key's class prefix (GraphCache::ClassKey: the
  /// backend fingerprint and k), which names the class's member table.
  std::size_t class_key_length = 0;

  std::string_view class_key() const {
    return std::string_view(key).substr(0, class_key_length);
  }
};

/// The context for `rule_guards` (one per rule or flattened branch) over
/// `backend` with `k` registers.
GraphContext MakeGraphContext(std::shared_ptr<const SolverBackend> backend,
                              int k, std::span<const FormulaRef> rule_guards);

/// The context of a linear system: one guard per rule, in rule order.
GraphContext SystemGraphContext(std::shared_ptr<const SolverBackend> backend,
                                const DdsSystem& system);

/// A non-owning handle on a caller-owned backend, for contexts built by a
/// front door that only holds a reference.
std::shared_ptr<const SolverBackend> BorrowBackend(
    const SolverBackend& backend);

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_CONTEXT_H_
