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
// The cache key still names the whole rule list: the class prefix (the
// backend fingerprint and k), the distinct guards' printed forms, plus the
// rule -> guard index when a guard repeats.
//
// Every guard is printed once, when its rule enters a system
// (TransitionRule::printed, Branch::printed), so deriving a context prints
// nothing: it reads the rules' printed forms. The key format lives in
// context.cc alone, and store records are found by its bytes, so a change
// to it (or to the formula printer) turns every stored graph into a miss;
// solver_test pins one literal key per query kind.
//
// GraphContext bundles that derivation with the backend and the cache key,
// so it is computed once per query: the query service builds it at submit
// time (the maintenance loop's recipe index needs the key) and hands it to
// the front door, and a front door called without one builds its own
// through the same function. MakeGraphContext is the only place a key is
// derived, and the context is the only thing the cache is asked with
// (GraphCache::Lookup, GraphCache::AcquireMemberTable). It checks that the
// system fits the class, so a context always describes a query the engine
// can run.
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

/// One rule's (or flattened branch's) guard as a context reads it: the
/// formula and its printed form under the system's schema
/// (TransitionRule::printed), both borrowed from the system.
struct RuleGuard {
  const FormulaRef& guard;
  const std::string& printed;
};

/// Everything a front door needs to find, build or persist its graph.
struct GraphContext {
  std::shared_ptr<const SolverBackend> backend;
  /// The distinct guards: the graph's guard list (edge labels index it).
  std::vector<FormulaRef> guards;
  /// Per rule (or flattened branch), the index of its guard in `guards`.
  std::vector<int> guard_of;
  int k = 0;
  /// The cache key of the rule list: the class prefix, the distinct
  /// guards' printed forms and, when a guard repeats, the rule -> guard
  /// index. [A, B, A] and [A, B] are separate entries (both graphs are
  /// over [A, B]), so a never-seen rule list is never served from another
  /// list's entry.
  std::string key;
  /// The length of the key's class prefix (the backend fingerprint and
  /// k), which names the class's member table.
  std::size_t class_key_length = 0;

  std::string_view class_key() const {
    return std::string_view(key).substr(0, class_key_length);
  }
};

/// The context for `rule_guards` (one per rule or flattened branch, printed
/// under `schema`, the system's) over `backend` with `k` registers. Throws
/// std::invalid_argument unless every guard is quantifier-free (apply
/// EliminateExistentials first) and `schema` is a prefix of the backend's
/// (Lemma 6: extra symbols in the class's schema are invisible to
/// quantifier-free guards, and a guard prints the same under any schema
/// that extends its symbols, so its printed form stands for the backend's).
GraphContext MakeGraphContext(std::shared_ptr<const SolverBackend> backend,
                              const Schema& schema, int k,
                              std::span<const RuleGuard> rule_guards);

/// The context of a linear system: one guard per rule, in rule order, as
/// MakeGraphContext checks and keys them.
GraphContext SystemGraphContext(std::shared_ptr<const SolverBackend> backend,
                                const DdsSystem& system);

/// A non-owning handle on a caller-owned backend, for contexts built by a
/// front door that only holds a reference.
std::shared_ptr<const SolverBackend> BorrowBackend(
    const SolverBackend& backend);

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_CONTEXT_H_
