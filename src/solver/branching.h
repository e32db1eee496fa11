// The branching extension of database-driven systems (paper §4.5, second
// bullet): a transition may spawn several successor configurations, all
// driven by the same database; a run is a finite tree of configurations
// whose leaves are accepting. Emptiness remains decidable over Fraïssé
// classes: per-branch sub-transitions amalgamate over the shared parent
// configuration, so a backward least fixpoint over small configurations
// ("alive" = accepting or some rule with all branches leading to alive
// configurations) decides the problem on the same sub-transition relation
// the linear solver builds — and since the port onto SubTransitionGraph it
// literally is the same relation: one shared interner, one edge store,
// labeled by the distinct guards of the flattened branch list
// (solver/context.h), cacheable across queries through the same GraphCache.
#ifndef AMALGAM_SOLVER_BRANCHING_H_
#define AMALGAM_SOLVER_BRANCHING_H_

#include <memory>
#include <string>
#include <vector>

#include "fraisse/fraisse_class.h"
#include "solver/cache.h"
#include "solver/context.h"
#include "solver/emptiness.h"
#include "system/dds.h"

namespace amalgam {

/// One branch of a branching rule: a guard (quantifier-free, over the
/// usual old/new variable convention) and the successor control state.
struct Branch {
  FormulaRef guard;
  int to = -1;
  /// The guard's printed form, as TransitionRule::printed: never null in
  /// a BranchingSystem, whose AddRule prints a guard that arrives without.
  std::shared_ptr<const std::string> printed;
};

/// A branching rule: from `from`, spawn one successor per branch (all
/// branches fire together; each choice of new register values must satisfy
/// its branch's guard).
struct BranchingRule {
  int from = -1;
  std::vector<Branch> branches;
};

/// A branching database-driven system: a DdsSystem-style control skeleton
/// (reuses DdsSystem for states/registers/parsing) plus branching rules.
class BranchingSystem {
 public:
  explicit BranchingSystem(SchemaRef schema) : skeleton_(std::move(schema)) {}

  int AddState(std::string name, bool initial = false, bool accepting = false) {
    return skeleton_.AddState(std::move(name), initial, accepting);
  }
  int AddRegister(std::string name) {
    return skeleton_.AddRegister(std::move(name));
  }
  /// Adds a branching rule; guards in parser syntax.
  void AddRule(int from, const std::vector<std::pair<std::string, int>>&
                             guarded_targets);
  /// Adds a branching rule with already-built guards over the skeleton's
  /// schema (used to mirror an ordinary DdsSystem rule-for-rule, e.g. by
  /// the differential tests); a branch without a printed form is printed
  /// here.
  void AddRule(int from, std::vector<Branch> branches);
  /// Parses a guard in the skeleton's syntax without adding a rule.
  FormulaRef ParseGuard(const std::string& guard_text) {
    return skeleton_.ParseGuard(guard_text);
  }

  const DdsSystem& skeleton() const { return skeleton_; }
  const std::vector<BranchingRule>& rules() const { return rules_; }

 private:
  DdsSystem skeleton_;
  std::vector<BranchingRule> rules_;
};

struct BranchingSolveResult {
  bool nonempty = false;
  SolveStats stats;
};

/// Decides: is there a database in `cls` driving a finite accepting run
/// tree of `system`? Routes through the shared SubTransitionGraph (the
/// same interner and edge store as the linear engine), which it obtains
/// exactly as the linear engine's eager path does (AcquireCompleteGraph in
/// solver/cache.h): when `cache` is given, the complete graph for (class
/// fingerprint, k, guard set) is reused or stored, so a repeated query
/// reports stats.members_enumerated == 0 — and a *partial* entry left by
/// an early-exited linear query over the same guard set is resumed from
/// its cursor to completion (the backward fixpoint needs the whole
/// relation) rather than rebuilt. A store attached to `cache`
/// (GraphCache's `store_dir`) persists the graph across processes. A
/// non-null `trace` records a "solve" span with cache_lookup / full_build
/// / fixpoint children (and the resume annotations when a partial entry
/// was picked up), the same cache_lookup and full_build the linear engine
/// records.
BranchingSolveResult SolveBranchingEmptiness(
    const BranchingSystem& system, const FraisseClass& cls,
    GraphCache* cache = nullptr, TraceRecorder* trace = nullptr);

/// As above over a context from BranchingGraphContext (the query service
/// derives it once per query, at submit time).
BranchingSolveResult SolveBranchingEmptiness(
    const BranchingSystem& system, const GraphContext& context,
    GraphCache* cache = nullptr, TraceRecorder* trace = nullptr);

/// The graph context of a branching query: the branch guards flattened in
/// (rule, branch) order, so GraphContext::guard_of is indexed by flattened
/// branch id. A linear system with one rule per branch, in the same order,
/// has the same context, and so shares the cache entry. Throws
/// std::invalid_argument when a guard is not quantifier-free or the
/// skeleton's schema is not a prefix of the class's (MakeGraphContext).
GraphContext BranchingGraphContext(const BranchingSystem& system,
                                   std::shared_ptr<const SolverBackend> cls);

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_BRANCHING_H_
