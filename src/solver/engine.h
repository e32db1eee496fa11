// The layered exploration engine behind the Theorem 5 decision procedure.
//
// Given a database-driven system S with k registers and a backend class C,
// the paper's nondeterministic algorithm walks over *small configurations*
// — members of C generated by the register contents — connected by
// *sub-transitions*: pairs of small configurations that jointly embed into
// a member generated by both valuations in which some rule's guard holds.
//
// The sub-transition graph itself (shape interning, guard sweep, edge
// dedup) lives in solver/graph.h, shared with the branching solver; the
// engine layers reachability on top in one of three ways:
//
//   * kOnTheFly (default): an incremental search. Members of C generated
//     by 2k marks stream in from the backend's positioned stream; each
//     guard hit contributes a sub-transition edge between interned
//     small-configuration shapes, reachability is propagated immediately
//     over the edges known so far, and the enumeration is stopped the
//     moment an accepting configuration is reached. Nonempty instances
//     terminate after exploring a fraction of the sub-transition graph (see
//     SolveStats::members_enumerated). The graph built so far is always a
//     prefix of the stream, so a cache can hold it and resume it later.
//
//   * kEager: the original materialize-then-BFS pipeline — one full pass
//     over the 2k-generated members builds the whole sub-transition graph,
//     then BFS decides reachability. Kept as the reference for differential
//     testing.
//
//   * cached (SolveOptions::cache != nullptr): the graph is fetched from
//     the GraphCache — a complete entry serves the query with zero
//     enumeration; a *partial* entry (persisted by an earlier early-exited
//     on-the-fly run together with its BuildCursor) is replayed and, when
//     the verdict needs more of the class, resumed from its cursor instead
//     of rebuilt. Whatever this query adds is inserted back, so the cache's
//     trajectory only ever advances. With a store attached to the cache
//     (GraphCache's `store_dir`) the same holds across processes
//     (solver/store.h). The eager path takes its graph from
//     AcquireCompleteGraph and the on-the-fly path from its lookup half,
//     LookupGraph (solver/cache.h) — the same path the branching fixpoint
//     takes.
//
// All strategies share the canonical-form interner (solver/intern.h), the
// predecessor links used for witness-path replay, and the witness
// reconstruction that replays the soundness proof through the backend's
// amalgamation operator and then checks the concrete run it produced. The
// graph keeps no joint members: RealizeSteps re-derives the path's.
//
// The graph is labeled by the query's *distinct* guards (solver/context.h):
// rules sharing a guard share its edges, and the engine maps an edge back
// onto every rule with that guard — through a (from-state, guard) -> targets
// table in the BFS, and a guard -> rules table when relaxing a fresh edge.
#ifndef AMALGAM_SOLVER_ENGINE_H_
#define AMALGAM_SOLVER_ENGINE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/canonical.h"
#include "obs/trace.h"
#include "solver/backend.h"
#include "solver/cache.h"
#include "solver/context.h"
#include "solver/graph.h"
#include "solver/intern.h"
#include "system/concrete.h"
#include "system/dds.h"

namespace amalgam {

/// A small configuration: control state + the canonical key of its
/// (database, valuation) shape, from which DecodeCanonicalKey recovers
/// both.
struct SmallConfig {
  int state = -1;
  std::string shape;
};

/// How the engine explores the sub-transition graph.
enum class SolveStrategy {
  /// Incremental search with early exit (default).
  kOnTheFly,
  /// Materialize the whole sub-transition graph, then BFS.
  kEager,
};

struct SolveOptions {
  /// Reconstruct a concrete witness database + run on success.
  bool build_witness = true;
  /// Abort (throwing std::runtime_error) if more configurations than this
  /// are discovered — a guard against mis-specified classes.
  std::uint64_t max_configs = 1 << 22;
  /// Exploration strategy; kEager preserves the original pipeline for
  /// differential testing.
  SolveStrategy strategy = SolveStrategy::kOnTheFly;
  /// When set, the engine serves the query from the cached graph for
  /// (backend fingerprint, k, guard set) when one exists: a complete entry
  /// answers with members_enumerated == 0; a partial entry is replayed
  /// (BFS over its recorded edges) and resumed from its BuildCursor only
  /// if the verdict needs more of the class. Misses build fresh. With
  /// kOnTheFly the build keeps its early exit — the resulting partial
  /// graph is cached (and persisted, with a store) for the next query to
  /// extend; with kEager the build runs to completion as before. Either
  /// way the sweeps draw their members from the class's member table
  /// (GraphCache::AcquireMemberTable) when the query keeps the default
  /// atom cap: they read what earlier sweeps over the class appended and
  /// append what they sweep past its end. Graphs and all counters but
  /// members_generated are the same as without the table. Graphs persist across processes when
  /// the cache has a store attached (GraphCache's `store_dir`): a query in
  /// a fresh process finds the previous run's complete graph (zero
  /// enumeration) or resumes its partial one from the stored cursor. The
  /// store's disk caps are the cache owner's to enforce
  /// (GraphCache::SweepStore).
  GraphCache* cache = nullptr;
  /// Cap on the relational enumerators' per-partition atom count (the
  /// candidate space is 2^atoms). 0 keeps the backend default
  /// (kDefaultRelationalAtomCap = 28). Exceeding the cap raises
  /// EnumerationCapError — a structured error that amalgamd surfaces to
  /// clients as an in-band JSON error — instead of silently grinding
  /// through an astronomically large grid. The cap does not change the
  /// member stream of a query that succeeds, so it is not part of the
  /// cache key.
  std::uint32_t relational_atom_cap = 0;
  /// When non-null, the engine records its phases into this recorder as a
  /// "solve" span with per-phase children (cache lookup with store-tier
  /// annotations, initial/joint sweeps with member counts, BFS, store
  /// save, witness reconstruction; a resumed partial entry annotates the
  /// cursor it picked up from). Null — the default — costs one branch per
  /// span site (see obs/trace.h). Not part of the cache key.
  TraceRecorder* trace = nullptr;
};

/// One sub-transition along a witness path: the guard that held and a joint
/// member of the class (with its 2k-mark tuple) in which it held, whose old
/// and new projections are the path's two configurations.
struct SubTransition {
  int guard = -1;  // index into SubTransitionGraph::guards()
  Structure joint;
  std::vector<Elem> marks;  // old valuation ++ new valuation
};

struct SolveResult {
  /// True iff some database in the class drives an accepting run.
  bool nonempty = false;
  /// The path of small configurations (nonempty verdicts with
  /// SolveOptions::build_witness only: each entry copies a canonical form,
  /// which on a cache hit costs more than the BFS). With kEager this is a
  /// BFS-shortest path; with kOnTheFly the path follows edge-arrival order
  /// and may be longer (witness reconstruction cost grows with path length
  /// — prefer kEager when minimal witnesses matter more than solve time).
  std::vector<SmallConfig> path;
  /// The sub-transitions along the path (path.size() - 1 entries), filled
  /// with it from joint members re-derived from the backend (the graph
  /// stores none); witness reconstruction is their only reader.
  std::vector<SubTransition> steps;
  /// Concrete witness (requires build_witness and a backend that implements
  /// Amalgamate; nullopt otherwise).
  std::optional<Structure> witness_db;
  std::optional<ConcreteRun> witness_run;
  SolveStats stats;
};

/// Structured "the reconstructed witness does not check out" error: a path
/// edge that no joint member of the class realizes, a witness step whose
/// joint member does not project onto the path's configurations, or a
/// concrete run that ValidateAcceptingRun rejects.
/// Either means the graph the verdict came from is inconsistent, so the
/// query fails in-band (amalgamd reports `error_code` = kCode) instead of
/// answering.
class WitnessInvalidError : public std::runtime_error {
 public:
  static constexpr const char* kCode = "witness_invalid";

  explicit WitnessInvalidError(const std::string& what)
      : std::runtime_error("witness check failed: " + what) {}
};

/// One emptiness query over one system and one backend. Single-use: build,
/// Run() once, discard.
class ExplorationEngine {
 public:
  /// A query over `context`, which SystemGraphContext (or a front door's
  /// wrapper of it) derived for `system` and which checked that the system
  /// fits the class; the engine queries context.backend. Throws
  /// std::invalid_argument when the context's register count or rule
  /// count is not the system's. The context must outlive the engine.
  ExplorationEngine(const DdsSystem& system, const GraphContext& context,
                    const SolveOptions& options = {});

  SolveResult Run();

 private:
  int config_id(int state, int shape) const {
    return shape * num_states_ + state;
  }

  /// On-the-fly exploration over owned_graph_, starting from whatever the
  /// graph already holds: replays existing shapes/edges first (a resumed
  /// partial graph may already contain the goal), then continues the
  /// member sweep from the graph's cursor with early exit, advancing the
  /// cursor as it goes.
  void RunOnTheFly();
  /// BFS over graph_'s recorded edges from its initial shapes, under a span
  /// named `span_name` annotated with whether the goal was found.
  void SearchRecorded(const char* span_name);

  /// Grows the per-config reachability tables (parent_/via_guard_) to the
  /// graph's current shape count and enforces the configuration cap.
  void EnsureConfigCapacity();

  /// Marks every (initial state, shape) configuration reached; sets goal_
  /// when one of them is accepting.
  void SeedInitialShape(int shape);

  /// Relaxes one fresh edge against the current reached set, for every
  /// rule whose guard is `guard`; false once the goal is reached.
  bool RelaxNewEdge(int guard, int old_shape, int new_shape);

  /// BFS over the recorded edges from the current queue until exhaustion or
  /// an accepting configuration.
  void DrainQueue();

  /// Path reconstruction + optional witness replay into result_.
  void Finish();
  /// Fills result_.steps with one joint member per edge of result_.path
  /// (edge i is taken under guard_path[i]): its earliest realizer in one
  /// shared pass over the 2k stream. The graph, maybe a shared cache entry,
  /// is only read. Returns the members enumerated; throws
  /// WitnessInvalidError for an unrealized edge.
  std::uint64_t RealizeSteps(const std::vector<int>& guard_path);
  /// Replays the soundness proof along the path and checks the concrete
  /// run; throws WitnessInvalidError when either does not hold up.
  void ReconstructWitness();

  const DdsSystem& system_;
  const GraphContext& ctx_;
  const SolverBackend& backend_;
  SolveOptions options_;
  int k_;
  int num_states_;

  // Rules by guard (CSR): guard_rules_[guard_rule_begin_[g] ..
  // guard_rule_begin_[g + 1]) are the ids of the rules whose guard is g.
  std::vector<int> guard_rule_begin_;
  std::vector<int> guard_rules_;
  // Target states by (from-state, guard) (CSR over the row
  // state * num_guards + guard): the BFS looks up each edge's guard in the
  // dequeued configuration's state row.
  std::vector<int> target_begin_;
  std::vector<int> targets_;
  // The active graph: `owned_graph_` when this on-the-fly query builds or
  // resumes it (resumption always copies the shared cache entry first),
  // else the complete or replayed graph the cache path handed over.
  std::shared_ptr<SubTransitionGraph> owned_graph_;
  std::shared_ptr<const SubTransitionGraph> graph_;

  // parent_[c] = config id of predecessor (kUnvisited / kRoot sentinels);
  // via_guard_[c] = guard of the edge used to reach c.
  std::vector<int> parent_;
  std::vector<int> via_guard_;
  std::queue<int> queue_;
  int goal_ = -1;

  SolveResult result_;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_ENGINE_H_
