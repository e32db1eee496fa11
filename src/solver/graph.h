// The sub-transition graph shared by every emptiness solver.
//
// Both the linear exploration engine (solver/engine.h) and the branching
// backward fixpoint (solver/branching.h) decide emptiness over the same
// object: the graph whose vertices are interned small-configuration shapes
// and whose edges are sub-transitions — guard hits on the members of the
// class generated by 2k marks, with the old/new k-mark projections interned
// as endpoints. SubTransitionGraph owns that joint-member sweep (guard
// evaluation + projection interning + edge deduplication) in one place:
//
//   * the engine drives it incrementally (one joint member at a time, a
//     callback per fresh edge, stoppable mid-member for the on-the-fly
//     early exit);
//   * the branching solver and the cached path build it eagerly with
//     BuildFull, which sweeps the whole class serially and marks the graph
//     complete. There is no parallel build: over the classes the daemon
//     serves (at most a few thousand members) sharding the sweep across
//     threads measured slower than the serial sweep.
//
// Every sweep draws its members from a MemberSource: the backend's
// positioned streams, optionally fronted by the class's MemberTable
// (solver/member_table.h), which holds a prefix of the same streams. A
// table-fronted sweep reads that prefix with its quantifier-free guards
// bit-sliced over the table's atom columns (SlicedGuard), visiting only
// the members some guard hits, grows the table past its end from the
// backend, and builds the same graph bit for bit.
//
// A graph depends only on (backend, k, guard set) — not on the control
// skeleton that supplied the guards — so it is shareable across queries and
// across solvers; solver/cache.h keys that reuse by backend fingerprint.
//
// Completeness is not a boolean precondition but a *cursor*: every graph
// carries a BuildCursor recording how far its member sweep has progressed
// (sweep phase + position in that phase's deterministic member stream). An
// early-exited on-the-fly build leaves a partial graph whose cursor marks
// where a later query — in this process or, through solver/store.h, in a
// different one — resumes the sweep instead of rebuilding from scratch;
// BuildFull on a partial graph finishes the remaining suffix only. A
// resumed-to-completion graph is bit-identical to a cold full build (same
// shape numbering, same edges). The cursor and the edge count together
// are the graph's BuildProgress, the one order by which copies of a graph
// compete in the cache and the store. Both sweep phases run through one
// driver (SweepPhase, graph.cc): the table prefix, then the backend's
// stream, then the cursor moves on to the next phase. An edge is only
// (guard, new shape): no joint member is kept per edge, and a witness
// re-derives those of its path's edges from the backend (solver/engine.h).
#ifndef AMALGAM_SOLVER_GRAPH_H_
#define AMALGAM_SOLVER_GRAPH_H_

#include <compare>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "logic/compiled.h"
#include "logic/formula.h"
#include "solver/backend.h"
#include "solver/intern.h"
#include "util/flat_hash.h"

namespace amalgam {

class MemberTable;
class ScopedSpan;

/// Where a sweep's members come from: `backend`'s positioned streams,
/// through the class's `table` when set — the sweep reads the members the
/// table holds and grows it past its end (solver/member_table.h).
/// `atom_cap` is threaded to the backend as EnumControl::atom_cap (0 =
/// backend default); a table only ever grows and is read under the default
/// cap.
struct MemberSource {
  const SolverBackend& backend;
  MemberTable* table = nullptr;
  std::uint32_t atom_cap = 0;
};

/// Counters for the complexity experiments.
struct SolveStats {
  std::uint64_t members_enumerated = 0;  // candidates from the class
  /// Members the backend had to *materialize* to serve the sweep — the
  /// generation-vs-processing split. Backends with native cursors generate
  /// only the requested suffix, so resumed builds report less than the
  /// full stream here; backends that walk their stream from its start to
  /// skip the prefix report the full stream.
  std::uint64_t members_generated = 0;
  std::uint64_t guard_evaluations = 0;
  std::uint64_t edges = 0;               // distinct sub-transitions
  std::uint64_t configs = 0;             // distinct small configurations
  std::uint64_t raw_memo_hits = 0;       // canonicalizations skipped
  /// Members this query's sweeps appended to their class's MemberTable.
  std::uint64_t members_appended = 0;
  /// Members a table sweep unpacked for guards the bit-sliced path cannot
  /// decide (function terms, relations wider than GuardAtom::kMaxArity).
  std::uint64_t members_unpacked = 0;
  bool graph_from_cache = false;         // seeded by a GraphCache entry
  bool graph_resumed = false;            // that entry was partial (cursor)
  bool coalesced = false;  // waited on another query's build claim
};

/// Annotates a sweep's span with where its members came from (`source`:
/// `table` or `stream`), and the members it appended to its class's table
/// and unpacked from it: the growth of `stats` since `before`.
void AnnotateSweepSource(ScopedSpan& span, const MemberTable* table,
                         const SolveStats& before, const SolveStats& stats);

/// Where a (possibly suspended) graph build stands in its member sweep.
/// `next_member` is the position in the current phase's member stream the
/// build resumes at: members before it are fully processed; the member
/// *at* it may have been partially processed by a mid-member early exit,
/// and re-sweeping it is safe because edge recording deduplicates. The
/// streams are deterministic per backend fingerprint (same structures, same
/// order — the Fingerprint contract), which is what makes a cursor
/// meaningful across processes. Ordered by (phase, next_member).
struct BuildCursor {
  /// 0 = in the k-generated initial-member sweep, 1 = in the 2k
  /// joint-member sweep, 2 = complete.
  std::uint32_t phase = 0;
  std::uint64_t next_member = 0;

  friend auto operator<=>(const BuildCursor&, const BuildCursor&) = default;
};

/// How far a graph's build has got: its cursor, then its edge count (a
/// mid-member early exit records edges without advancing the cursor).
/// This is the one order among copies of a graph: the cache keeps the
/// greater of two entries for a key (solver/cache.h), the store writes a
/// graph only over lesser persisted progress and a repack keeps a key's
/// greatest copy (solver/store.h).
struct BuildProgress {
  BuildCursor cursor;
  std::uint64_t edges = 0;

  friend auto operator<=>(const BuildProgress&, const BuildProgress&) =
      default;
};

inline constexpr std::uint32_t kCursorPhaseInitial = 0;
inline constexpr std::uint32_t kCursorPhaseJoint = 1;
inline constexpr std::uint32_t kCursorPhaseComplete = 2;

/// The labeled graph of sub-transitions between interned shapes. Guards are
/// indexed 0..n-1; the front doors pass the distinct guards of their rule
/// or branch list (GraphContext in solver/context.h) and map each guard
/// back onto the rules or branches that carry it.
class SubTransitionGraph {
 public:
  /// An edge out of an old shape: the guard that held and the interned
  /// shape of the new projection.
  struct Edge {
    int guard;
    int new_shape;
  };

  /// Invoked once per freshly recorded (deduplicated) edge during a
  /// streaming build; return false to stop processing the current member.
  using EdgeCallback =
      std::function<bool(int guard, int old_shape, int new_shape)>;

  /// `guards` must be quantifier-free formulas over the old/new variable
  /// convention for `k` registers (variable i = old register i, k + i =
  /// new register i).
  SubTransitionGraph(std::vector<FormulaRef> guards, int k);

  /// Reassembles a graph from persisted parts (solver/store.cc): the shape
  /// keys (copied into the interner's arena), the initial set and the edge
  /// lists, flattened — the edges out of shape s are
  /// edges[edge_begin[s], edge_begin[s + 1]) — are adopted verbatim.
  /// Derived state is rebuilt here so a restored graph resumes or serves
  /// queries exactly like the graph that was serialized: a partial graph
  /// gets its hash-consing map, per-guard dedup sets and initial-shape
  /// flags back, and a complete one comes out frozen, as its build would
  /// have left it, with no dedup sets at all. Returns nullptr when the
  /// parts are inconsistent (corrupt payload): out-of-range shape/guard
  /// indices or edge offsets, duplicate shapes, initial shapes or edges,
  /// or an out-of-range cursor.
  static std::shared_ptr<SubTransitionGraph> FromParts(
      std::vector<FormulaRef> guards, int k, SchemaRef schema,
      std::span<const std::string_view> shape_keys,
      std::vector<int> initial_shapes, std::vector<Edge> edges,
      std::vector<std::uint32_t> edge_begin, BuildCursor cursor);

  // ---- Streaming construction (the incremental engine). ----

  /// Interns a k-generated member as an initial shape; returns its id.
  int AddInitialMember(const Structure& d, std::span<const Elem> marks);

  /// Evaluates every guard on a joint 2k-generated member; on the first hit
  /// interns the old/new projections, then records one deduplicated edge
  /// per (guard, old, new) triple, invoking `on_new_edge` for each. Returns
  /// false iff the callback requested a stop.
  bool ProcessJointMember(const Structure& d, std::span<const Elem> marks,
                          SolveStats& stats, const EdgeCallback& on_new_edge);

  // ---- Positioned sweeps (the engine and the eager builds). ----

  /// Sweeps the k-generated members from the cursor: interns each as an
  /// initial shape, advances the cursor past it and calls `visit(shape)`
  /// (when set), stopping as soon as `visit` returns false. Once the stream
  /// is exhausted the cursor moves to the joint phase. Returns false iff
  /// `visit` stopped the sweep. Throws std::runtime_error when the
  /// interner grows past `max_shapes`.
  bool SweepInitial(const MemberSource& source, SolveStats& stats,
                    std::uint64_t max_shapes,
                    const std::function<bool(int shape)>& visit);

  /// Sweeps the joint members from the cursor as ProcessJointMember does,
  /// invoking `on_new_edge` (when set) per fresh edge. The cursor advances
  /// past each fully swept member and, once the stream is exhausted, to
  /// complete; a member the callback interrupts stays in front of it.
  /// Returns false iff `on_new_edge` stopped the sweep. Throws like
  /// SweepInitial.
  bool SweepJoint(const MemberSource& source, SolveStats& stats,
                  std::uint64_t max_shapes, const EdgeCallback& on_new_edge);

  // ---- Eager construction (branching fixpoint, cached queries). ----

  /// Sweeps both phases from the cursor to the end and marks the graph
  /// complete (SweepInitial + SweepJoint without callbacks). On a restored
  /// partial graph only the remaining stream suffix is swept (stats count
  /// just that suffix), and the finished graph is bit-identical to a cold
  /// full build. No-op when already complete. The graph does not depend on
  /// whether `source` has a table; only the stats' members_generated and
  /// raw_memo_hits do. Throws std::runtime_error when the interner grows
  /// past `max_shapes` (a guard against mis-specified classes).
  void BuildFull(const MemberSource& source, SolveStats& stats,
                 std::uint64_t max_shapes = ~std::uint64_t{0});

  // ---- Read access. ----

  const ConfigInterner& interner() const { return interner_; }
  int num_shapes() const { return interner_.size(); }
  /// The schema of the class whose members the shapes project (every
  /// shape key decodes over it); null until a sweep or a member has
  /// supplied it.
  const SchemaRef& schema() const { return schema_; }
  const std::vector<int>& initial_shapes() const { return initial_shapes_; }
  std::span<const Edge> edges_from(int shape) const {
    if (complete()) {
      return std::span<const Edge>(edges_.data() + edge_begin_[shape],
                                   edges_.data() + edge_begin_[shape + 1]);
    }
    return edges_by_shape_[shape];
  }
  std::uint64_t num_edges() const { return num_edges_; }
  int k() const { return k_; }
  const std::vector<FormulaRef>& guards() const { return guards_; }
  /// guards() lowered to bytecode (immutable, so shareable across threads).
  const std::vector<CompiledGuard>& compiled_guards() const {
    return compiled_guards_;
  }

  /// How far the member sweep has progressed; persisted alongside the
  /// graph so a later query resumes instead of rebuilding.
  const BuildCursor& cursor() const { return cursor_; }
  /// The cursor and edge count, in the order copies of a graph compete by.
  BuildProgress progress() const { return BuildProgress{cursor_, num_edges_}; }

  /// Records sweep progress for a caller that feeds members through
  /// AddInitialMember/ProcessJointMember itself (SweepInitial and
  /// SweepJoint advance the cursor on their own; phase
  /// kCursorPhaseComplete marks the graph complete). Throws
  /// std::logic_error on a non-monotonic move — cursors only ever advance.
  void AdvanceCursorTo(const BuildCursor& c);

  /// True once the whole class has been swept (cursor phase 2): the graph
  /// holds every shape and edge and serves any query with zero enumeration.
  /// A complete graph is frozen: it keeps only what a query reads — shape
  /// keys, initial shapes, edges and the compiled guards — and releases
  /// the build state the sweep needed (dedup sets, the interner's tables
  /// and memo, sliced guards, VM scratch). It is never mutated again.
  bool complete() const { return cursor_.phase == kCursorPhaseComplete; }

 private:
  /// Moves the cursor to `c`, freezing the graph when `c` is complete.
  void SetCursor(const BuildCursor& c);
  /// Flattens the edge lists and releases the build state (see
  /// complete()).
  void Freeze();
  /// Releases what only a sweep reads: the interner's tables and memo, the
  /// dedup sets, the sliced guards and the VM scratch.
  void ReleaseBuildState();
  /// Records the class schema from the first source that supplies it.
  void NoteSchema(const SchemaRef& schema) {
    if (schema_ == nullptr) schema_ = schema;
  }

  /// Records `shape` as initial (once); returns it.
  int MarkInitial(int shape);

  /// ProcessJointMember over one member whose guard g holds iff `hit(g)`,
  /// with the projections' shape ids supplied by `intern()` on the
  /// member's first guard hit.
  template <typename Hit, typename Intern>
  bool SweepMember(SolveStats& stats, Hit&& hit, Intern&& intern,
                   const EdgeCallback& on_new_edge);

  /// One sweep's state over a member table (graph.cc).
  struct TableSweep;
  /// Sweeps phase `stream` (MemberTable::kInitial or kJoint) from the
  /// cursor to the end of its member stream, then moves the cursor to the
  /// next phase: the prefix the source's table holds goes to
  /// `read(sweep, end)`, which sweeps up to `end`, and the rest is streamed
  /// from the backend, one member at a time, to `member(d, marks, index)`.
  /// Either returns false to stop the sweep; this returns false iff one
  /// did. Adds the canonicalizations the phase skipped to
  /// stats.raw_memo_hits.
  template <typename Read, typename Member>
  bool SweepPhase(const MemberSource& source, int stream, SolveStats& stats,
                  Read&& read, Member&& member);
  /// Sweeps the table's joint members from the cursor up to `to`, guards
  /// bit-sliced over 64 members at a time where they allow it.
  bool ReadJoint(TableSweep& sweep, std::uint64_t to, SolveStats& stats,
                 std::uint64_t max_shapes, const EdgeCallback& on_new_edge);

  /// Moves the cursor past member `index` of the current phase; throws
  /// once the interner holds more than `max_shapes` shapes.
  void PassMember(std::uint64_t index, std::uint64_t max_shapes);

  std::vector<FormulaRef> guards_;
  // The guards lowered to bytecode once at construction (logic/compiled.h).
  std::vector<CompiledGuard> compiled_guards_;
  // The guards lowered for bit-sliced table sweeps, on the first table
  // read; nullopt keeps a guard on the VM.
  std::vector<std::optional<SlicedGuard>> sliced_guards_;
  // The sweep's reusable VM state (the class is not thread-safe for
  // concurrent mutation).
  GuardEvaluator guard_eval_;
  int k_;

  SchemaRef schema_;
  ConfigInterner interner_;
  std::vector<int> initial_shapes_;
  std::vector<char> is_initial_;  // dedup flag per shape id
  // The edges while the graph grows, one list per shape.
  std::vector<std::vector<Edge>> edges_by_shape_;
  // The edges once it is complete: shape s's are
  // edges_[edge_begin_[s], edge_begin_[s + 1]).
  std::vector<Edge> edges_;
  std::vector<std::uint32_t> edge_begin_;
  // Deduplication per guard: packed (old_shape, new_shape) pairs already
  // recorded. Shape ids are 32-bit, so the pair packs exactly into the two
  // halves of a uint64 — no overlap however large the arena grows.
  std::vector<FlatU64Set> seen_;
  std::uint64_t num_edges_ = 0;
  BuildCursor cursor_;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_GRAPH_H_
