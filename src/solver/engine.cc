#include "solver/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "solver/member_table.h"
#include "solver/store.h"

namespace amalgam {

namespace {
constexpr int kUnvisited = -1;
constexpr int kRoot = -2;

// The front door's preconditions. Checked before a context is derived:
// printing a guard under a schema it does not fit is undefined.
void CheckSystemFits(const DdsSystem& system, const SolverBackend& backend) {
  if (!system.AllGuardsQuantifierFree()) {
    throw std::invalid_argument(
        "guards must be quantifier-free; run EliminateExistentials first");
  }
  if (!IsPrefixSchema(system.schema(), *backend.schema())) {
    throw std::invalid_argument(
        "the system's schema must be a prefix of the class's schema");
  }
}

GraphContext CheckedSystemContext(const DdsSystem& system,
                                  const SolverBackend& backend) {
  CheckSystemFits(system, backend);
  return SystemGraphContext(BorrowBackend(backend), system);
}

// Groups `value_of(i)` for i in [0, n) by `row_of(i)` into a CSR table
// with `num_rows` rows, keeping index order within each row.
template <typename RowOf, typename ValueOf>
void BuildCsr(int n, int num_rows, RowOf&& row_of, ValueOf&& value_of,
              std::vector<int>& begin, std::vector<int>& values) {
  begin.assign(num_rows + 1, 0);
  for (int i = 0; i < n; ++i) ++begin[row_of(i) + 1];
  for (int r = 0; r < num_rows; ++r) begin[r + 1] += begin[r];
  values.resize(n);
  std::vector<int> fill(begin.begin(), begin.end() - 1);
  for (int i = 0; i < n; ++i) values[fill[row_of(i)]++] = value_of(i);
}
}  // namespace

ExplorationEngine::ExplorationEngine(const DdsSystem& system,
                                     const SolverBackend& backend,
                                     const SolveOptions& options)
    : system_(system),
      owned_context_(CheckedSystemContext(system, backend)),
      ctx_(&*owned_context_),
      backend_(backend),
      options_(options),
      k_(system.num_registers()),
      num_states_(system.num_states()) {
  Init();
}

ExplorationEngine::ExplorationEngine(const DdsSystem& system,
                                     const GraphContext& context,
                                     const SolveOptions& options)
    : system_(system),
      ctx_(&context),
      backend_(*context.backend),
      options_(options),
      k_(system.num_registers()),
      num_states_(system.num_states()) {
  CheckSystemFits(system_, backend_);
  Init();
}

void ExplorationEngine::Init() {
  const std::vector<TransitionRule>& rules = system_.rules();
  const int num_rules = static_cast<int>(rules.size());
  const int num_guards = static_cast<int>(ctx_->guards.size());
  if (ctx_->k != k_ || ctx_->guard_of.size() != rules.size()) {
    throw std::invalid_argument(
        "the graph context was not derived from this system");
  }
  BuildCsr(
      num_rules, num_guards, [&](int r) { return ctx_->guard_of[r]; },
      [](int r) { return r; }, guard_rule_begin_, guard_rules_);
  BuildCsr(
      num_rules, num_states_ * num_guards,
      [&](int r) { return rules[r].from * num_guards + ctx_->guard_of[r]; },
      [&](int r) { return rules[r].to; }, target_begin_, targets_);
}

void ExplorationEngine::EnsureConfigCapacity() {
  const std::size_t num_shapes =
      static_cast<std::size_t>(graph_->num_shapes());
  if (static_cast<std::uint64_t>(num_shapes) * num_states_ >
      options_.max_configs) {
    throw std::runtime_error(
        "emptiness solver exceeded the configuration cap");
  }
  if (parent_.size() < num_shapes * num_states_) {
    parent_.resize(num_shapes * num_states_, kUnvisited);
    via_guard_.resize(num_shapes * num_states_, -1);
  }
}

void ExplorationEngine::SeedInitialShape(int shape) {
  for (int q = 0; q < num_states_ && goal_ < 0; ++q) {
    if (!system_.is_initial(q)) continue;
    const int c = config_id(q, shape);
    if (parent_[c] != kUnvisited) continue;
    parent_[c] = kRoot;
    if (system_.is_accepting(q)) {
      goal_ = c;
      return;
    }
    queue_.push(c);
  }
}

bool ExplorationEngine::RelaxNewEdge(int guard, int old_shape,
                                     int new_shape) {
  EnsureConfigCapacity();
  bool pushed = false;
  for (int i = guard_rule_begin_[guard]; i < guard_rule_begin_[guard + 1];
       ++i) {
    const TransitionRule& r = system_.rules()[guard_rules_[i]];
    const int from = config_id(r.from, old_shape);
    if (parent_[from] == kUnvisited) continue;
    const int next = config_id(r.to, new_shape);
    if (parent_[next] != kUnvisited) continue;
    parent_[next] = from;
    via_guard_[next] = guard;
    if (system_.is_accepting(r.to)) {
      goal_ = next;
      return false;
    }
    queue_.push(next);
    pushed = true;
  }
  if (pushed) DrainQueue();
  return goal_ < 0;
}

void ExplorationEngine::DrainQueue() {
  const int num_guards = static_cast<int>(ctx_->guards.size());
  while (goal_ < 0 && !queue_.empty()) {
    const int c = queue_.front();
    queue_.pop();
    const int state = c % num_states_;
    const int shape = c / num_states_;
    const int* row = target_begin_.data() + state * num_guards;
    if (row[0] == row[num_guards]) continue;  // no rule leaves `state`
    for (const SubTransitionGraph::Edge& e : graph_->edges_from(shape)) {
      for (int t = row[e.guard]; t < row[e.guard + 1]; ++t) {
        const int to = targets_[t];
        const int next = config_id(to, e.new_shape);
        if (parent_[next] != kUnvisited) continue;
        parent_[next] = c;
        via_guard_[next] = e.guard;
        if (system_.is_accepting(to)) {
          goal_ = next;
          return;
        }
        queue_.push(next);
      }
    }
  }
}

void ExplorationEngine::RunOnTheFly() {
  // Replay: a partial cache entry already holds shapes and edges — BFS
  // over them before touching the backend, so a goal inside the explored
  // region is found with zero enumeration and zero copying (the steady
  // state for repeated nonempty queries). On a fresh graph this is a
  // no-op.
  {
    ScopedSpan replay_span(options_.trace, "bfs_replay");
    EnsureConfigCapacity();
    for (int shape : graph_->initial_shapes()) {
      if (goal_ >= 0) break;
      SeedInitialShape(shape);
    }
    DrainQueue();
    replay_span.Annotate("goal_found", std::uint64_t{goal_ >= 0});
  }
  if (goal_ >= 0) return;

  // The sweep must continue: from here on the graph is mutated, so a
  // shared partial entry is copied first — the cached object stays
  // immutable for concurrent readers.
  if (!owned_graph_) {
    owned_graph_ = std::make_shared<SubTransitionGraph>(*graph_);
    graph_ = owned_graph_;
  }
  const std::uint64_t raw_hits_before = owned_graph_->interner().raw_hits();

  // Initial frontier: members generated by the k registers, seeded as they
  // stream in (resuming mid-phase when the graph's cursor says so); an
  // accepting initial state exits before the 2k sweep starts.
  if (owned_graph_->cursor().phase == kCursorPhaseInitial) {
    ScopedSpan sweep_span(options_.trace, "sweep_initial");
    const std::uint64_t enumerated_before = result_.stats.members_enumerated;
    const std::uint64_t generated_before = result_.stats.members_generated;
    owned_graph_->SweepInitial(StreamSource(), result_.stats,
                               ~std::uint64_t{0},
                               [&](int shape) {
                                 EnsureConfigCapacity();
                                 SeedInitialShape(shape);
                                 return goal_ < 0;
                               });
    sweep_span.Annotate("members_enumerated",
                        result_.stats.members_enumerated - enumerated_before);
    sweep_span.Annotate("members_generated",
                        result_.stats.members_generated - generated_before);
  }

  // Joint sweep. Backends with the EnumerateExtensions capability get the
  // frontier-directed form when nothing is cached or persisted (see
  // RunFrontierSweep — its graph is not a resumable stream prefix); the
  // positioned stream sweep below otherwise.
  if (goal_ < 0 && options_.cache == nullptr && k_ >= 1 &&
      backend_.SupportsExtensions() &&
      owned_graph_->cursor() == BuildCursor{kCursorPhaseJoint, 0}) {
    RunFrontierSweep();
    result_.stats.raw_memo_hits =
        owned_graph_->interner().raw_hits() - raw_hits_before;
    return;
  }

  // Sub-transition stream: reachability is relaxed against every edge the
  // moment it is recorded, and the sweep stops at the first accepting
  // configuration instead of covering the rest of the class. The cursor
  // advances past fully swept members only — a member interrupted
  // mid-sweep stays in front of it and is re-swept (deduplicated) on
  // resume.
  if (goal_ < 0) {
    ScopedSpan sweep_span(options_.trace, "sweep_joint");
    const std::uint64_t enumerated_before = result_.stats.members_enumerated;
    const std::uint64_t edges_before = owned_graph_->num_edges();
    owned_graph_->SweepJoint(
        StreamSource(), result_.stats, ~std::uint64_t{0},
        [this](int guard, int old_shape, int new_shape) {
          return RelaxNewEdge(guard, old_shape, new_shape);
        });
    sweep_span.Annotate("members_enumerated",
                        result_.stats.members_enumerated - enumerated_before);
    sweep_span.Annotate("edges", owned_graph_->num_edges() - edges_before);
  }
  // Only this query's own canonicalization work: a copied in-process
  // partial entry carries its builder's counter, which is not ours.
  result_.stats.raw_memo_hits =
      owned_graph_->interner().raw_hits() - raw_hits_before;
}

MemberSource ExplorationEngine::StreamSource() const {
  return MemberSource{backend_, nullptr, options_.relational_atom_cap};
}

void ExplorationEngine::RunFrontierSweep() {
  // Worklist over shapes: expand every shape some rule could currently
  // fire out of, relax the fresh edges (which may reach new shapes'
  // configurations), rescan until closed or the goal appears. Each shape
  // expands at most once with all guards, so no joint member is generated
  // twice. The k-phase interned every k-generated member, and a joint's
  // projections are k-generated members, so expansion never adds shapes —
  // the scan is over a fixed arena.
  ScopedSpan sweep_span(options_.trace, "frontier_sweep");
  const std::uint64_t enumerated_before = result_.stats.members_enumerated;
  const std::uint64_t edges_before = owned_graph_->num_edges();
  EnsureConfigCapacity();
  const int num_shapes = graph_->num_shapes();
  std::vector<char> expanded(num_shapes, 0);
  bool progress = true;
  while (goal_ < 0 && progress) {
    progress = false;
    for (int shape = 0; shape < num_shapes && goal_ < 0; ++shape) {
      if (expanded[shape]) continue;
      bool relevant = false;
      for (const TransitionRule& rule : system_.rules()) {
        if (parent_[config_id(rule.from, shape)] != kUnvisited) {
          relevant = true;
          break;
        }
      }
      if (!relevant) continue;
      expanded[shape] = 1;
      progress = true;
      // Copy: ProcessJointMember interns projections, and even though they
      // dedupe to existing shapes, holding a reference into the arena
      // across it would be fragile.
      const CanonicalForm form = owned_graph_->interner().shape(shape);
      backend_.EnumerateExtensions(
          form.structure, form.marks, k_,
          [&](const Structure& d, std::span<const Elem> marks) {
            ++result_.stats.members_enumerated;
            const bool swept = owned_graph_->ProcessJointMember(
                d, marks, result_.stats,
                [this](int guard, int old_shape, int new_shape) {
                  return RelaxNewEdge(guard, old_shape, new_shape);
                });
            return swept && goal_ < 0;
          },
          EnumControl{&result_.stats.members_generated,
                      options_.relational_atom_cap});
    }
  }
  sweep_span.Annotate("members_enumerated",
                      result_.stats.members_enumerated - enumerated_before);
  sweep_span.Annotate("edges", owned_graph_->num_edges() - edges_before);
}

void ExplorationEngine::RunFullGraph() {
  if (!graph_) {
    // Build — or, when owned_graph_ was preloaded from a partial cache
    // entry, finish — the complete graph, then publish it.
    {
      // A whole-class sweep: the class's member table serves it when the
      // caller's cache has (or now builds) one.
      std::shared_ptr<const MemberTable> table;
      if (options_.cache != nullptr &&
          MemberTable::Serves(options_.relational_atom_cap)) {
        table = options_.cache->AcquireMemberTable(
            ctx_->class_key(), backend_, k_, result_.stats, options_.trace);
      }
      const MemberSource source{backend_, table.get(),
                                options_.relational_atom_cap};
      ScopedSpan build_span(options_.trace, "full_build");
      if (!owned_graph_) {
        owned_graph_ = std::make_shared<SubTransitionGraph>(ctx_->guards, k_);
      }
      const std::uint64_t max_shapes =
          num_states_ == 0 ? ~std::uint64_t{0}
                           : options_.max_configs / num_states_;
      owned_graph_->BuildFull(source, result_.stats, max_shapes);
      build_span.Annotate("source", table ? "table" : "stream");
      build_span.Annotate("members_generated",
                          result_.stats.members_generated);
      build_span.Annotate("edges", owned_graph_->num_edges());
    }
    if (options_.cache) {
      options_.cache->Insert(ctx_->key, owned_graph_, options_.trace);
    }
    graph_ = owned_graph_;
  }
  ScopedSpan bfs_span(options_.trace, "bfs");
  EnsureConfigCapacity();
  for (int shape : graph_->initial_shapes()) {
    if (goal_ >= 0) break;
    SeedInitialShape(shape);
  }
  DrainQueue();
  bfs_span.Annotate("goal_found", std::uint64_t{goal_ >= 0});
}

SolveResult ExplorationEngine::Run() {
  ScopedSpan solve_span(options_.trace, "solve");
  if (options_.cache) {
    std::shared_ptr<const SubTransitionGraph> hit;
    {
      ScopedSpan lookup_span(options_.trace, "cache_lookup");
      hit = options_.cache->Lookup(ctx_->key, backend_.schema(),
                                   ctx_->guards, k_, options_.trace);
      lookup_span.Annotate("hit", std::uint64_t{hit != nullptr});
      lookup_span.Annotate("complete", std::uint64_t{hit && hit->complete()});
    }
    if (hit && hit->guards().size() != ctx_->guards.size()) {
      // Edge labels index the key's distinct guards; a graph built over any
      // other list cannot be mapped back onto this system's rules.
      throw std::logic_error("cached graph does not match its key's guards");
    }
    if (hit && !hit->complete()) {
      // Satellite observability for resumed flights: where the stored
      // trajectory left off, straight off the entry's cursor.
      solve_span.Annotate(
          "resumed_from_phase",
          static_cast<std::uint64_t>(hit->cursor().phase));
      solve_span.Annotate("resumed_from_member", hit->cursor().next_member);
    }
    result_.stats.graph_from_cache = hit != nullptr;
    if (hit && hit->complete()) {
      // Complete entry: pure BFS over interned ids, zero enumeration.
      graph_ = std::move(hit);
      RunFullGraph();
    } else if (options_.strategy == SolveStrategy::kEager) {
      if (hit) {
        // Partial entry: finish the build on a private copy — the cached
        // graph is shared with concurrent readers and stays immutable.
        owned_graph_ = std::make_shared<SubTransitionGraph>(*hit);
        result_.stats.graph_resumed = true;
      }
      RunFullGraph();
    } else {
      if (hit) {
        // Partial entry: replay it in place; RunOnTheFly copies it only
        // if the sweep actually has to continue.
        graph_ = std::move(hit);
        result_.stats.graph_resumed = true;
      } else {
        owned_graph_ = std::make_shared<SubTransitionGraph>(ctx_->guards, k_);
        graph_ = owned_graph_;
      }
      RunOnTheFly();
      // Whatever this run added — or the whole graph on a miss — feeds
      // the next query; a replay-served query added nothing (and owns
      // nothing), and equal progress is a no-op inside Insert anyway.
      if (owned_graph_) {
        options_.cache->Insert(ctx_->key, owned_graph_, options_.trace);
      }
    }
  } else if (options_.strategy == SolveStrategy::kEager) {
    RunFullGraph();
  } else {
    owned_graph_ = std::make_shared<SubTransitionGraph>(ctx_->guards, k_);
    graph_ = owned_graph_;
    RunOnTheFly();
  }
  Finish();
  return std::move(result_);
}

void ExplorationEngine::Finish() {
  result_.stats.configs =
      static_cast<std::uint64_t>(graph_->num_shapes()) * num_states_;
  // On a cache hit no edges were recorded this query, but the counters
  // describe the graph the verdict was decided over — report it either way.
  // raw_memo_hits is owned by whichever path built the graph (BuildFull or
  // the on-the-fly stream) and stays 0 on a cache hit: no canonicalization
  // ran at all.
  result_.stats.edges = graph_->num_edges();
  if (goal_ < 0) {
    result_.nonempty = false;
    return;
  }
  result_.nonempty = true;
  // The path copies a canonical form per configuration and its steps are
  // re-derived from the backend; only witness reconstruction reads them.
  if (!options_.build_witness) return;

  // ---- Reconstruct the path of small configurations. ----
  std::vector<int> guard_path;
  for (int c = goal_; c != kRoot; c = parent_[c]) {
    result_.path.push_back(SmallConfig{
        c % num_states_, graph_->interner().shape(c / num_states_)});
    if (parent_[c] != kRoot) guard_path.push_back(via_guard_[c]);
  }
  std::reverse(result_.path.begin(), result_.path.end());
  std::reverse(guard_path.begin(), guard_path.end());
  ScopedSpan witness_span(options_.trace, "witness");
  witness_span.Annotate("members_enumerated", RealizeSteps(guard_path));
  ReconstructWitness();
}

std::uint64_t ExplorationEngine::RealizeSteps(
    const std::vector<int>& guard_path) {
  const std::size_t num_steps = guard_path.size();
  // Projections compare by id in a scratch interner seeded with the path's
  // shapes, so a raw-memo hit skips canonicalization.
  ConfigInterner scratch;
  std::vector<int> path_id;
  for (const SmallConfig& config : result_.path) {
    path_id.push_back(scratch.InternCanonical(config.form));
  }
  const std::vector<CompiledGuard>& guards = graph_->compiled_guards();
  GuardEvaluator eval;
  // Unrealized steps keep guard -1.
  std::vector<SubTransition>& steps = result_.steps;
  steps.assign(num_steps, SubTransition{-1, Structure(backend_.schema(), 0)});
  std::uint64_t members = 0;
  // Records (d, marks) as step i, and returns true, when it realizes the
  // still unrealized path edge i.
  auto realize = [&](std::size_t i, const Structure& d,
                     std::span<const Elem> marks) {
    if (steps[i].guard >= 0 || !eval.Eval(guards[guard_path[i]], d, marks) ||
        scratch.InternProjection(d, marks.first(k_)) != path_id[i] ||
        scratch.InternProjection(d, marks.subspan(k_, k_)) != path_id[i + 1]) {
      return false;
    }
    steps[i] = SubTransition{guard_path[i], d, {marks.begin(), marks.end()}};
    return true;
  };
  const EnumControl control{nullptr, options_.relational_atom_cap};
  if (k_ >= 1 && backend_.SupportsExtensions()) {
    for (std::size_t i = 0; i < num_steps; ++i) {
      const CanonicalForm& from = result_.path[i].form;
      backend_.EnumerateExtensions(
          from.structure, from.marks, k_,
          [&](const Structure& d, std::span<const Elem> marks) {
            ++members;
            return !realize(i, d, marks);
          },
          control);
    }
  } else if (num_steps > 0) {
    std::size_t pending = num_steps;
    backend_.EnumerateGeneratedFrom(
        2 * k_, 0,
        [&](const Structure& d, std::span<const Elem> marks, std::uint64_t) {
          ++members;
          for (std::size_t i = 0; i < num_steps; ++i) {
            pending -= realize(i, d, marks);
          }
          return pending > 0;
        },
        control);
  }
  for (std::size_t i = 0; i < num_steps; ++i) {
    if (steps[i].guard < 0) {
      throw WitnessInvalidError("step " + std::to_string(i) +
                                " is realized by no member of the class");
    }
  }
  return members;
}

void ExplorationEngine::ReconstructWitness() {
  // Replay the soundness proof. Invariants: `big` is a member of C;
  // `cur[c]` maps the canonical elements of the current configuration's
  // shape into `big`; `valuations[i]` are the register contents of step i
  // in `big`'s coordinates.
  Structure big = result_.path.front().form.structure;
  std::vector<Elem> cur(big.size());
  for (Elem e = 0; e < big.size(); ++e) cur[e] = e;
  std::vector<std::vector<Elem>> valuations;
  valuations.push_back(result_.path.front().form.marks);
  // The substructure of step i's joint member generated by `marks`, and its
  // canonical form, which must be path configuration `at`'s shape.
  auto project = [&](std::size_t i, std::span<const Elem> marks,
                     std::size_t at) {
    SubstructureResult sub =
        GeneratedSubstructure(result_.steps[i].joint, marks);
    std::vector<Elem> sub_marks(k_);
    for (int j = 0; j < k_; ++j) sub_marks[j] = sub.old_to_new[marks[j]];
    CanonicalForm canon = Canonicalize(sub.structure, sub_marks);
    if (canon.key != result_.path[at].form.key) {
      throw WitnessInvalidError("step " + std::to_string(i) + " does not " +
                                (at == i ? "start" : "end") +
                                " at its path configuration");
    }
    return std::pair(std::move(sub), std::move(canon));
  };

  for (std::size_t i = 0; i < result_.steps.size(); ++i) {
    const SubTransition& st = result_.steps[i];
    const Structure& joint = st.joint;
    std::span<const Elem> old_marks(st.marks.data(), k_);
    std::span<const Elem> new_marks(st.marks.data() + k_, k_);
    const auto [old_sub, old_canon] = project(i, old_marks, i);
    // Map joint -> big over the common part (the old configuration).
    std::vector<Elem> joint_to_big(joint.size(), kNoElem);
    for (Elem sub_e = 0; sub_e < old_sub.structure.size(); ++sub_e) {
      Elem joint_e = old_sub.new_to_old[sub_e];
      joint_to_big[joint_e] = cur[old_canon.perm[sub_e]];
    }
    auto am = backend_.Amalgamate(big, joint, joint_to_big);
    if (!am.has_value()) return;  // backend without witness reconstruction
    big = std::move(am->structure);
    // Remap all previous valuations through the (usually identity)
    // embedding of the old big structure.
    for (auto& v : valuations) {
      for (Elem& e : v) e = am->embed_a[e];
    }
    // New current embedding: canonical elements of the new configuration's
    // shape -> big.
    const auto [new_sub, new_canon] = project(i, new_marks, i + 1);
    cur.assign(new_sub.structure.size(), kNoElem);
    for (Elem sub_e = 0; sub_e < new_sub.structure.size(); ++sub_e) {
      cur[new_canon.perm[sub_e]] = am->embed_b[new_sub.new_to_old[sub_e]];
    }
    std::vector<Elem> val(k_);
    for (int j = 0; j < k_; ++j) val[j] = cur[new_canon.marks[j]];
    valuations.push_back(std::move(val));
  }

  ConcreteRun run;
  for (std::size_t i = 0; i < result_.path.size(); ++i) {
    run.push_back(ConcreteConfig{result_.path[i].state, valuations[i]});
  }
  if (!ValidateAcceptingRun(system_, big, run)) {
    throw WitnessInvalidError(
        "the reconstructed run is not an accepting run of the system");
  }
  result_.witness_db = std::move(big);
  result_.witness_run = std::move(run);
}

}  // namespace amalgam
