#include "solver/engine.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "solver/member_table.h"
#include "util/hash.h"

namespace amalgam {

namespace {
constexpr int kUnvisited = -1;
constexpr int kRoot = -2;

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
                                     const GraphContext& context,
                                     const SolveOptions& options)
    : system_(system),
      ctx_(context),
      backend_(*context.backend),
      options_(options),
      k_(system.num_registers()),
      num_states_(system.num_states()) {
  const std::vector<TransitionRule>& rules = system_.rules();
  const int num_rules = static_cast<int>(rules.size());
  const int num_guards = static_cast<int>(ctx_.guards.size());
  if (ctx_.k != k_ || ctx_.guard_of.size() != rules.size()) {
    throw std::invalid_argument(
        "the graph context was not derived from this system");
  }
  BuildCsr(
      num_rules, num_guards, [&](int r) { return ctx_.guard_of[r]; },
      [](int r) { return r; }, guard_rule_begin_, guard_rules_);
  BuildCsr(
      num_rules, num_states_ * num_guards,
      [&](int r) { return rules[r].from * num_guards + ctx_.guard_of[r]; },
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
  const int num_guards = static_cast<int>(ctx_.guards.size());
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

void ExplorationEngine::SearchRecorded(const char* span_name) {
  ScopedSpan span(options_.trace, span_name);
  EnsureConfigCapacity();
  for (int shape : graph_->initial_shapes()) {
    if (goal_ >= 0) break;
    SeedInitialShape(shape);
  }
  DrainQueue();
  span.Annotate("goal_found", std::uint64_t{goal_ >= 0});
}

void ExplorationEngine::RunOnTheFly() {
  // Replay: a partial cache entry already holds shapes and edges — BFS
  // over them before touching the backend, so a goal inside the explored
  // region is found with zero enumeration and zero copying (the steady
  // state for repeated nonempty queries). On a fresh graph this is a
  // no-op.
  SearchRecorded("bfs_replay");
  if (goal_ >= 0) return;

  // The sweep must continue: from here on the graph is mutated, so a
  // shared partial entry is copied first — the cached object stays
  // immutable for concurrent readers.
  if (!owned_graph_) {
    owned_graph_ = std::make_shared<SubTransitionGraph>(*graph_);
    graph_ = owned_graph_;
  }

  // The sweeps below read (and grow) the class's table when the query has
  // one.
  const std::shared_ptr<MemberTable> table =
      options_.cache != nullptr
          ? options_.cache->AcquireMemberTable(ctx_,
                                               options_.relational_atom_cap)
          : nullptr;
  const MemberSource source{backend_, table.get(),
                            options_.relational_atom_cap};

  // Initial frontier: members generated by the k registers, seeded as they
  // stream in (resuming mid-phase when the graph's cursor says so); an
  // accepting initial state exits before the 2k sweep starts.
  if (owned_graph_->cursor().phase == kCursorPhaseInitial) {
    ScopedSpan sweep_span(options_.trace, "sweep_initial");
    const SolveStats before = result_.stats;
    owned_graph_->SweepInitial(source, result_.stats, ~std::uint64_t{0},
                               [&](int shape) {
                                 EnsureConfigCapacity();
                                 SeedInitialShape(shape);
                                 return goal_ < 0;
                               });
    sweep_span.Annotate("members_enumerated",
                        result_.stats.members_enumerated -
                            before.members_enumerated);
    sweep_span.Annotate("members_generated",
                        result_.stats.members_generated -
                            before.members_generated);
    AnnotateSweepSource(sweep_span, table.get(), before, result_.stats);
  }

  // Sub-transition stream: reachability is relaxed against every edge the
  // moment it is recorded, and the sweep stops at the first accepting
  // configuration instead of covering the rest of the class. The cursor
  // advances past fully swept members only — a member interrupted
  // mid-sweep stays in front of it and is re-swept (deduplicated) on
  // resume.
  if (goal_ < 0) {
    ScopedSpan sweep_span(options_.trace, "sweep_joint");
    const SolveStats before = result_.stats;
    const std::uint64_t edges_before = owned_graph_->num_edges();
    owned_graph_->SweepJoint(
        source, result_.stats, ~std::uint64_t{0},
        [this](int guard, int old_shape, int new_shape) {
          return RelaxNewEdge(guard, old_shape, new_shape);
        });
    sweep_span.Annotate("members_enumerated",
                        result_.stats.members_enumerated -
                            before.members_enumerated);
    sweep_span.Annotate("edges", owned_graph_->num_edges() - edges_before);
    AnnotateSweepSource(sweep_span, table.get(), before, result_.stats);
  }
}

SolveResult ExplorationEngine::Run() {
  ScopedSpan solve_span(options_.trace, "solve");
  // The key's build claim, when the on-the-fly lookup took one (a miss or
  // a partial entry; the eager path holds its own inside
  // AcquireCompleteGraph): held through the sweep and the insert.
  GraphCache::BuildClaim claim;
  if (options_.strategy == SolveStrategy::kEager) {
    const std::uint64_t max_shapes = num_states_ == 0
                                         ? ~std::uint64_t{0}
                                         : options_.max_configs / num_states_;
    graph_ = AcquireCompleteGraph(options_.cache, ctx_, solve_span,
                                  result_.stats, options_.relational_atom_cap,
                                  max_shapes);
  } else {
    graph_ = LookupGraph(options_.cache, ctx_, solve_span, result_.stats,
                         claim);
  }
  if (graph_ && graph_->complete()) {
    // Pure BFS over interned ids, zero enumeration.
    SearchRecorded("bfs");
  } else {
    // On the fly: a partial entry is replayed in place (RunOnTheFly copies
    // it only if the sweep has to continue), a miss starts a fresh graph.
    if (!graph_) {
      owned_graph_ = std::make_shared<SubTransitionGraph>(ctx_.guards, k_);
      graph_ = owned_graph_;
    }
    RunOnTheFly();
    // Whatever this run added — or the whole graph on a miss — feeds the
    // next query; a replay-served query added nothing (and owns nothing),
    // and equal progress is a no-op inside Insert anyway.
    if (options_.cache && owned_graph_) {
      options_.cache->Insert(ctx_.key, owned_graph_, options_.trace);
    }
  }
  claim.Release();  // the witness reconstruction below reads no cache entry
  Finish();
  return std::move(result_);
}

void ExplorationEngine::Finish() {
  result_.stats.configs =
      static_cast<std::uint64_t>(graph_->num_shapes()) * num_states_;
  // On a cache hit no edges were recorded this query, but the counters
  // describe the graph the verdict was decided over — report it either way.
  // raw_memo_hits counts the sweeps this query ran, so it stays 0 on a
  // cache hit: no canonicalization ran at all.
  result_.stats.edges = graph_->num_edges();
  if (goal_ < 0) {
    result_.nonempty = false;
    return;
  }
  result_.nonempty = true;
  // The path copies a shape key per configuration and its steps are
  // re-derived from the backend; only witness reconstruction reads them.
  if (!options_.build_witness) return;

  // ---- Reconstruct the path of small configurations. ----
  std::vector<int> guard_path;
  for (int c = goal_; c != kRoot; c = parent_[c]) {
    const std::string_view key = graph_->interner().shape(c / num_states_).key;
    result_.path.push_back(SmallConfig{c % num_states_, std::string(key)});
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
    path_id.push_back(scratch.InternCanonical(ShapeKey{
        config.shape, HashRange(config.shape.begin(), config.shape.end())}));
  }
  const std::vector<CompiledGuard>& guards = graph_->compiled_guards();
  GuardEvaluator eval;
  // Unrealized steps keep guard -1.
  std::vector<SubTransition>& steps = result_.steps;
  steps.assign(num_steps,
               SubTransition{-1, Structure(backend_.schema(), 0), {}});
  std::uint64_t members = 0;
  if (num_steps > 0) {
    std::size_t pending = num_steps;
    backend_.EnumerateGeneratedFrom(
        2 * k_, 0,
        [&](const Structure& d, std::span<const Elem> marks, std::uint64_t) {
          ++members;
          // Each projection of the member is interned at most once, and
          // only after some step's guard holds on it: a guard costs a few
          // instructions, a projection a canonicalization.
          int from = -1;
          int to = -1;
          for (std::size_t i = 0; i < num_steps; ++i) {
            if (steps[i].guard >= 0 ||
                !eval.Eval(guards[guard_path[i]], d, marks)) {
              continue;
            }
            if (from < 0) from = scratch.InternProjection(d, marks.first(k_));
            if (from != path_id[i]) continue;
            if (to < 0) {
              to = scratch.InternProjection(d, marks.subspan(k_, k_));
            }
            if (to != path_id[i + 1]) continue;
            steps[i] =
                SubTransition{guard_path[i], d, {marks.begin(), marks.end()}};
            --pending;
          }
          return pending > 0;
        },
        EnumControl{nullptr, options_.relational_atom_cap});
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
  Structure big(backend_.schema(), 0);
  std::vector<std::vector<Elem>> valuations(1);
  if (!DecodeCanonicalKey(result_.path.front().shape, backend_.schema(), k_,
                          &big, &valuations.front())) {
    throw WitnessInvalidError("the path's first configuration does not decode");
  }
  std::vector<Elem> cur(big.size());
  for (Elem e = 0; e < big.size(); ++e) cur[e] = e;
  // The substructure of step i's joint member generated by `marks`, and its
  // canonical form, which must be path configuration `at`'s shape.
  auto project = [&](std::size_t i, std::span<const Elem> marks,
                     std::size_t at) {
    SubstructureResult sub =
        GeneratedSubstructure(result_.steps[i].joint, marks);
    std::vector<Elem> sub_marks(k_);
    for (int j = 0; j < k_; ++j) sub_marks[j] = sub.old_to_new[marks[j]];
    CanonicalForm canon = Canonicalize(sub.structure, sub_marks);
    if (canon.key != result_.path[at].shape) {
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
    for (int j = 0; j < k_; ++j) {
      val[j] = cur[new_canon.perm[new_sub.old_to_new[new_marks[j]]]];
    }
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
