#include "solver/graph.h"

#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "solver/member_table.h"

namespace amalgam {

namespace {

// Packs two 32-bit shape ids into the disjoint halves of a uint64.
std::uint64_t PackShapePair(int old_shape, int new_shape) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(old_shape))
          << 32) |
         static_cast<std::uint32_t>(new_shape);
}

}  // namespace

SubTransitionGraph::SubTransitionGraph(std::vector<FormulaRef> guards, int k)
    : guards_(std::move(guards)), k_(k), seen_(guards_.size()) {
  compiled_guards_.reserve(guards_.size());
  for (const FormulaRef& g : guards_) {
    compiled_guards_.push_back(CompiledGuard::Compile(*g));
  }
}

std::shared_ptr<SubTransitionGraph> SubTransitionGraph::FromParts(
    std::vector<FormulaRef> guards, int k, std::vector<CanonicalForm> shapes,
    std::vector<int> initial_shapes,
    std::vector<std::vector<Edge>> edges_by_shape, BuildCursor cursor) {
  const int num_shapes = static_cast<int>(shapes.size());
  const int num_guards = static_cast<int>(guards.size());
  if (cursor.phase > kCursorPhaseComplete) return nullptr;
  if (edges_by_shape.size() != shapes.size()) return nullptr;

  auto graph = std::make_shared<SubTransitionGraph>(std::move(guards), k);
  if (!graph->interner_.RestoreShapes(std::move(shapes))) return nullptr;

  graph->is_initial_.assign(num_shapes, 0);
  for (int shape : initial_shapes) {
    if (shape < 0 || shape >= num_shapes) return nullptr;
    if (graph->is_initial_[shape]) return nullptr;  // duplicates are corrupt
    graph->is_initial_[shape] = 1;
  }
  graph->initial_shapes_ = std::move(initial_shapes);

  std::uint64_t num_edges = 0;
  for (int s = 0; s < num_shapes; ++s) {
    for (const Edge& e : edges_by_shape[s]) {
      if (e.guard < 0 || e.guard >= num_guards) return nullptr;
      if (e.new_shape < 0 || e.new_shape >= num_shapes) return nullptr;
      // Rebuild the per-guard dedup sets; a repeated (guard, old, new)
      // triple can only come from a corrupt payload.
      if (!graph->seen_[e.guard].Insert(PackShapePair(s, e.new_shape))) {
        return nullptr;
      }
      ++num_edges;
    }
  }
  graph->edges_by_shape_ = std::move(edges_by_shape);
  graph->num_edges_ = num_edges;
  graph->cursor_ = cursor;
  return graph;
}

void SubTransitionGraph::AdvanceCursorTo(const BuildCursor& c) {
  if (c < cursor_) {
    throw std::logic_error("SubTransitionGraph cursor moved backwards");
  }
  cursor_ = c;
}

int SubTransitionGraph::MarkInitial(int shape) {
  if (static_cast<std::size_t>(interner_.size()) > edges_by_shape_.size()) {
    edges_by_shape_.resize(interner_.size());
  }
  // Deduplicated: cached graphs live long, and the initial-shape scan of
  // every reusing query should be proportional to distinct shapes, not to
  // however many members a backend happened to emit per shape.
  if (is_initial_.size() < static_cast<std::size_t>(interner_.size())) {
    is_initial_.resize(interner_.size(), 0);
  }
  if (!is_initial_[shape]) {
    is_initial_[shape] = 1;
    initial_shapes_.push_back(shape);
  }
  return shape;
}

int SubTransitionGraph::AddInitialMember(const Structure& d,
                                         std::span<const Elem> marks) {
  return MarkInitial(interner_.Intern(d, marks));
}

// One joint member through the guard sweep: evaluates every compiled guard
// in order; on the first hit interns the old/new k-mark projections (old
// before new — the order that fixes shape numbering) and records one edge
// per (guard, old, new) triple not seen before.
template <typename Intern>
bool SubTransitionGraph::SweepMember(const Structure& d,
                                     std::span<const Elem> marks,
                                     SolveStats& stats, Intern&& intern,
                                     const EdgeCallback& on_new_edge) {
  int old_shape = -1;
  int new_shape = -1;
  for (std::size_t g = 0; g < compiled_guards_.size(); ++g) {
    ++stats.guard_evaluations;
    if (!guard_eval_.Eval(compiled_guards_[g], d, marks)) continue;
    if (old_shape < 0) {
      std::tie(old_shape, new_shape) =
          intern(std::span<const Elem>(marks.data(), k_),
                 std::span<const Elem>(marks.data() + k_, k_));
      if (static_cast<std::size_t>(interner_.size()) >
          edges_by_shape_.size()) {
        edges_by_shape_.resize(interner_.size());
      }
    }
    if (!seen_[g].Insert(PackShapePair(old_shape, new_shape))) continue;
    const int guard = static_cast<int>(g);
    edges_by_shape_[old_shape].push_back(Edge{guard, new_shape});
    ++num_edges_;
    ++stats.edges;
    if (on_new_edge && !on_new_edge(guard, old_shape, new_shape)) {
      return false;
    }
  }
  return true;
}

bool SubTransitionGraph::ProcessJointMember(const Structure& d,
                                            std::span<const Elem> marks,
                                            SolveStats& stats,
                                            const EdgeCallback& on_new_edge) {
  return SweepMember(
      d, marks, stats,
      [&](std::span<const Elem> old_marks, std::span<const Elem> new_marks) {
        const int old_shape = interner_.InternProjection(d, old_marks);
        const int new_shape = interner_.InternProjection(d, new_marks);
        return std::pair<int, int>(old_shape, new_shape);
      },
      on_new_edge);
}

void SubTransitionGraph::CheckShapeCap(std::uint64_t max_shapes) const {
  if (static_cast<std::uint64_t>(interner_.size()) > max_shapes) {
    throw std::runtime_error(
        "emptiness solver exceeded the configuration cap");
  }
}

bool SubTransitionGraph::SweepInitial(
    const MemberSource& source, SolveStats& stats, std::uint64_t max_shapes,
    const std::function<bool(int shape)>& visit) {
  // After each member: the cursor passes it, then the caller sees it.
  auto swept = [&](int shape, std::uint64_t stream_index) {
    cursor_.next_member = stream_index + 1;
    CheckShapeCap(max_shapes);
    return !visit || visit(shape);
  };
  if (const MemberTable* table = source.table) {
    for (std::uint64_t i = cursor_.next_member; i < table->initial_size();
         ++i) {
      ++stats.members_enumerated;
      const int shape = MarkInitial(
          interner_.InternCanonical(table->shape(table->initial_shape(i))));
      if (!swept(shape, i)) return false;
    }
  } else {
    bool stopped = false;
    source.backend.EnumerateGeneratedFrom(
        k_, cursor_.next_member,
        [&](const Structure& d, std::span<const Elem> marks,
            std::uint64_t stream_index) {
          ++stats.members_enumerated;
          stopped = !swept(AddInitialMember(d, marks), stream_index);
          return !stopped;
        },
        EnumControl{&stats.members_generated, source.atom_cap});
    if (stopped) return false;
  }
  cursor_ = BuildCursor{kCursorPhaseJoint, 0};
  return true;
}

bool SubTransitionGraph::SweepJoint(const MemberSource& source,
                                    SolveStats& stats,
                                    std::uint64_t max_shapes,
                                    const EdgeCallback& on_new_edge) {
  if (const MemberTable* table = source.table) {
    // The table's shape ids map into the graph through InternCanonical on
    // a member's first guard hit, old before new — the order and forms a
    // streamed sweep interns — memoized for the rest of the sweep.
    std::vector<int> to_graph(table->num_shapes(), -1);
    auto map_shape = [&](int table_shape) {
      int& mapped = to_graph[table_shape];
      if (mapped < 0) {
        mapped = interner_.InternCanonical(table->shape(table_shape));
      }
      return mapped;
    };
    Structure joint(table->schema(), 0);
    std::vector<Elem> marks;
    for (std::uint64_t i = cursor_.next_member; i < table->joint_size(); ++i) {
      ++stats.members_enumerated;
      table->UnpackJoint(i, joint, marks);
      const bool swept = SweepMember(
          joint, marks, stats,
          [&](std::span<const Elem>, std::span<const Elem>) {
            const int old_shape = map_shape(table->joint_old_shape(i));
            const int new_shape = map_shape(table->joint_new_shape(i));
            return std::pair<int, int>(old_shape, new_shape);
          },
          on_new_edge);
      if (!swept) return false;
      cursor_.next_member = i + 1;
      CheckShapeCap(max_shapes);
    }
  } else {
    bool stopped = false;
    source.backend.EnumerateGeneratedFrom(
        2 * k_, cursor_.next_member,
        [&](const Structure& d, std::span<const Elem> marks,
            std::uint64_t stream_index) {
          ++stats.members_enumerated;
          if (!ProcessJointMember(d, marks, stats, on_new_edge)) {
            stopped = true;
            return false;
          }
          cursor_.next_member = stream_index + 1;
          CheckShapeCap(max_shapes);
          return true;
        },
        EnumControl{&stats.members_generated, source.atom_cap});
    if (stopped) return false;
  }
  cursor_ = BuildCursor{kCursorPhaseComplete, 0};
  return true;
}

void SubTransitionGraph::BuildFull(const MemberSource& source,
                                   SolveStats& stats,
                                   std::uint64_t max_shapes) {
  if (complete()) return;
  // Report only this build's canonicalization savings: a graph resumed
  // from an in-process partial entry arrives with its suspended builder's
  // counter.
  const std::uint64_t raw_hits_before = interner_.raw_hits();
  if (cursor_.phase == kCursorPhaseInitial) {
    SweepInitial(source, stats, max_shapes, nullptr);
  }
  SweepJoint(source, stats, max_shapes, nullptr);
  stats.raw_memo_hits = interner_.raw_hits() - raw_hits_before;
}

}  // namespace amalgam
