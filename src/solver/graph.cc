#include "solver/graph.h"

#include <algorithm>
#include <bit>
#include <memory>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "obs/trace.h"
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

void AnnotateSweepSource(ScopedSpan& span, const MemberTable* table,
                         const SolveStats& before, const SolveStats& stats) {
  span.Annotate("source", table != nullptr ? "table" : "stream");
  span.Annotate("members_appended",
                stats.members_appended - before.members_appended);
  span.Annotate("members_unpacked",
                stats.members_unpacked - before.members_unpacked);
}

SubTransitionGraph::SubTransitionGraph(std::vector<FormulaRef> guards, int k)
    : guards_(std::move(guards)), k_(k), seen_(guards_.size()) {
  compiled_guards_.reserve(guards_.size());
  for (const FormulaRef& g : guards_) {
    compiled_guards_.push_back(CompiledGuard::Compile(*g));
  }
}

std::shared_ptr<SubTransitionGraph> SubTransitionGraph::FromParts(
    std::vector<FormulaRef> guards, int k, SchemaRef schema,
    std::span<const std::string_view> shape_keys,
    std::vector<int> initial_shapes, std::vector<Edge> edges,
    std::vector<std::uint32_t> edge_begin, BuildCursor cursor) {
  const int num_shapes = static_cast<int>(shape_keys.size());
  const int num_guards = static_cast<int>(guards.size());
  if (cursor.phase > kCursorPhaseComplete) return nullptr;
  if (edge_begin.size() != shape_keys.size() + 1 || edge_begin.front() != 0 ||
      edge_begin.back() != edges.size()) {
    return nullptr;
  }

  auto graph = std::make_shared<SubTransitionGraph>(std::move(guards), k);
  graph->schema_ = std::move(schema);
  if (!graph->interner_.RestoreShapes(shape_keys)) return nullptr;

  std::vector<char> is_initial(num_shapes, 0);
  for (int shape : initial_shapes) {
    if (shape < 0 || shape >= num_shapes) return nullptr;
    if (is_initial[shape]) return nullptr;  // duplicates are corrupt
    is_initial[shape] = 1;
  }

  // A repeated (guard, old, new) triple can only come from a corrupt
  // payload: each shape's edges are checked sorted in a scratch buffer.
  std::vector<std::uint64_t> sorted;
  for (int s = 0; s < num_shapes; ++s) {
    if (edge_begin[s] > edge_begin[s + 1]) return nullptr;
    sorted.clear();
    for (std::uint32_t i = edge_begin[s]; i < edge_begin[s + 1]; ++i) {
      const Edge& e = edges[i];
      if (e.guard < 0 || e.guard >= num_guards) return nullptr;
      if (e.new_shape < 0 || e.new_shape >= num_shapes) return nullptr;
      sorted.push_back(PackShapePair(e.guard, e.new_shape));
    }
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return nullptr;
    }
  }
  graph->initial_shapes_ = std::move(initial_shapes);
  graph->num_edges_ = edges.size();
  graph->cursor_ = cursor;
  if (graph->complete()) {
    graph->edges_ = std::move(edges);
    graph->edge_begin_ = std::move(edge_begin);
    graph->ReleaseBuildState();
    return graph;
  }
  // A partial graph sweeps on: it gets its per-shape edge lists, initial
  // flags and dedup sets back.
  graph->is_initial_ = std::move(is_initial);
  graph->edges_by_shape_.resize(num_shapes);
  for (int s = 0; s < num_shapes; ++s) {
    std::vector<Edge>& out = graph->edges_by_shape_[s];
    out.assign(edges.begin() + edge_begin[s],
               edges.begin() + edge_begin[s + 1]);
    for (const Edge& e : out) {
      graph->seen_[e.guard].Insert(PackShapePair(s, e.new_shape));
    }
  }
  return graph;
}

void SubTransitionGraph::AdvanceCursorTo(const BuildCursor& c) {
  if (c < cursor_) {
    throw std::logic_error("SubTransitionGraph cursor moved backwards");
  }
  SetCursor(c);
}

void SubTransitionGraph::SetCursor(const BuildCursor& c) {
  const bool completes = !complete() && c.phase == kCursorPhaseComplete;
  cursor_ = c;
  if (completes) Freeze();
}

void SubTransitionGraph::Freeze() {
  // Flatten the edge lists, in shape order.
  const std::size_t shapes = static_cast<std::size_t>(num_shapes());
  edges_.reserve(num_edges_);
  edge_begin_.reserve(shapes + 1);
  for (std::size_t s = 0; s < shapes; ++s) {
    edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
    if (s < edges_by_shape_.size()) {
      edges_.insert(edges_.end(), edges_by_shape_[s].begin(),
                    edges_by_shape_[s].end());
    }
  }
  edge_begin_.push_back(static_cast<std::uint32_t>(edges_.size()));
  decltype(edges_by_shape_)().swap(edges_by_shape_);
  decltype(is_initial_)().swap(is_initial_);
  initial_shapes_.shrink_to_fit();
  ReleaseBuildState();
}

void SubTransitionGraph::ReleaseBuildState() {
  interner_.Freeze();
  decltype(seen_)().swap(seen_);
  decltype(sliced_guards_)().swap(sliced_guards_);
  guard_eval_ = GuardEvaluator();
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
  NoteSchema(d.schema_ref());
  return MarkInitial(interner_.InternProjection(d, marks));
}

// One joint member through the guard sweep: evaluates every guard in
// order; on the first hit interns the old/new k-mark projections (old
// before new — the order that fixes shape numbering) and records one edge
// per (guard, old, new) triple not seen before.
template <typename Hit, typename Intern>
bool SubTransitionGraph::SweepMember(SolveStats& stats, Hit&& hit,
                                     Intern&& intern,
                                     const EdgeCallback& on_new_edge) {
  int old_shape = -1;
  int new_shape = -1;
  for (std::size_t g = 0; g < compiled_guards_.size(); ++g) {
    ++stats.guard_evaluations;
    if (!hit(g)) continue;
    if (old_shape < 0) {
      std::tie(old_shape, new_shape) = intern();
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
  NoteSchema(d.schema_ref());
  return SweepMember(
      stats,
      [&](std::size_t g) {
        return guard_eval_.Eval(compiled_guards_[g], d, marks);
      },
      [&] {
        const int old_shape = interner_.InternProjection(d, marks.first(k_));
        const int new_shape =
            interner_.InternProjection(d, marks.subspan(k_, k_));
        return std::pair<int, int>(old_shape, new_shape);
      },
      on_new_edge);
}

void SubTransitionGraph::PassMember(std::uint64_t index,
                                    std::uint64_t max_shapes) {
  cursor_.next_member = index + 1;
  if (static_cast<std::uint64_t>(interner_.size()) > max_shapes) {
    throw std::runtime_error(
        "emptiness solver exceeded the configuration cap");
  }
}

// One sweep over a member table: the table's shape ids mapped into the
// graph through InternCanonical — on a member's first guard hit, old
// before new, the order and forms a streamed sweep interns — memoized for
// the sweep, plus the bit-slicing plan, made on the sweep's first read.
struct SubTransitionGraph::TableSweep {
  TableSweep(MemberTable& table, ConfigInterner& into)
      : table(table), into(into), joint(table.schema(), 0) {}

  int Map(int table_shape) {
    if (static_cast<std::size_t>(table_shape) >= to_graph.size()) {
      to_graph.resize(table_shape + 1, -1);
    }
    int& mapped = to_graph[table_shape];
    if (mapped < 0) mapped = table.MapShape(table_shape, into);
    return mapped;
  }
  std::pair<int, int> Map(std::pair<int, int> table_shapes) {
    const int old_shape = Map(table_shapes.first);
    const int new_shape = Map(table_shapes.second);
    return {old_shape, new_shape};
  }

  MemberTable& table;
  ConfigInterner& into;
  std::vector<int> to_graph;

  bool planned = false;
  // Per guard: its index into `slices`, or -1 for a guard on the VM.
  std::vector<int> slice_of;
  // Per sliced guard: its atoms' positions in `columns`.
  std::vector<std::vector<int>> slices;
  std::vector<MemberTable::Column> columns;
  bool any_vm = false;
  // The VM path's unpacked member.
  Structure joint;
  std::vector<Elem> marks;
};

namespace {

// A stream's extension claim (MemberTable::Claim), released exactly once:
// by the sweep, or by the unwinding of one that throws.
class ExtensionClaim {
 public:
  ExtensionClaim(MemberTable* table, int stream)
      : table_(table), stream_(stream) {}
  ~ExtensionClaim() { Release(false); }
  ExtensionClaim(const ExtensionClaim&) = delete;
  ExtensionClaim& operator=(const ExtensionClaim&) = delete;

  bool held() const { return table_ != nullptr; }
  void Release(bool exhausted) {
    if (table_ != nullptr) table_->EndExtend(stream_, exhausted);
    table_ = nullptr;
  }

 private:
  MemberTable* table_;
  int stream_;
};

// Streams `stream`'s members (k- or 2k-generated) from position `from`,
// counting each and handing it to `member(d, marks, index)` until that
// returns false; while `extend` (a table whose extension claim this sweep
// holds) has room, each member is appended to it first. False iff `member`
// stopped the stream.
template <typename Member>
bool StreamMembers(const MemberSource& source, int stream, int m,
                   std::uint64_t from, MemberTable* extend, SolveStats& stats,
                   Member&& member) {
  ExtensionClaim claim(extend, stream);
  bool stopped = false;
  source.backend.EnumerateGeneratedFrom(
      m, from,
      [&](const Structure& d, std::span<const Elem> marks,
          std::uint64_t index) {
        ++stats.members_enumerated;
        if (claim.held()) {
          if (extend->Append(stream, d, marks)) {
            ++stats.members_appended;
          } else {
            claim.Release(false);
          }
        }
        stopped = !member(d, marks, index);
        return !stopped;
      },
      EnumControl{&stats.members_generated, source.atom_cap});
  claim.Release(!stopped);
  return !stopped;
}

}  // namespace

static_assert(MemberTable::kInitial == kCursorPhaseInitial &&
              MemberTable::kJoint == kCursorPhaseJoint);

template <typename Read, typename Member>
bool SubTransitionGraph::SweepPhase(const MemberSource& source, int stream,
                                    SolveStats& stats, Read&& read,
                                    Member&& member) {
  NoteSchema(source.backend.schema());
  const std::uint64_t raw_hits_before = interner_.raw_hits();
  auto stream_from_backend = [&](MemberTable* extend) {
    return StreamMembers(source, stream,
                         stream == MemberTable::kInitial ? k_ : 2 * k_,
                         cursor_.next_member, extend, stats, member);
  };
  // Through the table: read the members it holds, then extend it from the
  // backend, or stream where it will not grow; after a read, ask again —
  // another sweep may have extended it meanwhile.
  auto through_table = [&] {
    MemberTable& table = *source.table;
    TableSweep sweep(table, interner_);
    for (;;) {
      switch (table.Claim(stream, cursor_.next_member)) {
        case MemberTable::Reach::kRead:
          if (!read(sweep, table.size(stream))) return false;
          break;
        case MemberTable::Reach::kExtend:
          return stream_from_backend(&table);
        case MemberTable::Reach::kStream:
          return stream_from_backend(nullptr);
        case MemberTable::Reach::kEnd:
          return true;
      }
    }
  };
  const bool swept_all = source.table != nullptr ? through_table()
                                                 : stream_from_backend(nullptr);
  stats.raw_memo_hits += interner_.raw_hits() - raw_hits_before;
  if (!swept_all) return false;
  SetCursor(BuildCursor{static_cast<std::uint32_t>(stream) + 1, 0});
  return true;
}

bool SubTransitionGraph::SweepInitial(
    const MemberSource& source, SolveStats& stats, std::uint64_t max_shapes,
    const std::function<bool(int shape)>& visit) {
  // After each member: the cursor passes it, then the caller sees it.
  auto swept = [&](int shape, std::uint64_t index) {
    PassMember(index, max_shapes);
    return !visit || visit(shape);
  };
  return SweepPhase(
      source, MemberTable::kInitial, stats,
      [&](TableSweep& sweep, std::uint64_t end) {
        for (std::uint64_t i = cursor_.next_member; i < end; ++i) {
          ++stats.members_enumerated;
          if (!swept(MarkInitial(sweep.Map(sweep.table.InitialShape(i))), i)) {
            return false;
          }
        }
        return true;
      },
      [&](const Structure& d, std::span<const Elem> marks,
          std::uint64_t index) {
        return swept(AddInitialMember(d, marks), index);
      });
}

bool SubTransitionGraph::SweepJoint(const MemberSource& source,
                                    SolveStats& stats,
                                    std::uint64_t max_shapes,
                                    const EdgeCallback& on_new_edge) {
  return SweepPhase(
      source, MemberTable::kJoint, stats,
      [&](TableSweep& sweep, std::uint64_t end) {
        return ReadJoint(sweep, end, stats, max_shapes, on_new_edge);
      },
      [&](const Structure& d, std::span<const Elem> marks,
          std::uint64_t index) {
        // A member the callback interrupts stays in front of the cursor.
        if (!ProcessJointMember(d, marks, stats, on_new_edge)) return false;
        PassMember(index, max_shapes);
        return true;
      });
}

bool SubTransitionGraph::ReadJoint(TableSweep& sweep, std::uint64_t to,
                                   SolveStats& stats,
                                   std::uint64_t max_shapes,
                                   const EdgeCallback& on_new_edge) {
  MemberTable& table = sweep.table;
  const std::size_t num_guards = compiled_guards_.size();
  if (!sweep.planned) {
    // Slice every guard whose atoms the marks cover; one column per
    // distinct atom across them. The guards are lowered on the graph's
    // first table read.
    sweep.planned = true;
    if (sliced_guards_.empty()) {
      sliced_guards_.reserve(num_guards);
      for (const FormulaRef& g : guards_) {
        sliced_guards_.push_back(SlicedGuard::Lower(*g));
      }
    }
    std::vector<GuardAtom> atoms;
    for (std::size_t g = 0; g < num_guards; ++g) {
      const std::optional<SlicedGuard>& sliced = sliced_guards_[g];
      if (!sliced || sliced->num_vars() > 2 * k_) {
        sweep.slice_of.push_back(-1);
        sweep.any_vm = true;
        continue;
      }
      sweep.slice_of.push_back(static_cast<int>(sweep.slices.size()));
      std::vector<int>& index = sweep.slices.emplace_back();
      for (const GuardAtom& atom : sliced->atoms()) {
        auto it = std::find(atoms.begin(), atoms.end(), atom);
        if (it == atoms.end()) it = atoms.insert(atoms.end(), atom);
        index.push_back(static_cast<int>(it - atoms.begin()));
      }
    }
    sweep.columns = table.Columns(atoms);
  }

  std::vector<std::uint64_t> words(sweep.columns.size());
  std::vector<std::uint64_t> hits(num_guards);
  std::uint64_t i = cursor_.next_member;
  while (i < to) {
    const std::uint64_t base = i & ~std::uint64_t{63};
    const std::uint64_t end = std::min(to, base + 64);
    for (std::size_t c = 0; c < words.size(); ++c) {
      words[c] = sweep.columns[c][base / 64].load(std::memory_order_relaxed);
    }
    // Members [i, end) of this word.
    const std::uint64_t live = (~std::uint64_t{0} >> (64 - (end - base))) &
                               (~std::uint64_t{0} << (i - base));
    std::uint64_t any = 0;
    for (std::size_t g = 0; g < num_guards; ++g) {
      const int s = sweep.slice_of[g];
      if (s < 0) continue;
      hits[g] = sliced_guards_[g]->Eval(words.data(), sweep.slices[s].data()) &
                live;
      any |= hits[g];
    }
    auto sweep_member = [&](std::uint64_t member, const Structure* d) {
      const std::uint64_t bit = member - base;
      return SweepMember(
          stats,
          [&](std::size_t g) {
            return sweep.slice_of[g] >= 0
                       ? (hits[g] >> bit & 1) != 0
                       : guard_eval_.Eval(compiled_guards_[g], *d,
                                          sweep.marks);
          },
          [&] {
            return sweep.Map(table.JointShapes(member, d, sweep.marks));
          },
          on_new_edge);
    };
    if (!sweep.any_vm) {
      // Only members with a hit are visited; the others count as swept
      // with every guard evaluated.
      for (std::uint64_t rest = any; rest != 0; rest &= rest - 1) {
        const std::uint64_t member = base + std::countr_zero(rest);
        stats.members_enumerated += member - i;
        stats.guard_evaluations += (member - i) * num_guards;
        cursor_.next_member = member;
        ++stats.members_enumerated;
        if (!sweep_member(member, nullptr)) return false;
        PassMember(member, max_shapes);
        i = member + 1;
      }
      stats.members_enumerated += end - i;
      stats.guard_evaluations += (end - i) * num_guards;
      cursor_.next_member = end;
      i = end;
      continue;
    }
    for (; i < end; ++i) {
      ++stats.members_enumerated;
      ++stats.members_unpacked;
      table.Unpack(MemberTable::kJoint, i, sweep.joint, sweep.marks);
      if (!sweep_member(i, &sweep.joint)) return false;
      PassMember(i, max_shapes);
    }
  }
  return true;
}

void SubTransitionGraph::BuildFull(const MemberSource& source,
                                   SolveStats& stats,
                                   std::uint64_t max_shapes) {
  if (complete()) return;
  if (cursor_.phase == kCursorPhaseInitial) {
    SweepInitial(source, stats, max_shapes, nullptr);
  }
  SweepJoint(source, stats, max_shapes, nullptr);
}

}  // namespace amalgam
