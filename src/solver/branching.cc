#include "solver/branching.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>

#include "solver/member_table.h"

namespace amalgam {

void BranchingSystem::AddRule(
    int from,
    const std::vector<std::pair<std::string, int>>& guarded_targets) {
  BranchingRule rule;
  rule.from = from;
  for (const auto& [guard_text, to] : guarded_targets) {
    rule.branches.push_back(Branch{skeleton_.ParseGuard(guard_text), to});
  }
  rules_.push_back(std::move(rule));
}

void BranchingSystem::AddRule(int from, std::vector<Branch> branches) {
  rules_.push_back(BranchingRule{from, std::move(branches)});
}

GraphContext BranchingGraphContext(const BranchingSystem& system,
                                   std::shared_ptr<const SolverBackend> cls) {
  std::vector<FormulaRef> guards;
  for (const BranchingRule& rule : system.rules()) {
    for (const Branch& branch : rule.branches) {
      if (!branch.guard->IsQuantifierFree()) {
        throw std::invalid_argument("branching guards must be QF");
      }
      guards.push_back(branch.guard);
    }
  }
  if (!IsPrefixSchema(system.skeleton().schema(), *cls->schema())) {
    throw std::invalid_argument(
        "the system's schema must be a prefix of the class's schema");
  }
  return MakeGraphContext(std::move(cls), system.skeleton().num_registers(),
                          guards);
}

BranchingSolveResult SolveBranchingEmptiness(const BranchingSystem& system,
                                             const FraisseClass& cls,
                                             GraphCache* cache,
                                             TraceRecorder* trace) {
  return SolveBranchingEmptiness(system,
                                 BranchingGraphContext(system,
                                                       BorrowBackend(cls)),
                                 cache, trace);
}

BranchingSolveResult SolveBranchingEmptiness(const BranchingSystem& system,
                                             const GraphContext& context,
                                             GraphCache* cache,
                                             TraceRecorder* trace) {
  ScopedSpan solve_span(trace, "solve");
  const DdsSystem& skel = system.skeleton();
  const SolverBackend& cls = *context.backend;
  const std::vector<FormulaRef>& guards = context.guards;
  const int k = context.k;
  std::size_t num_branches = 0;
  for (const BranchingRule& rule : system.rules()) {
    num_branches += rule.branches.size();
  }
  if (context.guard_of.size() != num_branches ||
      k != skel.num_registers()) {
    throw std::invalid_argument(
        "the graph context was not derived from this system");
  }
  BranchingSolveResult result;

  // The sub-transition graph: cache-served, or built eagerly (backward
  // fixpoints need the complete graph) and stored for the next query. A
  // partial entry — left by an early-exited linear query over the same
  // guard set, possibly in another process via the store — is resumed
  // from its cursor on a private copy rather than rebuilt. The build is
  // eager under the default atom cap, so it may sweep the cache's member
  // table for the class.
  std::shared_ptr<const SubTransitionGraph> graph;
  std::shared_ptr<SubTransitionGraph> resumed;
  const std::string& cache_key = context.key;
  if (cache) {
    std::shared_ptr<const SubTransitionGraph> hit;
    {
      ScopedSpan lookup_span(trace, "cache_lookup");
      hit = cache->Lookup(cache_key, cls.schema(), guards, k, trace);
      lookup_span.Annotate("hit", std::uint64_t{hit != nullptr});
      lookup_span.Annotate("complete", std::uint64_t{hit && hit->complete()});
    }
    if (hit && hit->guards().size() != guards.size()) {
      throw std::logic_error("cached graph does not match its key's guards");
    }
    result.stats.graph_from_cache = hit != nullptr;
    if (hit && hit->complete()) {
      graph = std::move(hit);
    } else if (hit) {
      solve_span.Annotate("resumed_from_phase",
                          static_cast<std::uint64_t>(hit->cursor().phase));
      solve_span.Annotate("resumed_from_member", hit->cursor().next_member);
      resumed = std::make_shared<SubTransitionGraph>(*hit);
      result.stats.graph_resumed = true;
    }
  }
  if (!graph) {
    auto built = resumed ? std::move(resumed)
                         : std::make_shared<SubTransitionGraph>(guards, k);
    {
      std::shared_ptr<const MemberTable> table;
      if (cache != nullptr) {
        table = cache->AcquireMemberTable(context.class_key(), cls, k,
                                                result.stats, trace);
      }
      ScopedSpan build_span(trace, "full_build");
      built->BuildFull(MemberSource{cls, table.get()}, result.stats);
      build_span.Annotate("source", table ? "table" : "stream");
      build_span.Annotate("members_generated", result.stats.members_generated);
      build_span.Annotate("edges", built->num_edges());
    }
    if (cache) cache->Insert(cache_key, built, trace);
    graph = std::move(built);
  }
  ScopedSpan fixpoint_span(trace, "fixpoint");

  const int num_shapes = graph->num_shapes();
  const int num_states = skel.num_states();
  result.stats.edges = graph->num_edges();
  result.stats.configs =
      static_cast<std::uint64_t>(num_shapes) * num_states;

  // Per-guard adjacency view: old_shape -> new shapes. Branches sharing a
  // guard share its row.
  std::vector<std::unordered_map<int, std::vector<int>>> edges(guards.size());
  for (int s = 0; s < num_shapes; ++s) {
    for (const SubTransitionGraph::Edge& e : graph->edges_from(s)) {
      edges[e.guard][s].push_back(e.new_shape);
    }
  }

  // Backward least fixpoint: alive(state, shape).
  std::vector<char> alive(static_cast<std::size_t>(num_shapes) * num_states,
                          0);
  auto idx = [&](int state, int shape) { return shape * num_states + state; };
  for (int q = 0; q < num_states; ++q) {
    if (!skel.is_accepting(q)) continue;
    for (int s = 0; s < num_shapes; ++s) alive[idx(q, s)] = 1;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    std::size_t branch_base = 0;
    for (const BranchingRule& rule : system.rules()) {
      for (int s = 0; s < num_shapes; ++s) {
        if (alive[idx(rule.from, s)]) continue;
        bool all_branches = true;
        for (std::size_t b = 0; b < rule.branches.size() && all_branches;
             ++b) {
          const auto& branch_edges =
              edges[context.guard_of[branch_base + b]];
          auto it = branch_edges.find(s);
          bool some_alive = false;
          if (it != branch_edges.end()) {
            for (int t : it->second) {
              if (alive[idx(rule.branches[b].to, t)]) {
                some_alive = true;
                break;
              }
            }
          }
          all_branches &= some_alive;
        }
        if (all_branches && !rule.branches.empty()) {
          alive[idx(rule.from, s)] = 1;
          changed = true;
        }
      }
      branch_base += rule.branches.size();
    }
  }

  for (int q = 0; q < num_states && !result.nonempty; ++q) {
    if (!skel.is_initial(q)) continue;
    for (int s : graph->initial_shapes()) {
      if (alive[idx(q, s)]) {
        result.nonempty = true;
        break;
      }
    }
  }
  return result;
}

}  // namespace amalgam
