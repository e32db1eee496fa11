#include "solver/branching.h"

#include <algorithm>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <unordered_map>

namespace amalgam {

void BranchingSystem::AddRule(
    int from,
    const std::vector<std::pair<std::string, int>>& guarded_targets) {
  std::vector<Branch> branches;
  for (const auto& [guard_text, to] : guarded_targets) {
    branches.push_back(Branch{skeleton_.ParseGuard(guard_text), to, nullptr});
  }
  AddRule(from, std::move(branches));
}

void BranchingSystem::AddRule(int from, std::vector<Branch> branches) {
  for (Branch& branch : branches) {
    if (branch.printed == nullptr) {
      branch.printed = skeleton_.PrintGuard(*branch.guard);
    }
  }
  rules_.push_back(BranchingRule{from, std::move(branches)});
}

GraphContext BranchingGraphContext(const BranchingSystem& system,
                                   std::shared_ptr<const SolverBackend> cls) {
  std::vector<RuleGuard> guards;
  for (const BranchingRule& rule : system.rules()) {
    for (const Branch& branch : rule.branches) {
      guards.push_back(RuleGuard{branch.guard, *branch.printed});
    }
  }
  return MakeGraphContext(std::move(cls), system.skeleton().schema(),
                          system.skeleton().num_registers(), guards);
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
  std::size_t num_branches = 0;
  for (const BranchingRule& rule : system.rules()) {
    num_branches += rule.branches.size();
  }
  if (context.guard_of.size() != num_branches ||
      context.k != skel.num_registers()) {
    throw std::invalid_argument(
        "the graph context was not derived from this system");
  }
  BranchingSolveResult result;

  // The complete sub-transition graph (the backward fixpoint needs the
  // whole relation), by the linear engine's eager path: a partial entry —
  // left by an early-exited linear query over the same guard set, possibly
  // in another process via the store — is resumed rather than rebuilt.
  const std::shared_ptr<const SubTransitionGraph> graph =
      AcquireCompleteGraph(cache, context, solve_span, result.stats);
  ScopedSpan fixpoint_span(trace, "fixpoint");

  const int num_shapes = graph->num_shapes();
  const int num_states = skel.num_states();
  result.stats.edges = graph->num_edges();
  result.stats.configs =
      static_cast<std::uint64_t>(num_shapes) * num_states;

  // Per-guard adjacency view: old_shape -> new shapes. Branches sharing a
  // guard share its row.
  std::vector<std::unordered_map<int, std::vector<int>>> edges(
      context.guards.size());
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
