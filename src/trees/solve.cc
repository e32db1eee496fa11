#include "trees/solve.h"

#include <memory>
#include <stdexcept>

namespace amalgam {

GraphContext TreeGraphContext(const DdsSystem& system,
                              const TreeAutomaton& automaton,
                              int extra_pattern_cap) {
  return SystemGraphContext(
      std::make_shared<TreeRunClass>(&automaton, extra_pattern_cap), system);
}

TreeSolveResult SolveTreeEmptiness(const DdsSystem& system,
                                   const TreeAutomaton& automaton,
                                   int witness_size_cap,
                                   int extra_pattern_cap,
                                   SolveStrategy strategy,
                                   GraphCache* cache, TraceRecorder* trace) {
  return SolveTreeEmptiness(
      system, TreeGraphContext(system, automaton, extra_pattern_cap),
      witness_size_cap, strategy, cache, trace);
}

TreeSolveResult SolveTreeEmptiness(const DdsSystem& system,
                                   const GraphContext& context,
                                   int witness_size_cap,
                                   SolveStrategy strategy,
                                   GraphCache* cache, TraceRecorder* trace) {
  if (system.num_registers() < 1) {
    throw std::invalid_argument(
        "tree emptiness requires at least one register");
  }
  const auto* run_class =
      dynamic_cast<const TreeRunClass*>(context.backend.get());
  if (run_class == nullptr) {
    throw std::invalid_argument("a tree query's context needs a TreeRunClass");
  }
  SolveOptions options;
  options.build_witness = false;  // no generic amalgamation for trees
  options.strategy = strategy;
  options.cache = cache;
  options.trace = trace;
  SolveResult generic = SolveEmptiness(system, context, options);
  TreeSolveResult result;
  result.nonempty = generic.nonempty;
  result.stats = generic.stats;
  if (result.nonempty && witness_size_cap > 0) {
    result.witness = BruteForceTreeSearch(system, run_class->automaton(),
                                          witness_size_cap);
  }
  return result;
}

std::optional<TreeWitness> BruteForceTreeSearch(const DdsSystem& system,
                                                const TreeAutomaton& automaton,
                                                int max_size) {
  std::optional<TreeWitness> found;
  for (int size = 1; size <= max_size && !found.has_value(); ++size) {
    ForEachTree(size, automaton.num_labels(), [&](const Tree& t) {
      if (found.has_value()) return;
      auto run = automaton.FindRun(t);
      if (!run.has_value()) return;
      Structure db = TreedbOf(t, system.schema_ref());
      auto system_run = FindAcceptingRun(system, db);
      if (!system_run.has_value()) return;
      found = TreeWitness{t, std::move(*run), std::move(*system_run)};
    });
  }
  return found;
}

}  // namespace amalgam
