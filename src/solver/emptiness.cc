#include "solver/emptiness.h"

namespace amalgam {

SolveResult SolveEmptiness(const DdsSystem& system,
                           const SolverBackend& backend,
                           const SolveOptions& options) {
  return ExplorationEngine(system, backend, options).Run();
}

SolveResult SolveEmptiness(const DdsSystem& system,
                           const GraphContext& context,
                           const SolveOptions& options) {
  return ExplorationEngine(system, context, options).Run();
}

}  // namespace amalgam
