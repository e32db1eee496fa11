// The generic emptiness decision procedure of Theorem 5, as a one-call
// front door over the layered exploration engine (solver/engine.h).
//
// The engine walks the graph of small configurations connected by
// sub-transitions; by default it explores on-the-fly with early exit, and
// SolveOptions::strategy = kEager restores the original
// materialize-then-BFS pipeline. The class's amalgamation operator replays
// the soundness proof to produce a concrete witness database and an
// accepting run, which callers can re-validate with the concrete semantics.
#ifndef AMALGAM_SOLVER_EMPTINESS_H_
#define AMALGAM_SOLVER_EMPTINESS_H_

#include "solver/backend.h"
#include "solver/engine.h"
#include "system/dds.h"

namespace amalgam {

/// Decides emptiness of `system` over the backend class `backend` (any
/// FraisseClass, including the word/tree run-pattern classes). The system's
/// schema must be a prefix of backend.schema() (Lemma 6: extra symbols in
/// the class's schema are invisible to quantifier-free guards). All guards
/// must be quantifier-free (apply EliminateExistentials first). Throws
/// std::invalid_argument otherwise (SystemGraphContext).
SolveResult SolveEmptiness(const DdsSystem& system,
                           const SolverBackend& backend,
                           const SolveOptions& options = {});

/// As above over a GraphContext already derived for `system`
/// (SystemGraphContext): the query service derives it once per query, at
/// submit time, and the engine reuses its key and distinct guards.
SolveResult SolveEmptiness(const DdsSystem& system,
                           const GraphContext& context,
                           const SolveOptions& options = {});

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_EMPTINESS_H_
