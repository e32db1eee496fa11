// Theorem 10 front door: emptiness of database-driven systems over the
// words of a regular language, with concrete word witnesses, plus the
// brute-force reference used by differential tests.
#ifndef AMALGAM_WORDS_SOLVE_H_
#define AMALGAM_WORDS_SOLVE_H_

#include <optional>
#include <string>
#include <vector>

#include "solver/emptiness.h"
#include "words/nfa.h"
#include "words/run_class.h"
#include "words/worddb.h"

namespace amalgam {

/// A concrete Theorem 10 witness: a word of the language together with an
/// automaton run on it and an accepting system run driven by Worddb(word).
struct WordWitness {
  std::vector<int> letters;
  std::vector<int> automaton_states;
  ConcreteRun system_run;
};

struct WordSolveResult {
  bool nonempty = false;
  std::optional<WordWitness> witness;
  SolveStats stats;
};

/// Decides: is there a word w in L(nfa) such that `system` (over
/// MakeWordSchema of the automaton's alphabet) has an accepting run driven
/// by Worddb(w)? Requires at least one register (the paper's Lemma 11
/// anchor argument; with zero registers the problem degenerates to graph
/// reachability anyway). Routes through the shared exploration engine;
/// `strategy` selects on-the-fly (default) or the eager reference pipeline.
/// `cache`, when given, reuses/stores the sub-transition graph keyed by
/// (automaton fingerprint, k, guard set) — a complete entry lets repeated
/// queries skip run-pattern enumeration entirely, and a partial entry
/// (early-exited earlier build) is resumed from its cursor. A store attached
/// to `cache` (GraphCache's `store_dir`) persists graphs to disk, so the
/// reuse also works in a fresh process. A non-null `trace` is passed
/// through as SolveOptions::trace — the engine records its "solve" span
/// tree into it. With `build_witness`, a nonempty verdict always carries a
/// witness whose word the automaton accepts and whose run
/// ValidateAcceptingRun accepts over Worddb(word); a witness that cannot be
/// built or fails either check throws WitnessInvalidError instead.
WordSolveResult SolveWordEmptiness(
    const DdsSystem& system, const Nfa& nfa, bool build_witness = true,
    SolveStrategy strategy = SolveStrategy::kOnTheFly,
    GraphCache* cache = nullptr, TraceRecorder* trace = nullptr);

/// As above over a context from WordGraphContext (the query service derives
/// it once per query, at submit time); its backend is the run class.
WordSolveResult SolveWordEmptiness(
    const DdsSystem& system, const GraphContext& context,
    bool build_witness = true,
    SolveStrategy strategy = SolveStrategy::kOnTheFly,
    GraphCache* cache = nullptr, TraceRecorder* trace = nullptr);

/// The graph context of a word query: a WordRunClass over `nfa` (which
/// keeps its own copy of the automaton) and one guard per rule.
GraphContext WordGraphContext(const DdsSystem& system, const Nfa& nfa);

/// Brute-force reference: tries every word of length 1..max_len, returning
/// the first word of the language driving an accepting run.
std::optional<WordWitness> BruteForceWordSearch(const DdsSystem& system,
                                                const Nfa& nfa, int max_len);

}  // namespace amalgam

#endif  // AMALGAM_WORDS_SOLVE_H_
