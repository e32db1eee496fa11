#include "words/solve.h"

#include <memory>
#include <stdexcept>

namespace amalgam {

GraphContext WordGraphContext(const DdsSystem& system, const Nfa& nfa) {
  return SystemGraphContext(std::make_shared<WordRunClass>(nfa), system);
}

WordSolveResult SolveWordEmptiness(const DdsSystem& system, const Nfa& nfa,
                                   bool build_witness, SolveStrategy strategy,
                                   GraphCache* cache, TraceRecorder* trace) {
  return SolveWordEmptiness(system, WordGraphContext(system, nfa),
                            build_witness, strategy, cache, trace);
}

WordSolveResult SolveWordEmptiness(const DdsSystem& system,
                                   const GraphContext& context,
                                   bool build_witness, SolveStrategy strategy,
                                   GraphCache* cache, TraceRecorder* trace) {
  if (system.num_registers() < 1) {
    throw std::invalid_argument(
        "word emptiness requires at least one register");
  }
  const auto* run_class =
      dynamic_cast<const WordRunClass*>(context.backend.get());
  if (run_class == nullptr) {
    throw std::invalid_argument("a word query's context needs a WordRunClass");
  }
  const WordRunClass& cls = *run_class;
  SolveOptions options;
  options.build_witness = build_witness;
  options.strategy = strategy;
  options.cache = cache;
  options.trace = trace;
  SolveResult generic = SolveEmptiness(system, context, options);
  WordSolveResult result;
  result.nonempty = generic.nonempty;
  result.stats = generic.stats;
  if (!generic.nonempty || !build_witness) return result;

  // The accumulated witness structure is a run pattern (a full accepting
  // run after any amalgamation step; possibly a gappy member when the path
  // has a single configuration). Complete it and remap the register
  // valuations into word positions.
  if (!generic.witness_db.has_value()) {
    throw WitnessInvalidError("the run class amalgamated no witness");
  }
  std::vector<Elem> order;
  auto pattern = cls.StructureToPattern(*generic.witness_db, &order);
  if (!pattern.has_value()) {
    throw WitnessInvalidError("the witness structure is not a run pattern");
  }
  auto completed = cls.Complete(*pattern);
  if (!completed.has_value()) {
    throw WitnessInvalidError("the witness run pattern has no completion");
  }
  auto& [run_states, slot_pos] = *completed;

  std::vector<int> pos_of_elem(order.size());
  for (std::size_t pos = 0; pos < order.size(); ++pos) {
    pos_of_elem[order[pos]] = static_cast<int>(pos);
  }
  WordWitness witness;
  witness.automaton_states = run_states;
  witness.letters.reserve(run_states.size());
  for (int q : run_states) {
    witness.letters.push_back(cls.nfa().letter_of(q));
  }
  for (const ConcreteConfig& c : *generic.witness_run) {
    ConcreteConfig mapped;
    mapped.state = c.state;
    for (Elem e : c.valuation) {
      mapped.valuation.push_back(
          static_cast<Elem>(slot_pos[pos_of_elem[e]]));
    }
    witness.system_run.push_back(std::move(mapped));
  }
  // The mapped witness is checked on its own terms: a word of the
  // language whose database drives the mapped run.
  if (!cls.nfa().Accepts(witness.letters)) {
    throw WitnessInvalidError("the witness word is not in the language");
  }
  if (!ValidateAcceptingRun(system, WorddbOf(witness.letters,
                                             system.schema_ref()),
                            witness.system_run)) {
    throw WitnessInvalidError(
        "the witness run is not an accepting run over the word's database");
  }
  result.witness = std::move(witness);
  return result;
}

std::optional<WordWitness> BruteForceWordSearch(const DdsSystem& system,
                                                const Nfa& nfa, int max_len) {
  const int letters = nfa.num_letters();
  std::vector<int> word;
  std::optional<WordWitness> found;
  std::function<bool(int)> rec = [&](int remaining) -> bool {
    if (!word.empty() && nfa.Accepts(word)) {
      Structure db = WorddbOf(word, system.schema_ref());
      auto run = FindAcceptingRun(system, db);
      if (run.has_value()) {
        found = WordWitness{word, {}, std::move(*run)};
        return true;
      }
    }
    if (remaining == 0) return false;
    for (int a = 0; a < letters; ++a) {
      word.push_back(a);
      if (rec(remaining - 1)) return true;
      word.pop_back();
    }
    return false;
  };
  rec(max_len);
  return found;
}

}  // namespace amalgam
