// Tests for the Theorem 10 machinery: automata, the run-pattern class C
// (membership characterization validated against brute-force substructure
// extraction), completion, amalgamation, and end-to-end word emptiness.
#include <gtest/gtest.h>

#include <random>
#include <set>

#include "base/canonical.h"
#include "words/run_class.h"
#include "words/solve.h"
#include "words/worddb.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

// All accepting runs (state sequences) of length <= max_len.
std::vector<std::vector<int>> AllAcceptingRuns(const Nfa& nfa, int max_len) {
  std::vector<std::vector<int>> result;
  std::vector<int> run;
  std::function<void()> rec = [&] {
    if (!run.empty() && nfa.is_accept(run.back())) result.push_back(run);
    if (static_cast<int>(run.size()) >= max_len) return;
    if (run.empty()) {
      for (int q = 0; q < nfa.num_states(); ++q) {
        if (!nfa.is_start(q)) continue;
        run.push_back(q);
        rec();
        run.pop_back();
      }
    } else {
      for (int r : nfa.successors()[run.back()]) {
        run.push_back(r);
        rec();
        run.pop_back();
      }
    }
  };
  rec();
  return result;
}

TEST(NfaTest, AcceptsAndTrim) {
  Nfa alt = NfaAlternatingAB();
  EXPECT_TRUE(alt.Accepts({0, 1}));
  EXPECT_TRUE(alt.Accepts({0, 1, 0, 1}));
  EXPECT_FALSE(alt.Accepts({0}));
  EXPECT_FALSE(alt.Accepts({1, 0}));
  EXPECT_FALSE(alt.Accepts({}));

  Nfa mod3 = NfaModCounter(3);
  EXPECT_TRUE(mod3.Accepts({0, 0, 0}));
  EXPECT_FALSE(mod3.Accepts({0, 0}));
  EXPECT_TRUE(mod3.Accepts({0, 0, 0, 0, 0, 0}));

  // A dead state disappears under trimming.
  Nfa with_dead({"a"});
  with_dead.AddState(0, true, true);
  with_dead.AddState(0, false, false);  // unreachable-to-accept
  with_dead.AddTransition(0, 1);
  Nfa trimmed = with_dead.Trimmed();
  EXPECT_EQ(trimmed.num_states(), 1);
}

TEST(NfaTest, ComponentsAreTopologicallyOrdered) {
  Nfa ab = NfaAPlusBPlus();
  auto comp = ab.Components();
  // qa and qb are separate self-loop components with comp(qa) < comp(qb).
  EXPECT_NE(comp[0], comp[1]);
  EXPECT_LT(comp[0], comp[1]);
  EXPECT_EQ(ab.NumComponents(), 2);

  Nfa alt = NfaAlternatingAB();
  auto comp2 = alt.Components();
  EXPECT_EQ(comp2[0], comp2[1]);  // one SCC
  EXPECT_EQ(alt.NumComponents(), 1);
}

TEST(NfaTest, ConstrainedPaths) {
  Nfa ab = NfaAPlusBPlus();
  std::vector<bool> all(2, true), none(2, false);
  EXPECT_TRUE(HasConstrainedPath(ab, 0, 1, none));  // adjacent: qa -> qb
  EXPECT_TRUE(HasConstrainedPath(ab, 0, 0, none));  // self loop
  EXPECT_FALSE(HasConstrainedPath(ab, 1, 0, all));  // no way back
}

// ---- Pattern membership: differential against substructure extraction ----

class WordClassDifferential : public ::testing::TestWithParam<int> {
 protected:
  Nfa MakeNfa() const {
    switch (GetParam()) {
      case 0:
        return NfaAllAB();
      case 1:
        return NfaAlternatingAB();
      case 2:
        return NfaModCounter(3);
      case 3:
        return NfaAPlusBPlus();
      default:
        return NfaModCounter(2);
    }
  }
};

TEST_P(WordClassDifferential, ExtractedSubstructuresAreMembers) {
  Nfa nfa = MakeNfa();
  WordRunClass cls(nfa);
  std::set<std::string> extracted_keys;
  for (const auto& run : AllAcceptingRuns(cls.nfa(), 6)) {
    WordPattern full{run};
    ASSERT_TRUE(cls.PatternInClass(full)) << "full runs are members";
    Structure db = cls.PatternToStructure(full);
    const int n = full.size();
    for (unsigned subset = 1; subset < (1u << n); ++subset) {
      std::vector<Elem> seeds;
      for (int i = 0; i < n; ++i) {
        if ((subset >> i) & 1) seeds.push_back(static_cast<Elem>(i));
      }
      auto sub = GeneratedSubstructure(db, seeds);
      auto p = cls.StructureToPattern(sub.structure);
      ASSERT_TRUE(p.has_value()) << "extraction must decode";
      EXPECT_TRUE(cls.PatternInClass(*p))
          << "extracted pattern rejected by the membership test";
      extracted_keys.insert(Canonicalize(sub.structure, {}).key);
    }
  }
  // Completeness of the membership test at small sizes: every candidate
  // state sequence of length <= 3 that the test accepts must be genuinely
  // realizable; every one it rejects must never be extracted.
  const int q_count = cls.nfa().num_states();
  std::vector<int> seq;
  std::function<void()> sweep = [&] {
    if (!seq.empty()) {
      WordPattern p{seq};
      bool member = cls.PatternInClass(p);
      std::string key = Canonicalize(cls.PatternToStructure(p), {}).key;
      if (member) {
        // Verify via an independently checked completion.
        auto completed = cls.Complete(p);
        ASSERT_TRUE(completed.has_value());
        const auto& [run, slot_pos] = *completed;
        // (1) valid accepting run of the automaton.
        ASSERT_TRUE(cls.nfa().is_start(run.front()));
        ASSERT_TRUE(cls.nfa().is_accept(run.back()));
        for (std::size_t i = 0; i + 1 < run.size(); ++i) {
          bool edge = false;
          for (int r : cls.nfa().successors()[run[i]]) edge |= (r == run[i + 1]);
          ASSERT_TRUE(edge) << "completion produced a non-run";
        }
        // (2) the slots induce the pattern with matching pointers: the
        // closure of the slot set inside the full run must be the slot set,
        // and the induced substructure must decode back to p.
        WordPattern full{run};
        Structure full_db = cls.PatternToStructure(full);
        std::vector<Elem> seeds;
        for (int sp : slot_pos) seeds.push_back(static_cast<Elem>(sp));
        auto closure = GeneratedSubset(full_db, seeds);
        ASSERT_EQ(closure.size(), seeds.size())
            << "slots are not pointer-closed in the completed run";
        auto sub = GeneratedSubstructure(full_db, seeds);
        auto back = cls.StructureToPattern(sub.structure);
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(back->states, p.states)
            << "completion does not embed the pattern";
      } else {
        EXPECT_FALSE(extracted_keys.contains(key))
            << "membership test rejected an extractable pattern";
      }
    }
    if (seq.size() >= 3) return;
    for (int q = 0; q < q_count; ++q) {
      seq.push_back(q);
      sweep();
      seq.pop_back();
    }
  };
  sweep();
}

INSTANTIATE_TEST_SUITE_P(Automata, WordClassDifferential,
                         ::testing::Range(0, 5));

TEST(WordClassTest, EnumerationIsValidAndDuplicateFree) {
  for (int which = 0; which < 4; ++which) {
    Nfa nfa = which == 0   ? NfaAllAB()
              : which == 1 ? NfaAlternatingAB()
              : which == 2 ? NfaModCounter(3)
                           : NfaAPlusBPlus();
    WordRunClass cls(nfa);
    std::set<std::string> keys;
    int count = 0;
    cls.EnumerateGenerated(2, [&](const Structure& s,
                                  std::span<const Elem> marks) {
      ++count;
      EXPECT_TRUE(cls.Contains(s));
      auto closure = GeneratedSubset(s, marks);
      EXPECT_EQ(closure.size(), s.size()) << "not generated by the marks";
      auto key = Canonicalize(s, marks).key;
      EXPECT_TRUE(keys.insert(key).second) << "duplicate member";
    });
    EXPECT_GT(count, 0) << "automaton " << which;
  }
}

TEST(WordClassTest, StructureDecodingRejectsGarbage) {
  WordRunClass cls(NfaAlternatingAB());
  // Cyclic "order".
  Structure s(cls.schema(), 2);
  int lt = cls.schema()->RelationId("lt");
  s.SetHolds2(lt, 0, 1);
  s.SetHolds2(lt, 1, 0);
  EXPECT_FALSE(cls.Contains(s));
  // No state predicate.
  Structure t(cls.schema(), 1);
  EXPECT_FALSE(cls.Contains(t));
}

// ---- End-to-end: Theorem 10 ----

TEST(WordSolveTest, ZigZagOverAlternating) {
  DdsSystem system = ZigZagSystem(2);
  WordSolveResult r = SolveWordEmptiness(system, NfaAlternatingAB());
  ASSERT_TRUE(r.nonempty);
  ASSERT_TRUE(r.witness.has_value());
  Nfa nfa = NfaAlternatingAB();
  EXPECT_TRUE(nfa.Accepts(r.witness->letters));
  Structure db = WorddbOf(r.witness->letters, system.schema_ref());
  EXPECT_TRUE(ValidateAcceptingRun(system, db, r.witness->system_run));
}

TEST(WordSolveTest, ZigZagOverAPlusBPlus) {
  // One round (a then b) fits a+b+, two rounds need an 'a' after a 'b'.
  EXPECT_TRUE(SolveWordEmptiness(ZigZagSystem(1), NfaAPlusBPlus()).nonempty);
  EXPECT_FALSE(SolveWordEmptiness(ZigZagSystem(2), NfaAPlusBPlus()).nonempty);
}

TEST(WordSolveTest, TwoMarkersNeedsTwoAs) {
  DdsSystem system = TwoMarkersSystem();
  WordSolveResult r = SolveWordEmptiness(system, NfaAPlusBPlus());
  ASSERT_TRUE(r.nonempty);
  Structure db = WorddbOf(r.witness->letters, system.schema_ref());
  EXPECT_TRUE(ValidateAcceptingRun(system, db, r.witness->system_run));
  // Over the single-letter-per-word language a^+ restricted to... there is
  // no AB language without two a's among the zoo; build one: L = ab^+.
  Nfa ab_only({"a", "b"});
  int qa = ab_only.AddState(0, true, false);
  int qb = ab_only.AddState(1, false, true);
  ab_only.AddTransition(qa, qb);
  ab_only.AddTransition(qb, qb);
  EXPECT_FALSE(SolveWordEmptiness(system, ab_only).nonempty);
}

TEST(WordSolveTest, UnaryCounterNeedsLongWords) {
  // Three strictly increasing positions require word length >= 3; over
  // mod-5 words the witness must have length >= 5.
  auto schema = MakeWordSchema({"a"});
  DdsSystem system(schema);
  system.AddRegister("x");
  int s0 = system.AddState("s0", true);
  int s1 = system.AddState("s1");
  int s2 = system.AddState("s2", false, true);
  system.AddRule(s0, s1, "lt(x_old, x_new)");
  system.AddRule(s1, s2, "lt(x_old, x_new)");
  WordSolveResult r = SolveWordEmptiness(system, NfaModCounter(5));
  ASSERT_TRUE(r.nonempty);
  ASSERT_TRUE(r.witness.has_value());
  EXPECT_GE(r.witness->letters.size(), 5u);
  EXPECT_EQ(r.witness->letters.size() % 5, 0u);
  Structure db = WorddbOf(r.witness->letters, system.schema_ref());
  EXPECT_TRUE(ValidateAcceptingRun(system, db, r.witness->system_run));
}

TEST(WordSolveTest, EveryNonemptyZooVerdictCarriesItsWitness) {
  // The front door checks each witness it returns (the word is accepted,
  // its database drives the run) and throws rather than answer without
  // one, so a nonempty verdict is always witnessed, under both strategies.
  // A system over {a, b} does not fit the unary mod-5 language's schema.
  const std::vector<DdsSystem> systems = {ZigZagSystem(1), ZigZagSystem(2),
                                          TwoMarkersSystem()};
  const std::vector<Nfa> languages = {NfaAllAB(), NfaAlternatingAB(),
                                      NfaModCounter(5), NfaAPlusBPlus()};
  int nonempty = 0;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    for (std::size_t j = 0; j < languages.size(); ++j) {
      for (SolveStrategy strategy :
           {SolveStrategy::kOnTheFly, SolveStrategy::kEager}) {
        SCOPED_TRACE("system " + std::to_string(i) + ", language " +
                     std::to_string(j));
        if (languages[j].num_letters() == 1) {
          EXPECT_THROW(SolveWordEmptiness(systems[i], languages[j], true,
                                          strategy),
                       std::invalid_argument);
          continue;
        }
        const WordSolveResult r =
            SolveWordEmptiness(systems[i], languages[j], true, strategy);
        if (!r.nonempty) continue;
        ++nonempty;
        ASSERT_TRUE(r.witness.has_value());
        EXPECT_TRUE(languages[j].Accepts(r.witness->letters));
        const Structure db =
            WorddbOf(r.witness->letters, systems[i].schema_ref());
        EXPECT_TRUE(ValidateAcceptingRun(systems[i], db,
                                         r.witness->system_run));
      }
    }
  }
  EXPECT_GT(nonempty, 0);
}

// Random systems, differential against brute force.
class WordSolverDifferential : public ::testing::TestWithParam<int> {};

TEST_P(WordSolverDifferential, AgreesWithBruteForce) {
  std::mt19937 rng(GetParam());
  Nfa nfa = (GetParam() % 3 == 0)   ? NfaAllAB()
            : (GetParam() % 3 == 1) ? NfaAlternatingAB()
                                    : NfaAPlusBPlus();
  auto schema = MakeWordSchema({"a", "b"});
  DdsSystem system(schema);
  system.AddRegister("x");
  int s0 = system.AddState("s0", true);
  int s1 = system.AddState("s1");
  int s2 = system.AddState("s2", false, true);
  const char* guard_pool[] = {
      "lt(x_old, x_new)",
      "lt(x_new, x_old)",
      "lt(x_old, x_new) & b(x_new)",
      "x_new = x_old & a(x_old)",
      "x_new = x_old & b(x_old)",
      "lt(x_old, x_new) & a(x_new)",
      "x_old != x_new & !lt(x_old, x_new)",
  };
  int states[] = {s0, s1, s2};
  const int num_rules = 3 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_rules; ++i) {
    system.AddRule(states[rng() % 3], states[rng() % 3],
                   guard_pool[rng() % 7]);
  }
  WordSolveResult r = SolveWordEmptiness(system, nfa);
  auto brute = BruteForceWordSearch(system, nfa, 6);
  if (brute.has_value()) {
    EXPECT_TRUE(r.nonempty) << "brute force found a witness word";
  }
  if (r.nonempty) {
    ASSERT_TRUE(r.witness.has_value());
    EXPECT_TRUE(nfa.Accepts(r.witness->letters));
    Structure db = WorddbOf(r.witness->letters, system.schema_ref());
    EXPECT_TRUE(ValidateAcceptingRun(system, db, r.witness->system_run));
  } else {
    EXPECT_FALSE(brute.has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WordSolverDifferential,
                         ::testing::Range(0, 30));

}  // namespace
}  // namespace amalgam
