// Differential tests for the exploration engine: the on-the-fly strategy
// must agree with the eager reference pipeline — verdict and witness
// validity — on every zoo system over every applicable backend, and must
// explore strictly fewer class members on nonempty instances (the whole
// point of the refactor).
#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <utility>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/worddb.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

// The eager witness again, from graphs that carry no joint members: a
// partial graph (an early-exited on-the-fly build's) resumed from its
// cursor, the complete graph that resumption cached, and the same graph
// stored and loaded by a fresh GraphCache. Each is the cold eager build's
// graph bit for bit, so their witness paths are exactly as long as
// `cold`'s.
void ExpectResumedAndStoredWitnesses(const DdsSystem& system,
                                     const SolverBackend& backend,
                                     const SolveResult& cold) {
  const std::string dir = ::testing::TempDir() + "/engine_witness_store";
  std::filesystem::remove_all(dir);
  GraphCache cache(0, dir);
  SolveOptions partial{.build_witness = false, .cache = &cache};
  ASSERT_TRUE(SolveEmptiness(system, backend, partial).nonempty);
  SolveOptions eager{.strategy = SolveStrategy::kEager, .cache = &cache};
  const SolveResult resumed = SolveEmptiness(system, backend, eager);
  EXPECT_TRUE(resumed.stats.graph_resumed);
  const SolveResult hit = SolveEmptiness(system, backend, eager);
  EXPECT_TRUE(hit.stats.graph_from_cache);
  EXPECT_EQ(hit.stats.members_enumerated, 0u);

  GraphCache fresh(0, dir);
  eager.cache = &fresh;
  const SolveResult loaded = SolveEmptiness(system, backend, eager);
  EXPECT_TRUE(loaded.stats.graph_from_cache);
  EXPECT_EQ(loaded.stats.members_enumerated, 0u);
  for (const auto& [name, r] : {std::pair{"resumed", &resumed},
                                 std::pair{"cache-hit", &hit},
                                 std::pair{"store-loaded", &loaded}}) {
    SCOPED_TRACE(name);
    ASSERT_TRUE(r->witness_db.has_value());
    EXPECT_TRUE(ValidateAcceptingRun(system, *r->witness_db, *r->witness_run));
    EXPECT_EQ(r->path.size(), cold.path.size());
  }
}

// Runs both strategies and checks agreement; returns the two results. A
// nonempty verdict's witness is also rebuilt from resumed, cache-hit and
// store-loaded graphs.
std::pair<SolveResult, SolveResult> SolveBoth(const DdsSystem& system,
                                              const SolverBackend& backend,
                                              bool build_witness = true) {
  SolveOptions eager;
  eager.strategy = SolveStrategy::kEager;
  eager.build_witness = build_witness;
  SolveOptions lazy;
  lazy.strategy = SolveStrategy::kOnTheFly;
  lazy.build_witness = build_witness;
  SolveResult re = SolveEmptiness(system, backend, eager);
  SolveResult rl = SolveEmptiness(system, backend, lazy);
  EXPECT_EQ(re.nonempty, rl.nonempty) << "strategies disagree on the verdict";
  if (re.nonempty && build_witness) {
    if (re.witness_db.has_value()) {
      EXPECT_TRUE(ValidateAcceptingRun(system, *re.witness_db, *re.witness_run))
          << "eager witness failed to validate";
      EXPECT_TRUE(rl.witness_db.has_value())
          << "on-the-fly built no witness where eager did";
      if (rl.witness_db.has_value()) {
        EXPECT_TRUE(
            ValidateAcceptingRun(system, *rl.witness_db, *rl.witness_run))
            << "on-the-fly witness failed to validate";
      }
      ExpectResumedAndStoredWitnesses(system, backend, re);
    }
    // Nonempty instances must exit early: the lazy sweep stops at the first
    // accepting configuration instead of exhausting the class.
    EXPECT_LE(rl.stats.members_enumerated, re.stats.members_enumerated);
  }
  return {std::move(re), std::move(rl)};
}

TEST(EngineDifferentialTest, SystemZooOverAllApplicableClasses) {
  AllStructuresClass all(GraphZooSchema());
  LiftedHomClass lifted(Example2Template());
  HomClass raw(Example2Template());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    SolveBoth(system, all);
    SolveBoth(system, lifted);
    SolveBoth(system, raw, /*build_witness=*/false);
  }
}

TEST(EngineDifferentialTest, DataClassesAgree) {
  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  for (bool injective : {false, true}) {
    DataClass deq(base, DataDomain::kNaturalsWithEquality, injective);
    DdsSystem system(deq.schema());
    int a = system.AddState("a", true);
    int b = system.AddState("b", false, true);
    system.AddRegister("x");
    system.AddRule(a, b,
                   "E(x_old, x_new) & deq(x_old, x_new) & x_old != x_new");
    SolveBoth(system, deq);
  }
}

TEST(EngineDifferentialTest, LinearOrderAndEquivalenceAgree) {
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  int s0 = chain.AddState("s0", true);
  int s1 = chain.AddState("s1");
  int s2 = chain.AddState("s2", false, true);
  chain.AddRegister("x");
  chain.AddRule(s0, s1, "lt(x_old, x_new)");
  chain.AddRule(s1, s2, "lt(x_old, x_new)");
  SolveBoth(chain, orders);

  EquivalenceClass eqv;
  DdsSystem pairs(eqv.schema());
  int a = pairs.AddState("a", true);
  int b = pairs.AddState("b", false, true);
  pairs.AddRegister("x");
  pairs.AddRegister("y");
  pairs.AddRule(a, b,
                "eqv(x_old, y_old) & x_old != y_old & x_new = x_old & "
                "y_new = y_old");
  SolveBoth(pairs, eqv);
}

TEST(EngineDifferentialTest, WordZooAgrees) {
  struct Case {
    DdsSystem system;
    Nfa nfa;
  };
  std::vector<Case> cases;
  cases.push_back({ZigZagSystem(2), NfaAlternatingAB()});
  cases.push_back({ZigZagSystem(1), NfaAPlusBPlus()});
  cases.push_back({ZigZagSystem(2), NfaAPlusBPlus()});  // empty
  cases.push_back({TwoMarkersSystem(), NfaAPlusBPlus()});
  cases.push_back({ZigZagSystem(1), NfaAllAB()});
  for (const Case& c : cases) {
    WordSolveResult eager = SolveWordEmptiness(c.system, c.nfa, true,
                                               SolveStrategy::kEager);
    WordSolveResult lazy = SolveWordEmptiness(c.system, c.nfa, true,
                                              SolveStrategy::kOnTheFly);
    EXPECT_EQ(eager.nonempty, lazy.nonempty);
    for (const WordSolveResult* r : {&eager, &lazy}) {
      if (!r->nonempty || !r->witness.has_value()) continue;
      EXPECT_TRUE(c.nfa.Accepts(r->witness->letters));
      Structure db = WorddbOf(r->witness->letters, c.system.schema_ref());
      EXPECT_TRUE(ValidateAcceptingRun(c.system, db, r->witness->system_run));
    }
    if (lazy.nonempty) {
      EXPECT_LE(lazy.stats.members_enumerated, eager.stats.members_enumerated);
    }
  }
}

TEST(EngineDifferentialTest, TreeZooAgrees) {
  TreeAutomaton chains = TaChains();
  TreeAutomaton two = TaTwoLevel();
  TreeAutomaton all = TaAllTrees();
  TreeAutomaton comb = TaComb();
  struct Case {
    DdsSystem system;
    const TreeAutomaton* automaton;
    int extra_cap;
  };
  std::vector<Case> cases;
  cases.push_back({DescendSystem(chains, 2), &chains, 3});
  cases.push_back({DescendSystem(two, 1), &two, 3});
  cases.push_back({DescendSystem(two, 2), &two, 3});  // empty
  cases.push_back({FindBBelowSystem(all), &all, 3});
  cases.push_back({FindBBelowSystem(comb), &comb, 3});
  for (const Case& c : cases) {
    TreeSolveResult eager = SolveTreeEmptiness(c.system, *c.automaton, 0,
                                               c.extra_cap,
                                               SolveStrategy::kEager);
    TreeSolveResult lazy = SolveTreeEmptiness(c.system, *c.automaton, 0,
                                              c.extra_cap,
                                              SolveStrategy::kOnTheFly);
    EXPECT_EQ(eager.nonempty, lazy.nonempty);
    if (lazy.nonempty) {
      EXPECT_LE(lazy.stats.members_enumerated, eager.stats.members_enumerated);
    }
  }
}

TEST(EngineTest, OnTheFlyExploresStrictlyFewerMembersWhenNonempty) {
  // The bench_e2_scaling chain instance: n states, one register walking E
  // edges. Nonempty over all graphs, so the lazy sweep must stop well
  // before the eager one exhausts the 2k-generated members.
  auto schema = GraphZooSchema();
  DdsSystem system(schema);
  system.AddRegister("x");
  int prev = system.AddState("s0", true, false);
  for (int i = 1; i < 4; ++i) {
    int next = system.AddState("s" + std::to_string(i), false, i == 3);
    system.AddRule(prev, next, "E(x_old, x_new)");
    prev = next;
  }
  AllStructuresClass cls(schema);
  auto [eager, lazy] = SolveBoth(system, cls);
  ASSERT_TRUE(eager.nonempty);
  EXPECT_LT(lazy.stats.members_enumerated, eager.stats.members_enumerated)
      << "on-the-fly failed to exit early on a nonempty instance";
}

TEST(EngineTest, StatsStillCountTheFullSweepWhenEmpty) {
  // Empty instances cannot exit early: both strategies sweep the same
  // class, so the member counts coincide.
  DdsSystem system = ContradictionSystem();
  AllStructuresClass cls(GraphZooSchema());
  auto [eager, lazy] = SolveBoth(system, cls);
  EXPECT_FALSE(eager.nonempty);
  EXPECT_EQ(eager.stats.members_enumerated, lazy.stats.members_enumerated);
}

// Random 1-register systems over the graph schema: the two strategies must
// agree everywhere, witnesses must validate.
class EngineRandomDifferential : public ::testing::TestWithParam<int> {};

TEST_P(EngineRandomDifferential, StrategiesAgree) {
  std::mt19937 rng(GetParam());
  auto schema = GraphZooSchema();
  AllStructuresClass cls(schema);
  DdsSystem system(schema);
  int s0 = system.AddState("s0", true);
  int s1 = system.AddState("s1");
  int s2 = system.AddState("s2", false, true);
  system.AddRegister("x");
  const char* guard_pool[] = {
      "E(x_old, x_new)",
      "E(x_new, x_old)",
      "red(x_new) & E(x_old, x_new)",
      "!red(x_new) & x_old != x_new",
      "x_old = x_new & red(x_old)",
      "E(x_old, x_old)",
      "!E(x_old, x_new) & !E(x_new, x_old)",
      "red(x_old) & !red(x_new)",
  };
  int states[] = {s0, s1, s2};
  const int num_rules = 3 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_rules; ++i) {
    system.AddRule(states[rng() % 3], states[rng() % 3],
                   guard_pool[rng() % 8]);
  }
  SolveBoth(system, cls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EngineRandomDifferential,
                         ::testing::Range(0, 15));

}  // namespace
}  // namespace amalgam
