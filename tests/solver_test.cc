// Tests for the Theorem 5 emptiness solver, including the paper's Examples
// 1, 2 and 4 and differential tests against brute-force database search.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <memory>
#include <random>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/context.h"
#include "solver/emptiness.h"
#include "solver/member_table.h"
#include "solver/store.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

TEST(SolverTest, OddRedCycleNonEmptyOverAllGraphs) {
  DdsSystem system = OddRedCycleSystem();
  AllStructuresClass cls(GraphZooSchema());
  SolveResult r = SolveEmptiness(system, cls);
  EXPECT_TRUE(r.nonempty);
  ASSERT_TRUE(r.witness_db.has_value());
  ASSERT_TRUE(r.witness_run.has_value());
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
  EXPECT_GT(r.stats.members_enumerated, 0u);
  EXPECT_GT(r.stats.edges, 0u);
}

TEST(SolverTest, OddRedCycleEmptyOverLiftedHom) {
  // Example 2: no database homomorphic to the template drives an accepting
  // run, because HOM(H) excludes odd red cycles. Sound verdict requires the
  // Fraïssé lift (Lemma 7).
  DdsSystem system = OddRedCycleSystem();
  LiftedHomClass cls(Example2Template());
  SolveResult r = SolveEmptiness(system, cls);
  EXPECT_FALSE(r.nonempty);
}

TEST(SolverTest, RawHomClassIsUnsoundWithoutTheLift) {
  // Example 4's warning, demonstrated: HOM(H) itself is not closed under
  // amalgamation, and running the small-configuration search over it
  // produces a FALSE positive — the local parity obstruction is invisible
  // without colors. This test documents the phenomenon the lift repairs.
  DdsSystem system = OddRedCycleSystem();
  HomClass cls(Example2Template());
  SolveResult r = SolveEmptiness(system, cls,
                                 SolveOptions{.build_witness = false});
  EXPECT_TRUE(r.nonempty) << "if this ever becomes empty, the raw class "
                             "stopped being a useful counterexample";
}

TEST(SolverTest, ReachRedNonEmptyWithValidWitness) {
  DdsSystem system = ReachRedSystem();
  AllStructuresClass cls(GraphZooSchema());
  SolveResult r = SolveEmptiness(system, cls);
  ASSERT_TRUE(r.nonempty);
  ASSERT_TRUE(r.witness_db.has_value());
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
}

TEST(SolverTest, ContradictionEmptyEverywhere) {
  DdsSystem system = ContradictionSystem();
  AllStructuresClass all(GraphZooSchema());
  EXPECT_FALSE(SolveEmptiness(system, all).nonempty);
  LiftedHomClass hom(Example2Template());
  EXPECT_FALSE(SolveEmptiness(system, hom).nonempty);
}

TEST(SolverTest, RejectsExistentialGuards) {
  DdsSystem system(GraphZooSchema());
  int a = system.AddState("a", true);
  int b = system.AddState("b", false, true);
  system.AddRegister("x");
  system.AddRule(a, b, "exists z: E(x_old, z) & x_new = x_old");
  AllStructuresClass cls(GraphZooSchema());
  EXPECT_THROW(SolveEmptiness(system, cls), std::invalid_argument);
  // After elimination it goes through.
  DdsSystem qf = EliminateExistentials(system);
  SolveResult r = SolveEmptiness(qf, cls);
  EXPECT_TRUE(r.nonempty);
  ASSERT_TRUE(r.witness_db.has_value());
  EXPECT_TRUE(ValidateAcceptingRun(qf, *r.witness_db, *r.witness_run));
}

TEST(SolverTest, RejectsSchemaMismatch) {
  DdsSystem system = OddRedCycleSystem();
  LinearOrderClass orders;  // schema {lt} does not extend {E, red}
  EXPECT_THROW(SolveEmptiness(system, orders), std::invalid_argument);
}

TEST(SolverTest, IncreasingChainOverLinearOrders) {
  // One register walking strictly upward three times: nonempty; the witness
  // must be a linear order with a chain of length >= 4... actually >= 3
  // steps need 4 distinct elements only if strictness forces them — lt is
  // irreflexive and transitive, so x0 < x1 < x2 < x3 are all distinct.
  LinearOrderClass cls;
  DdsSystem system(cls.schema());
  int s0 = system.AddState("s0", true);
  int s1 = system.AddState("s1");
  int s2 = system.AddState("s2");
  int s3 = system.AddState("s3", false, true);
  system.AddRegister("x");
  system.AddRule(s0, s1, "lt(x_old, x_new)");
  system.AddRule(s1, s2, "lt(x_old, x_new)");
  system.AddRule(s2, s3, "lt(x_old, x_new)");
  SolveResult r = SolveEmptiness(system, cls);
  ASSERT_TRUE(r.nonempty);
  ASSERT_TRUE(r.witness_db.has_value());
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
  EXPECT_GE(r.witness_db->size(), 4u);
  EXPECT_TRUE(IsStrictLinearOrder(*r.witness_db, LinearOrderClass::kLess));
}

TEST(SolverTest, DescendingForeverIsFineOverFiniteOrdersToo) {
  // lt has no endpoints *within the class*: every finite run embeds in a
  // longer order, so "descend 5 times" is also nonempty.
  LinearOrderClass cls;
  DdsSystem system(cls.schema());
  int prev = system.AddState("d0", true);
  system.AddRegister("x");
  for (int i = 1; i <= 5; ++i) {
    int next = system.AddState("d" + std::to_string(i), false, i == 5);
    system.AddRule(prev, next, "lt(x_new, x_old)");
    prev = next;
  }
  SolveResult r = SolveEmptiness(system, cls);
  ASSERT_TRUE(r.nonempty);
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
  EXPECT_GE(r.witness_db->size(), 6u);
}

TEST(SolverTest, OrderContradictionIsEmpty) {
  LinearOrderClass cls;
  DdsSystem system(cls.schema());
  int a = system.AddState("a", true);
  int b = system.AddState("b", false, true);
  system.AddRegister("x");
  system.AddRegister("y");
  // Requires x < y and y < x simultaneously.
  system.AddRule(a, b,
                 "lt(x_old, y_old) & lt(y_old, x_old) & x_new = x_old & "
                 "y_new = y_old");
  EXPECT_FALSE(SolveEmptiness(system, cls).nonempty);
}

TEST(SolverTest, EquivalenceClassChains) {
  EquivalenceClass cls;
  DdsSystem system(cls.schema());
  int a = system.AddState("a", true);
  int b = system.AddState("b", false, true);
  system.AddRegister("x");
  system.AddRegister("y");
  // Two registers in the same class but distinct elements.
  system.AddRule(a, b,
                 "eqv(x_old, y_old) & x_old != y_old & x_new = x_old & "
                 "y_new = y_old");
  SolveResult r = SolveEmptiness(system, cls);
  ASSERT_TRUE(r.nonempty);
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
  // Symmetry violation is unsatisfiable in the class.
  DdsSystem bad(cls.schema());
  int c = bad.AddState("c", true);
  int d = bad.AddState("d", false, true);
  bad.AddRegister("x");
  bad.AddRegister("y");
  bad.AddRule(c, d,
              "eqv(x_old, y_old) & !eqv(y_old, x_old) & x_new = x_old & "
              "y_new = y_old");
  EXPECT_FALSE(SolveEmptiness(bad, cls).nonempty);
}

TEST(SolverTest, DataValuesEqualityWalk) {
  // Corollary 8 flavor: walk along edges, but only between nodes carrying
  // the same data value; require at least one move to a *different* node.
  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  DataClass cls(base, DataDomain::kNaturalsWithEquality, /*injective=*/false);
  DdsSystem system(GraphZooSchema());  // guards use base schema...
  // To mention "deq", the system must be built over the extended schema.
  DdsSystem data_system(cls.schema());
  int a = data_system.AddState("a", true);
  int b = data_system.AddState("b", false, true);
  data_system.AddRegister("x");
  data_system.AddRule(
      a, b, "E(x_old, x_new) & deq(x_old, x_new) & x_old != x_new");
  SolveResult r = SolveEmptiness(data_system, cls);
  ASSERT_TRUE(r.nonempty);
  EXPECT_TRUE(
      ValidateAcceptingRun(data_system, *r.witness_db, *r.witness_run));
  // With the injective product (relational keys), equal values force equal
  // nodes, so the same system is empty (Corollary 8's (.) variant).
  DataClass inj(base, DataDomain::kNaturalsWithEquality, /*injective=*/true);
  EXPECT_FALSE(SolveEmptiness(data_system, inj).nonempty);
}

TEST(SolverTest, DataValuesOrderedDescent) {
  // Over <Q,<>: strictly descending data values along edges, 3 steps.
  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  DataClass cls(base, DataDomain::kRationalsWithOrder, /*injective=*/false);
  DdsSystem system(cls.schema());
  int s0 = system.AddState("s0", true);
  int s1 = system.AddState("s1");
  int s2 = system.AddState("s2", false, true);
  system.AddRegister("x");
  system.AddRule(s0, s1, "E(x_old, x_new) & dlt(x_new, x_old)");
  system.AddRule(s1, s2, "E(x_old, x_new) & dlt(x_new, x_old)");
  SolveResult r = SolveEmptiness(system, cls);
  ASSERT_TRUE(r.nonempty);
  EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run));
}

// Differential test: random 1-register systems over the graph schema.
// If the solver says empty, no graph with <= 3 nodes may drive an accepting
// run; if it says nonempty, the reconstructed witness must validate.
class SolverDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverDifferentialTest, AgreesWithBruteForce) {
  std::mt19937 rng(GetParam());
  auto schema = GraphZooSchema();
  AllStructuresClass cls(schema);

  // Random system: 3 states, 1 register, 3-5 rules with random small guards.
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

  SolveResult r = SolveEmptiness(system, cls);
  if (r.nonempty) {
    ASSERT_TRUE(r.witness_db.has_value());
    EXPECT_TRUE(ValidateAcceptingRun(system, *r.witness_db, *r.witness_run))
        << "witness failed to validate";
  } else {
    // Exhaustive search over all graphs with up to 3 nodes.
    for (int n = 1; n <= 3; ++n) {
      const int off_diag_bits = n * n;  // all edge slots incl. loops
      for (unsigned em = 0; em < (1u << off_diag_bits); ++em) {
        for (unsigned rm = 0; rm < (1u << n); ++rm) {
          Structure g(schema, n);
          int bit = 0;
          for (Elem i = 0; i < static_cast<Elem>(n); ++i) {
            for (Elem j = 0; j < static_cast<Elem>(n); ++j) {
              if ((em >> bit++) & 1) g.SetHolds2(0, i, j);
            }
            if ((rm >> i) & 1) g.SetHolds1(1, i);
          }
          ASSERT_FALSE(FindAcceptingRun(system, g).has_value())
              << "solver said empty but a driving database exists:\n"
              << g.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverDifferentialTest,
                         ::testing::Range(0, 25));

// ---- Guard interning: a repeated guard adds no sub-transition. ----

// A random 1-register system over the graph schema, drawn like the
// differential tests' (3 states, 3-5 rules from a fixed guard pool).
DdsSystem RandomGraphSystem(std::uint32_t seed) {
  std::mt19937 rng(seed);
  DdsSystem system(GraphZooSchema());
  const int states[] = {system.AddState("s0", true), system.AddState("s1"),
                        system.AddState("s2", false, true)};
  system.AddRegister("x");
  const char* guard_pool[] = {
      "E(x_old, x_new)",
      "E(x_new, x_old)",
      "red(x_new) & E(x_old, x_new)",
      "!red(x_new) & x_old != x_new",
      "x_old = x_new & red(x_old)",
      "E(x_old, x_old)",
  };
  const int num_rules = 3 + static_cast<int>(rng() % 3);
  for (int i = 0; i < num_rules; ++i) {
    system.AddRule(states[rng() % 3], states[rng() % 3],
                   guard_pool[rng() % 6]);
  }
  return system;
}

// `system` with each rule repeated `r` times, every copy's guard a
// pointer-distinct copy of the original formula, in shuffled rule order.
DdsSystem RepeatGuards(const DdsSystem& system, int r, std::mt19937& rng) {
  DdsSystem out(system.schema_ref());
  for (int reg = 0; reg < system.num_registers(); ++reg) {
    out.AddRegister(system.register_name(reg));
  }
  for (int q = 0; q < system.num_states(); ++q) {
    out.AddState(system.state_name(q), system.is_initial(q),
                 system.is_accepting(q));
  }
  std::vector<TransitionRule> rules;
  for (const TransitionRule& rule : system.rules()) {
    for (int copy = 0; copy < r; ++copy) {
      rules.push_back(TransitionRule{rule.from, rule.to,
                                     std::make_shared<Formula>(*rule.guard)});
    }
  }
  std::shuffle(rules.begin(), rules.end(), rng);
  for (const TransitionRule& rule : rules) {
    out.AddRule(rule.from, rule.to, rule.guard);
  }
  return out;
}

// The branching mirror of a linear system: one single-branch rule per rule.
BranchingSystem AsBranching(const DdsSystem& system) {
  BranchingSystem out(system.schema_ref());
  for (int reg = 0; reg < system.num_registers(); ++reg) {
    out.AddRegister(system.register_name(reg));
  }
  for (int q = 0; q < system.num_states(); ++q) {
    out.AddState(system.state_name(q), system.is_initial(q),
                 system.is_accepting(q));
  }
  for (const TransitionRule& rule : system.rules()) {
    out.AddRule(rule.from, {Branch{rule.guard, rule.to}});
  }
  return out;
}

std::string FreshStoreDir(const std::string& name) {
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / ("interning_" + name);
  std::filesystem::remove_all(dir);
  return dir.string();
}

// Repeating guards changes nothing but guard-evaluation counts: under
// on-the-fly, eager, cached, store-resumed and branching solving the
// verdict and the member count match the un-repeated system's, and the
// graph has the distinct-guard graph's edges.
void ExpectRepeatsChangeNothing(const DdsSystem& system,
                                const FraisseClass& cls) {
  const SolveOptions eager{.build_witness = false,
                           .strategy = SolveStrategy::kEager};
  const SolveOptions lazy{.build_witness = false};
  const SolveResult base_eager = SolveEmptiness(system, cls, eager);
  const SolveResult base_lazy = SolveEmptiness(system, cls, lazy);
  const BranchingSolveResult base_branching =
      SolveBranchingEmptiness(AsBranching(system), cls);
  ASSERT_EQ(base_lazy.nonempty, base_eager.nonempty);
  std::mt19937 rng(17);
  for (int r : {1, 2, 3}) {
    SCOPED_TRACE("repeats = " + std::to_string(r));
    const DdsSystem repeated = RepeatGuards(system, r, rng);

    const SolveResult e = SolveEmptiness(repeated, cls, eager);
    EXPECT_EQ(e.nonempty, base_eager.nonempty);
    EXPECT_EQ(e.stats.members_enumerated, base_eager.stats.members_enumerated);
    EXPECT_EQ(e.stats.edges, base_eager.stats.edges);

    const SolveResult l = SolveEmptiness(repeated, cls, lazy);
    EXPECT_EQ(l.nonempty, base_lazy.nonempty);
    EXPECT_EQ(l.stats.members_enumerated, base_lazy.stats.members_enumerated);
    if (l.nonempty) {
      // An early exit may stop mid-member, where guard order decides
      // which of that member's edges were recorded.
      EXPECT_LE(l.stats.edges, base_eager.stats.edges);
    } else {
      // Without an exit every swept member records all of its edges (the
      // frontier sweep sweeps only reached shapes' members).
      EXPECT_EQ(l.stats.edges, base_lazy.stats.edges);
    }

    GraphCache cache;
    SolveOptions cached = eager;
    cached.cache = &cache;
    SolveEmptiness(repeated, cls, cached);
    const SolveResult hit = SolveEmptiness(repeated, cls, cached);
    EXPECT_TRUE(hit.stats.graph_from_cache);
    EXPECT_EQ(hit.stats.members_enumerated, 0u);
    EXPECT_EQ(hit.nonempty, base_eager.nonempty);
    EXPECT_EQ(hit.stats.edges, base_eager.stats.edges);

    // An on-the-fly run persists its (partial, when it exits early) graph;
    // a fresh cache over the same directory resumes it to completion.
    const std::string dir = FreshStoreDir("r" + std::to_string(r));
    {
      GraphCache persisting;
      persisting.AttachStore(dir);
      SolveOptions persist = lazy;
      persist.cache = &persisting;
      SolveEmptiness(repeated, cls, persist);
    }
    GraphCache resuming;
    resuming.AttachStore(dir);
    SolveOptions resume = eager;
    resume.cache = &resuming;
    const SolveResult resumed = SolveEmptiness(repeated, cls, resume);
    EXPECT_TRUE(resumed.stats.graph_from_cache);
    EXPECT_EQ(resumed.nonempty, base_eager.nonempty);
    EXPECT_EQ(resumed.stats.edges, base_eager.stats.edges);
    std::filesystem::remove_all(dir);

    const BranchingSolveResult b =
        SolveBranchingEmptiness(AsBranching(repeated), cls);
    EXPECT_EQ(b.nonempty, base_branching.nonempty);
    EXPECT_EQ(b.nonempty, base_eager.nonempty);
    EXPECT_EQ(b.stats.members_enumerated,
              base_branching.stats.members_enumerated);
    EXPECT_EQ(b.stats.edges, base_eager.stats.edges);
  }
}

TEST(GuardInterningTest, ZooSystemsIgnoreRepeatedGuards) {
  AllStructuresClass all(GraphZooSchema());
  ExpectRepeatsChangeNothing(ReachRedSystem(), all);
  ExpectRepeatsChangeNothing(ContradictionSystem(), all);
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  const int s0 = chain.AddState("s0", true);
  const int s1 = chain.AddState("s1");
  const int s2 = chain.AddState("s2", false, true);
  chain.AddRegister("x");
  chain.AddRule(s0, s1, "lt(x_old, x_new)");
  chain.AddRule(s1, s2, "lt(x_new, x_old)");
  ExpectRepeatsChangeNothing(chain, orders);
}

class GuardInterningRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(GuardInterningRandomTest, RandomSystemsIgnoreRepeatedGuards) {
  AllStructuresClass all(GraphZooSchema());
  ExpectRepeatsChangeNothing(RandomGraphSystem(GetParam()), all);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GuardInterningRandomTest,
                         ::testing::Range(0, 8));

TEST(GuardInterningTest, IdenticalFormulasCollapseInFirstOccurrenceOrder) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  const FormulaRef a = system.ParseGuard("E(x_old, x_new)");
  const FormulaRef b = system.ParseGuard("red(x_new)");
  const FormulaRef a_again = system.ParseGuard("E(x_old, x_new)");
  ASSERT_NE(a.get(), a_again.get());
  const std::vector<FormulaRef> list = {b, a, b, a_again};
  const InternedGuards interned = InternGuards(list, system.schema());
  ASSERT_EQ(interned.guards.size(), 2u);
  EXPECT_EQ(interned.guards[0], b);
  EXPECT_EQ(interned.guards[1], a);
  EXPECT_EQ(interned.guard_of, (std::vector<int>{0, 1, 0, 1}));

  // The key names the rule list by printed form: pointer identity does not
  // matter, repetition does. A duplicate-free list keeps the key format of
  // a plain printed guard list, so its stored entries stay valid.
  AllStructuresClass all(GraphZooSchema());
  const std::vector<FormulaRef> shared = {b, a, b, a};
  const std::vector<FormulaRef> distinct = {b, a};
  EXPECT_EQ(GraphCache::Key(all, 1, list), GraphCache::Key(all, 1, shared));
  EXPECT_NE(GraphCache::Key(all, 1, list), GraphCache::Key(all, 1, distinct));
  std::string plain = std::to_string(all.Fingerprint().size()) + ":" +
                      all.Fingerprint() + "\x1f" + "1";
  for (const FormulaRef& g : distinct) {
    const std::string printed = g->ToString(*all.schema());
    plain += "\x1f" + std::to_string(printed.size()) + ":" + printed;
  }
  EXPECT_EQ(GraphCache::Key(all, 1, distinct), plain);
  EXPECT_EQ(GraphCache::Key(all, 1, list), plain + "\x1e" + "0,1,0,1");
}

TEST(GuardInterningTest, Chain64SweepsOneGuard) {
  // 64 states walking E edges: 63 rules, one distinct guard. The graph
  // holds that guard's 16 edges, not 63 copies of them.
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  int prev = system.AddState("s0", true);
  for (int i = 1; i < 64; ++i) {
    const int next = system.AddState("s" + std::to_string(i), false, i == 63);
    system.AddRule(prev, next, "E(x_old, x_new)");
    prev = next;
  }
  AllStructuresClass all(GraphZooSchema());
  const SolveResult r = SolveEmptiness(
      system, all,
      SolveOptions{.build_witness = false, .strategy = SolveStrategy::kEager});
  EXPECT_TRUE(r.nonempty);
  EXPECT_EQ(r.stats.edges, 16u);
  const SolveResult witnessed = SolveEmptiness(system, all);
  ASSERT_TRUE(witnessed.witness_run.has_value());
  EXPECT_EQ(witnessed.witness_run->size(), 64u);
  EXPECT_EQ(witnessed.steps.size(), 63u);
}

TEST(GuardInterningTest, PathAndStepsAreCopiedOnlyForWitnesses) {
  AllStructuresClass all(GraphZooSchema());
  const SolveResult bare = SolveEmptiness(ReachRedSystem(), all,
                                          SolveOptions{.build_witness = false});
  ASSERT_TRUE(bare.nonempty);
  EXPECT_TRUE(bare.path.empty());
  EXPECT_TRUE(bare.steps.empty());
  const SolveResult full = SolveEmptiness(ReachRedSystem(), all);
  EXPECT_EQ(full.steps.size() + 1, full.path.size());
}

// ---- Member tables: a warm table changes no graph and no counter. ----

// A cache whose member table for `ctx`'s class is built: the class's first
// request only records it, the second builds the table.
void WarmMemberTable(GraphCache& cache, const GraphContext& ctx) {
  SolveStats stats;
  ASSERT_EQ(cache.AcquireMemberTable(ctx.class_key(), *ctx.backend, ctx.k,
                                     stats),
            nullptr);
  ASSERT_NE(cache.AcquireMemberTable(ctx.class_key(), *ctx.backend, ctx.k,
                                     stats),
            nullptr);
  ASSERT_EQ(cache.member_tables(), 1u);
}

// The front door's cached query over a cache whose class table is warm,
// against the same query over a fresh store-backed cache per call: a
// cache's first request for a class builds no table, so that graph is
// streamed from the backend and persisted to `dir`.
// Eager, early-exited on-the-fly and resumed queries must leave the same
// graph (store bytes included, so shapes, initial set, edges, steps and
// cursor) and count the same members, guard evaluations and edges. The
// eager builds sweep the table and materialize no member; on-the-fly
// sweeps never read a table, so they materialize what the streamed query
// does.
using SolveThrough =
    std::function<SolveStats(GraphCache* cache, SolveStrategy strategy)>;

void ExpectTableServedQueriesMatchStreamed(const GraphContext& ctx,
                                           const SolveThrough& solve,
                                           const std::string& name) {
  // Each run is a sequence of strategies over one warm-table cache and,
  // alongside, over one store directory.
  auto run = [&](std::initializer_list<SolveStrategy> strategies,
                 const std::string& label) {
    SCOPED_TRACE(name + ": " + label);
    GraphCache tabled;
    WarmMemberTable(tabled, ctx);
    const std::string dir = FreshStoreDir("table_" + name);
    for (SolveStrategy strategy : strategies) {
      GraphCache streaming;
      streaming.AttachStore(dir);
      const SolveStats streamed = solve(&streaming, strategy);
      const SolveStats served = solve(&tabled, strategy);
      GraphCache loader;
      loader.AttachStore(dir);
      const auto expected =
          loader.Lookup(ctx.key, ctx.backend->schema(), ctx.guards, ctx.k);
      const auto got = tabled.Peek(ctx.key);
      ASSERT_NE(expected, nullptr);
      ASSERT_NE(got, nullptr);
      EXPECT_EQ(got->cursor(), expected->cursor());
      EXPECT_EQ(SerializeGraph(*got, ctx.key),
                SerializeGraph(*expected, ctx.key));
      EXPECT_EQ(served.members_enumerated, streamed.members_enumerated);
      EXPECT_EQ(served.guard_evaluations, streamed.guard_evaluations);
      EXPECT_EQ(served.edges, streamed.edges);
      EXPECT_EQ(served.members_generated,
                strategy == SolveStrategy::kEager ? 0u
                                                  : streamed.members_generated);
    }
    std::filesystem::remove_all(dir);
  };
  run({SolveStrategy::kEager}, "eager");
  // On-the-fly exits early on a nonempty verdict, leaving a partial graph;
  // the eager query after it resumes that graph to completion.
  run({SolveStrategy::kOnTheFly, SolveStrategy::kEager},
      "on-the-fly, then resumed");
}

TEST(MemberTableTest, BuiltOnASecondRequestAndForgottenPastTheBound) {
  // Classes over distinct schemas, each with its own class key.
  std::vector<std::unique_ptr<AllStructuresClass>> classes;
  for (std::size_t c = 0; c <= GraphCache::kMaxMemberTables; ++c) {
    Schema unary;
    unary.AddRelation("p" + std::to_string(c), 1);
    classes.push_back(
        std::make_unique<AllStructuresClass>(MakeSchema(std::move(unary))));
  }
  GraphCache cache;
  SolveStats stats;
  auto request = [&](std::size_t c) {
    return cache.AcquireMemberTable(GraphCache::ClassKey(*classes[c], 1),
                                    *classes[c], 1, stats);
  };
  EXPECT_EQ(request(0), nullptr);
  EXPECT_EQ(stats.members_generated, 0u) << "a first request enumerates nothing";
  const auto table = request(0);
  ASSERT_NE(table, nullptr);
  EXPECT_GT(stats.members_generated, 0u);
  EXPECT_EQ(request(0), table);
  EXPECT_EQ(cache.member_table_builds(), 1u);
  EXPECT_EQ(cache.member_table_hits(), 1u);

  // Round-robin over one class more than the cache remembers, starting
  // after class 0: each class is forgotten before it comes round again, so
  // class 0's table goes and no other class is ever tabled.
  for (std::size_t i = 1; i <= 3 * classes.size(); ++i) {
    EXPECT_EQ(request(i % classes.size()), nullptr) << "request " << i;
  }
  EXPECT_EQ(cache.member_table_builds(), 1u);
  EXPECT_EQ(cache.member_tables(), 0u);
  EXPECT_EQ(cache.member_table_bytes(), 0u);
}

void ExpectSystemTablesChangeNothing(const DdsSystem& system,
                                     const FraisseClass& cls,
                                     const std::string& name) {
  ExpectTableServedQueriesMatchStreamed(
      SystemGraphContext(BorrowBackend(cls), system),
      [&](GraphCache* cache, SolveStrategy strategy) {
        SolveOptions options;
        options.build_witness = false;
        options.strategy = strategy;
        options.cache = cache;
        return SolveEmptiness(system, cls, options).stats;
      },
      name);
}

TEST(MemberTableTest, ZooAndOrderSystemsBuildTheStreamedGraphs) {
  AllStructuresClass all(GraphZooSchema());
  ExpectSystemTablesChangeNothing(ReachRedSystem(), all, "reach_red");
  ExpectSystemTablesChangeNothing(ContradictionSystem(), all, "contra");
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  const int s0 = chain.AddState("s0", true);
  const int s1 = chain.AddState("s1");
  const int s2 = chain.AddState("s2", false, true);
  chain.AddRegister("x");
  chain.AddRegister("y");
  chain.AddRule(s0, s1, "lt(x_old, x_new) & y_new = y_old");
  chain.AddRule(s1, s2, "lt(y_old, x_new) & lt(x_new, y_new)");
  ExpectSystemTablesChangeNothing(chain, orders, "orders");
}

class MemberTableRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(MemberTableRandomTest, RandomSystemsBuildTheStreamedGraphs) {
  AllStructuresClass all(GraphZooSchema());
  ExpectSystemTablesChangeNothing(RandomGraphSystem(GetParam() + 50), all,
                                  "random" + std::to_string(GetParam()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, MemberTableRandomTest, ::testing::Range(0, 8));

TEST(MemberTableTest, WordAndTreeZoosBuildTheStreamedGraphs) {
  const DdsSystem zig = ZigZagSystem(2);
  const Nfa nfa = NfaAlternatingAB();
  ExpectTableServedQueriesMatchStreamed(
      WordGraphContext(zig, nfa),
      [&](GraphCache* cache, SolveStrategy strategy) {
        return SolveWordEmptiness(zig, nfa, false, strategy, cache).stats;
      },
      "words");

  const TreeAutomaton two = TaTwoLevel();
  const DdsSystem descend = DescendSystem(two, 1);
  ExpectTableServedQueriesMatchStreamed(
      TreeGraphContext(descend, two, 3),
      [&](GraphCache* cache, SolveStrategy strategy) {
        return SolveTreeEmptiness(descend, two, 0, 3, strategy, cache).stats;
      },
      "trees");
}

TEST(MemberTableTest, BranchingBuildsTheStreamedGraph) {
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {ReachRedSystem(), RandomGraphSystem(3), RandomGraphSystem(4)}) {
    const BranchingSystem branching = AsBranching(system);
    const GraphContext ctx = BranchingGraphContext(branching,
                                                   BorrowBackend(all));
    GraphCache tabled;
    WarmMemberTable(tabled, ctx);
    const BranchingSolveResult served =
        SolveBranchingEmptiness(branching, all, &tabled);
    const std::string dir = FreshStoreDir("table_branching");
    GraphCache streaming;
    streaming.AttachStore(dir);
    const BranchingSolveResult streamed =
        SolveBranchingEmptiness(branching, all, &streaming);
    GraphCache loader;
    loader.AttachStore(dir);
    const auto expected =
        loader.Lookup(ctx.key, all.schema(), ctx.guards, ctx.k);
    ASSERT_NE(expected, nullptr);
    EXPECT_EQ(SerializeGraph(*tabled.Peek(ctx.key), ctx.key),
              SerializeGraph(*expected, ctx.key));
    EXPECT_EQ(served.nonempty, streamed.nonempty);
    EXPECT_EQ(served.stats.members_enumerated,
              streamed.stats.members_enumerated);
    EXPECT_EQ(served.stats.guard_evaluations,
              streamed.stats.guard_evaluations);
    EXPECT_EQ(served.stats.edges, streamed.stats.edges);
    EXPECT_EQ(served.stats.members_generated, 0u);
    EXPECT_GT(streamed.stats.members_generated, 0u);
    std::filesystem::remove_all(dir);
  }
}

}  // namespace
}  // namespace amalgam
