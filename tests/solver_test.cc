// Tests for the Theorem 5 emptiness solver, including the paper's Examples
// 1, 2 and 4 and differential tests against brute-force database search.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <initializer_list>
#include <latch>
#include <memory>
#include <random>
#include <thread>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "service/service.h"
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

// A cache-less on-the-fly query reads the same positioned member stream as
// a cache miss and stops at the same member, so the graph it builds is the
// stream prefix a cache would hold.
TEST(SolverTest, CachelessOnTheFlyBuildsTheCachedStreamPrefix) {
  AllStructuresClass all(GraphZooSchema());
  LiftedHomClass lifted(Example2Template());
  HomClass raw(Example2Template());
  const SolveOptions cacheless{.build_witness = false};
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    for (const SolverBackend* backend :
         std::initializer_list<const SolverBackend*>{&all, &lifted, &raw}) {
      SCOPED_TRACE(backend->Fingerprint());
      const SolveResult streamed = SolveEmptiness(system, *backend, cacheless);
      GraphCache cache;
      SolveOptions cached = cacheless;
      cached.cache = &cache;
      const SolveResult miss = SolveEmptiness(system, *backend, cached);
      ASSERT_FALSE(miss.stats.graph_from_cache);
      EXPECT_EQ(streamed.nonempty, miss.nonempty);
      EXPECT_EQ(streamed.stats.members_enumerated,
                miss.stats.members_enumerated);
      EXPECT_EQ(streamed.stats.edges, miss.stats.edges);
    }
  }
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

TEST(SolverTest, RejectsMisfitSystemsBeforePrintingTheirGuards) {
  // A guard on the 60th relation of a schema no class below extends:
  // printing it under the class's schema would read that relation's name
  // past the end of the class's symbols, so every front door must reject
  // the system before it derives a key.
  Schema wide_schema;
  for (int r = 0; r < 60; ++r) {
    wide_schema.AddRelation("r" + std::to_string(r), 1);
  }
  auto wide = std::make_shared<DdsSystem>(MakeSchema(std::move(wide_schema)));
  const int a = wide->AddState("a", true);
  const int b = wide->AddState("b", false, true);
  wide->AddRegister("x");
  wide->AddRule(a, b, "r59(x_new)");
  EXPECT_THROW(SolveWordEmptiness(*wide, NfaAllAB()), std::invalid_argument);
  EXPECT_THROW(SolveTreeEmptiness(*wide, TaTwoLevel()), std::invalid_argument);
  EXPECT_THROW(
      SystemGraphContext(std::make_shared<LinearOrderClass>(), *wide),
      std::invalid_argument);

  // Through the service the rejection is in band, at submit time: no key,
  // no flight. Zigzag's {a, b} guards print fine under the unary mod-5
  // schema, which still does not extend the system's.
  QueryService service;
  for (const std::shared_ptr<const DdsSystem>& system :
       {std::shared_ptr<const DdsSystem>(wide),
        std::make_shared<const DdsSystem>(ZigZagSystem(1))}) {
    QueryRequest request;
    request.kind = QueryKind::kWord;
    request.system = system;
    request.nfa = std::make_shared<Nfa>(NfaModCounter(5));
    std::string key = "unset";
    const QueryResult result = service.Submit(request, &key).get();
    EXPECT_FALSE(result.ok);
    EXPECT_NE(result.error.find("prefix"), std::string::npos) << result.error;
    EXPECT_EQ(key, "");
  }
  EXPECT_EQ(service.Stats().single_flight_leads, 0u);
  EXPECT_EQ(service.Stats().failed, 2u);
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

// ---- One path from a query to its graph, for both front doors. ----

// The "solve" root of `trace` and its children, except the front door's
// own search over the graph (bfs, fixpoint): each span as its name
// followed by its annotations.
std::vector<std::string> GraphAcquisitionSpans(const TraceRecorder& trace) {
  const std::vector<TraceSpan> spans = trace.Snapshot();
  auto describe = [](const TraceSpan& span) {
    std::string out = span.name;
    for (const TraceAnnotation& a : span.annotations) {
      out += " " + a.key + "=" + a.value;
    }
    return out;
  };
  std::vector<std::string> out;
  int solve = -1;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::string name = spans[i].name;
    if (spans[i].parent == -1 && name == "solve") {
      solve = static_cast<int>(i);
      out.push_back(describe(spans[i]));
    } else if (solve >= 0 && spans[i].parent == solve && name != "bfs" &&
               name != "fixpoint") {
      out.push_back(describe(spans[i]));
    }
  }
  return out;
}

TEST(SharedGraphPathTest, LinearAndBranchingFrontDoorsShareOneEntry) {
  // A linear system and its branching mirror flatten to one guard list,
  // so they share a cache key. From the same cache state — empty, or
  // holding the partial graph an early-exited on-the-fly query left — the
  // branching fixpoint and an eager linear query record the same
  // cache_lookup and full_build spans and count the same work; and either
  // one's complete entry then serves the other with zero enumeration.
  AllStructuresClass all(GraphZooSchema());
  const DdsSystem system = ReachRedSystem();
  const BranchingSystem branching = AsBranching(system);
  const std::string key = SystemGraphContext(BorrowBackend(all), system).key;
  ASSERT_EQ(BranchingGraphContext(branching, BorrowBackend(all)).key, key);
  const SolveOptions eager{.build_witness = false,
                           .strategy = SolveStrategy::kEager};
  for (bool partial : {false, true}) {
    SCOPED_TRACE(partial ? "resumed from a partial entry" : "cold");
    GraphCache by_branching;
    GraphCache by_linear;
    if (partial) {
      for (GraphCache* cache : {&by_branching, &by_linear}) {
        SolveOptions lazy{.build_witness = false, .cache = cache};
        ASSERT_TRUE(SolveEmptiness(system, all, lazy).nonempty);
        ASSERT_FALSE(cache->Peek(key)->complete());
      }
    }
    TraceRecorder branching_trace;
    const BranchingSolveResult b = SolveBranchingEmptiness(
        branching, all, &by_branching, &branching_trace);
    TraceRecorder linear_trace;
    SolveOptions traced = eager;
    traced.cache = &by_linear;
    traced.trace = &linear_trace;
    const SolveResult l = SolveEmptiness(system, all, traced);
    EXPECT_EQ(b.nonempty, l.nonempty);
    for (const SolveStats* stats : {&b.stats, &l.stats}) {
      EXPECT_EQ(stats->graph_from_cache, partial);
      EXPECT_EQ(stats->graph_resumed, partial);
    }
    EXPECT_EQ(b.stats.members_enumerated, l.stats.members_enumerated);
    EXPECT_EQ(b.stats.guard_evaluations, l.stats.guard_evaluations);
    EXPECT_EQ(b.stats.edges, l.stats.edges);
    EXPECT_EQ(b.stats.configs, l.stats.configs);

    const std::vector<std::string> spans = GraphAcquisitionSpans(linear_trace);
    EXPECT_EQ(GraphAcquisitionSpans(branching_trace), spans);
    ASSERT_EQ(spans.size(), 3u);
    EXPECT_EQ(spans[0].find("resumed_from_phase") != std::string::npos,
              partial)
        << spans[0];
    EXPECT_EQ(spans[1].rfind("cache_lookup", 0), 0u) << spans[1];
    EXPECT_EQ(spans[2].rfind("full_build", 0), 0u) << spans[2];

    // Each front door hits the complete entry the other one built.
    SolveOptions hit_options = eager;
    hit_options.cache = &by_branching;
    const SolveResult linear_hit = SolveEmptiness(system, all, hit_options);
    const BranchingSolveResult branching_hit =
        SolveBranchingEmptiness(branching, all, &by_linear);
    for (const SolveStats* stats : {&linear_hit.stats, &branching_hit.stats}) {
      EXPECT_TRUE(stats->graph_from_cache);
      EXPECT_FALSE(stats->graph_resumed);
      EXPECT_EQ(stats->members_enumerated, 0u);
      EXPECT_EQ(stats->edges, l.stats.edges);
      EXPECT_EQ(stats->configs, l.stats.configs);
    }
    EXPECT_EQ(linear_hit.nonempty, l.nonempty);
    EXPECT_EQ(branching_hit.nonempty, b.nonempty);
  }
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
      // Without an exit the sweep covers the whole 2k stream, recording
      // every member's edges.
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
      GraphCache persisting(0, dir);
      SolveOptions persist = lazy;
      persist.cache = &persisting;
      SolveEmptiness(repeated, cls, persist);
    }
    GraphCache resuming(0, dir);
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
  // One rule per guard, each printed under the system's schema, as
  // DdsSystem::AddRule prints it.
  AllStructuresClass all(GraphZooSchema());
  auto context = [&](const std::vector<FormulaRef>& guards) {
    std::vector<std::shared_ptr<const std::string>> printed;
    std::vector<RuleGuard> rules;
    for (const FormulaRef& g : guards) printed.push_back(system.PrintGuard(*g));
    for (std::size_t i = 0; i < guards.size(); ++i) {
      rules.push_back(RuleGuard{guards[i], *printed[i]});
    }
    return MakeGraphContext(BorrowBackend(all), system.schema(), 1, rules);
  };
  const std::vector<FormulaRef> list = {b, a, b, a_again};
  const GraphContext interned = context(list);
  ASSERT_EQ(interned.guards.size(), 2u);
  EXPECT_EQ(interned.guards[0], b);
  EXPECT_EQ(interned.guards[1], a);
  EXPECT_EQ(interned.guard_of, (std::vector<int>{0, 1, 0, 1}));

  // The key names the rule list by printed form: pointer identity does not
  // matter, repetition does. A duplicate-free list keeps the key format of
  // a plain printed guard list, so its stored entries stay valid.
  const std::vector<FormulaRef> shared = {b, a, b, a};
  const std::vector<FormulaRef> distinct = {b, a};
  EXPECT_EQ(interned.key, context(shared).key);
  EXPECT_NE(interned.key, context(distinct).key);
  std::string plain = std::to_string(all.Fingerprint().size()) + ":" +
                      all.Fingerprint() + "\x1f" + "1";
  for (const FormulaRef& g : distinct) {
    const std::string printed = g->ToString(*all.schema());
    plain += "\x1f" + std::to_string(printed.size()) + ":" + printed;
  }
  EXPECT_EQ(context(distinct).key, plain);
  EXPECT_EQ(interned.key, plain + "\x1e" + "0,1,0,1");
}

// Store records are found by their key's bytes, so the key format and the
// formula printer are pinned here by one literal key per query kind: a
// change to either fails this test instead of silently turning every
// stored graph into a miss. The branching query repeats a guard, so its
// key spells out the rule -> guard index.
TEST(GraphKeyTest, GoldenKeyPerQueryKind) {
  AllStructuresClass all(GraphZooSchema());
  EXPECT_EQ(SystemGraphContext(BorrowBackend(all), ReachRedSystem()).key,
            "35:all-structures|R2;1:E/2;3:red/1;F0;\x1f" "1\x1f"
            "9:E(v0, v1)\x1f" "19:(v0 = v1 & red(v0))");
  EXPECT_EQ(WordGraphContext(ZigZagSystem(1), NfaAPlusBPlus()).key,
            "31:word-runs|1:a|1:b;0s-,0,1;1-a,1\x1f" "1\x1f"
            "17:(v1 = v0 & a(v0))\x1f" "20:(lt(v0, v1) & b(v1))");
  const TreeAutomaton two = TaTwoLevel();
  EXPECT_EQ(TreeGraphContext(DescendSystem(two, 1), two, 4).key,
            "40:tree-runs|cap4|1:r|1:a;0r--;1-lm00100001\x1f" "1\x1f"
            "27:(desc(v0, v1) & !(v0 = v1))");
  BranchingSystem branching(GraphZooSchema());
  const int s = branching.AddState("s", true);
  const int t = branching.AddState("t");
  const int u = branching.AddState("u", false, true);
  branching.AddRegister("x");
  branching.AddRule(s, {{"E(x_old, x_new)", t}, {"red(x_new)", u}});
  branching.AddRule(t, {{"E(x_old, x_new)", u}});
  EXPECT_EQ(BranchingGraphContext(branching, BorrowBackend(all)).key,
            "35:all-structures|R2;1:E/2;3:red/1;F0;\x1f" "1\x1f"
            "9:E(v0, v1)\x1f" "7:red(v1)\x1e" "0,1,0");
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

// ---- Member tables: a table changes no graph and no counter. ----

// The query, through `cache`, under an atom cap no table serves
// (MemberTable::Serves): its sweeps read MemberSource{backend, nullptr},
// the backend's own streams, which the cap does not change for these
// classes. The reference every table-served query must repeat.
SolveStats SolveStreamed(const DdsSystem& system, const GraphContext& ctx,
                         GraphCache* cache, SolveStrategy strategy) {
  SolveOptions options;
  options.build_witness = false;
  options.strategy = strategy;
  options.cache = cache;
  options.relational_atom_cap = kDefaultRelationalAtomCap + 1;
  return SolveEmptiness(system, ctx, options).stats;
}

// Grows the class table of `ctx` in `cache` whole, through a sweep whose
// graph is thrown away.
void WarmMemberTable(GraphCache& cache, const GraphContext& ctx) {
  const std::shared_ptr<MemberTable> table = cache.AcquireMemberTable(ctx);
  SubTransitionGraph graph(ctx.guards, ctx.k);
  SolveStats stats;
  graph.BuildFull(MemberSource{*ctx.backend, table.get()}, stats);
  ASSERT_EQ(stats.members_appended, stats.members_enumerated);
  ASSERT_EQ(cache.member_tables(), 1u);
}

// The front door's cached query over a cache whose class table the queries
// themselves create and grow (cold), and over one whose table is whole
// before the first query (warm), against the streamed query over a fresh
// store-backed cache per call. Eager, early-exited on-the-fly and resumed
// queries must leave the same graph (store bytes included, so shapes,
// initial set, edges and cursor) and count the same members, guard
// evaluations and edges. The warm table's queries materialize no member;
// the cold one's at most what streaming does.
using SolveThrough =
    std::function<SolveStats(GraphCache* cache, SolveStrategy strategy)>;

void ExpectTableServedQueriesMatchStreamed(const DdsSystem& system,
                                           const GraphContext& ctx,
                                           const SolveThrough& solve,
                                           const std::string& name) {
  // Each run is a sequence of strategies over one cold-table cache, one
  // warm-table cache and, alongside, over one store directory.
  auto run = [&](std::initializer_list<SolveStrategy> strategies,
                 const std::string& label) {
    SCOPED_TRACE(name + ": " + label);
    GraphCache cold;
    GraphCache warm;
    WarmMemberTable(warm, ctx);
    const std::string dir = FreshStoreDir("table_" + name);
    for (SolveStrategy strategy : strategies) {
      GraphCache streaming(0, dir);
      const SolveStats streamed = SolveStreamed(system, ctx, &streaming,
                                                strategy);
      EXPECT_EQ(streaming.member_table_builds(), 0u);
      GraphCache loader(0, dir);
      const auto expected = loader.Lookup(ctx);
      ASSERT_NE(expected, nullptr);
      for (GraphCache* tabled : {&cold, &warm}) {
        SCOPED_TRACE(tabled == &cold ? "cold table" : "warm table");
        const SolveStats served = solve(tabled, strategy);
        const auto got = tabled->Peek(ctx.key);
        ASSERT_NE(got, nullptr);
        EXPECT_EQ(got->cursor(), expected->cursor());
        EXPECT_EQ(SerializeGraph(*got, ctx.key),
                  SerializeGraph(*expected, ctx.key));
        EXPECT_EQ(served.members_enumerated, streamed.members_enumerated);
        EXPECT_EQ(served.guard_evaluations, streamed.guard_evaluations);
        EXPECT_EQ(served.edges, streamed.edges);
        if (tabled == &warm) {
          EXPECT_EQ(served.members_generated, 0u);
          EXPECT_EQ(served.members_appended, 0u);
        } else {
          EXPECT_LE(served.members_generated, streamed.members_generated);
        }
      }
    }
    // A class's first sweep creates its table; every later one finds it.
    EXPECT_EQ(cold.member_table_builds(), 1u);
    EXPECT_EQ(cold.member_tables(), 1u);
    std::filesystem::remove_all(dir);
  };
  run({SolveStrategy::kEager}, "eager");
  // On-the-fly exits early on a nonempty verdict, leaving a partial graph;
  // the eager query after it resumes that graph to completion.
  run({SolveStrategy::kOnTheFly, SolveStrategy::kEager},
      "on-the-fly, then resumed");
}

// Classes over distinct schemas, each with its own class key.
std::vector<std::unique_ptr<AllStructuresClass>> UnaryClasses(std::size_t n) {
  std::vector<std::unique_ptr<AllStructuresClass>> classes;
  for (std::size_t c = 0; c < n; ++c) {
    Schema unary;
    unary.AddRelation("p" + std::to_string(c), 1);
    classes.push_back(
        std::make_unique<AllStructuresClass>(MakeSchema(std::move(unary))));
  }
  return classes;
}

TEST(MemberTableTest, CreatedOnAFirstRequestAndForgottenPastTheBound) {
  const auto classes = UnaryClasses(GraphCache::kMaxMemberTables + 1);
  GraphCache cache;
  auto request = [&](std::size_t c) {
    return cache.AcquireMemberTable(
        MakeGraphContext(BorrowBackend(*classes[c]), *classes[c]->schema(),
                         1, {}));
  };
  const auto table = request(0);
  ASSERT_NE(table, nullptr);
  EXPECT_EQ(table->initial_size(), 0u) << "a new table enumerates nothing";
  EXPECT_EQ(table->joint_size(), 0u);
  EXPECT_EQ(request(0), table);
  EXPECT_EQ(cache.member_table_builds(), 1u);
  EXPECT_EQ(cache.member_table_hits(), 1u);

  // Round-robin over one class more than the cache keeps, starting after
  // class 0: every request creates its class's table, and each class is
  // forgotten before it comes round again.
  for (std::size_t i = 1; i <= 3 * classes.size(); ++i) {
    EXPECT_NE(request(i % classes.size()), table) << "request " << i;
    EXPECT_LE(cache.member_tables(), GraphCache::kMaxMemberTables);
  }
  EXPECT_EQ(cache.member_table_builds(), 1 + 3 * classes.size());
  EXPECT_EQ(cache.member_table_hits(), 1u);
  EXPECT_EQ(cache.member_tables(), GraphCache::kMaxMemberTables);
  EXPECT_GT(cache.member_table_bytes(), 0u);
  // A forgotten table lives on for whoever still holds it.
  EXPECT_EQ(table->k(), 1);
}

TEST(MemberTableTest, GrowsOnlyAsFarAsTheFurthestSweep) {
  // An on-the-fly query that exits early grows its class's table to the
  // member it stopped at; a resumed eager query grows it whole.
  const DdsSystem system = ReachRedSystem();
  AllStructuresClass all(GraphZooSchema());
  const GraphContext ctx = SystemGraphContext(BorrowBackend(all), system);
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;
  const SolveResult lazy = SolveEmptiness(system, all, options);
  ASSERT_TRUE(lazy.nonempty);
  const BuildCursor stopped = cache.Peek(ctx.key)->cursor();
  ASSERT_EQ(stopped.phase, kCursorPhaseJoint);
  const auto table = cache.AcquireMemberTable(ctx);
  std::uint64_t initial_total = 0;
  std::uint64_t joint_total = 0;
  all.EnumerateGenerated(ctx.k, [&](const Structure&, std::span<const Elem>) {
    ++initial_total;
  });
  all.EnumerateGenerated(2 * ctx.k,
                         [&](const Structure&, std::span<const Elem>) {
                           ++joint_total;
                         });
  EXPECT_EQ(table->initial_size(), initial_total);
  // The member the sweep stopped in is appended; the cursor stays on it.
  EXPECT_EQ(table->joint_size(), stopped.next_member + 1);
  EXPECT_LT(table->joint_size(), joint_total);
  EXPECT_EQ(lazy.stats.members_appended, lazy.stats.members_enumerated);
  EXPECT_EQ(lazy.stats.members_generated, lazy.stats.members_enumerated);

  options.strategy = SolveStrategy::kEager;
  const SolveResult eager = SolveEmptiness(system, all, options);
  EXPECT_TRUE(eager.stats.graph_resumed);
  EXPECT_EQ(table->joint_size(), joint_total);
  // It reads the stopped member from the table and appends the rest.
  EXPECT_EQ(eager.stats.members_appended, joint_total - stopped.next_member - 1);
  EXPECT_EQ(eager.stats.members_generated, eager.stats.members_appended);
}

void ExpectSystemTablesChangeNothing(const DdsSystem& system,
                                     const FraisseClass& cls,
                                     const std::string& name) {
  ExpectTableServedQueriesMatchStreamed(
      system, SystemGraphContext(BorrowBackend(cls), system),
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
      zig, WordGraphContext(zig, nfa),
      [&](GraphCache* cache, SolveStrategy strategy) {
        return SolveWordEmptiness(zig, nfa, false, strategy, cache).stats;
      },
      "words");

  const TreeAutomaton two = TaTwoLevel();
  const DdsSystem descend = DescendSystem(two, 1);
  ExpectTableServedQueriesMatchStreamed(
      descend, TreeGraphContext(descend, two, 3),
      [&](GraphCache* cache, SolveStrategy strategy) {
        return SolveTreeEmptiness(descend, two, 0, 3, strategy, cache).stats;
      },
      "trees");
}

// Distinct two-register guard sets over {red, blue}: every subset of at
// least two of six guards, up to `n` of them.
std::vector<DdsSystem> RedBlueSystems(const SchemaRef& schema, std::size_t n) {
  const char* pool[] = {
      "x_new = y_old & red(x_new)",   "y_new = x_old & blue(y_new)",
      "x_old = x_new & y_old != y_new", "x_new = x_old & red(y_new)",
      "red(x_old) & x_new = y_old",   "blue(y_old) & y_new = x_new",
  };
  std::vector<DdsSystem> systems;
  for (int mask = 1; systems.size() < n; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;
    DdsSystem& system = systems.emplace_back(schema);
    system.AddRegister("x");
    system.AddRegister("y");
    const int s0 = system.AddState("s0", true);
    const int s1 = system.AddState("s1");
    const int s2 = system.AddState("s2", false, true);
    int rule = 0;
    for (int g = 0; g < 6; ++g) {
      if ((mask >> g & 1) == 0) continue;
      const int from = rule % 2 == 0 ? s0 : s1;
      system.AddRule(from, rule++ % 3 == 2 ? s2 : s1, pool[g]);
    }
  }
  return systems;
}

TEST(MemberTableTest, ConcurrentSweepsGrowOneTableOnce) {
  // 4 threads run eager and on-the-fly queries over one class through one
  // cache, all released at once: whichever sweep runs past the table's end
  // extends it while the others read it or wait for its members. Every
  // graph is the streamed one, and the class is enumerated exactly once
  // between them, whatever the interleaving.
  Schema unary;
  unary.AddRelation("red", 1);
  unary.AddRelation("blue", 1);
  const SchemaRef schema = MakeSchema(std::move(unary));
  AllStructuresClass cls(schema);
  const std::vector<DdsSystem> systems = RedBlueSystems(schema, 24);
  struct Query {
    const DdsSystem* system;
    GraphContext ctx;
    SolveStrategy strategy;
    std::string expected;  // the streamed graph's store bytes
    SolveStats streamed;
    SolveStats served;
  };
  std::vector<Query> queries;
  for (std::size_t i = 0; i < systems.size(); ++i) {
    Query& q = queries.emplace_back(
        Query{&systems[i], SystemGraphContext(BorrowBackend(cls), systems[i]),
              i % 2 == 0 ? SolveStrategy::kOnTheFly : SolveStrategy::kEager,
              "", {}, {}});
    GraphCache streaming;
    q.streamed = SolveStreamed(*q.system, q.ctx, &streaming, q.strategy);
    q.expected = SerializeGraph(*streaming.Peek(q.ctx.key), q.ctx.key);
  }

  GraphCache cache;
  constexpr int kThreads = 4;
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (std::size_t i = t; i < queries.size(); i += kThreads) {
        SolveOptions options;
        options.build_witness = false;
        options.strategy = queries[i].strategy;
        options.cache = &cache;
        queries[i].served =
            SolveEmptiness(*queries[i].system, queries[i].ctx, options).stats;
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  std::uint64_t generated = 0;
  std::uint64_t appended = 0;
  for (const Query& q : queries) {
    SCOPED_TRACE(q.ctx.key);
    const auto got = cache.Peek(q.ctx.key);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(SerializeGraph(*got, q.ctx.key), q.expected);
    EXPECT_EQ(q.served.members_enumerated, q.streamed.members_enumerated);
    EXPECT_EQ(q.served.guard_evaluations, q.streamed.guard_evaluations);
    EXPECT_EQ(q.served.edges, q.streamed.edges);
    generated += q.served.members_generated;
    appended += q.served.members_appended;
  }
  std::uint64_t streams = 0;
  for (int m : {2, 4}) {
    cls.EnumerateGenerated(
        m, [&](const Structure&, std::span<const Elem>) { ++streams; });
  }
  EXPECT_EQ(generated, streams);
  EXPECT_EQ(appended, streams);
  EXPECT_EQ(cache.member_table_builds(), 1u);
  EXPECT_EQ(cache.member_table_hits(), queries.size() - 1);
}

TEST(MemberTableTest, BranchingBuildsTheStreamedGraph) {
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {ReachRedSystem(), RandomGraphSystem(3), RandomGraphSystem(4)}) {
    const BranchingSystem branching = AsBranching(system);
    const GraphContext ctx = BranchingGraphContext(branching,
                                                   BorrowBackend(all));
    // The reference sweeps the backend's own streams.
    SubTransitionGraph expected(ctx.guards, ctx.k);
    SolveStats expected_stats;
    expected.BuildFull(MemberSource{all, nullptr}, expected_stats);
    const BranchingSolveResult streamed =
        SolveBranchingEmptiness(branching, all, nullptr);
    for (bool warm : {false, true}) {
      SCOPED_TRACE(warm ? "warm table" : "cold table");
      GraphCache tabled;
      if (warm) WarmMemberTable(tabled, ctx);
      const BranchingSolveResult served =
          SolveBranchingEmptiness(branching, all, &tabled);
      ASSERT_NE(tabled.Peek(ctx.key), nullptr);
      EXPECT_EQ(SerializeGraph(*tabled.Peek(ctx.key), ctx.key),
                SerializeGraph(expected, ctx.key));
      EXPECT_EQ(served.nonempty, streamed.nonempty);
      EXPECT_EQ(served.stats.members_enumerated,
                expected_stats.members_enumerated);
      EXPECT_EQ(served.stats.guard_evaluations,
                expected_stats.guard_evaluations);
      EXPECT_EQ(served.stats.edges, expected_stats.edges);
      EXPECT_EQ(served.stats.members_generated,
                warm ? 0u : expected_stats.members_generated);
    }
  }
}

}  // namespace
}  // namespace amalgam
