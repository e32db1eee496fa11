// Determinism suite for the sharded parallel sweep: BuildFullParallel must
// produce a graph bit-identical to the serial BuildFull — same shape table
// in the same order, same initial set, same edges and witness steps — at
// every thread count, across the system/words/trees zoos and seeded random
// systems; verdicts through every front door must be unaffected; and a
// parallel-built cache entry must serve a later serial query.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "fraisse/data_class.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/context.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "solver/member_table.h"
#include "solver/store.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/solve.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

constexpr int kThreadCounts[] = {1, 2, 4, 8};

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

// Bit-identity of two graphs, complete or not: shape arena (ids, keys,
// marks), initial set, per-shape edge lists element-wise, and witness steps
// byte for byte.
void ExpectSameGraph(const SubTransitionGraph& serial,
                     const SubTransitionGraph& parallel) {
  ASSERT_EQ(serial.num_shapes(), parallel.num_shapes());
  for (int id = 0; id < serial.num_shapes(); ++id) {
    EXPECT_EQ(serial.interner().shape(id).key,
              parallel.interner().shape(id).key)
        << "shape " << id << " renumbered differently";
    EXPECT_EQ(serial.interner().shape(id).marks,
              parallel.interner().shape(id).marks);
  }
  EXPECT_EQ(serial.initial_shapes(), parallel.initial_shapes());
  ASSERT_EQ(serial.num_edges(), parallel.num_edges());
  for (int s = 0; s < serial.num_shapes(); ++s) {
    const auto& se = serial.edges_from(s);
    const auto& pe = parallel.edges_from(s);
    ASSERT_EQ(se.size(), pe.size()) << "edge count differs at shape " << s;
    for (std::size_t i = 0; i < se.size(); ++i) {
      EXPECT_EQ(se[i].guard, pe[i].guard);
      EXPECT_EQ(se[i].new_shape, pe[i].new_shape);
      EXPECT_EQ(se[i].step, pe[i].step);
    }
  }
  for (std::uint64_t i = 0; i < serial.num_edges(); ++i) {
    const SubTransition& ss = serial.step(static_cast<int>(i));
    const SubTransition& ps = parallel.step(static_cast<int>(i));
    EXPECT_EQ(ss.rule, ps.rule);
    EXPECT_EQ(ss.marks, ps.marks);
    EXPECT_EQ(ss.joint.EncodeContent(), ps.joint.EncodeContent())
        << "witness step " << i << " records a different joint member";
  }
}

// ExpectSameGraph, and the second graph is complete.
void ExpectGraphsIdentical(const SubTransitionGraph& serial,
                           const SubTransitionGraph& parallel) {
  ExpectSameGraph(serial, parallel);
  EXPECT_TRUE(parallel.complete());
}

// Builds the graph serially and at every thread count; asserts identity and
// matching sweep counters.
void CheckDeterministicAcrossThreadCounts(const DdsSystem& system,
                                          const SolverBackend& backend) {
  const int k = system.num_registers();
  SubTransitionGraph serial(GuardsOf(system), k);
  SolveStats serial_stats;
  serial.BuildFull(backend, serial_stats);
  for (int threads : kThreadCounts) {
    SubTransitionGraph parallel(GuardsOf(system), k);
    SolveStats parallel_stats;
    parallel.BuildFullParallel(backend, threads, parallel_stats);
    SCOPED_TRACE("threads = " + std::to_string(threads));
    ExpectGraphsIdentical(serial, parallel);
    // Shards partition the stream: processed members and guard sweeps sum
    // to the serial counts; surviving edges match after the merge dedup.
    EXPECT_EQ(serial_stats.members_enumerated,
              parallel_stats.members_enumerated);
    EXPECT_EQ(serial_stats.guard_evaluations,
              parallel_stats.guard_evaluations);
    EXPECT_EQ(serial_stats.edges, parallel_stats.edges);
  }
}

TEST(ParallelBuildTest, SystemZooIsDeterministic) {
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    CheckDeterministicAcrossThreadCounts(system, all);
  }
}

TEST(ParallelBuildTest, LiftedHomClassIsDeterministic) {
  LiftedHomClass lifted(Example2Template());
  CheckDeterministicAcrossThreadCounts(ReachRedSystem(), lifted);
}

TEST(ParallelBuildTest, OrderEquivalenceAndDataClassesAreDeterministic) {
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  int s0 = chain.AddState("s0", true);
  int s1 = chain.AddState("s1");
  int s2 = chain.AddState("s2", false, true);
  chain.AddRegister("x");
  chain.AddRule(s0, s1, "lt(x_old, x_new)");
  chain.AddRule(s1, s2, "lt(x_old, x_new)");
  CheckDeterministicAcrossThreadCounts(chain, orders);

  EquivalenceClass eqv;
  DdsSystem pairs(eqv.schema());
  int a = pairs.AddState("a", true);
  int b = pairs.AddState("b", false, true);
  pairs.AddRegister("x");
  pairs.AddRegister("y");
  pairs.AddRule(a, b,
                "eqv(x_old, y_old) & x_old != y_old & x_new = x_old & "
                "y_new = y_old");
  CheckDeterministicAcrossThreadCounts(pairs, eqv);

  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  DataClass deq(base, DataDomain::kNaturalsWithEquality, true);
  DdsSystem data_system(deq.schema());
  int da = data_system.AddState("a", true);
  int db = data_system.AddState("b", false, true);
  data_system.AddRegister("x");
  data_system.AddRule(da, db,
                      "E(x_old, x_new) & deq(x_old, x_new) & x_old != x_new");
  CheckDeterministicAcrossThreadCounts(data_system, deq);
}

TEST(ParallelBuildTest, WordZooIsDeterministic) {
  struct Case {
    DdsSystem system;
    Nfa nfa;
  };
  std::vector<Case> cases;
  cases.push_back({ZigZagSystem(1), NfaAPlusBPlus()});
  cases.push_back({ZigZagSystem(2), NfaAlternatingAB()});
  for (const Case& c : cases) {
    WordRunClass cls(c.nfa);
    CheckDeterministicAcrossThreadCounts(c.system, cls);
  }
}

TEST(ParallelBuildTest, TreeZooIsDeterministic) {
  TreeAutomaton two = TaTwoLevel();
  TreeRunClass cls(&two, 3);
  CheckDeterministicAcrossThreadCounts(DescendSystem(two, 1), cls);
}

// Seeded random 1-register systems over the graph schema, same generator as
// the engine differential suite: whatever guard sets come up, every thread
// count must reproduce the serial graph.
class ParallelRandomDeterminism : public ::testing::TestWithParam<int> {};

TEST_P(ParallelRandomDeterminism, MatchesSerialBuild) {
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
  CheckDeterministicAcrossThreadCounts(system, cls);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParallelRandomDeterminism,
                         ::testing::Range(0, 10));

TEST(ParallelBuildTest, VerdictsMatchThroughEveryFrontDoor) {
  // Linear engine (eager strategy with worker threads).
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    SolveOptions serial;
    serial.build_witness = false;
    serial.strategy = SolveStrategy::kEager;
    SolveOptions sharded = serial;
    sharded.num_threads = 4;
    EXPECT_EQ(SolveEmptiness(system, all, serial).nonempty,
              SolveEmptiness(system, all, sharded).nonempty);
  }

  // Word and tree front doors.
  DdsSystem zig = ZigZagSystem(1);
  Nfa nfa = NfaAPlusBPlus();
  EXPECT_EQ(
      SolveWordEmptiness(zig, nfa, false, SolveStrategy::kEager).nonempty,
      SolveWordEmptiness(zig, nfa, false, SolveStrategy::kEager, nullptr, 4)
          .nonempty);
  TreeAutomaton two = TaTwoLevel();
  DdsSystem descend = DescendSystem(two, 1);
  EXPECT_EQ(
      SolveTreeEmptiness(descend, two, 0, 3, SolveStrategy::kEager).nonempty,
      SolveTreeEmptiness(descend, two, 0, 3, SolveStrategy::kEager, nullptr,
                         4)
          .nonempty);

  // Branching solver.
  BranchingSystem branching(GraphZooSchema());
  int q0 = branching.AddState("q0", true);
  int q1 = branching.AddState("q1", false, true);
  branching.AddRegister("x");
  branching.AddRule(q0, {{"E(x_old, x_new)", q1},
                         {"E(x_new, x_old)", q1}});
  AllStructuresClass cls(GraphZooSchema());
  BranchingSolveResult serial = SolveBranchingEmptiness(branching, cls);
  BranchingSolveResult sharded =
      SolveBranchingEmptiness(branching, cls, nullptr, 4);
  EXPECT_EQ(serial.nonempty, sharded.nonempty);
  EXPECT_EQ(serial.stats.edges, sharded.stats.edges);
  EXPECT_EQ(serial.stats.configs, sharded.stats.configs);
}

TEST(ParallelBuildTest, DuplicateGuardListsStayBitIdentical) {
  // Five rules over two distinct guards, each repeat parsed separately (so
  // pointer-distinct): the front door builds over the distinct list, and
  // serial, sharded and resumed builds of it agree bit for bit.
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  const int s0 = system.AddState("s0", true);
  const int s1 = system.AddState("s1");
  const int s2 = system.AddState("s2", false, true);
  system.AddRule(s0, s1, "E(x_old, x_new)");
  system.AddRule(s0, s0, "red(x_new)");
  system.AddRule(s1, s1, "E(x_old, x_new)");
  system.AddRule(s1, s2, "red(x_new)");
  system.AddRule(s2, s0, "E(x_old, x_new)");
  const GraphContext ctx = SystemGraphContext(BorrowBackend(all), system);
  ASSERT_EQ(ctx.guards.size(), 2u);

  auto eager_build = [&](GraphCache& cache, int threads) {
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    options.cache = &cache;
    options.num_threads = threads;
    return SolveEmptiness(system, all, options);
  };
  GraphCache serial_cache;
  eager_build(serial_cache, 1);
  const auto serial = serial_cache.Peek(ctx.key);
  ASSERT_NE(serial, nullptr);
  ASSERT_EQ(serial->guards().size(), 2u);
  for (int threads : kThreadCounts) {
    SCOPED_TRACE("threads = " + std::to_string(threads));
    GraphCache cache;
    eager_build(cache, threads);
    // A fresh cache's first eager build of a class streams (no member
    // table yet), so with threads > 1 it is the sharded sweep.
    EXPECT_EQ(cache.member_table_builds(), 0u);
    ASSERT_NE(cache.Peek(ctx.key), nullptr);
    ExpectGraphsIdentical(*serial, *cache.Peek(ctx.key));

    // Resumed: an early-exited on-the-fly query leaves a partial entry,
    // which the eager build finishes.
    GraphCache resumed_cache;
    SolveOptions lazy;
    lazy.build_witness = false;
    lazy.cache = &resumed_cache;
    ASSERT_TRUE(SolveEmptiness(system, all, lazy).nonempty);
    ASSERT_NE(resumed_cache.Peek(ctx.key), nullptr);
    ASSERT_FALSE(resumed_cache.Peek(ctx.key)->complete());
    EXPECT_TRUE(eager_build(resumed_cache, threads).stats.graph_resumed);
    EXPECT_EQ(resumed_cache.member_table_builds(), 0u);
    ExpectGraphsIdentical(*serial, *resumed_cache.Peek(ctx.key));
  }
}

// ---- Sweeps over a member table ----------------------------------------

// A table-fronted sweep against the streamed sweep of the same class: the
// graphs (cursor and store bytes included) and the work counters agree,
// and a sweep over a complete table materializes no member at all.
void ExpectSameBuild(const SubTransitionGraph& stream,
                     const SolveStats& stream_stats,
                     const SubTransitionGraph& tabled,
                     const SolveStats& table_stats) {
  ExpectSameGraph(stream, tabled);
  EXPECT_EQ(stream.cursor(), tabled.cursor());
  EXPECT_EQ(SerializeGraph(stream, "k"), SerializeGraph(tabled, "k"));
  EXPECT_EQ(stream_stats.members_enumerated, table_stats.members_enumerated);
  EXPECT_EQ(stream_stats.guard_evaluations, table_stats.guard_evaluations);
  EXPECT_EQ(stream_stats.edges, table_stats.edges);
}

// An early-exited streaming build: the initial sweep stops at its
// `initial_stop`-th member, or the joint sweep at its `edge_stop`-th fresh
// edge (0 = never), as the on-the-fly engine stops at a goal.
std::unique_ptr<SubTransitionGraph> PartialBuild(
    const std::vector<FormulaRef>& guards, int k, const MemberSource& source,
    int initial_stop, int edge_stop, SolveStats& stats) {
  auto graph = std::make_unique<SubTransitionGraph>(guards, k);
  int initial = 0;
  int edges = 0;
  if (graph->SweepInitial(source, stats, ~std::uint64_t{0}, [&](int) {
        return initial_stop == 0 || ++initial < initial_stop;
      })) {
    graph->SweepJoint(source, stats, ~std::uint64_t{0},
                      [&](int, int, int, int) {
                        return edge_stop == 0 || ++edges < edge_stop;
                      });
  }
  return graph;
}

// Eager, early-exited and resumed builds over the class's member table
// match the streamed builds bit for bit.
void CheckTableSweeps(const std::vector<FormulaRef>& guards, int k,
                      const SolverBackend& backend) {
  std::uint64_t table_generated = 0;
  const auto table = MemberTable::Build(backend, k, &table_generated);
  ASSERT_NE(table, nullptr);
  const MemberSource stream{backend};
  const MemberSource tabled{backend, table.get()};

  SubTransitionGraph full(guards, k);
  SolveStats full_stats;
  full.BuildFull(stream, full_stats);
  EXPECT_EQ(table_generated, full_stats.members_generated);
  {
    SCOPED_TRACE("eager");
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(tabled, stats);
    ExpectSameBuild(full, full_stats, graph, stats);
    EXPECT_EQ(stats.members_generated, 0u);
  }
  {
    // With build threads, a table is still swept serially.
    SCOPED_TRACE("eager, 4 build threads");
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    const SubTransitionGraph::BuildPlan plan =
        graph.BuildComplete(tabled, 4, stats);
    EXPECT_TRUE(plan.from_table);
    EXPECT_EQ(plan.threads, 1);
    ExpectSameBuild(full, full_stats, graph, stats);
  }
  for (const auto& [initial_stop, edge_stop] :
       {std::pair{1, 0}, std::pair{0, 1}, std::pair{0, 3}, std::pair{0, 8}}) {
    SCOPED_TRACE("early exit at initial member " +
                 std::to_string(initial_stop) + " / fresh edge " +
                 std::to_string(edge_stop));
    SolveStats stream_stats;
    SolveStats table_stats;
    const auto streamed = PartialBuild(guards, k, stream, initial_stop,
                                       edge_stop, stream_stats);
    const auto partial = PartialBuild(guards, k, tabled, initial_stop,
                                      edge_stop, table_stats);
    ExpectSameBuild(*streamed, stream_stats, *partial, table_stats);

    // Resume either partial graph from the other source: both finish as
    // the cold full build.
    SubTransitionGraph resumed_by_table(*streamed);
    SolveStats by_table;
    resumed_by_table.BuildFull(tabled, by_table);
    ExpectGraphsIdentical(full, resumed_by_table);
    EXPECT_EQ(SerializeGraph(full, "k"), SerializeGraph(resumed_by_table, "k"));
    SubTransitionGraph resumed_by_stream(*partial);
    SolveStats by_stream;
    resumed_by_stream.BuildFull(stream, by_stream);
    ExpectGraphsIdentical(full, resumed_by_stream);
    EXPECT_EQ(by_table.members_enumerated, by_stream.members_enumerated);
    EXPECT_EQ(by_table.guard_evaluations, by_stream.guard_evaluations);
    EXPECT_EQ(by_table.members_generated, 0u);
  }
}

void CheckTableSweeps(const DdsSystem& system, const SolverBackend& backend) {
  CheckTableSweeps(GuardsOf(system), system.num_registers(), backend);
}

TEST(MemberTableSweepTest, SystemZooIsBitIdentical) {
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system : {ReachRedSystem(), ContradictionSystem()}) {
    CheckTableSweeps(system, all);
  }
  LiftedHomClass lifted(Example2Template());
  CheckTableSweeps(ReachRedSystem(), lifted);
}

TEST(MemberTableSweepTest, ClassesPastTheCapStayUntabled) {
  // Two registers over the graph zoo: over 1M joint members. The build
  // stops one member past the cap.
  AllStructuresClass all(GraphZooSchema());
  std::uint64_t generated = 0;
  EXPECT_EQ(MemberTable::Build(all, 2, &generated), nullptr);
  EXPECT_GT(generated, MemberTable::kMemberCap);
  EXPECT_LE(generated, 2 * MemberTable::kMemberCap + 1);

  // 29 unary relations: one element already has more atoms than the
  // default cap allows, so the backend stops the k-stream.
  Schema wide;
  for (int r = 0; r < 29; ++r) wide.AddRelation("p" + std::to_string(r), 1);
  AllStructuresClass capped(MakeSchema(std::move(wide)));
  EXPECT_EQ(MemberTable::Build(capped, 1), nullptr);
}

TEST(MemberTableSweepTest, OrderAndEquivalenceClassesAreBitIdentical) {
  LinearOrderClass orders;
  DdsSystem chain(orders.schema());
  const int s0 = chain.AddState("s0", true);
  const int s1 = chain.AddState("s1", false, true);
  chain.AddRegister("x");
  chain.AddRegister("y");
  chain.AddRule(s0, s0, "lt(x_old, x_new) & y_new = y_old");
  chain.AddRule(s0, s1, "lt(y_old, x_new) & lt(x_new, y_new)");
  CheckTableSweeps(chain, orders);

  EquivalenceClass eqv;
  DdsSystem pairs(eqv.schema());
  const int a = pairs.AddState("a", true);
  const int b = pairs.AddState("b", false, true);
  pairs.AddRegister("x");
  pairs.AddRegister("y");
  pairs.AddRule(a, a, "eqv(x_old, y_new) & x_new != x_old");
  pairs.AddRule(a, b, "eqv(x_old, y_old) & x_old != y_old");
  CheckTableSweeps(pairs, eqv);
}

TEST_P(ParallelRandomDeterminism, TableSweepsMatchStreamedBuilds) {
  std::mt19937 rng(GetParam() + 100);
  auto schema = GraphZooSchema();
  AllStructuresClass cls(schema);
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
  DdsSystem system(schema);
  const int s0 = system.AddState("s0", true);
  const int s1 = system.AddState("s1", false, true);
  system.AddRegister("x");
  const int num_rules = 2 + static_cast<int>(rng() % 4);
  for (int i = 0; i < num_rules; ++i) {
    system.AddRule(rng() % 2 ? s0 : s1, rng() % 2 ? s0 : s1,
                   guard_pool[rng() % 8]);
  }
  CheckTableSweeps(system, cls);
}

TEST(MemberTableSweepTest, WordAndTreeZoosAreBitIdentical) {
  WordRunClass plus(NfaAPlusBPlus());
  CheckTableSweeps(ZigZagSystem(1), plus);
  WordRunClass alternating(NfaAlternatingAB());
  CheckTableSweeps(ZigZagSystem(2), alternating);

  TreeAutomaton two = TaTwoLevel();
  TreeRunClass trees(&two, 3);
  CheckTableSweeps(DescendSystem(two, 1), trees);
}

TEST(ParallelBuildTest, ParallelBuiltCacheEntryServesSerialQueries) {
  // Determinism makes parallel-built and serial-built graphs
  // interchangeable cache values: a graph built by 4 workers must serve a
  // later single-threaded query as a plain hit.
  AllStructuresClass cls(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  GraphCache cache;

  SolveOptions sharded;
  sharded.cache = &cache;
  sharded.num_threads = 4;
  // kEager: the on-the-fly default would early-exit into a sequentially
  // built partial graph; the point here is a complete graph built by the
  // sharded sweep.
  sharded.strategy = SolveStrategy::kEager;
  SolveResult first = SolveEmptiness(system, cls, sharded);
  EXPECT_FALSE(first.stats.graph_from_cache);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(cache.size(), 1u);
  // The class's first eager build streams, so the sharded sweep ran.
  EXPECT_EQ(cache.member_table_builds(), 0u);

  SolveOptions serial;
  serial.cache = &cache;
  SolveResult second = SolveEmptiness(system, cls, serial);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_EQ(first.stats.edges, second.stats.edges);
  EXPECT_EQ(first.stats.configs, second.stats.configs);

  // And the converse: a serial-built entry serves a sharded query (the
  // hit path never spawns workers — nothing left to enumerate).
  GraphCache reverse_cache;
  SolveOptions serial_first;
  serial_first.cache = &reverse_cache;
  serial_first.strategy = SolveStrategy::kEager;
  SolveEmptiness(system, cls, serial_first);
  SolveOptions sharded_second;
  sharded_second.cache = &reverse_cache;
  sharded_second.num_threads = 4;
  SolveResult reused = SolveEmptiness(system, cls, sharded_second);
  EXPECT_TRUE(reused.stats.graph_from_cache);
  EXPECT_EQ(reused.stats.members_enumerated, 0u);
}

}  // namespace
}  // namespace amalgam
