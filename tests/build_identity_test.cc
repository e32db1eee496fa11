// Bit-identity suite for graph builds: a sweep over a class's member table,
// an early-exited build resumed to completion (from the table or the
// stream) and a cold full build must produce the same graph — same shape
// table in the same order, same initial set, same edges — across the
// system/words/trees zoos and seeded random systems.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <utility>
#include <vector>

#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "solver/cache.h"
#include "solver/context.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "solver/member_table.h"
#include "solver/store.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

// Bit-identity of two graphs, complete or not: shape arena (ids, keys,
// marks), initial set and per-shape edge lists element-wise.
void ExpectSameGraph(const SubTransitionGraph& expected,
                     const SubTransitionGraph& actual) {
  ASSERT_EQ(expected.num_shapes(), actual.num_shapes());
  for (int id = 0; id < expected.num_shapes(); ++id) {
    EXPECT_EQ(expected.interner().shape(id).key,
              actual.interner().shape(id).key)
        << "shape " << id << " renumbered differently";
    EXPECT_EQ(expected.interner().shape(id).marks,
              actual.interner().shape(id).marks);
  }
  EXPECT_EQ(expected.initial_shapes(), actual.initial_shapes());
  ASSERT_EQ(expected.num_edges(), actual.num_edges());
  for (int s = 0; s < expected.num_shapes(); ++s) {
    const auto& want = expected.edges_from(s);
    const auto& got = actual.edges_from(s);
    ASSERT_EQ(want.size(), got.size()) << "edge count differs at shape " << s;
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(want[i].guard, got[i].guard);
      EXPECT_EQ(want[i].new_shape, got[i].new_shape);
    }
  }
}

// ExpectSameGraph, and the second graph is complete.
void ExpectGraphsIdentical(const SubTransitionGraph& expected,
                           const SubTransitionGraph& actual) {
  ExpectSameGraph(expected, actual);
  EXPECT_TRUE(actual.complete());
}

TEST(BuildIdentityTest, DuplicateGuardListsStayBitIdentical) {
  // Five rules over two distinct guards, each repeat parsed separately (so
  // pointer-distinct): the front door builds over the distinct list, and
  // cold and resumed builds of it agree bit for bit.
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

  auto eager_build = [&](GraphCache& cache) {
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    options.cache = &cache;
    return SolveEmptiness(system, all, options);
  };
  // The reference sweeps the backend's own streams.
  SubTransitionGraph cold(ctx.guards, ctx.k);
  SolveStats cold_stats;
  cold.BuildFull(MemberSource{all, nullptr}, cold_stats);

  // A fresh cache's first eager build of a class creates its member table
  // and grows it whole, and repeats the streamed build exactly.
  GraphCache cache;
  const SolveResult first = eager_build(cache);
  EXPECT_EQ(cache.member_table_builds(), 1u);
  EXPECT_EQ(first.stats.members_generated, cold_stats.members_generated);
  ASSERT_NE(cache.Peek(ctx.key), nullptr);
  ASSERT_EQ(cache.Peek(ctx.key)->guards().size(), 2u);
  ExpectGraphsIdentical(cold, *cache.Peek(ctx.key));

  // Resumed: an early-exited on-the-fly query leaves a partial entry,
  // which the eager build finishes over the table the first one grew.
  GraphCache resumed_cache;
  SolveOptions lazy;
  lazy.build_witness = false;
  lazy.cache = &resumed_cache;
  ASSERT_TRUE(SolveEmptiness(system, all, lazy).nonempty);
  ASSERT_NE(resumed_cache.Peek(ctx.key), nullptr);
  ASSERT_FALSE(resumed_cache.Peek(ctx.key)->complete());
  EXPECT_TRUE(eager_build(resumed_cache).stats.graph_resumed);
  EXPECT_EQ(resumed_cache.member_table_builds(), 1u);
  EXPECT_EQ(resumed_cache.member_table_hits(), 1u);
  ExpectGraphsIdentical(cold, *resumed_cache.Peek(ctx.key));
}

// ---- Sweeps over a member table ----------------------------------------

// A table-fronted sweep against the streamed sweep of the same class: the
// graphs (cursor and store bytes included) and the work counters agree.
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
                      [&](int, int, int) {
                        return edge_stop == 0 || ++edges < edge_stop;
                      });
  }
  return graph;
}

// Eager, early-exited and resumed builds over the class's member table —
// a cold one the sweep grows as it goes, and a warm one it only reads —
// match the streamed builds bit for bit.
void CheckTableSweeps(const std::vector<FormulaRef>& guards, int k,
                      const SolverBackend& backend) {
  const MemberSource stream{backend};
  SubTransitionGraph full(guards, k);
  SolveStats full_stats;
  full.BuildFull(stream, full_stats);

  MemberTable warm(backend.schema(), k);
  const MemberSource warm_source{backend, &warm};
  {
    SCOPED_TRACE("eager, cold table");
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(warm_source, stats);
    ExpectSameBuild(full, full_stats, graph, stats);
    // The sweep enumerates the streams once, appending every member.
    EXPECT_EQ(stats.members_generated, full_stats.members_generated);
    EXPECT_EQ(stats.members_appended, full_stats.members_enumerated);
    EXPECT_EQ(warm.initial_size() + warm.joint_size(),
              full_stats.members_enumerated);
  }
  {
    SCOPED_TRACE("eager, warm table");
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(warm_source, stats);
    ExpectSameBuild(full, full_stats, graph, stats);
    EXPECT_EQ(stats.members_generated, 0u);
    EXPECT_EQ(stats.members_appended, 0u);
  }
  for (const auto& [initial_stop, edge_stop] :
       {std::pair{1, 0}, std::pair{0, 1}, std::pair{0, 3}, std::pair{0, 8}}) {
    SCOPED_TRACE("early exit at initial member " +
                 std::to_string(initial_stop) + " / fresh edge " +
                 std::to_string(edge_stop));
    SolveStats stream_stats;
    const auto streamed = PartialBuild(guards, k, stream, initial_stop,
                                       edge_stop, stream_stats);
    MemberTable cold(backend.schema(), k);
    const MemberSource cold_source{backend, &cold};
    SolveStats cold_stats;
    const auto grown = PartialBuild(guards, k, cold_source, initial_stop,
                                    edge_stop, cold_stats);
    ExpectSameBuild(*streamed, stream_stats, *grown, cold_stats);
    // The cold table holds exactly the members the sweep enumerated.
    EXPECT_EQ(cold_stats.members_appended, stream_stats.members_enumerated);
    EXPECT_EQ(cold.initial_size() + cold.joint_size(),
              stream_stats.members_enumerated);
    SolveStats warm_stats;
    const auto partial = PartialBuild(guards, k, warm_source, initial_stop,
                                      edge_stop, warm_stats);
    ExpectSameBuild(*streamed, stream_stats, *partial, warm_stats);
    EXPECT_EQ(warm_stats.members_generated, 0u);

    // Resume the partial graphs from every source: all finish as the cold
    // full build.
    SubTransitionGraph resumed_by_table(*streamed);
    SolveStats by_table;
    resumed_by_table.BuildFull(warm_source, by_table);
    ExpectGraphsIdentical(full, resumed_by_table);
    EXPECT_EQ(SerializeGraph(full, "k"), SerializeGraph(resumed_by_table, "k"));
    EXPECT_EQ(by_table.members_generated, 0u);
    SubTransitionGraph resumed_by_stream(*partial);
    SolveStats by_stream;
    resumed_by_stream.BuildFull(stream, by_stream);
    ExpectGraphsIdentical(full, resumed_by_stream);
    EXPECT_EQ(by_table.members_enumerated, by_stream.members_enumerated);
    EXPECT_EQ(by_table.guard_evaluations, by_stream.guard_evaluations);
    // The cold table is read up to its end and grown from there.
    SubTransitionGraph resumed_by_growth(*grown);
    SolveStats by_growth;
    resumed_by_growth.BuildFull(cold_source, by_growth);
    ExpectGraphsIdentical(full, resumed_by_growth);
    EXPECT_EQ(SerializeGraph(full, "k"),
              SerializeGraph(resumed_by_growth, "k"));
    EXPECT_EQ(by_growth.members_enumerated, by_stream.members_enumerated);
    EXPECT_EQ(by_growth.guard_evaluations, by_stream.guard_evaluations);
    EXPECT_EQ(cold.initial_size() + cold.joint_size(),
              full_stats.members_enumerated);
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

TEST(MemberTableSweepTest, TablesStopGrowingAtTheCap) {
  // Two unary relations, three registers: 42,356 joint members, past the
  // cap. The sweep fills the table to the cap and streams on from there;
  // a second sweep reads the full table and streams the rest itself.
  Schema unary;
  unary.AddRelation("red", 1);
  unary.AddRelation("blue", 1);
  AllStructuresClass cls(MakeSchema(std::move(unary)));
  DdsSystem system(cls.schema());
  for (const char* reg : {"x", "y", "z"}) system.AddRegister(reg);
  const int s = system.AddState("s", true, true);
  system.AddRule(s, s, "x_old = x_new & red(y_new) & !blue(z_new)");
  system.AddRule(s, s, "blue(y_old) & z_old != z_new");
  const std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph full(guards, k);
  SolveStats full_stats;
  full.BuildFull(MemberSource{cls}, full_stats);
  std::uint64_t initial_total = 0;
  cls.EnumerateGenerated(k, [&](const Structure&, std::span<const Elem>) {
    ++initial_total;
  });
  const std::uint64_t joint_total =
      full_stats.members_enumerated - initial_total;
  ASSERT_GT(joint_total, MemberTable::kMemberCap);

  MemberTable table(cls.schema(), k);
  for (int sweep = 0; sweep < 2; ++sweep) {
    SCOPED_TRACE("sweep " + std::to_string(sweep));
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(MemberSource{cls, &table}, stats);
    ExpectSameBuild(full, full_stats, graph, stats);
    EXPECT_TRUE(graph.complete());
    EXPECT_EQ(table.joint_size(), MemberTable::kMemberCap);
    EXPECT_EQ(table.initial_size(), initial_total);
    EXPECT_EQ(stats.members_appended,
              sweep == 0 ? initial_total + MemberTable::kMemberCap : 0u);
    EXPECT_EQ(stats.members_generated,
              sweep == 0 ? full_stats.members_generated
                         : joint_total - MemberTable::kMemberCap);
  }
}

TEST(MemberTableSweepTest, EnumerationCapErrorsLeaveTheTableUsable) {
  // 29 unary relations: one element already has more atoms than the
  // default cap allows, so the backend stops the k-stream — through a
  // table as it does streamed, every time, and the table stays empty.
  Schema wide;
  for (int r = 0; r < 29; ++r) wide.AddRelation("p" + std::to_string(r), 1);
  AllStructuresClass capped(MakeSchema(std::move(wide)));
  DdsSystem system(capped.schema());
  system.AddRegister("x");
  const int s = system.AddState("s", true, true);
  system.AddRule(s, s, "p0(x_old) & !p1(x_new)");
  const std::vector<FormulaRef> guards = GuardsOf(system);
  MemberTable table(capped.schema(), 1);
  for (int attempt = 0; attempt < 2; ++attempt) {
    SubTransitionGraph streamed(guards, 1);
    SolveStats stream_stats;
    EXPECT_THROW(streamed.BuildFull(MemberSource{capped}, stream_stats),
                 EnumerationCapError);
    SubTransitionGraph graph(guards, 1);
    SolveStats stats;
    EXPECT_THROW(graph.BuildFull(MemberSource{capped, &table}, stats),
                 EnumerationCapError);
    EXPECT_EQ(table.initial_size(), 0u);
  }
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

// Seeded random 1-register systems over the graph schema, same generator as
// the engine differential suite: whatever guard sets come up, table sweeps
// must reproduce the streamed builds.
class RandomBuildIdentity : public ::testing::TestWithParam<int> {};

TEST_P(RandomBuildIdentity, TableSweepsMatchStreamedBuilds) {
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

INSTANTIATE_TEST_SUITE_P(Seeds, RandomBuildIdentity, ::testing::Range(0, 10));

TEST(MemberTableSweepTest, WordAndTreeZoosAreBitIdentical) {
  WordRunClass plus(NfaAPlusBPlus());
  CheckTableSweeps(ZigZagSystem(1), plus);
  WordRunClass alternating(NfaAlternatingAB());
  CheckTableSweeps(ZigZagSystem(2), alternating);

  TreeAutomaton two = TaTwoLevel();
  TreeRunClass trees(&two, 3);
  CheckTableSweeps(DescendSystem(two, 1), trees);
}

}  // namespace
}  // namespace amalgam
