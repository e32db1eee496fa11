// Tests for the cross-query sub-transition graph cache: repeated queries
// over the same (class fingerprint, k, guard set) must skip class
// enumeration entirely (members_enumerated == 0), verdicts and witnesses
// must be unaffected, and backend fingerprints must separate classes that
// enumerate different member streams. A complete graph holds the same
// heap however it was made, and replaying it grows no heap.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <latch>
#include <memory>
#include <new>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <malloc.h>

#include "fraisse/data_class.h"
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/store.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/zoo.h"

// Live heap bytes, counted by this binary's own operator new and delete:
// the footprint test's gauge.
namespace {
std::atomic<std::int64_t> g_live_heap{0};

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  g_live_heap.fetch_add(static_cast<std::int64_t>(malloc_usable_size(p)));
  return p;
}

void CountedFree(void* p) noexcept {
  if (p == nullptr) return;
  g_live_heap.fetch_sub(static_cast<std::int64_t>(malloc_usable_size(p)));
  std::free(p);
}
}  // namespace

void* operator new(std::size_t n) { return CountedAlloc(n); }
void* operator new[](std::size_t n) { return CountedAlloc(n); }
void operator delete(void* p) noexcept { CountedFree(p); }
void operator delete[](void* p) noexcept { CountedFree(p); }
void operator delete(void* p, std::size_t) noexcept { CountedFree(p); }
void operator delete[](void* p, std::size_t) noexcept { CountedFree(p); }

namespace amalgam {
namespace {

TEST(GraphCacheTest, SecondQuerySkipsEnumerationEntirely) {
  AllStructuresClass cls(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  GraphCache cache;
  SolveOptions options;
  options.cache = &cache;

  SolveResult first = SolveEmptiness(system, cls, options);
  EXPECT_FALSE(first.stats.graph_from_cache);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(cache.misses(), 1u);
  EXPECT_EQ(cache.size(), 1u);

  SolveResult second = SolveEmptiness(system, cls, options);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.guard_evaluations, 0u);
  EXPECT_EQ(cache.hits(), 1u);

  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_EQ(first.stats.configs, second.stats.configs);
  EXPECT_EQ(first.stats.edges, second.stats.edges);

  // The cached graph keeps no joint members; the witness re-derives them
  // from the class and still replays the soundness proof.
  ASSERT_TRUE(second.nonempty);
  ASSERT_TRUE(second.witness_db.has_value());
  EXPECT_TRUE(
      ValidateAcceptingRun(system, *second.witness_db, *second.witness_run));
}

TEST(GraphCacheTest, CachedVerdictsMatchUncachedAcrossTheZoo) {
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    SolveOptions plain;
    plain.build_witness = false;
    SolveOptions cached = plain;
    cached.cache = &cache;
    const bool expected = SolveEmptiness(system, cls, plain).nonempty;
    EXPECT_EQ(SolveEmptiness(system, cls, cached).nonempty, expected);
    EXPECT_EQ(SolveEmptiness(system, cls, cached).nonempty, expected);
  }
}

TEST(GraphCacheTest, GraphIsSharedAcrossSystemsWithTheSameGuardSet) {
  // The cached graph depends on the guard set, not the control skeleton:
  // two systems with identical guards but different accepting states share
  // one graph and still get their own verdicts. The first (nonempty) query
  // early-exits and caches a *partial* graph; the second system's empty
  // verdict needs the whole class, so its query resumes from the cursor —
  // enumerating strictly fewer members than a cold build — and upgrades
  // the entry to complete, which then serves a third query with zero
  // enumeration.
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;

  DdsSystem reach(GraphZooSchema());
  reach.AddRegister("x");
  int a1 = reach.AddState("a", true);
  int b1 = reach.AddState("b", false, true);
  reach.AddRule(a1, b1, "E(x_old, x_new)");

  DdsSystem dead(GraphZooSchema());
  dead.AddRegister("x");
  int a2 = dead.AddState("a", true);
  int b2 = dead.AddState("b");  // no accepting state at all
  dead.AddRule(a2, b2, "E(x_old, x_new)");

  SolveOptions uncached;
  uncached.build_witness = false;
  const SolveResult cold = SolveEmptiness(dead, cls, uncached);
  EXPECT_FALSE(cold.nonempty);

  SolveResult r1 = SolveEmptiness(reach, cls, options);
  EXPECT_FALSE(r1.stats.graph_from_cache);
  EXPECT_TRUE(r1.nonempty);
  EXPECT_LT(r1.stats.members_enumerated, cold.stats.members_enumerated)
      << "the nonempty first query should early-exit";

  SolveResult r2 = SolveEmptiness(dead, cls, options);
  EXPECT_TRUE(r2.stats.graph_from_cache);
  EXPECT_TRUE(r2.stats.graph_resumed);
  EXPECT_GT(r2.stats.members_enumerated, 0u);
  EXPECT_LT(r2.stats.members_enumerated, cold.stats.members_enumerated)
      << "resume must not re-enumerate the persisted prefix";
  EXPECT_FALSE(r2.nonempty);
  EXPECT_EQ(r2.stats.edges, cold.stats.edges);
  EXPECT_EQ(r2.stats.configs, cold.stats.configs);

  SolveResult r3 = SolveEmptiness(dead, cls, options);
  EXPECT_TRUE(r3.stats.graph_from_cache);
  EXPECT_FALSE(r3.stats.graph_resumed);
  EXPECT_EQ(r3.stats.members_enumerated, 0u);
  EXPECT_FALSE(r3.nonempty);
}

TEST(GraphCacheTest, WordFrontDoorUsesTheCache) {
  DdsSystem system = ZigZagSystem(1);
  Nfa nfa = NfaAPlusBPlus();
  GraphCache cache;
  WordSolveResult first = SolveWordEmptiness(
      system, nfa, true, SolveStrategy::kOnTheFly, &cache);
  WordSolveResult second = SolveWordEmptiness(
      system, nfa, true, SolveStrategy::kOnTheFly, &cache);
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_TRUE(second.stats.graph_from_cache);
  if (second.nonempty && second.witness.has_value()) {
    EXPECT_TRUE(nfa.Accepts(second.witness->letters));
  }
}

TEST(GraphCacheTest, TreeFrontDoorUsesTheCache) {
  TreeAutomaton two = TaTwoLevel();
  DdsSystem system = DescendSystem(two, 1);
  GraphCache cache;
  TreeSolveResult first = SolveTreeEmptiness(
      system, two, 0, 3, SolveStrategy::kOnTheFly, &cache);
  TreeSolveResult second = SolveTreeEmptiness(
      system, two, 0, 3, SolveStrategy::kOnTheFly, &cache);
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
}

// A minimal complete graph for eviction tests: no guards, one register,
// swept over the linear-order class (tiny and fast).
std::shared_ptr<const SubTransitionGraph> TinyCompleteGraph() {
  LinearOrderClass orders;
  auto graph =
      std::make_shared<SubTransitionGraph>(std::vector<FormulaRef>{}, 1);
  SolveStats stats;
  graph->BuildFull(MemberSource{orders}, stats);
  return graph;
}

TEST(GraphCacheTest, UnboundedByDefault) {
  GraphCache cache;
  EXPECT_EQ(cache.max_entries(), 0u);
  auto graph = TinyCompleteGraph();
  for (int i = 0; i < 100; ++i) {
    cache.Insert("key" + std::to_string(i), graph);
  }
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(GraphCacheTest, EvictsLeastRecentlyHitEntry) {
  GraphCache cache(/*max_entries=*/2);
  auto graph = TinyCompleteGraph();
  cache.Insert("a", graph);
  cache.Insert("b", graph);
  EXPECT_EQ(cache.size(), 2u);

  // Freshen "a": "b" is now the least recently hit.
  EXPECT_NE(cache.Lookup("a"), nullptr);
  cache.Insert("c", graph);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_NE(cache.Lookup("a"), nullptr);
  EXPECT_NE(cache.Lookup("c"), nullptr);
  EXPECT_EQ(cache.Lookup("b"), nullptr) << "LRU entry survived the insert";

  // A re-insert after eviction is a fresh entry, not a first-insert no-op.
  cache.Insert("b", graph);
  EXPECT_EQ(cache.evictions(), 2u);
  EXPECT_NE(cache.Lookup("b"), nullptr);
}

TEST(GraphCacheTest, FirstInsertStillWinsUnderTheCap) {
  GraphCache cache(/*max_entries=*/2);
  auto first = TinyCompleteGraph();
  auto second = TinyCompleteGraph();
  cache.Insert("key", first);
  cache.Insert("key", second);  // ignored: first insert wins
  EXPECT_EQ(cache.Lookup("key").get(), first.get());
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(GraphCacheTest, EvictedEntryIsRebuiltOnTheNextQuery) {
  // End-to-end: with a cap of 1, alternating queries evict each other's
  // graphs, and each re-query rebuilds (members_enumerated > 0) with the
  // same verdict.
  AllStructuresClass cls(GraphZooSchema());
  DdsSystem reach = ReachRedSystem();
  DdsSystem contra = ContradictionSystem();
  GraphCache cache(/*max_entries=*/1);
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;

  SolveResult r1 = SolveEmptiness(reach, cls, options);
  SolveResult r2 = SolveEmptiness(contra, cls, options);  // evicts reach
  EXPECT_EQ(cache.evictions(), 1u);
  SolveResult r3 = SolveEmptiness(reach, cls, options);   // rebuilt
  EXPECT_FALSE(r3.stats.graph_from_cache);
  EXPECT_GT(r3.stats.members_enumerated, 0u);
  EXPECT_EQ(r3.nonempty, r1.nonempty);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.evictions(), 2u);
}

TEST(GraphCacheTest, PartialEntriesUpgradeButNeverDowngrade) {
  // Partial graphs are first-class entries tagged with their cursor; an
  // insert replaces the incumbent only when strictly further along, so a
  // complete graph wins over any partial one and is never displaced by a
  // stale partial re-insert.
  GraphCache cache;
  auto partial = std::make_shared<SubTransitionGraph>(
      std::vector<FormulaRef>{}, 1);
  auto complete = TinyCompleteGraph();

  cache.Insert("key", partial);
  EXPECT_EQ(cache.Lookup("key").get(), partial.get());
  EXPECT_FALSE(cache.Lookup("key")->complete());

  cache.Insert("key", complete);  // upgrade
  EXPECT_EQ(cache.Lookup("key").get(), complete.get());

  cache.Insert("key", partial);  // stale partial must not downgrade
  EXPECT_EQ(cache.Lookup("key").get(), complete.get());

  EXPECT_THROW(cache.Insert("key", nullptr), std::invalid_argument);
}

TEST(GraphCacheTest, FingerprintsSeparateBackends) {
  AllStructuresClass all(GraphZooSchema());
  LinearOrderClass orders;
  EquivalenceClass eqv;
  EXPECT_EQ(all.Fingerprint(),
            AllStructuresClass(GraphZooSchema()).Fingerprint());
  EXPECT_NE(all.Fingerprint(), orders.Fingerprint());
  EXPECT_NE(orders.Fingerprint(), eqv.Fingerprint());

  auto base = std::make_shared<AllStructuresClass>(GraphZooSchema());
  DataClass deq_any(base, DataDomain::kNaturalsWithEquality, false);
  DataClass deq_inj(base, DataDomain::kNaturalsWithEquality, true);
  DataClass dlt_any(base, DataDomain::kRationalsWithOrder, false);
  EXPECT_NE(deq_any.Fingerprint(), deq_inj.Fingerprint());
  EXPECT_NE(deq_any.Fingerprint(), dlt_any.Fingerprint());

  WordRunClass w1(NfaAlternatingAB());
  WordRunClass w2(NfaAPlusBPlus());
  EXPECT_EQ(w1.Fingerprint(), WordRunClass(NfaAlternatingAB()).Fingerprint());
  EXPECT_NE(w1.Fingerprint(), w2.Fingerprint());

  TreeAutomaton chains = TaChains();
  TreeRunClass t3(&chains, 3);
  TreeRunClass t4(&chains, 4);
  EXPECT_NE(t3.Fingerprint(), t4.Fingerprint());
}

TEST(GraphCacheTest, PeekIsSideEffectFree) {
  GraphCache cache(/*max_entries=*/2);
  auto graph = TinyCompleteGraph();
  EXPECT_EQ(cache.Peek("missing"), nullptr);
  EXPECT_EQ(cache.misses(), 0u) << "Peek must not count a miss";

  cache.Insert("a", graph);
  cache.Insert("b", graph);
  EXPECT_NE(cache.Peek("a"), nullptr);
  EXPECT_EQ(cache.hits(), 0u) << "Peek must not count a hit";

  // Peek("a") must not have freshened "a": "a" (inserted first) is still
  // the eviction victim.
  cache.Insert("c", graph);
  EXPECT_EQ(cache.Peek("a"), nullptr) << "Peek must not touch LRU order";
  EXPECT_NE(cache.Peek("b"), nullptr);
}

TEST(GraphCacheTest, StatsStayCoherentUnderConcurrentQueries) {
  // Readers hammer every stats accessor while writers insert, look up and
  // evict; TSan (this test is in the tsan CI job) verifies the counters
  // are race-free and the final tallies must balance exactly.
  GraphCache cache(/*max_entries=*/4);
  auto graph = TinyCompleteGraph();
  constexpr int kWriters = 4;
  constexpr int kOpsPerWriter = 200;

  std::atomic<bool> stop{false};
  std::thread reader([&] {
    std::uint64_t sink = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      sink += cache.hits() + cache.misses() + cache.evictions() +
              cache.store_loads() + cache.store_load_failures() +
              cache.store_writes();
    }
    // The sum is meaningless; reading it is the point.
    EXPECT_GE(sink, 0u);
  });
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&cache, &graph, w] {
      for (int i = 0; i < kOpsPerWriter; ++i) {
        const std::string key =
            "key" + std::to_string((w * kOpsPerWriter + i) % 8);
        if (i % 2 == 0) {
          cache.Insert(key, graph);
        } else {
          cache.Lookup(key);
        }
      }
    });
  }
  for (auto& t : writers) t.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kWriters) * kOpsPerWriter / 2)
      << "every Lookup counted exactly one hit or one miss";
}

TEST(GraphCacheTest, ConcurrentColdStoreLookupsDoNotConvoyOrRace) {
  // Two threads race a cold store-backed lookup of one key: both must get
  // a valid graph (loaded from disk outside the map mutex; the
  // double-checked promote reconciles), with no deadlock and no race.
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::path(::testing::TempDir()) / "graph_cache_concurrent_store";
  fs::remove_all(dir);

  AllStructuresClass cls(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  const GraphContext ctx = SystemGraphContext(BorrowBackend(cls), system);
  {
    // Seed the directory with a complete graph.
    GraphCache seeder(0, dir.string());
    SolveOptions options;
    options.build_witness = false;
    options.cache = &seeder;
    SolveEmptiness(system, cls, options);
    ASSERT_GE(seeder.store_writes(), 1u);
  }

  GraphCache cache(0, dir.string());
  std::vector<std::shared_ptr<const SubTransitionGraph>> results(4);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      results[t] = cache.Lookup(ctx);
    });
  }
  for (auto& thread : threads) thread.join();
  for (const auto& result : results) {
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->complete());
  }
  EXPECT_GE(cache.store_loads(), 1u);
  EXPECT_EQ(cache.store_load_failures(), 0u);
  // Whatever the interleaving, one memory entry survives and later
  // lookups are pure memory hits.
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_NE(cache.Lookup(ctx.key), nullptr);
}

TEST(GraphCacheTest, ThreadsSharingACacheBuildEachGraphOnce) {
  // Single flight is on the graph path, not in the query service: two
  // threads that start the same query at once over one shared cache build
  // its graph once, whichever front door they call. The other one waits on
  // the builder's claim and replays the graph, or finds it finished.
  const AllStructuresClass cls(GraphZooSchema());
  const DdsSystem system = OddRedCycleSystem();
  BranchingSystem branching(GraphZooSchema());
  branching.AddRegister("x");
  branching.AddRegister("y");
  const int walk = branching.AddState("walk", true);
  const int done = branching.AddState("done", false, true);
  branching.AddRule(walk, {{"E(x_old, x_new) & y_new = y_old", walk}});
  branching.AddRule(walk, {{"x_old = y_old & red(x_new)", done}});
  auto linear = [&](SolveStrategy strategy) {
    return [&, strategy](GraphCache& cache) {
      return SolveEmptiness(system, cls,
                            SolveOptions{.build_witness = false,
                                         .strategy = strategy,
                                         .cache = &cache})
          .stats;
    };
  };
  const std::vector<std::pair<const char*,
                              std::function<SolveStats(GraphCache&)>>>
      front_doors = {
          {"eager", linear(SolveStrategy::kEager)},
          {"on the fly", linear(SolveStrategy::kOnTheFly)},
          {"branching",
           [&](GraphCache& cache) {
             return SolveBranchingEmptiness(branching, cls, &cache).stats;
           }},
      };
  for (const auto& [name, run] : front_doors) {
    GraphCache cache;
    std::latch start(2);
    SolveStats stats[2];
    std::vector<std::thread> threads;
    for (int t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        start.arrive_and_wait();
        stats[t] = run(cache);
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ((stats[0].members_enumerated > 0) +
                  (stats[1].members_enumerated > 0),
              1)
        << name;
    EXPECT_EQ(cache.single_flight_leads(), 1u) << name;
    EXPECT_EQ(cache.misses(), 1u) << name;
  }
}

// The heap `graph` holds: what releasing it, its last owner, frees.
std::int64_t HeldBytes(std::shared_ptr<const SubTransitionGraph> graph) {
  EXPECT_EQ(graph.use_count(), 1);
  const std::int64_t before = g_live_heap.load();
  graph.reset();
  return before - g_live_heap.load();
}

// perfbench's unary keys: two registers over red/blue, three distinct
// guards from its pool.
DdsSystem UnarySystem() {
  Schema schema;
  schema.AddRelation("red", 1);
  schema.AddRelation("blue", 1);
  DdsSystem system(MakeSchema(std::move(schema)));
  const int a = system.AddState("a", /*initial=*/true);
  const int b = system.AddState("b", /*initial=*/false, /*accepting=*/true);
  system.AddRegister("x");
  system.AddRegister("y");
  system.AddRule(a, a, "x_new = y_old & red(x_new)");
  system.AddRule(a, b, "y_new = x_old & blue(y_new)");
  system.AddRule(b, a, "x_old = x_new & y_old != y_new");
  return system;
}

TEST(GraphCacheTest, CompleteGraphHeapIsTheSameHoweverItWasMade) {
  // A complete graph keeps only what a query reads, so one built eagerly,
  // one resumed from a partial build and one loaded from the store hold
  // the same heap; and serving queries from it grows none.
  struct Case {
    std::string name;
    DdsSystem system;
    std::shared_ptr<const SolverBackend> cls;
  };
  std::vector<Case> cases;
  cases.push_back({"reach_red", ReachRedSystem(),
                   std::make_shared<AllStructuresClass>(GraphZooSchema())});
  DdsSystem unary = UnarySystem();
  auto unary_cls = std::make_shared<AllStructuresClass>(unary.schema_ref());
  cases.push_back({"unary", std::move(unary), unary_cls});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const SolverBackend& cls = *c.cls;
    const GraphContext ctx = SystemGraphContext(c.cls, c.system);
    const MemberSource source{cls};
    SolveStats stats;

    auto eager = std::make_shared<SubTransitionGraph>(ctx.guards, ctx.k);
    eager->BuildFull(source, stats);
    ASSERT_TRUE(eager->complete());

    auto partial = std::make_shared<SubTransitionGraph>(ctx.guards, ctx.k);
    partial->SweepInitial(source, stats, ~std::uint64_t{0}, nullptr);
    std::uint64_t edges = 0;
    partial->SweepJoint(source, stats, ~std::uint64_t{0},
                        [&](int, int, int) { return ++edges < 3; });
    ASSERT_FALSE(partial->complete());
    auto resumed = std::make_shared<SubTransitionGraph>(*partial);
    partial.reset();
    resumed->BuildFull(source, stats);
    ASSERT_TRUE(resumed->complete());

    const std::string bytes = SerializeGraph(*eager, ctx.key);
    std::shared_ptr<SubTransitionGraph> loaded =
        DeserializeGraph(bytes, ctx.key, cls.schema(), ctx.guards, ctx.k);
    ASSERT_NE(loaded, nullptr);
    ASSERT_TRUE(loaded->complete());
    ASSERT_EQ(SerializeGraph(*resumed, ctx.key), bytes);

    const std::int64_t eager_bytes = HeldBytes(std::move(eager));
    const std::int64_t resumed_bytes = HeldBytes(std::move(resumed));
    const std::int64_t loaded_bytes = HeldBytes(std::move(loaded));
    RecordProperty(c.name + "_heap_bytes", std::to_string(eager_bytes));
    EXPECT_GT(eager_bytes, 0);
    EXPECT_LE(std::abs(resumed_bytes - eager_bytes) * 10, eager_bytes)
        << "resumed " << resumed_bytes << " B, eager " << eager_bytes << " B";
    EXPECT_LE(std::abs(loaded_bytes - eager_bytes) * 10, eager_bytes)
        << "loaded " << loaded_bytes << " B, eager " << eager_bytes << " B";

    // Replays: every query after the first is a complete memory-tier hit.
    GraphCache cache;
    const SolveOptions options{.build_witness = false, .cache = &cache};
    const bool nonempty = SolveEmptiness(c.system, ctx, options).nonempty;
    ASSERT_TRUE(SolveEmptiness(c.system, ctx, options).stats.graph_from_cache);
    const std::int64_t before = g_live_heap.load();
    for (int i = 0; i < 1000; ++i) {
      const SolveResult r = SolveEmptiness(c.system, ctx, options);
      ASSERT_EQ(r.nonempty, nonempty);
      ASSERT_TRUE(r.stats.graph_from_cache);
    }
    EXPECT_LE(g_live_heap.load(), before)
        << "1,000 replays grew the live heap";
  }
}

TEST(GraphCacheTest, FingerprintsAreInjectionSafe) {
  // Free-text components (letter names, symbol names) are length-prefixed:
  // an alphabet of one letter "a|b" must not serialize like the alphabet
  // "a", "b", or two genuinely different classes would share a cached
  // graph and verdicts could cross over.
  Nfa glued({"a|b"});
  glued.AddState(0, true, true);
  Nfa split({"a", "b"});
  split.AddState(0, true, true);
  EXPECT_NE(WordRunClass(glued).Fingerprint(),
            WordRunClass(split).Fingerprint());

  // Same shape for schemas: a relation named "a/1, b" imitates ToString's
  // separators, but not the length-prefixed fingerprint.
  Schema imitation;
  imitation.AddRelation("a/1, b", 1);
  Schema honest;
  honest.AddRelation("a", 1);
  honest.AddRelation("b", 1);
  EXPECT_NE(MakeSchema(std::move(imitation))->Fingerprint(),
            MakeSchema(std::move(honest))->Fingerprint());
}

}  // namespace
}  // namespace amalgam
