// Tests for the concurrent query service: single-flight coalescing of
// concurrent identical cold queries (exactly one graph build — one cache
// miss, the rest joins), verdict parity with the synchronous front doors
// across the system/words/trees zoos under mixed-key stress, graceful
// drain-during-inflight shutdown, in-band error delivery, the shared
// store tier, and the JSONL protocol layer behind amalgamd. Runs under
// the TSan CI job.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "solver/emptiness.h"
#include "system/zoo.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "words/solve.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

std::string ServiceStoreDir(const std::string& name) {
  const char* env = std::getenv("AMALGAM_STORE_TEST_DIR");
  const fs::path base =
      (env && *env) ? fs::path(env) : fs::path(::testing::TempDir());
  const fs::path dir = base / ("service_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

QueryRequest ReachRedRequest() {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  return request;
}

TEST(ServiceTest, SingleFlightColdBatchBuildsExactlyOnce) {
  // Eight concurrent identical cold queries: SubmitBatch registers the
  // whole batch in the single-flight table before any worker starts, so
  // exactly one query (the leader) builds the graph — the cache records
  // one miss — and the other seven join: they wait for the leader, replay
  // the cached graph as a pure BFS (zero enumeration) and count as hits.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);

  const bool expected =
      SolveEmptiness(*ReachRedRequest().system, *ReachRedRequest().cls,
                     SolveOptions{.build_witness = false})
          .nonempty;

  std::vector<QueryRequest> batch(8, ReachRedRequest());
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));

  int builders = 0;
  int coalesced = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, expected);
    if (result.stats.members_enumerated > 0) ++builders;
    if (result.coalesced) ++coalesced;
  }
  EXPECT_EQ(builders, 1) << "exactly one query may touch the backend";
  EXPECT_EQ(coalesced, 7);

  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.queries, 8u);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.single_flight_leads, 1u);
  EXPECT_EQ(stats.coalesced_joins, 7u);
  EXPECT_EQ(stats.cache_misses, 1u) << "one cold build, not eight";
  EXPECT_EQ(stats.cache_hits, 7u);
  EXPECT_EQ(stats.pending, 0u);
  EXPECT_GE(stats.p95_latency_ms, stats.p50_latency_ms);
}

TEST(ServiceTest, MemberTableIsBuiltOnceForConcurrentGuardSets) {
  // 32 distinct guard sets over one class, half eager and half on-the-fly,
  // submitted at once to 4 workers. Only eager builds ask for the class's
  // member table: the first request streams, the second builds the table,
  // every other one waits for it and sweeps it. On-the-fly queries stream
  // as they would without tables. So the summed generation cost is two
  // k-streams plus two 2k-streams plus the on-the-fly queries' own,
  // whatever the scheduling — and every verdict is the cache-less front
  // door's.
  Schema unary;
  unary.AddRelation("red", 1);
  unary.AddRelation("blue", 1);
  const SchemaRef schema = MakeSchema(std::move(unary));
  const auto cls = std::make_shared<AllStructuresClass>(schema);
  const char* pool[] = {
      "x_new = y_old & red(x_new)",   "y_new = x_old & blue(y_new)",
      "x_old = x_new & y_old != y_new", "x_new = x_old & red(y_new)",
      "red(x_old) & x_new = y_old",   "blue(y_old) & y_new = x_new",
  };
  std::vector<QueryRequest> batch;
  std::vector<bool> expected;
  std::uint64_t on_the_fly_generated = 0;
  for (int mask = 1; batch.size() < 32; ++mask) {
    if (__builtin_popcount(mask) < 2) continue;  // distinct multi-rule sets
    auto system = std::make_shared<DdsSystem>(schema);
    system->AddRegister("x");
    system->AddRegister("y");
    const int s0 = system->AddState("s0", true);
    const int s1 = system->AddState("s1");
    const int s2 = system->AddState("s2", false, true);
    int rule = 0;
    for (int g = 0; g < 6; ++g) {
      if ((mask >> g & 1) == 0) continue;
      const int from = rule % 2 == 0 ? s0 : s1;
      system->AddRule(from, rule++ % 3 == 2 ? s2 : s1, pool[g]);
    }
    SolveOptions cacheless;
    cacheless.build_witness = false;
    expected.push_back(SolveEmptiness(*system, *cls, cacheless).nonempty);
    const SolveStrategy strategy = batch.size() % 2 == 0
                                       ? SolveStrategy::kEager
                                       : SolveStrategy::kOnTheFly;
    if (strategy == SolveStrategy::kOnTheFly) {
      // What this on-the-fly query generates through a cache of its own.
      GraphCache own;
      SolveOptions options;
      options.build_witness = false;
      options.cache = &own;
      on_the_fly_generated +=
          SolveEmptiness(*system, *cls, options).stats.members_generated;
    }
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = std::move(system);
    request.cls = cls;
    request.build_witness = false;
    request.strategy = strategy;
    batch.push_back(std::move(request));
  }

  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));
  std::uint64_t generated = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    const QueryResult result = futures[i].get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, expected[i]) << "query " << i;
    EXPECT_FALSE(result.stats.graph_from_cache);
    generated += result.stats.members_generated;
  }

  std::uint64_t streams = 0;
  for (int m : {2, 4}) {
    cls->EnumerateGenerated(
        m, [&](const Structure&, std::span<const Elem>) { ++streams; });
  }
  EXPECT_EQ(generated, 2 * streams + on_the_fly_generated);
  service.Drain();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.member_table_builds, 1u);
  EXPECT_EQ(stats.member_table_hits, 14u);
  EXPECT_EQ(stats.member_tables, 1u);
  EXPECT_GT(stats.member_table_bytes, 0u);
  EXPECT_EQ(stats.members_generated, generated);
}

// Two systems that share a graph cache key — same schema, register count
// and guard set ("red(x_new)") — but differ in whether the target state
// accepts. The accepting variant early-exits its on-the-fly sweep the
// moment a red member appears, leaving a *partial* graph in the cache;
// the non-accepting variant can only answer "empty" after the full sweep,
// so running it against the warm-but-partial key forces a resume.
DdsSystem RedProbeSystem(bool accepting) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  const int s = system.AddState("s", /*initial=*/true);
  const int t = system.AddState("t", /*initial=*/false, accepting);
  system.AddRule(s, t, "red(x_new)");
  return system;
}

QueryRequest RedProbeRequest(bool accepting,
                             const std::shared_ptr<AllStructuresClass>& cls) {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(RedProbeSystem(accepting));
  request.cls = cls;
  return request;
}

TEST(ServiceTest, PartialEntryResumeCoalescesOntoOneSuffixBuild) {
  // The resume-flight regression (the gap PR-5 documented): N concurrent
  // queries over one warm-but-partial cache entry must perform exactly
  // one suffix build — a resume leader extends the entry, the rest wait
  // on its flight and replay — instead of N duplicated extension sweeps.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());

  // Seed: the accepting probe early-exits, caching a partial graph.
  QueryResult seeded = service.Submit(RedProbeRequest(true, cls)).get();
  ASSERT_TRUE(seeded.ok) << seeded.error;
  ASSERT_TRUE(seeded.nonempty);

  const DdsSystem probe = RedProbeSystem(false);
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : probe.rules()) guards.push_back(rule.guard);
  const std::string key = GraphCache::Key(*cls, 1, guards);
  std::shared_ptr<const SubTransitionGraph> cached = service.cache().Peek(key);
  ASSERT_NE(cached, nullptr);
  ASSERT_FALSE(cached->complete())
      << "the accepting seed must leave a partial entry for the key";

  // Eight concurrent queries whose verdict needs the rest of the class.
  std::vector<std::future<QueryResult>> futures = service.SubmitBatch(
      std::vector<QueryRequest>(8, RedProbeRequest(false, cls)));
  int extenders = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_FALSE(result.nonempty) << "no accepting state is reachable";
    if (result.stats.members_enumerated > 0) ++extenders;
  }
  EXPECT_EQ(extenders, 1) << "exactly one query may run the suffix sweep";

  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.resume_leads, 1u);
  EXPECT_EQ(stats.resume_coalesced, 7u);
  EXPECT_EQ(stats.single_flight_leads, 1u) << "only the cold seed build";
  EXPECT_EQ(stats.coalesced_joins, 0u);

  // The flight completed the graph: later queries run direct, off the
  // flight table, and enumerate nothing.
  cached = service.cache().Peek(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->complete());
  QueryResult direct = service.Submit(RedProbeRequest(false, cls)).get();
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(direct.stats.members_enumerated, 0u);
  service.Drain();
  EXPECT_EQ(service.Stats().resume_leads, 1u)
      << "a complete entry must skip the flight table";
}

// A system over `guards` (one rule each) walking states 0 -> 1 -> ... with
// the last state accepting.
QueryRequest GuardListRequest(const std::vector<std::string>& guards,
                              const std::shared_ptr<AllStructuresClass>& cls) {
  auto system = std::make_shared<DdsSystem>(GraphZooSchema());
  system->AddRegister("x");
  int prev = system->AddState("s0", /*initial=*/true);
  for (std::size_t i = 0; i < guards.size(); ++i) {
    const int next = system->AddState("s" + std::to_string(i + 1),
                                      /*initial=*/false,
                                      /*accepting=*/i + 1 == guards.size());
    system->AddRule(prev, next, guards[i]);
    prev = next;
  }
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = system;
  request.cls = cls;
  request.strategy = SolveStrategy::kEager;
  return request;
}

TEST(ServiceTest, RepeatedGuardsBuildTheDistinctListsGraph) {
  // [A, B, A] and [A, B] are different rule lists, so different entries,
  // but both graphs are over the distinct guards [A, B]: same guards, same
  // edges. A submitted query derives its key once, at submit time.
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  const std::string a = "E(x_old, x_new)";
  const std::string b = "red(x_new)";
  const QueryRequest repeated = GuardListRequest({a, b, a}, cls);
  const QueryRequest distinct = GuardListRequest({a, b}, cls);
  QueryService service;
  const std::string repeated_key = service.GraphKeyFor(repeated);
  const std::string distinct_key = service.GraphKeyFor(distinct);
  EXPECT_NE(repeated_key, distinct_key);
  QueryResult first = service.Submit(repeated).get();
  QueryResult second = service.Submit(distinct).get();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_TRUE(first.nonempty);
  EXPECT_TRUE(second.nonempty);
  EXPECT_FALSE(second.stats.graph_from_cache);
  EXPECT_EQ(first.stats.edges, second.stats.edges);
  const auto repeated_graph = service.cache().Peek(repeated_key);
  const auto distinct_graph = service.cache().Peek(distinct_key);
  ASSERT_NE(repeated_graph, nullptr);
  ASSERT_NE(distinct_graph, nullptr);
  EXPECT_EQ(repeated_graph->guards().size(), 2u);
  EXPECT_EQ(distinct_graph->guards().size(), 2u);
  EXPECT_EQ(repeated_graph->num_edges(), distinct_graph->num_edges());
}

TEST(ServiceTest, InconsistentWitnessStepAnswersInBand) {
  // One rule from a non-red to a red register value. Its complete graph is
  // rebuilt with every edge reversed: the BFS now finds a path over the
  // edge "red -> non-red", which no joint member of the class realizes
  // (the guard needs a non-red old value), so the witness step for it
  // cannot be derived.
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  QueryRequest request = GuardListRequest({"!red(x_old) & red(x_new)"}, cls);
  GraphCache builder;
  SolveOptions eager{.build_witness = false,
                     .strategy = SolveStrategy::kEager,
                     .cache = &builder};
  ASSERT_TRUE(SolveEmptiness(*request.system, *cls, eager).nonempty);
  QueryService service;
  const std::string key = service.GraphKeyFor(request);
  const std::shared_ptr<const SubTransitionGraph> good = builder.Peek(key);
  ASSERT_NE(good, nullptr);

  std::vector<CanonicalForm> shapes;
  std::vector<std::vector<SubTransitionGraph::Edge>> edges(good->num_shapes());
  for (int s = 0; s < good->num_shapes(); ++s) {
    shapes.push_back(good->interner().shape(s));
    for (const SubTransitionGraph::Edge& e : good->edges_from(s)) {
      edges[e.new_shape].push_back(SubTransitionGraph::Edge{e.guard, s});
    }
  }
  const std::shared_ptr<const SubTransitionGraph> bad =
      SubTransitionGraph::FromParts(good->guards(), good->k(),
                                    std::move(shapes), good->initial_shapes(),
                                    std::move(edges), good->cursor());
  ASSERT_NE(bad, nullptr);
  ASSERT_EQ(bad->num_edges(), good->num_edges());

  // The front door refuses to answer with a witness it cannot check...
  GraphCache poisoned;
  poisoned.Insert(key, bad);
  SolveOptions witnessed{.cache = &poisoned};
  EXPECT_THROW(SolveEmptiness(*request.system, *cls, witnessed),
               WitnessInvalidError);
  // ...the verdict alone derives no steps...
  EXPECT_TRUE(SolveEmptiness(*request.system, *cls,
                             SolveOptions{.build_witness = false,
                                          .cache = &poisoned})
                  .nonempty);
  // ...and the service answers in-band with a machine-readable code.
  service.cache().Insert(key, bad);
  request.build_witness = true;
  const QueryResult result = service.Submit(request).get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, WitnessInvalidError::kCode);
  ProtocolRequest line;
  line.id_json = "7";
  EXPECT_NE(FormatQueryResponse(line, result)
                .find("\"error_code\":\"witness_invalid\""),
            std::string::npos);
}

// ---- The Session layer (the per-client half of amalgamd). ----

TEST(ServiceTest, SessionRefusesAPerQueryStoreDirInBand) {
  // A daemon's store is attached once, at startup. A query line that asks
  // for persistence somewhere else is refused — not silently answered from
  // the daemon's own tier — and the connection keeps serving.
  const std::string dir = ServiceStoreDir("per_query_store_dir");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session session(service, Session::Options{},
                    [&](const std::string& line) {
                      std::lock_guard<std::mutex> lock(lines_mutex);
                      lines.push_back(line);
                    });
    session.HandleLine(R"({"id":1,"kind":"system","class":"all",)"
                       R"("system":"reach_red","store_dir":")" +
                       dir + "\"}");
    session.HandleLine(
        R"({"id":2,"kind":"system","class":"all","system":"reach_red"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("--store-dir"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"id\":2"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"nonempty\":true"), std::string::npos)
      << lines[1];
  EXPECT_EQ(service.Stats().queries, 1u) << "the refused line never ran";
  service.Shutdown();
}

TEST(ServiceTest, SessionEmitsResponsesInRequestOrder) {
  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);

  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session::Options sopts;
    sopts.id = 42;
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red"})");
    session.HandleLine(R"({"id":2,"kind":"nope"})");  // in-band error
    session.HandleLine(
        R"({"id":3,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})");
    session.HandleLine(R"({"id":4,"op":"stats"})");
    session.Flush();
    EXPECT_TRUE(session.FlushedAll());
    EXPECT_EQ(session.requests(), 4u);
  }  // destructor re-flushes and joins the writer

  ASSERT_EQ(lines.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << "response " << i << " out of order: " << lines[i];
  }
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos);
  EXPECT_NE(lines[1].find("\"ok\":false"), std::string::npos);
  EXPECT_NE(lines[3].find("\"conn_id\":42"), std::string::npos);
  EXPECT_NE(lines[3].find("\"conn_requests\":4"), std::string::npos);
}

TEST(ServiceTest, RetiredBuildThreadFieldIsIgnored) {
  // Clients written for daemons that took a per-query build-thread count
  // still send that count; like any unknown field it is ignored, so the
  // line gets the answer the same line without it gets.
  for (const std::string system : {"reach_red", "contradiction"}) {
    SCOPED_TRACE(system);
    QueryService::Options options;
    options.num_workers = 1;
    QueryService service(options);
    std::mutex lines_mutex;
    std::vector<std::string> lines;
    {
      Session session(service, Session::Options{},
                      [&](const std::string& line) {
                        std::lock_guard<std::mutex> lock(lines_mutex);
                        lines.push_back(line);
                      });
      const std::string query = R"("kind":"system","class":"all",)"
                                R"("strategy":"eager","system":")" +
                                system + "\"";
      session.HandleLine(R"({"id":1,)" + query + "}");
      session.HandleLine(R"({"id":2,"num_threads":4,)" + query + "}");
      session.Flush();
    }
    ASSERT_EQ(lines.size(), 2u);
    const std::string verdict =
        system == "reach_red" ? "\"nonempty\":true" : "\"nonempty\":false";
    for (const std::string& line : lines) {
      EXPECT_NE(line.find("\"ok\":true"), std::string::npos) << line;
      EXPECT_NE(line.find(verdict), std::string::npos) << line;
    }
  }
}

TEST(ServiceTest, SessionInflightCapRejectsInBandAndInOrder) {
  QueryService::Options options;
  options.num_workers = 2;
  QueryService service(options);

  // The emit hook holds the first response hostage: the query's slot in
  // the inflight window frees only when its response is *emitted*, so
  // while the gate is closed every further query line must be refused —
  // deterministically, however fast the workers are.
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  Session::Options sopts;
  sopts.id = 7;
  sopts.max_inflight = 1;
  {
    Session session(service, sopts, [&](const std::string& line) {
      bool first;
      {
        std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
        first = lines.size() == 1;
      }
      if (first) gate.wait();
    });
    const std::string query =
        R"({"id":%,"kind":"system","class":"all","system":"reach_red"})";
    auto line_with_id = [&](int id) {
      std::string line = query;
      return line.replace(line.find('%'), 1, std::to_string(id));
    };
    session.HandleLine(line_with_id(1));  // accepted: fills the window
    session.HandleLine(line_with_id(2));  // rejected
    session.HandleLine(line_with_id(3));  // rejected
    EXPECT_EQ(session.rejected_overload(), 2u);
    EXPECT_EQ(session.inflight(), 1);
    release.set_value();
    session.Flush();
  }

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  for (int i = 1; i <= 2; ++i) {
    EXPECT_NE(lines[i].find("\"error_code\":\"overloaded\""),
              std::string::npos)
        << lines[i];
    EXPECT_NE(lines[i].find("\"id\":" + std::to_string(i + 1)),
              std::string::npos)
        << "rejections must keep their place in the order: " << lines[i];
  }

  // The service itself was never touched by the rejections.
  service.Drain();
  EXPECT_EQ(service.Stats().queries, 1u);
}

TEST(ServiceTest, VerdictsMatchEverySynchronousFrontDoor) {
  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);

  // kSystem.
  auto sys = ReachRedRequest();
  const bool sys_expected =
      SolveEmptiness(*sys.system, *sys.cls, SolveOptions{.build_witness = false})
          .nonempty;

  // kWord.
  QueryRequest word;
  word.kind = QueryKind::kWord;
  word.system = std::make_shared<DdsSystem>(ZigZagSystem(1));
  word.nfa = std::make_shared<Nfa>(NfaAPlusBPlus());
  const bool word_expected =
      SolveWordEmptiness(*word.system, *word.nfa, /*build_witness=*/false)
          .nonempty;

  // kTree.
  QueryRequest tree;
  tree.kind = QueryKind::kTree;
  tree.automaton = std::make_shared<TreeAutomaton>(TaTwoLevel());
  tree.system = std::make_shared<DdsSystem>(DescendSystem(*tree.automaton, 1));
  tree.extra_pattern_cap = 3;
  const bool tree_expected =
      SolveTreeEmptiness(*tree.system, *tree.automaton, /*witness_size_cap=*/0,
                         /*extra_pattern_cap=*/3)
          .nonempty;

  // kBranching: two branches that must both be satisfiable from the same
  // parent database.
  QueryRequest branching;
  branching.kind = QueryKind::kBranching;
  auto bsys = std::make_shared<BranchingSystem>(GraphZooSchema());
  bsys->AddRegister("x");
  int a = bsys->AddState("a", /*initial=*/true);
  int b = bsys->AddState("b", /*initial=*/false, /*accepting=*/true);
  bsys->AddRule(a, {{"E(x_old, x_new)", b}, {"red(x_new)", b}});
  branching.branching = bsys;
  branching.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  const bool branching_expected =
      SolveBranchingEmptiness(*branching.branching, *branching.cls).nonempty;

  std::vector<std::future<QueryResult>> futures = service.SubmitBatch(
      {sys, word, tree, branching});
  ASSERT_EQ(futures.size(), 4u);
  QueryResult sys_result = futures[0].get();
  QueryResult word_result = futures[1].get();
  QueryResult tree_result = futures[2].get();
  QueryResult branching_result = futures[3].get();
  ASSERT_TRUE(sys_result.ok) << sys_result.error;
  ASSERT_TRUE(word_result.ok) << word_result.error;
  ASSERT_TRUE(tree_result.ok) << tree_result.error;
  ASSERT_TRUE(branching_result.ok) << branching_result.error;
  EXPECT_EQ(sys_result.nonempty, sys_expected);
  EXPECT_EQ(word_result.nonempty, word_expected);
  EXPECT_EQ(tree_result.nonempty, tree_expected);
  EXPECT_EQ(branching_result.nonempty, branching_expected);
}

TEST(ServiceTest, SingleFlightKeysAgreeWithEngineKeys) {
  // The service derives each request's graph context at submit time, with
  // the function its front door uses when called without one, and the
  // front door reuses it. If a kind ever built its key another way, the
  // leader's build would land under a key the engine never looks up (or
  // vice versa), and a cold identical pair would stop coalescing onto one
  // build — so: one cache miss per unique request, one coalesced join per
  // duplicate, across every front-door kind.
  QueryRequest word;
  word.kind = QueryKind::kWord;
  word.system = std::make_shared<DdsSystem>(ZigZagSystem(1));
  word.nfa = std::make_shared<Nfa>(NfaAPlusBPlus());

  QueryRequest tree;
  tree.kind = QueryKind::kTree;
  tree.automaton = std::make_shared<TreeAutomaton>(TaTwoLevel());
  tree.system = std::make_shared<DdsSystem>(DescendSystem(*tree.automaton, 1));
  tree.extra_pattern_cap = 3;

  QueryRequest branching;
  branching.kind = QueryKind::kBranching;
  auto bsys = std::make_shared<BranchingSystem>(GraphZooSchema());
  bsys->AddRegister("x");
  int a = bsys->AddState("a", /*initial=*/true);
  int b = bsys->AddState("b", /*initial=*/false, /*accepting=*/true);
  bsys->AddRule(a, {{"E(x_old, x_new)", b}});
  branching.branching = bsys;
  branching.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());

  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);
  std::vector<std::future<QueryResult>> futures = service.SubmitBatch(
      {ReachRedRequest(), ReachRedRequest(), word, word, tree, tree,
       branching, branching});
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
  }
  service.Drain();
  ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.cache_misses, 4u) << "one cold build per unique key";
  EXPECT_EQ(stats.single_flight_leads, 4u);
  EXPECT_EQ(stats.coalesced_joins, 4u) << "every duplicate joined its leader";
}

TEST(ServiceTest, MixedKeyStressAcrossTheZoos) {
  // A shuffled pile of repeated queries across all zoos: every verdict
  // must match the synchronous answer, whatever interleaving the worker
  // pool picks and however the single-flight table carves up the builds.
  std::vector<QueryRequest> unique_requests;
  std::vector<bool> expected;

  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  for (DdsSystem zoo_system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = std::make_shared<DdsSystem>(std::move(zoo_system));
    request.cls = cls;
    expected.push_back(
        SolveEmptiness(*request.system, *cls,
                       SolveOptions{.build_witness = false})
            .nonempty);
    unique_requests.push_back(std::move(request));
  }
  {
    QueryRequest request;
    request.kind = QueryKind::kWord;
    request.system = std::make_shared<DdsSystem>(TwoMarkersSystem());
    request.nfa = std::make_shared<Nfa>(NfaAllAB());
    expected.push_back(
        SolveWordEmptiness(*request.system, *request.nfa, false).nonempty);
    unique_requests.push_back(std::move(request));
  }
  {
    QueryRequest request;
    request.kind = QueryKind::kTree;
    request.automaton = std::make_shared<TreeAutomaton>(TaComb());
    request.system =
        std::make_shared<DdsSystem>(FindBBelowSystem(*request.automaton));
    request.extra_pattern_cap = 3;
    expected.push_back(SolveTreeEmptiness(*request.system, *request.automaton,
                                          0, 3)
                           .nonempty);
    unique_requests.push_back(std::move(request));
  }

  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);

  // Interleave 4 rounds of every request.
  std::vector<QueryRequest> batch;
  std::vector<bool> batch_expected;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t i = 0; i < unique_requests.size(); ++i) {
      batch.push_back(unique_requests[i]);
      batch_expected.push_back(expected[i]);
    }
  }
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));
  for (std::size_t i = 0; i < futures.size(); ++i) {
    QueryResult result = futures[i].get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, batch_expected[i]) << "request " << i;
  }
  service.Drain();
  EXPECT_EQ(service.Stats().queries, futures.size());
  EXPECT_EQ(service.Stats().failed, 0u);
}

TEST(ServiceTest, ShutdownDrainsInflightQueriesGracefully) {
  auto request = ReachRedRequest();
  std::vector<std::future<QueryResult>> futures;
  {
    QueryService::Options options;
    options.num_workers = 2;
    QueryService service(options);
    futures = service.SubmitBatch(std::vector<QueryRequest>(6, request));
    service.Shutdown();  // must wait for all six, not abandon them
    EXPECT_THROW(service.Submit(request), std::runtime_error);
    EXPECT_EQ(service.Stats().queries, 6u);
    EXPECT_EQ(service.Stats().pending, 0u);
  }
  // The service is gone; every future must already hold a result.
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_TRUE(result.nonempty);
  }
}

TEST(ServiceTest, ErrorsArriveInBandNotAsBrokenFutures) {
  QueryService service;

  // Missing inputs are caught at submit time.
  QueryRequest incomplete;
  incomplete.kind = QueryKind::kSystem;
  QueryResult r1 = service.Submit(incomplete).get();
  EXPECT_FALSE(r1.ok);
  EXPECT_FALSE(r1.error.empty());

  // A zero-register word query passes key setup of the run class but the
  // front door rejects it — still an in-band error.
  QueryRequest zero_reg;
  zero_reg.kind = QueryKind::kWord;
  auto system = std::make_shared<DdsSystem>(MakeWordSchema({"a", "b"}));
  system->AddState("only", /*initial=*/true, /*accepting=*/true);
  zero_reg.system = system;
  zero_reg.nfa = std::make_shared<Nfa>(NfaAllAB());
  QueryResult r2 = service.Submit(zero_reg).get();
  EXPECT_FALSE(r2.ok);
  EXPECT_FALSE(r2.error.empty());

  service.Drain();
  EXPECT_EQ(service.Stats().failed, 2u);

  // Healthy queries still run on the same service afterwards.
  QueryResult r3 = service.Submit(ReachRedRequest()).get();
  ASSERT_TRUE(r3.ok) << r3.error;
  EXPECT_TRUE(r3.nonempty);
}

TEST(ServiceTest, StoreTierSharedAcrossServiceRestarts) {
  const std::string dir = ServiceStoreDir("restart");

  QueryService::Options options;
  options.num_workers = 2;
  options.store_dir = dir;
  bool first_verdict;
  {
    QueryService service(options);
    QueryRequest request = ReachRedRequest();
    request.strategy = SolveStrategy::kEager;  // complete graph on disk
    QueryResult result = service.Submit(request).get();
    ASSERT_TRUE(result.ok) << result.error;
    first_verdict = result.nonempty;
    EXPECT_GE(service.Stats().store_writes, 1u);
  }
  {
    QueryService service(options);  // fresh process, same directory
    QueryResult result = service.Submit(ReachRedRequest()).get();
    ASSERT_TRUE(result.ok) << result.error;
    EXPECT_EQ(result.nonempty, first_verdict);
    EXPECT_EQ(result.stats.members_enumerated, 0u)
        << "the persisted complete graph must serve the fresh service";
    EXPECT_EQ(service.Stats().store_loads, 1u);
  }
}

TEST(ServiceTest, StoreSweepCapsTheDiskTier) {
  const std::string dir = ServiceStoreDir("sweep");
  QueryService::Options options;
  options.num_workers = 2;
  options.store_dir = dir;
  QueryService service(options);

  // Three different guard sets -> three store files.
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  for (DdsSystem zoo_system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = std::make_shared<DdsSystem>(std::move(zoo_system));
    request.cls = cls;
    request.strategy = SolveStrategy::kEager;
    ASSERT_TRUE(service.Submit(request).get().ok);
  }
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    files += entry.path().extension() == ".amg";
  }
  ASSERT_EQ(files, 3u);

  StoreSweepResult swept = service.SweepStore(/*max_bytes=*/0, /*max_files=*/1);
  EXPECT_EQ(swept.files_removed, 2u);
  EXPECT_EQ(swept.files_kept, 1u);
  EXPECT_GT(swept.bytes_removed, 0u);

  // Swept keys simply rebuild; the survivor still loads.
  QueryResult rebuilt = service.Submit(ReachRedRequest()).get();
  ASSERT_TRUE(rebuilt.ok) << rebuilt.error;
}

// ---- The JSONL protocol layer. ----

TEST(ServiceTest, ProtocolParsesZooQueryLines) {
  ProtocolRequest request = ParseRequestLine(
      R"({"id":7,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})");
  ASSERT_TRUE(request.error.empty()) << request.error;
  EXPECT_EQ(request.op, ProtocolRequest::Op::kQuery);
  EXPECT_EQ(request.id_json, "7");
  EXPECT_EQ(request.query.kind, QueryKind::kWord);
  ASSERT_NE(request.query.system, nullptr);
  ASSERT_NE(request.query.nfa, nullptr);
}

TEST(ServiceTest, ProtocolParsesSpecDescribedSystems) {
  ProtocolRequest request = ParseRequestLine(R"json({
    "id":"q1","kind":"system","class":"all",
    "schema":{"relations":[["E",2],["red",1]]},
    "system":{"registers":["x"],
              "states":[{"name":"a","initial":true},
                        {"name":"b","accepting":true}],
              "rules":[{"from":"a","to":"b","guard":"red(x_new)"}]}})json");
  ASSERT_TRUE(request.error.empty()) << request.error;
  ASSERT_NE(request.query.system, nullptr);
  EXPECT_EQ(request.query.system->num_registers(), 1);
  EXPECT_EQ(request.query.system->num_states(), 2);
  EXPECT_EQ(request.id_json, "\"q1\"");

  // The spec round-trips through a real solve.
  QueryService service;
  QueryResult result = service.Submit(std::move(request.query)).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_TRUE(result.nonempty);
}

TEST(ServiceTest, ProtocolRejectsBadLinesWithoutDying) {
  EXPECT_FALSE(ParseRequestLine("not json at all").error.empty());
  EXPECT_FALSE(ParseRequestLine("[1,2,3]").error.empty());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"nope","system":"reach_red"})").error.empty());
  EXPECT_FALSE(
      ParseRequestLine(R"({"kind":"system"})").error.empty());
  EXPECT_FALSE(ParseRequestLine(
                   R"({"kind":"branching","class":"all","system":"x"})")
                   .error.empty());
  // A guard that does not parse is reported, not thrown.
  ProtocolRequest bad_guard = ParseRequestLine(R"json({
    "kind":"system",
    "system":{"registers":["x"],
              "states":[{"name":"a","initial":true}],
              "rules":[{"from":"a","to":"a","guard":"E(x_old"}]}})json");
  EXPECT_FALSE(bad_guard.error.empty());
}

TEST(ServiceTest, JsonRoundTripsProtocolPayloads) {
  auto parsed = ParseJson(
      R"({"a":[1,2.5,-3],"b":"q\"uote","c":{"d":true,"e":null}})");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->Get("a")->array.size(), 3u);
  EXPECT_EQ(parsed->Get("b")->string, "q\"uote");
  EXPECT_TRUE(parsed->Get("c")->Get("d")->boolean);
  EXPECT_TRUE(parsed->Get("c")->Get("e")->is_null());
  // Serialize -> parse -> serialize is a fixpoint.
  const std::string once = JsonToString(*parsed);
  auto reparsed = ParseJson(once);
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(JsonToString(*reparsed), once);

  EXPECT_FALSE(ParseJson("{\"a\":}").has_value());
  EXPECT_FALSE(ParseJson("{} trailing").has_value());
  EXPECT_FALSE(ParseJson("\"unterminated").has_value());
}

TEST(ServiceTest, JsonRejectsHostileNestingDepthWithoutCrashing) {
  // One line of brackets must come back as a parse error, not blow the
  // stack and kill the daemon (the parser recurses per nesting level).
  const std::string bomb(100000, '[');
  EXPECT_FALSE(ParseJson(bomb).has_value());
  EXPECT_FALSE(ParseJson(std::string(200, '[') + std::string(200, ']'))
                   .has_value())
      << "past the documented 128-level cap";
  // Reasonable nesting still parses.
  std::string deep = std::string(50, '[') + "1" + std::string(50, ']');
  EXPECT_TRUE(ParseJson(deep).has_value());
}

}  // namespace
}  // namespace amalgam
