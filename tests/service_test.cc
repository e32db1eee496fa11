// Tests for the concurrent query service: single-flight coalescing of
// concurrent identical cold queries through the cache's build claims
// (exactly one graph build — one cache miss, the rest joins, in a
// schedule GatedClass fixes), verdict parity with the synchronous front doors
// across the system/words/trees zoos under mixed-key stress, graceful
// drain-during-inflight shutdown, in-band error delivery, the shared
// store tier, and the JSONL protocol layer behind amalgamd. Runs under
// the TSan CI job.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "gated_class.h"
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
  // Eight concurrent identical cold queries: the first to reach the cache
  // takes the key's build claim and builds the graph — the cache records
  // one miss — while the other seven wait on the claim (the gate holds the
  // build until all seven do), then replay the cached graph as a pure BFS
  // (zero enumeration) and count as hits.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);

  const bool expected =
      SolveEmptiness(*ReachRedRequest().system, *ReachRedRequest().cls,
                     SolveOptions{.build_witness = false})
          .nonempty;

  QueryRequest gated = ReachRedRequest();
  gated.cls = std::make_shared<GatedClass>(gated.cls, service.cache(), 7);
  std::vector<QueryRequest> batch(8, gated);
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
  // submitted at once to 4 workers. Every sweep reads the class's member
  // table: the first request creates it, and the sweeps grow it, each
  // member appended by exactly one of them while the others read it or
  // wait for it. So the summed generation cost is one k-stream plus one
  // 2k-stream, whatever the scheduling — and every verdict is the
  // cache-less front door's.
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
  EXPECT_EQ(generated, streams);
  service.Drain();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.member_table_builds, 1u);
  EXPECT_EQ(stats.member_table_hits, 31u);
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
  // N concurrent queries over one warm-but-partial cache entry must
  // perform exactly one suffix build — the query holding the key's claim
  // extends the entry, the rest wait on the claim (the gate holds the
  // extension until all seven do) and replay — instead of N duplicated
  // extension sweeps.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());

  // Seed: the accepting probe early-exits, caching a partial graph.
  QueryResult seeded = service.Submit(RedProbeRequest(true, cls)).get();
  ASSERT_TRUE(seeded.ok) << seeded.error;
  ASSERT_TRUE(seeded.nonempty);

  const std::string key = service.GraphKeyFor(RedProbeRequest(false, cls));
  std::shared_ptr<const SubTransitionGraph> cached = service.cache().Peek(key);
  ASSERT_NE(cached, nullptr);
  ASSERT_FALSE(cached->complete())
      << "the accepting seed must leave a partial entry for the key";

  // Eight concurrent queries whose verdict needs the rest of the class,
  // over a gated class with the same fingerprint, so the same key.
  QueryRequest probe = RedProbeRequest(false, cls);
  probe.cls = std::make_shared<GatedClass>(cls, service.cache(), 7);
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::vector<QueryRequest>(8, probe));
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

  // The extension completed the graph: later queries run direct, without
  // a claim, and enumerate nothing.
  cached = service.cache().Peek(key);
  ASSERT_NE(cached, nullptr);
  EXPECT_TRUE(cached->complete());
  QueryResult direct = service.Submit(RedProbeRequest(false, cls)).get();
  ASSERT_TRUE(direct.ok) << direct.error;
  EXPECT_EQ(direct.stats.members_enumerated, 0u);
  service.Drain();
  EXPECT_EQ(service.Stats().resume_leads, 1u)
      << "a complete entry is served without a claim";
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
  }  // destructor re-flushes: nothing of the session runs afterwards

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

TEST(ServiceTest, SessionInflightSlotFreesOnlyOnceItsResponseIsEmitted) {
  QueryService::Options options;
  options.num_workers = 2;
  QueryService service(options);

  // The emit hook signals that the first response is being emitted and
  // blocks there; lines 2 and 3 arrive only after that signal, while the
  // response is out of the FIFO but not yet emitted. Its slot must still
  // count against the cap, so both are refused.
  std::promise<void> emitting;
  std::promise<void> release;
  std::shared_future<void> gate = release.get_future().share();
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  Session::Options sopts;
  sopts.max_inflight = 1;
  {
    Session session(service, sopts, [&](const std::string& line) {
      bool first;
      {
        std::lock_guard<std::mutex> lock(lines_mutex);
        lines.push_back(line);
        first = lines.size() == 1;
      }
      if (first) {
        emitting.set_value();
        gate.wait();
      }
    });
    const std::string query =
        R"({"id":%,"kind":"system","class":"all","system":"reach_red"})";
    auto line_with_id = [&](int id) {
      std::string line = query;
      return line.replace(line.find('%'), 1, std::to_string(id));
    };
    session.HandleLine(line_with_id(1));
    emitting.get_future().wait();
    session.HandleLine(line_with_id(2));
    session.HandleLine(line_with_id(3));
    EXPECT_EQ(session.rejected_overload(), 2u);
    EXPECT_EQ(session.inflight(), 1);
    release.set_value();
    session.Flush();
    EXPECT_EQ(session.inflight(), 0);
  }

  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  for (int i = 1; i <= 2; ++i) {
    EXPECT_NE(lines[i].find("\"error_code\":\"overloaded\""),
              std::string::npos)
        << lines[i];
  }
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
  // vice versa), and a cold identical pair would stop sharing one build —
  // so: one cache miss and one claim per unique request, and one hit per
  // duplicate (it waited on the claim or found the finished graph),
  // across every front-door kind.
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
  EXPECT_EQ(stats.cache_hits, 4u) << "every duplicate replayed its leader's";
}

TEST(ServiceTest, OneWorkerAnswersALeaderAndItsDuplicate) {
  // A queued query holds no build claim, so a one-worker service answers
  // two identical cold queries submitted separately, in turn: the second
  // finds the first's graph.
  QueryService::Options options;
  options.num_workers = 1;
  QueryService service(options);
  QueryRequest eager = ReachRedRequest();
  eager.strategy = SolveStrategy::kEager;
  std::future<QueryResult> leader = service.Submit(eager);
  std::future<QueryResult> duplicate = service.Submit(eager);
  const QueryResult first = leader.get();
  const QueryResult second = duplicate.get();
  ASSERT_TRUE(first.ok) << first.error;
  ASSERT_TRUE(second.ok) << second.error;
  EXPECT_EQ(first.nonempty, second.nonempty);
  EXPECT_GT(first.stats.members_enumerated, 0u);
  EXPECT_EQ(second.stats.members_enumerated, 0u);
  EXPECT_TRUE(second.stats.graph_from_cache);
  EXPECT_FALSE(second.coalesced);
}

TEST(ServiceTest, FailedLeadersWaiterRetriesTheBuild) {
  // The claim holder's stream throws once its duplicate waits on the
  // claim: the leader answers the enumeration-cap error in band, its claim
  // is released by the throw, and the waiter takes the claim, builds the
  // graph itself and answers the verdict.
  QueryService::Options options;
  options.num_workers = 2;
  QueryService service(options);
  const bool expected =
      SolveEmptiness(*ReachRedRequest().system, *ReachRedRequest().cls,
                     SolveOptions{.build_witness = false})
          .nonempty;
  QueryRequest gated = ReachRedRequest();
  gated.cls = std::make_shared<GatedClass>(gated.cls, service.cache(), 1,
                                           /*throw_first=*/true);
  std::future<QueryResult> first = service.Submit(gated);
  std::future<QueryResult> second = service.Submit(gated);
  std::vector<QueryResult> results = {first.get(), second.get()};
  if (results[0].ok) std::swap(results[0], results[1]);
  const QueryResult& failed = results[0];
  const QueryResult& retried = results[1];
  EXPECT_FALSE(failed.ok);
  EXPECT_EQ(failed.error_code, EnumerationCapError::kCode);
  EXPECT_FALSE(failed.coalesced);
  ASSERT_TRUE(retried.ok) << retried.error;
  EXPECT_EQ(retried.nonempty, expected);
  EXPECT_TRUE(retried.coalesced);
  EXPECT_GT(retried.stats.members_enumerated, 0u);

  service.Drain();
  const ServiceStats stats = service.Stats();
  EXPECT_EQ(stats.failed, 1u);
  EXPECT_EQ(stats.coalesced_joins, 1u);
  EXPECT_EQ(stats.single_flight_leads, 2u) << "the waiter claimed the retry";
  EXPECT_EQ(stats.cache_misses, 2u);
}

TEST(ServiceTest, MixedKeyStressAcrossTheZoos) {
  // A shuffled pile of repeated queries across all zoos: every verdict
  // must match the synchronous answer, whatever interleaving the worker
  // pool picks and however the build claims carve up the builds.
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

TEST(ServiceTest, RecentKeyNamesTheLooseStoreFile) {
  // The recent ring's key and the loose store file's name are one FNV-1a
  // hash of the graph key, so a logged query leads to its file.
  const std::string dir = ServiceStoreDir("recent_key");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  QueryRequest request = ReachRedRequest();
  request.strategy = SolveStrategy::kEager;
  const std::string key = service.GraphKeyFor(request);
  ASSERT_TRUE(service.Submit(request).get().ok);
  service.Drain();
  const std::vector<RecentQuery> recent = service.Recent();
  ASSERT_EQ(recent.size(), 1u);
  const fs::path file = service.cache().store()->PathFor(key);
  EXPECT_EQ(file.filename().string(), "g" + recent[0].key + ".amg");
  EXPECT_TRUE(fs::exists(file));
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

TEST(ServiceTest, ProtocolBoundsTheZooSizeParameters) {
  // "rounds" and "steps" size a zoo system built while the line is
  // parsed; "extra_pattern_cap" sizes the tree pattern class. Each takes
  // an integer in [0, kMaxSizeParameter] and refuses anything else in
  // band.
  const struct {
    const char* field;
    const char* line_head;
  } kFields[] = {
      {"rounds", R"({"kind":"words","nfa":"aplus_bplus","system":"zigzag",)"},
      {"steps", R"({"kind":"trees","automaton":"two_level","system":"descend",)"},
      {"extra_pattern_cap",
       R"({"kind":"trees","automaton":"two_level","system":"descend",)"},
  };
  for (const auto& [field, line_head] : kFields) {
    SCOPED_TRACE(field);
    auto parse = [&](const std::string& value) {
      return ParseRequestLine(std::string(line_head) + "\"" + field +
                              "\":" + value + "}");
    };
    const std::string refusal = "\"" + std::string(field) +
                                "\" must be an integer in [0, " +
                                std::to_string(kMaxSizeParameter) + "]";
    EXPECT_EQ(parse(std::to_string(kMaxSizeParameter)).error, "");
    EXPECT_EQ(parse("0").error, "");
    EXPECT_EQ(parse(std::to_string(kMaxSizeParameter + 1)).error, refusal);
    EXPECT_EQ(parse("-1").error, refusal);
    EXPECT_EQ(parse("1.5").error, refusal);
    EXPECT_EQ(parse("100000").error, refusal);
    EXPECT_EQ(parse("1e300").error, refusal);
  }
  const ProtocolRequest at_bound = ParseRequestLine(
      R"({"kind":"words","nfa":"aplus_bplus","system":"zigzag","rounds":64})");
  ASSERT_NE(at_bound.query.system, nullptr);
  EXPECT_EQ(at_bound.query.system->num_states(), 2 * kMaxSizeParameter);
}

TEST(ServiceTest, ProtocolBoundsTheModCounterNfa) {
  // "nfa":"mod<p>" builds a p-state automaton while the line is parsed;
  // mod100000 used to crash the daemon. p takes an integer in
  // [2, kMaxSizeParameter].
  auto parse = [](const std::string& p) {
    return ParseRequestLine(R"({"id":1,"kind":"words","nfa":"mod)" + p +
                            R"(","system":"two_markers"})");
  };
  const std::string refusal = "\"nfa\" mod<p> must have an integer p in [2, " +
                              std::to_string(kMaxSizeParameter) + "]";
  const ProtocolRequest at_bound = parse(std::to_string(kMaxSizeParameter));
  EXPECT_EQ(at_bound.error, "");
  ASSERT_NE(at_bound.query.nfa, nullptr);
  EXPECT_EQ(at_bound.query.nfa->num_states(), kMaxSizeParameter);
  EXPECT_EQ(parse("2").error, "");
  for (const std::string p :
       {std::to_string(kMaxSizeParameter + 1), std::string("100000"),
        std::string("1"), std::string("0"), std::string("-5"),
        std::string("5x"), std::string(""), std::string("99999999999")}) {
    SCOPED_TRACE(p);
    EXPECT_EQ(parse(p).error, refusal);
  }

  // Through a session, the refusal comes back in band and the session
  // keeps serving.
  QueryService service;
  std::vector<std::string> lines;
  {
    Session session(service, Session::Options{},
                    [&](const std::string& line) { lines.push_back(line); });
    session.HandleLine(
        R"({"id":1,"kind":"words","nfa":"mod100000","system":"two_markers"})");
    session.HandleLine(
        R"({"id":2,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("mod<p> must have an integer p in [2, 64]"),
            std::string::npos)
      << lines[0];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  service.Shutdown();
}

TEST(ServiceTest, HugeSchemaArityAnswersInBandAtOnce) {
  // The atom count of a relation is d^arity: with arity 2147483647 the
  // power must not loop once per unit of the exponent.
  QueryService service;
  std::vector<std::string> lines;
  const auto start = std::chrono::steady_clock::now();
  {
    Session session(service, Session::Options{},
                    [&](const std::string& line) { lines.push_back(line); });
    session.HandleLine(
        R"({"id":1,"kind":"system","strategy":"eager",)"
        R"("schema":{"relations":[["R",2147483647]]},)"
        R"("system":{"registers":["x"],"states":[{"name":"a","initial":true},)"
        R"({"name":"b","accepting":true}],)"
        R"("rules":[{"from":"a","to":"b","guard":"x_old = x_new"}]}})");
    session.Flush();
  }
  const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                std::chrono::steady_clock::now() - start)
                                .count();
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"id\":1"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"error_code\":\"enumeration_cap\""),
            std::string::npos)
      << lines[0];
  EXPECT_LT(elapsed_ms, 100.0);
  service.Shutdown();
}

TEST(ServiceTest, ProtocolRejectsSchemaAritiesThatAreNotInts) {
  auto parse = [](const std::string& symbols) {
    return ParseRequestLine(
        R"({"kind":"system","schema":{)" + symbols +
        R"(},"system":{"registers":["x"],"states":[{"name":"a","initial":true}],)"
        R"("rules":[{"from":"a","to":"a","guard":"x_old = x_new"}]}})");
  };
  EXPECT_EQ(parse(R"("relations":[["E",2]])").error, "");
  EXPECT_EQ(parse(R"("relations":[["E",0]])").error, "");
  const std::string relation_refusal =
      "schema.relations arity of \"E\" must be an integer in [0, 2147483647]";
  for (const char* arity : {"-3", "-1", "1.5", "1e300", "2147483648"}) {
    SCOPED_TRACE(arity);
    EXPECT_EQ(parse(R"("relations":[["E",)" + std::string(arity) + "]]").error,
              relation_refusal);
  }
  EXPECT_EQ(parse(R"("functions":[["f",-1]])").error,
            "schema.functions arity of \"f\" must be an integer in [0, "
            "2147483647]");
}

TEST(ServiceTest, ProtocolEchoesIdsByteForByte) {
  // Each id, and the bytes a response echoes for it, as the owning-DOM
  // reader rendered them: integers print bare, other numbers with 17
  // significant digits, strings re-escaped (\u escapes decode to UTF-8,
  // "\/" to "/", control bytes to \u00XX), containers compactly.
  const struct {
    const char* id;
    const char* echo;
  } kCases[] = {
      {"7", "7"},
      {"-42", "-42"},
      {"0.25", "0.25"},
      {"-0", "0"},
      {"1.0", "1"},
      {"1e300", "1.0000000000000001e+300"},
      {"-1.5e-7", "-1.4999999999999999e-07"},
      {"12345678901234567890", "1.2345678901234567e+19"},
      {R"("q\"b\\sé😀/\/")", R"("q\"b\\sé😀//")"},
      {R"("😀é\u0001\t")", "\"😀é\\u0001\\t\""},
      {R"("")", R"("")"},
      {"null", "null"},
      {"true", "true"},
      {R"({"a":[1,2.5,{"b":null}],"c":"\n"})",
       R"({"a":[1,2.5,{"b":null}],"c":"\n"})"},
      {R"([ 1 , "x" , [ ] , { } ])", R"([1,"x",[],{}])"},
  };
  for (const auto& [id, echo] : kCases) {
    SCOPED_TRACE(id);
    const ProtocolRequest request =
        ParseRequestLine(R"({"id":)" + std::string(id) + R"(,"op":"drain"})");
    ASSERT_EQ(request.error, "");
    EXPECT_EQ(request.id_json, echo);
    EXPECT_EQ(FormatDrainResponse(request, ServiceStats{}),
              "{\"id\":" + std::string(echo) +
                  ",\"ok\":true,\"op\":\"drain\",\"queries\":0}");
  }
  // A repeated key echoes its first value.
  EXPECT_EQ(ParseRequestLine(R"({"op":"drain","id":1,"id":2})").id_json, "1");

  // The error lines for a line that is not an object, an unknown op and a
  // guard that does not parse.
  const struct {
    const char* line;
    const char* response;
  } kErrors[] = {
      {"[1,2]", R"({"ok":false,"error":"malformed request: not a JSON object"})"},
      {R"({"id":3,"op":"frobnicate"})",
       R"j({"id":3,"ok":false,"error":"unknown op \"frobnicate\" (known: query, stats, sweep, maintain, metrics, recent, drain, shutdown)"})j"},
      {R"({"id":4,"kind":"system","system":{"registers":["x"],"states":[{"name":"a","initial":true}],"rules":[{"from":"a","to":"a","guard":"E(x_old"}]}})",
       R"({"id":4,"ok":false,"error":"bad guard \"E(x_old\": parse error at offset 7: expected ',' or ')' in atom in \"E(x_old\""})"},
  };
  for (const auto& [line, response] : kErrors) {
    const ProtocolRequest request = ParseRequestLine(line);
    EXPECT_EQ(FormatErrorResponse(request, request.error), response);
  }
}

TEST(ServiceTest, JsonRoundTripsProtocolPayloads) {
  const JsonDocument doc = ParseJson(
      R"({"a":[1,2.5,-3],"b":"q\"uote","c":{"d":true,"e":null}})");
  const JsonView parsed = doc.root();
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed.Get("a").size(), 3u);
  EXPECT_EQ(parsed.Get("b").string(), "q\"uote");
  EXPECT_TRUE(parsed.Get("c").Get("d").boolean());
  EXPECT_TRUE(parsed.Get("c").Get("e").is_null());
  // Serialize -> parse -> serialize is a fixpoint.
  const std::string once = JsonToString(parsed);
  const JsonDocument reparsed = ParseJson(once);
  ASSERT_TRUE(reparsed.root());
  EXPECT_EQ(JsonToString(reparsed.root()), once);

  EXPECT_FALSE(ParseJson("{\"a\":}").root());
  EXPECT_FALSE(ParseJson("{} trailing").root());
  EXPECT_FALSE(ParseJson("\"unterminated").root());
}

TEST(ServiceTest, JsonRejectsHostileNestingDepthWithoutCrashing) {
  // One line of brackets must come back as a parse error, not blow the
  // stack and kill the daemon (the parser recurses per nesting level).
  const std::string bomb(100000, '[');
  EXPECT_FALSE(ParseJson(bomb).root());
  const std::string past_cap = std::string(200, '[') + std::string(200, ']');
  EXPECT_FALSE(ParseJson(past_cap).root())
      << "past the documented 128-level cap";
  // Reasonable nesting still parses.
  std::string deep = std::string(50, '[') + "1" + std::string(50, ']');
  EXPECT_TRUE(ParseJson(deep).root());
}

}  // namespace
}  // namespace amalgam
