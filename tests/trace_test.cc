// Tests for the end-to-end query tracing pipeline: the TraceRecorder's
// span tree mechanics (nesting, retroactive intervals, annotations, JSON
// serialization, null-recorder fast path), the engine's span catalog over
// a direct solve, and the full daemon path through Session — a traced
// cold query returns an in-band "query" span tree covering queue wait,
// build and BFS; cache hits, coalesced joiners and partial-entry resumes
// each leave their distinguishing spans/annotations; a query without
// `"trace":true` records exactly zero spans; and the span catalog in
// docs/OBSERVABILITY.md names exactly the spans the scenarios record.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "gated_class.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "solver/branching.h"
#include "solver/emptiness.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

std::vector<TraceSpan> SpansNamed(const std::vector<TraceSpan>& spans,
                                  const std::string& name) {
  std::vector<TraceSpan> out;
  for (const TraceSpan& span : spans) {
    if (name == span.name) out.push_back(span);
  }
  return out;
}

const TraceAnnotation* FindAnnotation(const TraceSpan& span,
                                      const std::string& key) {
  for (const TraceAnnotation& ann : span.annotations) {
    if (ann.key == key) return &ann;
  }
  return nullptr;
}

TEST(TraceRecorderTest, NestingFollowsTheOpenStack) {
  TraceRecorder recorder;
  const int outer = recorder.BeginSpan("outer");
  const int inner = recorder.BeginSpan("inner");
  recorder.EndSpan(inner);
  const int sibling = recorder.BeginSpan("sibling");
  recorder.EndSpan(sibling);
  recorder.EndSpan(outer);
  const int root2 = recorder.BeginSpan("root2");
  recorder.EndSpan(root2);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(spans.size(), 4u);
  EXPECT_EQ(spans[outer].parent, -1);
  EXPECT_EQ(spans[inner].parent, outer);
  EXPECT_EQ(spans[sibling].parent, outer);
  EXPECT_EQ(spans[root2].parent, -1) << "closing `outer` empties the stack";
  EXPECT_GE(spans[outer].duration_ns,
            spans[inner].duration_ns + spans[sibling].duration_ns);
}

TEST(TraceRecorderTest, EndSpanPopsThroughLeakedChildren) {
  TraceRecorder recorder;
  const int outer = recorder.BeginSpan("outer");
  recorder.BeginSpan("leaked");  // never explicitly closed
  recorder.EndSpan(outer);
  // The stack must be empty again: the next span is a root, not a child
  // of the leaked one.
  const int next = recorder.BeginSpan("next");
  EXPECT_EQ(recorder.Snapshot()[next].parent, -1);
}

TEST(TraceRecorderTest, RecordSpanAttachesRetroactivelyAndClamps) {
  TraceRecorder recorder;
  // An interval that started before the recorder existed (a queue wait
  // measured from the submit timestamp) clamps to the epoch instead of
  // underflowing.
  const auto before_epoch =
      recorder.epoch() - std::chrono::milliseconds(5);
  const int open = recorder.BeginSpan("query");
  const int retro =
      recorder.RecordSpan("queue_wait", before_epoch, recorder.epoch());
  recorder.EndSpan(open);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  EXPECT_EQ(spans[retro].parent, open)
      << "a retroactive span is a child of the innermost open span";
  EXPECT_EQ(spans[retro].start_ns, 0u);
  EXPECT_EQ(spans[retro].duration_ns, 0u) << "both endpoints clamp";
}

TEST(TraceRecorderTest, ToJsonNestsChildrenAndTypesAnnotations) {
  TraceRecorder recorder;
  const int root = recorder.BeginSpan("query");
  recorder.Annotate(root, "kind", std::string("system"));
  const int child = recorder.BeginSpan("solve");
  recorder.Annotate(child, "members", std::uint64_t{42});
  recorder.EndSpan(child);
  recorder.EndSpan(root);

  const std::string text = recorder.ToJson();
  const JsonDocument doc = ParseJson(text);
  const JsonView parsed = doc.root();
  ASSERT_TRUE(parsed) << text;
  ASSERT_TRUE(parsed.is_array());
  ASSERT_EQ(parsed.size(), 1u);
  const JsonView json_root = parsed[0];
  EXPECT_EQ(json_root.GetString("name"), "query");
  ASSERT_TRUE(json_root.Get("ann"));
  EXPECT_EQ(json_root.Get("ann").GetString("kind"), "system");
  ASSERT_TRUE(json_root.Get("children"));
  ASSERT_EQ(json_root.Get("children").size(), 1u);
  const JsonView json_child = json_root.Get("children")[0];
  EXPECT_EQ(json_child.GetString("name"), "solve");
  const JsonView members = json_child.Get("ann").Get("members");
  ASSERT_TRUE(members);
  EXPECT_TRUE(members.is_number()) << "numeric annotations stay numbers";
  EXPECT_EQ(members.number(), 42.0);
}

TEST(TraceRecorderTest, NullRecorderScopedSpanIsInert) {
  ScopedSpan span(nullptr, "query");
  span.Annotate("kind", std::uint64_t{1});
  span.Annotate("role", std::string("leader"));
  EXPECT_EQ(span.id(), -1);
  EXPECT_EQ(span.recorder(), nullptr);
}

// ---- Engine-level: the span catalog over a direct solve. ----

TEST(TraceEngineTest, ColdSolveRecordsPhaseSpans) {
  const DdsSystem system = ReachRedSystem();
  const AllStructuresClass cls(GraphZooSchema());
  TraceRecorder recorder;
  SolveOptions options;
  options.trace = &recorder;
  const SolveResult result = SolveEmptiness(system, cls, options);
  ASSERT_TRUE(result.nonempty);

  const std::vector<TraceSpan> spans = recorder.Snapshot();
  ASSERT_EQ(SpansNamed(spans, "solve").size(), 1u);
  const std::vector<TraceSpan> sweeps = SpansNamed(spans, "sweep_initial");
  ASSERT_EQ(sweeps.size(), 1u);
  // FindAnnotation points into the span, so the span's vector must outlive
  // the pointer.
  const TraceAnnotation* enumerated =
      FindAnnotation(sweeps[0], "members_enumerated");
  ASSERT_NE(enumerated, nullptr);
  EXPECT_TRUE(enumerated->is_number);
  // A cache-less solve sweeps the joint members of the same positioned
  // stream a cached one does, streamed because it has no member table.
  const std::vector<TraceSpan> joints = SpansNamed(spans, "sweep_joint");
  ASSERT_EQ(joints.size(), 1u);
  for (const char* key : {"members_enumerated", "edges"}) {
    const TraceAnnotation* count = FindAnnotation(joints[0], key);
    ASSERT_NE(count, nullptr) << key;
    EXPECT_TRUE(count->is_number) << key;
  }
  const TraceAnnotation* source = FindAnnotation(joints[0], "source");
  ASSERT_NE(source, nullptr);
  EXPECT_EQ(source->value, "stream");
  // The witness phase runs by default, and reports the members it read to
  // re-derive its path's joint members.
  const std::vector<TraceSpan> witness = SpansNamed(spans, "witness");
  ASSERT_EQ(witness.size(), 1u);
  const TraceAnnotation* witness_members =
      FindAnnotation(witness[0], "members_enumerated");
  ASSERT_NE(witness_members, nullptr);
  EXPECT_TRUE(witness_members->is_number);
}

std::uint64_t NumberAnnotation(const TraceSpan& span, const std::string& key) {
  const TraceAnnotation* ann = FindAnnotation(span, key);
  EXPECT_NE(ann, nullptr) << span.name << " lacks " << key;
  if (ann == nullptr) return 0;
  EXPECT_TRUE(ann->is_number);
  return std::stoull(ann->value);
}

std::string TextAnnotation(const TraceSpan& span, const std::string& key) {
  const TraceAnnotation* ann = FindAnnotation(span, key);
  EXPECT_NE(ann, nullptr) << span.name << " lacks " << key;
  return ann == nullptr ? "" : ann->value;
}

TEST(TraceEngineTest, SweepsAnnotateTheirMemberTable) {
  // Through a cache every sweep reads its class's member table. The first
  // query, on the fly, creates the table and appends every member its
  // sweeps reach; an eager query over the same class after it reads that
  // prefix and appends the rest. No guard here needs the VM, so no member
  // is unpacked.
  const AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  const DdsSystem lazy_system = ReachRedSystem();
  TraceRecorder lazy_trace;
  SolveOptions lazy;
  lazy.build_witness = false;
  lazy.cache = &cache;
  lazy.trace = &lazy_trace;
  const SolveResult first = SolveEmptiness(lazy_system, cls, lazy);
  ASSERT_TRUE(first.nonempty);
  const std::vector<TraceSpan> lazy_spans = lazy_trace.Snapshot();
  std::uint64_t lazy_appended = 0;
  for (const char* name : {"sweep_initial", "sweep_joint"}) {
    const std::vector<TraceSpan> sweeps = SpansNamed(lazy_spans, name);
    ASSERT_EQ(sweeps.size(), 1u) << name;
    EXPECT_EQ(TextAnnotation(sweeps[0], "source"), "table");
    const std::uint64_t appended =
        NumberAnnotation(sweeps[0], "members_appended");
    EXPECT_EQ(appended, NumberAnnotation(sweeps[0], "members_enumerated"));
    EXPECT_EQ(NumberAnnotation(sweeps[0], "members_unpacked"), 0u);
    lazy_appended += appended;
  }
  EXPECT_EQ(lazy_appended, first.stats.members_appended);

  DdsSystem eager_system(GraphZooSchema());
  eager_system.AddRegister("x");
  const int s = eager_system.AddState("s", true);
  const int t = eager_system.AddState("t", false, true);
  eager_system.AddRule(s, t, "E(x_new, x_old) & !red(x_new)");
  TraceRecorder eager_trace;
  SolveOptions eager = lazy;
  eager.strategy = SolveStrategy::kEager;
  eager.trace = &eager_trace;
  const SolveResult second = SolveEmptiness(eager_system, cls, eager);
  const std::vector<TraceSpan> builds =
      SpansNamed(eager_trace.Snapshot(), "full_build");
  ASSERT_EQ(builds.size(), 1u);
  EXPECT_EQ(TextAnnotation(builds[0], "source"), "table");
  const std::uint64_t appended =
      NumberAnnotation(builds[0], "members_appended");
  EXPECT_EQ(appended, second.stats.members_appended);
  EXPECT_GT(appended, 0u);
  EXPECT_LT(appended, second.stats.members_enumerated);
  EXPECT_EQ(NumberAnnotation(builds[0], "members_unpacked"), 0u);
  EXPECT_TRUE(
      SpansNamed(eager_trace.Snapshot(), "member_table_build").empty());

  // Without a cache the sweeps stream and append nothing.
  TraceRecorder streamed_trace;
  SolveOptions cacheless = eager;
  cacheless.cache = nullptr;
  cacheless.trace = &streamed_trace;
  SolveEmptiness(eager_system, cls, cacheless);
  const std::vector<TraceSpan> streamed =
      SpansNamed(streamed_trace.Snapshot(), "full_build");
  ASSERT_EQ(streamed.size(), 1u);
  EXPECT_EQ(TextAnnotation(streamed[0], "source"), "stream");
  EXPECT_EQ(NumberAnnotation(streamed[0], "members_appended"), 0u);
}

// ---- Service/daemon-level: the acceptance span tree. ----

QueryRequest ReachRedRequest(bool traced = false) {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  if (traced) request.trace = std::make_shared<TraceRecorder>();
  return request;
}

TEST(TraceServiceTest, ColdQuerySpanTreeCoversQueueBuildAndBfs) {
  QueryService service(QueryService::Options{});
  QueryResult result = service.Submit(ReachRedRequest(/*traced=*/true)).get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_NE(result.trace, nullptr);

  const std::vector<TraceSpan> spans = result.trace->Snapshot();
  const std::vector<TraceSpan> roots = SpansNamed(spans, "query");
  ASSERT_EQ(roots.size(), 1u);
  EXPECT_EQ(roots[0].parent, -1);
  const TraceAnnotation* role = FindAnnotation(roots[0], "role");
  ASSERT_NE(role, nullptr);
  EXPECT_EQ(role->value, "leader");
  ASSERT_EQ(SpansNamed(spans, "queue_wait").size(), 1u);
  ASSERT_EQ(SpansNamed(spans, "run").size(), 1u);
  ASSERT_EQ(SpansNamed(spans, "solve").size(), 1u);
  EXPECT_FALSE(SpansNamed(spans, "sweep_initial").empty());
  EXPECT_FALSE(SpansNamed(spans, "cache_lookup").empty());
}

TEST(TraceServiceTest, CacheHitTraceSkipsTheSweeps) {
  QueryService service(QueryService::Options{});
  ASSERT_TRUE(service.Submit(ReachRedRequest()).get().ok);  // warm the cache
  QueryResult result = service.Submit(ReachRedRequest(/*traced=*/true)).get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.stats.graph_from_cache);
  ASSERT_NE(result.trace, nullptr);

  const std::vector<TraceSpan> spans = result.trace->Snapshot();
  const std::vector<TraceSpan> lookups = SpansNamed(spans, "cache_lookup");
  ASSERT_EQ(lookups.size(), 1u);
  const TraceAnnotation* hit = FindAnnotation(lookups[0], "hit");
  ASSERT_NE(hit, nullptr);
  EXPECT_EQ(hit->value, "1");
  EXPECT_TRUE(SpansNamed(spans, "sweep_initial").empty())
      << "a complete cached graph is replayed, never re-swept";
  EXPECT_FALSE(SpansNamed(spans, "bfs_replay").empty());
}

TEST(TraceServiceTest, CoalescedJoinerRecordsItsWait) {
  // Eager, so the leader leaves a complete graph and each joiner waits
  // exactly once; the gate holds the build until all seven wait.
  QueryService::Options options;
  options.num_workers = 8;
  QueryService service(options);
  const auto gated = std::make_shared<GatedClass>(
      std::make_shared<AllStructuresClass>(GraphZooSchema()), service.cache(),
      7);
  std::vector<QueryRequest> batch;
  for (int i = 0; i < 8; ++i) {
    batch.push_back(ReachRedRequest(true));
    batch.back().cls = gated;
    batch.back().strategy = SolveStrategy::kEager;
  }
  std::vector<std::future<QueryResult>> futures =
      service.SubmitBatch(std::move(batch));

  int joiners = 0;
  int leaders = 0;
  for (auto& future : futures) {
    QueryResult result = future.get();
    ASSERT_TRUE(result.ok) << result.error;
    ASSERT_NE(result.trace, nullptr);
    const std::vector<TraceSpan> spans = result.trace->Snapshot();
    EXPECT_EQ(SpansNamed(spans, "run").size(), 1u);
    const std::vector<TraceSpan> roots = SpansNamed(spans, "query");
    ASSERT_EQ(roots.size(), 1u);
    const TraceAnnotation* role = FindAnnotation(roots[0], "role");
    ASSERT_NE(role, nullptr);
    if (result.coalesced) {
      ++joiners;
      EXPECT_EQ(role->value, "joiner");
      const std::vector<TraceSpan> waits = SpansNamed(spans, "coalesced_wait");
      ASSERT_EQ(waits.size(), 1u);
      EXPECT_STREQ(spans.at(waits[0].parent).name, "cache_lookup")
          << "the wait is recorded where it happens";
      EXPECT_TRUE(SpansNamed(spans, "full_build").empty());
    } else {
      ++leaders;
      EXPECT_EQ(role->value, "leader");
      EXPECT_EQ(SpansNamed(spans, "full_build").size(), 1u);
      EXPECT_TRUE(SpansNamed(spans, "coalesced_wait").empty());
    }
  }
  EXPECT_EQ(leaders, 1);
  EXPECT_EQ(joiners, 7);
}

// Two systems that share a graph cache key but differ in acceptance: the
// accepting variant early-exits and caches a partial graph; the
// non-accepting one must resume it (see service_test.cc for the
// concurrent version of this setup).
DdsSystem RedProbeSystem(bool accepting) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  const int s = system.AddState("s", /*initial=*/true);
  const int t = system.AddState("t", /*initial=*/false, accepting);
  system.AddRule(s, t, "red(x_new)");
  return system;
}

TEST(TraceServiceTest, ResumedFlightAnnotatesTheCursor) {
  QueryService service(QueryService::Options{});
  auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  QueryRequest seed;
  seed.kind = QueryKind::kSystem;
  seed.system = std::make_shared<DdsSystem>(RedProbeSystem(true));
  seed.cls = cls;
  QueryResult seeded = service.Submit(std::move(seed)).get();
  ASSERT_TRUE(seeded.ok) << seeded.error;
  ASSERT_TRUE(seeded.nonempty) << "the accepting probe must early-exit";

  QueryRequest resume;
  resume.kind = QueryKind::kSystem;
  resume.system = std::make_shared<DdsSystem>(RedProbeSystem(false));
  resume.cls = cls;
  resume.trace = std::make_shared<TraceRecorder>();
  QueryResult result = service.Submit(std::move(resume)).get();
  ASSERT_TRUE(result.ok) << result.error;
  ASSERT_TRUE(result.stats.graph_resumed)
      << "the shared key must hold a partial entry";
  ASSERT_NE(result.trace, nullptr);

  const std::vector<TraceSpan> spans = result.trace->Snapshot();
  const std::vector<TraceSpan> solves = SpansNamed(spans, "solve");
  ASSERT_EQ(solves.size(), 1u);
  const TraceAnnotation* phase =
      FindAnnotation(solves[0], "resumed_from_phase");
  ASSERT_NE(phase, nullptr) << "a resumed solve must name its cursor phase";
  EXPECT_TRUE(phase->is_number);
  EXPECT_NE(FindAnnotation(solves[0], "resumed_from_member"), nullptr);
}

TEST(TraceServiceTest, UntracedQueryRecordsZeroSpans) {
  QueryService service(QueryService::Options{});
  QueryResult result = service.Submit(ReachRedRequest()).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.trace, nullptr)
      << "no recorder is ever allocated for an untraced query";
}

// ---- Protocol-level: the in-band "trace" member. ----

TEST(TraceProtocolTest, TracedLineReturnsSpanTreeInBand) {
  QueryService service(QueryService::Options{});
  Session::Options sopts;
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  {
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red","trace":true})");
    session.HandleLine(
        R"({"id":2,"kind":"system","class":"all","system":"reach_red"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 2u);

  const JsonDocument traced_doc = ParseJson(lines[0]);
  const JsonView traced = traced_doc.root();
  ASSERT_TRUE(traced) << lines[0];
  ASSERT_TRUE(traced.GetBool("ok"));
  const JsonView tree = traced.Get("trace");
  ASSERT_TRUE(tree) << "a traced query answers with its span tree";
  ASSERT_TRUE(tree.is_array());
  ASSERT_EQ(tree.size(), 1u);
  const JsonView root = tree[0];
  EXPECT_EQ(root.GetString("name"), "query");
  // The root's children cover the whole service-side life of the query:
  // queue wait and the build (whose own subtree holds solve/BFS phases).
  const JsonView children = root.Get("children");
  ASSERT_TRUE(children);
  bool saw_queue_wait = false;
  bool saw_build = false;
  for (const JsonView child : children.elements()) {
    if (child.GetString("name") == "queue_wait") saw_queue_wait = true;
    if (child.GetString("name") == "run") saw_build = true;
  }
  EXPECT_TRUE(saw_queue_wait);
  EXPECT_TRUE(saw_build);

  const JsonDocument untraced_doc = ParseJson(lines[1]);
  const JsonView untraced = untraced_doc.root();
  ASSERT_TRUE(untraced);
  ASSERT_TRUE(untraced.GetBool("ok"));
  EXPECT_FALSE(untraced.Get("trace"))
      << "an untraced response carries no trace member at all";
}

// ---- The span catalog in docs/OBSERVABILITY.md against recorded spans. ----

// The span names in the first column of the "Span catalog" tables.
std::set<std::string> DocumentedSpans() {
  std::ifstream in(std::string(AMALGAM_SOURCE_DIR) + "/docs/OBSERVABILITY.md");
  EXPECT_TRUE(in) << "docs/OBSERVABILITY.md is unreadable";
  std::set<std::string> names;
  bool in_catalog = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.starts_with("#")) in_catalog = line == "### Span catalog";
    if (!in_catalog || !line.starts_with("| `")) continue;
    const std::size_t end = line.find('`', 3);
    if (end != std::string::npos) names.insert(line.substr(3, end - 3));
  }
  return names;
}

void AddSpanNames(const TraceRecorder& recorder,
                  std::set<std::string>& names) {
  for (const TraceSpan& span : recorder.Snapshot()) names.insert(span.name);
}

// One scenario per way through the engine, the branching solver, the
// store and the service: a renamed or deleted span cannot leave a stale
// catalog row, and a new one cannot go undocumented.
TEST(TraceCatalogTest, DocumentedSpansAreExactlyTheRecordedOnes) {
  const AllStructuresClass cls(GraphZooSchema());
  std::set<std::string> recorded;
  {
    // Cache-less on the fly, with the witness.
    TraceRecorder trace;
    SolveOptions options;
    options.trace = &trace;
    ASSERT_TRUE(SolveEmptiness(ReachRedSystem(), cls, options).nonempty);
    AddSpanNames(trace, recorded);
  }
  {
    // Eager through a store-attached cache: a store miss, then the save.
    const std::string dir = ::testing::TempDir() + "/trace_catalog_store";
    std::filesystem::remove_all(dir);
    GraphCache cache(0, dir);
    TraceRecorder trace;
    SolveOptions options;
    options.strategy = SolveStrategy::kEager;
    options.cache = &cache;
    options.trace = &trace;
    SolveEmptiness(ReachRedSystem(), cls, options);
    AddSpanNames(trace, recorded);
    std::filesystem::remove_all(dir);
  }
  {
    // A branching query's fixpoint.
    BranchingSystem branching(GraphZooSchema());
    branching.AddRegister("x");
    const int walk = branching.AddState("walk", true);
    const int done = branching.AddState("done", false, true);
    branching.AddRule(walk, {{"E(x_old, x_new)", walk}});
    branching.AddRule(walk, {{"x_old = x_new & red(x_old)", done}});
    TraceRecorder trace;
    SolveBranchingEmptiness(branching, cls, nullptr, &trace);
    AddSpanNames(trace, recorded);
  }
  {
    // Two identical service queries: a leader and a coalesced joiner, which
    // waits for the leader's claim (the gate holds the build until it
    // does) and then replays the partial graph it left.
    QueryService::Options options;
    options.num_workers = 2;
    QueryService service(options);
    const auto gated = std::make_shared<GatedClass>(
        std::make_shared<AllStructuresClass>(GraphZooSchema()),
        service.cache(), 1);
    std::vector<QueryRequest> batch;
    for (int i = 0; i < 2; ++i) {
      batch.push_back(ReachRedRequest(true));
      batch.back().cls = gated;
    }
    int joiners = 0;
    for (auto& future : service.SubmitBatch(std::move(batch))) {
      const QueryResult result = future.get();
      ASSERT_TRUE(result.ok) << result.error;
      ASSERT_NE(result.trace, nullptr);
      AddSpanNames(*result.trace, recorded);
      if (!result.coalesced) continue;
      ++joiners;
      const std::vector<TraceSpan> spans = result.trace->Snapshot();
      EXPECT_EQ(SpansNamed(spans, "coalesced_wait").size(), 1u);
      EXPECT_EQ(SpansNamed(spans, "bfs_replay").size(), 1u);
    }
    EXPECT_EQ(joiners, 1);
  }

  const std::set<std::string> documented = DocumentedSpans();
  for (const std::string& name : recorded) {
    EXPECT_TRUE(documented.contains(name))
        << "span `" << name << "` is missing from the catalog";
  }
  for (const std::string& name : documented) {
    EXPECT_TRUE(recorded.contains(name))
        << "catalog span `" << name << "` is recorded by no scenario";
  }
}

}  // namespace
}  // namespace amalgam
