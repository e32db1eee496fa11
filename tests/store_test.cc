// Tests for the persistent graph store: serialize/deserialize round trips
// must be byte-identical across the system/words/trees zoos, a complete
// graph persisted by one "process" (GraphCache instance) must serve a
// fresh one with zero enumeration, a persisted *partial* graph must resume
// — enumerating strictly fewer members than a cold build and finishing
// bit-identical to it — and corrupt or truncated files must fall back to
// a fresh build instead of crashing.
//
// Store directories default to the test temp dir; set AMALGAM_STORE_TEST_DIR
// to relocate them (CI points it into the build tree and uploads the
// result as an artifact).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <new>
#include <optional>
#include <random>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include <malloc.h>
#include <sys/time.h>

#include "base/canonical.h"
#include "fraisse/relational.h"
#include "solver/branching.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/store.h"
#include "system/concrete.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "trees/zoo.h"
#include "util/hash.h"
#include "words/run_class.h"
#include "words/solve.h"
#include "words/zoo.h"

// Live heap bytes, counted by this binary's own operator new and delete,
// and their peak since the last reset: the repack memory test's gauge.
namespace {
std::atomic<std::int64_t> g_live_heap{0};
std::atomic<std::int64_t> g_peak_heap{0};

void* CountedAlloc(std::size_t n) {
  void* p = std::malloc(n == 0 ? 1 : n);
  if (p == nullptr) throw std::bad_alloc();
  const auto size = static_cast<std::int64_t>(malloc_usable_size(p));
  const std::int64_t live = g_live_heap.fetch_add(size) + size;
  std::int64_t peak = g_peak_heap.load();
  while (live > peak && !g_peak_heap.compare_exchange_weak(peak, live)) {
  }
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

namespace fs = std::filesystem;

// A fresh, empty store directory for one test. Left in place afterwards so
// CI can upload the persisted files.
std::string StoreDir(const std::string& name) {
  const char* env = std::getenv("AMALGAM_STORE_TEST_DIR");
  const fs::path base =
      (env && *env) ? fs::path(env) : fs::path(::testing::TempDir());
  const fs::path dir = base / ("graph_store_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

// The graph key of `guards` over `backend`, as a system over the
// backend's own schema with one rule per guard derives it.
std::string KeyOf(const SolverBackend& backend, int k,
                  std::span<const FormulaRef> guards) {
  std::vector<std::string> printed;
  for (const FormulaRef& guard : guards) {
    printed.push_back(guard->ToString(*backend.schema()));
  }
  std::vector<RuleGuard> rules;
  for (std::size_t i = 0; i < guards.size(); ++i) {
    rules.push_back(RuleGuard{guards[i], printed[i]});
  }
  return MakeGraphContext(BorrowBackend(backend), *backend.schema(), k, rules)
      .key;
}

void ExpectRoundTripIdentical(const SubTransitionGraph& graph,
                              const std::string& key, const SchemaRef& schema,
                              std::span<const FormulaRef> guards, int k) {
  const std::string bytes = SerializeGraph(graph, key);
  std::shared_ptr<SubTransitionGraph> restored =
      DeserializeGraph(bytes, key, schema, guards, k);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->num_shapes(), graph.num_shapes());
  EXPECT_EQ(restored->num_edges(), graph.num_edges());
  EXPECT_EQ(restored->cursor(), graph.cursor());
  EXPECT_EQ(restored->complete(), graph.complete());
  EXPECT_EQ(SerializeGraph(*restored, key), bytes)
      << "serialize(deserialize(bytes)) must be byte-identical";
}

TEST(StoreTest, CompleteGraphsRoundTripByteIdenticalAcrossTheZoos) {
  // System zoo over the relational class.
  AllStructuresClass all(GraphZooSchema());
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    std::vector<FormulaRef> guards = GuardsOf(system);
    const int k = system.num_registers();
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(MemberSource{all}, stats);
    ExpectRoundTripIdentical(graph, KeyOf(all, k, guards), all.schema(),
                             guards, k);
  }

  // Words zoo: run-pattern class of an NFA.
  {
    DdsSystem system = ZigZagSystem(1);
    WordRunClass cls(NfaAPlusBPlus());
    std::vector<FormulaRef> guards = GuardsOf(system);
    const int k = system.num_registers();
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(MemberSource{cls}, stats);
    ExpectRoundTripIdentical(graph, KeyOf(cls, k, guards), cls.schema(),
                             guards, k);
  }

  // Trees zoo: run-pattern class of a tree automaton.
  {
    TreeAutomaton two = TaTwoLevel();
    DdsSystem system = DescendSystem(two, 1);
    TreeRunClass cls(&two, 3);
    std::vector<FormulaRef> guards = GuardsOf(system);
    const int k = system.num_registers();
    SubTransitionGraph graph(guards, k);
    SolveStats stats;
    graph.BuildFull(MemberSource{cls}, stats);
    ExpectRoundTripIdentical(graph, KeyOf(cls, k, guards), cls.schema(),
                             guards, k);
  }
}

TEST(StoreTest, PartialGraphsRoundTripWithTheirCursor) {
  // An early-exited on-the-fly query leaves a partial graph in the cache;
  // its serialization must carry the cursor and restore bit-identically.
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;
  SolveResult r = SolveEmptiness(system, all, options);
  ASSERT_TRUE(r.nonempty);

  const std::string key = KeyOf(all, k, guards);
  std::shared_ptr<const SubTransitionGraph> partial = cache.Lookup(key);
  ASSERT_NE(partial, nullptr);
  ASSERT_FALSE(partial->complete()) << "nonempty query should early-exit";
  EXPECT_GT(partial->num_shapes(), 0);
  ExpectRoundTripIdentical(*partial, key, all.schema(), guards, k);
}

TEST(StoreTest, CompleteGraphServesAFreshProcessWithZeroEnumeration) {
  const std::string dir = StoreDir("fresh_process");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();  // empty: builds to completion

  GraphCache building(0, dir);
  SolveOptions first;
  first.build_witness = false;
  first.cache = &building;
  SolveResult built = SolveEmptiness(system, all, first);
  EXPECT_FALSE(built.nonempty);
  EXPECT_FALSE(built.stats.graph_from_cache);
  EXPECT_GT(built.stats.members_enumerated, 0u);
  ASSERT_FALSE(fs::is_empty(dir)) << "the complete graph must be persisted";

  // A fresh process: nothing shared with the first query but the
  // directory.
  GraphCache fresh(0, dir);
  SolveOptions second;
  second.build_witness = false;
  second.cache = &fresh;
  SolveResult served = SolveEmptiness(system, all, second);
  EXPECT_TRUE(served.stats.graph_from_cache);
  EXPECT_FALSE(served.stats.graph_resumed);
  EXPECT_EQ(served.stats.members_enumerated, 0u);
  EXPECT_EQ(served.stats.guard_evaluations, 0u);
  EXPECT_EQ(served.nonempty, built.nonempty);
  EXPECT_EQ(served.stats.edges, built.stats.edges);
  EXPECT_EQ(served.stats.configs, built.stats.configs);
  EXPECT_EQ(fresh.store_loads(), 1u);
  EXPECT_EQ(fresh.store_load_failures(), 0u);
}

TEST(StoreTest, PartialGraphResumesAcrossProcessesWithFewerMembers) {
  const std::string dir = StoreDir("partial_resume");
  AllStructuresClass all(GraphZooSchema());

  DdsSystem reach(GraphZooSchema());
  reach.AddRegister("x");
  int a1 = reach.AddState("a", true);
  int b1 = reach.AddState("b", false, true);
  reach.AddRule(a1, b1, "E(x_old, x_new)");

  DdsSystem dead(GraphZooSchema());
  dead.AddRegister("x");
  int a2 = dead.AddState("a", true);
  int b2 = dead.AddState("b");
  dead.AddRule(a2, b2, "E(x_old, x_new)");

  SolveOptions plain;
  plain.build_witness = false;
  const SolveResult cold = SolveEmptiness(dead, all, plain);
  ASSERT_GT(cold.stats.members_enumerated, 0u);

  // Process 1: nonempty query early-exits; the partial graph hits disk.
  GraphCache writer(0, dir);
  SolveOptions first = plain;
  first.cache = &writer;
  SolveResult r1 = SolveEmptiness(reach, all, first);
  EXPECT_TRUE(r1.nonempty);
  EXPECT_GT(writer.store_writes(), 0u);

  // Process 2: same guard set, empty verdict — needs the rest of the
  // class, resumed from the stored cursor.
  GraphCache reader(0, dir);
  SolveOptions second = plain;
  second.cache = &reader;
  SolveResult r2 = SolveEmptiness(dead, all, second);
  EXPECT_FALSE(r2.nonempty);
  EXPECT_TRUE(r2.stats.graph_from_cache);
  EXPECT_TRUE(r2.stats.graph_resumed);
  EXPECT_GT(r2.stats.members_enumerated, 0u);
  EXPECT_LT(r2.stats.members_enumerated, cold.stats.members_enumerated)
      << "a resumed build must enumerate strictly fewer members than a "
         "cold build";
  EXPECT_EQ(r2.stats.edges, cold.stats.edges);

  // Process 3: the resumed build upgraded the stored graph to complete.
  GraphCache third(0, dir);
  SolveOptions final_query = plain;
  final_query.cache = &third;
  SolveResult r3 = SolveEmptiness(dead, all, final_query);
  EXPECT_EQ(r3.stats.members_enumerated, 0u);
  EXPECT_FALSE(r3.stats.graph_resumed);
  EXPECT_FALSE(r3.nonempty);
}

TEST(StoreTest, ResumedBuildsAreBitIdenticalToColdBuilds) {
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ReachRedSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  const std::string key = KeyOf(all, k, guards);

  // A partial graph from an early-exited query...
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;
  ASSERT_TRUE(SolveEmptiness(system, all, options).nonempty);
  std::shared_ptr<const SubTransitionGraph> partial = cache.Lookup(key);
  ASSERT_NE(partial, nullptr);
  ASSERT_FALSE(partial->complete());

  // ...finished, against a cold full build.
  SubTransitionGraph cold(guards, k);
  SolveStats cold_stats;
  cold.BuildFull(MemberSource{all}, cold_stats);

  SubTransitionGraph resumed(*partial);
  SolveStats resumed_stats;
  resumed.BuildFull(MemberSource{all}, resumed_stats);
  EXPECT_LT(resumed_stats.members_enumerated, cold_stats.members_enumerated);
  EXPECT_EQ(SerializeGraph(resumed, key), SerializeGraph(cold, key));

  // And a restored copy resumes just like the in-memory original.
  std::shared_ptr<SubTransitionGraph> reloaded = DeserializeGraph(
      SerializeGraph(*partial, key), key, all.schema(), guards, k);
  ASSERT_NE(reloaded, nullptr);
  SolveStats reloaded_stats;
  reloaded->BuildFull(MemberSource{all}, reloaded_stats);
  EXPECT_EQ(SerializeGraph(*reloaded, key), SerializeGraph(cold, key));
}

TEST(StoreTest, CorruptOrTruncatedFilesFallBackToAFreshBuild) {
  const std::string dir = StoreDir("corrupt_fallback");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  const std::string key = KeyOf(all, k, guards);

  GraphCache seeding(0, dir);
  SolveOptions seed;
  seed.build_witness = false;
  seed.cache = &seeding;
  const SolveResult reference = SolveEmptiness(system, all, seed);

  const std::string path = GraphStore(dir).PathFor(key);
  ASSERT_TRUE(fs::exists(path));
  const auto full_size = fs::file_size(path);

  auto query_against_store = [&](std::uint64_t* load_failures) {
    GraphCache cache(0, dir);
    SolveOptions options;
    options.build_witness = false;
    options.cache = &cache;
    SolveResult r = SolveEmptiness(system, all, options);
    *load_failures = cache.store_load_failures();
    return r;
  };

  // Truncated file: the query must rebuild, not crash — and the rebuild
  // overwrites the damage.
  fs::resize_file(path, full_size / 2);
  std::uint64_t failures = 0;
  SolveResult after_truncation = query_against_store(&failures);
  EXPECT_EQ(failures, 1u);
  EXPECT_FALSE(after_truncation.stats.graph_from_cache);
  EXPECT_GT(after_truncation.stats.members_enumerated, 0u);
  EXPECT_EQ(after_truncation.nonempty, reference.nonempty);
  EXPECT_EQ(fs::file_size(path), full_size) << "rebuild must repair the file";

  // Flipped byte in the middle: caught by the checksum.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekg(static_cast<std::streamoff>(full_size / 2));
    char byte = 0;
    f.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0x5a);
    f.seekp(static_cast<std::streamoff>(full_size / 2));
    f.write(&byte, 1);
  }
  SolveResult after_corruption = query_against_store(&failures);
  EXPECT_EQ(failures, 1u);
  EXPECT_FALSE(after_corruption.stats.graph_from_cache);
  EXPECT_EQ(after_corruption.nonempty, reference.nonempty);

  // Empty file (e.g. a crashed writer before the atomic rename existed).
  { std::ofstream wipe(path, std::ios::binary | std::ios::trunc); }
  SolveResult after_wipe = query_against_store(&failures);
  EXPECT_EQ(failures, 1u);
  EXPECT_EQ(after_wipe.nonempty, reference.nonempty);

  // And once repaired, a fresh cache serves from disk again.
  std::uint64_t no_failures = 0;
  SolveResult healthy = query_against_store(&no_failures);
  EXPECT_EQ(no_failures, 0u);
  EXPECT_TRUE(healthy.stats.graph_from_cache);
  EXPECT_EQ(healthy.stats.members_enumerated, 0u);
}

TEST(StoreTest, DeserializeRejectsMismatchedContext) {
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  const std::string key = KeyOf(all, k, guards);
  SubTransitionGraph graph(guards, k);
  SolveStats stats;
  graph.BuildFull(MemberSource{all}, stats);
  const std::string bytes = SerializeGraph(graph, key);

  EXPECT_NE(DeserializeGraph(bytes, key, all.schema(), guards, k), nullptr);
  // Wrong key (a filename hash collision would look like this).
  EXPECT_EQ(DeserializeGraph(bytes, "other", all.schema(), guards, k),
            nullptr);
  // Wrong register count.
  EXPECT_EQ(DeserializeGraph(bytes, key, all.schema(), guards, k + 1),
            nullptr);
  // Wrong guard count.
  std::vector<FormulaRef> no_guards;
  EXPECT_EQ(DeserializeGraph(bytes, key, all.schema(), no_guards, k),
            nullptr);
  // Wrong schema.
  LinearOrderClass orders;
  EXPECT_EQ(DeserializeGraph(bytes, key, orders.schema(), guards, k),
            nullptr);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFile(const std::string& path, std::string_view bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

// `payload` followed by its record trailer: the 8-byte little-endian
// FNV-1a 64 of the payload (docs/STORE_FORMAT.md).
std::string WithChecksum(std::string_view payload) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : payload) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  std::string out(payload);
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(h >> (8 * i)));
  return out;
}

TEST(StoreTest, VersionSkewedRecordsReadAsMissesAndAreReplaced) {
  // A record of the previous format version — restamped and re-checksummed,
  // so only the version byte is wrong — in either tier: a fresh process
  // misses, builds the right verdict, and its write-through replaces the
  // record with a current one.
  AllStructuresClass all(GraphZooSchema());
  const DdsSystem system = ReachRedSystem();
  const std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  const std::string key = KeyOf(all, k, guards);
  SubTransitionGraph graph(guards, k);
  SolveStats stats;
  graph.BuildFull(MemberSource{all}, stats);
  const std::string current = SerializeGraph(graph, key);
  // "AMGS", then the version as a one-byte varint.
  ASSERT_EQ(current[4], static_cast<char>(kGraphStoreFormatVersion));
  std::string stale = current.substr(0, current.size() - 8);
  stale[4] = 1;
  stale = WithChecksum(stale);
  ASSERT_EQ(DeserializeGraph(stale, key, all.schema(), guards, k), nullptr);

  const SolveOptions eager{.build_witness = false,
                           .strategy = SolveStrategy::kEager};
  const SolveResult reference = SolveEmptiness(system, all, eager);
  auto query_against_store = [&](const std::string& dir) {
    GraphCache cache(0, dir);
    SolveOptions options = eager;
    options.cache = &cache;
    SolveResult r = SolveEmptiness(system, all, options);
    EXPECT_EQ(r.nonempty, reference.nonempty);
    EXPECT_EQ(r.stats.edges, reference.stats.edges);
    return std::pair<SolveResult, std::uint64_t>(std::move(r),
                                                 cache.store_writes());
  };
  auto expect_miss_then_replaced = [&](const std::string& dir) {
    const auto [rebuilt, writes] = query_against_store(dir);
    EXPECT_FALSE(rebuilt.stats.graph_from_cache);
    EXPECT_GT(rebuilt.stats.members_enumerated, 0u);
    EXPECT_EQ(writes, 1u) << "the fresh build must replace the stale record";
    EXPECT_EQ(ReadFile(GraphStore(dir).PathFor(key)), current);
    const auto [served, no_writes] = query_against_store(dir);
    EXPECT_TRUE(served.stats.graph_from_cache);
    EXPECT_EQ(served.stats.members_enumerated, 0u);
    EXPECT_EQ(no_writes, 0u);
  };

  {
    SCOPED_TRACE("loose file");
    const std::string dir = StoreDir("version_skew_loose");
    WriteFile(GraphStore(dir).PathFor(key), stale);
    expect_miss_then_replaced(dir);
  }
  {
    SCOPED_TRACE("pack entry");
    const std::string dir = StoreDir("version_skew_pack");
    GraphStore store(dir);
    ASSERT_TRUE(store.Save(key, graph));
    ASSERT_TRUE(store.Repack().performed);
    ASSERT_EQ(store.LooseFileCount(), 0u);
    // Same length, so the index still binds to the restamped pack.
    std::string pack = ReadFile(store.PackPath());
    const std::size_t at = pack.find(current);
    ASSERT_NE(at, std::string::npos);
    pack.replace(at, stale.size(), stale);
    WriteFile(store.PackPath(), pack);
    ASSERT_EQ(GraphStore(dir).PackEntryCount(), 1u);
    expect_miss_then_replaced(dir);
  }
}

// A version-2 record of reach_red's complete graph over the E/red graphs,
// under its SystemGraphContext key, as the previous store format wrote it:
// each shape as its structure, marks, canonical key and permutation.
constexpr char kReachRedVersion2[] =
    "\x41\x4d\x47\x53\x02\x4b\x33\x35\x3a\x61\x6c\x6c\x2d\x73\x74\x72"
    "\x75\x63\x74\x75\x72\x65\x73\x7c\x52\x32\x3b\x31\x3a\x45\x2f\x32"
    "\x3b\x33\x3a\x72\x65\x64\x2f\x31\x3b\x46\x30\x3b\x1f\x31\x1f\x39"
    "\x3a\x45\x28\x76\x30\x2c\x20\x76\x31\x29\x1f\x31\x39\x3a\x28\x76"
    "\x30\x20\x3d\x20\x76\x31\x20\x26\x20\x72\x65\x64\x28\x76\x30\x29"
    "\x29\x01\x02\x02\x00\x12\x02\x01\x45\x02\x03\x72\x65\x64\x01\x00"
    "\x04\x01\x00\x00\x01\x00\x05\x00\x01\x01\x00\x00\x00\x01\x01\x00"
    "\x01\x00\x05\x00\x01\x01\x01\x00\x00\x01\x00\x01\x01\x00\x05\x00"
    "\x01\x01\x00\x01\x00\x01\x01\x01\x01\x00\x05\x00\x01\x01\x01\x01"
    "\x00\x04\x00\x01\x02\x03\x04\x00\x00\x00\x01\x00\x02\x00\x03\x04"
    "\x00\x01\x00\x00\x00\x02\x00\x03\x05\x01\x02\x00\x00\x00\x01\x00"
    "\x02\x00\x03\x05\x00\x03\x01\x03\x00\x00\x00\x01\x00\x02\x41\x9c"
    "\x49\xa0\x64\x1f\xae\xc4";

TEST(StoreTest, Version2RecordReadsAsAMissAndIsRebuiltToTheSameGraph) {
  AllStructuresClass all(GraphZooSchema());
  const DdsSystem system = ReachRedSystem();
  const GraphContext ctx = SystemGraphContext(BorrowBackend(all), system);
  const std::string_view stale(kReachRedVersion2,
                               sizeof(kReachRedVersion2) - 1);
  ASSERT_EQ(stale[4], 2) << "the fixture is a version-2 record";
  ASSERT_NE(stale.find(ctx.key), std::string_view::npos)
      << "the fixture is stored under reach_red's key";
  EXPECT_EQ(DeserializeGraph(stale, ctx.key, all.schema(), ctx.guards, ctx.k),
            nullptr);

  SubTransitionGraph cold(ctx.guards, ctx.k);
  SolveStats cold_stats;
  cold.BuildFull(MemberSource{all}, cold_stats);
  const std::string dir = StoreDir("version2_fixture");
  WriteFile(GraphStore(dir).PathFor(ctx.key), stale);
  {
    GraphCache cache(0, dir);
    SolveOptions options{.build_witness = false,
                         .strategy = SolveStrategy::kEager,
                         .cache = &cache};
    const SolveResult r = SolveEmptiness(system, all, options);
    EXPECT_TRUE(r.nonempty);
    EXPECT_FALSE(r.stats.graph_from_cache);
    EXPECT_GT(r.stats.members_enumerated, 0u);
    EXPECT_EQ(cache.store_writes(), 1u);
    const auto rebuilt = cache.Peek(ctx.key);
    ASSERT_NE(rebuilt, nullptr);
    EXPECT_EQ(SerializeGraph(*rebuilt, ctx.key),
              SerializeGraph(cold, ctx.key));
  }
  // The rebuilt record replaced the stale one and serves the next process.
  EXPECT_EQ(ReadFile(GraphStore(dir).PathFor(ctx.key)),
            SerializeGraph(cold, ctx.key));
  GraphCache fresh(0, dir);
  SolveOptions options{.build_witness = false, .cache = &fresh};
  const SolveResult served = SolveEmptiness(system, all, options);
  EXPECT_TRUE(served.nonempty);
  EXPECT_TRUE(served.stats.graph_from_cache);
  EXPECT_EQ(served.stats.members_enumerated, 0u);
}

// A complete format-3 record of reach_red's graph over the E/red graphs,
// under its SystemGraphContext key, as SerializeGraph wrote it while
// Canonicalize still built a renamed structure for every candidate
// ordering. It pins the persisted canonical key bytes: a canonicalizer
// that encodes candidates differently must still load this record and
// write these bytes.
constexpr char kReachRedVersion3[] =
    "\x41\x4d\x47\x53\x03\x4b\x33\x35\x3a\x61\x6c\x6c\x2d\x73\x74\x72"
    "\x75\x63\x74\x75\x72\x65\x73\x7c\x52\x32\x3b\x31\x3a\x45\x2f\x32"
    "\x3b\x33\x3a\x72\x65\x64\x2f\x31\x3b\x46\x30\x3b\x1f\x31\x1f\x39"
    "\x3a\x45\x28\x76\x30\x2c\x20\x76\x31\x29\x1f\x31\x39\x3a\x28\x76"
    "\x30\x20\x3d\x20\x76\x31\x20\x26\x20\x72\x65\x64\x28\x76\x30\x29"
    "\x29\x01\x02\x02\x00\x12\x02\x01\x45\x02\x03\x72\x65\x64\x01\x00"
    "\x04\x05\x00\x01\x01\x00\x00\x05\x00\x01\x01\x01\x00\x05\x00\x01"
    "\x01\x00\x01\x05\x00\x01\x01\x01\x01\x04\x00\x01\x02\x03\x04\x00"
    "\x00\x00\x01\x00\x02\x00\x03\x04\x00\x01\x00\x00\x00\x02\x00\x03"
    "\x05\x01\x02\x00\x00\x00\x01\x00\x02\x00\x03\x05\x00\x03\x01\x03"
    "\x00\x00\x00\x01\x00\x02\x94\xab\x45\x6c\xf7\x6c\xc0\xeb";

TEST(StoreTest, Version3RecordLoadsCompleteWithItsShapeKeys) {
  AllStructuresClass all(GraphZooSchema());
  const DdsSystem system = ReachRedSystem();
  const GraphContext ctx = SystemGraphContext(BorrowBackend(all), system);
  const std::string_view record(kReachRedVersion3,
                                sizeof(kReachRedVersion3) - 1);
  ASSERT_EQ(kGraphStoreFormatVersion, 3u);
  ASSERT_EQ(record[4], 3) << "the fixture is a version-3 record";
  const auto loaded =
      DeserializeGraph(record, ctx.key, all.schema(), ctx.guards, ctx.k);
  ASSERT_NE(loaded, nullptr);
  EXPECT_TRUE(loaded->complete());

  SubTransitionGraph cold(ctx.guards, ctx.k);
  SolveStats cold_stats;
  cold.BuildFull(MemberSource{all}, cold_stats);
  ASSERT_EQ(loaded->num_shapes(), cold.num_shapes());
  for (int id = 0; id < cold.num_shapes(); ++id) {
    const std::string_view key = loaded->interner().shape(id).key;
    EXPECT_EQ(key, cold.interner().shape(id).key) << "shape " << id;
    Structure structure(all.schema(), 0);
    std::vector<Elem> marks;
    ASSERT_TRUE(DecodeCanonicalKey(key, all.schema(),
                                   static_cast<std::size_t>(ctx.k),
                                   &structure, &marks));
    EXPECT_EQ(Canonicalize(structure, marks).key, key) << "shape " << id;
  }
  EXPECT_EQ(SerializeGraph(*loaded, ctx.key), record);
  EXPECT_EQ(SerializeGraph(cold, ctx.key), record);
}

// A decoded graph is safe to serve: every shape key decodes to a
// well-formed structure with its marks in range (what a witness reads),
// BFS from its initial shapes stays in range, and it re-serializes to
// bytes that decode again.
void ExpectServable(const SubTransitionGraph& graph, const std::string& key,
                    const SchemaRef& schema,
                    std::span<const FormulaRef> guards, int k) {
  const int num_shapes = graph.num_shapes();
  const int num_guards = static_cast<int>(guards.size());
  for (int id = 0; id < num_shapes; ++id) {
    Structure structure(schema, 0);
    std::vector<Elem> marks;
    ASSERT_TRUE(DecodeCanonicalKey(graph.interner().shape(id).key, schema,
                                   static_cast<std::size_t>(k), &structure,
                                   &marks));
    ASSERT_EQ(marks.size(), static_cast<std::size_t>(k));
    for (Elem m : marks) ASSERT_LT(m, structure.size());
  }
  std::vector<char> seen(num_shapes, 0);
  std::vector<int> queue;
  for (int shape : graph.initial_shapes()) {
    ASSERT_GE(shape, 0);
    ASSERT_LT(shape, num_shapes);
    if (!seen[shape]) {
      seen[shape] = 1;
      queue.push_back(shape);
    }
  }
  for (std::size_t i = 0; i < queue.size(); ++i) {
    for (const SubTransitionGraph::Edge& e : graph.edges_from(queue[i])) {
      ASSERT_GE(e.guard, 0);
      ASSERT_LT(e.guard, num_guards);
      ASSERT_GE(e.new_shape, 0);
      ASSERT_LT(e.new_shape, num_shapes);
      if (!seen[e.new_shape]) {
        seen[e.new_shape] = 1;
        queue.push_back(e.new_shape);
      }
    }
  }
  EXPECT_NE(DeserializeGraph(SerializeGraph(graph, key), key, schema, guards,
                             k),
            nullptr);
}

TEST(StoreTest, DeserializeSurvivesEveryTruncationAndSeededMutations) {
  // Each zoo graph's record — relational, word and tree, complete and
  // partial — cut at every length, and single-byte mutations from a fixed
  // seed, with the checksum recomputed, so the damage reaches the parser
  // instead of stopping at the checksum. A format-3 record holds each
  // shape as its canonical key alone, so mutations land in the keys the
  // witness path decodes. Every input decodes to nullptr or to a graph
  // that ExpectServable accepts.
  struct Record {
    std::string name;
    std::string key;
    SchemaRef schema;
    std::vector<FormulaRef> guards;
    int k;
    std::string bytes;
  };
  std::vector<Record> records;
  auto add = [&](std::string name, const SubTransitionGraph& graph,
                 const SolverBackend& backend) {
    std::string key = KeyOf(backend, graph.k(), graph.guards());
    std::string bytes = SerializeGraph(graph, key);
    records.push_back(Record{std::move(name), std::move(key),
                             backend.schema(), graph.guards(), graph.k(),
                             std::move(bytes)});
  };
  auto add_complete = [&](std::string name, const DdsSystem& system,
                          const SolverBackend& backend) {
    SubTransitionGraph graph(GuardsOf(system), system.num_registers());
    SolveStats stats;
    graph.BuildFull(MemberSource{backend}, stats);
    add(std::move(name), graph, backend);
  };
  AllStructuresClass all(GraphZooSchema());
  add_complete("odd_red_cycle", OddRedCycleSystem(), all);
  add_complete("reach_red", ReachRedSystem(), all);
  add_complete("contradiction", ContradictionSystem(), all);
  WordRunClass words(NfaAPlusBPlus());
  add_complete("words_zigzag", ZigZagSystem(1), words);
  TreeAutomaton two = TaTwoLevel();
  TreeRunClass trees(&two, 3);
  add_complete("trees_descend", DescendSystem(two, 1), trees);
  {
    GraphCache cache;
    SolveOptions options{.build_witness = false, .cache = &cache};
    const DdsSystem system = ReachRedSystem();
    ASSERT_TRUE(SolveEmptiness(system, all, options).nonempty);
    const auto partial =
        cache.Lookup(SystemGraphContext(BorrowBackend(all), system).key);
    ASSERT_NE(partial, nullptr);
    ASSERT_FALSE(partial->complete());
    add("reach_red_partial", *partial, all);
  }
  {
    // A word graph stopped at its first edge.
    const DdsSystem system = ZigZagSystem(1);
    SubTransitionGraph graph(GuardsOf(system), system.num_registers());
    SolveStats stats;
    graph.SweepInitial(MemberSource{words}, stats, ~std::uint64_t{0},
                       nullptr);
    graph.SweepJoint(MemberSource{words}, stats, ~std::uint64_t{0},
                     [](int, int, int) { return false; });
    ASSERT_FALSE(graph.complete());
    ASSERT_GT(graph.num_edges(), 0u);
    add("words_zigzag_partial", graph, words);
  }

  std::mt19937 rng(17);
  std::uint64_t mutants_decoded = 0;
  for (const Record& rec : records) {
    SCOPED_TRACE(rec.name);
    auto check = [&](const std::string& bytes) {
      const auto graph =
          DeserializeGraph(bytes, rec.key, rec.schema, rec.guards, rec.k);
      if (graph) ExpectServable(*graph, rec.key, rec.schema, rec.guards, rec.k);
      return graph != nullptr;
    };
    const std::string_view payload(rec.bytes.data(), rec.bytes.size() - 8);
    for (std::size_t cut = 0; cut < rec.bytes.size(); ++cut) {
      check(rec.bytes.substr(0, cut));
      if (cut < payload.size()) check(WithChecksum(payload.substr(0, cut)));
    }
    for (int i = 0; i < 512; ++i) {
      std::string mutated(payload);
      const std::size_t at = rng() % mutated.size();
      mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng() % 255));
      mutants_decoded += check(WithChecksum(mutated));
    }
  }
  // Some mutations land where any value parses (a cursor position, a
  // canonical key byte): the parser's accept path was exercised too.
  EXPECT_GT(mutants_decoded, 0u);
}

TEST(StoreTest, WordTreeAndBranchingFrontDoorsPersist) {
  // Each query gets its own cache over the directory: the "first" and
  // "second" process share nothing but the store.
  //
  // Words: a nonempty query persists a partial graph whose explored region
  // already contains the goal — the "second process" answers with zero
  // enumeration and still reconstructs a valid witness from the restored
  // steps.
  {
    const std::string dir = StoreDir("words");
    DdsSystem system = ZigZagSystem(1);
    Nfa nfa = NfaAPlusBPlus();
    GraphCache first_process(0, dir), second_process(0, dir);
    WordSolveResult first =
        SolveWordEmptiness(system, nfa, true, SolveStrategy::kOnTheFly,
                           &first_process);
    WordSolveResult second =
        SolveWordEmptiness(system, nfa, true, SolveStrategy::kOnTheFly,
                           &second_process);
    EXPECT_EQ(first.nonempty, second.nonempty);
    EXPECT_GT(first.stats.members_enumerated, 0u);
    EXPECT_EQ(second.stats.members_enumerated, 0u);
    EXPECT_TRUE(second.stats.graph_from_cache);
    if (second.nonempty && second.witness.has_value()) {
      EXPECT_TRUE(nfa.Accepts(second.witness->letters));
    }
  }

  // Trees.
  {
    const std::string dir = StoreDir("trees");
    TreeAutomaton two = TaTwoLevel();
    DdsSystem system = DescendSystem(two, 1);
    GraphCache first_process(0, dir), second_process(0, dir);
    TreeSolveResult first = SolveTreeEmptiness(
        system, two, 0, 3, SolveStrategy::kOnTheFly, &first_process);
    TreeSolveResult second = SolveTreeEmptiness(
        system, two, 0, 3, SolveStrategy::kOnTheFly, &second_process);
    EXPECT_EQ(first.nonempty, second.nonempty);
    EXPECT_GT(first.stats.members_enumerated, 0u);
    EXPECT_EQ(second.stats.members_enumerated, 0u);
  }

  // Branching: always builds to completion, so the second query is a pure
  // store hit.
  {
    const std::string dir = StoreDir("branching");
    AllStructuresClass all(GraphZooSchema());
    BranchingSystem bs(GraphZooSchema());
    bs.AddRegister("x");
    int start = bs.AddState("start", true);
    int red = bs.AddState("red_found", false, true);
    int white = bs.AddState("white_found", false, true);
    bs.AddRule(start, {{"E(x_old, x_new) & red(x_new)", red},
                       {"E(x_old, x_new) & !red(x_new)", white}});
    GraphCache first_process(0, dir), second_process(0, dir);
    BranchingSolveResult first =
        SolveBranchingEmptiness(bs, all, &first_process);
    BranchingSolveResult second =
        SolveBranchingEmptiness(bs, all, &second_process);
    EXPECT_EQ(first.nonempty, second.nonempty);
    EXPECT_GT(first.stats.members_enumerated, 0u);
    EXPECT_EQ(second.stats.members_enumerated, 0u);
    EXPECT_TRUE(second.stats.graph_from_cache);
  }

  // And across front doors: a linear query's partial graph feeds a
  // branching query over the same guard set, which resumes rather than
  // rebuilds.
  {
    const std::string dir = StoreDir("cross_front_door");
    AllStructuresClass all(GraphZooSchema());
    DdsSystem linear(GraphZooSchema());
    linear.AddRegister("x");
    int a = linear.AddState("a", true);
    int b = linear.AddState("b", false, true);
    linear.AddRule(a, b, "E(x_old, x_new)");
    GraphCache linear_process(0, dir), branching_process(0, dir);
    SolveOptions options;
    options.build_witness = false;
    options.cache = &linear_process;
    ASSERT_TRUE(SolveEmptiness(linear, all, options).nonempty);

    BranchingSystem mirrored(GraphZooSchema());
    mirrored.AddRegister("x");
    int ma = mirrored.AddState("a", true);
    int mb = mirrored.AddState("b", false, true);
    mirrored.AddRule(ma, {Branch{linear.rules()[0].guard, mb}});
    BranchingSolveResult resumed =
        SolveBranchingEmptiness(mirrored, all, &branching_process);
    EXPECT_TRUE(resumed.stats.graph_from_cache);
    EXPECT_TRUE(resumed.stats.graph_resumed);
    EXPECT_TRUE(resumed.nonempty);
  }
}

// Backdates a store file's atime and mtime so Sweep's LRU order is
// deterministic regardless of timestamp granularity.
void BackdateFile(const std::string& path, int seconds_ago) {
  struct timeval times[2];
  ::gettimeofday(&times[0], nullptr);
  times[0].tv_sec -= seconds_ago;
  times[1] = times[0];
  ASSERT_EQ(::utimes(path.c_str(), times), 0) << path;
}

TEST(StoreTest, SweepEvictsLeastRecentlyUsedFilesFirst) {
  const std::string dir = StoreDir("sweep_lru");
  GraphStore store(dir);
  AllStructuresClass all(GraphZooSchema());

  // Three keys with distinct guard sets -> three files of similar size.
  std::vector<std::string> keys;
  std::vector<std::vector<FormulaRef>> guard_sets;
  for (const DdsSystem& system :
       {OddRedCycleSystem(), ReachRedSystem(), ContradictionSystem()}) {
    std::vector<FormulaRef> guards = GuardsOf(system);
    auto graph = std::make_shared<SubTransitionGraph>(guards,
                                                      system.num_registers());
    SolveStats stats;
    graph->BuildFull(MemberSource{all}, stats);
    const std::string key = SystemGraphContext(BorrowBackend(all), system).key;
    ASSERT_TRUE(store.Save(key, *graph));
    keys.push_back(key);
    guard_sets.push_back(std::move(guards));
  }
  // Ages: keys[0] oldest, keys[2] freshest.
  BackdateFile(store.PathFor(keys[0]), 300);
  BackdateFile(store.PathFor(keys[1]), 200);
  BackdateFile(store.PathFor(keys[2]), 100);

  StoreSweepResult swept = store.Sweep(/*max_bytes=*/0, /*max_files=*/2);
  EXPECT_EQ(swept.files_removed, 1u);
  EXPECT_EQ(swept.files_kept, 2u);
  EXPECT_GT(swept.bytes_removed, 0u);
  EXPECT_FALSE(fs::exists(store.PathFor(keys[0])))
      << "the least recently used file goes first";
  EXPECT_TRUE(fs::exists(store.PathFor(keys[1])));
  EXPECT_TRUE(fs::exists(store.PathFor(keys[2])));

  // A byte cap of 1 clears everything (each file exceeds one byte); the
  // evicted keys just rebuild on their next query.
  swept = store.Sweep(/*max_bytes=*/1, /*max_files=*/0);
  EXPECT_EQ(swept.files_removed, 2u);
  EXPECT_EQ(swept.files_kept, 0u);
  EXPECT_EQ(swept.bytes_kept, 0u);
}

TEST(StoreTest, SweepWithoutCapsIsANoOp) {
  const std::string dir = StoreDir("sweep_noop");
  GraphStore store(dir);
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  auto graph =
      std::make_shared<SubTransitionGraph>(guards, system.num_registers());
  SolveStats stats;
  graph->BuildFull(MemberSource{all}, stats);
  const std::string key = SystemGraphContext(BorrowBackend(all), system).key;
  ASSERT_TRUE(store.Save(key, *graph));

  StoreSweepResult swept = store.Sweep(0, 0);
  EXPECT_EQ(swept.files_removed, 0u);
  EXPECT_EQ(swept.files_kept, 0u) << "an uncapped sweep does not even scan";
  EXPECT_TRUE(fs::exists(store.PathFor(key)));

  // Foreign files and in-flight temp files are never touched.
  std::ofstream(dir + "/notes.txt") << "keep me";
  std::ofstream(store.PathFor(key) + ".tmp.123.0") << "half a write";
  swept = store.Sweep(/*max_bytes=*/1, /*max_files=*/0);
  EXPECT_EQ(swept.files_removed, 1u);
  EXPECT_TRUE(fs::exists(dir + "/notes.txt"));
  EXPECT_TRUE(fs::exists(store.PathFor(key) + ".tmp.123.0"));
}

TEST(StoreTest, SweepAfterAQueryCapsTheStore) {
  const std::string dir = StoreDir("sweep_knob");
  AllStructuresClass all(GraphZooSchema());
  GraphCache cache(0, dir);

  // Build up two persisted graphs, run a third query, then sweep to a
  // one-file cap (what a daemon's post-query sweep does): the directory
  // must hold one file.
  for (const DdsSystem& system : {OddRedCycleSystem(), ReachRedSystem()}) {
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    options.cache = &cache;
    SolveEmptiness(system, all, options);
  }
  SolveOptions third;
  third.build_witness = false;
  third.strategy = SolveStrategy::kEager;
  third.cache = &cache;
  SolveResult r = SolveEmptiness(ContradictionSystem(), all, third);
  EXPECT_FALSE(r.nonempty);
  cache.SweepStore(/*max_bytes=*/0, /*max_files=*/1);

  std::size_t amg_files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    amg_files += entry.path().extension() == ".amg";
  }
  EXPECT_EQ(amg_files, 1u);
}

// ---- The whole-buffer fold, as a reference for Repack's output ----------

// A varint of `bytes` at `*pos`, advancing it; false past the end.
bool TakeVarint(std::string_view bytes, std::size_t* pos, std::uint64_t* v) {
  *v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (*pos >= bytes.size()) return false;
    const auto byte = static_cast<std::uint8_t>(bytes[(*pos)++]);
    *v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return true;
  }
  return false;
}

void PutVarint(std::string& out, std::uint64_t v) {
  for (; v >= 0x80; v >>= 7) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
  }
  out.push_back(static_cast<char>(v));
}

void PutU64LE(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) out.push_back(static_cast<char>(v >> (8 * i)));
}

// The embedded key and progress of a record whose checksum, magic and
// format version hold (docs/STORE_FORMAT.md).
bool PeekRecord(std::string_view bytes, std::string* key,
                BuildProgress* progress) {
  if (bytes.size() < 12 || bytes.substr(0, 4) != "AMGS" ||
      WithChecksum(bytes.substr(0, bytes.size() - 8)) != bytes) {
    return false;
  }
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  std::size_t pos = 4;
  std::uint64_t version, key_len, k, guards, phase;
  if (!TakeVarint(payload, &pos, &version) ||
      version != kGraphStoreFormatVersion ||
      !TakeVarint(payload, &pos, &key_len) || key_len > payload.size() - pos) {
    return false;
  }
  key->assign(payload.substr(pos, key_len));
  pos += key_len;
  if (!TakeVarint(payload, &pos, &k) || !TakeVarint(payload, &pos, &guards) ||
      !TakeVarint(payload, &pos, &phase) || phase > UINT32_MAX) {
    return false;
  }
  progress->cursor.phase = static_cast<std::uint32_t>(phase);
  return TakeVarint(payload, &pos, &progress->cursor.next_member) &&
         TakeVarint(payload, &pos, &progress->edges);
}

struct PackFiles {
  std::string pack;
  std::string idx;
};

// What a repack of `store` publishes, computed the way Repack did before it
// streamed: the whole pack and every loose file read into memory, the
// furthest copy per key kept (a loose one on a tie), and the new pack and
// index built as whole buffers. Nullopt when Repack publishes nothing.
std::optional<PackFiles> ReferenceFold(const GraphStore& store) {
  struct Candidate {
    std::string bytes;
    BuildProgress progress;
  };
  std::unordered_map<std::string, Candidate> best;
  const std::string pack = ReadFile(store.PackPath());
  std::size_t pos = 4;
  std::uint64_t version = 0;
  if (pack.size() > 4 && pack.compare(0, 4, "AMGP") == 0 &&
      TakeVarint(pack, &pos, &version) && version == kPackFormatVersion) {
    for (;;) {
      std::uint64_t len = 0;
      if (!TakeVarint(pack, &pos, &len) || len > pack.size() - pos) break;
      const std::string_view entry = std::string_view(pack).substr(pos, len);
      pos += len;
      std::string key;
      BuildProgress progress;
      if (!PeekRecord(entry, &key, &progress)) break;
      auto it = best.find(key);
      if (it == best.end() || it->second.progress < progress) {
        best[key] = Candidate{std::string(entry), progress};
      }
    }
  }
  std::uint64_t loose_seen = 0;
  for (const auto& file : fs::directory_iterator(store.dir())) {
    if (!file.is_regular_file() || file.path().extension() != ".amg") continue;
    std::string bytes = ReadFile(file.path().string());
    std::string key;
    BuildProgress progress;
    if (!PeekRecord(bytes, &key, &progress)) continue;
    ++loose_seen;
    auto it = best.find(key);
    if (it == best.end() || progress >= it->second.progress) {
      best[key] = Candidate{std::move(bytes), progress};
    }
  }
  const bool index_live =
      fs::exists(store.PackPath()) && !store.PackNeedsRepair();
  if ((loose_seen == 0 && index_live) || best.empty()) return std::nullopt;

  std::vector<std::pair<std::uint64_t, const Candidate*>> ordered;
  for (const auto& [key, candidate] : best) {
    ordered.emplace_back(Fnv1a64(key), &candidate);
  }
  std::sort(ordered.begin(), ordered.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first < b.first
                              : a.second->bytes < b.second->bytes;
  });
  PackFiles out;
  out.pack = "AMGP";
  PutVarint(out.pack, kPackFormatVersion);
  std::string entries;
  for (const auto& [hash, candidate] : ordered) {
    PutVarint(out.pack, candidate->bytes.size());
    PutU64LE(entries, hash);
    PutU64LE(entries, out.pack.size());
    PutU64LE(entries, candidate->bytes.size());
    out.pack += candidate->bytes;
  }
  out.idx = "AMGI";
  PutVarint(out.idx, kPackFormatVersion);
  PutVarint(out.idx, out.pack.size());
  PutVarint(out.idx, ordered.size());
  out.idx += entries;
  PutU64LE(out.idx, Fnv1a64(out.idx));
  return out;
}

// Repacks `store`, expecting it to publish exactly the reference fold's
// pack and index bytes.
StoreRepackResult RepackAgainstReference(const GraphStore& store) {
  const std::optional<PackFiles> expected = ReferenceFold(store);
  const StoreRepackResult repack = store.Repack();
  EXPECT_TRUE(expected.has_value()) << "the reference fold publishes nothing";
  if (expected) {
    EXPECT_TRUE(ReadFile(store.PackPath()) == expected->pack)
        << "pack.amgp differs from the reference fold's";
    EXPECT_TRUE(ReadFile(store.IndexPath()) == expected->idx)
        << "pack.idx differs from the reference fold's";
  }
  return repack;
}

// One small complete graph the pack tests save under many synthetic keys:
// repack needs volume, not variety, and the store validates entries by the
// key they were saved under, not by what the graph "means".
SubTransitionGraph BuildSmallCompleteGraph(const AllStructuresClass& all,
                                           const DdsSystem& system) {
  std::vector<FormulaRef> guards = GuardsOf(system);
  SubTransitionGraph graph(guards, system.num_registers());
  SolveStats stats;
  graph.BuildFull(MemberSource{all}, stats);
  return graph;
}

TEST(StoreTest, RepackFoldsAThousandKeysIntoByteIdenticalPackLoads) {
  const std::string dir = StoreDir("repack_thousand");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  GraphStore store(dir);
  constexpr std::uint64_t kKeys = 1000;
  std::vector<std::string> keys;
  keys.reserve(kKeys);
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back("synthetic/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), graph));
  }
  EXPECT_EQ(store.LooseFileCount(), kKeys);
  EXPECT_EQ(store.PackEntryCount(), 0u);

  const StoreRepackResult repack = RepackAgainstReference(store);
  EXPECT_TRUE(repack.performed);
  EXPECT_TRUE(repack.error.empty()) << repack.error;
  EXPECT_EQ(repack.entries, kKeys);
  EXPECT_EQ(repack.loose_folded, kKeys);
  EXPECT_EQ(repack.loose_kept, 0u);
  EXPECT_EQ(store.LooseFileCount(), 0u);
  EXPECT_EQ(store.PackEntryCount(), kKeys);
  EXPECT_FALSE(store.PackNeedsRepair());

  // A fresh handle — a fresh process — must serve every key from the
  // pack, byte-identical to what was saved.
  GraphStore reader(dir);
  for (const std::string& key : keys) {
    GraphStore::LoadResult load = reader.Load(key, all.schema(), guards, k);
    ASSERT_NE(load.graph, nullptr) << key;
    EXPECT_EQ(SerializeGraph(*load.graph, key), SerializeGraph(graph, key))
        << key;
  }
  EXPECT_EQ(reader.counters().pack_loads, kKeys);
  EXPECT_EQ(reader.counters().loose_loads, 0u);
  EXPECT_EQ(reader.counters().load_failures, 0u);
}

TEST(StoreTest, RepackKeepsNewerLooseCopiesOverTheirPackedEntries) {
  // A packed generation, then newer loose copies of half its keys and two
  // new keys: the fold keeps each key's furthest copy, loose or packed.
  const std::string dir = StoreDir("repack_newer_loose");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem older_system = ContradictionSystem();
  DdsSystem newer_system = ReachRedSystem();
  std::vector<FormulaRef> older_guards = GuardsOf(older_system);
  std::vector<FormulaRef> newer_guards = GuardsOf(newer_system);
  SubTransitionGraph older = BuildSmallCompleteGraph(all, older_system);
  SubTransitionGraph newer = BuildSmallCompleteGraph(all, newer_system);
  ASSERT_LT(older.progress(), newer.progress());

  GraphStore store(dir);
  std::vector<std::string> keys;
  for (int i = 0; i < 16; ++i) {
    keys.push_back("newer/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), older));
  }
  ASSERT_TRUE(RepackAgainstReference(store).performed);
  auto is_newer = [](std::size_t i) { return i % 2 == 1 || i >= 16; };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    if (is_newer(i)) {
      ASSERT_TRUE(store.Save(keys[i], newer)) << keys[i];
    }
  }
  for (int i = 16; i < 18; ++i) {
    keys.push_back("newer/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), newer));
  }

  const StoreRepackResult repack = RepackAgainstReference(store);
  EXPECT_TRUE(repack.performed);
  EXPECT_EQ(repack.entries, keys.size());
  EXPECT_EQ(repack.loose_folded, 10u);
  EXPECT_EQ(store.LooseFileCount(), 0u);
  GraphStore reader(dir);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const SubTransitionGraph& expected = is_newer(i) ? newer : older;
    GraphStore::LoadResult load =
        reader.Load(keys[i], all.schema(),
                    is_newer(i) ? newer_guards : older_guards, 1);
    ASSERT_NE(load.graph, nullptr) << keys[i];
    EXPECT_EQ(SerializeGraph(*load.graph, keys[i]),
              SerializeGraph(expected, keys[i]));
  }
  EXPECT_EQ(reader.counters().pack_loads, keys.size());
}

TEST(StoreTest, RepackPeakHeapIsASmallFractionOfThePack) {
  // A pack of several MB and a few loose files: the repack streams the
  // pack, so its peak heap is the index plus the loose tier plus one
  // entry, not a multiple of the pack.
  const std::string dir = StoreDir("repack_peak_heap");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system(GraphZooSchema());
  const int a = system.AddState("a", /*initial=*/true);
  const int b = system.AddState("b", /*initial=*/false, /*accepting=*/true);
  system.AddRegister("x");
  // Many rules make a graph of many edges: about 2.4 KB an entry.
  const char* const kGuards[] = {"E(x_old, x_new)", "!E(x_old, x_new)",
                                 "red(x_new)",      "!red(x_new)",
                                 "x_old = x_new",   "x_old != x_new",
                                 "E(x_new, x_old)", "red(x_old)"};
  for (int i = 0; i < 96; ++i) system.AddRule(a, b, kGuards[i % 8]);
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  GraphStore store(dir);
  constexpr int kKeys = 4000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store.Save("heap/" + std::to_string(i), graph));
  }
  ASSERT_TRUE(store.Repack().performed);
  for (int i = kKeys; i < kKeys + 4; ++i) {
    ASSERT_TRUE(store.Save("heap/" + std::to_string(i), graph));
  }
  const std::int64_t pack_size =
      static_cast<std::int64_t>(fs::file_size(store.PackPath()));
  ASSERT_GT(pack_size, 4 << 20);

  const std::int64_t before = g_live_heap.load();
  g_peak_heap.store(before);
  const StoreRepackResult repack = store.Repack();
  const std::int64_t peak = g_peak_heap.load() - before;
  EXPECT_TRUE(repack.performed) << repack.error;
  EXPECT_EQ(repack.entries, static_cast<std::uint64_t>(kKeys + 4));
  EXPECT_LE(peak, pack_size / 8)
      << "peak heap " << peak << " bytes over a " << pack_size
      << "-byte pack";
}

TEST(StoreTest, RepackSurvivesACrashAtEveryKillPoint) {
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  constexpr std::uint64_t kKeys = 16;
  struct Case {
    RepackKillPoint kill;
    const char* name;
  };
  for (const Case& c :
       {Case{RepackKillPoint::kBeforePackRename, "before_pack_rename"},
        Case{RepackKillPoint::kBeforeIndexRename, "before_index_rename"},
        Case{RepackKillPoint::kBeforeLooseDelete, "before_loose_delete"}}) {
    SCOPED_TRACE(c.name);
    const std::string dir = StoreDir(std::string("repack_kill_") + c.name);
    std::vector<std::string> keys;
    {
      GraphStore store(dir);
      for (std::uint64_t i = 0; i < kKeys; ++i) {
        keys.push_back("kill/" + std::to_string(i));
        ASSERT_TRUE(store.Save(keys.back(), graph));
      }
      store.Repack(c.kill);  // the "crash"
    }

    // A fresh process after the crash: every key still loads
    // byte-identical — the loose files stay authoritative until both
    // renames land, and a pack without its matching index is invisible.
    GraphStore reader(dir);
    for (const std::string& key : keys) {
      GraphStore::LoadResult load = reader.Load(key, all.schema(), guards, k);
      ASSERT_NE(load.graph, nullptr) << key;
      EXPECT_EQ(SerializeGraph(*load.graph, key), SerializeGraph(graph, key));
    }
    EXPECT_EQ(reader.LooseFileCount(), kKeys);
    if (c.kill == RepackKillPoint::kBeforePackRename) {
      EXPECT_EQ(reader.PackEntryCount(), 0u);
      EXPECT_FALSE(reader.PackNeedsRepair()) << "no pack was published";
    }
    if (c.kill == RepackKillPoint::kBeforeIndexRename) {
      EXPECT_TRUE(reader.PackNeedsRepair())
          << "a published pack without its index must read as repairable";
      EXPECT_EQ(reader.PackEntryCount(), 0u);
    }

    // The next repack completes the interrupted fold: a fresh generation
    // with every key, loose tier empty, index live.
    const StoreRepackResult recovery = reader.Repack();
    EXPECT_TRUE(recovery.performed);
    EXPECT_TRUE(recovery.error.empty()) << recovery.error;
    EXPECT_EQ(recovery.entries, kKeys);
    EXPECT_EQ(reader.LooseFileCount(), 0u);
    EXPECT_FALSE(reader.PackNeedsRepair());
    GraphStore packed(dir);
    for (const std::string& key : keys) {
      GraphStore::LoadResult load = packed.Load(key, all.schema(), guards, k);
      ASSERT_NE(load.graph, nullptr) << key;
      EXPECT_EQ(SerializeGraph(*load.graph, key), SerializeGraph(graph, key));
    }
    EXPECT_EQ(packed.counters().pack_loads, kKeys);
  }
}

TEST(StoreTest, StaleIndexAfterCrashRecoversPackOnlyEntriesByScan) {
  // Generation 1 folds its keys into the pack and deletes the loose files
  // — the pack is now the ONLY copy. Generation 2 crashes between the
  // pack rename and the index rename: the directory holds the new pack
  // bound to the old, now-stale index, so readers see no pack at all.
  // The recovery repack must resurrect the pack-only entries by
  // sequential scan; losing them would be real data loss.
  const std::string dir = StoreDir("repack_stale_index");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  GraphStore store(dir);
  std::vector<std::string> keys;
  for (int i = 0; i < 8; ++i) {
    keys.push_back("gen1/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), graph));
  }
  ASSERT_TRUE(store.Repack().performed);
  ASSERT_EQ(store.LooseFileCount(), 0u);
  for (int i = 0; i < 4; ++i) {
    keys.push_back("gen2/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), graph));
  }
  store.Repack(RepackKillPoint::kBeforeIndexRename);  // the "crash"

  GraphStore reader(dir);
  EXPECT_TRUE(reader.PackNeedsRepair());
  // The gen-1 keys are temporarily invisible (their only copy sits in the
  // unindexed pack) — unavailable, but not lost:
  EXPECT_EQ(reader.Load(keys.front(), all.schema(), guards, k).graph,
            nullptr);
  const StoreRepackResult recovery = RepackAgainstReference(reader);
  EXPECT_TRUE(recovery.performed);
  EXPECT_TRUE(recovery.error.empty()) << recovery.error;
  EXPECT_EQ(recovery.entries, 12u);
  EXPECT_FALSE(reader.PackNeedsRepair());
  GraphStore packed(dir);
  for (const std::string& key : keys) {
    GraphStore::LoadResult load = packed.Load(key, all.schema(), guards, k);
    ASSERT_NE(load.graph, nullptr) << key;
    EXPECT_EQ(SerializeGraph(*load.graph, key), SerializeGraph(graph, key));
  }
}

TEST(StoreTest, TruncatedPackRecoversItsValidPrefixOnTheNextRepack) {
  // Tear the tail of a published pack (disk trouble after the fold). The
  // size-bound index stops matching, so the whole pack reads as absent;
  // the next repack's sequential scan keeps every whole entry before the
  // tear and publishes a clean generation from them.
  const std::string dir = StoreDir("repack_truncated");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  GraphStore store(dir);
  constexpr std::uint64_t kKeys = 8;
  std::vector<std::string> keys;
  for (std::uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back("torn/" + std::to_string(i));
    ASSERT_TRUE(store.Save(keys.back(), graph));
  }
  ASSERT_TRUE(store.Repack().performed);

  const std::uint64_t pack_size = fs::file_size(store.PackPath());
  fs::resize_file(store.PackPath(), pack_size - 5);  // tear the last entry

  GraphStore reader(dir);
  EXPECT_TRUE(reader.PackNeedsRepair());
  const StoreRepackResult recovery = RepackAgainstReference(reader);
  EXPECT_TRUE(recovery.performed);
  EXPECT_TRUE(recovery.error.empty()) << recovery.error;
  EXPECT_EQ(recovery.entries, kKeys - 1) << "only the torn entry is gone";
  EXPECT_FALSE(reader.PackNeedsRepair());

  GraphStore packed(dir);
  std::uint64_t survivors = 0;
  for (const std::string& key : keys) {
    GraphStore::LoadResult load = packed.Load(key, all.schema(), guards, k);
    if (load.graph == nullptr) continue;
    EXPECT_EQ(SerializeGraph(*load.graph, key), SerializeGraph(graph, key));
    ++survivors;
  }
  EXPECT_EQ(survivors, kKeys - 1);
}

TEST(StoreTest, RepackCleansStaleTempFilesFromCrashedRuns) {
  const std::string dir = StoreDir("repack_stale_tmp");
  AllStructuresClass all(GraphZooSchema());
  DdsSystem system = ContradictionSystem();
  SubTransitionGraph graph = BuildSmallCompleteGraph(all, system);

  GraphStore store(dir);
  ASSERT_TRUE(store.Save("tmp/0", graph));
  // Leftovers of a repack that died mid-write in some earlier process.
  const std::string stale_pack = store.PackPath() + ".tmp.999.7";
  const std::string stale_idx = store.IndexPath() + ".tmp.999.7";
  std::ofstream(stale_pack) << "garbage";
  std::ofstream(stale_idx) << "garbage";

  const StoreRepackResult repack = store.Repack();
  EXPECT_TRUE(repack.performed);
  EXPECT_EQ(repack.entries, 1u);
  EXPECT_FALSE(fs::exists(stale_pack));
  EXPECT_FALSE(fs::exists(stale_idx));
}

}  // namespace
}  // namespace amalgam
