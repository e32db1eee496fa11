// E2 — Theorem 5's cost profile: log(n) * poly(blowup(2k)). Control states
// contribute quasi-linearly (the sub-transition relation is shared across
// states); registers contribute exponentially (the candidate space is the
// atomic diagrams over 2k marks).
#include <benchmark/benchmark.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <future>
#include <memory>

#include "fraisse/relational.h"
#include "net/server.h"
#include "service/service.h"
#include "solver/cache.h"
#include "solver/context.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "solver/intern.h"
#include "solver/member_table.h"
#include "solver/store.h"
#include "system/zoo.h"

// Program-wide heap-allocation counter backing BM_InternThroughput's
// allocs_per_member counter: defining the replaceable global operator
// new/delete here overrides them for the whole binary — the amalgam library
// included — so the memo-hit path's zero-allocation contract is measured,
// not assumed. Counting only; allocation itself stays malloc/free.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};

void* CountedAlloc(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace amalgam {
namespace {

// A chain system: n states, each step moves the register along an edge.
DdsSystem ChainSystem(int n, int registers) {
  DdsSystem system(GraphZooSchema());
  std::vector<std::string> regs;
  for (int r = 0; r < registers; ++r) {
    regs.push_back("x" + std::to_string(r));
    system.AddRegister(regs.back());
  }
  int prev = system.AddState("s0", true, n == 1);
  for (int i = 1; i < n; ++i) {
    int next = system.AddState("s" + std::to_string(i), false, i == n - 1);
    std::string guard = "E(x0_old, x0_new)";
    for (int r = 1; r < registers; ++r) {
      guard += " & x" + std::to_string(r) + "_new = x" + std::to_string(r) +
               "_old";
    }
    system.AddRule(prev, next, guard);
    prev = next;
  }
  return system;
}

void BM_StatesSweep(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DdsSystem system = ChainSystem(n, 1);
  AllStructuresClass cls(GraphZooSchema());
  for (auto _ : state) {
    auto r = SolveEmptiness(system, cls, SolveOptions{.build_witness = false});
    benchmark::DoNotOptimize(r.nonempty);
  }
}
BENCHMARK(BM_StatesSweep)->RangeMultiplier(2)->Range(2, 64)->Unit(benchmark::kMillisecond);

// Head-to-head on a nonempty chain instance: the on-the-fly strategy stops
// at the first accepting configuration, the eager reference sweeps the whole
// class. The `members_*` counters expose the gap the engine refactor buys.
void BM_StrategyComparison(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DdsSystem system = ChainSystem(n, 1);
  AllStructuresClass cls(GraphZooSchema());
  const SolveStrategy strategy = state.range(1) == 0 ? SolveStrategy::kEager
                                                     : SolveStrategy::kOnTheFly;
  SolveResult last;
  for (auto _ : state) {
    last = SolveEmptiness(system, cls,
                          SolveOptions{.build_witness = false,
                                       .strategy = strategy});
    benchmark::DoNotOptimize(last.nonempty);
  }
  state.counters["members"] =
      static_cast<double>(last.stats.members_enumerated);
  state.counters["guard_evals"] =
      static_cast<double>(last.stats.guard_evaluations);
  state.counters["raw_memo_hits"] =
      static_cast<double>(last.stats.raw_memo_hits);
}
BENCHMARK(BM_StrategyComparison)
    ->ArgsProduct({{4, 16, 64}, {0, 1}})
    ->ArgNames({"states", "onthefly"})
    ->Unit(benchmark::kMillisecond);

// Cross-query caching: the first query builds the complete sub-transition
// graph and stores it in a GraphCache; the steady state measured here is a
// pure BFS over interned shape ids — `members` stays 0.
void BM_CachedQuery(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  DdsSystem system = ChainSystem(n, 1);
  AllStructuresClass cls(GraphZooSchema());
  GraphCache cache;
  SolveOptions options;
  options.build_witness = false;
  options.cache = &cache;
  // Warm the cache so every measured iteration is a hit.
  SolveResult last = SolveEmptiness(system, cls, options);
  for (auto _ : state) {
    last = SolveEmptiness(system, cls, options);
    benchmark::DoNotOptimize(last.nonempty);
  }
  state.counters["members"] =
      static_cast<double>(last.stats.members_enumerated);
  state.counters["cache_hits"] = static_cast<double>(cache.hits());
}
BENCHMARK(BM_CachedQuery)
    ->RangeMultiplier(4)
    ->Range(4, 64)
    ->ArgNames({"states"})
    ->Unit(benchmark::kMillisecond);

// Tracing's pay-for-what-you-use claim, measured: a cold eager chain-64
// build with the trace slot null (traced:0) against the same build
// recording every span (traced:1). The null side is the disabled path
// every production query takes without `"trace":true` — one predictable
// branch per instrumentation site — and the baseline gate holds it to
// the pre-instrumentation build time; the traced side prices the full
// recorder (mutex, clock reads, span storage).
void BM_TraceOverhead(benchmark::State& state) {
  const bool traced = state.range(0) != 0;
  DdsSystem system = ChainSystem(64, 1);
  AllStructuresClass cls(GraphZooSchema());
  std::size_t spans = 0;
  for (auto _ : state) {
    TraceRecorder recorder;
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    options.trace = traced ? &recorder : nullptr;
    SolveResult result = SolveEmptiness(system, cls, options);
    benchmark::DoNotOptimize(result.nonempty);
    spans = recorder.span_count();
  }
  state.counters["spans"] = static_cast<double>(spans);
}
BENCHMARK(BM_TraceOverhead)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"traced"})
    ->Unit(benchmark::kMillisecond);

// One member of the 2k joint stream, materialized so the kernel benchmarks
// below replay the stream without re-enumerating it.
struct JointMember {
  Structure s;
  std::vector<Elem> marks;
};

std::vector<JointMember> MaterializeJointMembers(const AllStructuresClass& cls,
                                                 int k) {
  std::vector<JointMember> members;
  cls.EnumerateGenerated(
      2 * k, [&](const Structure& s, std::span<const Elem> marks) {
        members.push_back(JointMember{s, {marks.begin(), marks.end()}});
      });
  return members;
}

// The sweep inner loop in isolation — no solver, no cache, no threads: the
// chain-64 joint stream is materialized once, the graph is warmed with one
// full pass, and each iteration replays ProcessJointMember over the whole
// stream. Steady state is the per-member cost the tentpole compiled:
// bytecode guard evaluation, the direct projection key, a raw-memo hit and
// an edge-dedup hit per guard hit — nothing interned, nothing recorded.
// The graph is over the chain's distinct guards (one), as the engine's is.
void BM_SweepKernel(benchmark::State& state) {
  DdsSystem system = ChainSystem(64, 1);
  AllStructuresClass cls(GraphZooSchema());
  const std::vector<FormulaRef> guards =
      SystemGraphContext(BorrowBackend(cls), system).guards;
  const int k = system.num_registers();
  const std::vector<JointMember> members = MaterializeJointMembers(cls, k);

  SubTransitionGraph graph(guards, k);
  const auto keep_going = [](int, int, int) { return true; };
  SolveStats stats;
  for (const JointMember& m : members) {
    graph.ProcessJointMember(m.s, m.marks, stats, keep_going);
  }

  for (auto _ : state) {
    for (const JointMember& m : members) {
      graph.ProcessJointMember(m.s, m.marks, stats, keep_going);
    }
  }
  state.counters["members"] = static_cast<double>(members.size());
  state.counters["edges"] = static_cast<double>(graph.num_edges());
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(members.size()));
}
BENCHMARK(BM_SweepKernel)->Unit(benchmark::kMicrosecond);

// Projection interning throughput with the global allocation counter
// wrapped around the measured loop. hot:0 interns the chain joint stream
// into a fresh interner every iteration (every distinct projection
// canonicalizes and allocates); hot:1 replays it against a warmed interner,
// where every member is a raw-memo hit served straight from the arena —
// allocs_per_member reports the heap traffic per swept member and must be
// zero on the hot path (intern_test pins the same contract as an assert).
void BM_InternThroughput(benchmark::State& state) {
  const bool hot = state.range(0) == 1;
  AllStructuresClass cls(GraphZooSchema());
  const std::vector<JointMember> members = MaterializeJointMembers(cls, 1);

  ConfigInterner warmed;
  for (const JointMember& m : members) {
    warmed.InternProjection(m.s, m.marks);
  }

  std::uint64_t allocs = 0;
  std::int64_t processed = 0;
  for (auto _ : state) {
    const std::uint64_t before =
        g_heap_allocs.load(std::memory_order_relaxed);
    if (hot) {
      for (const JointMember& m : members) {
        benchmark::DoNotOptimize(warmed.InternProjection(m.s, m.marks));
      }
    } else {
      ConfigInterner cold;
      for (const JointMember& m : members) {
        benchmark::DoNotOptimize(cold.InternProjection(m.s, m.marks));
      }
    }
    allocs += g_heap_allocs.load(std::memory_order_relaxed) - before;
    processed += static_cast<std::int64_t>(members.size());
  }
  state.counters["allocs_per_member"] =
      processed ? static_cast<double>(allocs) / static_cast<double>(processed)
                : 0.0;
  state.counters["raw_memo_hits"] = static_cast<double>(warmed.raw_hits());
  state.SetItemsProcessed(processed);
}
BENCHMARK(BM_InternThroughput)
    ->ArgsProduct({{0, 1}})
    ->ArgNames({"hot"})
    ->Unit(benchmark::kMicrosecond);

// Cold resume at a 25/50/75% cursor: a partial graph — the state an
// early-exited query persists — is restored and finished with BuildFull.
// The relational backend's native EnumerateGeneratedFrom seeks straight
// to the cursor position in the set-partition × atom-mask grid, so the
// resume generates only the unswept suffix; `members_generated` reports
// exactly that suffix (the default adapter would report the full stream
// at every cursor).
void BM_ColdResume(benchmark::State& state) {
  const int pct = static_cast<int>(state.range(0));
  DdsSystem system = ChainSystem(64, 1);
  AllStructuresClass cls(GraphZooSchema());
  // Over the distinct guards, as the front doors persist it.
  const std::vector<FormulaRef> guards =
      SystemGraphContext(BorrowBackend(cls), system).guards;
  const int k = system.num_registers();
  std::uint64_t joint_total = 0;
  cls.EnumerateGenerated(2 * k, [&](const Structure&, std::span<const Elem>) {
    ++joint_total;
  });
  const std::uint64_t cutoff = joint_total * pct / 100;

  // The suspended build: full initial sweep, joint sweep up to the cursor.
  SubTransitionGraph partial(guards, k);
  SolveStats partial_stats;
  cls.EnumerateGeneratedFrom(
      k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        partial.AddInitialMember(s, marks);
        partial.AdvanceCursorTo({kCursorPhaseInitial, pos + 1});
        return true;
      });
  partial.AdvanceCursorTo({kCursorPhaseJoint, 0});
  cls.EnumerateGeneratedFrom(
      2 * k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        if (pos >= cutoff) return false;
        partial.ProcessJointMember(s, marks, partial_stats,
                                   [](int, int, int) { return true; });
        partial.AdvanceCursorTo({kCursorPhaseJoint, pos + 1});
        return true;
      });
  const std::string bytes = SerializeGraph(partial, "bench-cold-resume");

  SolveStats last;
  for (auto _ : state) {
    // Restore + finish: the cold-process resume path (the store's load is
    // this deserialization plus a file read).
    std::shared_ptr<SubTransitionGraph> graph = DeserializeGraph(
        bytes, "bench-cold-resume", cls.schema(), guards, k);
    SolveStats stats;
    graph->BuildFull(cls, stats);
    benchmark::DoNotOptimize(graph->num_edges());
    last = stats;
  }
  state.counters["members_generated"] =
      static_cast<double>(last.members_generated);
  state.counters["members"] = static_cast<double>(last.members_enumerated);
  state.counters["joint_stream"] = static_cast<double>(joint_total);
}
BENCHMARK(BM_ColdResume)
    ->ArgsProduct({{25, 50, 75}})
    ->ArgNames({"cursor_pct"})
    ->Unit(benchmark::kMillisecond);

// A cold eager build of one guard set over linear orders with 3 registers
// (the cold_build "orders" shape of perfbench), streamed from the backend
// (table:0) and over the class's warm member table (table:1). The table is
// built once, outside the timing loop, as the daemon builds it once per
// class. The graphs are bit-identical, so `members`, `guard_evals` and
// `edges` match between the rows; `members_generated` drops to 0 over the
// table, and the time difference is the enumeration and projection
// interning the table saves.
void BM_ColdBuildWarmTable(benchmark::State& state) {
  const bool tabled = state.range(0) != 0;
  LinearOrderClass orders;
  DdsSystem system(orders.schema());
  for (const char* reg : {"x", "y", "z"}) system.AddRegister(reg);
  const int s0 = system.AddState("s0", true);
  const int s1 = system.AddState("s1");
  const int s2 = system.AddState("s2");
  const int s3 = system.AddState("s3", false, true);
  system.AddRule(s0, s1, "x_old = x_new & lt(y_old, z_new)");
  system.AddRule(s1, s2, "lt(z_old, x_new)");
  system.AddRule(s2, s3, "lt(x_old, x_new) & y_old = y_new");
  system.AddRule(s3, s0, "lt(y_new, x_new) & z_new = z_old");
  const GraphContext ctx = SystemGraphContext(BorrowBackend(orders), system);
  const std::shared_ptr<const MemberTable> table =
      tabled ? MemberTable::Build(orders, ctx.k) : nullptr;
  const MemberSource source{orders, table.get()};
  SolveStats last;
  for (auto _ : state) {
    SubTransitionGraph graph(ctx.guards, ctx.k);
    SolveStats stats;
    graph.BuildFull(source, stats);
    benchmark::DoNotOptimize(graph.num_edges());
    last = stats;
  }
  state.counters["members"] = static_cast<double>(last.members_enumerated);
  state.counters["members_generated"] =
      static_cast<double>(last.members_generated);
  state.counters["guard_evals"] = static_cast<double>(last.guard_evaluations);
  state.counters["edges"] = static_cast<double>(last.edges);
}
BENCHMARK(BM_ColdBuildWarmTable)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"table"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The workloads a member table must not make dearer than streaming.
//
// ClassRoundRobin: eager queries cycling over `classes` distinct classes
// (all structures over {red_i, blue_i}, 2 registers: 776 members per
// class), each through a GraphCache that keeps one graph, so no query is a
// graph-cache hit and every one sweeps its class. With classes:4 a class
// recurs while it is remembered, so from its second query on a member
// table serves it; with classes:24 (more than GraphCache::kMaxMemberTables)
// every class is forgotten before it recurs and no table is ever built.
// cache:0 runs the same queries without a cache, streamed: the cost a
// table must not exceed. Each iteration is one query.
void BM_ClassRoundRobin(benchmark::State& state) {
  const int num_classes = static_cast<int>(state.range(0));
  const bool cached = state.range(1) != 0;
  std::vector<std::unique_ptr<AllStructuresClass>> classes;
  std::vector<DdsSystem> systems;
  for (int c = 0; c < num_classes; ++c) {
    Schema unary;
    const std::string red = "red" + std::to_string(c);
    const std::string blue = "blue" + std::to_string(c);
    unary.AddRelation(red, 1);
    unary.AddRelation(blue, 1);
    classes.push_back(
        std::make_unique<AllStructuresClass>(MakeSchema(std::move(unary))));
    DdsSystem system(classes.back()->schema());
    system.AddRegister("x");
    system.AddRegister("y");
    const int s0 = system.AddState("s0", true);
    const int s1 = system.AddState("s1");
    const int s2 = system.AddState("s2", false, true);
    system.AddRule(s0, s1, "x_new = y_old & " + red + "(x_new)");
    system.AddRule(s1, s1, "y_new = x_old & " + blue + "(y_new)");
    system.AddRule(s1, s2, red + "(x_old) & " + blue + "(y_old) & x_old = y_old");
    systems.push_back(std::move(system));
  }
  GraphCache cache(/*max_entries=*/1);
  SolveOptions options;
  options.build_witness = false;
  options.strategy = SolveStrategy::kEager;
  options.cache = cached ? &cache : nullptr;
  std::uint64_t generated = 0;
  std::uint64_t queries = 0;
  for (auto _ : state) {
    const int c = static_cast<int>(queries++ % num_classes);
    const SolveResult result = SolveEmptiness(systems[c], *classes[c], options);
    benchmark::DoNotOptimize(result.nonempty);
    generated += result.stats.members_generated;
  }
  state.counters["generated_per_query"] =
      static_cast<double>(generated) / static_cast<double>(queries);
  state.counters["member_table_builds"] =
      static_cast<double>(cache.member_table_builds());
  state.counters["member_table_hits"] =
      static_cast<double>(cache.member_table_hits());
}
BENCHMARK(BM_ClassRoundRobin)
    ->ArgNames({"classes", "cache"})
    ->ArgsProduct({{4, 24}, {0, 1}})
    ->Unit(benchmark::kMicrosecond);

// OnTheFlyEarlyExit: the on-the-fly query over OddRedCycleSystem (2
// registers, over 1M joint members) that finds its goal after a few
// members, through a fresh GraphCache per query (cache:1) and without one
// (cache:0). On-the-fly sweeps never build or read a member table, so both
// rows generate the same few members.
void BM_OnTheFlyEarlyExit(benchmark::State& state) {
  const bool cached = state.range(0) != 0;
  const DdsSystem system = OddRedCycleSystem();
  AllStructuresClass all(GraphZooSchema());
  SolveOptions options;
  options.build_witness = false;
  options.strategy = SolveStrategy::kOnTheFly;
  SolveStats last;
  std::uint64_t builds = 0;
  for (auto _ : state) {
    GraphCache cache;
    options.cache = cached ? &cache : nullptr;
    const SolveResult result = SolveEmptiness(system, all, options);
    benchmark::DoNotOptimize(result.nonempty);
    last = result.stats;
    builds += cache.member_table_builds();
  }
  state.counters["members_generated"] =
      static_cast<double>(last.members_generated);
  state.counters["member_table_builds"] = static_cast<double>(builds);
}
BENCHMARK(BM_OnTheFlyEarlyExit)
    ->ArgNames({"cache"})
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMicrosecond);

// The query service end to end on the 64-state chain: a pool of
// 1/4/8 workers serving batches of identical cache-hot queries (the first
// batch's leader builds the graph once; everything after is pure BFS
// replay over the shared cache). Measures the broker overhead — queueing,
// single-flight bookkeeping, future resolution — on top of BM_CachedQuery's
// raw solve time, and how it scales with concurrent submitters.
void BM_ServiceThroughput(benchmark::State& state) {
  const int workers = static_cast<int>(state.range(0));
  constexpr int kQueriesPerBatch = 32;

  QueryService::Options options;
  options.num_workers = workers;
  QueryService service(options);

  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ChainSystem(64, 1));
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  request.strategy = SolveStrategy::kEager;

  // Warm: one build, so every measured query is a cache hit.
  service.Submit(request).get();

  for (auto _ : state) {
    std::vector<QueryRequest> batch(kQueriesPerBatch, request);
    std::vector<std::future<QueryResult>> futures =
        service.SubmitBatch(std::move(batch));
    for (auto& future : futures) {
      benchmark::DoNotOptimize(future.get().nonempty);
    }
  }
  const ServiceStats stats = service.Stats();
  state.counters["queries"] = static_cast<double>(stats.queries);
  state.counters["coalesced"] = static_cast<double>(stats.coalesced_joins);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.counters["members_generated"] =
      static_cast<double>(stats.members_generated);
  state.SetItemsProcessed(state.iterations() * kQueriesPerBatch);
}
BENCHMARK(BM_ServiceThroughput)
    ->ArgsProduct({{1, 4, 8}})
    ->ArgNames({"workers"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

// The chain-n system as one spec-described JSONL query line (eager, so
// the warmup builds the complete graph and every measured query is a
// cache-hot replay) — what a real amalgamd client would pipe in.
std::string ChainQueryLine(int n) {
  std::string states = R"json([{"name":"s0","initial":true})json";
  for (int i = 1; i < n; ++i) {
    states += R"json(,{"name":"s)json" + std::to_string(i) + "\"";
    if (i == n - 1) states += R"json(,"accepting":true)json";
    states += "}";
  }
  states += "]";
  std::string rules = "[";
  for (int i = 1; i < n; ++i) {
    if (i > 1) rules += ",";
    rules += R"json({"from":"s)json" + std::to_string(i - 1) +
             R"json(","to":"s)json" + std::to_string(i) +
             R"json(","guard":"E(x0_old, x0_new)"})json";
  }
  rules += "]";
  return R"json({"id":1,"kind":"system","class":"all","strategy":"eager",)json"
         R"json("schema":{"relations":[["E",2],["red",1]]},)json"
         R"json("system":{"registers":["x0"],"states":)json" +
         states + R"json(,"rules":)json" + rules + "}}";
}

// The daemon end to end over a Unix-socket loopback: N concurrent clients
// each pipeline a 32-query burst (the chain-64 spec above, cache-hot
// after warmup) and read their 32 ordered responses back. Measures the
// full transport stack — epoll event loop, line framing, per-connection
// session writers, socket syscalls — on top of BM_ServiceThroughput's
// broker overhead.
void BM_DaemonThroughput(benchmark::State& state) {
  const int clients = static_cast<int>(state.range(0));
  constexpr int kQueriesPerBatch = 32;

  QueryService::Options options;
  options.num_workers = 4;
  QueryService service(options);
  DaemonServerOptions net;
  net.uds_path = (std::filesystem::temp_directory_path() /
                  ("amalgam_bench_" + std::to_string(::getpid()) + ".sock"))
                     .string();
  DaemonServer server(service, net);
  server.Start();

  std::string burst;
  for (int i = 0; i < kQueriesPerBatch; ++i) burst += ChainQueryLine(64) + "\n";

  auto connect_client = [&net] {
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, net.uds_path.c_str(), net.uds_path.size() + 1);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      std::perror("bench connect");
      std::abort();
    }
    return fd;
  };
  auto run_batch = [&burst](int fd) {
    std::size_t sent = 0;
    while (sent < burst.size()) {
      const ssize_t n = ::send(fd, burst.data() + sent, burst.size() - sent,
                               MSG_NOSIGNAL);
      if (n <= 0) return;
      sent += static_cast<std::size_t>(n);
    }
    int newlines = 0;
    char buf[4096];
    while (newlines < kQueriesPerBatch) {
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) return;
      for (ssize_t i = 0; i < n; ++i) newlines += buf[i] == '\n';
    }
  };

  std::vector<int> fds;
  fds.reserve(clients);
  for (int c = 0; c < clients; ++c) fds.push_back(connect_client());
  run_batch(fds[0]);  // warm: the one eager build

  for (auto _ : state) {
    std::vector<std::thread> pumps;
    pumps.reserve(clients);
    for (int c = 0; c < clients; ++c) {
      pumps.emplace_back([&run_batch, fd = fds[c]] { run_batch(fd); });
    }
    for (auto& pump : pumps) pump.join();
  }

  const ServiceStats stats = service.Stats();
  state.counters["queries"] = static_cast<double>(stats.queries);
  state.counters["cache_hits"] = static_cast<double>(stats.cache_hits);
  state.SetItemsProcessed(state.iterations() * clients * kQueriesPerBatch);

  for (int fd : fds) ::close(fd);
  server.Stop();
  service.Shutdown();
}
BENCHMARK(BM_DaemonThroughput)
    ->ArgsProduct({{1, 4, 8}})
    ->ArgNames({"clients"})
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

void BM_RegistersSweep(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  DdsSystem system = ChainSystem(3, k);
  AllStructuresClass cls(GraphZooSchema());
  SolveResult last;
  for (auto _ : state) {
    last = SolveEmptiness(system, cls, SolveOptions{.build_witness = false});
    benchmark::DoNotOptimize(last.nonempty);
  }
  state.counters["members"] =
      static_cast<double>(last.stats.members_enumerated);
}
// k = 3 over a binary relation needs 2^36 candidates — the PSPACE wall; we
// sweep to k = 2 here and show k = 3 on a unary-only schema below.
BENCHMARK(BM_RegistersSweep)->DenseRange(1, 2)->Unit(benchmark::kMillisecond);

void BM_RegistersUnarySchema(benchmark::State& state) {
  const int k = static_cast<int>(state.range(0));
  Schema u;
  u.AddRelation("p", 1);
  auto schema = MakeSchema(std::move(u));
  DdsSystem system(schema);
  std::vector<std::string> regs;
  for (int r = 0; r < k; ++r) {
    system.AddRegister("x" + std::to_string(r));
  }
  int a = system.AddState("a", true);
  int b = system.AddState("b", false, true);
  system.AddRule(a, b, "p(x0_new) & !p(x0_old)");
  AllStructuresClass cls(schema);
  SolveResult last;
  for (auto _ : state) {
    last = SolveEmptiness(system, cls, SolveOptions{.build_witness = false});
    benchmark::DoNotOptimize(last.nonempty);
  }
  state.counters["members"] =
      static_cast<double>(last.stats.members_enumerated);
}
BENCHMARK(BM_RegistersUnarySchema)->DenseRange(1, 4)->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace amalgam

namespace {

struct BenchRow {
  std::string name;
  double real_time_ms = 0;
};

// Milliseconds per google-benchmark "time_unit" value.
double MsPerUnit(const std::string& unit) {
  if (unit == "ns") return 1e-6;
  if (unit == "us") return 1e-3;
  if (unit == "s") return 1e3;
  return 1.0;  // "ms"
}

// Minimal extraction from google-benchmark's pretty-printed JSON: each
// benchmark object opens with its "name" line and later carries a
// "real_time" line followed by its "time_unit"; aggregate rows repeat the
// pattern and are kept too (their names are distinct). Every row is
// converted to milliseconds, so rows reported in other units meet the
// noise floor and the gate on the same scale. No JSON library is
// available in-tree, and these three keys are all the trajectory needs.
std::vector<BenchRow> ParseBenchJson(const std::string& path) {
  std::vector<BenchRow> rows;
  std::ifstream in(path);
  if (!in) return rows;
  std::string line;
  std::string pending_name;
  bool awaiting_unit = false;
  auto trimmed = [](const std::string& s) {
    const std::size_t b = s.find_first_not_of(" \t");
    return b == std::string::npos ? std::string() : s.substr(b);
  };
  while (std::getline(in, line)) {
    const std::string t = trimmed(line);
    if (t.rfind("\"name\":", 0) == 0) {
      const std::size_t open = t.find('"', 7);
      const std::size_t close =
          open == std::string::npos ? std::string::npos : t.find('"', open + 1);
      if (close != std::string::npos) {
        pending_name = t.substr(open + 1, close - open - 1);
      }
    } else if (t.rfind("\"real_time\":", 0) == 0 && !pending_name.empty()) {
      rows.push_back(BenchRow{pending_name, std::atof(t.c_str() + 12)});
      pending_name.clear();
      awaiting_unit = true;
    } else if (t.rfind("\"time_unit\":", 0) == 0 && awaiting_unit) {
      const std::size_t open = t.find('"', 12);
      const std::size_t close =
          open == std::string::npos ? std::string::npos : t.find('"', open + 1);
      if (close != std::string::npos) {
        rows.back().real_time_ms *=
            MsPerUnit(t.substr(open + 1, close - open - 1));
      }
      awaiting_unit = false;
    }
  }
  return rows;
}

// The build type a run was produced under, read back from the JSON context
// (main records it via AddCustomContext). Empty when the file predates the
// field — treated as a mismatch against any recorded type, because an
// unknown optimization level is exactly the hazard the check exists for.
std::string ReadBuildType(const std::string& path) {
  std::ifstream in(path);
  const std::string key = "\"amalgam_library_build_type\":";
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t at = line.find(key);
    if (at == std::string::npos) continue;
    const std::size_t open = line.find('"', at + key.size());
    const std::size_t close =
        open == std::string::npos ? std::string::npos : line.find('"', open + 1);
    if (close != std::string::npos) {
      return line.substr(open + 1, close - open - 1);
    }
  }
  return {};
}

// The outcome of a baseline comparison: the worst regression in percent (0
// when nothing regressed or nothing was comparable) and the number of
// baseline rows the fresh run did not produce.
struct BaselineDelta {
  double worst_regress_pct = 0.0;
  int missing = 0;
};

// Prints the per-benchmark delta of the fresh run against the committed
// baseline (bench/e2_baseline.json) — the perf trajectory successive PRs
// compare against. With `list_missing`, every baseline row absent from the
// fresh run is printed as "(missing)" and counted, so a gated row cannot
// drop out of the comparison silently. Refresh the baseline by copying a
// fresh BENCH_e2.json over it. Rows with a sub-0.1 ms baseline
// are printed but excluded from the regression verdict: at that scale the
// delta is timer noise, not trajectory. Runs whose recorded build type
// differs from the baseline's are not diffed at all: a Debug run against a
// Release baseline measures the optimizer, not the code, and would either
// trip the gate spuriously or launder a real regression as "build noise".
BaselineDelta PrintBaselineDelta(const std::string& fresh_path,
                                 const std::string& baseline_path,
                                 bool list_missing) {
  std::vector<BenchRow> fresh = ParseBenchJson(fresh_path);
  std::vector<BenchRow> baseline = ParseBenchJson(baseline_path);
  if (fresh.empty()) return {};
  if (baseline.empty()) {
    std::printf("\nNo baseline at %s; commit a fresh BENCH_e2.json there to "
                "start the trajectory.\n",
                baseline_path.c_str());
    return {};
  }
  const std::string fresh_type = ReadBuildType(fresh_path);
  const std::string baseline_type = ReadBuildType(baseline_path);
  if (fresh_type != baseline_type) {
    std::printf(
        "\nSkipping baseline delta: this run was built '%s' but the baseline "
        "(%s) records '%s'. Cross-build-type deltas measure the optimizer, "
        "not the code — rerun with the baseline's build type, or refresh the "
        "baseline by copying this build type's BENCH_e2.json over it.\n",
        fresh_type.empty() ? "(unrecorded)" : fresh_type.c_str(),
        baseline_path.c_str(),
        baseline_type.empty() ? "(unrecorded)" : baseline_type.c_str());
    return {};
  }
  constexpr double kNoiseFloorMs = 0.1;
  BaselineDelta delta;
  std::printf("\nDelta vs committed baseline (%s), real time [ms]:\n",
              baseline_path.c_str());
  for (const BenchRow& row : fresh) {
    const BenchRow* prev = nullptr;
    for (const BenchRow& b : baseline) {
      if (b.name == row.name) {
        prev = &b;
        break;
      }
    }
    if (!prev) {
      std::printf("  %-44s %31s %10.3f\n", row.name.c_str(), "(new)",
                  row.real_time_ms);
    } else if (prev->real_time_ms > 0) {
      const double pct = 100.0 * (row.real_time_ms - prev->real_time_ms) /
                         prev->real_time_ms;
      std::printf("  %-44s %10.3f -> %10.3f  (%+6.1f%%)\n", row.name.c_str(),
                  prev->real_time_ms, row.real_time_ms, pct);
      if (prev->real_time_ms >= kNoiseFloorMs &&
          pct > delta.worst_regress_pct) {
        delta.worst_regress_pct = pct;
      }
    }
  }
  if (list_missing) {
    for (const BenchRow& b : baseline) {
      bool ran = false;
      for (const BenchRow& row : fresh) ran = ran || row.name == b.name;
      if (ran) continue;
      std::printf("  %-44s %10.3f -> %10s\n", b.name.c_str(), b.real_time_ms,
                  "(missing)");
      ++delta.missing;
    }
  }
  return delta;
}

}  // namespace

// Custom main: emit machine-readable JSON (BENCH_e2.json) by default so
// successive PRs accumulate a perf trajectory, and print the delta against
// the committed baseline; explicit --benchmark_out flags still win (and
// skip the comparison).
int main(int argc, char** argv) {
  std::vector<char*> args(argv, argv + argc);
  bool has_out = false;
  bool has_format = false;
  for (int i = 1; i < argc; ++i) {
    // Exactly --benchmark_out=...; must not match --benchmark_out_format.
    if (std::string(argv[i]).rfind("--benchmark_out=", 0) == 0) {
      has_out = true;
    }
    if (std::string(argv[i]).rfind("--benchmark_out_format=", 0) == 0) {
      has_format = true;
    }
  }
  std::string out_flag = "--benchmark_out=BENCH_e2.json";
  std::string format_flag = "--benchmark_out_format=json";
  if (!has_out) args.push_back(out_flag.data());
  if (!has_out && !has_format) args.push_back(format_flag.data());
  int patched_argc = static_cast<int>(args.size());
  benchmark::Initialize(&patched_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(patched_argc, args.data())) {
    return 1;
  }
#ifdef AMALGAM_LIBRARY_BUILD_TYPE
  // Stamp the library's CMAKE_BUILD_TYPE into the JSON context so the
  // baseline comparison can refuse cross-build-type diffs. (libbenchmark's
  // own "library_build_type" context key describes *its* build, not ours.)
  benchmark::AddCustomContext("amalgam_library_build_type",
                              AMALGAM_LIBRARY_BUILD_TYPE);
#endif
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  if (!has_out) {
    // Opt-in perf gate (CI sets AMALGAM_E2_MAX_REGRESS_PCT=25): a
    // regression past the threshold, or a baseline row the run did not
    // produce, fails the run instead of just printing.
    const char* gate = std::getenv("AMALGAM_E2_MAX_REGRESS_PCT");
    const double threshold = gate != nullptr ? std::atof(gate) : 0.0;
#ifdef AMALGAM_E2_BASELINE
    const BaselineDelta delta = PrintBaselineDelta(
        "BENCH_e2.json", AMALGAM_E2_BASELINE, threshold > 0);
#else
    const BaselineDelta delta = PrintBaselineDelta(
        "BENCH_e2.json", "../bench/e2_baseline.json", threshold > 0);
#endif
    if (threshold > 0 && delta.worst_regress_pct > threshold) {
      std::fprintf(stderr,
                   "\nFAIL: worst benchmark regression %+.1f%% exceeds the "
                   "%.0f%% gate (AMALGAM_E2_MAX_REGRESS_PCT)\n",
                   delta.worst_regress_pct, threshold);
      return 1;
    }
    if (delta.missing > 0) {
      std::fprintf(stderr,
                   "\nFAIL: %d baseline row(s) missing from this run; the "
                   "gate (AMALGAM_E2_MAX_REGRESS_PCT) compares every "
                   "baseline row\n",
                   delta.missing);
      return 1;
    }
  }
  return 0;
}
