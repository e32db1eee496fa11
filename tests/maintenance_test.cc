// Tests for the self-maintaining store tier: an idle maintenance pass —
// with NO queries submitted to the daemon — must drive a partial
// persisted entry to completion using recipes derived from the persisted
// access log, fold the loose tier into the pack, and leave the entry
// servable with zero enumeration; prewarm must promote persisted graphs
// into the memory tier across a restart; the access log must hold one
// line per graph key, stay bounded and LRU-ordered, load older logs with
// many lines per key, and survive flush/reload and concurrent flushes
// from two daemons; and the {"op":"maintain"} admin op must report the
// pass through the session layer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "service/maintenance.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "solver/graph.h"
#include "solver/store.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

std::string MaintStoreDir(const std::string& name) {
  const char* env = std::getenv("AMALGAM_STORE_TEST_DIR");
  const fs::path base =
      (env && *env) ? fs::path(env) : fs::path(::testing::TempDir());
  const fs::path dir = base / ("maintenance_" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

// The canonical early-exiting query: reach_red over "all" is nonempty, so
// the default on-the-fly strategy stops at the witness and persists a
// *partial* graph — exactly what the maintenance loop exists to finish.
const char kReachRedLine[] =
    R"({"kind":"system","class":"all","system":"reach_red"})";

TEST(MaintenanceTest, IdleLoopAloneCompletesAPartialStoreEntry) {
  const std::string dir = MaintStoreDir("idle_completion");
  const ProtocolRequest parsed = ParseRequestLine(kReachRedLine);
  ASSERT_TRUE(parsed.error.empty()) << parsed.error;

  std::string key;
  // Daemon 1: one on-the-fly query early-exits at its witness; the
  // partial graph hits disk and the access log records the line.
  {
    QueryService::Options options;
    options.store_dir = dir;
    QueryService service(options);
    key = service.GraphKeyFor(parsed.query);
    ASSERT_FALSE(key.empty());
    QueryResult first = service.Submit(parsed.query).get();
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_TRUE(first.nonempty);

    MaintenanceOptions mopts;
    mopts.store_dir = dir;
    MaintenanceLoop loop(service, mopts);
    loop.RecordAccess(key, kReachRedLine);
    loop.Stop();  // flushes access.jsonl
    service.Shutdown();
  }
  {
    GraphStore store(dir);
    const GraphStore::KeyProgress before = store.PeekKey(key);
    ASSERT_TRUE(before.found);
    ASSERT_NE(before.cursor.phase, kCursorPhaseComplete)
        << "the early-exited query must persist a *partial* entry";
  }

  // Daemon 2: NO queries. One maintenance pass — its recipes derived
  // entirely from the persisted access log, since a fresh daemon has
  // recorded nothing — must complete the entry and fold it into the pack.
  {
    QueryService::Options options;
    options.store_dir = dir;
    QueryService service(options);
    MaintenanceOptions mopts;
    mopts.store_dir = dir;
    mopts.repack_min_loose = 1;
    MaintenanceLoop loop(service, mopts);
    const MaintenancePassResult pass = loop.RunOnce();
    EXPECT_EQ(pass.partials_completed, 1u);
    EXPECT_EQ(pass.repacks, 1u);
    const MaintenanceStats stats = loop.GetStats();
    EXPECT_EQ(stats.passes, 1u);
    EXPECT_EQ(stats.partials_completed, 1u);
    service.Shutdown();
  }
  {
    GraphStore store(dir);
    const GraphStore::KeyProgress after = store.PeekKey(key);
    ASSERT_TRUE(after.found);
    EXPECT_EQ(after.cursor.phase, kCursorPhaseComplete);
    EXPECT_EQ(store.PackEntryCount(), 1u);
    EXPECT_EQ(store.LooseFileCount(), 0u);
  }

  // Daemon 3: prewarm promotes the completed graph into memory, so the
  // query that originally built it is now answered with zero enumeration.
  {
    QueryService::Options options;
    options.store_dir = dir;
    QueryService service(options);
    MaintenanceOptions mopts;
    mopts.store_dir = dir;
    MaintenanceLoop loop(service, mopts);
    EXPECT_EQ(loop.Prewarm(), 1u);
    EXPECT_EQ(loop.GetStats().prewarm_loads, 1u);
    QueryResult served = service.Submit(parsed.query).get();
    ASSERT_TRUE(served.ok) << served.error;
    EXPECT_TRUE(served.stats.graph_from_cache);
    EXPECT_EQ(served.stats.members_enumerated, 0u);
    service.Shutdown();
  }
}

TEST(MaintenanceTest, PassRepairsAStaleIndexEvenWithNoLooseFiles) {
  // A crash between the two publication renames leaves a pack bound to a
  // stale index and possibly zero loose files — below any loose-count
  // repack threshold. The pass must still notice and repair it.
  const std::string dir = MaintStoreDir("stale_index_repair");
  const ProtocolRequest parsed = ParseRequestLine(kReachRedLine);
  ASSERT_TRUE(parsed.error.empty()) << parsed.error;

  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  QueryResult r = service.Submit(parsed.query).get();
  ASSERT_TRUE(r.ok) << r.error;

  const std::shared_ptr<const GraphStore> store = service.cache().store();
  ASSERT_NE(store, nullptr);
  store->Repack(RepackKillPoint::kBeforeIndexRename);  // the "crash"
  // Fold away the loose file so only the unindexed pack remains.
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".amg") fs::remove(entry.path());
  }
  ASSERT_TRUE(store->PackNeedsRepair());
  ASSERT_EQ(store->LooseFileCount(), 0u);

  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  mopts.repack_min_loose = 8;  // loose count alone would never trigger
  MaintenanceLoop loop(service, mopts);
  const MaintenancePassResult pass = loop.RunOnce();
  EXPECT_EQ(pass.repacks, 1u);
  EXPECT_FALSE(store->PackNeedsRepair());
  EXPECT_EQ(store->PackEntryCount(), 1u);
  service.Shutdown();
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::vector<std::string> lines;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

TEST(MaintenanceTest, AccessLogIsBoundedPersistedAndLruOrdered) {
  const std::string dir = MaintStoreDir("access_log");
  QueryService service;
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  constexpr std::size_t kCap = MaintenanceLoop::kRecipeCapacity;
  auto probe = [](std::size_t i) {
    return "{\"probe\":" + std::to_string(i) + "}";
  };
  {
    MaintenanceLoop loop(service, mopts);
    for (std::size_t i = 0; i < kCap + 2; ++i) {
      loop.RecordAccess("key" + std::to_string(i), probe(i));
    }
    loop.RecordAccess("key2", probe(2));  // re-recorded: moves to the warm end
    loop.RecordAccess("", probe(kCap + 2));  // no key: never recorded
    loop.Stop();
  }

  // At the cap, keys 0 and 1 were forgotten; the re-recorded key 2
  // survived and sits at the warm end.
  std::vector<std::string> lines = ReadLines(dir + "/access.jsonl");
  ASSERT_EQ(lines.size(), kCap);
  EXPECT_EQ(lines.front(), probe(3));
  EXPECT_EQ(lines[kCap - 2], probe(kCap + 1));
  EXPECT_EQ(lines.back(), probe(2));

  // A fresh loop loads the file; with nothing new recorded, Stop() must
  // not rewrite it (these lines are no queries, so keying them would
  // drop every one).
  {
    MaintenanceLoop loop(service, mopts);
    loop.Stop();
  }
  EXPECT_EQ(ReadLines(dir + "/access.jsonl").size(), kCap);
  service.Shutdown();
}

const char kContradictionLine[] =
    R"({"kind":"system","class":"all","system":"contradiction"})";

// `line` (a JSON object) with an "id" member prepended.
std::string WithId(int id, const std::string& line) {
  return "{\"id\":" + std::to_string(id) + "," + line.substr(1);
}

TEST(MaintenanceTest, AccessLogHoldsOneLinePerGraphKey) {
  // Every protocol line carries its own id, so three queries over one
  // graph are three different lines — and still one recipe.
  const std::string dir = MaintStoreDir("one_line_per_key");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);
  {
    Session::Options sopts;
    sopts.maintenance = &loop;
    Session session(service, sopts, [](const std::string&) {});
    session.HandleLine(WithId(1, kReachRedLine));
    session.HandleLine(WithId(2, kReachRedLine));
    session.HandleLine(WithId(3, kReachRedLine));
    session.HandleLine(WithId(4, kContradictionLine));
    session.HandleLine(R"({"id":5,"kind":"nope"})");  // no key: not recorded
    session.Flush();
  }
  loop.Stop();
  const std::vector<std::string> lines = ReadLines(dir + "/access.jsonl");
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], WithId(3, kReachRedLine)) << "the latest line wins";
  EXPECT_EQ(lines[1], WithId(4, kContradictionLine));
  service.Shutdown();
}

TEST(MaintenanceTest, OlderLogWithManyLinesPerKeyLoadsAndDedupes) {
  const std::string dir = MaintStoreDir("old_log");
  const std::vector<std::string> old_log = {
      WithId(1, kReachRedLine), WithId(2, kContradictionLine),
      WithId(3, kReachRedLine), WithId(4, kReachRedLine),
      "not a query line"};
  {
    std::ofstream out(dir + "/access.jsonl");
    for (const std::string& line : old_log) out << line << '\n';
  }
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  MaintenanceOptions mopts;
  mopts.store_dir = dir;

  // Keying the loaded lines (here: a pass) records nothing new, so the
  // log stays as it was.
  {
    MaintenanceLoop loop(service, mopts);
    loop.RunOnce();
    loop.Stop();
  }
  EXPECT_EQ(ReadLines(dir + "/access.jsonl"), old_log);

  // Once something new is recorded, the rewrite holds one line per key:
  // the last logged line for each, in log order, then the new one.
  const ProtocolRequest word = ParseRequestLine(
      R"({"id":5,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})");
  ASSERT_TRUE(word.error.empty()) << word.error;
  {
    MaintenanceLoop loop(service, mopts);
    loop.RecordAccess(service.GraphKeyFor(word.query),
                      R"({"id":5,"kind":"words","nfa":"aplus_bplus",)"
                      R"("system":"zigzag"})");
    loop.Stop();
  }
  const std::vector<std::string> lines = ReadLines(dir + "/access.jsonl");
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], WithId(2, kContradictionLine));
  EXPECT_EQ(lines[1], WithId(4, kReachRedLine));
  EXPECT_NE(lines[2].find("\"id\":5"), std::string::npos) << lines[2];
  service.Shutdown();
}

TEST(MaintenanceTest, ConcurrentFlushesFromTwoLoopsPublishWholeLogs) {
  // Two daemons sharing one store directory flush the same access log.
  // Each flush must publish its own complete file: no torn lines, and no
  // temp file left behind.
  const std::string dir = MaintStoreDir("concurrent_flush");
  QueryService service;
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  mopts.repack_min_loose = 0;
  MaintenanceLoop first(service, mopts);
  MaintenanceLoop second(service, mopts);
  constexpr int kFlushes = 200;
  auto churn = [&](MaintenanceLoop& loop, int loop_id) {
    for (int i = 0; i < kFlushes; ++i) {
      // Synthetic keys name no graph, so each pass is just the flush.
      loop.RecordAccess(
          "loop" + std::to_string(loop_id) + "/" + std::to_string(i),
          WithId(loop_id * kFlushes + i, kReachRedLine));
      loop.RunOnce();
    }
  };
  std::thread a(churn, std::ref(first), 0);
  std::thread b(churn, std::ref(second), 1);
  a.join();
  b.join();

  const std::vector<std::string> lines = ReadLines(dir + "/access.jsonl");
  EXPECT_EQ(lines.size(), static_cast<std::size_t>(kFlushes));
  for (const std::string& line : lines) {
    const ProtocolRequest parsed = ParseRequestLine(line);
    EXPECT_TRUE(parsed.error.empty()) << line;
  }
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("access.jsonl.tmp", 0),
              0u)
        << entry.path();
  }
  service.Shutdown();
}

TEST(MaintenanceTest, FailedFlushLeavesNoTempFileAndRetries) {
  // A directory squatting on the log's name makes the publishing rename
  // fail: the flush must clean up its temp file, keep what is there, and
  // publish on the next flush once the name is free.
  const std::string dir = MaintStoreDir("failed_flush");
  const std::string log = dir + "/access.jsonl";
  fs::create_directories(log + "/occupied");
  QueryService service;
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  mopts.repack_min_loose = 0;
  MaintenanceLoop loop(service, mopts);
  loop.RecordAccess("key", WithId(1, kReachRedLine));
  loop.RunOnce();
  EXPECT_TRUE(fs::is_directory(log + "/occupied"));
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().filename().string().rfind("access.jsonl.tmp", 0),
              0u)
        << entry.path();
  }

  fs::remove_all(log);
  loop.Stop();  // nothing new recorded, but the failed flush is retried
  EXPECT_EQ(ReadLines(log),
            std::vector<std::string>{WithId(1, kReachRedLine)});
  service.Shutdown();
}

TEST(MaintenanceTest, MaintainOpReportsThePassThroughTheSession) {
  const std::string dir = MaintStoreDir("maintain_op");
  QueryService::Options options;
  options.store_dir = dir;
  QueryService service(options);
  MaintenanceOptions mopts;
  mopts.store_dir = dir;
  MaintenanceLoop loop(service, mopts);

  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session::Options sopts;
    sopts.id = 9;
    sopts.maintenance = &loop;
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red"})");
    session.HandleLine(R"({"id":2,"op":"maintain"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_NE(lines[1].find("\"op\":\"maintain\""), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"partials_completed\":1"), std::string::npos)
      << "the accepted query line becomes a recipe; the op's pass must "
         "complete the partial it left: "
      << lines[1];
  EXPECT_NE(lines[1].find("\"total_passes\":1"), std::string::npos)
      << lines[1];
  service.Shutdown();
}

TEST(MaintenanceTest, MaintainOpWithoutALoopFailsInBand) {
  QueryService service;
  std::mutex lines_mutex;
  std::vector<std::string> lines;
  {
    Session::Options sopts;  // no maintenance loop attached
    sopts.id = 3;
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(R"({"id":1,"op":"maintain"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"ok\":false"), std::string::npos) << lines[0];
  EXPECT_NE(lines[0].find("\"error_code\":\"no_maintenance\""),
            std::string::npos)
      << lines[0];
  service.Shutdown();
}

}  // namespace
}  // namespace amalgam
