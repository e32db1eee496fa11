#include "service/maintenance.h"

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "service/protocol.h"
#include "solver/store.h"

namespace amalgam {

MaintenanceLoop::MaintenanceLoop(QueryService& service,
                                 MaintenanceOptions options)
    : service_(service), options_(std::move(options)) {
  // Load the persisted log unkeyed: keying parses every line, which
  // Prewarm() does anyway, so it waits for Prewarm or the first pass.
  if (options_.store_dir.empty()) return;
  std::ifstream in(AccessLogPath());
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) unkeyed_.push_back(std::move(line));
  }
}

MaintenanceLoop::~MaintenanceLoop() { Stop(); }

std::string MaintenanceLoop::AccessLogPath() const {
  return (std::filesystem::path(options_.store_dir) / "access.jsonl")
      .string();
}

void MaintenanceLoop::Start() {
  std::lock_guard<std::mutex> lock(thread_mutex_);
  if (started_ || options_.interval_ms <= 0) return;
  started_ = true;
  thread_ = std::thread([this] { ThreadLoop(); });
}

void MaintenanceLoop::Stop() {
  {
    std::lock_guard<std::mutex> lock(thread_mutex_);
    stop_ = true;
  }
  thread_cv_.notify_all();
  if (thread_.joinable()) thread_.join();
  std::lock_guard<std::mutex> pass_lock(pass_mutex_);
  FlushAccessLog();
}

void MaintenanceLoop::ThreadLoop() {
  std::unique_lock<std::mutex> lock(thread_mutex_);
  while (!stop_) {
    if (thread_cv_.wait_for(lock,
                            std::chrono::milliseconds(options_.interval_ms),
                            [this] { return stop_; })) {
      return;
    }
    lock.unlock();
    RunOnce();
    lock.lock();
  }
}

MaintenancePassResult MaintenanceLoop::RunOnce() {
  std::lock_guard<std::mutex> pass_lock(pass_mutex_);
  MaintenancePassResult result;
  KeyLoggedLines(/*prewarm=*/false);
  FlushAccessLog();
  const std::shared_ptr<const GraphStore> store = service_.cache().store();

  // Complete partials: every remembered key whose graph stopped short of
  // complete, resumed through the ordinary submit path (eager, no
  // witness) so it takes the key's build claim — a live query either waits
  // for this build or this build waits for it, never a duplicate sweep.
  // Warmest first; a line is parsed only for a key that needs the work.
  std::vector<std::string> keys;
  {
    std::lock_guard<std::mutex> lock(recipes_mutex_);
    keys.reserve(recipes_.size());
    for (auto it = recipes_.rbegin(); it != recipes_.rend(); ++it) {
      keys.push_back(it->key);
    }
  }
  for (const std::string& key : keys) {
    if (service_.Pending() > 0) break;  // live traffic: the pool is not idle
    const std::shared_ptr<const SubTransitionGraph> cached =
        service_.cache().Peek(key);
    if (cached != nullptr && cached->complete()) continue;
    if (cached == nullptr) {
      // Nothing in memory: only a *partial* persisted entry needs work
      // (a complete one is prewarm's business, not completion's).
      if (!store) continue;
      const std::optional<BuildProgress> progress = store->PeekKey(key);
      if (!progress || progress->cursor.phase == kCursorPhaseComplete) {
        continue;
      }
    }
    std::shared_ptr<const std::string> line;
    {
      std::lock_guard<std::mutex> lock(recipes_mutex_);
      const auto it = recipe_index_.find(key);
      if (it == recipe_index_.end()) continue;  // forgotten meanwhile
      line = it->second->line;
    }
    ProtocolRequest parsed = ParseRequestLine(*line);
    if (!parsed.error.empty() || parsed.op != ProtocolRequest::Op::kQuery) {
      continue;
    }
    QueryRequest request = std::move(parsed.query);
    request.strategy = SolveStrategy::kEager;
    request.build_witness = false;
    request.trace = nullptr;
    try {
      const QueryResult completed = service_.Submit(std::move(request)).get();
      if (completed.ok) ++result.partials_completed;
    } catch (const std::exception&) {
      break;  // service shutting down underneath the pass
    }
  }

  // Repack when enough loose files accumulated — or whenever the pack's
  // index is stale/missing (a crash between the two publication renames):
  // republishing a fresh generation is exactly the repair.
  if (store && options_.repack_min_loose > 0 &&
      (store->LooseFileCount() >= options_.repack_min_loose ||
       store->PackNeedsRepair())) {
    if (store->Repack().performed) ++result.repacks;
  }

  result.sweep_files_removed = service_.SweepStoreToCaps().files_removed;

  {
    std::lock_guard<std::mutex> lock(stats_mutex_);
    ++stats_.passes;
    stats_.partials_completed += result.partials_completed;
    stats_.repacks += result.repacks;
  }
  return result;
}

std::uint64_t MaintenanceLoop::Prewarm() {
  std::uint64_t loads = 0;
  {
    std::lock_guard<std::mutex> pass_lock(pass_mutex_);
    loads = KeyLoggedLines(/*prewarm=*/true);
  }
  std::lock_guard<std::mutex> lock(stats_mutex_);
  stats_.prewarm_loads += loads;
  return loads;
}

std::uint64_t MaintenanceLoop::KeyLoggedLines(bool prewarm) {
  std::vector<std::string> lines;
  {
    std::lock_guard<std::mutex> lock(recipes_mutex_);
    lines.swap(unkeyed_);
  }
  if (lines.empty()) return 0;
  // Parse and key outside the table lock — transport threads keep
  // recording meanwhile. File order, so prewarm promotes the warmest
  // graphs last and the memory tier's LRU keeps them longest.
  std::uint64_t loads = 0;
  std::vector<std::string> keys(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const ProtocolRequest parsed = ParseRequestLine(lines[i]);
    if (!parsed.error.empty() || parsed.op != ProtocolRequest::Op::kQuery) {
      continue;
    }
    if (prewarm) {
      if (service_.Prewarm(parsed.query, &keys[i])) ++loads;
    } else {
      keys[i] = service_.GraphKeyFor(parsed.query);
    }
  }
  // Fold in warmest first, each at the cold end behind everything already
  // there: a key recorded since startup keeps its fresher line, and a
  // key's last logged line beats its earlier ones.
  std::lock_guard<std::mutex> lock(recipes_mutex_);
  for (std::size_t i = lines.size(); i-- > 0;) {
    if (recipes_.size() >= kRecipeCapacity) break;
    if (keys[i].empty() || recipe_index_.count(keys[i]) != 0) continue;
    recipes_.push_front(
        Recipe{std::move(keys[i]),
               std::make_shared<const std::string>(std::move(lines[i]))});
    recipe_index_.emplace(recipes_.front().key, recipes_.begin());
  }
  return loads;
}

void MaintenanceLoop::RecordAccess(std::string key, std::string_view line) {
  if (key.empty()) return;
  // Copied before the lock: a flush may still be writing the line this
  // one replaces.
  auto recorded = std::make_shared<const std::string>(line);
  std::lock_guard<std::mutex> lock(recipes_mutex_);
  dirty_ = true;
  auto it = recipe_index_.find(key);
  if (it != recipe_index_.end()) {
    // A known graph: its latest line moves to the warm end.
    it->second->line = std::move(recorded);
    recipes_.splice(recipes_.end(), recipes_, it->second);
    return;
  }
  if (recipes_.size() >= kRecipeCapacity) {
    recipe_index_.erase(recipes_.front().key);
    recipes_.pop_front();
  }
  recipes_.push_back(Recipe{std::move(key), std::move(recorded)});
  recipe_index_.emplace(recipes_.back().key, std::prev(recipes_.end()));
}

void MaintenanceLoop::FlushAccessLog() {
  if (options_.store_dir.empty()) return;
  {
    std::lock_guard<std::mutex> lock(recipes_mutex_);
    if (!dirty_) return;
  }
  // The log holds one line per key, so lines loaded but not yet keyed
  // are keyed before they are rewritten.
  KeyLoggedLines(/*prewarm=*/false);
  std::vector<std::shared_ptr<const std::string>> lines;
  {
    std::lock_guard<std::mutex> lock(recipes_mutex_);
    lines.reserve(recipes_.size());
    for (const Recipe& recipe : recipes_) lines.push_back(recipe.line);
    dirty_ = false;
  }
  // Unique temp name per process *and* per call: two daemons sharing the
  // directory, or two loops in one process, never write one temp file.
  static std::atomic<std::uint64_t> flush_counter{0};
  const std::string path = AccessLogPath();
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(flush_counter.fetch_add(1));
  std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
  for (const std::shared_ptr<const std::string>& line : lines) {
    out.write(line->data(), static_cast<std::streamsize>(line->size()));
    out.put('\n');
  }
  out.close();
  std::error_code ec;
  if (!out.fail()) std::filesystem::rename(tmp, path, ec);
  if (out.fail() || ec) {
    // Disk trouble: keep the old log, drop the temp file, retry next time.
    std::filesystem::remove(tmp, ec);
    std::lock_guard<std::mutex> lock(recipes_mutex_);
    dirty_ = true;
  }
}

MaintenanceStats MaintenanceLoop::GetStats() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return stats_;
}

}  // namespace amalgam
