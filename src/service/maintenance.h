// The daemon's background self-maintenance: the store tier keeps itself
// finished, folded and warm without waiting for queries to do it.
//
// A MaintenanceLoop owns one background thread (optional — interval 0
// means passes run only on demand, via the {"op":"maintain"} admin op or
// RunOnce() directly) over a QueryService, and the daemon's only *recipe
// table*: graph key → the latest query line over that graph, LRU. A store
// entry persists no formulas, so resuming one needs a request; the table
// supplies it. Sessions record each line under the key Submit already
// derived, so recording parses nothing. Each pass does, in order:
//
//   1. *Complete partials.* The pass walks the table's keys, warmest
//      first, and skips every key whose graph is complete in memory or in
//      the store without parsing its line. A partial graph's line is
//      parsed and resubmitted through the ordinary Submit path, eager and
//      without a witness, so it takes the key's build claim like live
//      traffic: never two racing suffix sweeps over one key. Only while
//      the worker pool is idle (Pending() == 0); live traffic ends the
//      phase.
//   2. *Repack.* When the loose tier has accumulated at least
//      `repack_min_loose` files, GraphStore::Repack folds it into a fresh
//      pack generation (see solver/store.h and docs/STORE_FORMAT.md).
//   3. *Sweep.* With disk caps configured on the service
//      (QueryService::Options::store_max_bytes/store_max_files), the pass
//      sweeps the store to them (QueryService::SweepStoreToCaps), on a
//      schedule instead of only after writing queries.
//
// The table persists as the *access log*, <store_dir>/access.jsonl, one
// line per key, coldest first, rewritten (temp file + rename) only after
// something new was recorded. A restarted loop loads the log's lines
// unkeyed and keys each once: in Prewarm(), which derives every line's
// context anyway to promote its graph into the memory tier, or else in
// the first pass or flush. The last logged line per key wins, and keys
// recorded since startup keep their fresher line. Prewarm is an
// optimization, never a correctness dependency.
#ifndef AMALGAM_SERVICE_MAINTENANCE_H_
#define AMALGAM_SERVICE_MAINTENANCE_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/service.h"

namespace amalgam {

struct MaintenanceOptions {
  /// The store directory (the access log lives beside the graph files).
  /// Empty disables the access log and prewarm; recipes are still kept in
  /// memory for passes.
  std::string store_dir;
  /// Background pass cadence; 0 = no thread, passes only via RunOnce().
  int interval_ms = 0;
  /// Repack when the loose tier holds at least this many files. 0
  /// disables scheduled repack (the admin op still triggers a pass, and a
  /// pass with 0 never repacks).
  std::uint64_t repack_min_loose = 8;
};

/// What one maintenance pass did.
struct MaintenancePassResult {
  std::uint64_t partials_completed = 0;
  std::uint64_t repacks = 0;
  std::uint64_t sweep_files_removed = 0;
};

/// Cumulative counters since construction (surfaced by the stats op).
struct MaintenanceStats {
  std::uint64_t passes = 0;
  std::uint64_t partials_completed = 0;
  std::uint64_t prewarm_loads = 0;
  std::uint64_t repacks = 0;
};

class MaintenanceLoop {
 public:
  /// Graph keys the recipe table (and so the access log) remembers; at the
  /// cap, recording a new key forgets the least recently recorded one.
  static constexpr std::size_t kRecipeCapacity = 1024;

  /// The service must outlive the loop. The loop does not start running
  /// until Start().
  MaintenanceLoop(QueryService& service, MaintenanceOptions options);
  ~MaintenanceLoop();  // Stop()

  MaintenanceLoop(const MaintenanceLoop&) = delete;
  MaintenanceLoop& operator=(const MaintenanceLoop&) = delete;

  /// Starts the background thread when interval_ms > 0; otherwise a
  /// no-op. Idempotent. Call Prewarm() first if warm startup is wanted.
  void Start();

  /// Stops and joins the background thread and flushes the access log.
  /// Idempotent; implied by the destructor. Call before shutting the
  /// service down (a pass mid-flight may be submitting to it).
  void Stop();

  /// One synchronous maintenance pass (also what the background thread
  /// and the {"op":"maintain"} admin op run). Passes are serialized —
  /// concurrent callers queue on an internal mutex.
  MaintenancePassResult RunOnce();

  /// Keys the persisted access log's lines, promoting each one's graph
  /// from the store into the memory tier, coldest first. Returns the
  /// number of lines whose graph is now warm; counted into stats as
  /// prewarm_loads. Lines keyed earlier (by a pass or a flush) are not
  /// revisited, so call it at startup, before Start().
  std::uint64_t Prewarm();

  /// Remembers `line` as the latest request for graph `key` (the key
  /// QueryService::Submit derived for it; "" records nothing). Memory
  /// only, no parsing: call from transport threads freely.
  void RecordAccess(std::string key, std::string_view line);

  MaintenanceStats GetStats() const;

 private:
  struct Recipe {
    std::string key;
    /// Immutable once recorded, so a flush snapshots the table by
    /// reference and writes it outside recipes_mutex_.
    std::shared_ptr<const std::string> line;
  };

  void ThreadLoop();
  /// Parses and keys the loaded log lines not yet keyed, in file order,
  /// and folds them into the table behind every key recorded since (the
  /// last line per key wins). With `prewarm`, each line's graph is also
  /// promoted into the memory tier; returns how many were. Caller holds
  /// pass_mutex_.
  std::uint64_t KeyLoggedLines(bool prewarm);
  /// Persists the table to <store_dir>/access.jsonl (temp+rename; no-op
  /// when nothing new was recorded or without a store_dir). Snapshots the
  /// lines by reference under recipes_mutex_ and writes them one at a time
  /// outside it: the log is never built in memory, and RecordAccess never
  /// waits on the disk. Caller holds pass_mutex_, so a flush never
  /// publishes a table that keying is halfway through filling.
  void FlushAccessLog();
  std::string AccessLogPath() const;

  QueryService& service_;
  const MaintenanceOptions options_;

  // The recipe table, least recently recorded first. The index's views
  // point into the list nodes' keys, which never move.
  mutable std::mutex recipes_mutex_;
  std::list<Recipe> recipes_;
  std::unordered_map<std::string_view, std::list<Recipe>::iterator>
      recipe_index_;
  bool dirty_ = false;  // recorded since the last flush
  // Persisted lines loaded at construction and not yet keyed, file order.
  std::vector<std::string> unkeyed_;

  // Serializes passes, Prewarm and Stop's flush; taken before
  // recipes_mutex_.
  std::mutex pass_mutex_;

  mutable std::mutex stats_mutex_;
  MaintenanceStats stats_;

  std::mutex thread_mutex_;
  std::condition_variable thread_cv_;
  bool stop_ = false;
  bool started_ = false;
  std::thread thread_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_MAINTENANCE_H_
