// The concurrent query service: a worker pool over one shared
// engine/cache/store stack.
//
//   * a fixed worker pool executes submitted queries asynchronously
//     (Submit returns a std::future<QueryResult>, or calls a completion on
//     the worker that answered; SubmitBatch returns one future per
//     request);
//   * one GraphCache (optionally LRU-capped, and disk-backed when
//     Options::store_dir names a directory — the only way a service gets a
//     store) is shared by every query, so distinct requests over the same
//     (class, k, guard set) reuse one sub-transition graph;
//   * concurrent queries over one cold or partial key coalesce onto one
//     build or one suffix sweep by the cache's build claims, on the graph
//     path every front door takes (solver/cache.h): the service only
//     derives each request's graph context, enqueues it and reads back
//     whether the query waited (QueryResult::coalesced). A queued query
//     holds no claim, so any number of workers, one included, serves any
//     submission order.
//
// Verdict equivalence with the synchronous front doors is structural: a
// query is executed by calling the very same front door with the shared
// cache passed in, so the only thing the service changes is which thread
// runs it.
//
// Blocking work that must not hold a query worker (an admin op that drains
// the service would wait on the worker it held) runs on the service's one
// admin thread instead: PostAdmin.
//
// Shutdown is graceful: Drain() blocks until every accepted query has
// completed; Shutdown() (and the destructor) runs the posted admin jobs,
// drains, then joins the workers. Submissions after Shutdown throw.
#ifndef AMALGAM_SERVICE_SERVICE_H_
#define AMALGAM_SERVICE_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "service/query.h"
#include "solver/cache.h"
#include "solver/context.h"

namespace amalgam {

class QueryService {
 public:
  struct Options {
    /// Worker threads executing queries (clamped to >= 1).
    int num_workers = 4;
    /// GraphCache memory-tier cap (0 = unbounded).
    std::size_t cache_max_entries = 0;
    /// When non-empty, attach the disk tier at this directory. The store is
    /// fixed for the service's lifetime: no query can attach another.
    std::string store_dir;
    /// Disk-tier caps, enforced by an LRU-by-atime sweep after each query
    /// that wrote to the store and by each maintenance pass (0 =
    /// unlimited).
    std::uint64_t store_max_bytes = 0;
    std::uint64_t store_max_files = 0;
    /// The registry the service's latency/queue-wait histograms live in
    /// (amalgamd passes &MetricsRegistry::Global()). Null — the default —
    /// gives the service a private registry, so embedded services and
    /// tests never pollute process-global metric state.
    MetricsRegistry* metrics = nullptr;
    /// Completed queries remembered by the recent-query ring (Recent(),
    /// the {"op":"recent"} admin op). 0 disables the ring.
    std::size_t recent_capacity = 128;
  };

  QueryService() : QueryService(Options{}) {}
  explicit QueryService(Options options);
  ~QueryService();  // Shutdown()

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Enqueues one query; the future resolves when a worker has finished it
  /// (errors arrive in-band via QueryResult::ok/error — the future itself
  /// never throws). Throws std::runtime_error after Shutdown(). When
  /// `graph_key` is non-null it receives the graph key Submit derived for
  /// the request ("" when the request is invalid) — the maintenance loop's
  /// recipe index, copied only for callers that ask.
  std::future<QueryResult> Submit(QueryRequest request,
                                  std::string* graph_key = nullptr);

  /// Receives a finished query on the worker that ran it: the request,
  /// handed back so the caller decides on which thread its inputs are
  /// freed, and the result. Must not throw.
  using Completion =
      std::function<void(QueryRequest request, QueryResult result)>;

  /// Enqueues one query like Submit above; `done` runs on the worker once
  /// the query finished, after Pending() stopped counting it.
  void Submit(QueryRequest request, Completion done,
              std::string* graph_key = nullptr);

  /// Submits each request in order; one future per request. The batch
  /// enters the queue under one lock and wakes at most one worker per
  /// request. Throws std::runtime_error after Shutdown(), enqueuing none.
  std::vector<std::future<QueryResult>> SubmitBatch(
      std::vector<QueryRequest> requests);

  /// Blocks until every query accepted so far has completed. New
  /// submissions during a drain are allowed and extend it.
  void Drain();

  /// Runs `job` on the service's admin thread, started on first use, after
  /// every job posted before it. Once Shutdown has begun, runs `job` on the
  /// calling thread instead.
  void PostAdmin(std::function<void()> job);

  /// Runs the posted admin jobs, drains, then stops and joins the workers.
  /// Idempotent; implied by the destructor. Further Submit calls throw.
  void Shutdown();

  /// Aggregated counters + latency percentiles; safe to call concurrently
  /// with running queries (cache counters are atomics, service counters
  /// are snapshotted under the stats lock). Percentiles come from the
  /// registry's latency histogram over every completion since startup.
  ServiceStats Stats() const;

  /// The registry holding this service's live histograms (and, in
  /// amalgamd, every exported counter): Options::metrics, or the private
  /// per-service registry when none was supplied.
  MetricsRegistry& metrics() { return *metrics_; }

  /// The most recent completions, oldest first (bounded by
  /// Options::recent_capacity) — the {"op":"recent"} slow-query log.
  std::vector<RecentQuery> Recent() const;

  /// Queries accepted but not yet finished — the maintenance loop's
  /// cheap idleness probe (Stats() copies the latency ring; this doesn't).
  std::uint64_t Pending() const;

  /// Promotes the persisted graph for `request`'s key into the memory
  /// tier without running the query: builds the same backend/guards the
  /// front door would and pulls the key through the context-ful cache
  /// lookup (disk load + promote). Returns true when a graph (complete or
  /// partial) is now cached in memory; false on a store miss or an
  /// invalid request. Never builds anything. When `graph_key` is non-null
  /// it receives the key the lookup used ("" for an invalid request), so
  /// a caller replaying logged requests keys each one once.
  bool Prewarm(const QueryRequest& request, std::string* graph_key = nullptr);

  /// The cache key `request` would build under, or "" when the request
  /// cannot produce one (invalid inputs). Lets the maintenance loop key
  /// persisted access-log lines without going through Submit.
  std::string GraphKeyFor(const QueryRequest& request) const;

  /// The shared cache (for tests and admin paths; thread-safe itself).
  GraphCache& cache() { return cache_; }
  /// Sweeps the attached disk tier (no-op without one); the admin
  /// counterpart of the automatic post-query sweep.
  StoreSweepResult SweepStore(std::uint64_t max_bytes,
                              std::uint64_t max_files);
  /// Sweeps the attached disk tier to Options::store_max_bytes and
  /// store_max_files, as after each query that wrote to it; a no-op
  /// without caps. The maintenance loop's scheduled sweep.
  StoreSweepResult SweepStoreToCaps();

 private:
  struct Task {
    QueryRequest request;
    Completion done;
    // The graph context, derived once at submit time; the front door
    // reuses it instead of deriving its own. Its key is empty when the
    // derivation failed (setup_error says why).
    GraphContext context;
    std::string setup_error;                // non-empty: fail without running
    // When the task entered the queue; worker pickup minus this is the
    // queue wait (histogram + retroactive "queue_wait" span).
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// A task for `request`, its graph context derived (off the queue
  /// lock); the caller stamps submitted_at when it enqueues.
  static Task MakeTask(QueryRequest request, Completion done);

  /// Runs one query end to end on a worker thread: executes the front
  /// door against the shared cache and records stats. Returns the result
  /// instead of completing the task itself so WorkerLoop can mark the
  /// query no-longer-outstanding *before* its completion runs — Pending()
  /// must never report a query whose response was already observed.
  QueryResult Execute(Task& task);

  /// The front-door dispatch over the task's context; throws on invalid
  /// requests.
  QueryResult RunQuery(const QueryRequest& request,
                       const GraphContext& context);

  void WorkerLoop();
  void AdminLoop();

  Options options_;
  GraphCache cache_;

  mutable std::mutex queue_mutex_;
  std::condition_variable queue_cv_;    // workers: work available / stop
  std::condition_variable drained_cv_;  // Drain(): outstanding_ == 0
  std::deque<Task> queue_;
  std::uint64_t outstanding_ = 0;  // accepted (queued or running), unfinished
  bool stopping_ = false;

  mutable std::mutex stats_mutex_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t members_enumerated_ = 0;
  std::uint64_t members_generated_ = 0;
  // The recent-query ring, oldest first; bounded by
  // options_.recent_capacity.
  std::deque<RecentQuery> recent_;
  std::uint64_t recent_seq_ = 0;

  // Options::metrics, or owned_metrics_ when none was supplied. The
  // histograms are registry-owned; the pointers are hot-path shortcuts
  // resolved once in the constructor.
  std::unique_ptr<MetricsRegistry> owned_metrics_;
  MetricsRegistry* metrics_ = nullptr;
  MetricHistogram* latency_hist_ = nullptr;
  MetricHistogram* queue_wait_hist_ = nullptr;
  const std::chrono::steady_clock::time_point start_time_ =
      std::chrono::steady_clock::now();

  std::vector<std::thread> workers_;

  std::mutex admin_mutex_;
  std::condition_variable admin_cv_;
  std::deque<std::function<void()>> admin_jobs_;
  bool admin_stopping_ = false;
  std::thread admin_thread_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_SERVICE_H_
