// The concurrent query service: a single-flight, shared-cache broker over
// the exploration engine.
//
// Every caller so far invokes a synchronous front door directly, so N
// concurrent identical cold queries run N redundant graph builds. The
// QueryService multiplexes queries over one shared engine/cache/store
// stack instead:
//
//   * a fixed worker pool executes submitted queries asynchronously
//     (Submit returns a std::future<QueryResult>, or calls a completion on
//     the worker that answered; SubmitBatch returns one future per
//     request);
//   * one GraphCache (optionally LRU-capped, and disk-backed when
//     Options::store_dir names a directory — the only way a service gets a
//     store) is shared by every query, so distinct requests over the same
//     (class, k, guard set) reuse one sub-transition graph;
//   * a single-flight table keyed by the graph's cache key coalesces
//     concurrent cold queries: the first becomes the *leader* and builds,
//     the rest *join* — they block on the leader's per-key flight future
//     and then run pure BFS replay over the cached graph. Registration
//     happens at submit time, and SubmitBatch registers the whole batch
//     before any worker starts, so a batch of N identical cold queries
//     deterministically performs exactly one build;
//   * the same table carries *resume* flights: when the cached entry for a
//     key is partial (an earlier on-the-fly query early-exited), at most
//     one query extends it — concurrent queries over the warm-but-partial
//     key wait on the extender's flight and then replay, so a hot partial
//     key performs exactly one suffix build instead of N duplicated ones.
//     Only a *complete* cached entry skips the table entirely (replay
//     needs no build work, so those queries never serialize).
//
// Verdict equivalence with the synchronous front doors is structural: a
// query is executed by calling the very same front door with the shared
// cache passed in, so the only thing the service changes is *when* the
// graph gets built and by whom. A leader that early-exits leaves a partial
// graph; a joiner whose verdict needs more of the class resumes it through
// the ordinary cache path (correct, just no longer coalesced).
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
#include <span>
#include <string>
#include <thread>
#include <unordered_map>
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

  /// Enqueues a batch. All single-flight registrations happen before any
  /// of the batch's tasks can start, so identical cold requests within one
  /// batch coalesce deterministically onto a single build.
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
  // One in-flight build permit per cache key. Joiners wait on `done`;
  // the leader fulfills it when its query completes (even on error).
  struct Flight {
    std::shared_future<void> done;
  };

  enum class Role {
    // A *complete* graph is cached for the key: run directly, off the
    // flight table — replay needs no build work, so hot complete keys
    // never serialize.
    kDirect,
    // Owns the build for its key: the cold build when nothing is cached,
    // or the suffix extension when the cached entry is partial (Task::
    // resume distinguishes the two for the stats counters).
    kLeader,
    kJoiner,  // waits for the leader, then replays
  };

  struct Task {
    QueryRequest request;
    Completion done;
    Role role = Role::kDirect;
    // The flight extends a cached partial entry rather than building cold
    // (counts toward resume_leads/resume_coalesced instead of the cold
    // single-flight counters).
    bool resume = false;
    // The graph context, derived once at submit time; the front door
    // reuses it instead of deriving its own. Its key is empty when the
    // derivation failed (setup_error says why).
    GraphContext context;
    std::shared_ptr<std::promise<void>> lead_done;  // kLeader
    std::shared_future<void> join_on;               // kJoiner
    std::string setup_error;                // non-empty: fail without running
    // When the task entered the queue; worker pickup minus this is the
    // queue wait (histogram + retroactive "queue_wait" span).
    std::chrono::steady_clock::time_point submitted_at;
  };

  /// Derives the request's graph context (backend construction and guard
  /// interning — the expensive part, so it runs before any lock is taken)
  /// and peeks at the cache: a complete graph makes the task kDirect.
  /// Fills context/setup_error/role/resume.
  void ComputeTaskContext(Task& task);

  /// Registers a task that is not kDirect in the single-flight table as
  /// leader or joiner. Caller holds queue_mutex_ (registration must be
  /// atomic with the enqueue so a joiner can never precede its leader in
  /// the queue).
  void RegisterFlight(Task& task);

  /// Enqueues tasks whose contexts are derived, registering every one in
  /// the single-flight table before any of them can start.
  void Enqueue(std::span<Task> tasks);

  /// Runs one query end to end on a worker thread: waits on the join
  /// future (joiners), executes the front door against the shared cache,
  /// resolves the flight (leaders) and records stats. Returns the result
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

  std::mutex flights_mutex_;
  std::unordered_map<std::string, Flight> flights_;

  mutable std::mutex stats_mutex_;
  std::uint64_t completed_ = 0;
  std::uint64_t failed_ = 0;
  std::uint64_t coalesced_joins_ = 0;
  std::uint64_t single_flight_leads_ = 0;
  std::uint64_t resume_leads_ = 0;
  std::uint64_t resume_coalesced_ = 0;
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
