#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>
#include <stdexcept>
#include <utility>

#include "solver/backend.h"
#include "solver/emptiness.h"
#include "solver/store.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "util/hash.h"
#include "words/run_class.h"
#include "words/solve.h"

namespace amalgam {

namespace {

// The request's graph context, derived by the same function its front door
// uses when called without one — so the recent ring, the prewarm path and
// the engine agree on what "the same graph" means by construction. Word
// and tree run classes are built here and owned by the context; they
// reference the request's automaton, which the request keeps alive.
GraphContext ComputeGraphContext(const QueryRequest& request) {
  switch (request.kind) {
    case QueryKind::kSystem:
      if (!request.system || !request.cls) {
        throw std::invalid_argument("system query needs `system` and `cls`");
      }
      return SystemGraphContext(request.cls, *request.system);
    case QueryKind::kWord:
      if (!request.system || !request.nfa) {
        throw std::invalid_argument("word query needs `system` and `nfa`");
      }
      return WordGraphContext(*request.system, *request.nfa);
    case QueryKind::kTree:
      if (!request.system || !request.automaton) {
        throw std::invalid_argument("tree query needs `system` and `automaton`");
      }
      return TreeGraphContext(*request.system, *request.automaton,
                              request.extra_pattern_cap);
    case QueryKind::kBranching:
      if (!request.branching || !request.cls) {
        throw std::invalid_argument(
            "branching query needs `branching` and `cls`");
      }
      return BranchingGraphContext(*request.branching, request.cls);
  }
  throw std::invalid_argument("unknown query kind");
}

// The graph cache key embeds a separator byte and free-form formula text;
// the recent-query log wants a compact, log-greppable identifier instead:
// the key's FNV-1a hash, which also names its loose store file
// (GraphStore::PathFor), and is stable across runs.
std::string HashedKey(const std::string& key) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(Fnv1a64(key)));
  return std::string(buf);
}

// A completion that fulfills `promise` with the query's result.
QueryService::Completion Fulfilling(
    std::shared_ptr<std::promise<QueryResult>> promise) {
  return [promise = std::move(promise)](QueryRequest, QueryResult result) {
    promise->set_value(std::move(result));
  };
}

}  // namespace

const char* QueryKindName(QueryKind kind) {
  switch (kind) {
    case QueryKind::kSystem:
      return "system";
    case QueryKind::kWord:
      return "word";
    case QueryKind::kTree:
      return "tree";
    case QueryKind::kBranching:
      return "branching";
  }
  return "unknown";
}

QueryService::QueryService(Options options)
    : options_(std::move(options)),
      cache_(options_.cache_max_entries, options_.store_dir) {
  if (options_.num_workers < 1) options_.num_workers = 1;
  metrics_ = options_.metrics;
  if (metrics_ == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  latency_hist_ = &metrics_->Histogram(
      "amalgam_query_latency_ms",
      "Query latency from worker pickup to verdict, milliseconds",
      DefaultLatencyBoundsMs());
  queue_wait_hist_ = &metrics_->Histogram(
      "amalgam_queue_wait_ms",
      "Queue wait from submit to worker pickup, milliseconds",
      DefaultLatencyBoundsMs());
  workers_.reserve(options_.num_workers);
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

QueryService::~QueryService() { Shutdown(); }

std::string QueryService::GraphKeyFor(const QueryRequest& request) const {
  try {
    return ComputeGraphContext(request).key;
  } catch (const std::exception&) {
    return std::string();
  }
}

bool QueryService::Prewarm(const QueryRequest& request,
                           std::string* graph_key) {
  try {
    const GraphContext ctx = ComputeGraphContext(request);
    if (graph_key != nullptr) *graph_key = ctx.key;
    return cache_.Lookup(ctx) != nullptr;
  } catch (const std::exception&) {
    return false;
  }
}

std::future<QueryResult> QueryService::Submit(QueryRequest request,
                                              std::string* graph_key) {
  auto promise = std::make_shared<std::promise<QueryResult>>();
  std::future<QueryResult> future = promise->get_future();
  Submit(std::move(request), Fulfilling(std::move(promise)), graph_key);
  return future;
}

void QueryService::DeriveContext(Task& task) {
  task.derived = true;
  try {
    task.context = ComputeGraphContext(task.request);
  } catch (const std::exception& e) {
    task.setup_error = e.what();
  }
}

void QueryService::Submit(QueryRequest request, Completion done,
                          std::string* graph_key) {
  Task task;
  task.request = std::move(request);
  task.done = std::move(done);
  // Backend construction and guard interning: keep them off the lock.
  DeriveContext(task);
  if (graph_key != nullptr) *graph_key = task.context.key;
  task.submitted_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      throw std::runtime_error("QueryService is shut down");
    }
    queue_.push_back(std::move(task));
    ++outstanding_;
  }
  queue_cv_.notify_one();
}

std::vector<std::future<QueryResult>> QueryService::SubmitBatch(
    std::vector<QueryRequest> requests) {
  std::vector<std::future<QueryResult>> futures;
  std::vector<Task> tasks;
  futures.reserve(requests.size());
  tasks.reserve(requests.size());
  // The workers derive the contexts: with one worker the first task runs
  // while the rest queue, and with several they derive in parallel.
  for (QueryRequest& request : requests) {
    auto promise = std::make_shared<std::promise<QueryResult>>();
    futures.push_back(promise->get_future());
    Task& task = tasks.emplace_back();
    task.request = std::move(request);
    task.done = Fulfilling(std::move(promise));
  }
  const auto submitted_at = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (stopping_) {
      throw std::runtime_error("QueryService is shut down");
    }
    for (Task& task : tasks) {
      task.submitted_at = submitted_at;
      queue_.push_back(std::move(task));
    }
    outstanding_ += tasks.size();
  }
  // One wake-up per task, up to one per worker: a woken worker that finds
  // more queued keeps taking tasks before it waits again.
  const std::size_t wakes = std::min(tasks.size(), workers_.size());
  for (std::size_t i = 0; i < wakes; ++i) queue_cv_.notify_one();
  return futures;
}

void QueryService::WorkerLoop() {
  for (;;) {
    Task task;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping_ and nothing left to run
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    QueryResult result = Execute(task);
    // Decrement before completing: an observer that synced on the
    // completion (a session emitting the response, a future's reader, the
    // maintenance loop's idleness probe) must never read this query as
    // still outstanding afterwards. Drain() may consequently return a
    // moment before the completion runs; callers that need the result
    // wait for the completion itself, so nothing observes a gap.
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      --outstanding_;
    }
    drained_cv_.notify_all();
    task.done(std::move(task.request), std::move(result));
  }
}

void QueryService::PostAdmin(std::function<void()> job) {
  {
    std::lock_guard<std::mutex> lock(admin_mutex_);
    if (!admin_stopping_) {
      if (!admin_thread_.joinable()) {
        admin_thread_ = std::thread([this] { AdminLoop(); });
      }
      admin_jobs_.push_back(std::move(job));
      admin_cv_.notify_one();
      return;
    }
  }
  job();
}

void QueryService::AdminLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(admin_mutex_);
      admin_cv_.wait(
          lock, [this] { return admin_stopping_ || !admin_jobs_.empty(); });
      if (admin_jobs_.empty()) return;  // stopping and nothing left to run
      job = std::move(admin_jobs_.front());
      admin_jobs_.pop_front();
    }
    job();
  }
}

QueryResult QueryService::RunQuery(const QueryRequest& request,
                                   const GraphContext& context) {
  TraceRecorder* trace = request.trace.get();
  QueryResult result;
  switch (request.kind) {
    case QueryKind::kSystem: {
      SolveOptions options;
      options.build_witness = request.build_witness;
      options.strategy = request.strategy;
      options.cache = &cache_;
      options.relational_atom_cap = request.atom_cap;
      options.trace = trace;
      SolveResult solved = SolveEmptiness(*request.system, context, options);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kWord: {
      WordSolveResult solved = SolveWordEmptiness(
          *request.system, context, request.build_witness, request.strategy,
          &cache_, trace);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kTree: {
      // No tree witness: QueryResult has no field to return one in, and
      // the only tree witnesses are a bounded brute-force search's.
      TreeSolveResult solved =
          SolveTreeEmptiness(*request.system, context,
                             /*witness_size_cap=*/0, request.strategy,
                             &cache_, trace);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
    case QueryKind::kBranching: {
      BranchingSolveResult solved = SolveBranchingEmptiness(
          *request.branching, context, &cache_, trace);
      result.nonempty = solved.nonempty;
      result.stats = solved.stats;
      break;
    }
  }
  result.ok = true;
  return result;
}

QueryResult QueryService::Execute(Task& task) {
  const auto start = std::chrono::steady_clock::now();
  const std::uint64_t store_writes_before = cache_.store_writes();
  TraceRecorder* trace = task.request.trace.get();
  QueryResult result;
  {
    // The root span covers everything the service does on the worker
    // thread; the queue wait — measured from submit to pickup — is
    // attached retroactively as its first child. The span must close
    // before the rollup below reads durations, hence the scope.
    ScopedSpan query_span(trace, "query");
    if (trace != nullptr) {
      query_span.Annotate("kind", QueryKindName(task.request.kind));
      trace->RecordSpan("queue_wait", task.submitted_at, start);
    }
    if (!task.derived) DeriveContext(task);
    if (!task.setup_error.empty()) {
      result.error = task.setup_error;
    } else {
      try {
        ScopedSpan run_span(trace, "run");
        result = RunQuery(task.request, task.context);
      } catch (const EnumerationCapError& e) {
        // Structured: clients can distinguish "raise atom_cap and retry"
        // from a malformed request without parsing the message text.
        result.ok = false;
        result.error = e.what();
        result.error_code = EnumerationCapError::kCode;
      } catch (const WitnessInvalidError& e) {
        result.ok = false;
        result.error = e.what();
        result.error_code = WitnessInvalidError::kCode;
      } catch (const std::exception& e) {
        result.ok = false;
        result.error = e.what();
      }
    }
    // How the graph path served the query, known only after the run: it
    // waited on another query's build claim, found a complete entry, or
    // held the claim itself.
    result.coalesced = result.stats.coalesced;
    query_span.Annotate("role", result.coalesced ? "joiner"
                                : result.stats.graph_from_cache &&
                                        !result.stats.graph_resumed
                                    ? "direct"
                                    : "leader");
    // Sweep only when something was actually written to the disk tier
    // since this query started — cache-hot replay traffic must not pay an
    // O(files) directory scan per query.
    if (result.ok && cache_.store_writes() != store_writes_before) {
      SweepStoreToCaps();
    }
  }
  result.trace = task.request.trace;
  result.latency_ms =
      std::chrono::duration<double, std::milli>(
          std::chrono::steady_clock::now() - start)
          .count();
  latency_hist_->Observe(result.latency_ms);
  queue_wait_hist_->Observe(std::chrono::duration<double, std::milli>(
                                start - task.submitted_at)
                                .count());
  RecentQuery entry;
  entry.key =
      task.context.key.empty() ? std::string() : HashedKey(task.context.key);
  entry.kind = QueryKindName(task.request.kind);
  entry.ok = result.ok;
  entry.nonempty = result.nonempty;
  entry.coalesced = result.coalesced;
  entry.from_cache = result.stats.graph_from_cache;
  entry.resumed = result.stats.graph_resumed;
  entry.traced = trace != nullptr;
  entry.latency_ms = result.latency_ms;
  if (trace != nullptr) {
    // Where the time went, by span name — the closed "query" root makes
    // the rollup cover the whole service-side path.
    std::map<std::string, double> by_name;
    for (const TraceSpan& span : trace->Snapshot()) {
      by_name[span.name] += static_cast<double>(span.duration_ns) / 1e6;
    }
    entry.span_rollup.assign(by_name.begin(), by_name.end());
  }
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    ++completed_;
    if (!result.ok) ++failed_;
    members_enumerated_ += result.stats.members_enumerated;
    members_generated_ += result.stats.members_generated;
    if (options_.recent_capacity > 0) {
      entry.seq = ++recent_seq_;
      recent_.push_back(std::move(entry));
      if (recent_.size() > options_.recent_capacity) recent_.pop_front();
    }
  }
  return result;
}

std::vector<RecentQuery> QueryService::Recent() const {
  std::lock_guard<std::mutex> lock(stats_mutex_);
  return std::vector<RecentQuery>(recent_.begin(), recent_.end());
}

std::uint64_t QueryService::Pending() const {
  std::lock_guard<std::mutex> lock(queue_mutex_);
  return outstanding_;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(queue_mutex_);
  drained_cv_.wait(lock, [this] { return outstanding_ == 0; });
}

void QueryService::Shutdown() {
  {
    // Admin jobs first: they may still submit (a maintenance pass) and
    // drain, which needs the workers.
    std::lock_guard<std::mutex> lock(admin_mutex_);
    admin_stopping_ = true;
  }
  admin_cv_.notify_all();
  if (admin_thread_.joinable()) admin_thread_.join();
  {
    std::unique_lock<std::mutex> lock(queue_mutex_);
    // Graceful: everything accepted before the stop flag runs to its
    // verdict; only *new* submissions are refused.
    stopping_ = true;
  }
  queue_cv_.notify_all();
  Drain();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
}

StoreSweepResult QueryService::SweepStore(std::uint64_t max_bytes,
                                          std::uint64_t max_files) {
  return cache_.SweepStore(max_bytes, max_files);
}

StoreSweepResult QueryService::SweepStoreToCaps() {
  if (options_.store_max_bytes == 0 && options_.store_max_files == 0) {
    return {};
  }
  return cache_.SweepStore(options_.store_max_bytes, options_.store_max_files);
}

ServiceStats QueryService::Stats() const {
  ServiceStats stats;
  {
    std::lock_guard<std::mutex> slock(stats_mutex_);
    stats.queries = completed_;
    stats.failed = failed_;
    stats.members_enumerated = members_enumerated_;
    stats.members_generated = members_generated_;
  }
  {
    std::lock_guard<std::mutex> qlock(queue_mutex_);
    stats.pending = outstanding_;
  }
  stats.coalesced_joins = cache_.coalesced_joins();
  stats.single_flight_leads = cache_.single_flight_leads();
  stats.resume_leads = cache_.resume_leads();
  stats.resume_coalesced = cache_.resume_coalesced();
  stats.cache_hits = cache_.hits();
  stats.cache_misses = cache_.misses();
  stats.cache_evictions = cache_.evictions();
  stats.store_loads = cache_.store_loads();
  stats.store_load_failures = cache_.store_load_failures();
  stats.store_writes = cache_.store_writes();
  stats.member_table_builds = cache_.member_table_builds();
  stats.member_table_hits = cache_.member_table_hits();
  stats.member_tables = cache_.member_tables();
  stats.member_table_bytes = cache_.member_table_bytes();
  if (const std::shared_ptr<const GraphStore> store = cache_.store()) {
    const StoreCounters counters = store->counters();
    stats.store_loose_loads = counters.loose_loads;
    stats.store_pack_loads = counters.pack_loads;
    stats.store_save_skips = counters.save_skips;
    stats.store_sweeps = counters.sweeps;
    stats.store_sweep_files_removed = counters.sweep_files_removed;
    stats.store_sweep_bytes_removed = counters.sweep_bytes_removed;
    stats.store_repacks = counters.repacks;
    stats.store_pack_entries = store->PackEntryCount();
  }
  stats.uptime_ms = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now() - start_time_)
          .count());
  stats.p50_latency_ms = latency_hist_->Quantile(0.50);
  stats.p95_latency_ms = latency_hist_->Quantile(0.95);
  stats.p99_latency_ms = latency_hist_->Quantile(0.99);
  return stats;
}

}  // namespace amalgam
