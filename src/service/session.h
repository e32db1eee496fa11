// One client's JSONL conversation with the query service.
//
// A Session owns everything between a transport and the QueryService for a
// single client: it parses request lines (service/protocol.h), submits
// queries, applies per-connection admission control, and emits response
// lines *in request order* through a dedicated writer thread — the PR-5
// dedicated-writer pattern, one writer per connection. The transport —
// stdin/stdout in amalgamd's --stdio mode, a socket connection in the
// net/ event loop — only has to do two things: feed complete lines to
// HandleLine from a single thread, and accept emitted response lines from
// the writer thread. HandleLine takes a std::string_view and reads it only
// during the call, so a transport hands a view into its read buffer
// rather than copying each line out; what outlives the call (the parsed
// request, a maintenance recipe) is owned separately.
//
// Ordering: every response — query results, admin-op answers, parse
// errors, overload rejections — goes through one FIFO of deferred
// renderers. The writer pops in order and blocks on each query's future,
// so a client always receives responses in the order it sent requests,
// and an admin op's answer reflects every request before it (stats/drain
// renderers additionally Drain() the service first).
//
// Backpressure: with max_inflight > 0, a query line arriving while that
// many query responses are still unemitted is refused without touching
// the service — the client gets an in-band, in-order
// {"ok":false,"error_code":"overloaded"} and the daemon's worker pool is
// protected from a single client queueing unbounded work.
#ifndef AMALGAM_SERVICE_SESSION_H_
#define AMALGAM_SERVICE_SESSION_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "service/service.h"

namespace amalgam {

class MaintenanceLoop;

/// Transport-wide counters shared by every Session of one daemon (plain
/// atomics: the sessions' writer threads, the event loop and the stats
/// path all touch them concurrently).
struct ConnectionCounters {
  std::atomic<std::uint64_t> opened{0};  // connections accepted since start
  std::atomic<std::uint64_t> open{0};    // currently connected
  std::atomic<std::uint64_t> overload_rejections{0};  // across all clients
};

/// service.Stats() plus the daemon-wide connection counters and the
/// maintenance loop's counters (either may be null): what a stats op or a
/// metrics scrape reports, minus any per-connection fields.
ServiceStats DaemonStats(const QueryService& service,
                         const ConnectionCounters* counters,
                         const MaintenanceLoop* maintenance);

class Session {
 public:
  struct Options {
    /// Connection id echoed in this session's stats responses.
    std::uint64_t id = 0;
    /// Admission-control cap: maximum query responses in flight (accepted
    /// but not yet emitted) before new query lines are rejected with
    /// error_code "overloaded". 0 = unbounded.
    int max_inflight = 0;
    /// The daemon's maintenance loop (nullptr when it runs none): each
    /// accepted query line is recorded as its graph key's recipe, the
    /// stats op reports the loop's counters, and {"op":"maintain"}
    /// triggers a pass. Must outlive the session.
    MaintenanceLoop* maintenance = nullptr;
  };

  /// Receives one complete response line (no terminator), called from the
  /// session's writer thread only — consecutive calls are serialized, in
  /// request order. Must not re-enter the Session.
  using Emit = std::function<void(const std::string& line)>;

  /// `counters` (optional) is the daemon-wide registry this session
  /// reports into; it must outlive the session.
  Session(QueryService& service, Options options, Emit emit,
          ConnectionCounters* counters = nullptr);
  /// Flushes every pending response, then joins the writer. Blocks until
  /// in-flight queries resolve — destroy sessions before shutting the
  /// service down.
  ~Session();

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  enum class LineOutcome {
    kContinue,
    /// The line was a {"op":"shutdown"}: its response is enqueued (and
    /// reflects a full service drain); the transport should stop feeding
    /// lines, Flush(), and begin daemon shutdown.
    kShutdown,
  };

  /// Handles one request line (no terminator; empty lines are the
  /// transport's to skip). Never throws and never blocks on query
  /// execution — responses arrive later through `emit`. Call from one
  /// transport thread only. `line` is read during the call only: the
  /// transport may hand a view into its read buffer, and the line is
  /// copied only when a maintenance loop records it as a recipe.
  LineOutcome HandleLine(std::string_view line);

  /// The transport read a line longer than its cap: emit an in-order
  /// "line_too_long" error. The transport should stop reading afterwards
  /// (the stream is mid-garbage) but may still Flush() pending responses.
  void HandleOversizedLine();

  /// Blocks until every response for lines handled so far has been
  /// emitted.
  void Flush();
  /// Nonblocking: true when nothing is pending (all responses emitted).
  bool FlushedAll() const;

  std::uint64_t id() const { return options_.id; }
  /// Lines handled (queries, admin ops, and rejected/bad lines alike).
  std::uint64_t requests() const {
    return requests_.load(std::memory_order_relaxed);
  }
  /// Query lines refused by the inflight cap.
  std::uint64_t rejected_overload() const {
    return rejected_.load(std::memory_order_relaxed);
  }
  /// Queries accepted but whose responses are not yet emitted.
  int inflight() const;

 private:
  struct Item {
    /// Renders the response line; runs on the writer thread and may block
    /// (query futures, service drains).
    std::function<std::string()> render;
    bool is_query = false;  // counts toward the inflight cap
  };

  void Push(Item item);
  void PushRendered(std::string line);
  /// DaemonStats plus this session's connection fields.
  ServiceStats SnapshotStats() const;
  void WriterLoop();

  QueryService& service_;
  const Options options_;
  const Emit emit_;
  ConnectionCounters* const counters_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};

  mutable std::mutex mutex_;
  std::condition_variable queue_cv_;    // writer: work available / stop
  std::condition_variable written_cv_;  // Flush(): all emitted
  std::deque<Item> queue_;
  // Inputs of answered queries (under mutex_), released by HandleLine on
  // the transport thread that parsed them. A parsed request is many small
  // allocations; freeing them on a worker instead cost the daemon about
  // 15% more CPU per query on cache-hot replay.
  std::vector<QueryRequest> answered_;
  std::uint64_t enqueued_ = 0;
  std::uint64_t written_ = 0;
  int inflight_ = 0;
  bool stop_ = false;

  std::thread writer_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_SESSION_H_
