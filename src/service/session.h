// One client's JSONL conversation with the query service.
//
// A Session owns everything between a transport and the QueryService for a
// single client: it parses request lines (service/protocol.h), submits
// queries, applies per-connection admission control, and emits response
// lines *in request order*. It runs no thread of its own. The transport —
// stdin/stdout in amalgamd's --stdio mode, a socket connection in the
// net/ event loop — only has to do two things: feed complete lines to
// HandleLine from a single thread, and accept emitted response lines on
// whichever thread emits them. HandleLine takes a std::string_view and
// reads it only during the call, so a transport hands a view into its
// read buffer rather than copying each line out; what outlives the call
// (the parsed request, a maintenance recipe) is owned separately.
//
// Ordering: every line handled — query, admin op, parse error, overload
// rejection — takes the next slot of one FIFO. A query's response is
// rendered on the worker that answered it (a QueryService completion) and
// fills its slot; an error fills its slot at once. Whichever thread fills
// the head slot emits the ready prefix, one emitting thread at a time, so
// a client always receives responses in the order it sent requests. An
// admin op renders only once it reaches the head, so its answer reflects
// every request before it; the blocking ones (stats, drain, shutdown,
// maintain, sweep) render on the service's one admin thread
// (QueryService::PostAdmin), and stats/drain/shutdown additionally Drain()
// the service first.
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
#include <vector>

#include "service/protocol.h"
#include "service/service.h"

namespace amalgam {

class MaintenanceLoop;

/// Transport-wide counters shared by every Session of one daemon (plain
/// atomics: the event loop, the query workers and the stats path all touch
/// them concurrently).
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

  /// Receives one complete response line (no terminator), in request
  /// order. Calls are serialized but may come from any thread that fills
  /// the head slot: the transport's (HandleLine), a query worker, or the
  /// service's admin thread. Must not block for long (it holds up that
  /// thread) and must not re-enter the Session.
  using Emit = std::function<void(const std::string& line)>;

  /// `counters` (optional) is the daemon-wide registry this session
  /// reports into; it must outlive the session.
  Session(QueryService& service, Options options, Emit emit,
          ConnectionCounters* counters = nullptr);
  /// Flush(): blocks until in-flight queries resolve and every response is
  /// emitted — destroy sessions before shutting the service down.
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
  /// Nonblocking: true when nothing is pending (all responses emitted and
  /// no thread is inside the session any more).
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
  /// One handled line's response, in request order.
  struct Slot {
    std::string line;  // the response, once `ready`
    bool ready = false;
    bool is_query = false;  // counts toward the inflight cap
    /// Admin ops: renders the response once every earlier one is out.
    std::function<std::string()> render;
    bool blocking = false;  // render on the service's admin thread
  };

  /// Appends a slot; returns its sequence number.
  std::uint64_t Push(Slot slot);
  /// A response known now.
  void PushRendered(std::string line);
  /// An admin op's response, rendered from `request` once it reaches the
  /// head; `blocking` renders may wait (on a drain, a maintenance pass, the
  /// disk) and run on the service's admin thread.
  void PushAdmin(ProtocolRequest request, bool blocking,
                 std::function<std::string(const ProtocolRequest&)> render);
  /// Fills slot `seq` with its response and emits what became ready.
  void Fill(std::uint64_t seq, std::string line,
            std::unique_lock<std::mutex>& lock);
  /// Emits the ready prefix of the FIFO unless another thread is already
  /// emitting it, and starts the render of an admin op at its head. Called
  /// and returns with `lock` (on mutex_) held.
  void EmitReady(std::unique_lock<std::mutex>& lock);
  /// DaemonStats plus this session's connection fields.
  ServiceStats SnapshotStats() const;

  QueryService& service_;
  const Options options_;
  const Emit emit_;
  ConnectionCounters* const counters_;

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> rejected_{0};

  mutable std::mutex mutex_;
  std::condition_variable flushed_cv_;  // Flush(): all emitted
  std::deque<Slot> slots_;
  std::uint64_t head_seq_ = 0;  // sequence number of slots_.front()
  bool emitting_ = false;       // some thread is emitting or inside Fill
  int inflight_ = 0;
  // Inputs of answered queries (under mutex_), released by HandleLine on
  // the transport thread that parsed them. A parsed request is many small
  // allocations; freeing them on a worker instead cost the daemon about
  // 15% more CPU per query on cache-hot replay.
  std::vector<QueryRequest> answered_;
};

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_SESSION_H_
