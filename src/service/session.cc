#include "service/session.h"

#include <future>
#include <string>
#include <utility>

#include "service/maintenance.h"
#include "service/protocol.h"

namespace amalgam {

Session::Session(QueryService& service, Options options, Emit emit,
                 ConnectionCounters* counters)
    : service_(service),
      options_(options),
      emit_(std::move(emit)),
      counters_(counters),
      writer_([this] { WriterLoop(); }) {}

Session::~Session() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  queue_cv_.notify_one();
  writer_.join();  // drains the queue: every accepted line gets its line out
}

void Session::WriterLoop() {
  for (;;) {
    Item item;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ and nothing left to emit
      item = std::move(queue_.front());
      queue_.pop_front();
    }
    // Rendering may block (a query future, an admin drain); the emitted
    // line lands with the transport in request order because this loop is
    // the only consumer of the FIFO.
    emit_(item.render());
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++written_;
      if (item.is_query) --inflight_;
    }
    written_cv_.notify_all();
  }
}

void Session::Push(Item item) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++enqueued_;
    if (item.is_query) ++inflight_;
    queue_.push_back(std::move(item));
  }
  queue_cv_.notify_one();
}

void Session::PushRendered(std::string line) {
  Push(Item{[line = std::move(line)] { return line; }, /*is_query=*/false});
}

ServiceStats DaemonStats(const QueryService& service,
                         const ConnectionCounters* counters,
                         const MaintenanceLoop* maintenance) {
  ServiceStats stats = service.Stats();
  if (counters != nullptr) {
    stats.connections_open = counters->open.load(std::memory_order_relaxed);
    stats.connections_opened =
        counters->opened.load(std::memory_order_relaxed);
    stats.overload_rejections =
        counters->overload_rejections.load(std::memory_order_relaxed);
  }
  if (maintenance != nullptr) {
    const MaintenanceStats mstats = maintenance->GetStats();
    stats.maintenance_passes = mstats.passes;
    stats.partials_completed = mstats.partials_completed;
    stats.prewarm_loads = mstats.prewarm_loads;
    stats.repacks = mstats.repacks;
  }
  return stats;
}

ServiceStats Session::SnapshotStats() const {
  ServiceStats stats = DaemonStats(service_, counters_, options_.maintenance);
  stats.conn_id = options_.id;
  stats.conn_requests = requests();
  stats.conn_rejected_overload = rejected_overload();
  return stats;
}

Session::LineOutcome Session::HandleLine(std::string_view line) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  {
    std::vector<QueryRequest> answered;  // released here, before the parse
    std::lock_guard<std::mutex> lock(mutex_);
    answered.swap(answered_);
  }
  ProtocolRequest request = ParseRequestLine(line);
  if (!request.error.empty()) {
    PushRendered(FormatErrorResponse(request, request.error));
    return LineOutcome::kContinue;
  }
  switch (request.op) {
    case ProtocolRequest::Op::kQuery: {
      if (options_.max_inflight > 0 && inflight() >= options_.max_inflight) {
        rejected_.fetch_add(1, std::memory_order_relaxed);
        if (counters_ != nullptr) {
          counters_->overload_rejections.fetch_add(1,
                                                   std::memory_order_relaxed);
        }
        PushRendered(FormatErrorResponse(
            request,
            "per-connection inflight cap (" +
                std::to_string(options_.max_inflight) +
                ") reached; read pending responses before sending more",
            "overloaded"));
        return LineOutcome::kContinue;
      }
      // The graph key Submit derives anyway; copied out only when a
      // maintenance loop will record it.
      std::string key;
      std::shared_future<QueryResult> future;
      try {
        future = service_
                     .Submit(request.query,
                             options_.maintenance != nullptr ? &key : nullptr)
                     .share();
      } catch (const std::exception& e) {
        PushRendered(FormatErrorResponse(request, e.what()));
        return LineOutcome::kContinue;
      }
      // Accepted: the line becomes its graph's recipe, so a pass can
      // complete the graph and a restarted daemon can prewarm it.
      if (options_.maintenance != nullptr) {
        options_.maintenance->RecordAccess(std::move(key), line);
      }
      // `request` keeps its id for the echo, and its query inputs until
      // the answer is out; then they go back to this thread (answered_).
      Push(Item{[this, request = std::move(request), future]() mutable {
                  std::string response =
                      FormatQueryResponse(request, future.get());
                  std::lock_guard<std::mutex> lock(mutex_);
                  answered_.push_back(std::move(request.query));
                  return response;
                },
                /*is_query=*/true});
      return LineOutcome::kContinue;
    }
    case ProtocolRequest::Op::kStats:
      // Drain so the answer reflects everything accepted before it —
      // queued earlier responses were emitted first (FIFO), and `pending`
      // reads the live remainder rather than a timing artifact.
      Push(Item{[this, request = std::move(request)] {
        service_.Drain();
        return FormatStatsResponse(request, SnapshotStats());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kSweep:
      Push(Item{[this, request = std::move(request)] {
        return FormatSweepResponse(
            request, service_.SweepStore(request.max_bytes,
                                         request.max_files));
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kMaintain:
      if (options_.maintenance == nullptr) {
        PushRendered(FormatErrorResponse(
            request,
            "this daemon runs no maintenance loop (start amalgamd with "
            "--store-dir to enable {\"op\":\"maintain\"})",
            "no_maintenance"));
        return LineOutcome::kContinue;
      }
      // Rendered on the writer thread: the pass runs after every earlier
      // response on this connection, and the FIFO keeps later ones behind
      // it — slow maintenance never reorders a client's stream.
      Push(Item{[this, request = std::move(request)] {
        const MaintenancePassResult pass = options_.maintenance->RunOnce();
        return FormatMaintainResponse(request, pass,
                                      options_.maintenance->GetStats());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kMetrics:
      // Deliberately no Drain: a scrape is a cheap point-in-time snapshot
      // (Prometheus hits it on a schedule), and the FIFO already puts it
      // after every earlier response on this connection.
      Push(Item{[this, request = std::move(request)] {
        ExportServiceStats(SnapshotStats(), service_.metrics());
        return FormatMetricsResponse(request,
                                     service_.metrics().RenderPrometheus());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kRecent:
      Push(Item{[this, request = std::move(request)] {
        return FormatRecentResponse(request, service_.Recent());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kDrain:
      Push(Item{[this, request = std::move(request)] {
        service_.Drain();
        return FormatDrainResponse(request, SnapshotStats());
      }});
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kShutdown:
      Push(Item{[this, request = std::move(request)] {
        service_.Drain();
        return FormatShutdownResponse(request, SnapshotStats());
      }});
      return LineOutcome::kShutdown;
  }
  return LineOutcome::kContinue;
}

void Session::HandleOversizedLine() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  ProtocolRequest request;  // no parsable id inside an oversized line
  PushRendered(FormatErrorResponse(
      request, "request line exceeds the maximum line length",
      "line_too_long"));
}

void Session::Flush() {
  std::unique_lock<std::mutex> lock(mutex_);
  written_cv_.wait(lock, [this] { return written_ == enqueued_; });
}

bool Session::FlushedAll() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return written_ == enqueued_;
}

int Session::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

}  // namespace amalgam
