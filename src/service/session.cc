#include "service/session.h"

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
      counters_(counters) {}

Session::~Session() { Flush(); }

std::uint64_t Session::Push(Slot slot) {
  std::unique_lock<std::mutex> lock(mutex_);
  const std::uint64_t seq = head_seq_ + slots_.size();
  if (slot.is_query) ++inflight_;
  const bool ready = slot.ready || slot.render != nullptr;
  slots_.push_back(std::move(slot));
  // A query's slot stays behind its worker; anything else may be, or
  // start, what the head is waiting for.
  if (ready) EmitReady(lock);
  return seq;
}

void Session::PushRendered(std::string line) {
  Slot slot;
  slot.line = std::move(line);
  slot.ready = true;
  Push(std::move(slot));
}

void Session::PushAdmin(
    ProtocolRequest request, bool blocking,
    std::function<std::string(const ProtocolRequest&)> render) {
  Slot slot;
  // A render that throws (a store sweep's filesystem error, say) still
  // answers, in band: its slot must be filled, and the thread running it
  // may be the daemon's one admin thread.
  slot.render = [request = std::move(request), render = std::move(render)] {
    try {
      return render(request);
    } catch (const std::exception& e) {
      return FormatErrorResponse(request, e.what());
    }
  };
  slot.blocking = blocking;
  Push(std::move(slot));
}

void Session::Fill(std::uint64_t seq, std::string line,
                   std::unique_lock<std::mutex>& lock) {
  Slot& slot = slots_[seq - head_seq_];
  slot.line = std::move(line);
  slot.ready = true;
  EmitReady(lock);
}

void Session::EmitReady(std::unique_lock<std::mutex>& lock) {
  if (emitting_) return;  // that thread emits this slot too before it stops
  emitting_ = true;
  std::vector<std::string> batch;
  // Queries in `batch`: their inflight slots free once they are emitted.
  int batch_queries = 0;
  for (;;) {
    // An admin op at the head, to render now that every earlier response
    // is out; off the lock, like every render.
    std::function<void()> admin_job;
    bool admin_blocking = false;
    while (!slots_.empty()) {
      Slot& head = slots_.front();
      if (!head.ready) {
        if (head.render != nullptr) {
          admin_job = [this, seq = head_seq_,
                       render = std::move(head.render)] {
            std::string line = render();
            std::unique_lock<std::mutex> job_lock(mutex_);
            Fill(seq, std::move(line), job_lock);
          };
          head.render = nullptr;
          admin_blocking = head.blocking;
        }
        break;
      }
      if (head.is_query) ++batch_queries;
      batch.push_back(std::move(head.line));
      slots_.pop_front();
      ++head_seq_;
    }
    if (batch.empty() && admin_job == nullptr) break;
    lock.unlock();
    for (const std::string& line : batch) emit_(line);
    batch.clear();
    // The job fills its slot through Fill: run here, it finds this thread
    // still emitting and leaves the slot to this loop; run on the admin
    // thread, it emits from there unless this thread still is.
    if (admin_job != nullptr) {
      if (admin_blocking) {
        service_.PostAdmin(std::move(admin_job));
      } else {
        admin_job();
      }
    }
    lock.lock();
    inflight_ -= batch_queries;
    batch_queries = 0;
  }
  emitting_ = false;
  // Notified under the lock: a waiting destructor may free the session as
  // soon as it can take the lock.
  flushed_cv_.notify_all();
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
      Slot slot;
      slot.is_query = true;
      const std::uint64_t seq = Push(std::move(slot));
      // The worker renders the response and hands the query's inputs back
      // to this thread (answered_); `request` keeps only its id for the
      // echo.
      QueryRequest query = std::move(request.query);
      // The graph key Submit derives anyway; copied out only when a
      // maintenance loop will record it.
      std::string key;
      try {
        service_.Submit(
            std::move(query),
            [this, seq, request](QueryRequest answered, QueryResult result) {
              std::string response = FormatQueryResponse(request, result);
              std::unique_lock<std::mutex> lock(mutex_);
              answered_.push_back(std::move(answered));
              Fill(seq, std::move(response), lock);
            },
            options_.maintenance != nullptr ? &key : nullptr);
      } catch (const std::exception& e) {
        std::unique_lock<std::mutex> lock(mutex_);
        Fill(seq, FormatErrorResponse(request, e.what()), lock);
        return LineOutcome::kContinue;
      }
      // Accepted: the line becomes its graph's recipe, so a pass can
      // complete the graph and a restarted daemon can prewarm it.
      if (options_.maintenance != nullptr) {
        options_.maintenance->RecordAccess(std::move(key), line);
      }
      return LineOutcome::kContinue;
    }
    case ProtocolRequest::Op::kStats:
      // Drain so the answer reflects everything accepted before it, and
      // `pending` reads the live remainder rather than a timing artifact.
      PushAdmin(std::move(request), /*blocking=*/true,
                [this](const ProtocolRequest& request) {
                  service_.Drain();
                  return FormatStatsResponse(request, SnapshotStats());
                });
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kSweep:
      PushAdmin(std::move(request), /*blocking=*/true,
                [this](const ProtocolRequest& request) {
                  return FormatSweepResponse(
                      request, service_.SweepStore(request.max_bytes,
                                                   request.max_files));
                });
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
      // The pass runs after every earlier response on this connection, and
      // the FIFO keeps later ones behind it — slow maintenance never
      // reorders a client's stream.
      PushAdmin(std::move(request), /*blocking=*/true,
                [this](const ProtocolRequest& request) {
                  const MaintenancePassResult pass =
                      options_.maintenance->RunOnce();
                  return FormatMaintainResponse(
                      request, pass, options_.maintenance->GetStats());
                });
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kMetrics:
      // Deliberately no Drain: a scrape is a cheap point-in-time snapshot
      // (Prometheus hits it on a schedule), rendered by whichever thread
      // brings it to the head of the FIFO.
      PushAdmin(std::move(request), /*blocking=*/false,
                [this](const ProtocolRequest& request) {
                  ExportServiceStats(SnapshotStats(), service_.metrics());
                  return FormatMetricsResponse(
                      request, service_.metrics().RenderPrometheus());
                });
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kRecent:
      PushAdmin(std::move(request), /*blocking=*/false,
                [this](const ProtocolRequest& request) {
                  return FormatRecentResponse(request, service_.Recent());
                });
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kDrain:
      PushAdmin(std::move(request), /*blocking=*/true,
                [this](const ProtocolRequest& request) {
                  service_.Drain();
                  return FormatDrainResponse(request, SnapshotStats());
                });
      return LineOutcome::kContinue;
    case ProtocolRequest::Op::kShutdown:
      PushAdmin(std::move(request), /*blocking=*/true,
                [this](const ProtocolRequest& request) {
                  service_.Drain();
                  return FormatShutdownResponse(request, SnapshotStats());
                });
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
  flushed_cv_.wait(lock, [this] { return slots_.empty() && !emitting_; });
}

bool Session::FlushedAll() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return slots_.empty() && !emitting_;
}

int Session::inflight() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inflight_;
}

}  // namespace amalgam
