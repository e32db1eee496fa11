// The socket transport of amalgamd: an epoll event loop serving many
// concurrent JSONL clients over one shared QueryService.
//
// One loop thread owns every connection: it accepts from the Unix-domain
// and/or TCP listeners, performs nonblocking reads into per-connection
// line buffers, and hands complete lines to the connection's Session
// (service/session.h), which parses, applies the per-connection inflight
// cap, submits to the service, and emits ordered response lines from
// whichever thread completes them — a query worker, the service's admin
// thread, or this loop. A connection adds no thread. Emitted lines land
// in a per-connection output buffer (mutex-guarded — the only state
// shared between those threads and the loop); an eventfd wakes the loop,
// which flushes buffers with nonblocking writes and arms EPOLLOUT for
// whatever the socket would not take, calling epoll_ctl only when a
// connection's interest set changes. Per-connection response ordering is
// therefore end to end: FIFO in the session, FIFO in the byte buffer,
// FIFO on the wire.
//
// Stuck clients are reaped: a connection with no socket progress for
// idle_timeout_ms is closed — unless its silence is just a query still
// executing (responses pending inside the service), which never counts as
// idle. A client that stops reading while responses pile up makes no
// write progress and is reaped like any other stalled peer. Closing a
// connection never blocks the loop: its session retires to a graveyard
// until in-flight queries resolve, then is destroyed.
//
// A client's {"op":"shutdown"} stops the daemon gracefully: listeners
// close, reads stop, every pending response (including the shutdown ack)
// is flushed, then the loop exits and WaitUntilStopped() returns.
#ifndef AMALGAM_NET_SERVER_H_
#define AMALGAM_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/session.h"

namespace amalgam {

struct DaemonServerOptions {
  /// Listen on this Unix-domain socket path when non-empty (a stale
  /// socket file at the path is unlinked first).
  std::string uds_path;
  /// Listen on 127.0.0.1:tcp_port when >= 0; 0 binds an ephemeral port,
  /// readable afterwards via tcp_port(). -1 disables TCP.
  int tcp_port = -1;
  /// Per-connection admission cap (Session::Options::max_inflight);
  /// 0 = unbounded.
  int max_inflight_per_conn = 0;
  /// Reap connections with no socket progress for this long; 0 = never.
  int idle_timeout_ms = 0;
  /// A connection sending a longer line without a newline gets an
  /// in-band "line_too_long" error and its input side closed.
  std::size_t max_line_bytes = 1 << 20;
  /// Handed to every connection's Session (recipe recording, the stats
  /// fields, {"op":"maintain"}). May be null; must outlive the server.
  MaintenanceLoop* maintenance = nullptr;
};

class QueryService;

class DaemonServer {
 public:
  /// The service must outlive the server.
  DaemonServer(QueryService& service, DaemonServerOptions options);
  ~DaemonServer();  // Stop()

  DaemonServer(const DaemonServer&) = delete;
  DaemonServer& operator=(const DaemonServer&) = delete;

  /// Binds the configured listeners and starts the loop thread. Throws
  /// std::runtime_error when no transport is configured or a bind fails.
  void Start();

  /// Stops the loop, flushes every session's pending responses (blocking
  /// until their in-flight queries resolve — call before shutting the
  /// service down), closes all sockets and joins. Idempotent.
  void Stop();

  /// Blocks until the loop has exited — after a client's {"op":"shutdown"}
  /// has been fully answered, or after Stop().
  void WaitUntilStopped();

  /// The TCP port actually bound (after Start(); -1 without a TCP
  /// listener). With tcp_port = 0 this is the kernel-assigned port.
  int tcp_port() const { return bound_tcp_port_; }

  /// True once some client requested daemon shutdown via the admin op.
  bool shutdown_requested() const;

  const ConnectionCounters& counters() const { return counters_; }

 private:
  /// The write side shared between the threads a session emits from and
  /// the loop. Closed connections keep the buffer alive (shared_ptr) so
  /// late emits from a retiring session are dropped safely.
  struct OutBuf {
    std::mutex mutex;
    std::string data;
    std::size_t offset = 0;  // bytes of `data` already written
    bool closed = false;
  };

  struct Conn {
    int fd = -1;
    std::uint64_t id = 0;
    std::unique_ptr<Session> session;
    std::shared_ptr<OutBuf> out;
    std::string in_buf;
    bool input_open = true;
    bool want_write = false;     // the socket took less than the buffer
    std::uint32_t armed = 0;     // the interest set epoll has for fd
    std::chrono::steady_clock::time_point last_active;
  };

  void Loop();
  void AcceptAll(int listen_fd);
  /// Reads until EAGAIN/EOF and feeds complete lines to the session.
  void HandleReadable(Conn& conn);
  /// Nonblocking drain of the out buffer; arms/disarms EPOLLOUT. Returns
  /// false when the connection died mid-write.
  bool FlushOut(Conn& conn);
  /// Brings the fd's interest set in line with input_open, draining_ and
  /// want_write; no syscall when it already is.
  void UpdateEpoll(Conn& conn);
  void CloseConn(int fd);
  /// {"op":"shutdown"}: close listeners, stop reading everywhere; the
  /// loop exits once every pending response has hit the wire.
  void BeginProtocolShutdown();
  void CloseListeners();
  /// Every session (live and retired) emitted everything and every out
  /// buffer is empty.
  bool AllFlushed();
  void Wake();

  QueryService& service_;
  const DaemonServerOptions options_;
  ConnectionCounters counters_;

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  int uds_fd_ = -1;
  int tcp_fd_ = -1;
  int bound_tcp_port_ = -1;
  bool uds_bound_ = false;

  // Loop-thread-only state (Stop() touches it strictly after joining).
  std::unordered_map<int, Conn> conns_;
  std::vector<std::unique_ptr<Session>> graveyard_;
  std::uint64_t next_conn_id_ = 0;
  bool draining_ = false;  // protocol shutdown in progress

  std::atomic<bool> stop_{false};
  std::atomic<bool> shutdown_requested_{false};

  mutable std::mutex state_mutex_;
  std::condition_variable stopped_cv_;
  bool started_ = false;
  bool loop_exited_ = false;
  bool stopped_ = false;

  std::thread thread_;
};

}  // namespace amalgam

#endif  // AMALGAM_NET_SERVER_H_
