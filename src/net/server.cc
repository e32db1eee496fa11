#include "net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "service/service.h"

namespace amalgam {
namespace {

std::string Errno(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

DaemonServer::DaemonServer(QueryService& service, DaemonServerOptions options)
    : service_(service), options_(std::move(options)) {}

DaemonServer::~DaemonServer() { Stop(); }

void DaemonServer::Wake() {
  std::uint64_t one = 1;
  // Nonblocking; EAGAIN (counter saturated) still leaves the loop woken.
  ssize_t ignored = ::write(wake_fd_, &one, sizeof(one));
  (void)ignored;
}

void DaemonServer::Start() {
  if (options_.uds_path.empty() && options_.tcp_port < 0) {
    throw std::runtime_error("daemon server: no transport configured");
  }
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (started_) throw std::runtime_error("daemon server: already started");
    started_ = true;
  }
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  if (epoll_fd_ < 0) throw std::runtime_error(Errno("epoll_create1"));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  if (wake_fd_ < 0) throw std::runtime_error(Errno("eventfd"));
  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.fd = wake_fd_;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) < 0) {
    throw std::runtime_error(Errno("epoll_ctl(wake)"));
  }

  if (!options_.uds_path.empty()) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.uds_path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("daemon server: --uds path too long for a "
                               "Unix socket (" + options_.uds_path + ")");
    }
    std::memcpy(addr.sun_path, options_.uds_path.c_str(),
                options_.uds_path.size() + 1);
    uds_fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (uds_fd_ < 0) throw std::runtime_error(Errno("socket(AF_UNIX)"));
    ::unlink(options_.uds_path.c_str());  // a stale socket from a prior run
    if (::bind(uds_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw std::runtime_error(Errno(("bind(" + options_.uds_path + ")").c_str()));
    }
    uds_bound_ = true;
    if (::listen(uds_fd_, 128) < 0) {
      throw std::runtime_error(Errno("listen(uds)"));
    }
    ev = epoll_event{};
    ev.events = EPOLLIN;
    ev.data.fd = uds_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, uds_fd_, &ev) < 0) {
      throw std::runtime_error(Errno("epoll_ctl(uds)"));
    }
  }

  if (options_.tcp_port >= 0) {
    tcp_fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
    if (tcp_fd_ < 0) throw std::runtime_error(Errno("socket(AF_INET)"));
    int yes = 1;
    ::setsockopt(tcp_fd_, SOL_SOCKET, SO_REUSEADDR, &yes, sizeof(yes));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);  // local clients only
    addr.sin_port = htons(static_cast<std::uint16_t>(options_.tcp_port));
    if (::bind(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      throw std::runtime_error(
          Errno(("bind(127.0.0.1:" + std::to_string(options_.tcp_port) + ")")
                    .c_str()));
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(tcp_fd_, reinterpret_cast<sockaddr*>(&addr), &len) < 0) {
      throw std::runtime_error(Errno("getsockname"));
    }
    bound_tcp_port_ = static_cast<int>(ntohs(addr.sin_port));
    if (::listen(tcp_fd_, 128) < 0) {
      throw std::runtime_error(Errno("listen(tcp)"));
    }
    ev = epoll_event{};
    ev.events = EPOLLIN;
    ev.data.fd = tcp_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, tcp_fd_, &ev) < 0) {
      throw std::runtime_error(Errno("epoll_ctl(tcp)"));
    }
  }

  thread_ = std::thread([this] { Loop(); });
}

bool DaemonServer::shutdown_requested() const {
  return shutdown_requested_.load(std::memory_order_acquire);
}

void DaemonServer::WaitUntilStopped() {
  std::unique_lock<std::mutex> lock(state_mutex_);
  stopped_cv_.wait(lock, [this] { return !started_ || loop_exited_; });
}

void DaemonServer::Stop() {
  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    if (!started_ || stopped_) return;
    stopped_ = true;
  }
  stop_.store(true, std::memory_order_release);
  Wake();
  if (thread_.joinable()) thread_.join();

  // Loop is gone; this thread owns the connection state now. Destroying a
  // session blocks until its in-flight queries resolve and every pending
  // response is in the out buffer; a final best-effort flush gets them
  // onto the wire for clients still reading.
  for (auto& [fd, conn] : conns_) {
    conn.session.reset();
    FlushOut(conn);
    {
      std::lock_guard<std::mutex> lock(conn.out->mutex);
      conn.out->closed = true;
    }
    ::close(conn.fd);
    counters_.open.fetch_sub(1, std::memory_order_relaxed);
  }
  conns_.clear();
  graveyard_.clear();  // waits out retired sessions' in-flight queries

  CloseListeners();
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  wake_fd_ = epoll_fd_ = -1;
}

void DaemonServer::CloseListeners() {
  if (uds_fd_ >= 0) {
    ::close(uds_fd_);
    uds_fd_ = -1;
  }
  if (uds_bound_) {
    ::unlink(options_.uds_path.c_str());
    uds_bound_ = false;
  }
  if (tcp_fd_ >= 0) {
    ::close(tcp_fd_);
    tcp_fd_ = -1;
  }
}

void DaemonServer::AcceptAll(int listen_fd) {
  for (;;) {
    int fd = ::accept4(listen_fd, nullptr, nullptr,
                       SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN, or a transient accept error — nothing to do
    }
    Conn conn;
    conn.fd = fd;
    conn.id = ++next_conn_id_;
    conn.out = std::make_shared<OutBuf>();
    conn.last_active = std::chrono::steady_clock::now();
    std::shared_ptr<OutBuf> out = conn.out;
    const int wake_fd = wake_fd_;
    // Runs on whichever thread completes the session's head response (a
    // query worker, the admin thread, this loop): append, wake the loop.
    Session::Emit emit = [out, wake_fd](const std::string& line) {
      {
        std::lock_guard<std::mutex> lock(out->mutex);
        if (out->closed) return;  // connection died; drop the response
        // Unflushed bytes already have a wake pending or EPOLLOUT armed:
        // the loop flushes every buffer after it drains the eventfd, so
        // one wake covers a burst of responses.
        const bool idle = out->offset == out->data.size();
        out->data.append(line);
        out->data.push_back('\n');
        if (!idle) return;
      }
      std::uint64_t one = 1;
      ssize_t ignored = ::write(wake_fd, &one, sizeof(one));
      (void)ignored;
    };
    Session::Options sopts;
    sopts.id = conn.id;
    sopts.max_inflight = options_.max_inflight_per_conn;
    sopts.maintenance = options_.maintenance;
    conn.session = std::make_unique<Session>(service_, sopts, std::move(emit),
                                             &counters_);
    counters_.opened.fetch_add(1, std::memory_order_relaxed);
    counters_.open.fetch_add(1, std::memory_order_relaxed);

    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = fd;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) < 0) {
      counters_.open.fetch_sub(1, std::memory_order_relaxed);
      ::close(fd);
      continue;
    }
    conn.armed = EPOLLIN;
    conns_.emplace(fd, std::move(conn));
  }
}

void DaemonServer::HandleReadable(Conn& conn) {
  char buf[4096];
  for (;;) {
    ssize_t n = ::read(conn.fd, buf, sizeof(buf));
    if (n > 0) {
      conn.last_active = std::chrono::steady_clock::now();
      conn.in_buf.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      conn.input_open = false;  // EOF: answer what was read, then close
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    conn.input_open = false;  // hard read error: treat like EOF
    break;
  }

  std::size_t start = 0;
  for (;;) {
    const std::size_t nl = conn.in_buf.find('\n', start);
    if (nl == std::string::npos) break;
    std::string_view line(conn.in_buf.data() + start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    if (line.empty()) continue;
    if (line.size() > options_.max_line_bytes) {
      conn.session->HandleOversizedLine();
      conn.input_open = false;
      break;
    }
    if (conn.session->HandleLine(line) == Session::LineOutcome::kShutdown) {
      conn.input_open = false;  // its shutdown ack still flushes in order
      BeginProtocolShutdown();
      break;
    }
    if (draining_) break;  // another client shut the daemon down
  }
  conn.in_buf.erase(0, start);
  if (conn.input_open && conn.in_buf.size() > options_.max_line_bytes) {
    conn.session->HandleOversizedLine();  // unbounded line, no newline yet
    conn.in_buf.clear();
    conn.input_open = false;
  }
  UpdateEpoll(conn);
}

bool DaemonServer::FlushOut(Conn& conn) {
  std::lock_guard<std::mutex> lock(conn.out->mutex);
  OutBuf& out = *conn.out;
  while (out.offset < out.data.size()) {
    // send, not write: a peer that hung up must cost its connection
    // (EPIPE), not the daemon (SIGPIPE).
    ssize_t n = ::send(conn.fd, out.data.data() + out.offset,
                       out.data.size() - out.offset, MSG_NOSIGNAL);
    if (n > 0) {
      out.offset += static_cast<std::size_t>(n);
      conn.last_active = std::chrono::steady_clock::now();
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      conn.want_write = true;
      return true;  // socket full: wait for EPOLLOUT
    }
    return false;  // peer gone (EPIPE, ECONNRESET, ...)
  }
  out.data.clear();
  out.offset = 0;
  conn.want_write = false;
  return true;
}

void DaemonServer::UpdateEpoll(Conn& conn) {
  const std::uint32_t wanted =
      (conn.input_open && !draining_ ? EPOLLIN : 0u) |
      (conn.want_write ? EPOLLOUT : 0u);
  if (wanted == conn.armed) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.armed = wanted;
}

void DaemonServer::CloseConn(int fd) {
  auto it = conns_.find(fd);
  if (it == conns_.end()) return;
  Conn& conn = it->second;
  {
    std::lock_guard<std::mutex> lock(conn.out->mutex);
    conn.out->closed = true;  // late emits from the session are dropped
  }
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  ::close(fd);
  counters_.open.fetch_sub(1, std::memory_order_relaxed);
  if (conn.session != nullptr && !conn.session->FlushedAll()) {
    // Destroying it now would block the loop on its in-flight queries;
    // park it until they resolve (emits go nowhere — out is closed).
    graveyard_.push_back(std::move(conn.session));
  }
  conns_.erase(it);
}

void DaemonServer::BeginProtocolShutdown() {
  if (draining_) return;
  draining_ = true;
  shutdown_requested_.store(true, std::memory_order_release);
  CloseListeners();
  for (auto& [fd, conn] : conns_) UpdateEpoll(conn);  // reads stop everywhere
}

bool DaemonServer::AllFlushed() {
  for (auto& [fd, conn] : conns_) {
    if (conn.session != nullptr && !conn.session->FlushedAll()) return false;
    std::lock_guard<std::mutex> lock(conn.out->mutex);
    if (conn.out->offset < conn.out->data.size()) return false;
  }
  for (const auto& session : graveyard_) {
    if (!session->FlushedAll()) return false;
  }
  return true;
}

void DaemonServer::Loop() {
  constexpr int kMaxEvents = 64;
  epoll_event events[kMaxEvents];
  while (!stop_.load(std::memory_order_acquire)) {
    // Poll while clients exist: responses become flushable (and sessions
    // graveyard-collectable) a moment *after* the emit that woke us, and
    // idle reaping needs a clock.
    const int timeout_ms =
        (conns_.empty() && graveyard_.empty() && !draining_) ? -1 : 50;
    const int n = ::epoll_wait(epoll_fd_, events, kMaxEvents, timeout_ms);
    if (n < 0 && errno != EINTR) break;

    for (int i = 0; i < (n > 0 ? n : 0); ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        std::uint64_t drained;
        ssize_t ignored = ::read(wake_fd_, &drained, sizeof(drained));
        (void)ignored;
        continue;
      }
      if (fd == uds_fd_ || fd == tcp_fd_) {
        if (!draining_) AcceptAll(fd);
        continue;
      }
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      if ((events[i].events & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0 &&
          it->second.input_open) {
        HandleReadable(it->second);
      }
    }

    // Maintenance: flush every buffer, close finished/dead/stuck clients.
    std::vector<int> to_close;
    const auto now = std::chrono::steady_clock::now();
    for (auto& [fd, conn] : conns_) {
      if (!FlushOut(conn)) {
        to_close.push_back(fd);
        continue;
      }
      UpdateEpoll(conn);
      const bool out_empty = [&] {
        std::lock_guard<std::mutex> lock(conn.out->mutex);
        return conn.out->offset >= conn.out->data.size();
      }();
      const bool session_done =
          conn.session == nullptr || conn.session->FlushedAll();
      if (!conn.input_open && session_done && out_empty) {
        to_close.push_back(fd);  // graceful end: everything answered
        continue;
      }
      if (options_.idle_timeout_ms > 0) {
        const bool awaiting_service = out_empty && !session_done;
        if (!awaiting_service &&
            now - conn.last_active >
                std::chrono::milliseconds(options_.idle_timeout_ms)) {
          to_close.push_back(fd);  // silent or not-reading peer
        }
      }
    }
    for (int fd : to_close) CloseConn(fd);

    graveyard_.erase(
        std::remove_if(graveyard_.begin(), graveyard_.end(),
                       [](const std::unique_ptr<Session>& s) {
                         return s->FlushedAll();  // destructor won't block
                       }),
        graveyard_.end());

    if (draining_ && AllFlushed()) break;  // shutdown fully answered
  }

  {
    std::lock_guard<std::mutex> lock(state_mutex_);
    loop_exited_ = true;
  }
  stopped_cv_.notify_all();
}

}  // namespace amalgam
