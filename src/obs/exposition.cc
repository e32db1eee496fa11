#include "obs/exposition.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace amalgam {

namespace {
// How long one client may take to send its request, or to take the
// response: the accept loop serves clients one at a time, so a silent
// connection must not stall the scrapes behind it or Stop().
constexpr timeval kClientTimeout{.tv_sec = 1, .tv_usec = 0};
}  // namespace

MetricsHttpServer::MetricsHttpServer(Renderer renderer)
    : renderer_(std::move(renderer)) {}

MetricsHttpServer::~MetricsHttpServer() { Stop(); }

std::string MetricsHttpServer::Start(int port) {
  if (listen_fd_ >= 0) return "metrics server already started";
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::string("socket: ") + std::strerror(errno);
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    const std::string err = std::string("bind: ") + std::strerror(errno);
    ::close(fd);
    return err;
  }
  if (::listen(fd, 16) < 0) {
    const std::string err = std::string("listen: ") + std::strerror(errno);
    ::close(fd);
    return err;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = static_cast<int>(ntohs(addr.sin_port));
  }
  listen_fd_ = fd;
  stopping_.store(false);
  thread_ = std::thread([this] { AcceptLoop(); });
  return "";
}

void MetricsHttpServer::Stop() {
  if (listen_fd_ < 0) return;
  stopping_.store(true);
  // Unblocks the accept(): shutdown makes it return, close frees the fd
  // after the loop has observed the stop flag.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (thread_.joinable()) thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;
  port_ = -1;
}

void MetricsHttpServer::AcceptLoop() {
  for (;;) {
    const int client = ::accept(listen_fd_, nullptr, nullptr);
    if (client < 0) {
      if (stopping_.load()) return;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      return;  // listener is gone
    }
    ::setsockopt(client, SOL_SOCKET, SO_RCVTIMEO, &kClientTimeout,
                 sizeof(kClientTimeout));
    ::setsockopt(client, SOL_SOCKET, SO_SNDTIMEO, &kClientTimeout,
                 sizeof(kClientTimeout));
    // Read (and discard) the request line so well-behaved clients see
    // their request consumed; any bytes at all — or none within the
    // timeout — trigger a response.
    char buf[1024];
    (void)::recv(client, buf, sizeof(buf), 0);
    const std::string body = renderer_ ? renderer_() : std::string();
    std::string response =
        "HTTP/1.0 200 OK\r\n"
        "Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n"
        "Content-Length: " +
        std::to_string(body.size()) +
        "\r\n"
        "Connection: close\r\n"
        "\r\n" +
        body;
    std::size_t written = 0;
    while (written < response.size()) {
      const ssize_t n = ::send(client, response.data() + written,
                               response.size() - written, MSG_NOSIGNAL);
      if (n <= 0) break;
      written += static_cast<std::size_t>(n);
    }
    ::close(client);
  }
}

}  // namespace amalgam
