// The --metrics-tcp endpoint: a minimal HTTP responder that serves one
// thing — the registry's Prometheus text — to any GET.
//
// Deliberately not a web server: one accept-loop thread, blocking I/O
// per request bounded by a fixed one-second timeout (so a silent client
// delays the scrapes behind it and Stop() by at most that), connection
// closed after each response. A Prometheus
// scraper (or curl) opens a connection, sends a request line, and gets
// `200 OK` with `Content-Type: text/plain; version=0.0.4` and the
// renderer's output; everything about the request beyond its existence
// is ignored. Binds 127.0.0.1 only — the scrape surface carries
// operational detail and has no auth, so it stays loopback like
// amalgamd's --tcp transport. Port 0 binds ephemerally (port() reads the
// kernel's choice), which is also how the tests run it.
//
// The renderer runs on the accept thread per scrape; it should snapshot
// and render (QueryService::Stats + MetricsRegistry::RenderPrometheus),
// never block on query execution.
#ifndef AMALGAM_OBS_EXPOSITION_H_
#define AMALGAM_OBS_EXPOSITION_H_

#include <atomic>
#include <functional>
#include <string>
#include <thread>

namespace amalgam {

class MetricsHttpServer {
 public:
  /// Produces the exposition body for one scrape; called on the server's
  /// accept thread.
  using Renderer = std::function<std::string()>;

  explicit MetricsHttpServer(Renderer renderer);
  ~MetricsHttpServer();  // Stop()

  MetricsHttpServer(const MetricsHttpServer&) = delete;
  MetricsHttpServer& operator=(const MetricsHttpServer&) = delete;

  /// Binds 127.0.0.1:`port` (0 = ephemeral) and starts the accept loop.
  /// Returns "" on success, an error message otherwise.
  std::string Start(int port);

  /// Closes the listener and joins the accept thread. Idempotent.
  void Stop();

  /// The bound port after a successful Start() (-1 otherwise).
  int port() const { return port_; }

 private:
  void AcceptLoop();

  Renderer renderer_;
  int listen_fd_ = -1;
  int port_ = -1;
  std::atomic<bool> stopping_{false};
  std::thread thread_;
};

}  // namespace amalgam

#endif  // AMALGAM_OBS_EXPOSITION_H_
