// amalgamd — the long-lived JSONL front door over the concurrent query
// service.
//
// Three transports, one protocol, one Session implementation:
//
//   amalgamd                         # stdio (default): JSONL on stdin/stdout
//   amalgamd --stdio                 # the same, explicitly
//   amalgamd --uds /tmp/amalgam.sock # Unix-domain socket server
//   amalgamd --tcp 7464              # TCP server on 127.0.0.1 (0 = ephemeral)
//   amalgamd --uds a.sock --tcp 0    # both listeners on one event loop
//
// Each client connection (and stdio itself) is one Session
// (src/service/session.h): lines parse into requests, queries run
// concurrently on the shared worker pool — identical cold queries
// coalesce onto one graph build, queries over a warm-but-partial graph
// coalesce onto one suffix extension — and each client receives its
// responses *in request order*, each rendered on the worker that
// answered it.
// Socket clients are multiplexed by an epoll event loop (src/net/server.h)
// with per-connection admission control (--max-inflight-per-conn; excess
// query lines get {"ok":false,"error_code":"overloaded"}) and idle
// reaping (--idle-timeout-ms). Admin ops (stats, sweep, maintain,
// metrics, recent, drain, shutdown) answer after every earlier response
// on that connection; {"op":"shutdown"} stops the whole daemon after
// flushing every client.
//
// Observability (docs/OBSERVABILITY.md): every query accepts
// `"trace":true` and returns its span tree in-band; the process-global
// metrics registry is scraped via {"op":"metrics"} on any transport, or
// over plain HTTP with --metrics-tcp PORT (a loopback Prometheus
// endpoint that works alongside any transport, stdio included).
//
//   printf '%s\n' "$Q1" "$Q2" | amalgamd --threads 4
//
// with, for instance,
//   Q1='{"id":1,"kind":"system","class":"all","system":"reach_red"}'
//   Q2='{"id":2,"kind":"words","nfa":"aplus_bplus","system":"zigzag"}'
//
// In stdio mode EOF drains in-flight queries, flushes their responses and
// exits 0. See src/service/protocol.h for the request/response reference.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>

#include "net/server.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "service/maintenance.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"

namespace {

void PrintUsage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [transport] [service options]\n"
      "\n"
      "transport (default: --stdio):\n"
      "  --stdio                 serve JSONL on stdin/stdout (one client)\n"
      "  --uds PATH              listen on a Unix-domain socket at PATH\n"
      "  --tcp PORT              listen on 127.0.0.1:PORT (0 = ephemeral;\n"
      "                          the bound port is printed to stderr)\n"
      "  --max-inflight-per-conn N  reject a client's query lines with\n"
      "                          error_code \"overloaded\" while N of its\n"
      "                          responses are pending (0 = unbounded)\n"
      "  --idle-timeout-ms N     close connections with no socket activity\n"
      "                          for N ms (queries still executing don't\n"
      "                          count as idle; 0 = never)\n"
      "\n"
      "service:\n"
      "  --threads N             query worker threads\n"
      "  --cache-max-entries N   memory-tier LRU cap (0 = unbounded)\n"
      "  --store-dir DIR         attach the disk tier at DIR\n"
      "  --store-max-bytes N / --store-max-files N   disk-tier sweep caps\n"
      "\n"
      "maintenance (need --store-dir; see docs/OPERATIONS.md):\n"
      "  --maintenance-interval-ms N  run a background maintenance pass\n"
      "                          (complete partial store entries while\n"
      "                          idle, repack, sweep) every N ms; 0 = only\n"
      "                          on {\"op\":\"maintain\"} (default)\n"
      "  --prewarm               replay DIR/access.jsonl on startup,\n"
      "                          promoting persisted graphs into memory\n"
      "  --repack-min-loose N    fold the loose tier into the pack when a\n"
      "                          pass finds >= N loose files (default 8;\n"
      "                          0 = passes never repack)\n"
      "\n"
      "observability (see docs/OBSERVABILITY.md):\n"
      "  --metrics-tcp PORT      serve the metrics registry as a Prometheus\n"
      "                          text endpoint on http://127.0.0.1:PORT\n"
      "                          (0 = ephemeral; the bound port is printed\n"
      "                          to stderr; works with any transport)\n"
      "\n"
      "--stdio cannot be combined with --uds/--tcp; --uds and --tcp can.\n"
      "Requests are JSONL; see src/service/protocol.h.\n",
      argv0);
}

bool ParseUint(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == text.c_str() || *end != '\0') return false;
  *out = v;
  return true;
}

struct Cli {
  amalgam::QueryService::Options service;
  amalgam::DaemonServerOptions net;
  int maintenance_interval_ms = 0;
  std::uint64_t repack_min_loose = 8;
  bool prewarm = false;
  bool stdio = false;
  bool help = false;
  int metrics_tcp_port = -1;  // -1 = no metrics endpoint
  std::string error;  // non-empty: reject with this message
};

Cli ParseArgs(int argc, char** argv) {
  Cli cli;
  bool saw_stdio = false;
  for (int i = 1; i < argc && cli.error.empty(); ++i) {
    std::string flag = argv[i];
    std::string value;
    bool has_value = false;
    const auto eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
      has_value = true;
    }
    auto need_value = [&]() -> bool {
      if (has_value) return true;
      if (i + 1 < argc) {
        value = argv[++i];
        return true;
      }
      cli.error = flag + " requires a value";
      return false;
    };
    auto need_uint = [&](std::uint64_t* out) {
      if (!need_value()) return false;
      if (!ParseUint(value, out)) {
        cli.error = flag + " expects a non-negative integer, got '" + value + "'";
        return false;
      }
      return true;
    };
    std::uint64_t n = 0;
    if (flag == "--help" || flag == "-h") {
      cli.help = true;
    } else if (flag == "--stdio") {
      saw_stdio = true;
      cli.stdio = true;
    } else if (flag == "--uds") {
      if (need_value()) cli.net.uds_path = value;
    } else if (flag == "--tcp") {
      if (need_uint(&n)) {
        if (n > 65535) {
          cli.error = "--tcp expects a port in [0, 65535], got " + value;
        } else {
          cli.net.tcp_port = static_cast<int>(n);
        }
      }
    } else if (flag == "--metrics-tcp") {
      if (need_uint(&n)) {
        if (n > 65535) {
          cli.error = "--metrics-tcp expects a port in [0, 65535], got " + value;
        } else {
          cli.metrics_tcp_port = static_cast<int>(n);
        }
      }
    } else if (flag == "--max-inflight-per-conn") {
      if (need_uint(&n)) cli.net.max_inflight_per_conn = static_cast<int>(n);
    } else if (flag == "--idle-timeout-ms") {
      if (need_uint(&n)) cli.net.idle_timeout_ms = static_cast<int>(n);
    } else if (flag == "--threads") {
      if (need_uint(&n)) cli.service.num_workers = static_cast<int>(n);
    } else if (flag == "--cache-max-entries") {
      if (need_uint(&n)) cli.service.cache_max_entries = static_cast<std::size_t>(n);
    } else if (flag == "--store-dir") {
      if (need_value()) cli.service.store_dir = value;
    } else if (flag == "--store-max-bytes") {
      if (need_uint(&n)) cli.service.store_max_bytes = n;
    } else if (flag == "--store-max-files") {
      if (need_uint(&n)) cli.service.store_max_files = n;
    } else if (flag == "--maintenance-interval-ms") {
      if (need_uint(&n)) cli.maintenance_interval_ms = static_cast<int>(n);
    } else if (flag == "--repack-min-loose") {
      if (need_uint(&n)) cli.repack_min_loose = n;
    } else if (flag == "--prewarm") {
      cli.prewarm = true;
    } else {
      cli.error = "unknown flag '" + flag + "' (see --help)";
    }
  }
  if (!cli.error.empty() || cli.help) return cli;
  const bool has_socket = !cli.net.uds_path.empty() || cli.net.tcp_port >= 0;
  if (saw_stdio && has_socket) {
    cli.error = "--stdio cannot be combined with --uds/--tcp: stdio serves "
                "exactly one client on this terminal, sockets serve many";
    return cli;
  }
  if (!has_socket) cli.stdio = true;  // default transport
  const bool socket_only_flags =
      cli.net.max_inflight_per_conn > 0 || cli.net.idle_timeout_ms > 0;
  if (cli.stdio && socket_only_flags) {
    cli.error = "--max-inflight-per-conn/--idle-timeout-ms apply to socket "
                "transports; combine them with --uds or --tcp";
    return cli;
  }
  if (cli.service.store_dir.empty() &&
      (cli.maintenance_interval_ms > 0 || cli.prewarm)) {
    cli.error = "--maintenance-interval-ms/--prewarm maintain the disk "
                "tier; combine them with --store-dir";
  }
  return cli;
}

// Starts the --metrics-tcp endpoint when asked for. Returns false (after
// printing the error) when the bind failed — the daemon refuses to start
// half-observable rather than silently dropping the scrape surface.
bool StartMetricsEndpoint(amalgam::MetricsHttpServer& server, int port) {
  if (port < 0) return true;
  const std::string error = server.Start(port);
  if (!error.empty()) {
    std::fprintf(stderr, "amalgamd: --metrics-tcp: %s\n", error.c_str());
    return false;
  }
  std::fprintf(stderr, "amalgamd: metrics on http://127.0.0.1:%d/metrics\n",
               server.port());
  return true;
}

int RunStdio(amalgam::QueryService& service, const Cli& cli,
             amalgam::MaintenanceLoop* maintenance) {
  amalgam::ConnectionCounters counters;
  counters.opened.store(1);
  counters.open.store(1);
  amalgam::MetricsHttpServer metrics_server(
      [&service, &counters, maintenance] {
        amalgam::ExportServiceStats(
            amalgam::DaemonStats(service, &counters, maintenance),
            service.metrics());
        return service.metrics().RenderPrometheus();
      });
  if (!StartMetricsEndpoint(metrics_server, cli.metrics_tcp_port)) return 1;
  {
    amalgam::Session::Options sopts;
    sopts.id = 1;
    sopts.maintenance = maintenance;
    amalgam::Session session(
        service, sopts,
        [](const std::string& line) {
          std::printf("%s\n", line.c_str());
          std::fflush(stdout);
        },
        &counters);
    std::string line;
    while (std::getline(std::cin, line)) {
      if (line.empty()) continue;
      if (session.HandleLine(line) == amalgam::Session::LineOutcome::kShutdown) {
        break;
      }
    }
    session.Flush();  // EOF/shutdown: every accepted line gets its response
  }  // the session is flushed: nothing of it runs on another thread
  metrics_server.Stop();  // before counters/maintenance go away
  if (maintenance != nullptr) maintenance->Stop();
  service.Shutdown();
  return 0;
}

int RunServer(amalgam::QueryService& service, const Cli& cli,
              amalgam::MaintenanceLoop* maintenance) {
  amalgam::DaemonServerOptions net = cli.net;
  net.maintenance = maintenance;
  amalgam::DaemonServer server(service, net);
  try {
    server.Start();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "amalgamd: %s\n", e.what());
    return 1;
  }
  amalgam::MetricsHttpServer metrics_server(
      [&service, &server, maintenance] {
        amalgam::ExportServiceStats(
            amalgam::DaemonStats(service, &server.counters(), maintenance),
            service.metrics());
        return service.metrics().RenderPrometheus();
      });
  if (!StartMetricsEndpoint(metrics_server, cli.metrics_tcp_port)) return 1;
  if (!cli.net.uds_path.empty()) {
    std::fprintf(stderr, "amalgamd: listening on unix:%s\n",
                 cli.net.uds_path.c_str());
  }
  if (server.tcp_port() >= 0) {
    std::fprintf(stderr, "amalgamd: listening on tcp:127.0.0.1:%d\n",
                 server.tcp_port());
  }
  server.WaitUntilStopped();  // until a client's {"op":"shutdown"}
  metrics_server.Stop();      // before the server (and its counters) stops
  server.Stop();              // flushes sessions before the pool goes away
  if (maintenance != nullptr) maintenance->Stop();
  service.Shutdown();
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Cli cli = ParseArgs(argc, argv);
  if (cli.help) {
    PrintUsage(argv[0]);
    return 0;
  }
  if (!cli.error.empty()) {
    std::fprintf(stderr, "amalgamd: %s\n", cli.error.c_str());
    PrintUsage(argv[0]);
    return 2;
  }
  // The daemon's histograms and exported counters live in the
  // process-global registry — there is exactly one scrape surface.
  Cli wired = cli;
  wired.service.metrics = &amalgam::MetricsRegistry::Global();
  amalgam::QueryService service(wired.service);
  // Any daemon with a store gets a maintenance loop ({"op":"maintain"}
  // always works); the background thread and prewarm are opt-in flags.
  std::unique_ptr<amalgam::MaintenanceLoop> maintenance;
  if (!cli.service.store_dir.empty()) {
    amalgam::MaintenanceOptions mopts;
    mopts.store_dir = cli.service.store_dir;
    mopts.interval_ms = cli.maintenance_interval_ms;
    mopts.repack_min_loose = cli.repack_min_loose;
    maintenance =
        std::make_unique<amalgam::MaintenanceLoop>(service, mopts);
    if (cli.prewarm) {
      const std::uint64_t warmed = maintenance->Prewarm();
      std::fprintf(stderr, "amalgamd: prewarmed %llu graphs from %s\n",
                   static_cast<unsigned long long>(warmed),
                   cli.service.store_dir.c_str());
    }
    maintenance->Start();
  }
  return cli.stdio ? RunStdio(service, cli, maintenance.get())
                   : RunServer(service, cli, maintenance.get());
}
