// Tests for the metrics surface: histogram bucket math and quantile
// interpolation, registry find-or-register semantics, the Prometheus
// text renderer, ExportServiceStats completeness (every ServiceStats
// field reaches the registry — generated from the same X-macro as the
// struct, so the check cannot rot), the service's histogram-backed
// latency quantiles, the {"op":"metrics"}/{"op":"recent"} admin ops, and
// a real-socket round trip against the --metrics-tcp HTTP endpoint.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <future>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "obs/exposition.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "service/json.h"
#include "service/protocol.h"
#include "service/service.h"
#include "service/session.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

TEST(MetricHistogramTest, ObservationsLandInTheirBuckets) {
  MetricHistogram hist({1.0, 2.0, 4.0});
  hist.Observe(0.5);   // <= 1
  hist.Observe(1.5);   // <= 2
  hist.Observe(2.0);   // boundary is upper-inclusive: <= 2
  hist.Observe(3.0);   // <= 4
  hist.Observe(100.0); // overflow
  EXPECT_EQ(hist.bucket_count(0), 1u);
  EXPECT_EQ(hist.bucket_count(1), 2u);
  EXPECT_EQ(hist.bucket_count(2), 1u);
  EXPECT_EQ(hist.bucket_count(3), 1u);
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_DOUBLE_EQ(hist.sum(), 107.0);
}

TEST(MetricHistogramTest, QuantilesInterpolateAndClamp) {
  MetricHistogram hist({1.0, 2.0, 4.0});
  EXPECT_EQ(hist.Quantile(0.5), 0.0) << "no observations yet";
  for (int i = 0; i < 100; ++i) hist.Observe(1.5);
  hist.Observe(1000.0);  // one overflow outlier
  const double p50 = hist.Quantile(0.50);
  const double p99 = hist.Quantile(0.99);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0) << "the median sits inside its owning bucket";
  EXPECT_LE(p50, p99) << "quantiles are monotone in q";
  EXPECT_DOUBLE_EQ(hist.Quantile(1.0), 4.0)
      << "overflow observations clamp to the largest finite boundary";
}

TEST(MetricsRegistryTest, FindOrRegisterReturnsStableSlots) {
  MetricsRegistry registry;
  MetricCounter& a = registry.Counter("amalgam_test_total", "help");
  MetricCounter& b = registry.Counter("amalgam_test_total", "help");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.value(), 3u);
  EXPECT_THROW(registry.Gauge("amalgam_test_total", "help"),
               std::invalid_argument)
      << "one name, one kind";
  EXPECT_THROW(registry.Counter("0bad name", "help"), std::invalid_argument);
}

TEST(MetricsRegistryTest, RenderPrometheusTextFormat) {
  MetricsRegistry registry;
  registry.Counter("amalgam_widgets_total", "Widgets made").Add(7);
  registry.Gauge("amalgam_depth", "Current depth").Set(2.5);
  MetricHistogram& hist =
      registry.Histogram("amalgam_lat_ms", "Latency", {1.0, 10.0});
  hist.Observe(0.5);
  hist.Observe(5.0);
  hist.Observe(50.0);
  registry.SetLabeledGauge("amalgam_build_info", "Build metadata",
                           "build_type=\"Release\",version=\"0.0.0\"", 1.0);
  const std::string text = registry.RenderPrometheus();

  EXPECT_NE(text.find("# HELP amalgam_widgets_total Widgets made\n"
                      "# TYPE amalgam_widgets_total counter\n"
                      "amalgam_widgets_total 7\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_depth 2.5\n"), std::string::npos) << text;
  // Histogram buckets are cumulative and end at +Inf == _count.
  EXPECT_NE(text.find("amalgam_lat_ms_bucket{le=\"1\"} 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_lat_ms_bucket{le=\"10\"} 2\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_lat_ms_bucket{le=\"+Inf\"} 3\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_lat_ms_count 3\n"), std::string::npos) << text;
  EXPECT_NE(text.find("amalgam_lat_ms_sum 55.5\n"), std::string::npos) << text;
  EXPECT_NE(
      text.find("amalgam_build_info{build_type=\"Release\","
                "version=\"0.0.0\"} 1\n"),
      std::string::npos)
      << text;
}

TEST(MetricsRegistryTest, ExportServiceStatsCoversEveryField) {
  // Generated from the same X-macro that defines the struct: adding a
  // ServiceStats field without a help string fails to compile, and every
  // field must surface in the rendered exposition.
  MetricsRegistry registry;
  ServiceStats stats;
  stats.queries = 11;
  stats.cache_hits = 5;
  ExportServiceStats(stats, registry);
  const std::string text = registry.RenderPrometheus();

#define AMALGAM_CHECK_STAT_FIELD(field, kind, help)                    \
  EXPECT_NE(text.find("# TYPE amalgam_" #field " "), std::string::npos) \
      << "missing exposition for ServiceStats::" #field;
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_CHECK_STAT_FIELD)
#undef AMALGAM_CHECK_STAT_FIELD

  EXPECT_NE(text.find("amalgam_queries 11\n"), std::string::npos) << text;
  EXPECT_NE(text.find("amalgam_cache_hits 5\n"), std::string::npos) << text;
  EXPECT_NE(text.find("# TYPE amalgam_pending gauge\n"), std::string::npos)
      << "gauge kinds survive the export";
  EXPECT_NE(text.find("amalgam_build_info{"), std::string::npos);
}

QueryRequest ReachRedRequest() {
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  return request;
}

TEST(MetricsServiceTest, LatencyQuantilesComeFromTheHistogram) {
  MetricsRegistry registry;
  QueryService::Options options;
  options.metrics = &registry;
  QueryService service(options);
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(service.Submit(ReachRedRequest()).get().ok);
  }
  service.Drain();
  // uptime_ms has millisecond granularity; the queries above finish in
  // microseconds.
  std::this_thread::sleep_for(std::chrono::milliseconds(2));

  const ServiceStats stats = service.Stats();
  EXPECT_GT(stats.p50_latency_ms, 0.0);
  EXPECT_LE(stats.p50_latency_ms, stats.p95_latency_ms);
  EXPECT_LE(stats.p95_latency_ms, stats.p99_latency_ms);
  EXPECT_GT(stats.uptime_ms, 0u);

  // The service's live histograms registered into the injected registry.
  const std::string text = registry.RenderPrometheus();
  EXPECT_NE(text.find("amalgam_query_latency_ms_count 4\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("amalgam_queue_wait_ms_count 4\n"), std::string::npos)
      << text;
}

TEST(MetricsServiceTest, RecentRingIsBoundedOldestOut) {
  QueryService::Options options;
  options.recent_capacity = 2;
  QueryService service(options);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(service.Submit(ReachRedRequest()).get().ok);
  }
  service.Drain();

  const std::vector<RecentQuery> recent = service.Recent();
  ASSERT_EQ(recent.size(), 2u);
  EXPECT_EQ(recent[0].seq, 2u) << "the oldest entry fell off the ring";
  EXPECT_EQ(recent[1].seq, 3u);
  EXPECT_EQ(recent[0].kind, std::string("system"));
  EXPECT_EQ(recent[0].key.size(), 16u) << "FNV-1a hex of the graph key";
  EXPECT_EQ(recent[0].key, recent[1].key) << "identical queries, one key";
  EXPECT_TRUE(recent[1].from_cache);
}

TEST(MetricsSessionTest, MetricsOpEmitsTheFullExposition) {
  QueryService service(QueryService::Options{});
  Session::Options sopts;
  std::vector<std::string> lines;
  std::mutex lines_mutex;
  {
    Session session(service, sopts, [&](const std::string& line) {
      std::lock_guard<std::mutex> lock(lines_mutex);
      lines.push_back(line);
    });
    session.HandleLine(
        R"({"id":1,"kind":"system","class":"all","system":"reach_red"})");
    session.HandleLine(R"({"id":2,"op":"metrics"})");
    session.HandleLine(R"({"id":3,"op":"recent"})");
    session.Flush();
  }
  ASSERT_EQ(lines.size(), 3u);

  const JsonDocument metrics_doc = ParseJson(lines[1]);
  const JsonView metrics = metrics_doc.root();
  ASSERT_TRUE(metrics) << lines[1];
  EXPECT_TRUE(metrics.GetBool("ok"));
  EXPECT_EQ(metrics.GetString("op"), "metrics");
  EXPECT_EQ(metrics.GetString("content_type"),
            "text/plain; version=0.0.4; charset=utf-8");
  const std::string body(metrics.GetString("body"));
  // The FIFO put the scrape after the query's response, so the query is
  // already counted.
  EXPECT_NE(body.find("amalgam_queries 1\n"), std::string::npos) << body;
  EXPECT_NE(body.find("# TYPE amalgam_query_latency_ms histogram\n"),
            std::string::npos)
      << body;

  const JsonDocument recent_doc = ParseJson(lines[2]);
  const JsonView recent = recent_doc.root();
  ASSERT_TRUE(recent) << lines[2];
  EXPECT_TRUE(recent.GetBool("ok"));
  EXPECT_EQ(recent.GetInt("count"), 1);
  const JsonView queries = recent.Get("queries");
  ASSERT_TRUE(queries.is_array());
  ASSERT_EQ(queries.size(), 1u);
  const JsonView entry = queries[0];
  EXPECT_EQ(entry.GetString("kind"), "system");
  EXPECT_TRUE(entry.GetBool("ok"));
  EXPECT_FALSE(entry.GetBool("traced"));
  EXPECT_FALSE(entry.Get("spans"))
      << "an untraced entry carries no span rollup";
}

// A connected loopback client of `port` whose reads give up after
// `timeout`, or -1.
int ConnectLoopback(int port, std::chrono::seconds timeout) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  const timeval tv{.tv_sec = static_cast<time_t>(timeout.count()),
                   .tv_usec = 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

TEST(MetricsHttpTest, SilentClientStallsNeitherScrapesNorStop) {
  MetricsHttpServer server([] { return std::string("amalgam_up 1\n"); });
  ASSERT_EQ(server.Start(0), "");
  constexpr auto kBound = std::chrono::seconds(5);

  // A client that connects and never sends a byte, then a scrape.
  const int silent = ConnectLoopback(server.port(), kBound);
  ASSERT_GE(silent, 0);
  const auto scrape_start = std::chrono::steady_clock::now();
  const int scraper = ConnectLoopback(server.port(), kBound);
  ASSERT_GE(scraper, 0);
  const std::string request = "GET /metrics HTTP/1.0\r\n\r\n";
  ASSERT_EQ(::send(scraper, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(scraper, buf, sizeof(buf), 0)) > 0) {
    response.append(buf, n);
  }
  ::close(scraper);
  EXPECT_NE(response.find("amalgam_up 1\n"), std::string::npos)
      << "the scrape behind a silent client got no answer";
  EXPECT_LT(std::chrono::steady_clock::now() - scrape_start, kBound);

  // Stop with another silent connection open.
  const int second = ConnectLoopback(server.port(), kBound);
  ASSERT_GE(second, 0);
  std::future<void> stopped =
      std::async(std::launch::async, [&] { server.Stop(); });
  EXPECT_EQ(stopped.wait_for(kBound), std::future_status::ready)
      << "Stop() waited on a silent client";
  // Closing the silent clients frees a server still waiting on them, so a
  // failure here ends instead of hanging.
  ::close(silent);
  ::close(second);
  stopped.wait();
}

TEST(MetricsHttpTest, ScrapeRoundTripOverARealSocket) {
  MetricsHttpServer server(
      [] { return std::string("# TYPE amalgam_up gauge\namalgam_up 1\n"); });
  ASSERT_EQ(server.Start(0), "");
  ASSERT_GT(server.port(), 0);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server.port()));
  ASSERT_EQ(inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const std::string request =
      "GET /metrics HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  ASSERT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) response.append(buf, n);
  ::close(fd);

  EXPECT_NE(response.find("HTTP/1.0 200 OK\r\n"), std::string::npos)
      << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos)
      << response;
  EXPECT_NE(response.find("\r\n\r\n# TYPE amalgam_up gauge\namalgam_up 1\n"),
            std::string::npos)
      << response;
  server.Stop();
  server.Stop();  // idempotent
}

}  // namespace
}  // namespace amalgam
