// Tests for the daemon's socket transport (src/net/server.h): an
// in-process DaemonServer on a Unix-domain socket (plus one TCP round
// trip) driven by real client sockets — many concurrent clients with
// pipelined mixed requests, per-connection response ordering, verdict
// parity with direct QueryService calls, overload rejection under a tiny
// inflight cap, idle-timeout reaping, resume coalescing over sockets, and
// graceful protocol shutdown. Runs under the TSan CI job.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "fraisse/relational.h"
#include "net/server.h"
#include "service/json.h"
#include "service/service.h"
#include "solver/emptiness.h"
#include "system/zoo.h"

namespace amalgam {
namespace {

namespace fs = std::filesystem;

// A socket path short enough for sun_path, unique per test.
std::string SocketPath(const std::string& name) {
  const fs::path path = fs::path(::testing::TempDir()) / (name + ".sock");
  fs::remove(path);
  return path.string();
}

// A blocking JSONL client with a read deadline: the tests must fail, not
// hang, when the daemon drops a response.
class Client {
 public:
  static Client ConnectUds(const std::string& path) {
    Client client;
    client.fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    EXPECT_EQ(
        ::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    return client;
  }

  static Client ConnectTcp(int port) {
    Client client;
    client.fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    EXPECT_EQ(
        ::connect(client.fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
        0)
        << std::strerror(errno);
    return client;
  }

  Client() = default;
  Client(Client&& other) noexcept : fd_(other.fd_), buf_(std::move(other.buf_)) {
    other.fd_ = -1;
  }
  ~Client() {
    if (fd_ >= 0) ::close(fd_);
  }

  void Send(const std::string& data) {
    std::size_t sent = 0;
    while (sent < data.size()) {
      const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                               MSG_NOSIGNAL);
      ASSERT_GT(n, 0) << std::strerror(errno);
      sent += static_cast<std::size_t>(n);
    }
  }

  void SendLine(const std::string& line) { Send(line + "\n"); }

  /// Reads one response line (terminator stripped). False on EOF or after
  /// `timeout_ms` with no complete line.
  bool ReadLine(std::string* line, int timeout_ms = 30000) {
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    for (;;) {
      const std::size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - std::chrono::steady_clock::now());
      if (left.count() <= 0) return false;
      pollfd pfd{fd_, POLLIN, 0};
      if (::poll(&pfd, 1, static_cast<int>(left.count())) <= 0) return false;
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) return false;  // EOF or error
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  /// True when the daemon closed the connection within `timeout_ms` (any
  /// stray readable bytes are drained first).
  bool WaitForEof(int timeout_ms) {
    std::string ignored;
    while (ReadLine(&ignored, timeout_ms)) {
    }
    char byte;
    pollfd pfd{fd_, POLLIN, 0};
    if (::poll(&pfd, 1, timeout_ms) <= 0) return false;
    return ::recv(fd_, &byte, 1, 0) == 0;
  }

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  std::string buf_;
};

// The document reads views into `line`, which must outlive it.
JsonDocument MustParse(const std::string& line) {
  JsonDocument parsed = ParseJson(line);
  EXPECT_TRUE(parsed.root()) << "unparsable response: " << line;
  return parsed;
}

bool FieldBool(const JsonDocument& doc, const char* name) {
  return doc.root().Get(name).boolean();
}

double FieldNumber(const JsonDocument& doc, const char* name) {
  const JsonView field = doc.root().Get(name);
  return field ? field.number() : -1;
}

std::string FieldString(const JsonDocument& doc, const char* name) {
  return std::string(doc.root().Get(name).string());
}

constexpr const char* kReachRedLine =
    R"({"id":%,"kind":"system","class":"all","system":"reach_red"})";
constexpr const char* kZigZagLine =
    R"({"id":%,"kind":"words","nfa":"aplus_bplus","system":"zigzag"})";

std::string WithId(const char* pattern, const std::string& id) {
  std::string line = pattern;
  return line.replace(line.find('%'), 1, id);
}

// The spec-described probe pair from service_test: same cache key (same
// schema, register, guard), different accepting set — the accepting seed
// leaves a partial graph, the non-accepting probes need the full sweep.
std::string RedProbeLine(const std::string& id, bool accepting) {
  return std::string(R"({"id":)") + id +
         R"(,"kind":"system","class":"all",)"
         R"("schema":{"relations":[["E",2],["red",1]]},)"
         R"("system":{"registers":["x"],)"
         R"("states":[{"name":"s","initial":true},)"
         R"({"name":"t")" +
         (accepting ? R"(,"accepting":true)" : "") +
         R"json(}],"rules":[{"from":"s","to":"t","guard":"red(x_new)"}]}})json";
}

TEST(DaemonNetTest, ConcurrentClientsGetOrderedParityOverUds) {
  const bool reach_red_expected = [] {
    const DdsSystem system = ReachRedSystem();
    const AllStructuresClass cls(GraphZooSchema());
    return SolveEmptiness(system, cls, SolveOptions{.build_witness = false})
        .nonempty;
  }();

  QueryService::Options sopts;
  sopts.num_workers = 4;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("parity");
  DaemonServer server(service, nopts);
  server.Start();

  // 16 concurrent clients, each pipelining a mixed burst in one write:
  // two queries, a bad line, and a stats op. Every client must get its
  // four responses back in request order with correct verdicts, however
  // the event loop interleaves the connections.
  constexpr int kClients = 16;
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      Client client = Client::ConnectUds(nopts.uds_path);
      const std::string tag = std::to_string(c);
      client.Send(WithId(kReachRedLine, "\"q" + tag + "-1\"") + "\n" +
                  R"({"id":"q)" + tag + R"(-2","kind":"nope"})" + "\n" +
                  WithId(kZigZagLine, "\"q" + tag + "-3\"") + "\n" +
                  R"({"id":"q)" + tag + R"(-4","op":"stats"})" + "\n");
      std::string line;
      for (int i = 1; i <= 4; ++i) {
        ASSERT_TRUE(client.ReadLine(&line)) << "client " << c << " response "
                                            << i;
        const JsonDocument response = MustParse(line);
        EXPECT_EQ(FieldString(response, "id"),
                  "q" + tag + "-" + std::to_string(i))
            << "out of order for client " << c << ": " << line;
        switch (i) {
          case 1:
            EXPECT_TRUE(FieldBool(response, "ok")) << line;
            EXPECT_EQ(FieldBool(response, "nonempty"), reach_red_expected);
            break;
          case 2:
            EXPECT_FALSE(FieldBool(response, "ok")) << line;
            break;
          case 3:
            EXPECT_TRUE(FieldBool(response, "ok")) << line;
            break;
          case 4:
            EXPECT_TRUE(FieldBool(response, "ok")) << line;
            // The per-connection counters belong to *this* connection.
            EXPECT_EQ(FieldNumber(response, "conn_requests"), 4) << line;
            EXPECT_GE(FieldNumber(response, "connections_opened"), 1) << line;
            EXPECT_EQ(FieldNumber(response, "conn_rejected_overload"), 0);
            break;
        }
      }
    });
  }
  for (auto& thread : threads) thread.join();

  EXPECT_EQ(server.counters().opened.load(), 16u);
  // Verdict parity end to end: the daemon answered from the same service
  // a direct submission uses.
  QueryRequest direct;
  direct.kind = QueryKind::kSystem;
  direct.system = std::make_shared<DdsSystem>(ReachRedSystem());
  direct.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  QueryResult result = service.Submit(std::move(direct)).get();
  ASSERT_TRUE(result.ok) << result.error;
  EXPECT_EQ(result.nonempty, reach_red_expected);

  server.Stop();
  service.Shutdown();
  EXPECT_EQ(server.counters().open.load(), 0u);
}

TEST(DaemonNetTest, TinyInflightCapRejectsOverloadInBand) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("overload");
  nopts.max_inflight_per_conn = 1;
  DaemonServer server(service, nopts);
  server.Start();

  // One burst of 32 identical cold queries in a single write: the event
  // loop admits the first (the window is empty), and every line it parses
  // while that response is still pending is refused in-band. The exact
  // split depends on scheduling; the contract is order, the first accept,
  // and agreement between the responses and every rejection counter. The
  // query is an eager build over a million members, so the loop parses
  // later lines while the first is still building: a worker emits a
  // response as soon as it has it, and a query answered in microseconds
  // would free the window before the next line arrives.
  constexpr int kBurst = 32;
  constexpr const char* kSlowLine =
      R"({"id":%,"kind":"system","class":"all","system":"odd_red_cycle",)"
      R"("strategy":"eager"})";
  Client client = Client::ConnectUds(nopts.uds_path);
  std::string burst;
  for (int i = 1; i <= kBurst; ++i) {
    burst += WithId(kSlowLine, std::to_string(i)) + "\n";
  }
  client.Send(burst);

  int ok_count = 0;
  int overloaded = 0;
  std::string line;
  for (int i = 1; i <= kBurst; ++i) {
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    const JsonDocument response = MustParse(line);
    ASSERT_EQ(FieldNumber(response, "id"), i) << "out of order: " << line;
    if (FieldBool(response, "ok")) {
      ++ok_count;
    } else {
      EXPECT_EQ(FieldString(response, "error_code"), "overloaded") << line;
      ++overloaded;
    }
  }
  EXPECT_TRUE(FieldBool(MustParse(line), "ok") || overloaded > 0);
  ASSERT_GT(ok_count, 0) << "the first query fits an empty window";
  ASSERT_GT(overloaded, 0) << "a 1-deep window cannot absorb a 32-line burst";

  // The daemon-wide and per-connection counters agree with what the
  // client saw.
  client.SendLine(R"({"id":"s","op":"stats"})");
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonDocument stats = MustParse(line);
  EXPECT_EQ(FieldNumber(stats, "overload_rejections"), overloaded);
  EXPECT_EQ(FieldNumber(stats, "conn_rejected_overload"), overloaded);
  EXPECT_EQ(FieldNumber(stats, "queries"), ok_count);
  EXPECT_EQ(server.counters().overload_rejections.load(),
            static_cast<std::uint64_t>(overloaded));

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, IdleTimeoutReapsSilentClients) {
  QueryService::Options sopts;
  sopts.num_workers = 2;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("idle");
  nopts.idle_timeout_ms = 200;
  DaemonServer server(service, nopts);
  server.Start();

  Client client = Client::ConnectUds(nopts.uds_path);
  client.SendLine(WithId(kReachRedLine, "1"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  // Now go silent: the daemon must close this connection, not leak it.
  EXPECT_TRUE(client.WaitForEof(5000)) << "idle client was never reaped";
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (server.counters().open.load() != 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.counters().open.load(), 0u);

  // A fresh, active client is unaffected by the reaper.
  Client fresh = Client::ConnectUds(nopts.uds_path);
  fresh.SendLine(WithId(kReachRedLine, "2"));
  ASSERT_TRUE(fresh.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, PartialResumeCoalescesAcrossTheSocket) {
  QueryService::Options sopts;
  sopts.num_workers = 4;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("resume");
  DaemonServer server(service, nopts);
  server.Start();

  // Seed the partial entry: the accepting probe early-exits.
  Client seeder = Client::ConnectUds(nopts.uds_path);
  seeder.SendLine(RedProbeLine("0", /*accepting=*/true));
  std::string line;
  ASSERT_TRUE(seeder.ReadLine(&line));
  const JsonDocument seeded = MustParse(line);
  ASSERT_TRUE(FieldBool(seeded, "ok")) << line;
  ASSERT_TRUE(FieldBool(seeded, "nonempty"));

  // One pipelined burst of 16 non-accepting probes over the same key:
  // exactly one response may carry the suffix sweep (members > 0) — the
  // resume leader; every other query either joined its flight or ran
  // direct off the completed entry, both with zero enumeration.
  Client prober = Client::ConnectUds(nopts.uds_path);
  std::string burst;
  for (int i = 1; i <= 16; ++i) {
    burst += RedProbeLine(std::to_string(i), /*accepting=*/false) + "\n";
  }
  prober.Send(burst);
  int extenders = 0;
  for (int i = 1; i <= 16; ++i) {
    ASSERT_TRUE(prober.ReadLine(&line)) << "response " << i;
    const JsonDocument response = MustParse(line);
    ASSERT_TRUE(FieldBool(response, "ok")) << line;
    EXPECT_FALSE(FieldBool(response, "nonempty")) << line;
    if (FieldNumber(response, "members") > 0) ++extenders;
  }
  EXPECT_EQ(extenders, 1) << "exactly one socket query may extend the graph";

  prober.SendLine(R"({"id":"s","op":"stats"})");
  ASSERT_TRUE(prober.ReadLine(&line));
  const JsonDocument stats = MustParse(line);
  EXPECT_EQ(FieldNumber(stats, "resume_leads"), 1) << line;

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, TcpTransportAndProtocolShutdown) {
  QueryService::Options sopts;
  sopts.num_workers = 2;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.tcp_port = 0;  // ephemeral loopback port
  DaemonServer server(service, nopts);
  server.Start();
  ASSERT_GT(server.tcp_port(), 0);

  Client client = Client::ConnectTcp(server.tcp_port());
  client.SendLine(WithId(kReachRedLine, "1"));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_TRUE(FieldBool(MustParse(line), "ok")) << line;

  // {"op":"shutdown"} stops the daemon; the ack still arrives, in order,
  // and WaitUntilStopped unblocks without Stop() having been called.
  client.SendLine(R"({"id":2,"op":"shutdown"})");
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonDocument ack = MustParse(line);
  EXPECT_TRUE(FieldBool(ack, "ok")) << line;
  EXPECT_EQ(FieldString(ack, "op"), "shutdown") << line;
  server.WaitUntilStopped();
  EXPECT_TRUE(server.shutdown_requested());
  EXPECT_TRUE(client.WaitForEof(5000)) << "shutdown must close clients";

  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, OversizedLinesGetAnErrorNotABufferBloat) {
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("bigline");
  nopts.max_line_bytes = 1024;
  DaemonServer server(service, nopts);
  server.Start();

  Client client = Client::ConnectUds(nopts.uds_path);
  client.Send(std::string(4096, 'x'));  // no newline, 4x the cap
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  const JsonDocument response = MustParse(line);
  EXPECT_FALSE(FieldBool(response, "ok"));
  EXPECT_EQ(FieldString(response, "error_code"), "line_too_long") << line;
  EXPECT_TRUE(client.WaitForEof(5000)) << "the stream is mid-garbage; the "
                                          "daemon should close it";

  server.Stop();
  service.Shutdown();
}

// The threads of this process, from /proc/self/task.
int ThreadCount() {
  int count = 0;
  for (const auto& entry : fs::directory_iterator("/proc/self/task")) {
    (void)entry;
    ++count;
  }
  return count;
}

TEST(DaemonNetTest, ConnectionsAddNoThreads) {
  QueryService::Options sopts;
  sopts.num_workers = 2;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("threads");
  DaemonServer server(service, nopts);
  server.Start();

  // One connection that has run a query and a blocking admin op: the
  // loop, the workers and the admin thread all exist now.
  std::string line;
  Client first = Client::ConnectUds(nopts.uds_path);
  first.SendLine(WithId(kReachRedLine, "0"));
  first.SendLine(R"({"id":"s","op":"stats"})");
  ASSERT_TRUE(first.ReadLine(&line));
  ASSERT_TRUE(first.ReadLine(&line));
  const int baseline = ThreadCount();

  // Sixteen more, each with queries answered and the connection still
  // open.
  std::vector<Client> clients;
  for (int c = 0; c < 16; ++c) {
    clients.push_back(Client::ConnectUds(nopts.uds_path));
    clients.back().SendLine(WithId(kReachRedLine, std::to_string(c)));
    clients.back().SendLine(WithId(kZigZagLine, std::to_string(100 + c)));
  }
  for (int c = 0; c < 16; ++c) {
    ASSERT_TRUE(clients[c].ReadLine(&line)) << "client " << c;
    EXPECT_EQ(FieldNumber(MustParse(line), "id"), c) << line;
    ASSERT_TRUE(clients[c].ReadLine(&line)) << "client " << c;
    EXPECT_EQ(FieldNumber(MustParse(line), "id"), 100 + c) << line;
  }
  EXPECT_EQ(server.counters().open.load(), 17u);
  EXPECT_EQ(ThreadCount(), baseline) << "a connection started a thread";

  // Admin ops on every connection share the one admin thread.
  for (Client& client : clients) client.SendLine(R"({"id":"d","op":"drain"})");
  for (Client& client : clients) {
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(FieldString(MustParse(line), "op"), "drain") << line;
  }
  EXPECT_EQ(ThreadCount(), baseline);

  clients.clear();
  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, ClosingAConnectionWithQueriesInFlightIsSafe) {
  // The client hangs up while its queries are queued and running: their
  // completions still land in the session, which the loop retires until
  // they have; nothing may touch it after it is freed (ASan and TSan run
  // this).
  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("hangup");
  DaemonServer server(service, nopts);
  server.Start();

  constexpr const char* kColdLine =
      R"j({"id":%,"kind":"system","class":"all","strategy":"eager",)j"
      R"j("schema":{"relations":[["E",2],["red",1]]},"system":{)j"
      R"j("registers":["x","y"],"states":[{"name":"a","initial":true},)j"
      R"j({"name":"b","accepting":true}],"rules":[{"from":"a","to":"b",)j"
      R"j("guard":"E(x_old, y_new) & red(x_new)"},{"from":"b","to":"a",)j"
      R"j("guard":"x_old = y_new"}]}})j";
  for (int round = 0; round < 3; ++round) {
    {
      Client client = Client::ConnectUds(nopts.uds_path);
      std::string burst;
      for (int i = 0; i < 6; ++i) {
        burst += WithId(kColdLine, std::to_string(i)) + "\n";
        burst += WithId(kReachRedLine, std::to_string(100 + i)) + "\n";
        burst += R"({"op":"recent"})" "\n";
      }
      burst += R"({"op":"stats"})" "\n";
      client.Send(burst);
      if (round == 1) {
        std::string line;
        ASSERT_TRUE(client.ReadLine(&line));  // hang up mid-stream
      }
    }  // closed with queries queued, running and answered
    if (round == 2) {
      Client waiting = Client::ConnectUds(nopts.uds_path);
      waiting.SendLine(WithId(kReachRedLine, "7"));
    }  // and one the daemon has not even read yet
  }
  // A fresh client still gets served, in order, while the retired
  // sessions drain.
  Client client = Client::ConnectUds(nopts.uds_path);
  client.SendLine(WithId(kReachRedLine, "1"));
  client.SendLine(R"({"id":2,"op":"drain"})");
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(FieldNumber(MustParse(line), "id"), 1) << line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(FieldNumber(MustParse(line), "id"), 2) << line;
  EXPECT_EQ(service.Pending(), 0u);

  // Every retired session is collected once its queries resolve.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.counters().open.load() > 1 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.counters().open.load(), 1u);
  server.Stop();
  service.Shutdown();
}

TEST(DaemonNetTest, AdminOpsBetweenQueriesKeepRequestOrder) {
  QueryService::Options sopts;
  sopts.num_workers = 4;
  QueryService service(sopts);
  DaemonServerOptions nopts;
  nopts.uds_path = SocketPath("adminorder");
  DaemonServer server(service, nopts);
  server.Start();

  // Queries of mixed cost around every kind of admin op, in one write.
  Client client = Client::ConnectUds(nopts.uds_path);
  const std::vector<std::string> lines = {
      R"({"id":1,"kind":"system","class":"all","system":"odd_red_cycle",)"
      R"("strategy":"eager"})",
      WithId(kReachRedLine, "2"),
      R"({"id":3,"op":"stats"})",
      WithId(kZigZagLine, "4"),
      R"({"id":5,"op":"recent"})",
      WithId(kReachRedLine, "6"),
      R"({"id":7,"op":"metrics"})",
      R"({"id":8,"kind":"nope"})",
      R"({"id":9,"op":"sweep"})",
      WithId(kZigZagLine, "10"),
      R"({"id":11,"op":"drain"})",
      WithId(kReachRedLine, "12"),
  };
  std::string burst;
  for (const std::string& line : lines) burst += line + "\n";
  client.Send(burst);
  std::string line;
  for (std::size_t i = 1; i <= lines.size(); ++i) {
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    const JsonDocument response = MustParse(line);
    ASSERT_EQ(FieldNumber(response, "id"), static_cast<double>(i))
        << "out of order: " << line;
    if (i == 3) {
      // The stats op answers after both queries before it finished.
      EXPECT_GE(FieldNumber(response, "queries"), 2) << line;
    }
    if (i == 5) {
      // So does recent, without draining: the ring holds all three.
      EXPECT_GE(FieldNumber(response, "count"), 3) << line;
    }
  }

  server.Stop();
  service.Shutdown();
}

}  // namespace
}  // namespace amalgam
