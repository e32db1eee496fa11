// perfbench_harness — the compiled half of the amalgamd benchmark
// (perfbench/run.py drives it; see perfbench/README.md).
//
//   perfbench_harness client --socket PATH --connections C --window W
//                            --in LINES --out RESULTS
//       Closed-loop load generator: line i goes to connection i % C, each
//       connection keeps at most W lines outstanding and sends its next
//       line when a response frees a slot. Single-threaded (poll). Writes
//       one "index<TAB>latency_ns<TAB>send_lag_ns<TAB>response" row per
//       line and prints {"wall_s":...} for the timed phase.
//
//   perfbench_harness oracle --in LINES --out VERDICTS
//       The reference verdict of every query line: the cache-less eager
//       front door, in process, without a witness. One row per line:
//       "index nonempty members generated guard_evals edges raw_memo_hits
//       build_ns" ("index skip" for non-query lines).
//
//   perfbench_harness layers --in LINES --store-dir DIR
//       Outside-in per-layer timings: calls the public function of each
//       module on the workload's own lines and prints one JSON object of
//       "module.metric" values.
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "service/maintenance.h"
#include "service/protocol.h"
#include "service/service.h"
#include "solver/cache.h"
#include "solver/emptiness.h"
#include "solver/store.h"
#include "trees/run_class.h"
#include "trees/solve.h"
#include "words/run_class.h"
#include "words/solve.h"

namespace {

using Clock = std::chrono::steady_clock;
namespace fs = std::filesystem;

std::int64_t NsSince(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              start)
      .count();
}

struct Args {
  std::map<std::string, std::string> values;

  std::string Need(const std::string& name) const {
    auto it = values.find(name);
    if (it == values.end()) throw std::runtime_error("missing --" + name);
    return it->second;
  }
  int Int(const std::string& name, int fallback) const {
    auto it = values.find(name);
    return it == values.end() ? fallback : std::stoi(it->second);
  }
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 2; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    if (flag.rfind("--", 0) != 0) throw std::runtime_error("bad flag " + flag);
    args.values[flag.substr(2)] = argv[i + 1];
  }
  return args;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---- client ---------------------------------------------------------------

struct Connection {
  int fd = -1;
  std::vector<std::size_t> lines;  // indices into the input, in send order
  std::size_t next = 0;            // next position in `lines` to send
  std::string out;                 // bytes not yet written
  std::string in;                  // bytes read, not yet split
  struct Pending {
    std::size_t index;
    Clock::time_point sent;
  };
  std::deque<Pending> pending;
  // When the oldest free window slot opened: the phase start, or the
  // receipt of the response that freed it. Send lag is measured from it.
  std::deque<Clock::time_point> slot_free_since;
};

int ConnectUnix(const std::string& path) {
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) throw std::runtime_error("socket() failed");
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw std::runtime_error("socket path too long: " + path);
  }
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    throw std::runtime_error("connect() failed: " + path);
  }
  ::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL) | O_NONBLOCK);
  return fd;
}

int RunClient(const Args& args) {
  const std::vector<std::string> lines = ReadLines(args.Need("in"));
  const int num_conns = std::max(1, args.Int("connections", 1));
  const int window = std::max(1, args.Int("window", 1));
  std::vector<Connection> conns(num_conns);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    conns[i % num_conns].lines.push_back(i);
  }
  for (Connection& c : conns) c.fd = ConnectUnix(args.Need("socket"));

  std::vector<std::int64_t> latency_ns(lines.size(), -1);
  std::vector<std::int64_t> lag_ns(lines.size(), 0);
  std::vector<std::string> responses(lines.size());
  std::size_t answered = 0;

  const Clock::time_point start = Clock::now();
  for (Connection& c : conns) {
    for (int w = 0; w < window; ++w) c.slot_free_since.push_back(start);
  }
  std::vector<pollfd> fds(num_conns);
  char buf[1 << 16];
  while (answered < lines.size()) {
    for (int ci = 0; ci < num_conns; ++ci) {
      Connection& c = conns[ci];
      while (c.next < c.lines.size() &&
             c.pending.size() < static_cast<std::size_t>(window)) {
        const std::size_t index = c.lines[c.next++];
        const Clock::time_point now = Clock::now();
        lag_ns[index] = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            now - c.slot_free_since.front())
                            .count();
        c.slot_free_since.pop_front();
        c.out += lines[index];
        c.out += '\n';
        c.pending.push_back({index, now});
      }
      while (!c.out.empty()) {
        const ssize_t n =
            ::send(c.fd, c.out.data(), c.out.size(), MSG_NOSIGNAL);
        if (n > 0) {
          c.out.erase(0, static_cast<std::size_t>(n));
        } else if (errno == EAGAIN || errno == EINTR) {
          break;  // poll for POLLOUT below
        } else {
          throw std::runtime_error("client: send failed");
        }
      }
      const short events = POLLIN | (c.out.empty() ? 0 : POLLOUT);
      fds[ci] = {c.fd, events, 0};
    }
    if (::poll(fds.data(), fds.size(), 60000) <= 0) {
      throw std::runtime_error("client: no progress for 60 s");
    }
    for (int ci = 0; ci < num_conns; ++ci) {
      if ((fds[ci].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      Connection& c = conns[ci];
      const ssize_t n = ::recv(c.fd, buf, sizeof(buf), 0);
      if (n == 0) throw std::runtime_error("client: daemon closed connection");
      if (n < 0) {
        if (errno == EAGAIN || errno == EINTR) continue;
        throw std::runtime_error("client: recv failed");
      }
      c.in.append(buf, static_cast<std::size_t>(n));
      std::size_t pos = 0;
      for (std::size_t nl; (nl = c.in.find('\n', pos)) != std::string::npos;
           pos = nl + 1) {
        if (c.pending.empty()) {
          throw std::runtime_error("client: unsolicited response");
        }
        const Clock::time_point now = Clock::now();
        const Connection::Pending p = c.pending.front();
        c.pending.pop_front();
        latency_ns[p.index] =
            std::chrono::duration_cast<std::chrono::nanoseconds>(now - p.sent)
                .count();
        responses[p.index] = c.in.substr(pos, nl - pos);
        c.slot_free_since.push_back(now);
        ++answered;
      }
      c.in.erase(0, pos);
    }
  }
  const double wall_s = static_cast<double>(NsSince(start)) * 1e-9;
  for (Connection& c : conns) ::close(c.fd);

  std::ofstream out(args.Need("out"));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    out << i << '\t' << latency_ns[i] << '\t' << lag_ns[i] << '\t'
        << responses[i] << '\n';
  }
  std::printf("{\"wall_s\":%.9f,\"lines\":%zu}\n", wall_s, lines.size());
  return out ? 0 : 1;
}

// ---- front doors ------------------------------------------------------------

// The request's front door, as QueryService::RunQuery calls it, with the
// cache and strategy supplied by the caller and no witness.
amalgam::SolveStats RunFrontDoor(const amalgam::QueryRequest& request,
                                 amalgam::GraphCache* cache,
                                 amalgam::SolveStrategy strategy,
                                 bool* nonempty) {
  using namespace amalgam;
  switch (request.kind) {
    case QueryKind::kSystem: {
      SolveOptions options;
      options.build_witness = false;
      options.strategy = strategy;
      options.cache = cache;
      options.relational_atom_cap = request.atom_cap;
      SolveResult solved =
          SolveEmptiness(*request.system, *request.cls, options);
      *nonempty = solved.nonempty;
      return solved.stats;
    }
    case QueryKind::kWord: {
      WordSolveResult solved = SolveWordEmptiness(
          *request.system, *request.nfa, false, strategy, cache);
      *nonempty = solved.nonempty;
      return solved.stats;
    }
    case QueryKind::kTree: {
      TreeSolveResult solved = SolveTreeEmptiness(
          *request.system, *request.automaton, 0, request.extra_pattern_cap,
          strategy, cache);
      *nonempty = solved.nonempty;
      return solved.stats;
    }
    case QueryKind::kBranching:
      break;
  }
  throw std::runtime_error("perfbench: branching queries are not generated");
}

int RunOracle(const Args& args) {
  const std::vector<std::string> lines = ReadLines(args.Need("in"));
  std::ofstream out(args.Need("out"));
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const amalgam::ProtocolRequest request =
        amalgam::ParseRequestLine(lines[i]);
    if (request.op != amalgam::ProtocolRequest::Op::kQuery ||
        !request.error.empty()) {
      out << i << " skip\n";
      continue;
    }
    bool nonempty = false;
    const Clock::time_point start = Clock::now();
    const amalgam::SolveStats stats = RunFrontDoor(
        request.query, nullptr, amalgam::SolveStrategy::kEager, &nonempty);
    const std::int64_t build_ns = NsSince(start);
    out << i << ' ' << (nonempty ? 1 : 0) << ' ' << stats.members_enumerated
        << ' ' << stats.members_generated << ' ' << stats.guard_evaluations
        << ' ' << stats.edges << ' ' << stats.raw_memo_hits << ' ' << build_ns
        << '\n';
  }
  return out ? 0 : 1;
}

// ---- layers -----------------------------------------------------------------

// A "VmRSS:"-style field of /proc/self/status, in kB.
std::int64_t StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) return std::stoll(line.substr(len));
  }
  return 0;
}

// Resets VmHWM to the current RSS, so a later VmHWM reads the peak of what
// ran in between.
void ResetPeakRss() {
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Per-call time in µs of `body(i)` over i in [0, n), as the median of
// five passes over all n.
double MedianPassUs(std::size_t n,
                    const std::function<void(std::size_t)>& body) {
  std::vector<double> passes;
  for (int r = 0; r < 5; ++r) {
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < n; ++i) body(i);
    passes.push_back(static_cast<double>(NsSince(start)) * 1e-3 /
                     static_cast<double>(n));
  }
  return Median(passes);
}

std::uint64_t FileBytes(const fs::path& path) {
  std::error_code ec;
  const auto size = fs::file_size(path, ec);
  return ec ? 0 : static_cast<std::uint64_t>(size);
}

std::uint64_t DirBytes(const fs::path& dir) {
  std::uint64_t total = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (name.find(".amg") != std::string::npos || name == "pack.idx") {
      total += FileBytes(entry.path());
    }
  }
  return total;
}

// The backend the request's front door enumerates.
std::unique_ptr<amalgam::SolverBackend> OwnedBackend(
    const amalgam::QueryRequest& request) {
  using namespace amalgam;
  if (request.kind == QueryKind::kWord) {
    return std::make_unique<WordRunClass>(*request.nfa);
  }
  if (request.kind == QueryKind::kTree) {
    return std::make_unique<TreeRunClass>(request.automaton.get(),
                                          request.extra_pattern_cap);
  }
  return nullptr;
}

struct KeyedGraph {
  std::string key;
  const amalgam::QueryRequest* request = nullptr;
  std::shared_ptr<const amalgam::SubTransitionGraph> graph;
  amalgam::SchemaRef schema;  // the backend's: the store's load context
};

int RunLayers(const Args& args) {
  using namespace amalgam;
  const std::vector<std::string> lines = ReadLines(args.Need("in"));
  const fs::path store_dir = args.Need("store-dir");
  constexpr int kBatches = 4;

  // protocol.parse_us: every line of the workload, admin lines included.
  std::vector<ProtocolRequest> parsed(lines.size());
  const double parse_us = MedianPassUs(lines.size(), [&](std::size_t i) {
    parsed[i] = ParseRequestLine(lines[i]);
  });
  std::vector<const ProtocolRequest*> queries;
  for (const ProtocolRequest& p : parsed) {
    if (p.op == ProtocolRequest::Op::kQuery && p.error.empty()) {
      queries.push_back(&p);
    }
  }
  if (queries.empty()) throw std::runtime_error("layers: no query lines");

  QueryService::Options sopts;
  sopts.num_workers = 1;
  QueryService service(sopts);
  std::vector<std::string> keys(queries.size());
  const double key_us = MedianPassUs(queries.size(), [&](std::size_t i) {
    keys[i] = service.GraphKeyFor(queries[i]->query);
  });

  // The warm cache: every distinct key built eagerly to completion. Its
  // RSS growth per entry is cache.resident_kb_per_entry.
  const std::int64_t rss_before = StatusKb("VmRSS:");
  GraphCache cache;
  std::vector<KeyedGraph> graphs;
  std::set<std::string> warmed;
  for (std::size_t i = 0; i < queries.size(); ++i) {
    if (!warmed.insert(keys[i]).second) continue;
    bool nonempty = false;
    RunFrontDoor(queries[i]->query, &cache, SolveStrategy::kEager, &nonempty);
    KeyedGraph g;
    g.key = keys[i];
    g.request = &queries[i]->query;
    g.graph = cache.Lookup(keys[i]);
    if (g.graph == nullptr || !g.graph->complete()) {
      throw std::runtime_error("layers: warm build left no complete graph");
    }
    const std::unique_ptr<SolverBackend> owned = OwnedBackend(*g.request);
    g.schema = owned != nullptr ? owned->schema() : g.request->cls->schema();
    graphs.push_back(std::move(g));
  }
  const std::int64_t rss_after = StatusKb("VmRSS:");
  double edges_total = 0;
  for (const KeyedGraph& g : graphs) {
    edges_total += static_cast<double>(g.graph->num_edges());
  }

  // engine.replay_us: the front door against the warm cache.
  const double replay_us = MedianPassUs(queries.size(), [&](std::size_t i) {
    bool nonempty = false;
    RunFrontDoor(queries[i]->query, &cache, SolveStrategy::kEager, &nonempty);
  });

  // service.submit_us (cache-hot) and protocol.render_us. The warm-up
  // runs eager, so every key is complete before the timed passes.
  for (const ProtocolRequest* q : queries) {
    QueryRequest warm = q->query;
    warm.strategy = SolveStrategy::kEager;
    service.Submit(std::move(warm)).get();
  }
  std::vector<QueryResult> results(queries.size());
  const double submit_us = MedianPassUs(queries.size(), [&](std::size_t i) {
    results[i] = service.Submit(queries[i]->query).get();
  });
  std::size_t rendered_bytes = 0;  // keeps the rendering observable
  const double render_us = MedianPassUs(queries.size(), [&](std::size_t i) {
    rendered_bytes += FormatQueryResponse(*queries[i], results[i]).size();
  });

  // fraisse.enumerate_ms: the backend's 2k member stream per distinct key,
  // with a no-op callback.
  std::vector<double> enumerate_ms;
  std::uint64_t streamed = 0;
  for (const KeyedGraph& g : graphs) {
    const std::unique_ptr<SolverBackend> owned = OwnedBackend(*g.request);
    const SolverBackend& backend =
        owned != nullptr ? *owned
                         : static_cast<const SolverBackend&>(*g.request->cls);
    const int m = 2 * g.graph->k();
    const Clock::time_point start = Clock::now();
    backend.EnumerateGenerated(
        m, [&](const Structure&, std::span<const Elem>) { ++streamed; });
    enumerate_ms.push_back(static_cast<double>(NsSince(start)) * 1e-6);
  }

  // The store: the distinct graphs saved in kBatches loose batches, each
  // folded into the pack — by GraphStore::Repack, the last one by a
  // maintenance pass.
  fs::remove_all(store_dir);
  std::uint64_t bytes_written = 0;
  std::vector<double> save_ms, loose_load_ms, pack_load_ms, decode_ms,
      repack_s, repack_rss_mb;
  double maintenance_pass_ms = 0.0;
  {
    GraphStore store(store_dir.string());
    QueryService::Options mopts_service;
    mopts_service.num_workers = 1;
    mopts_service.store_dir = store_dir.string();
    QueryService store_service(mopts_service);
    MaintenanceOptions mopts;
    mopts.store_dir = store_dir.string();
    mopts.repack_min_loose = 1;
    MaintenanceLoop maintenance(store_service, mopts);

    const std::size_t per_batch = (graphs.size() + kBatches - 1) / kBatches;
    for (std::size_t lo = 0; lo < graphs.size(); lo += per_batch) {
      const std::size_t hi = std::min(graphs.size(), lo + per_batch);
      for (std::size_t i = lo; i < hi; ++i) {
        const Clock::time_point start = Clock::now();
        if (!store.Save(graphs[i].key, *graphs[i].graph)) {
          throw std::runtime_error("layers: store save refused");
        }
        save_ms.push_back(static_cast<double>(NsSince(start)) * 1e-6);
        bytes_written += FileBytes(store.PathFor(graphs[i].key));
      }
      for (std::size_t i = lo; i < hi; ++i) {
        const KeyedGraph& g = graphs[i];
        const Clock::time_point start = Clock::now();
        const auto loaded =
            store.Load(g.key, g.schema, g.graph->guards(), g.graph->k());
        loose_load_ms.push_back(static_cast<double>(NsSince(start)) * 1e-6);
        if (loaded.graph == nullptr) {
          throw std::runtime_error("layers: loose load failed");
        }
      }
      const bool last = hi == graphs.size();
      ResetPeakRss();
      const std::int64_t rss0 = StatusKb("VmRSS:");
      const Clock::time_point start = Clock::now();
      if (last) {
        maintenance.RunOnce();
        maintenance_pass_ms = static_cast<double>(NsSince(start)) * 1e-6;
      } else {
        const StoreRepackResult repacked = store.Repack();
        if (!repacked.performed) throw std::runtime_error("layers: repack");
        repack_s.push_back(static_cast<double>(NsSince(start)) * 1e-9);
        repack_rss_mb.push_back(
            static_cast<double>(StatusKb("VmHWM:") - rss0) / 1024.0);
      }
      bytes_written +=
          FileBytes(store.PackPath()) + FileBytes(store.IndexPath());
    }
    maintenance.Stop();
    if (store.LooseFileCount() != 0) {
      throw std::runtime_error("layers: maintenance pass left loose files");
    }
    for (const KeyedGraph& g : graphs) {
      const Clock::time_point start = Clock::now();
      const auto loaded =
          store.Load(g.key, g.schema, g.graph->guards(), g.graph->k());
      pack_load_ms.push_back(static_cast<double>(NsSince(start)) * 1e-6);
      if (loaded.graph == nullptr) {
        throw std::runtime_error("layers: pack load failed");
      }
      const std::string bytes = SerializeGraph(*g.graph, g.key);
      const Clock::time_point dstart = Clock::now();
      const auto decoded = DeserializeGraph(bytes, g.key, g.schema,
                                            g.graph->guards(), g.graph->k());
      decode_ms.push_back(static_cast<double>(NsSince(dstart)) * 1e-6);
      if (decoded == nullptr) throw std::runtime_error("layers: decode");
    }
  }
  const std::uint64_t live_bytes = DirBytes(store_dir);
  fs::remove_all(store_dir);

  const double n_graphs = static_cast<double>(graphs.size());
  std::printf(
      "{\"protocol.parse_us\":%.6f,\"protocol.render_us\":%.6f,"
      "\"service.key_us\":%.6f,\"service.submit_us\":%.6f,"
      "\"engine.replay_us\":%.6f,\"graph.edges_per_key\":%.6f,"
      "\"cache.resident_kb_per_entry\":%.6f,\"fraisse.enumerate_ms\":%.6f,"
      "\"store.pack_load_ms\":%.6f,\"store.loose_load_ms\":%.6f,"
      "\"store.decode_ms\":%.6f,\"store.save_ms\":%.6f,"
      "\"store.repack_s\":%.9f,\"store.repack_rss_mb\":%.6f,"
      "\"store.write_amplification\":%.6f,\"store.bytes_per_entry\":%.6f,"
      "\"maintenance.pass_ms\":%.6f,\"keys\":%zu,\"streamed_members\":%llu,"
      "\"rendered_bytes\":%zu}\n",
      parse_us, render_us, key_us, submit_us, replay_us,
      edges_total / n_graphs,
      static_cast<double>(rss_after - rss_before) / n_graphs,
      Median(enumerate_ms), Median(pack_load_ms), Median(loose_load_ms),
      Median(decode_ms), Median(save_ms), Median(repack_s),
      Median(repack_rss_mb),
      static_cast<double>(bytes_written) / static_cast<double>(live_bytes),
      static_cast<double>(live_bytes) / n_graphs, maintenance_pass_ms,
      graphs.size(), static_cast<unsigned long long>(streamed),
      rendered_bytes);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: %s client|oracle|layers --flag value ...\n",
                 argv[0]);
    return 2;
  }
  try {
    const std::string mode = argv[1];
    const Args args = ParseArgs(argc, argv);
    if (mode == "client") return RunClient(args);
    if (mode == "oracle") return RunOracle(args);
    if (mode == "layers") return RunLayers(args);
    std::fprintf(stderr, "unknown mode %s\n", mode.c_str());
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
}
