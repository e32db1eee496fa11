// The amalgamd JSONL protocol: one request object per line in, one
// response object per line out.
//
// A *query* line names a front door and its inputs — zoo-named or
// spec-described — and maps onto one QueryService::Submit:
//
//   {"id":1,"kind":"system","class":"all","system":"reach_red"}
//   {"id":2,"kind":"words","nfa":"aplus_bplus","system":"zigzag"}
//   {"id":3,"kind":"trees","automaton":"two_level","system":{"registers":
//     ["x"],"states":[{"name":"s","initial":true},{"name":"t","accepting":
//     true}],"rules":[{"from":"s","to":"t","guard":"desc(x_old, x_new)"}]}}
//   {"id":4,"kind":"branching","class":"all","system":{"registers":["x"],
//     "states":[...],"rules":[{"from":"a","branches":[{"guard":"...",
//     "to":"b"},...]}]}}
//
// Optional query fields: "strategy" ("onthefly"|"eager"), "build_witness"
// (kinds "system" and "word"; tree and branching queries build no witness
// yet), "extra_pattern_cap" (trees), "atom_cap" (kind "system": relational
// enumeration cap; a query whose candidate space exceeds it fails in-band
// with "error_code":"enumeration_cap"), "rounds"/"steps" (the parametrized
// zoo systems), "schema" ({"relations":[["E",2],...],"functions":[...]};
// kind "system" specs only — word/tree schemas are implied by the
// automaton), "trace" (true: record the query's span tree — queue wait,
// coalesced wait, per-phase sweeps, store I/O — and return it in the
// response's "trace" member; see docs/OBSERVABILITY.md). A query line
// carrying "store_dir" is refused in band: the store is attached once, at
// daemon startup (amalgamd --store-dir).
//
// *Admin* lines select an op instead: {"op":"stats"}, {"op":"sweep",
// "max_bytes":N,"max_files":N}, {"op":"maintain"} (one synchronous
// maintenance pass: complete partials, repack, sweep — needs a daemon
// with a store attached), {"op":"metrics"} (the full metrics registry in
// Prometheus text format, JSON-escaped in the response's "body"),
// {"op":"recent"} (the bounded ring of recent query summaries),
// {"op":"drain"}, {"op":"shutdown"}. metrics/recent are cheap snapshots:
// they do not drain the service first.
//
// A line is read in one pass into a flat array of views over the line
// (service/json.h); the ProtocolRequest built from it owns what it keeps.
// "rounds", "steps" and "extra_pattern_cap" take an integer in
// [0, kMaxSizeParameter], the p of "nfa":"mod<p>" an integer in
// [2, kMaxSizeParameter], and a schema arity an integer in [0, INT_MAX];
// anything else fails the line in band.
//
// Responses echo the request's "id" re-serialized (decoded, then
// re-escaped: see JsonToString) and always carry "ok";
// failures report {"ok":false,"error":"..."} and never kill the loop.
// Machine-readable "error_code" values include "enumeration_cap" (atom cap
// exceeded), "witness_invalid" (a requested witness failed its check),
// "overloaded" (the connection's inflight cap refused a query
// line — read pending responses, then resend) and "line_too_long" (the
// daemon's per-line byte cap; the connection's input side is closed).
#ifndef AMALGAM_SERVICE_PROTOCOL_H_
#define AMALGAM_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"
#include "service/maintenance.h"
#include "service/query.h"
#include "solver/store.h"

namespace amalgam {

class GuardTable;

/// One parsed request line. It owns everything it keeps (the re-serialized
/// id, the error text, and the systems, classes and guards built from the
/// line) and holds no view into the line, so a caller may keep it after
/// the line is gone.
struct ProtocolRequest {
  enum class Op {
    kQuery,
    kStats,
    kSweep,
    kMaintain,
    kMetrics,
    kRecent,
    kDrain,
    kShutdown
  };

  Op op = Op::kQuery;
  /// The request's "id" member, re-serialized for echoing ("" = absent).
  std::string id_json;
  /// Non-empty: the line failed to parse or validate; reply with
  /// FormatErrorResponse and do not execute anything.
  std::string error;

  QueryRequest query;              // kQuery
  std::uint64_t max_bytes = 0;     // kSweep
  std::uint64_t max_files = 0;     // kSweep
};

/// The largest "rounds", "steps" or "extra_pattern_cap" a query may carry,
/// and the largest p of "nfa":"mod<p>"; a negative, fractional or larger
/// value fails the line in band. "rounds" and "steps" size a zoo system
/// and p a counter automaton, each built on the transport's thread while
/// the line is parsed, in time linear in the parameter, so an unbounded
/// one would let one short line stall every other connection (a p of
/// 100000 crashed the daemon); "extra_pattern_cap" sizes the tree pattern
/// class a worker builds.
inline constexpr int kMaxSizeParameter = 64;

/// Parses one JSONL request line in one pass over views into `line`.
/// Never throws: malformed input comes back as a ProtocolRequest with
/// `error` set (and any parsable id). The result owns everything it keeps
/// and does not refer to `line`. Spec guards are compiled through the
/// daemon-wide GuardTable::Shared() (system/guard_table.h).
ProtocolRequest ParseRequestLine(std::string_view line);
/// The same through `guards` instead; null parses every distinct guard of
/// the line afresh, as a line parsed without any table.
ProtocolRequest ParseRequestLine(std::string_view line, GuardTable* guards);

std::string FormatQueryResponse(const ProtocolRequest& request,
                                const QueryResult& result);
std::string FormatStatsResponse(const ProtocolRequest& request,
                                const ServiceStats& stats);
std::string FormatSweepResponse(const ProtocolRequest& request,
                                const StoreSweepResult& result);
/// One pass's work plus the loop's cumulative counters.
std::string FormatMaintainResponse(const ProtocolRequest& request,
                                   const MaintenancePassResult& pass,
                                   const MaintenanceStats& stats);
/// The {"op":"metrics"} response: `body` (RenderPrometheus output) is
/// carried JSON-escaped next to its content type, so the op replays
/// through the same JSONL loop as everything else.
std::string FormatMetricsResponse(const ProtocolRequest& request,
                                  const std::string& body);
/// The {"op":"recent"} response: the ring entries oldest first.
std::string FormatRecentResponse(const ProtocolRequest& request,
                                 const std::vector<RecentQuery>& entries);
/// Snapshots every ServiceStats field into `registry` as an
/// "amalgam_<field>" counter/gauge (generated from
/// AMALGAM_SERVICE_STATS_FIELDS, so a new stats counter is exported
/// automatically), plus the amalgam_build_info labeled gauge. Called at
/// scrape time by both the metrics op and the --metrics-tcp endpoint.
void ExportServiceStats(const ServiceStats& stats, MetricsRegistry& registry);
std::string FormatDrainResponse(const ProtocolRequest& request,
                                const ServiceStats& stats);
std::string FormatShutdownResponse(const ProtocolRequest& request,
                                   const ServiceStats& stats);
/// `code`, when non-empty, is emitted as a machine-readable "error_code"
/// member next to the human-readable "error" (e.g. "enumeration_cap" when
/// the relational candidate space exceeded the query's atom cap).
std::string FormatErrorResponse(const ProtocolRequest& request,
                                const std::string& error,
                                const std::string& code = "");

}  // namespace amalgam

#endif  // AMALGAM_SERVICE_PROTOCOL_H_
