#include "service/protocol.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <utility>
#include <vector>

#include "fraisse/relational.h"
#include "obs/build_info.h"
#include "service/json.h"
#include "system/guard_table.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "util/flat_hash.h"
#include "words/worddb.h"
#include "words/zoo.h"

namespace amalgam {

namespace {

// Parse failures inside a request are reported through this exception and
// land in ProtocolRequest::error — the JSONL loop never dies on bad input.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// `value` as an int, or a ProtocolError naming `what` unless it is an
// integer in [0, max]. A float-to-int cast outside the target range is
// undefined, and a fraction would truncate silently.
int CheckedInt(double value, int max, const std::string& what) {
  if (!(value >= 0 && value <= max && value == std::floor(value))) {
    throw ProtocolError(what + " must be an integer in [0, " +
                        std::to_string(max) + "]");
  }
  return static_cast<int>(value);
}

// A size parameter of the query: absent or not a number keeps `fallback`,
// like every optional field; a number must lie within the protocol bound.
int SizeParameter(JsonView json, std::string_view key, int fallback) {
  const JsonView value = json.Get(key);
  if (!value.is_number()) return fallback;
  return CheckedInt(value.number(), kMaxSizeParameter,
                    "\"" + std::string(key) + "\"");
}

SchemaRef ParseSchemaSpec(JsonView spec) {
  Schema schema;
  auto add_symbols = [&](const char* key, bool relation) {
    const JsonView list = spec.Get(key);
    if (!list) return;
    if (!list.is_array()) {
      throw ProtocolError(std::string("schema.") + key + " must be an array");
    }
    for (const JsonView symbol : list.elements()) {
      if (!symbol.is_array() || symbol.size() != 2 || !symbol[0].is_string() ||
          !symbol[1].is_number()) {
        throw ProtocolError(std::string("schema.") + key +
                            " entries must be [name, arity] pairs");
      }
      const std::string name(symbol[0].string());
      const int arity =
          CheckedInt(symbol[1].number(), std::numeric_limits<int>::max(),
                     std::string("schema.") + key + " arity of \"" + name +
                         "\"");
      if (relation) {
        schema.AddRelation(name, arity);
      } else {
        schema.AddFunction(name, arity);
      }
    }
  };
  add_symbols("relations", /*relation=*/true);
  add_symbols("functions", /*relation=*/false);
  return MakeSchema(std::move(schema));
}

// A map keyed by views into the request line: one flat slot array, no
// allocation per entry.
template <typename Value>
class ViewMap {
 public:
  explicit ViewMap(std::size_t expected = 0) { table_.Reserve(expected); }

  const Value* Find(std::string_view key) const {
    const auto* entry = table_.Find(
        Hash(key), [key](const Entry& e) { return e.first == key; });
    return entry != nullptr ? &entry->second : nullptr;
  }
  /// Maps `key` to `value` unless `key` is already mapped; returns the
  /// value `key` maps to now.
  const Value& Insert(std::string_view key, Value value) {
    const std::size_t hash = Hash(key);
    const auto eq = [key](const Entry& e) { return e.first == key; };
    if (const Entry* entry = table_.Find(hash, eq)) return entry->second;
    return table_.InsertUnique(hash, Entry{key, std::move(value)}).second;
  }

 private:
  using Entry = std::pair<std::string_view, Value>;
  static std::size_t Hash(std::string_view key) {
    return std::hash<std::string_view>{}(key);
  }
  FlatTable<Entry> table_;
};

// State name -> id.
using StateIds = ViewMap<int>;

// The shared shape of spec-described control skeletons: registers, named
// states, and guard texts handed to the existing parser. Returns the
// name -> id map so branching rules can resolve their targets too.
template <typename System>
StateIds BuildSkeleton(JsonView spec, System& system) {
  const JsonView registers = spec.Get("registers");
  if (!registers.is_array() || registers.empty()) {
    throw ProtocolError("system spec needs a non-empty `registers` array");
  }
  for (const JsonView reg : registers.elements()) {
    if (!reg.is_string()) {
      throw ProtocolError("`registers` entries must be strings");
    }
    system.AddRegister(std::string(reg.string()));
  }
  const JsonView states = spec.Get("states");
  if (!states.is_array() || states.empty()) {
    throw ProtocolError("system spec needs a non-empty `states` array");
  }
  StateIds state_ids(states.size());
  for (const JsonView state : states.elements()) {
    const JsonView name_field = state.Get("name");
    if (!name_field.is_string()) {
      throw ProtocolError("`states` entries must be objects with a `name`");
    }
    const std::string_view name = name_field.string();
    const int id = system.AddState(std::string(name), state.GetBool("initial"),
                                   state.GetBool("accepting"));
    if (state_ids.Insert(name, id) != id) {
      throw ProtocolError("duplicate state name: " + std::string(name));
    }
  }
  return state_ids;
}

int ResolveState(const StateIds& state_ids, std::string_view name) {
  const int* id = state_ids.Find(name);
  if (id == nullptr) {
    throw ProtocolError("rule references unknown state: " + std::string(name));
  }
  return *id;
}

// Rule lists repeat guards, and request lines repeat each other's guards.
// Each distinct guard text of a spec is looked up once in the daemon's
// guard table (system/guard_table.h), which parses and prints it only the
// first time any line uses it. Its rules share one FormulaRef and carry
// its printed form (TransitionRule::printed), so adding them prints
// nothing.
class GuardMemo {
 public:
  /// Null `table`: every distinct text of the spec is parsed and printed.
  explicit GuardMemo(GuardTable* table) : table_(table) {}

  template <typename System>
  std::shared_ptr<const ParsedGuard> Compile(System& system,
                                             std::string_view text) {
    if (const auto* guard = memo_.Find(text)) return *guard;
    auto parse = [&system](const std::string& guard) {
      return system.ParseGuard(guard);
    };
    const DdsSystem& skeleton = Skeleton(system);
    if (table_ == nullptr) {
      FormulaRef formula = parse(std::string(text));
      std::string printed = formula->ToString(skeleton.schema());
      return memo_.Insert(text, std::make_shared<const ParsedGuard>(
                                    ParsedGuard{std::move(formula),
                                                std::move(printed)}));
    }
    if (scope_.empty()) scope_ = GuardTable::Scope(skeleton);
    return memo_.Insert(
        text, table_->Compile(scope_, text, skeleton.schema(), parse));
  }

  /// The printed form a rule carries, sharing the parsed guard's
  /// ownership.
  static std::shared_ptr<const std::string> Printed(
      const std::shared_ptr<const ParsedGuard>& guard) {
    return std::shared_ptr<const std::string>(guard, &guard->printed);
  }

 private:
  static const DdsSystem& Skeleton(const DdsSystem& system) { return system; }
  static const DdsSystem& Skeleton(const BranchingSystem& system) {
    return system.skeleton();
  }

  GuardTable* const table_;
  ViewMap<std::shared_ptr<const ParsedGuard>> memo_;
  std::string scope_;
};

std::shared_ptr<const DdsSystem> ParseSystemSpec(JsonView spec,
                                                 SchemaRef schema,
                                                 GuardTable* guards) {
  auto system = std::make_shared<DdsSystem>(std::move(schema));
  const StateIds state_ids = BuildSkeleton(spec, *system);
  const JsonView rules = spec.Get("rules");
  if (!rules.is_array()) {
    throw ProtocolError("system spec needs a `rules` array");
  }
  GuardMemo memo(guards);
  for (const JsonView rule : rules.elements()) {
    if (!rule.is_object()) throw ProtocolError("`rules` entries are objects");
    const std::string_view from = rule.GetString("from");
    const std::string_view to = rule.GetString("to");
    const std::string_view guard = rule.GetString("guard");
    if (from.empty() || to.empty() || guard.empty()) {
      throw ProtocolError("a rule needs `from`, `to` and `guard`");
    }
    const int from_id = ResolveState(state_ids, from);
    const int to_id = ResolveState(state_ids, to);
    try {
      const auto compiled = memo.Compile(*system, guard);
      system->AddRule(from_id, to_id, compiled->formula,
                      GuardMemo::Printed(compiled));
    } catch (const std::exception& e) {
      throw ProtocolError("bad guard \"" + std::string(guard) +
                          "\": " + e.what());
    }
  }
  return system;
}

std::shared_ptr<const BranchingSystem> ParseBranchingSpec(
    JsonView spec, SchemaRef schema, GuardTable* guards) {
  auto system = std::make_shared<BranchingSystem>(std::move(schema));
  const StateIds state_ids = BuildSkeleton(spec, *system);
  const JsonView rules = spec.Get("rules");
  if (!rules.is_array()) {
    throw ProtocolError("branching spec needs a `rules` array");
  }
  GuardMemo memo(guards);
  for (const JsonView rule : rules.elements()) {
    const std::string_view from = rule.GetString("from");
    const JsonView branches = rule.Get("branches");
    if (from.empty() || !branches.is_array() || branches.empty()) {
      throw ProtocolError(
          "a branching rule needs `from` and a non-empty `branches` array");
    }
    std::vector<std::pair<std::string_view, int>> guarded_targets;
    for (const JsonView branch : branches.elements()) {
      const std::string_view guard = branch.GetString("guard");
      const std::string_view to = branch.GetString("to");
      if (guard.empty() || to.empty()) {
        throw ProtocolError("a branch needs `guard` and `to`");
      }
      guarded_targets.emplace_back(guard, ResolveState(state_ids, to));
    }
    const int from_id = ResolveState(state_ids, from);
    std::vector<Branch> parsed_branches;
    try {
      for (const auto& [guard, to_id] : guarded_targets) {
        const auto compiled = memo.Compile(*system, guard);
        parsed_branches.push_back(
            Branch{compiled->formula, to_id, GuardMemo::Printed(compiled)});
      }
    } catch (const std::exception& e) {
      throw ProtocolError(std::string("bad branching guard: ") + e.what());
    }
    system->AddRule(from_id, std::move(parsed_branches));
  }
  return system;
}

std::shared_ptr<const FraisseClass> MakeClass(std::string_view name,
                                              const SchemaRef& schema) {
  if (name == "all" || name.empty()) {
    return std::make_shared<AllStructuresClass>(schema);
  }
  if (name == "orders") return std::make_shared<LinearOrderClass>();
  if (name == "equiv") return std::make_shared<EquivalenceClass>();
  throw ProtocolError("unknown class \"" + std::string(name) +
                      "\" (known: all, orders, equiv)");
}

std::shared_ptr<const Nfa> MakeNfa(std::string_view name) {
  if (name == "all_ab") return std::make_shared<Nfa>(NfaAllAB());
  if (name == "alternating_ab") {
    return std::make_shared<Nfa>(NfaAlternatingAB());
  }
  if (name == "aplus_bplus") return std::make_shared<Nfa>(NfaAPlusBPlus());
  if (name.substr(0, 3) == "mod") {
    // The counter has p states and is built while the line is parsed; its
    // run class has a schema symbol per state.
    const std::string_view digits = name.substr(3);
    int p = 0;
    const auto [end, ec] =
        std::from_chars(digits.data(), digits.data() + digits.size(), p);
    if (digits.empty() || ec != std::errc() ||
        end != digits.data() + digits.size() || p < 2 ||
        p > kMaxSizeParameter) {
      throw ProtocolError("\"nfa\" mod<p> must have an integer p in [2, " +
                          std::to_string(kMaxSizeParameter) + "]");
    }
    return std::make_shared<Nfa>(NfaModCounter(p));
  }
  throw ProtocolError("unknown nfa \"" + std::string(name) +
                      "\" (known: all_ab, alternating_ab, aplus_bplus, "
                      "mod<p>)");
}

std::shared_ptr<const TreeAutomaton> MakeAutomaton(std::string_view name) {
  if (name == "all_trees") return std::make_shared<TreeAutomaton>(TaAllTrees());
  if (name == "chains") return std::make_shared<TreeAutomaton>(TaChains());
  if (name == "two_level") {
    return std::make_shared<TreeAutomaton>(TaTwoLevel());
  }
  if (name == "comb") return std::make_shared<TreeAutomaton>(TaComb());
  if (name == "alternating_chains") {
    return std::make_shared<TreeAutomaton>(TaAlternatingChains());
  }
  throw ProtocolError("unknown automaton \"" + std::string(name) +
                      "\" (known: all_trees, chains, two_level, comb, "
                      "alternating_chains)");
}

std::shared_ptr<const DdsSystem> MakeZooSystem(std::string_view name) {
  if (name == "odd_red_cycle") {
    return std::make_shared<DdsSystem>(OddRedCycleSystem());
  }
  if (name == "reach_red") return std::make_shared<DdsSystem>(ReachRedSystem());
  if (name == "contradiction") {
    return std::make_shared<DdsSystem>(ContradictionSystem());
  }
  throw ProtocolError("unknown system \"" + std::string(name) +
                      "\" (known: odd_red_cycle, reach_red, contradiction; "
                      "or pass a spec object)");
}

void ParseQuery(JsonView json, ProtocolRequest& out, GuardTable* guards) {
  QueryRequest& query = out.query;

  const std::string_view kind = json.GetString("kind", "system");
  if (kind == "system") {
    query.kind = QueryKind::kSystem;
  } else if (kind == "words" || kind == "word") {
    query.kind = QueryKind::kWord;
  } else if (kind == "trees" || kind == "tree") {
    query.kind = QueryKind::kTree;
  } else if (kind == "branching") {
    query.kind = QueryKind::kBranching;
  } else {
    throw ProtocolError("unknown kind \"" + std::string(kind) +
                        "\" (known: system, words, trees, branching)");
  }

  const std::string_view strategy = json.GetString("strategy", "onthefly");
  if (strategy == "onthefly") {
    query.strategy = SolveStrategy::kOnTheFly;
  } else if (strategy == "eager") {
    query.strategy = SolveStrategy::kEager;
  } else {
    throw ProtocolError("unknown strategy \"" + std::string(strategy) +
                        "\" (known: onthefly, eager)");
  }
  query.build_witness = json.GetBool("build_witness", false);
  query.extra_pattern_cap = SizeParameter(json, "extra_pattern_cap", 4);
  query.atom_cap = static_cast<std::uint32_t>(
      std::max<std::int64_t>(0, json.GetInt("atom_cap", 0)));
  // The client asked for persistence this daemon may not provide:
  // refuse rather than answer from a tier it did not name.
  if (json.Get("store_dir")) {
    throw ProtocolError(
        "\"store_dir\" is not a query field: a daemon's store is attached "
        "once, at startup (amalgamd --store-dir DIR)");
  }
  // The recorder is created here, at parse time, so its epoch covers the
  // whole service-side life of the request (queue wait included).
  if (json.GetBool("trace", false)) {
    query.trace = std::make_shared<TraceRecorder>();
  }

  const JsonView system_field = json.Get("system");
  if (!system_field) throw ProtocolError("a query needs a `system`");

  // Resolve the language first: word/tree schemas are implied by it.
  switch (query.kind) {
    case QueryKind::kWord:
      query.nfa = MakeNfa(json.GetString("nfa"));
      break;
    case QueryKind::kTree:
      query.automaton = MakeAutomaton(json.GetString("automaton"));
      break;
    default:
      break;
  }

  if (system_field.is_string()) {
    const std::string_view name = system_field.string();
    switch (query.kind) {
      case QueryKind::kSystem:
        query.system = MakeZooSystem(name);
        break;
      case QueryKind::kWord: {
        const int rounds = SizeParameter(json, "rounds", 1);
        if (name == "zigzag") {
          query.system = std::make_shared<DdsSystem>(ZigZagSystem(rounds));
        } else if (name == "two_markers") {
          query.system = std::make_shared<DdsSystem>(TwoMarkersSystem());
        } else {
          throw ProtocolError("unknown word system \"" + std::string(name) +
                              "\" (known: zigzag, two_markers; or a spec)");
        }
        break;
      }
      case QueryKind::kTree: {
        const int steps = SizeParameter(json, "steps", 1);
        if (name == "descend") {
          query.system = std::make_shared<DdsSystem>(
              DescendSystem(*query.automaton, steps));
        } else if (name == "find_b_below") {
          query.system = std::make_shared<DdsSystem>(
              FindBBelowSystem(*query.automaton));
        } else {
          throw ProtocolError("unknown tree system \"" + std::string(name) +
                              "\" (known: descend, find_b_below; or a spec)");
        }
        break;
      }
      case QueryKind::kBranching:
        throw ProtocolError(
            "branching systems have no zoo names; pass a spec object");
    }
  } else if (system_field.is_object()) {
    SchemaRef schema;
    switch (query.kind) {
      case QueryKind::kSystem:
      case QueryKind::kBranching: {
        const JsonView schema_spec = json.Get("schema");
        schema = schema_spec ? ParseSchemaSpec(schema_spec) : GraphZooSchema();
        break;
      }
      case QueryKind::kWord:
        schema = MakeWordSchema(query.nfa->alphabet());
        break;
      case QueryKind::kTree:
        schema = MakeTreeSchema(query.automaton->labels());
        break;
    }
    if (query.kind == QueryKind::kBranching) {
      query.branching =
          ParseBranchingSpec(system_field, std::move(schema), guards);
    } else {
      query.system = ParseSystemSpec(system_field, std::move(schema), guards);
    }
  } else {
    throw ProtocolError("`system` must be a zoo name or a spec object");
  }

  // The backend class: the word/tree front doors build their run-pattern
  // classes internally from the language.
  if (query.kind == QueryKind::kSystem || query.kind == QueryKind::kBranching) {
    const SchemaRef& schema = query.kind == QueryKind::kBranching
                                  ? query.branching->skeleton().schema_ref()
                                  : query.system->schema_ref();
    query.cls = MakeClass(json.GetString("class", "all"), schema);
  }
}

std::string ResponseHead(const ProtocolRequest& request) {
  std::string out = "{";
  if (!request.id_json.empty()) {
    out += "\"id\":" + request.id_json + ",";
  }
  return out;
}

void AppendField(std::string& out, const char* name, std::uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%llu",
                static_cast<unsigned long long>(value));
  out += "\"";
  out += name;
  out += "\":";
  out += buf;
  out += ",";
}

void AppendField(std::string& out, const char* name, double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", value);
  out += "\"";
  out += name;
  out += "\":";
  out += buf;
  out += ",";
}

void AppendField(std::string& out, const char* name, bool value) {
  out += "\"";
  out += name;
  out += "\":";
  out += value ? "true" : "false";
  out += ",";
}

// The string overloads exist so a literal never silently binds to the
// bool overload via pointer->bool conversion.
void AppendField(std::string& out, const char* name, const std::string& value) {
  out += "\"";
  out += name;
  out += "\":\"";
  out += JsonEscape(value);
  out += "\",";
}

void AppendField(std::string& out, const char* name, const char* value) {
  AppendField(out, name, std::string(value));
}

std::string CloseObject(std::string out) {
  if (out.back() == ',') out.pop_back();
  return out + "}";
}

}  // namespace

ProtocolRequest ParseRequestLine(std::string_view line) {
  return ParseRequestLine(line, &GuardTable::Shared());
}

ProtocolRequest ParseRequestLine(std::string_view line, GuardTable* guards) {
  ProtocolRequest request;
  const JsonDocument doc = ParseJson(line);
  const JsonView json = doc.root();
  if (!json.is_object()) {
    request.error = "malformed request: not a JSON object";
    return request;
  }
  if (const JsonView id = json.Get("id")) request.id_json = JsonToString(id);
  try {
    const std::string_view op = json.GetString("op", "query");
    if (op == "query") {
      request.op = ProtocolRequest::Op::kQuery;
      ParseQuery(json, request, guards);
    } else if (op == "stats") {
      request.op = ProtocolRequest::Op::kStats;
    } else if (op == "sweep") {
      request.op = ProtocolRequest::Op::kSweep;
      // Negative caps would wrap to huge "unlimited" values; clamp to 0.
      request.max_bytes = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, json.GetInt("max_bytes", 0)));
      request.max_files = static_cast<std::uint64_t>(
          std::max<std::int64_t>(0, json.GetInt("max_files", 0)));
    } else if (op == "maintain") {
      request.op = ProtocolRequest::Op::kMaintain;
    } else if (op == "metrics") {
      request.op = ProtocolRequest::Op::kMetrics;
    } else if (op == "recent") {
      request.op = ProtocolRequest::Op::kRecent;
    } else if (op == "drain") {
      request.op = ProtocolRequest::Op::kDrain;
    } else if (op == "shutdown") {
      request.op = ProtocolRequest::Op::kShutdown;
    } else {
      throw ProtocolError(
          "unknown op \"" + std::string(op) +
          "\" (known: query, stats, sweep, maintain, metrics, recent, "
          "drain, shutdown)");
    }
  } catch (const std::exception& e) {
    request.error = e.what();
  }
  return request;
}

std::string FormatQueryResponse(const ProtocolRequest& request,
                                const QueryResult& result) {
  if (!result.ok) {
    return FormatErrorResponse(request, result.error, result.error_code);
  }
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  AppendField(out, "nonempty", result.nonempty);
  AppendField(out, "members", result.stats.members_enumerated);
  AppendField(out, "members_generated", result.stats.members_generated);
  AppendField(out, "edges", result.stats.edges);
  AppendField(out, "configs", result.stats.configs);
  AppendField(out, "from_cache", result.stats.graph_from_cache);
  AppendField(out, "resumed", result.stats.graph_resumed);
  AppendField(out, "coalesced", result.coalesced);
  AppendField(out, "latency_ms", result.latency_ms);
  if (result.trace != nullptr && result.trace->span_count() > 0) {
    // The span forest, nested; ToJson emits a JSON array of root spans.
    out += "\"trace\":" + result.trace->ToJson() + ",";
  }
  return CloseObject(std::move(out));
}

std::string FormatStatsResponse(const ProtocolRequest& request,
                                const ServiceStats& stats) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"stats\",";
  // Every counter the struct declares, in declaration order — generated
  // from the same field list as the struct itself and the Prometheus
  // export, so the three surfaces can never drift apart.
#define AMALGAM_APPEND_STAT_FIELD(field, kind, help) \
  AppendField(out, #field, stats.field);
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_APPEND_STAT_FIELD)
#undef AMALGAM_APPEND_STAT_FIELD
  AppendField(out, "p50_latency_ms", stats.p50_latency_ms);
  AppendField(out, "p95_latency_ms", stats.p95_latency_ms);
  AppendField(out, "p99_latency_ms", stats.p99_latency_ms);
  AppendField(out, "build_type", AmalgamBuildType());
  AppendField(out, "version", AmalgamVersion());
  return CloseObject(std::move(out));
}

std::string FormatMetricsResponse(const ProtocolRequest& request,
                                  const std::string& body) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"metrics\",";
  AppendField(out, "content_type",
              "text/plain; version=0.0.4; charset=utf-8");
  AppendField(out, "body", body);
  return CloseObject(std::move(out));
}

std::string FormatRecentResponse(const ProtocolRequest& request,
                                 const std::vector<RecentQuery>& entries) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"recent\",";
  AppendField(out, "count", static_cast<std::uint64_t>(entries.size()));
  out += "\"queries\":[";
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const RecentQuery& entry = entries[i];
    if (i > 0) out += ",";
    std::string item = "{";
    AppendField(item, "seq", entry.seq);
    AppendField(item, "key", entry.key);
    AppendField(item, "kind", entry.kind);
    AppendField(item, "ok", entry.ok);
    AppendField(item, "nonempty", entry.nonempty);
    AppendField(item, "coalesced", entry.coalesced);
    AppendField(item, "from_cache", entry.from_cache);
    AppendField(item, "resumed", entry.resumed);
    AppendField(item, "traced", entry.traced);
    AppendField(item, "latency_ms", entry.latency_ms);
    if (!entry.span_rollup.empty()) {
      item += "\"spans\":{";
      for (std::size_t j = 0; j < entry.span_rollup.size(); ++j) {
        if (j > 0) item += ",";
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.3f", entry.span_rollup[j].second);
        item += "\"" + JsonEscape(entry.span_rollup[j].first) + "\":" + buf;
      }
      item += "},";
    }
    out += CloseObject(std::move(item));
  }
  out += "],";
  return CloseObject(std::move(out));
}

void ExportServiceStats(const ServiceStats& stats, MetricsRegistry& registry) {
  // Mechanical: one registry scalar per struct field, same name prefix as
  // the stats op's JSON member. The kind token pastes onto MetricKind::k.
#define AMALGAM_EXPORT_STAT_FIELD(field, kind, help)        \
  registry.SetScalar(MetricKind::k##kind, "amalgam_" #field, \
                     help, static_cast<double>(stats.field));
  AMALGAM_SERVICE_STATS_FIELDS(AMALGAM_EXPORT_STAT_FIELD)
#undef AMALGAM_EXPORT_STAT_FIELD
  registry.SetLabeledGauge(
      "amalgam_build_info", "Build metadata; the value is always 1",
      std::string("build_type=\"") + AmalgamBuildType() + "\",version=\"" +
          AmalgamVersion() + "\"",
      1.0);
}

std::string FormatSweepResponse(const ProtocolRequest& request,
                                const StoreSweepResult& result) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"sweep\",";
  AppendField(out, "files_removed", result.files_removed);
  AppendField(out, "bytes_removed", result.bytes_removed);
  AppendField(out, "files_kept", result.files_kept);
  AppendField(out, "bytes_kept", result.bytes_kept);
  return CloseObject(std::move(out));
}

std::string FormatMaintainResponse(const ProtocolRequest& request,
                                   const MaintenancePassResult& pass,
                                   const MaintenanceStats& stats) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"maintain\",";
  // This pass's work, then the loop's lifetime counters.
  AppendField(out, "partials_completed", pass.partials_completed);
  AppendField(out, "repacks", pass.repacks);
  AppendField(out, "sweep_files_removed", pass.sweep_files_removed);
  AppendField(out, "total_passes", stats.passes);
  AppendField(out, "total_partials_completed", stats.partials_completed);
  AppendField(out, "total_prewarm_loads", stats.prewarm_loads);
  AppendField(out, "total_repacks", stats.repacks);
  return CloseObject(std::move(out));
}

namespace {

std::string FormatOpAck(const ProtocolRequest& request, const char* op,
                        const ServiceStats& stats) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", true);
  out += "\"op\":\"";
  out += op;
  out += "\",";
  AppendField(out, "queries", stats.queries);
  return CloseObject(std::move(out));
}

}  // namespace

std::string FormatDrainResponse(const ProtocolRequest& request,
                                const ServiceStats& stats) {
  return FormatOpAck(request, "drain", stats);
}

std::string FormatShutdownResponse(const ProtocolRequest& request,
                                   const ServiceStats& stats) {
  return FormatOpAck(request, "shutdown", stats);
}

std::string FormatErrorResponse(const ProtocolRequest& request,
                                const std::string& error,
                                const std::string& code) {
  std::string out = ResponseHead(request);
  AppendField(out, "ok", false);
  out += "\"error\":\"" + JsonEscape(error) + "\",";
  if (!code.empty()) {
    out += "\"error_code\":\"" + JsonEscape(code) + "\",";
  }
  return CloseObject(std::move(out));
}

}  // namespace amalgam
