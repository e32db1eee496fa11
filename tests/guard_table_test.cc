// The daemon-wide guard table (system/guard_table.h). A request line parsed
// through the table must get the graph key and the verdict the same line
// gets when every guard is parsed afresh, on every example line of the
// operator docs and every line the benchmark's generators produce; the
// same guard text must not collide across register lists, schemas or
// classes; guards with `exists`, bad guards and oversized guards are never
// kept; the byte budget holds; and four threads can share one table.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/protocol.h"
#include "service/service.h"
#include "solver/branching.h"
#include "system/guard_table.h"

namespace amalgam {
namespace {

// Every line of every ```jsonl block in a doc.
std::vector<std::string> DocExampleLines(const std::string& doc) {
  std::ifstream in(std::string(AMALGAM_SOURCE_DIR) + "/docs/" + doc);
  EXPECT_TRUE(in.good()) << doc;
  std::vector<std::string> lines;
  bool inside = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("```", 0) == 0) {
      inside = !inside && line == "```jsonl";
      continue;
    }
    if (inside && !line.empty()) lines.push_back(line);
  }
  EXPECT_FALSE(lines.empty()) << doc;
  return lines;
}

// Every line a perfbench generator produces at full size: warm-up,
// fixture and timed lines, in that order.
std::vector<std::string> GeneratorLines(const std::string& workload,
                                        int seed) {
  const std::string command =
      "python3 -c \"import sys; sys.path.insert(0, '" AMALGAM_SOURCE_DIR
      "/perfbench'); import workloads; w = workloads.GENERATORS['" +
      workload + "'](" + std::to_string(seed) +
      ", 'full'); print('\\n'.join(w.warm + w.fixture + w.timed))\"";
  std::vector<std::string> lines;
  FILE* pipe = ::popen(command.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << command;
  if (pipe == nullptr) return lines;
  std::string line;
  for (int c = std::fgetc(pipe); c != EOF; c = std::fgetc(pipe)) {
    if (c != '\n') {
      line.push_back(static_cast<char>(c));
    } else if (!line.empty()) {
      lines.push_back(std::move(line));
      line.clear();
    }
  }
  EXPECT_EQ(::pclose(pipe), 0) << command;
  EXPECT_FALSE(lines.empty()) << workload << " seed " << seed;
  return lines;
}

std::vector<std::string> EveryExampleLine() {
  std::vector<std::string> lines = DocExampleLines("OPERATIONS.md");
  for (const std::string& line : DocExampleLines("OBSERVABILITY.md")) {
    lines.push_back(line);
  }
  for (const char* workload : {"hot_replay", "cold_build", "store_churn"}) {
    for (int seed : {1, 7}) {
      for (std::string& line : GeneratorLines(workload, seed)) {
        lines.push_back(std::move(line));
      }
    }
  }
  return lines;
}

bool IsQuery(const ProtocolRequest& request) {
  return request.error.empty() && request.op == ProtocolRequest::Op::kQuery;
}

// Every rule (and branch) carries a printed form: its guard printed under
// the system's schema.
void ExpectPrintedFormsMatch(const ProtocolRequest& request) {
  if (const DdsSystem* system = request.query.system.get()) {
    for (const TransitionRule& rule : system->rules()) {
      ASSERT_NE(rule.printed, nullptr);
      EXPECT_EQ(*rule.printed, rule.guard->ToString(system->schema()));
    }
  }
  if (const BranchingSystem* branching = request.query.branching.get()) {
    for (const BranchingRule& rule : branching->rules()) {
      for (const Branch& branch : rule.branches) {
        ASSERT_NE(branch.printed, nullptr);
        EXPECT_EQ(*branch.printed,
                  branch.guard->ToString(branching->skeleton().schema()));
      }
    }
  }
}

TEST(GuardTableTest, KeysAndVerdictsMatchAFreshParse) {
  const std::vector<std::string> lines = EveryExampleLine();
  GuardTable table;
  // Separate services: a graph cached by one parse never answers the
  // other's query, so each verdict comes from its own build.
  QueryService fresh_service;
  QueryService table_service;
  std::vector<std::future<QueryResult>> fresh_results;
  std::vector<std::future<QueryResult>> table_results;
  std::vector<std::size_t> query_lines;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    SCOPED_TRACE(lines[i]);
    const ProtocolRequest fresh = ParseRequestLine(lines[i], nullptr);
    const ProtocolRequest served = ParseRequestLine(lines[i], &table);
    ASSERT_EQ(served.error, fresh.error);
    ASSERT_EQ(served.op, fresh.op);
    if (!IsQuery(fresh)) continue;
    ExpectPrintedFormsMatch(fresh);
    ExpectPrintedFormsMatch(served);
    ASSERT_EQ(table_service.GraphKeyFor(served.query),
              fresh_service.GraphKeyFor(fresh.query));
    fresh_results.push_back(fresh_service.Submit(fresh.query));
    table_results.push_back(table_service.Submit(served.query));
    query_lines.push_back(i);
  }
  ASSERT_GT(query_lines.size(), 4000u);
  for (std::size_t q = 0; q < query_lines.size(); ++q) {
    SCOPED_TRACE(lines[query_lines[q]]);
    const QueryResult fresh = fresh_results[q].get();
    const QueryResult served = table_results[q].get();
    EXPECT_EQ(served.ok, fresh.ok);
    EXPECT_EQ(served.error, fresh.error);
    EXPECT_EQ(served.nonempty, fresh.nonempty);
    EXPECT_EQ(served.stats.edges, fresh.stats.edges);
  }
  // The generators repeat guard texts line after line: most lookups hit.
  EXPECT_GT(table.hits(), 10 * table.misses());
  EXPECT_LE(table.bytes(), GuardTable::kBudgetBytes);
}

// One-rule spec line over `registers` and `schema`, in class `cls`.
std::string OneRuleLine(const std::string& registers,
                        const std::string& schema, const std::string& cls,
                        const std::string& guard) {
  return R"({"kind":"system","strategy":"eager","class":")" + cls +
         R"(","schema":)" + schema + R"(,"system":{"registers":)" +
         registers +
         R"(,"states":[{"name":"a","initial":true},{"name":"b",)"
         R"("accepting":true}],"rules":[{"from":"a","to":"b","guard":")" +
         guard + R"("},{"from":"b","to":"b","guard":")" + guard + R"("}]}})";
}

TEST(GuardTableTest, SameTextUnderAnotherScopeDoesNotCollide) {
  const std::string guard = "E(x_old, x_new) & red(x_new)";
  const std::string er = R"({"relations":[["E",2],["red",1]]})";
  const std::string re = R"({"relations":[["red",1],["E",2]]})";
  const std::vector<std::string> lines = {
      OneRuleLine(R"(["x"])", er, "all", guard),
      // x is register 1: x_old is another variable.
      OneRuleLine(R"(["y","x"])", er, "all", guard),
      // E and red swap relation ids.
      OneRuleLine(R"(["x"])", re, "all", guard),
      // Another register name in the same position.
      OneRuleLine(R"(["x","y"])", er, "all", guard),
  };
  GuardTable table;
  QueryService service;
  std::vector<std::string> keys;
  std::vector<const Formula*> formulas;
  for (int round = 0; round < 2; ++round) {
    for (const std::string& line : lines) {
      SCOPED_TRACE(line);
      const ProtocolRequest fresh = ParseRequestLine(line, nullptr);
      const ProtocolRequest served = ParseRequestLine(line, &table);
      ASSERT_TRUE(IsQuery(fresh)) << fresh.error;
      ASSERT_TRUE(IsQuery(served)) << served.error;
      const std::string key = service.GraphKeyFor(served.query);
      EXPECT_EQ(key, service.GraphKeyFor(fresh.query));
      EXPECT_EQ(served.query.system->rules()[0].guard->ToString(
                    served.query.system->schema()),
                fresh.query.system->rules()[0].guard->ToString(
                    fresh.query.system->schema()));
      EXPECT_EQ(service.Submit(served.query).get().nonempty,
                service.Submit(fresh.query).get().nonempty);
      if (round == 0) {
        keys.push_back(key);
        formulas.push_back(served.query.system->rules()[0].guard.get());
      }
    }
  }
  // Four scopes, four entries, hit on the second round only.
  EXPECT_EQ(table.size(), lines.size());
  EXPECT_EQ(table.misses(), lines.size());
  EXPECT_EQ(table.hits(), lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    for (std::size_t j = i + 1; j < lines.size(); ++j) {
      EXPECT_NE(keys[i], keys[j]) << i << " vs " << j;
      EXPECT_NE(formulas[i], formulas[j]) << i << " vs " << j;
    }
  }

  // One scope under two classes shares the parsed guard, but the class
  // keeps the graph keys apart.
  const std::string lt = R"({"relations":[["lt",2]]})";
  const ProtocolRequest all = ParseRequestLine(
      OneRuleLine(R"(["x"])", lt, "all", "lt(x_old, x_new)"), &table);
  const ProtocolRequest orders = ParseRequestLine(
      OneRuleLine(R"(["x"])", lt, "orders", "lt(x_old, x_new)"), &table);
  ASSERT_TRUE(IsQuery(all) && IsQuery(orders));
  EXPECT_EQ(all.query.system->rules()[0].guard,
            orders.query.system->rules()[0].guard);
  EXPECT_NE(service.GraphKeyFor(all.query), service.GraphKeyFor(orders.query));
  EXPECT_EQ(service.GraphKeyFor(orders.query),
            service.GraphKeyFor(
                ParseRequestLine(OneRuleLine(R"(["x"])", lt, "orders",
                                             "lt(x_old, x_new)"),
                                 nullptr)
                    .query));
  service.Shutdown();
}

TEST(GuardTableTest, GuardsWithExistsAreNeverServedFromTheTable) {
  // The parser numbers a bound variable by the system's variable-table
  // size, so the same text parses differently after another `exists`.
  const std::string er = R"({"relations":[["E",2],["red",1]]})";
  const std::string second = "exists z: (E(x_old, z) & red(z))";
  auto line = [&](const std::vector<std::string>& guards) {
    std::string rules;
    for (const std::string& guard : guards) {
      if (!rules.empty()) rules += ",";
      rules += R"({"from":"a","to":"b","guard":")" + guard + R"("})";
    }
    return R"({"kind":"system","class":"all","schema":)" + er +
           R"(,"system":{"registers":["x"],"states":[{"name":"a",)"
           R"("initial":true},{"name":"b","accepting":true}],"rules":[)" +
           rules + "]}}";
  };
  const std::vector<std::string> lines = {
      line({second}),
      line({"exists y: E(y, x_new)", second}),
      line({"E(x_old, x_new)", second, "exists w: red(w)"}),
      line({second}),
  };
  GuardTable table;
  QueryService service;
  // Held, not just their addresses: a freed formula's address can be
  // handed to the next parse's.
  std::vector<FormulaRef> seen;
  for (const std::string& text : lines) {
    SCOPED_TRACE(text);
    const ProtocolRequest fresh = ParseRequestLine(text, nullptr);
    const ProtocolRequest served = ParseRequestLine(text, &table);
    ASSERT_TRUE(IsQuery(fresh)) << fresh.error;
    ASSERT_TRUE(IsQuery(served)) << served.error;
    ExpectPrintedFormsMatch(fresh);
    ExpectPrintedFormsMatch(served);
    const DdsSystem& system = *served.query.system;
    ASSERT_EQ(system.rules().size(), fresh.query.system->rules().size());
    for (std::size_t r = 0; r < system.rules().size(); ++r) {
      const TransitionRule& rule = system.rules()[r];
      EXPECT_EQ(rule.guard->ToString(system.schema()),
                fresh.query.system->rules()[r].guard->ToString(
                    fresh.query.system->schema()));
      if (!rule.guard->IsQuantifierFree()) {
        for (const FormulaRef& earlier : seen) {
          EXPECT_NE(rule.guard.get(), earlier.get());
        }
        seen.push_back(rule.guard);
      }
    }
    EXPECT_EQ(service.GraphKeyFor(served.query),
              service.GraphKeyFor(fresh.query));
  }
  // The one quantifier-free guard is the only entry.
  EXPECT_EQ(table.size(), 1u);
  // `second` parses with its bound variable at 2 alone, at 3 after another
  // binder: the reason it is never shared.
  const ProtocolRequest alone = ParseRequestLine(lines[0], &table);
  const ProtocolRequest after = ParseRequestLine(lines[1], &table);
  EXPECT_EQ(alone.query.system->rules()[0].guard->ToString(
                alone.query.system->schema()),
            "exists v2: ((E(v0, v2) & red(v2)))");
  EXPECT_EQ(after.query.system->rules()[1].guard->ToString(
                after.query.system->schema()),
            "exists v3: ((E(v0, v3) & red(v3)))");
  service.Shutdown();
}

TEST(GuardTableTest, BadGuardsAreNotKeptAndKeepTheirErrorText) {
  const std::string er = R"({"relations":[["E",2],["red",1]]})";
  GuardTable table;
  const std::string good = OneRuleLine(R"(["x"])", er, "all", "red(x_new)");
  ASSERT_TRUE(IsQuery(ParseRequestLine(good, &table)));
  ASSERT_EQ(table.size(), 1u);
  for (const char* bad : {"E(x_old", "blue(x_old)", "E(x_old, x_new, x_old)",
                          "x_old = ", "red(q_new)", "exists z: E(z"}) {
    SCOPED_TRACE(bad);
    const std::string text = OneRuleLine(R"(["x"])", er, "all", bad);
    const ProtocolRequest fresh = ParseRequestLine(text, nullptr);
    ASSERT_FALSE(fresh.error.empty());
    EXPECT_NE(fresh.error.find("bad guard"), std::string::npos) << fresh.error;
    for (int round = 0; round < 2; ++round) {
      EXPECT_EQ(ParseRequestLine(text, &table).error, fresh.error);
    }
    EXPECT_EQ(table.size(), 1u);
  }
}

TEST(GuardTableTest, ByteBudgetHoldsUnderTenThousandDistinctTexts) {
  DdsSystem system(MakeSchema([] {
    Schema schema;
    schema.AddRelation("red", 1);
    schema.AddRelation("E", 2);
    return schema;
  }()));
  system.AddRegister("x");
  system.AddRegister("y");
  const std::string scope = GuardTable::Scope(system);
  const GuardTable::Parse parse = [&system](const std::string& text) {
    return system.ParseGuard(text);
  };
  // Text i is a conjunction chosen by the bits of i: 10,000 distinct
  // guards of workload size.
  const char* kAtoms[] = {"red(x_old)", "red(x_new)", "red(y_old)",
                          "red(y_new)", "E(x_old, y_old)", "E(x_new, y_new)",
                          "E(x_old, x_new)", "E(y_old, y_new)", "x_old = y_new",
                          "y_old = x_new", "x_old != x_new", "y_old != y_new",
                          "E(y_new, x_old)", "E(x_new, y_old)"};
  auto text_of = [&](int i) {
    std::string text = "true";
    for (int bit = 0; bit < 14; ++bit) {
      if ((i >> bit) & 1) text += std::string(" & ") + kAtoms[bit];
    }
    return text;
  };
  GuardTable table;
  std::size_t peak = 0;
  for (int i = 0; i < 10000; ++i) {
    const auto guard = table.Compile(scope, text_of(i), system.schema(), parse);
    ASSERT_NE(guard->formula, nullptr);
    ASSERT_EQ(guard->printed, guard->formula->ToString(system.schema()));
    peak = std::max(peak, table.bytes());
    ASSERT_LE(table.bytes(), GuardTable::kBudgetBytes) << "after text " << i;
  }
  EXPECT_GT(peak, GuardTable::kBudgetBytes / 2) << "the budget was reached";
  EXPECT_LT(table.size(), 10000u) << "least recently used entries left";
  EXPECT_GT(table.size(), 0u);
  // The most recent text is still kept; the first was evicted.
  const std::uint64_t hits = table.hits();
  table.Compile(scope, text_of(9999), system.schema(), parse);
  EXPECT_EQ(table.hits(), hits + 1);
  table.Compile(scope, text_of(0), system.schema(), parse);
  EXPECT_EQ(table.hits(), hits + 1);

  // A guard larger than a sixteenth of the budget is parsed, not kept.
  std::string huge = "red(x_old)";
  while (huge.size() < GuardTable::kBudgetBytes / 16) huge += " & red(x_new)";
  const std::size_t size = table.size();
  const auto kept = table.Compile(scope, huge, system.schema(), parse);
  EXPECT_EQ(kept->printed, kept->formula->ToString(system.schema()));
  EXPECT_EQ(table.size(), size);
  EXPECT_LE(table.bytes(), GuardTable::kBudgetBytes);
}

TEST(GuardTableTest, FourThreadsShareOneTable) {
  std::vector<std::string> lines = GeneratorLines("hot_replay", 1);
  for (std::string& line : GeneratorLines("cold_build", 7)) {
    lines.push_back(std::move(line));
  }
  QueryService service(QueryService::Options{.num_workers = 1});
  std::vector<std::string> expected(lines.size());
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const ProtocolRequest fresh = ParseRequestLine(lines[i], nullptr);
    ASSERT_TRUE(IsQuery(fresh)) << fresh.error;
    expected[i] = service.GraphKeyFor(fresh.query);
  }
  // The default budget, and one small enough that the threads evict what
  // the others are reading.
  for (const std::size_t budget :
       {GuardTable::kBudgetBytes, std::size_t{16} << 10}) {
    SCOPED_TRACE(budget);
    GuardTable table(budget);
    std::atomic<int> mismatches{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
      threads.emplace_back([&, t] {
        // Each thread walks the lines from its own offset.
        for (std::size_t n = 0; n < lines.size(); ++n) {
          const std::size_t i = (n + t * lines.size() / 4) % lines.size();
          const ProtocolRequest served = ParseRequestLine(lines[i], &table);
          if (!IsQuery(served) ||
              service.GraphKeyFor(served.query) != expected[i]) {
            mismatches.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& thread : threads) thread.join();
    EXPECT_EQ(mismatches.load(), 0);
    EXPECT_LE(table.bytes(), budget);
    EXPECT_GT(table.hits(), 0u);
  }
  service.Shutdown();
}

}  // namespace
}  // namespace amalgam
