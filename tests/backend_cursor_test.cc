// Conformance tests for the positioned enumeration cursor.
//
// The SolverBackend contract says the positioned entry point
// (EnumerateGeneratedFrom) must reproduce the EnumerateGeneratedUntil
// stream exactly — same structures, same marks, same positions — whether
// a backend uses the prefix-skipping default adapter or overrides it with
// a native cursor into its member space. These tests pin that contract for
// every backend in the zoo, so a native cursor that drifts from the
// reference stream (wrong unranking, wrong successor step) fails here
// rather than as a miscached graph three layers up.
//
// Also covered: the structured EnumerationCapError surfaced through engine
// options and the query service, and the members_generated acceptance
// property — a store-resumed relational build materializes only the stream
// suffix.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "service/protocol.h"
#include "service/service.h"
#include "solver/emptiness.h"
#include "solver/graph.h"
#include "solver/member_table.h"
#include "solver/store.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

struct Member {
  Structure s;
  std::vector<Elem> marks;
};

std::vector<Member> ReferenceStream(const SolverBackend& backend, int m) {
  std::vector<Member> out;
  backend.EnumerateGeneratedUntil(
      m, [&](const Structure& s, std::span<const Elem> marks) {
        out.push_back({s, std::vector<Elem>(marks.begin(), marks.end())});
        return true;
      });
  return out;
}

bool SameMember(const Member& a, const Structure& s,
                std::span<const Elem> marks) {
  return a.s == s &&
         a.marks == std::vector<Elem>(marks.begin(), marks.end());
}

struct NamedBackend {
  std::string name;
  std::shared_ptr<const SolverBackend> backend;
  std::vector<int> ms;
  /// EnumerateGeneratedFrom materializes only the requested suffix (a
  /// native cursor); false for the default adapter, which regenerates the
  /// whole stream to skip the prefix.
  bool seeks;
};

const TreeAutomaton* TwoLevelAutomaton() {
  static const TreeAutomaton automaton = TaTwoLevel();
  return &automaton;
}

// One backend per cursor implementation: the three relational native
// cursors (grid, factorial, Bell), the word/tree positioned walks, and a
// default-adapter backend (LiftedHomClass) to pin the adapter too.
std::vector<NamedBackend> AllBackends() {
  std::vector<NamedBackend> out;
  out.push_back({"all_graph",
                 std::make_shared<AllStructuresClass>(GraphZooSchema()),
                 {0, 1, 2},
                 true});
  Schema unary;
  unary.AddRelation("p", 1);
  out.push_back({"all_unary",
                 std::make_shared<AllStructuresClass>(
                     MakeSchema(std::move(unary))),
                 {1, 2, 3},
                 true});
  out.push_back(
      {"orders", std::make_shared<LinearOrderClass>(), {1, 2, 3}, true});
  out.push_back(
      {"equiv", std::make_shared<EquivalenceClass>(), {1, 2, 3}, true});
  out.push_back({"word_runs",
                 std::make_shared<WordRunClass>(NfaAPlusBPlus()),
                 {1, 2},
                 true});
  out.push_back({"tree_runs",
                 std::make_shared<TreeRunClass>(TwoLevelAutomaton(), 3),
                 {1, 2},
                 true});
  out.push_back({"hom_lift",
                 std::make_shared<LiftedHomClass>(Example2Template()),
                 {1, 2},
                 false});
  return out;
}

std::vector<FormulaRef> GuardsOf(const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return guards;
}

TEST(CursorConformanceTest, FromReproducesEveryReferenceSuffix) {
  for (const NamedBackend& nb : AllBackends()) {
    for (int m : nb.ms) {
      const std::vector<Member> ref = ReferenceStream(*nb.backend, m);
      const std::uint64_t total = ref.size();
      std::set<std::uint64_t> starts = {0, 1, total / 2, total, total + 5};
      if (total > 0) starts.insert(total - 1);
      for (std::uint64_t start : starts) {
        std::uint64_t generated = 0;
        std::uint64_t expect_next = start;
        nb.backend->EnumerateGeneratedFrom(
            m, start,
            [&](const Structure& s, std::span<const Elem> marks,
                std::uint64_t pos) {
              EXPECT_EQ(pos, expect_next) << nb.name << " m=" << m;
              ++expect_next;
              EXPECT_LT(pos, total);
              EXPECT_TRUE(SameMember(ref[pos], s, marks))
                  << nb.name << " m=" << m << " diverges at position " << pos;
              return true;
            },
            EnumControl{&generated, 0});
        const std::uint64_t suffix = total - std::min(start, total);
        EXPECT_EQ(expect_next - start, suffix) << nb.name << " m=" << m;
        // Native cursors materialize only the suffix; the adapter
        // regenerates the whole stream to skip the prefix.
        EXPECT_EQ(generated, nb.seeks ? suffix : total)
            << nb.name << " m=" << m << " start=" << start;
      }
    }
  }
}

TEST(CursorConformanceTest, AtomCapThrowsStructuredError) {
  AllStructuresClass cls(GraphZooSchema());
  // m=2, d=2: 4 E-bits + 2 red-bits = 6 atoms > cap 3.
  try {
    cls.EnumerateGeneratedFrom(
        2, 0,
        [](const Structure&, std::span<const Elem>, std::uint64_t) {
          return true;
        },
        EnumControl{nullptr, 3});
    FAIL() << "expected EnumerationCapError";
  } catch (const EnumerationCapError& e) {
    EXPECT_EQ(e.atoms(), 6u);
    EXPECT_EQ(e.cap(), 3u);
    EXPECT_STREQ(EnumerationCapError::kCode, "enumeration_cap");
    EXPECT_NE(std::string(e.what()).find("raise atom_cap"),
              std::string::npos);
  }
}

TEST(CursorConformanceTest, EngineSurfacesTheCapThroughSolveOptions) {
  DdsSystem system = ReachRedSystem();
  AllStructuresClass cls(GraphZooSchema());
  SolveOptions capped;
  capped.build_witness = false;
  capped.relational_atom_cap = 1;
  EXPECT_THROW(SolveEmptiness(system, cls, capped), EnumerationCapError);
  // The cap truncates nothing when respected: a raised cap reaches the
  // same verdict as the default.
  SolveOptions raised;
  raised.build_witness = false;
  raised.relational_atom_cap = 32;
  EXPECT_TRUE(SolveEmptiness(system, cls, raised).nonempty);
}

// Every sweep reads the one positioned stream, which checks each of its
// row sizes before building a member. So a query whose 2k stream has rows
// over the cap fails in every mode, even when its goal sits in the first
// row: the on-the-fly sweep has no cheaper way round the wide rows.
TEST(CursorConformanceTest, EveryModeFailsWhenTheJointStreamExceedsTheCap) {
  DdsSystem system(GraphZooSchema());
  system.AddRegister("x");
  system.AddRegister("y");
  const int s = system.AddState("s", true);
  const int t = system.AddState("t", false, true);
  system.AddRule(s, t, "x_old = x_new");
  AllStructuresClass cls(GraphZooSchema());
  // E is binary and red unary: d^2 + d atoms. The k = 2 marks span at most
  // 6 atoms, the 2k = 4 marks up to 20.
  for (SolveStrategy strategy :
       {SolveStrategy::kEager, SolveStrategy::kOnTheFly}) {
    for (bool cached : {false, true}) {
      SCOPED_TRACE(testing::Message()
                   << "eager=" << (strategy == SolveStrategy::kEager)
                   << " cached=" << cached);
      GraphCache cache;
      SolveOptions options;
      options.build_witness = false;
      options.strategy = strategy;
      options.cache = cached ? &cache : nullptr;
      options.relational_atom_cap = 12;
      try {
        SolveEmptiness(system, cls, options);
        ADD_FAILURE() << "expected EnumerationCapError";
      } catch (const EnumerationCapError& e) {
        EXPECT_EQ(e.atoms(), 20u);
        EXPECT_EQ(e.cap(), 12u);
      }
    }
  }
  SolveOptions raised;
  raised.build_witness = false;
  raised.relational_atom_cap = 20;
  EXPECT_TRUE(SolveEmptiness(system, cls, raised).nonempty);
}

TEST(CursorConformanceTest, ServiceDeliversTheCapErrorInBand) {
  QueryService::Options options;
  options.num_workers = 1;
  QueryService service(options);
  QueryRequest request;
  request.kind = QueryKind::kSystem;
  request.system = std::make_shared<DdsSystem>(ReachRedSystem());
  request.cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  request.atom_cap = 1;
  const QueryResult result = service.Submit(std::move(request)).get();
  EXPECT_FALSE(result.ok);
  EXPECT_EQ(result.error_code, EnumerationCapError::kCode);
  EXPECT_NE(result.error.find("exceeds the cap"), std::string::npos);
  // ... and amalgamd's JSONL rendering keeps it machine-readable.
  ProtocolRequest protocol_request;
  protocol_request.id_json = "7";
  const std::string line = FormatQueryResponse(protocol_request, result);
  EXPECT_NE(line.find("\"error_code\":\"enumeration_cap\""),
            std::string::npos)
      << line;
  EXPECT_NE(line.find("\"ok\":false"), std::string::npos) << line;
}

TEST(CursorConformanceTest, WarmMemberTablesKeepTheAtomCapHonest) {
  // A member table only grows and is read under the default cap — an
  // atom_cap of 0 or of kDefaultRelationalAtomCap, which enumerate the
  // same streams. Once the class's table is warm, a capped query over a
  // fresh guard set still meets the cap in its own enumeration, and a
  // query with any other explicit cap streams from the backend without
  // touching the table.
  QueryService::Options options;
  options.num_workers = 1;
  QueryService service(options);
  const auto cls = std::make_shared<AllStructuresClass>(GraphZooSchema());
  auto request_for = [&](const char* guard, std::uint32_t atom_cap) {
    auto system = std::make_shared<DdsSystem>(GraphZooSchema());
    system->AddRegister("x");
    const int s = system->AddState("s", true);
    const int t = system->AddState("t", false, true);
    system->AddRule(s, t, guard);
    QueryRequest request;
    request.kind = QueryKind::kSystem;
    request.system = std::move(system);
    request.cls = cls;
    request.build_witness = false;
    request.strategy = SolveStrategy::kEager;
    request.atom_cap = atom_cap;
    return request;
  };

  // The class's first eager build creates its table and grows it whole.
  const QueryResult warm = service.Submit(request_for("red(x_new)", 0)).get();
  ASSERT_TRUE(warm.ok) << warm.error;
  EXPECT_EQ(warm.stats.members_appended, warm.stats.members_enumerated);
  ServiceStats stats = service.Stats();
  ASSERT_EQ(stats.member_table_builds, 1u);
  ASSERT_EQ(stats.member_tables, 1u);

  const QueryResult capped =
      service.Submit(request_for("E(x_old, x_new)", 1)).get();
  EXPECT_FALSE(capped.ok);
  EXPECT_EQ(capped.error_code, EnumerationCapError::kCode);
  ProtocolRequest protocol_request;
  protocol_request.id_json = "1";
  EXPECT_NE(FormatQueryResponse(protocol_request, capped)
                .find("\"error_code\":\"enumeration_cap\""),
            std::string::npos);

  const QueryResult raised =
      service.Submit(request_for("E(x_new, x_old)", 32)).get();
  ASSERT_TRUE(raised.ok) << raised.error;
  EXPECT_GT(raised.stats.members_generated, 0u) << "streamed, not tabled";

  stats = service.Stats();
  EXPECT_EQ(stats.member_table_builds, 1u);
  EXPECT_EQ(stats.member_table_hits, 0u);
  EXPECT_EQ(stats.member_tables, 1u);

  // Both spellings of the default cap read the warm table: no member
  // generated.
  std::uint64_t hits = 0;
  for (const auto& [guard, atom_cap] :
       {std::pair{"E(x_old, x_old)", std::uint32_t{0}},
        std::pair{"E(x_new, x_new)", kDefaultRelationalAtomCap}}) {
    SCOPED_TRACE(guard);
    const QueryResult tabled =
        service.Submit(request_for(guard, atom_cap)).get();
    ASSERT_TRUE(tabled.ok) << tabled.error;
    EXPECT_EQ(tabled.stats.members_generated, 0u);
    EXPECT_EQ(service.Stats().member_table_hits, ++hits);
  }
}

// The acceptance property: resuming a persisted partial graph whose
// cursor sits at >= 50% of the joint stream materializes strictly fewer
// members than the full stream (the native EnumerateGeneratedFrom seeks
// into the grid instead of regenerating the prefix), and the finished
// graph stays bit-identical to a cold full build.
TEST(CursorConformanceTest, StoreResumedBuildGeneratesOnlyTheSuffix) {
  DdsSystem system = ReachRedSystem();
  AllStructuresClass cls(GraphZooSchema());
  std::vector<FormulaRef> guards = GuardsOf(system);
  const int k = system.num_registers();
  ASSERT_EQ(k, 1);
  const std::uint64_t initial_total = ReferenceStream(cls, k).size();
  const std::uint64_t joint_total = ReferenceStream(cls, 2 * k).size();

  SubTransitionGraph cold(guards, k);
  SolveStats cold_stats;
  cold.BuildFull(MemberSource{cls}, cold_stats);
  EXPECT_EQ(cold_stats.members_generated, initial_total + joint_total);

  // A streaming build suspended halfway through the joint sweep — the
  // state an early-exited on-the-fly query persists.
  SubTransitionGraph partial(guards, k);
  SolveStats partial_stats;
  cls.EnumerateGeneratedFrom(
      k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        partial.AddInitialMember(s, marks);
        partial.AdvanceCursorTo({kCursorPhaseInitial, pos + 1});
        return true;
      },
      EnumControl{&partial_stats.members_generated, 0});
  partial.AdvanceCursorTo({kCursorPhaseJoint, 0});
  const std::uint64_t cutoff = joint_total / 2;  // cursor at 50%
  cls.EnumerateGeneratedFrom(
      2 * k, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t pos) {
        if (pos >= cutoff) return false;
        partial.ProcessJointMember(s, marks, partial_stats,
                                   [](int, int, int) { return true; });
        partial.AdvanceCursorTo({kCursorPhaseJoint, pos + 1});
        return true;
      },
      EnumControl{&partial_stats.members_generated, 0});

  const std::string key = "cursor-acceptance";
  const std::string bytes = SerializeGraph(partial, key);
  std::shared_ptr<SubTransitionGraph> restored =
      DeserializeGraph(bytes, key, cls.schema(), guards, k);
  ASSERT_NE(restored, nullptr);
  EXPECT_EQ(restored->cursor(), (BuildCursor{kCursorPhaseJoint, cutoff}));

  SolveStats resumed_stats;
  restored->BuildFull(MemberSource{cls}, resumed_stats);
  // The resumed build materializes exactly the unswept suffix — strictly
  // less than the full stream, which is the whole point of the cursors.
  EXPECT_EQ(resumed_stats.members_generated, joint_total - cutoff);
  EXPECT_LT(resumed_stats.members_generated, initial_total + joint_total);
  EXPECT_EQ(SerializeGraph(*restored, key), SerializeGraph(cold, key));

  // Through a member table that ends before the cursor (a fresh process's
  // empty one), the resumed sweep streams the same suffix and appends
  // nothing: the table cannot hold a stream with a gap.
  MemberTable table(cls.schema(), k);
  std::shared_ptr<SubTransitionGraph> via_table =
      DeserializeGraph(bytes, key, cls.schema(), guards, k);
  ASSERT_NE(via_table, nullptr);
  SolveStats via_table_stats;
  via_table->BuildFull(MemberSource{cls, &table}, via_table_stats);
  EXPECT_EQ(via_table_stats.members_generated, joint_total - cutoff);
  EXPECT_EQ(via_table_stats.members_appended, 0u);
  EXPECT_EQ(table.joint_size(), 0u);
  EXPECT_EQ(SerializeGraph(*via_table, key), SerializeGraph(cold, key));
}

}  // namespace
}  // namespace amalgam
