// Conformance tests for the positioned member streams.
//
// EnumerateGeneratedFrom is a backend's only enumeration, and the relational
// backends implement it as rank/unrank cursors into a product grid. These
// tests pin every backend's stream, from every start, against a reference
// the library does not run: plain nested loops over the same grid (set
// partition × atom mask, × permutation, × partition, and the data
// labelings), so a cursor that drifts from its order (wrong unranking,
// wrong successor step) fails here rather than as a miscached graph three
// layers up. The word, tree and lifted-HOM streams have no second
// enumeration; for them the stream from 0 is the reference, which pins how
// they skip to a start.
//
// Also covered: every member is the substructure its marks generate; the
// structured EnumerationCapError surfaced through every relational backend,
// engine options and the query service; and the members_generated
// acceptance property — a store-resumed relational build materializes only
// the stream suffix.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/ops.h"
#include "fraisse/data_class.h"
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
#include "util/enumerate.h"
#include "words/run_class.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

struct Member {
  Structure s;
  std::vector<Elem> marks;
};

using Stream = std::vector<Member>;

// The stream a backend delivers from position 0.
Stream StreamFromStart(const SolverBackend& backend, int m) {
  Stream out;
  backend.EnumerateGenerated(
      m, [&](const Structure& s, std::span<const Elem> marks) {
        out.push_back({s, std::vector<Elem>(marks.begin(), marks.end())});
      });
  return out;
}

bool SameMember(const Member& a, const Structure& s,
                std::span<const Elem> marks) {
  return a.s == s &&
         a.marks == std::vector<Elem>(marks.begin(), marks.end());
}

// ---------------------------------------------------------------------------
// Reference nests: the member orders of the relational streams, written as
// the nested loops the cursors unrank.
// ---------------------------------------------------------------------------

int BlockCount(const std::vector<int>& block_of) {
  return block_of.empty()
             ? 0
             : 1 + *std::max_element(block_of.begin(), block_of.end());
}

// Calls `visit(d, marks)` for every set partition of the m marks, in
// restricted-growth-string order; `marks` names each mark's block.
void ForEachMarkPartition(
    int m, const std::function<void(int, const std::vector<Elem>&)>& visit) {
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    visit(BlockCount(block_of),
          std::vector<Elem>(block_of.begin(), block_of.end()));
  });
}

// Partition × atom mask: every structure over the relational `schema`
// generated by the marks, in mask order over the atoms (relations in schema
// order, tuples in odometer order), filtered by `keep`.
Stream AtomMaskNest(const SchemaRef& schema, int m,
                    const std::function<bool(const Structure&)>& keep) {
  Stream out;
  ForEachMarkPartition(m, [&](int d, const std::vector<Elem>& marks) {
    std::vector<std::pair<int, std::vector<Elem>>> atoms;
    for (int r = 0; r < schema->num_relations(); ++r) {
      ForEachTuple(d, schema->relation(r).arity,
                   [&](const std::vector<int>& t) {
                     atoms.emplace_back(r, std::vector<Elem>(t.begin(),
                                                             t.end()));
                   });
    }
    for (std::uint64_t mask = 0; mask < (std::uint64_t{1} << atoms.size());
         ++mask) {
      Structure s(schema, d);
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if ((mask >> i) & 1) s.SetHolds(atoms[i].first, atoms[i].second, true);
      }
      if (keep(s)) out.push_back({std::move(s), marks});
    }
  });
  return out;
}

// Calls `visit(pairs)` once per value labeling of n elements, with the
// pairs it relates: a partition of the elements into value classes (every
// partition, or only the discrete one when `injective`), then, when
// `ordered`, an order of the classes (every permutation) relating a < b
// across classes; unordered labelings relate a ~ b within a class.
void ForEachValueLabeling(
    int n, bool injective, bool ordered,
    const std::function<void(const std::vector<std::pair<Elem, Elem>>&)>&
        visit) {
  auto with_classes = [&](const std::vector<int>& class_of) {
    auto relate = [&](const std::vector<int>& class_pos) {
      std::vector<std::pair<Elem, Elem>> pairs;
      for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
          if (ordered ? class_pos[class_of[a]] < class_pos[class_of[b]]
                      : class_of[a] == class_of[b]) {
            pairs.push_back({a, b});
          }
        }
      }
      visit(pairs);
    };
    if (ordered) {
      ForEachPermutation(BlockCount(class_of), relate);
    } else {
      relate({});
    }
  };
  if (injective) {
    std::vector<int> discrete(n);
    for (int i = 0; i < n; ++i) discrete[i] = i;
    with_classes(discrete);
  } else {
    ForEachSetPartition(n, with_classes);
  }
}

// Partition × permutation (strict linear orders, `ordered`) or partition ×
// partition (equivalences): one binary relation 0 over the d elements of
// each mark partition.
Stream BinaryRelationNest(const SchemaRef& schema, int m, bool ordered) {
  Stream out;
  ForEachMarkPartition(m, [&](int d, const std::vector<Elem>& marks) {
    ForEachValueLabeling(d, /*injective=*/ordered, ordered,
                         [&](const std::vector<std::pair<Elem, Elem>>& rel) {
                           Structure s(schema, d);
                           for (const auto& [a, b] : rel) s.SetHolds2(0, a, b);
                           out.push_back({std::move(s), marks});
                         });
  });
  return out;
}

// Base stream × data labelings: each member of `base`, then each labeling
// of its elements by `data`'s value domain.
Stream DataNest(const DataClass& data, const Stream& base) {
  const bool ordered = data.domain() == DataDomain::kRationalsWithOrder;
  Stream out;
  for (const Member& member : base) {
    ForEachValueLabeling(
        static_cast<int>(member.s.size()), data.injective(), ordered,
        [&](const std::vector<std::pair<Elem, Elem>>& rel) {
          Structure s = ExtendToSchema(member.s, data.schema());
          for (const auto& [a, b] : rel) s.SetHolds2(data.data_rel(), a, b);
          out.push_back({std::move(s), member.marks});
        });
  }
  return out;
}

// The all-structures nest over `schema`, as a reference for m marks.
std::function<Stream(int)> EveryStructure(SchemaRef schema) {
  return [schema](int m) {
    return AtomMaskNest(schema, m, [](const Structure&) { return true; });
  };
}

struct NamedBackend {
  std::string name;
  std::shared_ptr<const SolverBackend> backend;
  std::vector<int> ms;
  /// The reference stream for m marks; null for the backends whose stream
  /// from 0 is their own reference.
  std::function<Stream(int)> reference;
  /// EnumerateGeneratedFrom materializes only the requested suffix (a
  /// native cursor, or a walk that encodes only what it delivers); false
  /// for the streams that count every member they walk to skip the prefix.
  bool seeks;
};

const TreeAutomaton* TwoLevelAutomaton() {
  static const TreeAutomaton automaton = TaTwoLevel();
  return &automaton;
}

// One backend per stream implementation: the three relational native
// cursors (grid, factorial, Bell), the filtered grid walk of raw HOM(H),
// the word/tree positioned walks, the lifted HOM(H~) walk, and the data
// products over both value domains, injective and not.
std::vector<NamedBackend> AllBackends() {
  std::vector<NamedBackend> out;
  const SchemaRef graph = GraphZooSchema();
  const auto all = std::make_shared<AllStructuresClass>(graph);
  out.push_back({"all_graph", all, {0, 1, 2}, EveryStructure(graph), true});
  Schema unary_schema;
  unary_schema.AddRelation("p", 1);
  const SchemaRef unary = MakeSchema(std::move(unary_schema));
  out.push_back({"all_unary", std::make_shared<AllStructuresClass>(unary),
                 {1, 2, 3},
                 EveryStructure(unary),
                 true});
  const auto orders = std::make_shared<LinearOrderClass>();
  out.push_back({"orders", orders, {1, 2, 3},
                 [orders](int m) {
                   return BinaryRelationNest(orders->schema(), m, true);
                 },
                 true});
  const auto equiv = std::make_shared<EquivalenceClass>();
  out.push_back({"equiv", equiv, {1, 2, 3},
                 [equiv](int m) {
                   return BinaryRelationNest(equiv->schema(), m, false);
                 },
                 true});
  const auto hom = std::make_shared<HomClass>(Example2Template());
  out.push_back({"hom", hom, {1, 2, 3},
                 [hom](int m) {
                   return AtomMaskNest(
                       hom->schema(), m,
                       [&](const Structure& s) { return hom->Contains(s); });
                 },
                 false});
  out.push_back({"word_runs",
                 std::make_shared<WordRunClass>(NfaAPlusBPlus()),
                 {1, 2},
                 nullptr,
                 true});
  out.push_back({"tree_runs",
                 std::make_shared<TreeRunClass>(TwoLevelAutomaton(), 3),
                 {1, 2},
                 nullptr,
                 true});
  out.push_back({"hom_lift",
                 std::make_shared<LiftedHomClass>(Example2Template()),
                 {1, 2},
                 nullptr,
                 false});
  for (DataDomain domain : {DataDomain::kNaturalsWithEquality,
                            DataDomain::kRationalsWithOrder}) {
    for (bool injective : {false, true}) {
      const auto data = std::make_shared<DataClass>(all, domain, injective);
      out.push_back(
          {std::string("data_") +
               (domain == DataDomain::kNaturalsWithEquality ? "eq" : "lt") +
               (injective ? "_injective" : ""),
           data,
           {1, 2},
           [data, base = EveryStructure(graph)](int m) {
             return DataNest(*data, base(m));
           },
           false});
    }
  }
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
      const Stream ref = nb.reference ? nb.reference(m)
                                      : StreamFromStart(*nb.backend, m);
      const std::uint64_t total = ref.size();
      ASSERT_GT(total, 0u) << nb.name << " m=" << m;
      std::set<std::uint64_t> starts = {0, 1, total / 2, total - 1, total,
                                        total + 5};
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
              EXPECT_TRUE(pos < total && SameMember(ref[pos], s, marks))
                  << nb.name << " m=" << m << " diverges at position " << pos;
              return true;
            },
            EnumControl{&generated, 0});
        const std::uint64_t suffix = total - std::min(start, total);
        EXPECT_EQ(expect_next - start, suffix) << nb.name << " m=" << m;
        // Native cursors materialize only the suffix; the skipping walks
        // count the whole stream.
        EXPECT_EQ(generated, nb.seeks ? suffix : total)
            << nb.name << " m=" << m << " start=" << start;
        // A stop ends the stream at the member that asked for it.
        std::uint64_t delivered = 0;
        nb.backend->EnumerateGeneratedFrom(
            m, start,
            [&](const Structure&, std::span<const Elem>, std::uint64_t) {
              ++delivered;
              return false;
            });
        EXPECT_EQ(delivered, std::min<std::uint64_t>(suffix, 1))
            << nb.name << " m=" << m << " start=" << start;
      }
    }
  }
}

TEST(CursorConformanceTest, EveryMemberIsGeneratedByItsMarks) {
  // Initial members are interned through the projection their marks
  // generate (ConfigInterner::InternProjection), as joint members are. An
  // initial shape is the whole member only if every member of every stream
  // is the substructure its marks generate. Checked at each backend's
  // listed m, which covers the k-stream (m = 1) and the 2k-stream (m = 2)
  // at k = 1.
  ProjectionScratch scratch;
  for (const NamedBackend& nb : AllBackends()) {
    for (int m : nb.ms) {
      std::uint64_t members = 0;
      nb.backend->EnumerateGenerated(
          m, [&](const Structure& s, std::span<const Elem> marks) {
            ++members;
            ComputeGeneratedSubset(s, marks, scratch);
            EXPECT_EQ(scratch.subset.size(), s.size())
                << nb.name << " m=" << m << " member " << members;
          });
      EXPECT_GT(members, 0u) << nb.name << " m=" << m;
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

// The cap reaches every relational backend through EnumControl, not only
// the all-structures grid: raw HOM(H) filters that grid, the lifted class
// caps the atoms its coloring allows, and a data product passes the cap to
// its base. Each has rows of 2 atoms, which cap 1 refuses.
TEST(CursorConformanceTest, EveryRelationalBackendHonoursTheAtomCap) {
  const DdsSystem system = ReachRedSystem();
  const auto all = std::make_shared<AllStructuresClass>(GraphZooSchema());
  const HomClass hom(Example2Template());
  const LiftedHomClass lifted(Example2Template());
  const DataClass data(all, DataDomain::kNaturalsWithEquality, false);
  for (const FraisseClass* cls :
       std::initializer_list<const FraisseClass*>{&hom, &lifted, &data}) {
    SCOPED_TRACE(cls->Fingerprint());
    SolveOptions options;
    options.build_witness = false;
    options.strategy = SolveStrategy::kEager;
    const bool nonempty = SolveEmptiness(system, *cls, options).nonempty;
    options.relational_atom_cap = 1;
    try {
      SolveEmptiness(system, *cls, options);
      ADD_FAILURE() << "expected EnumerationCapError";
    } catch (const EnumerationCapError& e) {
      EXPECT_EQ(e.cap(), 1u);
      EXPECT_GT(e.atoms(), 1u);
    }
    // A cap the stream fits under changes no verdict.
    options.relational_atom_cap = 32;
    EXPECT_EQ(SolveEmptiness(system, *cls, options).nonempty, nonempty);
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
  const std::uint64_t initial_total =
      EveryStructure(cls.schema())(k).size();
  const std::uint64_t joint_total =
      EveryStructure(cls.schema())(2 * k).size();

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
