// Differential fuzz for the compiled guard kernels: CompiledGuard::Eval
// must agree with the recursive reference evaluator (EvalFormula) on every
// (quantifier-free formula, structure, valuation) triple — negation, nested
// connectives and function terms included — and SlicedGuard::Eval over a
// member table's atom columns must agree with the VM on every member of
// every zoo class's table. The generators are seeded, so a failure
// reproduces; the fixed cases at the bottom pin the VM's zero-extension of
// short valuations and its refusal of quantifiers.
#include <gtest/gtest.h>

#include <memory>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "base/schema.h"
#include "base/structure.h"
#include "fraisse/hom_class.h"
#include "fraisse/relational.h"
#include "logic/compiled.h"
#include "logic/formula.h"
#include "solver/graph.h"
#include "solver/member_table.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "words/run_class.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

constexpr int kNumVars = 4;

// A schema exercising every atom shape the compiler special-cases: a binary
// relation (kRel2VV), a unary relation (kRel1V), a unary function and a
// constant (general term stack + kApply).
SchemaRef FuzzSchema() {
  Schema s;
  s.AddRelation("E", 2);
  s.AddRelation("p", 1);
  s.AddFunction("f", 1);
  s.AddFunction("c", 0);
  return MakeSchema(std::move(s));
}

Structure RandomStructure(const SchemaRef& schema, std::mt19937& rng) {
  const std::size_t n = 1 + rng() % 4;
  Structure s(schema, n);
  for (Elem a = 0; a < n; ++a) {
    if (rng() % 2) s.SetHolds1(1, a);
    for (Elem b = 0; b < n; ++b) {
      if (rng() % 3 == 0) s.SetHolds2(0, a, b);
    }
    s.SetFunction1(0, a, static_cast<Elem>(rng() % n));
  }
  s.SetFunction(1, {}, static_cast<Elem>(rng() % n));
  return s;
}

Term RandomTerm(std::mt19937& rng, int depth) {
  const int pick = static_cast<int>(rng() % (depth > 0 ? 4 : 2));
  switch (pick) {
    case 0:
    case 1:
      return Term::Var(static_cast<int>(rng() % kNumVars));
    case 2:
      return Term::App(0, {RandomTerm(rng, depth - 1)});
    default:
      return Term::App(1, {});
  }
}

// A random quantifier-free formula: what a compiled guard admits.
FormulaRef RandomFormula(std::mt19937& rng, int depth) {
  const int pick = static_cast<int>(rng() % (depth > 0 ? 8 : 5));
  switch (pick) {
    case 0:
      return Formula::True();
    case 1:
      return Formula::False();
    case 2:
      return Formula::Rel(0, {RandomTerm(rng, 1), RandomTerm(rng, 1)});
    case 3:
      return Formula::Rel(1, {RandomTerm(rng, 1)});
    case 4:
      return Formula::Eq(RandomTerm(rng, 1), RandomTerm(rng, 1));
    case 5:
      return Formula::Not(RandomFormula(rng, depth - 1));
    case 6:
      return Formula::And(RandomFormula(rng, depth - 1),
                          RandomFormula(rng, depth - 1));
    default:
      return Formula::Or(RandomFormula(rng, depth - 1),
                         RandomFormula(rng, depth - 1));
  }
}

TEST(CompiledGuardTest, DifferentialFuzzAgainstEvalFormula) {
  SchemaRef schema = FuzzSchema();
  std::mt19937 rng(20260808);
  GuardEvaluator eval;
  for (int round = 0; round < 400; ++round) {
    FormulaRef f = RandomFormula(rng, 4);
    const CompiledGuard compiled = CompiledGuard::Compile(*f);
    for (int si = 0; si < 4; ++si) {
      Structure s = RandomStructure(schema, rng);
      for (int vi = 0; vi < 4; ++vi) {
        std::vector<Elem> valuation(kNumVars);
        for (Elem& v : valuation) {
          v = static_cast<Elem>(rng() % s.size());
        }
        EXPECT_EQ(eval.Eval(compiled, s, valuation),
                  EvalFormula(*f, s, valuation))
            << "divergence at round " << round << " on\n  "
            << f->ToString(*schema) << "\nover\n"
            << s.ToString();
      }
    }
  }
}

TEST(CompiledGuardTest, EvaluatorIsReusableAcrossGuards) {
  // One evaluator serves many guards of different variable counts and
  // shapes back to back — exactly how the sweep uses it.
  SchemaRef schema = FuzzSchema();
  std::mt19937 rng(7);
  Structure s = RandomStructure(schema, rng);
  GuardEvaluator eval;
  std::vector<FormulaRef> guards;
  std::vector<CompiledGuard> compiled;
  for (int i = 0; i < 32; ++i) {
    guards.push_back(RandomFormula(rng, 3));
    compiled.push_back(CompiledGuard::Compile(*guards.back()));
  }
  std::vector<Elem> valuation(kNumVars, 0);
  for (int pass = 0; pass < 3; ++pass) {
    for (std::size_t i = 0; i < guards.size(); ++i) {
      EXPECT_EQ(eval.Eval(compiled[i], s, valuation),
                EvalFormula(*guards[i], s, valuation));
    }
  }
}

// ---- Bit-sliced guards against the VM. ----

// A random quantifier-free guard over `schema`'s relations of arity at
// most 2 and equalities, with variables below `num_vars`.
FormulaRef RandomSliceableGuard(const Schema& schema, int num_vars,
                                std::mt19937& rng, int depth) {
  auto var = [&] { return Term::Var(static_cast<int>(rng() % num_vars)); };
  std::vector<int> rels;
  for (int r = 0; r < schema.num_relations(); ++r) {
    if (schema.relation(r).arity <= 2) rels.push_back(r);
  }
  const int pick = static_cast<int>(rng() % (depth > 0 ? 7 : 4));
  switch (pick) {
    case 0:
      return rng() % 2 ? Formula::True() : Formula::False();
    case 1:
    case 2:
      if (!rels.empty()) {
        const int rel = rels[rng() % rels.size()];
        std::vector<Term> terms;
        for (int i = 0; i < schema.relation(rel).arity; ++i) {
          terms.push_back(var());
        }
        return Formula::Rel(rel, std::move(terms));
      }
      [[fallthrough]];
    case 3:
      return Formula::Eq(var(), var());
    case 4:
      return Formula::Not(RandomSliceableGuard(schema, num_vars, rng,
                                               depth - 1));
    case 5:
      return Formula::And(
          RandomSliceableGuard(schema, num_vars, rng, depth - 1),
          RandomSliceableGuard(schema, num_vars, rng, depth - 1));
    default:
      return Formula::Or(
          RandomSliceableGuard(schema, num_vars, rng, depth - 1),
          RandomSliceableGuard(schema, num_vars, rng, depth - 1));
  }
}

struct ZooTable {
  std::string name;
  std::shared_ptr<const SolverBackend> backend;
  int k;
};

const TreeAutomaton* TwoLevel() {
  static const TreeAutomaton automaton = TaTwoLevel();
  return &automaton;
}

std::vector<ZooTable> ZooTables() {
  Schema unary;
  unary.AddRelation("red", 1);
  unary.AddRelation("blue", 1);
  return {
      {"all_graph", std::make_shared<AllStructuresClass>(GraphZooSchema()), 1},
      {"all_unary",
       std::make_shared<AllStructuresClass>(MakeSchema(std::move(unary))), 2},
      {"orders", std::make_shared<LinearOrderClass>(), 2},
      {"orders3", std::make_shared<LinearOrderClass>(), 3},
      {"equiv", std::make_shared<EquivalenceClass>(), 2},
      {"word_runs", std::make_shared<WordRunClass>(NfaAPlusBPlus()), 1},
      {"tree_runs", std::make_shared<TreeRunClass>(TwoLevel(), 3), 1},
      {"hom_lift", std::make_shared<LiftedHomClass>(Example2Template()), 1},
  };
}

TEST(SlicedGuardTest, EveryBitMatchesTheVmOnEveryZooTable) {
  std::mt19937 rng(20261017);
  GuardEvaluator eval;
  for (const ZooTable& zoo : ZooTables()) {
    SCOPED_TRACE(zoo.name);
    // The whole joint stream, appended by one sweep.
    MemberTable table(zoo.backend->schema(), zoo.k);
    SubTransitionGraph fill({Formula::True()}, zoo.k);
    SolveStats stats;
    fill.BuildFull(MemberSource{*zoo.backend, &table}, stats);
    const std::uint64_t n = table.joint_size();
    ASSERT_GT(n, 0u);
    Structure member(zoo.backend->schema(), 0);
    std::vector<Elem> marks;
    for (int round = 0; round < 60; ++round) {
      const FormulaRef f = RandomSliceableGuard(*zoo.backend->schema(),
                                                2 * zoo.k, rng, 4);
      const std::optional<SlicedGuard> sliced = SlicedGuard::Lower(*f);
      ASSERT_TRUE(sliced.has_value()) << f->ToString(*zoo.backend->schema());
      const CompiledGuard compiled = CompiledGuard::Compile(*f);
      const std::vector<MemberTable::Column> columns =
          table.Columns(sliced->atoms());
      std::vector<int> index(columns.size());
      for (std::size_t a = 0; a < index.size(); ++a) {
        index[a] = static_cast<int>(a);
      }
      // A window that starts and stops mid-word (or at the table's ends).
      const std::uint64_t from = round % 3 == 0 ? 0 : rng() % n;
      const std::uint64_t to =
          round % 3 == 1 ? n : from + 1 + rng() % (n - from);
      std::vector<std::uint64_t> words(columns.size());
      for (std::uint64_t i = from; i < to; ++i) {
        if (i == from || i % 64 == 0) {
          for (std::size_t c = 0; c < columns.size(); ++c) {
            words[c] = columns[c][i / 64].load();
          }
        }
        const bool bit = (sliced->Eval(words.data(), index.data()) >>
                          (i % 64) & 1) != 0;
        table.Unpack(MemberTable::kJoint, i, member, marks);
        ASSERT_EQ(bit, eval.Eval(compiled, member, marks))
            << "member " << i << " of " << n << ", guard "
            << f->ToString(*zoo.backend->schema()) << "\n"
            << member.ToString();
      }
    }
  }
}

TEST(SlicedGuardTest, ColumnsMadeBeforeAndAfterAppendsAgree) {
  // A column created over a partial table keeps growing with the table:
  // its bits match a column of the same atom created afterwards, and the
  // VM, member by member — across a length that is not a multiple of 64.
  LinearOrderClass orders;
  const FormulaRef f = Formula::And(
      Formula::Rel(0, {Term::Var(0), Term::Var(3)}),
      Formula::Not(Formula::Eq(Term::Var(1), Term::Var(2))));
  const std::optional<SlicedGuard> sliced = SlicedGuard::Lower(*f);
  ASSERT_TRUE(sliced.has_value());
  MemberTable table(orders.schema(), 2);
  SubTransitionGraph partial({f}, 2);
  SolveStats stats;
  int edges = 0;
  partial.SweepInitial(MemberSource{orders, &table}, stats, ~std::uint64_t{0},
                       nullptr);
  partial.SweepJoint(MemberSource{orders, &table}, stats, ~std::uint64_t{0},
                     [&](int, int, int) { return ++edges < 2; });
  const std::uint64_t early = table.joint_size();
  const std::vector<MemberTable::Column> before = table.Columns(sliced->atoms());
  SubTransitionGraph rest(partial);
  rest.BuildFull(MemberSource{orders, &table}, stats);
  const std::uint64_t n = table.joint_size();
  ASSERT_LT(early, n);
  ASSERT_NE(n % 64, 0u);
  MemberTable fresh(orders.schema(), 2);
  SubTransitionGraph whole({f}, 2);
  whole.BuildFull(MemberSource{orders, &fresh}, stats);
  const std::vector<MemberTable::Column> after = fresh.Columns(sliced->atoms());
  for (std::uint64_t w = 0; w * 64 < n; ++w) {
    const std::uint64_t live =
        n - w * 64 >= 64 ? ~std::uint64_t{0}
                         : (std::uint64_t{1} << (n - w * 64)) - 1;
    for (std::size_t c = 0; c < before.size(); ++c) {
      EXPECT_EQ(before[c][w].load() & live, after[c][w].load() & live)
          << "atom " << c << ", word " << w;
    }
  }
}

TEST(SlicedGuardTest, QuantifiersAndFunctionTermsStayOnTheVm) {
  EXPECT_FALSE(SlicedGuard::Lower(*Formula::Exists(
                                      0, Formula::Rel(1, {Term::Var(0)})))
                   .has_value());
  EXPECT_FALSE(
      SlicedGuard::Lower(*Formula::Eq(Term::App(0, {Term::Var(0)}),
                                      Term::Var(1)))
          .has_value());
  // A sliceable guard lists each distinct atom once.
  const std::optional<SlicedGuard> sliced = SlicedGuard::Lower(*Formula::Or(
      Formula::Rel(0, {Term::Var(0), Term::Var(1)}),
      Formula::And(Formula::Not(Formula::Rel(0, {Term::Var(0), Term::Var(1)})),
                   Formula::Eq(Term::Var(2), Term::Var(0)))));
  ASSERT_TRUE(sliced.has_value());
  EXPECT_EQ(sliced->atoms().size(), 2u);
  EXPECT_EQ(sliced->num_vars(), 3);
}

TEST(CompiledGuardTest, ShortValuationZeroExtends) {
  // A free variable past the valuation reads as element 0: the VM
  // evaluates a short valuation as its zero extension. Here p(x2) reads
  // p(0), which holds, and !p(x0) reads !p(2).
  SchemaRef schema = FuzzSchema();
  Structure s(schema, 3);
  s.SetHolds1(1, 0);
  FormulaRef f = Formula::And(Formula::Rel(1, {Term::Var(2)}),
                              Formula::Not(Formula::Rel(1, {Term::Var(0)})));
  const std::vector<Elem> short_valuation = {2};
  const std::vector<Elem> extended = {2, 0, 0};
  GuardEvaluator eval;
  EXPECT_TRUE(EvalFormula(*f, s, extended));
  EXPECT_TRUE(eval.Eval(CompiledGuard::Compile(*f), s, short_valuation));
}

TEST(CompiledGuardTest, CompileRejectsQuantifiers) {
  // A graph admits only quantifier-free guards, and so does the VM, at
  // any depth of the formula.
  const FormulaRef exists = Formula::Exists(0, Formula::Rel(1, {Term::Var(0)}));
  EXPECT_THROW(CompiledGuard::Compile(*exists), std::invalid_argument);
  EXPECT_THROW(CompiledGuard::Compile(*Formula::And(
                   Formula::True(), Formula::Not(exists))),
               std::invalid_argument);
}

}  // namespace
}  // namespace amalgam
