// Compiled guard kernels: flat postfix bytecode for formula evaluation.
//
// EvalFormula walks the Formula AST recursively — fine for one-off
// evaluation, far too slow for the sweep hot loop, which evaluates every
// guard on every joint member of the class. CompiledGuard lowers a guard
// once per build into a flat instruction array; GuardEvaluator runs it in a
// non-recursive, zero-allocation VM over (Structure, valuation):
//
//   * connectives compile to short-circuit jumps over a reusable bool
//     stack, so And/Or cost exactly what the reference evaluator's early
//     exits cost;
//   * binary/unary relation atoms whose terms are plain variables dispatch
//     straight to Structure::Holds2/Holds1 — no term stack, no span.
//
// The VM compiles exactly what a sub-transition graph admits: quantifier-
// free guards (MakeGraphContext, solver/context.h, rejects the others).
// Quantified formulas stay with EvalFormula, the reference evaluator.
//
// CompiledGuard::Eval(evaluator, s, valuation) == EvalFormula(f, s,
// valuation) for every quantifier-free formula, structure and valuation —
// pinned by the differential fuzz in tests/compiled_guard_test.cc. The
// bytecode is immutable after Compile and shareable across threads; all
// mutable state (value/bool stacks, scratch valuation) lives in the
// GuardEvaluator, so each sweep worker owns one evaluator and evaluates
// concurrently.
//
// SlicedGuard is the VM's word-parallel sibling for the common guard shape:
// a quantifier-free formula whose atoms are relations over plain variables
// or equalities of two variables. It lowers to AND/OR/NOT over one bitmap
// per atom, so a sweep over a member table (solver/member_table.h), which
// keeps those bitmaps as columns across its members, decides 64 members
// per machine word. Bit i of SlicedGuard::Eval equals GuardEvaluator::Eval
// on member i — pinned by the same differential fuzz.
#ifndef AMALGAM_LOGIC_COMPILED_H_
#define AMALGAM_LOGIC_COMPILED_H_

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "base/structure.h"
#include "logic/formula.h"

namespace amalgam {

/// One guard formula lowered to flat bytecode. Immutable after Compile;
/// evaluate through a GuardEvaluator.
class CompiledGuard {
 public:
  enum class Op : std::uint8_t {
    kPushTrue,     // push true on the bool stack
    kPushFalse,    // push false
    kNot,          // negate the top of the bool stack
    kAndShort,     // top false: jump to a (keep false); else pop, continue
    kOrShort,      // top true: jump to a (keep true); else pop, continue
    kLoadVar,      // push scratch[a] on the value stack
    kApply,        // pop b args, push s.Apply(a, args)
    kRel,          // pop b args, push bool s.Holds(a, args)
    kRel1V,        // push bool s.Holds1(a, scratch[b])
    kRel2VV,       // push bool s.Holds2(a, scratch[b], scratch[c])
    kEq,           // pop 2 values, push bool equality
    kEqVV,         // push bool scratch[a] == scratch[b]
  };

  struct Instr {
    Op op;
    std::int32_t a = 0;
    std::int32_t b = 0;
    std::int32_t c = 0;
  };

  /// Lowers the quantifier-free `f` to bytecode. Throws
  /// std::invalid_argument on a quantifier.
  static CompiledGuard Compile(const Formula& f);

  const std::vector<Instr>& code() const { return code_; }
  /// Scratch-valuation size the evaluator needs: MaxVar() + 1.
  int num_vars() const { return num_vars_; }

 private:
  std::vector<Instr> code_;
  int num_vars_ = 0;
};

/// The VM state for evaluating CompiledGuards: reusable stacks and the
/// scratch valuation. One evaluator per thread; evaluations reuse the
/// buffers, so steady-state Eval performs zero heap allocations.
class GuardEvaluator {
 public:
  /// Evaluates `g` on `s` under `valuation` (entries beyond the guard's
  /// variables are ignored; missing entries read as 0, matching the
  /// reference evaluator's zero-extension).
  bool Eval(const CompiledGuard& g, const Structure& s,
            std::span<const Elem> valuation);

 private:
  std::vector<Elem> scratch_;
  std::vector<Elem> values_;
  std::vector<char> bools_;
};

/// An atom a SlicedGuard reads: `rel`(x_vars[0], ..., x_vars[arity-1])
/// over plain variables, or x_vars[0] = x_vars[1] when `rel` is kEquality.
struct GuardAtom {
  static constexpr std::int32_t kEquality = -1;
  /// The widest relation atom a guard may slice.
  static constexpr int kMaxArity = 4;

  std::int32_t rel = kEquality;
  std::int32_t arity = 2;
  std::int32_t vars[kMaxArity] = {};

  /// Whether the atom holds in `s` under `valuation`, which must cover
  /// every variable the atom names.
  bool Holds(const Structure& s, std::span<const Elem> valuation) const;

  friend bool operator==(const GuardAtom& a, const GuardAtom& b) {
    return a.rel == b.rel && a.arity == b.arity &&
           std::equal(a.vars, a.vars + a.arity, b.vars);
  }
};

/// A quantifier-free guard without function terms, lowered to word-wide
/// Boolean ops over its atoms. Immutable after Lower; shareable.
class SlicedGuard {
 public:
  /// Lowers `f`, or returns nullopt when it has a quantifier, a function
  /// term, a relation wider than GuardAtom::kMaxArity or more nesting than
  /// the evaluation stack holds — guards that stay on the VM.
  static std::optional<SlicedGuard> Lower(const Formula& f);

  /// The distinct atoms, in first-occurrence order.
  const std::vector<GuardAtom>& atoms() const { return atoms_; }
  /// Valuation size the atoms need: the largest variable + 1.
  int num_vars() const { return num_vars_; }

  /// The guard over 64 members at once: atom a's bits are
  /// `words[index[a]]`, and bit i of the result is the guard on member i.
  /// Bits past the members a caller holds are garbage; mask them.
  std::uint64_t Eval(const std::uint64_t* words, const int* index) const;

 private:
  enum class Op : std::uint8_t { kTrue, kFalse, kAtom, kNot, kAnd, kOr };
  struct Instr {
    Op op;
    std::int32_t a = 0;  // kAtom: atom index; kAnd/kOr: operand count
  };
  static constexpr int kMaxDepth = 32;

  std::vector<Instr> code_;  // postfix
  std::vector<GuardAtom> atoms_;
  int num_vars_ = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_LOGIC_COMPILED_H_
