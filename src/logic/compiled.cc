#include "logic/compiled.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace amalgam {

namespace {

using Op = CompiledGuard::Op;
using Instr = CompiledGuard::Instr;

// Emits value-stack code for a term. Compile-time recursion only; the
// emitted code is flat.
void EmitTerm(const Term& t, std::vector<Instr>& code) {
  if (t.kind == Term::Kind::kVar) {
    code.push_back(Instr{Op::kLoadVar, t.var});
    return;
  }
  for (const Term& a : t.args) EmitTerm(a, code);
  code.push_back(
      Instr{Op::kApply, t.fn, static_cast<std::int32_t>(t.args.size())});
}

bool IsVar(const Term& t) { return t.kind == Term::Kind::kVar; }

// Emits code leaving exactly one bool on the bool stack.
void EmitFormula(const Formula& f, std::vector<Instr>& code) {
  switch (f.kind()) {
    case Formula::Kind::kTrue:
      code.push_back(Instr{Op::kPushTrue});
      return;
    case Formula::Kind::kFalse:
      code.push_back(Instr{Op::kPushFalse});
      return;
    case Formula::Kind::kRel: {
      const std::vector<Term>& ts = f.terms();
      // All-variable atoms skip the value stack entirely — the dominant
      // case in guard formulas (register comparisons over binary edges).
      if (ts.size() == 2 && IsVar(ts[0]) && IsVar(ts[1])) {
        code.push_back(Instr{Op::kRel2VV, f.rel(), ts[0].var, ts[1].var});
        return;
      }
      if (ts.size() == 1 && IsVar(ts[0])) {
        code.push_back(Instr{Op::kRel1V, f.rel(), ts[0].var});
        return;
      }
      for (const Term& t : ts) EmitTerm(t, code);
      code.push_back(
          Instr{Op::kRel, f.rel(), static_cast<std::int32_t>(ts.size())});
      return;
    }
    case Formula::Kind::kEq:
      if (IsVar(f.terms()[0]) && IsVar(f.terms()[1])) {
        code.push_back(
            Instr{Op::kEqVV, f.terms()[0].var, f.terms()[1].var});
        return;
      }
      EmitTerm(f.terms()[0], code);
      EmitTerm(f.terms()[1], code);
      code.push_back(Instr{Op::kEq});
      return;
    case Formula::Kind::kNot:
      EmitFormula(*f.children()[0], code);
      code.push_back(Instr{Op::kNot});
      return;
    case Formula::Kind::kAnd:
    case Formula::Kind::kOr: {
      const Op gate = f.kind() == Formula::Kind::kAnd ? Op::kAndShort
                                                      : Op::kOrShort;
      std::vector<std::size_t> patches;
      const auto& cs = f.children();
      for (std::size_t i = 0; i < cs.size(); ++i) {
        EmitFormula(*cs[i], code);
        if (i + 1 < cs.size()) {
          patches.push_back(code.size());
          code.push_back(Instr{gate});
        }
      }
      for (std::size_t p : patches) {
        code[p].a = static_cast<std::int32_t>(code.size());
      }
      return;
    }
    case Formula::Kind::kExists:
      throw std::invalid_argument(
          "a compiled guard must be quantifier-free");
  }
}

}  // namespace

bool GuardAtom::Holds(const Structure& s,
                      std::span<const Elem> valuation) const {
  if (rel == kEquality) return valuation[vars[0]] == valuation[vars[1]];
  if (arity == 2) return s.Holds2(rel, valuation[vars[0]], valuation[vars[1]]);
  if (arity == 1) return s.Holds1(rel, valuation[vars[0]]);
  Elem tuple[kMaxArity];
  for (int i = 0; i < arity; ++i) tuple[i] = valuation[vars[i]];
  return s.Holds(rel, std::span<const Elem>(tuple, arity));
}

std::optional<SlicedGuard> SlicedGuard::Lower(const Formula& f) {
  SlicedGuard g;
  int depth = 0;
  int max_depth = 0;
  // Pushes one instruction that pops `pops` words and pushes one.
  auto emit = [&](Op op, std::int32_t a, int pops) {
    g.code_.push_back(Instr{op, a});
    depth += 1 - pops;
    max_depth = std::max(max_depth, depth);
  };
  auto emit_atom = [&](const GuardAtom& atom) {
    auto it = std::find(g.atoms_.begin(), g.atoms_.end(), atom);
    if (it == g.atoms_.end()) it = g.atoms_.insert(g.atoms_.end(), atom);
    emit(Op::kAtom, static_cast<std::int32_t>(it - g.atoms_.begin()), 0);
  };
  // Compile-time recursion only, as in EmitFormula.
  auto lower = [&](auto& self, const Formula& node) -> bool {
    switch (node.kind()) {
      case Formula::Kind::kTrue:
        emit(Op::kTrue, 0, 0);
        return true;
      case Formula::Kind::kFalse:
        emit(Op::kFalse, 0, 0);
        return true;
      case Formula::Kind::kRel:
      case Formula::Kind::kEq: {
        const std::vector<Term>& ts = node.terms();
        if (ts.size() > static_cast<std::size_t>(GuardAtom::kMaxArity)) {
          return false;
        }
        GuardAtom atom;
        atom.rel = node.kind() == Formula::Kind::kRel ? node.rel()
                                                      : GuardAtom::kEquality;
        atom.arity = static_cast<std::int32_t>(ts.size());
        for (std::size_t i = 0; i < ts.size(); ++i) {
          if (!IsVar(ts[i])) return false;
          atom.vars[i] = ts[i].var;
        }
        emit_atom(atom);
        return true;
      }
      case Formula::Kind::kNot:
        if (!self(self, *node.children()[0])) return false;
        emit(Op::kNot, 0, 1);
        return true;
      case Formula::Kind::kAnd:
      case Formula::Kind::kOr: {
        const bool is_and = node.kind() == Formula::Kind::kAnd;
        const auto& cs = node.children();
        if (cs.empty()) {
          emit(is_and ? Op::kTrue : Op::kFalse, 0, 0);
          return true;
        }
        for (const FormulaRef& c : cs) {
          if (!self(self, *c)) return false;
        }
        const int n = static_cast<int>(cs.size());
        emit(is_and ? Op::kAnd : Op::kOr, n, n);
        return true;
      }
      case Formula::Kind::kExists:
        return false;
    }
    return false;
  };
  if (!lower(lower, f) || max_depth > kMaxDepth) return std::nullopt;
  g.num_vars_ = f.MaxVar() + 1;
  return g;
}

std::uint64_t SlicedGuard::Eval(const std::uint64_t* words,
                                const int* index) const {
  std::uint64_t stack[kMaxDepth];
  int top = 0;
  for (const Instr& ins : code_) {
    switch (ins.op) {
      case Op::kTrue:
        stack[top++] = ~std::uint64_t{0};
        break;
      case Op::kFalse:
        stack[top++] = 0;
        break;
      case Op::kAtom:
        stack[top++] = words[index[ins.a]];
        break;
      case Op::kNot:
        stack[top - 1] = ~stack[top - 1];
        break;
      case Op::kAnd: {
        top -= ins.a;
        std::uint64_t v = stack[top];
        for (int i = 1; i < ins.a; ++i) v &= stack[top + i];
        stack[top++] = v;
        break;
      }
      case Op::kOr: {
        top -= ins.a;
        std::uint64_t v = stack[top];
        for (int i = 1; i < ins.a; ++i) v |= stack[top + i];
        stack[top++] = v;
        break;
      }
    }
  }
  assert(top == 1);
  return stack[0];
}

CompiledGuard CompiledGuard::Compile(const Formula& f) {
  CompiledGuard g;
  g.num_vars_ = f.MaxVar() + 1;
  EmitFormula(f, g.code_);
  return g;
}

bool GuardEvaluator::Eval(const CompiledGuard& g, const Structure& s,
                          std::span<const Elem> valuation) {
  const std::size_t num_vars = static_cast<std::size_t>(g.num_vars());
  if (scratch_.size() < num_vars) scratch_.resize(num_vars);
  const std::size_t copy = std::min(valuation.size(), num_vars);
  std::copy(valuation.begin(), valuation.begin() + copy, scratch_.begin());
  std::fill(scratch_.begin() + copy, scratch_.begin() + num_vars, Elem{0});

  values_.clear();
  bools_.clear();

  const Instr* code = g.code().data();
  const std::size_t end = g.code().size();
  std::size_t pc = 0;
  while (pc < end) {
    const Instr& ins = code[pc];
    switch (ins.op) {
      case CompiledGuard::Op::kPushTrue:
        bools_.push_back(1);
        ++pc;
        break;
      case CompiledGuard::Op::kPushFalse:
        bools_.push_back(0);
        ++pc;
        break;
      case CompiledGuard::Op::kNot:
        bools_.back() ^= 1;
        ++pc;
        break;
      case CompiledGuard::Op::kAndShort:
        if (bools_.back()) {
          bools_.pop_back();
          ++pc;
        } else {
          pc = static_cast<std::size_t>(ins.a);
        }
        break;
      case CompiledGuard::Op::kOrShort:
        if (!bools_.back()) {
          bools_.pop_back();
          ++pc;
        } else {
          pc = static_cast<std::size_t>(ins.a);
        }
        break;
      case CompiledGuard::Op::kLoadVar:
        values_.push_back(scratch_[ins.a]);
        ++pc;
        break;
      case CompiledGuard::Op::kApply: {
        const std::size_t arity = static_cast<std::size_t>(ins.b);
        const std::span<const Elem> args(values_.data() + values_.size() -
                                             arity,
                                         arity);
        const Elem v = s.Apply(ins.a, args);
        values_.resize(values_.size() - arity);
        values_.push_back(v);
        ++pc;
        break;
      }
      case CompiledGuard::Op::kRel: {
        const std::size_t arity = static_cast<std::size_t>(ins.b);
        const std::span<const Elem> args(values_.data() + values_.size() -
                                             arity,
                                         arity);
        const bool holds = s.Holds(ins.a, args);
        values_.resize(values_.size() - arity);
        bools_.push_back(holds ? 1 : 0);
        ++pc;
        break;
      }
      case CompiledGuard::Op::kRel1V:
        bools_.push_back(s.Holds1(ins.a, scratch_[ins.b]) ? 1 : 0);
        ++pc;
        break;
      case CompiledGuard::Op::kRel2VV:
        bools_.push_back(
            s.Holds2(ins.a, scratch_[ins.b], scratch_[ins.c]) ? 1 : 0);
        ++pc;
        break;
      case CompiledGuard::Op::kEq: {
        const Elem rhs = values_.back();
        values_.pop_back();
        const Elem lhs = values_.back();
        values_.pop_back();
        bools_.push_back(lhs == rhs ? 1 : 0);
        ++pc;
        break;
      }
      case CompiledGuard::Op::kEqVV:
        bools_.push_back(scratch_[ins.a] == scratch_[ins.b] ? 1 : 0);
        ++pc;
        break;
    }
  }
  assert(bools_.size() == 1);
  return bools_.back() != 0;
}

}  // namespace amalgam
