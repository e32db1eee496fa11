#include "solver/context.h"

#include <unordered_map>
#include <utility>

#include "solver/cache.h"

namespace amalgam {

InternedGuards InternGuards(std::span<const FormulaRef> list,
                            const Schema& schema) {
  InternedGuards out;
  out.guard_of.reserve(list.size());
  // Spec-parsed systems share one FormulaRef per distinct guard text, so
  // the pointer memo usually answers without printing at all.
  std::unordered_map<const Formula*, int> by_pointer;
  std::unordered_map<std::string, int> by_text;
  for (const FormulaRef& g : list) {
    auto [it, fresh] = by_pointer.emplace(g.get(), 0);
    if (fresh) {
      std::string printed = g->ToString(schema);
      auto [text_it, new_text] = by_text.emplace(
          printed, static_cast<int>(out.guards.size()));
      if (new_text) {
        out.guards.push_back(g);
        out.printed.push_back(std::move(printed));
      }
      it->second = text_it->second;
    }
    out.guard_of.push_back(it->second);
  }
  return out;
}

GraphContext MakeGraphContext(std::shared_ptr<const SolverBackend> backend,
                              int k, std::span<const FormulaRef> rule_guards) {
  InternedGuards interned = InternGuards(rule_guards, *backend->schema());
  GraphContext ctx;
  ctx.key = GraphCache::ClassKey(*backend, k);
  ctx.class_key_length = ctx.key.size();
  GraphCache::AppendGuards(interned, ctx.key);
  ctx.backend = std::move(backend);
  ctx.guards = std::move(interned.guards);
  ctx.guard_of = std::move(interned.guard_of);
  ctx.k = k;
  return ctx;
}

GraphContext SystemGraphContext(std::shared_ptr<const SolverBackend> backend,
                                const DdsSystem& system) {
  std::vector<FormulaRef> guards;
  guards.reserve(system.rules().size());
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
  }
  return MakeGraphContext(std::move(backend), system.num_registers(), guards);
}

std::shared_ptr<const SolverBackend> BorrowBackend(
    const SolverBackend& backend) {
  return std::shared_ptr<const SolverBackend>(
      std::shared_ptr<const SolverBackend>(), &backend);
}

}  // namespace amalgam
