#include "solver/context.h"

#include <functional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "base/ops.h"
#include "solver/cache.h"
#include "util/flat_hash.h"

namespace amalgam {

InternedGuards InternGuards(std::span<const FormulaRef> list,
                            const Schema& schema,
                            std::span<const std::string* const> printed_forms) {
  InternedGuards out;
  out.guard_of.reserve(list.size());
  // Spec-parsed systems share one FormulaRef per distinct guard text, so
  // the pointer memo usually answers without printing at all, and the
  // guard table's printed forms answer the rest. Both memos are flat
  // tables: a hot request's rule list has a handful of distinct guards.
  FlatTable<std::pair<const Formula*, int>> by_pointer;
  FlatTable<int> by_text;  // indices into out.printed
  for (std::size_t i = 0; i < list.size(); ++i) {
    const Formula* g = list[i].get();
    const std::size_t pointer_hash = std::hash<const Formula*>{}(g);
    const auto* known_pointer = by_pointer.Find(
        pointer_hash, [g](const auto& entry) { return entry.first == g; });
    if (known_pointer != nullptr) {
      out.guard_of.push_back(known_pointer->second);
      continue;
    }
    const std::string* known =
        printed_forms.empty() ? nullptr : printed_forms[i];
    std::string printed = known != nullptr ? *known : g->ToString(schema);
    const std::size_t text_hash = std::hash<std::string_view>{}(printed);
    const int* index = by_text.Find(text_hash, [&](int j) {
      return out.printed[static_cast<std::size_t>(j)] == printed;
    });
    int guard = index != nullptr ? *index : static_cast<int>(out.guards.size());
    if (index == nullptr) {
      by_text.InsertUnique(text_hash, guard);
      out.guards.push_back(list[i]);
      out.printed.push_back(std::move(printed));
    }
    by_pointer.InsertUnique(pointer_hash, {g, guard});
    out.guard_of.push_back(guard);
  }
  return out;
}

GraphContext MakeGraphContext(std::shared_ptr<const SolverBackend> backend,
                              int k, std::span<const FormulaRef> rule_guards,
                              std::span<const std::string* const> printed) {
  InternedGuards interned =
      InternGuards(rule_guards, *backend->schema(), printed);
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
  // Checked first: printing a guard under a schema it does not fit reads
  // past the schema's symbols.
  if (!system.AllGuardsQuantifierFree()) {
    throw std::invalid_argument(
        "guards must be quantifier-free; run EliminateExistentials first");
  }
  if (!IsPrefixSchema(system.schema(), *backend->schema())) {
    throw std::invalid_argument(
        "the system's schema must be a prefix of the class's schema");
  }
  // A guard over the system prints the same under any schema that extends
  // the system's symbols, so the rules' printed forms stand for the
  // backend's.
  std::vector<FormulaRef> guards;
  std::vector<const std::string*> printed;
  guards.reserve(system.rules().size());
  printed.reserve(system.rules().size());
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(rule.guard);
    printed.push_back(rule.printed.get());
  }
  return MakeGraphContext(std::move(backend), system.num_registers(), guards,
                          printed);
}

std::shared_ptr<const SolverBackend> BorrowBackend(
    const SolverBackend& backend) {
  return std::shared_ptr<const SolverBackend>(
      std::shared_ptr<const SolverBackend>(), &backend);
}

}  // namespace amalgam
