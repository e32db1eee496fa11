#include "solver/context.h"

#include <charconv>
#include <functional>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "base/ops.h"
#include "util/flat_hash.h"

namespace amalgam {

namespace {

// Appends `value` in decimal, as std::to_string would, without its
// temporary string: a rule list spells out one index per rule.
void AppendDecimal(std::string& out, std::size_t value) {
  char digits[24];
  const auto end = std::to_chars(digits, digits + sizeof(digits), value).ptr;
  out.append(digits, end);
}

// The class prefix of every key over (backend, k): the length-prefixed
// fingerprint and the register count. It names the member table.
std::string ClassKey(const SolverBackend& backend, int k) {
  // The fingerprint is length-prefixed so the key decodes uniquely even if
  // a backend's fingerprint happens to embed the separator byte.
  const std::string fp = backend.Fingerprint();
  std::string key = std::to_string(fp.size());
  key += ':';
  key += fp;
  key += '\x1f';
  key += std::to_string(k);
  return key;
}

}  // namespace

GraphContext MakeGraphContext(std::shared_ptr<const SolverBackend> backend,
                              const Schema& schema, int k,
                              std::span<const RuleGuard> rule_guards) {
  GraphContext ctx;
  ctx.key = ClassKey(*backend, k);
  ctx.class_key_length = ctx.key.size();
  ctx.backend = std::move(backend);
  ctx.k = k;
  // Interning: identical guards collapse by printed form, whether or not
  // they share a FormulaRef. The memo is a flat table: a hot request's rule
  // list has a handful of distinct guards.
  ctx.guard_of.reserve(rule_guards.size());
  std::vector<std::string_view> printed;  // parallel to ctx.guards
  FlatTable<int> by_text;                 // indices into printed
  for (const RuleGuard& rule : rule_guards) {
    const std::string_view text = rule.printed;
    const std::size_t hash = std::hash<std::string_view>{}(text);
    const int* known = by_text.Find(hash, [&](int j) {
      return printed[static_cast<std::size_t>(j)] == text;
    });
    if (known == nullptr) {
      // Guards that print alike are alike, so each distinct one is walked
      // once.
      if (!rule.guard->IsQuantifierFree()) {
        throw std::invalid_argument(
            "guards must be quantifier-free; run EliminateExistentials first");
      }
      known = &by_text.InsertUnique(hash, static_cast<int>(printed.size()));
      ctx.guards.push_back(rule.guard);
      printed.push_back(text);
      // Length-prefixed: printed guards embed free-text symbol names,
      // which must not be able to imitate the separator and merge two
      // different guard lists into one key.
      ctx.key += '\x1f';
      AppendDecimal(ctx.key, text.size());
      ctx.key += ':';
      ctx.key += text;
    }
    ctx.guard_of.push_back(*known);
  }
  if (!IsPrefixSchema(schema, *ctx.backend->schema())) {
    throw std::invalid_argument(
        "the system's schema must be a prefix of the class's schema");
  }
  // A duplicate-free list's rule -> guard index is the identity; only a
  // list that repeats a guard spells it out, after a separator no guard
  // entry can start with.
  if (ctx.guard_of.size() != ctx.guards.size()) {
    ctx.key += '\x1e';
    for (std::size_t i = 0; i < ctx.guard_of.size(); ++i) {
      if (i > 0) ctx.key += ',';
      AppendDecimal(ctx.key, static_cast<std::size_t>(ctx.guard_of[i]));
    }
  }
  return ctx;
}

GraphContext SystemGraphContext(std::shared_ptr<const SolverBackend> backend,
                                const DdsSystem& system) {
  std::vector<RuleGuard> guards;
  guards.reserve(system.rules().size());
  for (const TransitionRule& rule : system.rules()) {
    guards.push_back(RuleGuard{rule.guard, *rule.printed});
  }
  return MakeGraphContext(std::move(backend), system.schema(),
                          system.num_registers(), guards);
}

std::shared_ptr<const SolverBackend> BorrowBackend(
    const SolverBackend& backend) {
  return std::shared_ptr<const SolverBackend>(
      std::shared_ptr<const SolverBackend>(), &backend);
}

}  // namespace amalgam
