#include "system/guard_table.h"

#include <utility>

namespace amalgam {

namespace {

std::size_t TermBytes(const Term& term) {
  std::size_t bytes = sizeof(Term);
  for (const Term& arg : term.args) bytes += TermBytes(arg);
  return bytes;
}

// The heap a formula tree holds: each node with its shared_ptr control
// block, its terms and its child pointers. A subformula shared between
// two parents is counted twice, which only overestimates.
std::size_t FormulaBytes(const Formula& formula) {
  std::size_t bytes = sizeof(Formula) + 2 * sizeof(void*);
  for (const Term& term : formula.terms()) bytes += TermBytes(term);
  for (const FormulaRef& child : formula.children()) {
    bytes += sizeof(FormulaRef) + FormulaBytes(*child);
  }
  return bytes;
}

}  // namespace

GuardTable& GuardTable::Shared() {
  static GuardTable table;
  return table;
}

std::string GuardTable::Scope(const DdsSystem& system) {
  // Both parts decode uniquely from the front (the fingerprint's symbols
  // and the register names are length-prefixed), so no guard text can
  // make two scopes' keys meet.
  std::string scope = system.schema().Fingerprint();
  scope += '\x1f';
  for (int r = 0; r < system.num_registers(); ++r) {
    const std::string& name = system.register_name(r);
    scope += std::to_string(name.size());
    scope += ':';
    scope += name;
  }
  scope += '\x1e';
  return scope;
}

std::shared_ptr<const ParsedGuard> GuardTable::Compile(
    std::string_view scope, std::string_view text, const Schema& schema,
    const Parse& parse) {
  if (text.find("exists") != std::string_view::npos) {
    // The parse depends on the system's variable table: never shared.
    auto compiled = std::make_shared<ParsedGuard>();
    compiled->formula = parse(std::string(text));
    compiled->printed = compiled->formula->ToString(schema);
    std::lock_guard<std::mutex> lock(mutex_);
    ++misses_;
    return compiled;
  }
  std::string key;
  key.reserve(scope.size() + text.size());
  key.append(scope).append(text);
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(key); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      ++hits_;
      return it->second->guard;
    }
    ++misses_;
  }
  // Parsed and printed off the lock; a bad guard throws before anything
  // is kept.
  auto compiled = std::make_shared<ParsedGuard>();
  compiled->formula = parse(std::string(text));
  compiled->printed = compiled->formula->ToString(schema);
  const std::size_t bytes = key.size() + compiled->printed.size() +
                            FormulaBytes(*compiled->formula) + sizeof(Entry) +
                            sizeof(ParsedGuard) + 8 * sizeof(void*);
  if (bytes > budget_ / 16) return compiled;

  std::lock_guard<std::mutex> lock(mutex_);
  if (const auto it = index_.find(key); it != index_.end()) {
    return it->second->guard;  // another thread kept the same parse first
  }
  lru_.push_front(Entry{std::move(key), compiled, bytes});
  index_.emplace(lru_.front().key, lru_.begin());
  bytes_ += bytes;
  while (bytes_ > budget_) {
    const Entry& last = lru_.back();
    bytes_ -= last.bytes;
    index_.erase(last.key);
    lru_.pop_back();
  }
  return compiled;
}

std::size_t GuardTable::bytes() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_;
}

std::size_t GuardTable::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lru_.size();
}

std::uint64_t GuardTable::hits() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return hits_;
}

std::uint64_t GuardTable::misses() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return misses_;
}

}  // namespace amalgam
