// A bounded table of parsed guards, shared by every request a daemon
// parses.
//
// A sub-transition graph depends only on (class, k, *set* of guards), so
// guard formulas are what queries share: a cache-hot request line repeats
// the guard texts of earlier lines over a different control skeleton. The
// table parses each distinct guard once and prints it once. Later lines
// get the shared FormulaRef and its printed form, the text a graph key is
// assembled from (solver/context.h), without parsing or printing again.
//
// The key is (schema fingerprint, register names in order, guard text):
// a quantifier-free guard's parse depends on nothing else. Guards with
// `exists` are never kept. The parser numbers their bound variables by the
// system's variable-table size, so their parse depends on the guards
// parsed before them.
//
// The table holds at most kBudgetBytes, a fixed budget, and evicts the
// least recently used entries to stay within it. It is thread-safe.
#ifndef AMALGAM_SYSTEM_GUARD_TABLE_H_
#define AMALGAM_SYSTEM_GUARD_TABLE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "logic/formula.h"
#include "system/dds.h"

namespace amalgam {

/// A guard parsed once and printed once (not to be confused with the guard
/// VM's CompiledGuard, logic/compiled.h, which a graph build makes from it).
struct ParsedGuard {
  FormulaRef formula;
  /// formula->ToString(schema) under the schema it was parsed over
  /// (TransitionRule::printed), for kept and unkept guards alike.
  std::string printed;
};

class GuardTable {
 public:
  /// The byte budget of a table. About 2,000 guards of workload size.
  static constexpr std::size_t kBudgetBytes = std::size_t{1} << 20;

  GuardTable() : GuardTable(kBudgetBytes) {}
  /// A table with another budget, for tests.
  explicit GuardTable(std::size_t budget_bytes) : budget_(budget_bytes) {}

  GuardTable(const GuardTable&) = delete;
  GuardTable& operator=(const GuardTable&) = delete;

  /// The table the protocol parser shares across every request line.
  static GuardTable& Shared();

  /// The lookup scope of `system`'s guards: its schema fingerprint and its
  /// register names, in order. Compute it once per system, after its
  /// registers are added.
  static std::string Scope(const DdsSystem& system);

  /// Parses a guard text into the system it is compiled for
  /// (DdsSystem::ParseGuard).
  using Parse = std::function<FormulaRef(const std::string& text)>;

  /// `text` compiled as a guard of a system over `schema` whose Scope is
  /// `scope`: the table's entry when it has one, else `parse(text)`
  /// printed under `schema`, kept unless it has `exists` or exceeds a
  /// sixteenth of the budget. Throws what `parse` throws, and then keeps
  /// nothing.
  std::shared_ptr<const ParsedGuard> Compile(std::string_view scope,
                                               std::string_view text,
                                               const Schema& schema,
                                               const Parse& parse);

  /// Bytes the kept entries account for (keys, printed forms, formula
  /// nodes and bookkeeping); at most the budget.
  std::size_t bytes() const;
  std::size_t size() const;
  /// Compile calls answered from the table, and calls that parsed.
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  struct Entry {
    std::string key;  // scope + text
    std::shared_ptr<const ParsedGuard> guard;
    std::size_t bytes = 0;
  };

  const std::size_t budget_;
  mutable std::mutex mutex_;
  std::list<Entry> lru_;  // most recently used first
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_SYSTEM_GUARD_TABLE_H_
