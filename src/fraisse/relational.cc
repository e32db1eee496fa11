#include "fraisse/relational.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "util/enumerate.h"

namespace amalgam {

namespace {

// 1ULL << atoms must stay representable; caps above this are clamped.
constexpr std::uint32_t kMaxGridAtoms = 62;

std::uint32_t EffectiveAtomCap(std::uint32_t atom_cap) {
  const std::uint32_t cap =
      atom_cap == 0 ? kDefaultRelationalAtomCap : atom_cap;
  return std::min(cap, kMaxGridAtoms);
}

std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) {
  return a > UINT64_MAX - b ? UINT64_MAX : a + b;
}

std::uint64_t SatMul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > UINT64_MAX / a) return UINT64_MAX;
  return a * b;
}

// An atom of the per-partition candidate grid: (relation, encoded tuple).
struct RelAtom {
  int rel;
  std::vector<Elem> tuple;
};

// All atoms over d elements, in the fixed order the mask loops address
// them by (relations in schema order, tuples in odometer order).
std::vector<RelAtom> AtomsFor(const SchemaRef& schema, int d) {
  std::vector<RelAtom> atoms;
  for (int r = 0; r < schema->num_relations(); ++r) {
    const int arity = schema->relation(r).arity;
    std::vector<Elem> tuple(arity);
    ForEachTuple(d, arity, [&](const std::vector<int>& t) {
      for (int i = 0; i < arity; ++i) tuple[i] = static_cast<Elem>(t[i]);
      atoms.push_back(RelAtom{r, tuple});
    });
  }
  return atoms;
}

std::uint64_t AtomCountFor(const SchemaRef& schema, int d) {
  std::uint64_t atoms = 0;
  for (int r = 0; r < schema->num_relations(); ++r) {
    atoms = SatAdd(
        atoms, IntPow(static_cast<std::uint64_t>(d),
                      static_cast<unsigned>(schema->relation(r).arity)));
  }
  return atoms;
}

// One row of a positioned member grid: a set partition of the marks (its
// restricted-growth string), the induced element count, the size of the
// row's inner space and the stream position of the row's first member.
struct GridRow {
  std::vector<int> block_of;
  int d = 0;
  std::uint64_t count = 0;
  std::uint64_t offset = 0;
};

// Collects the partition rows of the m-generated stream; `inner` maps the
// block count d to the row's inner-space size.
std::vector<GridRow> CollectGridRows(
    int m, const std::function<std::uint64_t(int)>& inner) {
  std::vector<GridRow> rows;
  std::uint64_t offset = 0;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    GridRow row;
    row.block_of = block_of;
    row.d = block_of.empty()
                ? 0
                : 1 + *std::max_element(block_of.begin(), block_of.end());
    row.count = inner(row.d);
    row.offset = offset;
    offset = SatAdd(offset, row.count);
    rows.push_back(std::move(row));
  });
  return rows;
}

std::vector<Elem> MarksOf(const std::vector<int>& block_of) {
  std::vector<Elem> marks(block_of.size());
  for (std::size_t i = 0; i < block_of.size(); ++i) {
    marks[i] = static_cast<Elem>(block_of[i]);
  }
  return marks;
}

std::uint64_t Factorial(int d) {
  std::uint64_t f = 1;
  for (int i = 2; i <= d; ++i) f = SatMul(f, static_cast<std::uint64_t>(i));
  return f;
}

// The d-th lexicographic permutation vector of {0..d-1} (rank in the
// factorial number system) — the state ForEachPermutation would be in
// after `rank` steps.
std::vector<int> UnrankPermutation(int d, std::uint64_t rank) {
  std::vector<int> pool(d);
  std::iota(pool.begin(), pool.end(), 0);
  std::vector<int> perm;
  perm.reserve(d);
  for (int i = 0; i < d; ++i) {
    const std::uint64_t f = Factorial(d - 1 - i);
    const std::uint64_t idx = rank / f;
    rank %= f;
    perm.push_back(pool[idx]);
    pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(idx));
  }
  return perm;
}

// counts[i][u] = number of restricted-growth-string completions from
// position i when the prefix's largest used block is u. counts[1][0] is
// the Bell number B(d).
std::vector<std::vector<std::uint64_t>> RgsCounts(int d) {
  std::vector<std::vector<std::uint64_t>> counts(
      d + 1, std::vector<std::uint64_t>(d + 2, 1));
  for (int i = d - 1; i >= 1; --i) {
    for (int u = 0; u <= d; ++u) {
      counts[i][u] =
          SatAdd(SatMul(static_cast<std::uint64_t>(u) + 1, counts[i + 1][u]),
                 counts[i + 1][u + 1]);
    }
  }
  return counts;
}

std::uint64_t BellNumber(int d) {
  if (d == 0) return 1;
  return RgsCounts(d)[1][0];
}

// The rank-th restricted growth string of length d, in the lexicographic
// order ForEachSetPartition produces them in.
std::vector<int> UnrankRgs(int d, std::uint64_t rank,
                           const std::vector<std::vector<std::uint64_t>>& c) {
  std::vector<int> r(d, 0);
  int u = 0;
  for (int i = 1; i < d; ++i) {
    for (int b = 0; b <= u + 1; ++b) {
      const int nu = std::max(u, b);
      const std::uint64_t cnt = c[i + 1][nu];
      if (rank < cnt) {
        r[i] = b;
        u = nu;
        break;
      }
      rank -= cnt;
    }
  }
  return r;
}

// Advances `r` to the lexicographically next restricted growth string;
// false when `r` was the last one.
bool NextRgs(std::vector<int>& r) {
  const int d = static_cast<int>(r.size());
  std::vector<int> prefix_max(d, 0);
  for (int i = 1; i < d; ++i) {
    prefix_max[i] = std::max(prefix_max[i - 1], r[i - 1]);
  }
  for (int i = d - 1; i >= 1; --i) {
    if (r[i] <= prefix_max[i]) {
      ++r[i];
      std::fill(r.begin() + i + 1, r.end(), 0);
      return true;
    }
  }
  return false;
}

}  // namespace

void EnumerateRelationalGenerated(
    const SchemaRef& schema, int m,
    const std::function<bool(const Structure&)>& contains,
    const FraisseClass::StopCallback& cb, std::uint32_t atom_cap) {
  assert(schema->num_functions() == 0 &&
         "relational enumerator requires a function-free schema");
  const std::uint32_t cap = EffectiveAtomCap(atom_cap);
  bool go = true;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    if (!go) return;
    const int d =
        block_of.empty()
            ? 0
            : 1 + *std::max_element(block_of.begin(), block_of.end());
    const std::vector<Elem> marks = MarksOf(block_of);
    const std::vector<RelAtom> atoms = AtomsFor(schema, d);
    if (atoms.size() > cap) {
      throw EnumerationCapError(atoms.size(), cap);
    }
    const std::uint64_t total = 1ULL << atoms.size();
    Structure s(schema, d);
    std::uint64_t previous = 0;
    for (std::uint64_t mask = 0; mask < total; ++mask) {
      // Update only the changed atoms (mask increments flip a suffix).
      std::uint64_t diff = mask ^ previous;
      for (std::size_t i = 0; diff >> i; ++i) {
        if ((diff >> i) & 1) {
          s.SetHolds(atoms[i].rel, atoms[i].tuple, (mask >> i) & 1);
        }
      }
      previous = mask;
      if (contains(s) && !cb(s, marks)) {
        go = false;
        return;
      }
    }
  });
}

AllStructuresClass::AllStructuresClass(SchemaRef schema)
    : schema_(std::move(schema)) {
  if (schema_->num_functions() != 0) {
    throw std::invalid_argument(
        "AllStructuresClass supports relational schemas only");
  }
}

std::string AllStructuresClass::Fingerprint() const {
  return "all-structures|" + schema_->Fingerprint();
}

bool AllStructuresClass::Contains(const Structure& s) const {
  return s.schema() == *schema_;
}

void AllStructuresClass::EnumerateGeneratedUntil(
    int m, const StopCallback& cb) const {
  EnumerateRelationalGenerated(
      schema_, m, [](const Structure&) { return true; }, cb);
}

// Positioned enumeration over the (set partition × atom mask) grid: a
// stream position decodes into (row, mask), the seed mask's atoms are set
// directly, and the incremental delta loop continues from there — so the
// generation cost is O(stream - start), not O(stream).
void AllStructuresClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                                const PositionCallback& cb,
                                                const EnumControl& ctl) const {
  const std::uint32_t cap = EffectiveAtomCap(ctl.atom_cap);
  const std::vector<GridRow> rows = CollectGridRows(
      m,
      [&](int d) {
        const std::uint64_t atoms = AtomCountFor(schema_, d);
        if (atoms > cap) throw EnumerationCapError(atoms, cap);
        return std::uint64_t{1} << atoms;
      });
  for (const GridRow& row : rows) {
    if (row.offset + row.count <= start) continue;
    const std::uint64_t mask_lo = start > row.offset ? start - row.offset : 0;
    const std::vector<RelAtom> atoms = AtomsFor(schema_, row.d);
    const std::vector<Elem> marks = MarksOf(row.block_of);
    Structure s(schema_, row.d);
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if ((mask_lo >> i) & 1) s.SetHolds(atoms[i].rel, atoms[i].tuple, true);
    }
    std::uint64_t previous = mask_lo;
    for (std::uint64_t mask = mask_lo; mask < row.count; ++mask) {
      std::uint64_t diff = mask ^ previous;
      for (std::size_t i = 0; diff >> i; ++i) {
        if ((diff >> i) & 1) {
          s.SetHolds(atoms[i].rel, atoms[i].tuple, (mask >> i) & 1);
        }
      }
      previous = mask;
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks, row.offset + mask)) return;
    }
  }
}

// Joint members extending one canonicalized shape: the new marks form a
// restricted growth string relative to the shape's elements (a value below
// d0 reuses an old element; new blocks are numbered d0, d0+1, ... by first
// occurrence), and only atoms touching at least one new element are swept —
// the old atoms are copied from the shape. Per the EnumerateExtensions
// contract, the streams over all m-generated shapes partition the full
// 2m-generated stream.
void AllStructuresClass::EnumerateExtensions(const Structure& old_structure,
                                             std::span<const Elem> old_marks,
                                             int extra_marks,
                                             const StopCallback& cb,
                                             const EnumControl& ctl) const {
  const std::uint32_t cap = EffectiveAtomCap(ctl.atom_cap);
  const int d0 = static_cast<int>(old_structure.size());
  std::vector<Elem> marks(old_marks.begin(), old_marks.end());
  marks.resize(old_marks.size() + static_cast<std::size_t>(extra_marks));
  bool go = true;

  auto emit = [&](int used) {
    const int d = d0 + used;
    // Atoms touching at least one new element, in (relation, odometer)
    // order; all-old tuples keep the shape's truth values.
    std::vector<RelAtom> atoms;
    for (int r = 0; r < schema_->num_relations(); ++r) {
      const int arity = schema_->relation(r).arity;
      std::vector<Elem> tuple(arity);
      ForEachTuple(d, arity, [&](const std::vector<int>& t) {
        bool touches_new = false;
        for (int i = 0; i < arity; ++i) {
          tuple[i] = static_cast<Elem>(t[i]);
          touches_new = touches_new || t[i] >= d0;
        }
        if (touches_new) atoms.push_back(RelAtom{r, tuple});
      });
    }
    if (atoms.size() > cap) throw EnumerationCapError(atoms.size(), cap);
    Structure s(schema_, d);
    for (int r = 0; r < schema_->num_relations(); ++r) {
      const int arity = schema_->relation(r).arity;
      std::vector<Elem> tuple(arity);
      ForEachTuple(d0, arity, [&](const std::vector<int>& t) {
        for (int i = 0; i < arity; ++i) tuple[i] = static_cast<Elem>(t[i]);
        if (old_structure.Holds(r, tuple)) s.SetHolds(r, tuple, true);
      });
    }
    const std::uint64_t total = 1ULL << atoms.size();
    std::uint64_t previous = 0;
    for (std::uint64_t mask = 0; mask < total; ++mask) {
      std::uint64_t diff = mask ^ previous;
      for (std::size_t i = 0; diff >> i; ++i) {
        if ((diff >> i) & 1) {
          s.SetHolds(atoms[i].rel, atoms[i].tuple, (mask >> i) & 1);
        }
      }
      previous = mask;
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks)) {
        go = false;
        return;
      }
    }
  };

  auto assign = [&](auto&& self, int i, int used) -> void {
    if (!go) return;
    if (i == extra_marks) {
      emit(used);
      return;
    }
    for (int b = 0; b <= d0 + used && go; ++b) {
      marks[old_marks.size() + static_cast<std::size_t>(i)] =
          static_cast<Elem>(b);
      self(self, i + 1, b == d0 + used ? used + 1 : used);
    }
  };
  assign(assign, 0, 0);
}

bool IsStrictLinearOrder(const Structure& s, int rel) {
  const Elem n = static_cast<Elem>(s.size());
  for (Elem a = 0; a < n; ++a) {
    if (s.Holds2(rel, a, a)) return false;
    for (Elem b = 0; b < n; ++b) {
      if (a != b && s.Holds2(rel, a, b) == s.Holds2(rel, b, a)) return false;
      for (Elem c = 0; c < n; ++c) {
        if (s.Holds2(rel, a, b) && s.Holds2(rel, b, c) &&
            !s.Holds2(rel, a, c)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool IsEquivalenceRelation(const Structure& s, int rel) {
  const Elem n = static_cast<Elem>(s.size());
  for (Elem a = 0; a < n; ++a) {
    if (!s.Holds2(rel, a, a)) return false;
    for (Elem b = 0; b < n; ++b) {
      if (s.Holds2(rel, a, b) != s.Holds2(rel, b, a)) return false;
      for (Elem c = 0; c < n; ++c) {
        if (s.Holds2(rel, a, b) && s.Holds2(rel, b, c) &&
            !s.Holds2(rel, a, c)) {
          return false;
        }
      }
    }
  }
  return true;
}

bool IsStrictWeakOrder(const Structure& s, int rel) {
  const Elem n = static_cast<Elem>(s.size());
  auto incomparable = [&](Elem a, Elem b) {
    return !s.Holds2(rel, a, b) && !s.Holds2(rel, b, a);
  };
  for (Elem a = 0; a < n; ++a) {
    if (s.Holds2(rel, a, a)) return false;
    for (Elem b = 0; b < n; ++b) {
      for (Elem c = 0; c < n; ++c) {
        if (s.Holds2(rel, a, b) && s.Holds2(rel, b, c) &&
            !s.Holds2(rel, a, c)) {
          return false;
        }
        if (incomparable(a, b) && incomparable(b, c) && !incomparable(a, c)) {
          return false;
        }
      }
    }
  }
  return true;
}

namespace {

SchemaRef OrderSchema() {
  Schema s;
  s.AddRelation("lt", 2);
  return MakeSchema(std::move(s));
}

SchemaRef EquivSchema() {
  Schema s;
  s.AddRelation("eqv", 2);
  return MakeSchema(std::move(s));
}

}  // namespace

LinearOrderClass::LinearOrderClass() : schema_(OrderSchema()) {}

bool LinearOrderClass::Contains(const Structure& s) const {
  return IsStrictLinearOrder(s, kLess);
}

void LinearOrderClass::EnumerateGeneratedUntil(int m,
                                               const StopCallback& cb) const {
  // Direct enumeration: a partition of the marks into d classes plus a
  // linear order of the classes. (The generic enumerator would also work
  // but wastes 2^(d^2) candidates.)
  bool go = true;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    if (!go) return;
    const int d =
        block_of.empty()
            ? 0
            : 1 + *std::max_element(block_of.begin(), block_of.end());
    std::vector<Elem> marks(m);
    for (int i = 0; i < m; ++i) marks[i] = static_cast<Elem>(block_of[i]);
    ForEachPermutation(d, [&](const std::vector<int>& position_of) {
      if (!go) return;
      Structure s(schema_, d);
      for (Elem a = 0; a < static_cast<Elem>(d); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(d); ++b) {
          if (position_of[a] < position_of[b]) s.SetHolds2(kLess, a, b);
        }
      }
      if (!cb(s, marks)) go = false;
    });
  });
}

// Positioned enumeration over the (set partition × permutation) grid:
// unrank the seed permutation through the factorial number system, then
// continue with std::next_permutation — the same order ForEachPermutation
// walks, so positions match the full stream.
void LinearOrderClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                              const PositionCallback& cb,
                                              const EnumControl& ctl) const {
  const std::vector<GridRow> rows =
      CollectGridRows(m, [](int d) { return Factorial(d); });
  for (const GridRow& row : rows) {
    if (row.offset + row.count <= start) continue;
    const std::uint64_t p_lo = start > row.offset ? start - row.offset : 0;
    const std::vector<Elem> marks = MarksOf(row.block_of);
    std::vector<int> position_of = UnrankPermutation(row.d, p_lo);
    for (std::uint64_t idx = p_lo; idx < row.count; ++idx) {
      Structure s(schema_, row.d);
      for (Elem a = 0; a < static_cast<Elem>(row.d); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(row.d); ++b) {
          if (position_of[a] < position_of[b]) s.SetHolds2(kLess, a, b);
        }
      }
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks, row.offset + idx)) return;
      std::next_permutation(position_of.begin(), position_of.end());
    }
  }
}

std::optional<AmalgamResult> LinearOrderClass::Amalgamate(
    const Structure& a, const Structure& b,
    std::span<const Elem> b_to_a) const {
  AmalgamResult result = FreeAmalgam(a, b, b_to_a);
  Structure& s = result.structure;
  const Elem n = static_cast<Elem>(s.size());
  // Transitive closure of the union.
  for (Elem k = 0; k < n; ++k) {
    for (Elem i = 0; i < n; ++i) {
      for (Elem j = 0; j < n; ++j) {
        if (s.Holds2(kLess, i, k) && s.Holds2(kLess, k, j)) {
          s.SetHolds2(kLess, i, j);
        }
      }
    }
  }
  for (Elem i = 0; i < n; ++i) {
    if (s.Holds2(kLess, i, i)) return std::nullopt;  // inconsistent instance
  }
  // Deterministic linear extension (Kahn with smallest-id tie-break).
  std::vector<Elem> order;
  std::vector<char> placed(n, 0);
  for (Elem step = 0; step < n; ++step) {
    for (Elem candidate = 0; candidate < n; ++candidate) {
      if (placed[candidate]) continue;
      bool minimal = true;
      for (Elem other = 0; other < n; ++other) {
        if (!placed[other] && s.Holds2(kLess, other, candidate)) {
          minimal = false;
          break;
        }
      }
      if (minimal) {
        order.push_back(candidate);
        placed[candidate] = 1;
        break;
      }
    }
  }
  std::vector<Elem> position(n);
  for (Elem i = 0; i < n; ++i) position[order[i]] = i;
  for (Elem x = 0; x < n; ++x) {
    for (Elem y = 0; y < n; ++y) {
      s.SetHolds2(kLess, x, y, position[x] < position[y]);
    }
  }
  return result;
}

EquivalenceClass::EquivalenceClass() : schema_(EquivSchema()) {}

bool EquivalenceClass::Contains(const Structure& s) const {
  return IsEquivalenceRelation(s, kEquiv);
}

void EquivalenceClass::EnumerateGeneratedUntil(int m,
                                               const StopCallback& cb) const {
  bool go = true;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    if (!go) return;
    const int d =
        block_of.empty()
            ? 0
            : 1 + *std::max_element(block_of.begin(), block_of.end());
    std::vector<Elem> marks(m);
    for (int i = 0; i < m; ++i) marks[i] = static_cast<Elem>(block_of[i]);
    // Group the d elements into equivalence classes.
    ForEachSetPartition(d, [&](const std::vector<int>& class_of) {
      if (!go) return;
      Structure s(schema_, d);
      for (Elem a = 0; a < static_cast<Elem>(d); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(d); ++b) {
          if (class_of[a] == class_of[b]) s.SetHolds2(kEquiv, a, b);
        }
      }
      if (!cb(s, marks)) go = false;
    });
  });
}

// Positioned enumeration over the (mark partition × element partition)
// grid: Bell-number counts per row, restricted-growth-string unranking for
// the seed and the lexicographic RGS successor for iteration — the same
// order the nested ForEachSetPartition walks.
void EquivalenceClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                              const PositionCallback& cb,
                                              const EnumControl& ctl) const {
  const std::vector<GridRow> rows =
      CollectGridRows(m, [](int d) { return BellNumber(d); });
  for (const GridRow& row : rows) {
    if (row.offset + row.count <= start) continue;
    const std::uint64_t p_lo = start > row.offset ? start - row.offset : 0;
    const std::vector<Elem> marks = MarksOf(row.block_of);
    std::vector<int> class_of =
        UnrankRgs(row.d, p_lo, RgsCounts(row.d));
    for (std::uint64_t idx = p_lo; idx < row.count; ++idx) {
      Structure s(schema_, row.d);
      for (Elem a = 0; a < static_cast<Elem>(row.d); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(row.d); ++b) {
          if (class_of[a] == class_of[b]) s.SetHolds2(kEquiv, a, b);
        }
      }
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks, row.offset + idx)) return;
      NextRgs(class_of);
    }
  }
}

std::optional<AmalgamResult> EquivalenceClass::Amalgamate(
    const Structure& a, const Structure& b,
    std::span<const Elem> b_to_a) const {
  AmalgamResult result = FreeAmalgam(a, b, b_to_a);
  Structure& s = result.structure;
  const Elem n = static_cast<Elem>(s.size());
  for (Elem k = 0; k < n; ++k) {
    for (Elem i = 0; i < n; ++i) {
      for (Elem j = 0; j < n; ++j) {
        if (s.Holds2(kEquiv, i, k) && s.Holds2(kEquiv, k, j)) {
          s.SetHolds2(kEquiv, i, j);
        }
      }
    }
  }
  for (Elem i = 0; i < n; ++i) s.SetHolds2(kEquiv, i, i);
  assert(Contains(s));
  return result;
}

}  // namespace amalgam
