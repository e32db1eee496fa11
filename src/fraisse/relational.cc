#include "fraisse/relational.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <span>
#include <stdexcept>
#include <utility>

#include "util/enumerate.h"

namespace amalgam {

namespace {

// 1ULL << atoms must stay representable; caps above this are clamped.
constexpr std::uint32_t kMaxGridAtoms = 62;

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

// The atoms of a d-element row, saturating. A relation wider than
// kMaxGridAtoms counts as unbounded once d >= 1: over two or more elements
// it alone has more atoms than any cap, and over one its single tuple
// costs its arity to build, which a request line can set to 2^31 - 1.
std::uint64_t AtomCountFor(const SchemaRef& schema, int d) {
  std::uint64_t atoms = 0;
  for (int r = 0; r < schema->num_relations(); ++r) {
    if (d >= 1 && schema->relation(r).arity > static_cast<int>(kMaxGridAtoms)) {
      return UINT64_MAX;
    }
    atoms = SatAdd(
        atoms, IntPow(static_cast<std::uint64_t>(d),
                      static_cast<unsigned>(schema->relation(r).arity)));
  }
  return atoms;
}

// One row of a positioned member grid: a set partition of the marks (its
// restricted-growth string), the induced element count, the size of the
// row's inner space, the stream position of the row's first member, and
// the row-relative position a walk enters it at (0 past its first row).
struct GridRow {
  std::span<const int> block_of;
  int d = 0;
  std::uint64_t count = 0;
  std::uint64_t offset = 0;
  std::uint64_t first = 0;
};

std::vector<Elem> MarksOf(std::span<const int> block_of) {
  return std::vector<Elem>(block_of.begin(), block_of.end());
}

// Advances `r` to the lexicographically next restricted growth string;
// false when `r` was the last one.
bool NextRgs(std::vector<int>& r) {
  for (std::size_t i = r.size(); i-- > 1;) {
    if (r[i] <= *std::max_element(r.begin(), r.begin() + i)) {
      ++r[i];
      std::fill(r.begin() + i + 1, r.end(), 0);
      return true;
    }
  }
  return false;
}

// Walks the partition rows of the m-generated stream in ForEachSetPartition
// order, handing each row from the one holding position `start` on to
// `visit` until it returns false. `inner` maps the block count d to the
// row's inner-space size; it is asked for every d the rows have (0 only
// when m is 0), smallest first, before any row is visited. A stream read
// only as far as it needs walks only the rows it reaches.
template <typename Inner, typename Visit>
void WalkGridRows(int m, std::uint64_t start, Inner&& inner, Visit&& visit) {
  std::vector<std::uint64_t> count_of(m + 1);
  for (int d = m == 0 ? 0 : 1; d <= m; ++d) count_of[d] = inner(d);
  std::vector<int> block_of(m, 0);
  std::uint64_t offset = 0;
  do {
    const int d =
        m == 0 ? 0 : 1 + *std::max_element(block_of.begin(), block_of.end());
    const std::uint64_t count = count_of[d];
    if (SatAdd(offset, count) > start &&
        !visit(GridRow{block_of, d, count, offset,
                       start > offset ? start - offset : 0})) {
      return;
    }
    offset = SatAdd(offset, count);
  } while (NextRgs(block_of));
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

}  // namespace

std::uint32_t EffectiveAtomCap(std::uint32_t atom_cap) {
  const std::uint32_t cap =
      atom_cap == 0 ? kDefaultRelationalAtomCap : atom_cap;
  return std::min(cap, kMaxGridAtoms);
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

// Positioned enumeration over the (set partition × atom mask) grid: a
// stream position decodes into (row, mask), the seed mask's atoms are set
// directly, and the incremental delta loop continues from there — so the
// generation cost is O(stream - start), not O(stream).
void AllStructuresClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                                const PositionCallback& cb,
                                                const EnumControl& ctl) const {
  // Every row size is checked before any member is built: a stream whose
  // widest rows exceed the cap fails at once, not after the rows below.
  const std::uint32_t cap = EffectiveAtomCap(ctl.atom_cap);
  auto masks_of = [&](int d) {
    const std::uint64_t atoms = AtomCountFor(schema_, d);
    if (atoms > cap) throw EnumerationCapError(atoms, cap);
    return std::uint64_t{1} << atoms;
  };
  WalkGridRows(m, start, masks_of, [&](const GridRow& row) {
    const std::vector<RelAtom> atoms = AtomsFor(schema_, row.d);
    const std::vector<Elem> marks = MarksOf(row.block_of);
    Structure s(schema_, row.d);
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if ((row.first >> i) & 1) s.SetHolds(atoms[i].rel, atoms[i].tuple, true);
    }
    std::uint64_t previous = row.first;
    for (std::uint64_t mask = row.first; mask < row.count; ++mask) {
      std::uint64_t diff = mask ^ previous;
      for (std::size_t i = 0; diff >> i; ++i) {
        if ((diff >> i) & 1) {
          s.SetHolds(atoms[i].rel, atoms[i].tuple, (mask >> i) & 1);
        }
      }
      previous = mask;
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks, row.offset + mask)) return false;
    }
    return true;
  });
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

// A member is a partition of the marks into d classes plus a linear order
// of the classes (the all-structures grid would waste 2^(d^2) candidates
// on it). The stream walks the (set partition × permutation) grid: unrank
// the seed permutation through the factorial number system, then continue
// with std::next_permutation in lexicographic order.
void LinearOrderClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                              const PositionCallback& cb,
                                              const EnumControl& ctl) const {
  WalkGridRows(m, start, Factorial, [&](const GridRow& row) {
    const std::vector<Elem> marks = MarksOf(row.block_of);
    std::vector<int> position_of = UnrankPermutation(row.d, row.first);
    for (std::uint64_t idx = row.first; idx < row.count; ++idx) {
      Structure s(schema_, row.d);
      for (Elem a = 0; a < static_cast<Elem>(row.d); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(row.d); ++b) {
          if (position_of[a] < position_of[b]) s.SetHolds2(kLess, a, b);
        }
      }
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks, row.offset + idx)) return false;
      std::next_permutation(position_of.begin(), position_of.end());
    }
    return true;
  });
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

// Positioned enumeration over the (mark partition × element partition)
// grid: Bell-number counts per row, restricted-growth-string unranking for
// the seed and the lexicographic RGS successor for iteration.
void EquivalenceClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                              const PositionCallback& cb,
                                              const EnumControl& ctl) const {
  WalkGridRows(m, start, BellNumber, [&](const GridRow& row) {
    const std::vector<Elem> marks = MarksOf(row.block_of);
    std::vector<int> class_of = UnrankRgs(row.d, row.first, RgsCounts(row.d));
    for (std::uint64_t idx = row.first; idx < row.count; ++idx) {
      Structure s(schema_, row.d);
      for (Elem a = 0; a < static_cast<Elem>(row.d); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(row.d); ++b) {
          if (class_of[a] == class_of[b]) s.SetHolds2(kEquiv, a, b);
        }
      }
      if (ctl.generated != nullptr) ++*ctl.generated;
      if (!cb(s, marks, row.offset + idx)) return false;
      NextRgs(class_of);
    }
    return true;
  });
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
