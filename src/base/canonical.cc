#include "base/canonical.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "util/enumerate.h"
#include "util/hash.h"

namespace amalgam {

namespace {

// The signature rows of one refinement round over scratch.subset, written
// to scratch.sig as one row of equal width per subset position, which is
// returned: the element's old color (scratch.color, by position), then how
// it relates to each of the k color classes through every relation and
// function of arity <= 2 (higher arities contribute through the exhaustive
// phase instead; they are rare in this library).
std::size_t SignatureRows(const Structure& s, std::size_t k,
                          ProjectionScratch& scratch) {
  const Schema& schema = s.schema();
  const std::span<const Elem> domain = scratch.subset;
  const std::span<const Elem> old_to_new = scratch.old_to_new;
  const std::span<const int> color = scratch.color;
  const std::size_t n = domain.size();
  std::size_t width = 1;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const int arity = schema.relation(r).arity;
    width += arity == 1 ? 1 : arity == 2 ? 1 + 2 * k : 0;
  }
  for (int f = 0; f < schema.num_functions(); ++f) {
    const int arity = schema.function(f).arity;
    width += arity == 0 ? 1 : arity == 1 ? 2 + k : arity == 2 ? k * k + 1 : 0;
  }
  scratch.sig.assign(n * width, 0);
  for (std::size_t i = 0; i < n; ++i) {
    const Elem e = domain[i];
    int* row = scratch.sig.data() + i * width;
    *row++ = color[i];
    for (int r = 0; r < schema.num_relations(); ++r) {
      const int arity = schema.relation(r).arity;
      if (arity == 1) {
        *row++ = s.Holds1(r, e) ? 1 : 0;
      } else if (arity == 2) {
        // Self loop, then out- and in-neighbours per color.
        *row++ = s.Holds2(r, e, e) ? 1 : 0;
        for (std::size_t x = 0; x < n; ++x) {
          if (s.Holds2(r, e, domain[x])) ++row[color[x]];
          if (s.Holds2(r, domain[x], e)) ++row[k + color[x]];
        }
        row += 2 * k;
      }
    }
    for (int f = 0; f < schema.num_functions(); ++f) {
      const int arity = schema.function(f).arity;
      if (arity == 0) {
        *row++ = s.Apply(f, {}) == e ? 1 : 0;
      } else if (arity == 1) {
        // The image's color, a fixed point, then preimages per color.
        const Elem image = s.Apply1(f, e);
        *row++ = color[old_to_new[image]];
        *row++ = image == e ? 1 : 0;
        for (std::size_t x = 0; x < n; ++x) {
          if (s.Apply1(f, domain[x]) == e) ++row[color[x]];
        }
        row += k;
      } else if (arity == 2) {
        // Multiset over x of (color(x), color(f(e,x))) as a count matrix,
        // then whether f(e,e) = e.
        for (std::size_t x = 0; x < n; ++x) {
          ++row[color[x] * k + color[old_to_new[s.Apply2(f, e, domain[x])]]];
        }
        row += k * k;
        *row++ = s.Apply2(f, e, e) == e ? 1 : 0;
      }
    }
  }
  return width;
}

// Colors position i by the rank of row i of `sig` (rows of `width`
// entries) among the distinct rows in lexicographic order; returns the
// number of colors. `rows` is scratch.
std::size_t RankRows(std::span<const int> sig, std::size_t width,
                     std::vector<Elem>& rows, std::vector<int>& color) {
  auto row = [&](Elem i) { return sig.subspan(i * width, width); };
  auto less = [&](Elem a, Elem b) {
    return std::ranges::lexicographical_compare(row(a), row(b));
  };
  rows.resize(color.size());
  std::iota(rows.begin(), rows.end(), Elem{0});
  std::sort(rows.begin(), rows.end(), less);
  std::size_t colors = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0 && less(rows[i - 1], rows[i])) ++colors;
    color[rows[i]] = static_cast<int>(colors);
  }
  return rows.empty() ? 0 : colors + 1;
}

// Color refinement (1-WL): leaves in scratch.color a stable coloring of the
// subset's positions, as color ids in 0..k-1, canonical across isomorphic
// inputs. Elements start colored by the mark positions pointing at them.
void RefineColors(const Structure& s, std::span<const Elem> marks,
                  ProjectionScratch& scratch) {
  const std::size_t n = scratch.subset.size();
  scratch.sig.assign(n * marks.size(), 0);
  for (std::size_t i = 0; i < marks.size(); ++i) {
    scratch.sig[scratch.old_to_new[marks[i]] * marks.size() + i] = 1;
  }
  scratch.color.resize(n);
  scratch.refined.resize(n);
  std::size_t k =
      RankRows(scratch.sig, marks.size(), scratch.rows, scratch.color);
  for (;;) {
    const std::size_t width = SignatureRows(s, k, scratch);
    k = RankRows(scratch.sig, width, scratch.rows, scratch.refined);
    if (scratch.refined == scratch.color) return;
    scratch.color.swap(scratch.refined);
  }
}

}  // namespace

void CanonicalizeSubset(const Structure& s, std::span<const Elem> marks,
                        ProjectionScratch& scratch) {
  RefineColors(s, marks, scratch);
  const std::size_t n = scratch.subset.size();
  auto color = [&](Elem e) { return scratch.color[scratch.old_to_new[e]]; };

  // A candidate lists the subset's elements by position, ordered by color
  // class. The first is every class in id order; each next one steps the
  // last class that has a next ordering, resetting the classes after it,
  // so every ordering within every class is tried. The smallest key wins,
  // the earliest candidate among equal keys.
  std::vector<Elem>& order = scratch.order;
  order = scratch.subset;
  std::sort(order.begin(), order.end(), [&](Elem a, Elem b) {
    return color(a) != color(b) ? color(a) < color(b) : a < b;
  });
  // perm[element] = position.
  std::vector<Elem>& perm = scratch.perm;
  perm.resize(s.size());
  std::string& key = scratch.key;
  std::string& candidate = scratch.candidate;
  key.clear();
  for (;;) {
    for (std::size_t p = 0; p < n; ++p) perm[order[p]] = static_cast<Elem>(p);
    candidate.clear();
    for (Elem m : marks) AppendFullWidth(candidate, perm[m]);
    candidate.push_back('\x01');
    AppendRenamedContent(s, order, perm, scratch.args, candidate);
    if (key.empty() || candidate < key) {
      key.swap(candidate);
      scratch.best_order = order;
    }
    std::size_t end = n;
    while (end > 0) {
      std::size_t begin = end - 1;
      while (begin > 0 && color(order[begin - 1]) == color(order[end - 1])) {
        --begin;
      }
      if (std::next_permutation(order.begin() + begin, order.begin() + end)) {
        break;
      }
      end = begin;
    }
    if (end == 0) break;
  }
  for (std::size_t p = 0; p < n; ++p) {
    perm[scratch.best_order[p]] = static_cast<Elem>(p);
  }
  scratch.hash = HashRange(key.begin(), key.end());
}

CanonicalForm Canonicalize(const Structure& s, std::span<const Elem> marks) {
  ProjectionScratch scratch;
  scratch.subset.resize(s.size());
  std::iota(scratch.subset.begin(), scratch.subset.end(), Elem{0});
  scratch.old_to_new = scratch.subset;
  CanonicalizeSubset(s, marks, scratch);
  return CanonicalForm{std::move(scratch.key), std::move(scratch.perm),
                       scratch.hash};
}

namespace {

// Reads one AppendFullWidth varint at `*pos`; false when it is truncated or
// does not fit 32 bits.
bool ReadKeyVarint(std::string_view key, std::size_t* pos,
                   std::uint32_t* value) {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 35; shift += 7) {
    if (*pos >= key.size()) return false;
    const auto byte = static_cast<std::uint8_t>(key[(*pos)++]);
    v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) {
      if (v > std::numeric_limits<std::uint32_t>::max()) return false;
      *value = static_cast<std::uint32_t>(v);
      return true;
    }
  }
  return false;
}

}  // namespace

bool DecodeCanonicalKey(std::string_view key, const SchemaRef& schema,
                        std::size_t num_marks, Structure* structure,
                        std::vector<Elem>* marks) {
  std::size_t pos = 0;
  std::uint32_t max_mark = 0;
  if (marks != nullptr) marks->resize(num_marks);
  for (std::size_t i = 0; i < num_marks; ++i) {
    std::uint32_t m;
    if (!ReadKeyVarint(key, &pos, &m)) return false;
    max_mark = std::max(max_mark, m);
    if (marks != nullptr) (*marks)[i] = m;
  }
  std::uint32_t n;
  if (pos >= key.size() || key[pos++] != '\x01' ||
      !ReadKeyVarint(key, &pos, &n)) {
    return false;
  }
  const std::size_t rest = key.size() - pos;
  if ((num_marks > 0 && max_mark >= n) || n > num_marks + rest) return false;
  // Every table entry takes at least one byte, so a key is rejected before
  // anything is allocated for tables it cannot hold.
  const Schema& sig = *schema;
  std::uint64_t room = rest;
  auto fits = [&](int arity) {
    const std::uint64_t entries = IntPow(n, static_cast<unsigned>(arity));
    if (entries > room) return false;
    room -= entries;
    return true;
  };
  for (int r = 0; r < sig.num_relations(); ++r) {
    if (!fits(sig.relation(r).arity)) return false;
  }
  for (int f = 0; f < sig.num_functions(); ++f) {
    if (!fits(sig.function(f).arity)) return false;
  }

  if (structure != nullptr) *structure = Structure(schema, n);
  std::vector<Elem> scratch;
  return ForEachContentEntry(
             sig, n, [](Elem e) { return e; }, scratch,
             [&](int r, std::span<const Elem> t) {
               const auto bit = static_cast<std::uint8_t>(key[pos++]);
               if (bit > 1) return false;
               if (bit == 1 && structure != nullptr) {
                 structure->SetHolds(r, t, true);
               }
               return true;
             },
             [&](int f, std::span<const Elem> t) {
               std::uint32_t value;
               // A constant over the empty domain is the constructor's
               // untouched 0.
               if (!ReadKeyVarint(key, &pos, &value) ||
                   (n == 0 ? value != 0 : value >= n)) {
                 return false;
               }
               if (structure != nullptr && n > 0) {
                 structure->SetFunction(f, t, value);
               }
               return true;
             }) &&
         pos == key.size();
}

}  // namespace amalgam
