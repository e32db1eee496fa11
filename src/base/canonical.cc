#include "base/canonical.h"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <numeric>

#include "base/ops.h"
#include "util/enumerate.h"
#include "util/hash.h"

namespace amalgam {

namespace {

// The signature rows of one refinement round, written to `sig` as n rows
// of equal width, which is returned: each element's old color, then how it
// relates to each of the k color classes through every relation and
// function of arity <= 2 (higher arities contribute through the exhaustive
// phase instead; they are rare in this library).
std::size_t SignatureRows(const Structure& s, std::span<const int> color,
                          std::size_t k, std::vector<int>& sig) {
  const Schema& schema = s.schema();
  const std::size_t n = s.size();
  std::size_t width = 1;
  for (int r = 0; r < schema.num_relations(); ++r) {
    const int arity = schema.relation(r).arity;
    width += arity == 1 ? 1 : arity == 2 ? 1 + 2 * k : 0;
  }
  for (int f = 0; f < schema.num_functions(); ++f) {
    const int arity = schema.function(f).arity;
    width += arity == 0 ? 1 : arity == 1 ? 2 + k : arity == 2 ? k * k + 1 : 0;
  }
  sig.assign(n * width, 0);
  for (Elem e = 0; e < n; ++e) {
    int* row = sig.data() + e * width;
    *row++ = color[e];
    for (int r = 0; r < schema.num_relations(); ++r) {
      const int arity = schema.relation(r).arity;
      if (arity == 1) {
        *row++ = s.Holds1(r, e) ? 1 : 0;
      } else if (arity == 2) {
        // Self loop, then out- and in-neighbours per color.
        *row++ = s.Holds2(r, e, e) ? 1 : 0;
        for (Elem x = 0; x < n; ++x) {
          if (s.Holds2(r, e, x)) ++row[color[x]];
          if (s.Holds2(r, x, e)) ++row[k + color[x]];
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
        *row++ = color[image];
        *row++ = image == e ? 1 : 0;
        for (Elem x = 0; x < n; ++x) {
          if (s.Apply1(f, x) == e) ++row[color[x]];
        }
        row += k;
      } else if (arity == 2) {
        // Multiset over x of (color(x), color(f(e,x))) as a count matrix,
        // then whether f(e,e) = e.
        for (Elem x = 0; x < n; ++x) {
          ++row[color[x] * k + color[s.Apply2(f, e, x)]];
        }
        row += k * k;
        *row++ = s.Apply2(f, e, e) == e ? 1 : 0;
      }
    }
  }
  return width;
}

// Colors element e by the rank of row e of `sig` (rows of `width`
// entries) among the distinct rows in lexicographic order; returns the
// number of colors. `rows` is scratch.
std::size_t RankRows(std::span<const int> sig, std::size_t width,
                     std::vector<Elem>& rows, std::vector<int>& color) {
  auto row = [&](Elem e) { return sig.subspan(e * width, width); };
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

// Color refinement (1-WL): a stable coloring of the elements, as color ids
// in 0..k-1, canonical across isomorphic inputs. Elements start colored by
// the mark positions pointing at them.
std::vector<int> RefineColors(const Structure& s,
                              std::span<const Elem> marks) {
  const std::size_t n = s.size();
  std::vector<int> sig(n * marks.size());
  for (std::size_t i = 0; i < marks.size(); ++i) {
    sig[marks[i] * marks.size() + i] = 1;
  }
  std::vector<Elem> rows;
  std::vector<int> color(n);
  std::vector<int> refined(n);
  std::size_t k = RankRows(sig, marks.size(), rows, color);
  for (;;) {
    const std::size_t width = SignatureRows(s, color, k, sig);
    k = RankRows(sig, width, rows, refined);
    if (refined == color) return color;
    color.swap(refined);
  }
}

}  // namespace

CanonicalForm Canonicalize(const Structure& s, std::span<const Elem> marks) {
  const std::size_t n = s.size();
  const std::vector<int> color = RefineColors(s, marks);

  // A candidate lists the elements by position, ordered by color class.
  // The first is every class in id order; each next one steps the last
  // class that has a next ordering, resetting the classes after it, so
  // every ordering within every class is tried. The smallest key wins,
  // the earliest candidate among equal keys.
  std::vector<Elem> order(n);
  std::iota(order.begin(), order.end(), Elem{0});
  std::sort(order.begin(), order.end(), [&](Elem a, Elem b) {
    return color[a] != color[b] ? color[a] < color[b] : a < b;
  });
  // perm[old] = position.
  std::vector<Elem> perm(n);
  std::vector<Elem> best_perm;
  std::string key;
  std::string best_key;
  std::vector<Elem> scratch;
  for (;;) {
    for (std::size_t p = 0; p < n; ++p) perm[order[p]] = static_cast<Elem>(p);
    key.clear();
    for (Elem m : marks) AppendFullWidth(key, perm[m]);
    key.push_back('\x01');
    AppendRenamedContent(s, order, perm, scratch, key);
    if (best_key.empty() || key < best_key) {
      best_key.swap(key);
      best_perm = perm;
    }
    std::size_t end = n;
    while (end > 0) {
      std::size_t begin = end - 1;
      while (begin > 0 && color[order[begin - 1]] == color[order[end - 1]]) {
        --begin;
      }
      if (std::next_permutation(order.begin() + begin, order.begin() + end)) {
        break;
      }
      end = begin;
    }
    if (end == 0) break;
  }
  const std::size_t hash = HashRange(best_key.begin(), best_key.end());
  return CanonicalForm{std::move(best_key), std::move(best_perm), hash};
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
