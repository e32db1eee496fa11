#include "base/canonical.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <limits>
#include <map>

#include "util/enumerate.h"
#include "util/hash.h"

namespace amalgam {

namespace {

// One refinement round: each element's new color is determined by its old
// color plus how it relates to each color class through every relation and
// function of arity <= 2 (higher arities contribute through the exhaustive
// phase instead; they are rare in this library).
std::vector<int> RefineOnce(const Structure& s, const std::vector<int>& color) {
  const std::size_t n = s.size();
  // Signature: old color + per-symbol summaries.
  std::vector<std::vector<std::int64_t>> sig(n);
  for (std::size_t e = 0; e < n; ++e) sig[e].push_back(color[e]);
  const int num_colors =
      n == 0 ? 0 : 1 + *std::max_element(color.begin(), color.end());
  for (int r = 0; r < s.schema().num_relations(); ++r) {
    const int arity = s.schema().relation(r).arity;
    if (arity == 1) {
      for (Elem e = 0; e < n; ++e) sig[e].push_back(s.Holds1(r, e) ? 1 : 0);
    } else if (arity == 2) {
      for (Elem e = 0; e < n; ++e) {
        std::vector<std::int64_t> out_counts(num_colors, 0);
        std::vector<std::int64_t> in_counts(num_colors, 0);
        std::int64_t self = s.Holds2(r, e, e) ? 1 : 0;
        for (Elem x = 0; x < n; ++x) {
          if (s.Holds2(r, e, x)) ++out_counts[color[x]];
          if (s.Holds2(r, x, e)) ++in_counts[color[x]];
        }
        sig[e].push_back(self);
        sig[e].insert(sig[e].end(), out_counts.begin(), out_counts.end());
        sig[e].insert(sig[e].end(), in_counts.begin(), in_counts.end());
      }
    }
  }
  for (int f = 0; f < s.schema().num_functions(); ++f) {
    const int arity = s.schema().function(f).arity;
    if (arity == 0) {
      if (n == 0) continue;
      Elem c = s.Apply(f, {});
      for (Elem e = 0; e < n; ++e) sig[e].push_back(e == c ? 1 : 0);
    } else if (arity == 1) {
      for (Elem e = 0; e < n; ++e) {
        sig[e].push_back(color[s.Apply1(f, e)]);
        sig[e].push_back(s.Apply1(f, e) == e ? 1 : 0);
        std::vector<std::int64_t> pre_counts(num_colors, 0);
        for (Elem x = 0; x < n; ++x) {
          if (s.Apply1(f, x) == e) ++pre_counts[color[x]];
        }
        sig[e].insert(sig[e].end(), pre_counts.begin(), pre_counts.end());
      }
    } else if (arity == 2) {
      for (Elem e = 0; e < n; ++e) {
        // Multiset over x of (color(x), color(f(e,x))) — flattened as a
        // count matrix.
        std::vector<std::int64_t> counts(
            static_cast<std::size_t>(num_colors) * num_colors, 0);
        for (Elem x = 0; x < n; ++x) {
          ++counts[static_cast<std::size_t>(color[x]) * num_colors +
                   color[s.Apply2(f, e, x)]];
        }
        sig[e].insert(sig[e].end(), counts.begin(), counts.end());
        sig[e].push_back(s.Apply2(f, e, e) == e ? 1 : 0);
      }
    }
  }
  // Canonical renumbering: sort distinct signatures.
  std::map<std::vector<std::int64_t>, int> order;
  for (const auto& g : sig) order.emplace(g, 0);
  int next = 0;
  for (auto& [key, id] : order) id = next++;
  std::vector<int> result(n);
  for (std::size_t e = 0; e < n; ++e) result[e] = order[sig[e]];
  return result;
}

}  // namespace

std::vector<int> RefineColors(const Structure& s,
                              std::span<const Elem> marks) {
  const std::size_t n = s.size();
  // Initial colors: the pattern of mark positions pointing at each element
  // plus unary relation memberships (the latter is subsumed by refinement
  // but cheap and helps the first round).
  std::vector<std::vector<std::int64_t>> sig(n);
  for (std::size_t e = 0; e < n; ++e) {
    for (std::size_t i = 0; i < marks.size(); ++i) {
      sig[e].push_back(marks[i] == e ? 1 : 0);
    }
  }
  std::map<std::vector<std::int64_t>, int> order;
  for (const auto& g : sig) order.emplace(g, 0);
  int next = 0;
  for (auto& [key, id] : order) id = next++;
  std::vector<int> color(n);
  for (std::size_t e = 0; e < n; ++e) color[e] = order[sig[e]];

  while (true) {
    std::vector<int> refined = RefineOnce(s, color);
    if (refined == color) return color;
    color = std::move(refined);
  }
}

CanonicalForm Canonicalize(const Structure& s, std::span<const Elem> marks) {
  const std::size_t n = s.size();
  std::vector<int> color = RefineColors(s, marks);

  // Elements sorted by (color, id); the canonical permutation must order
  // elements by color class; within a class we try every ordering and keep
  // the lexicographically smallest encoding.
  std::vector<std::vector<Elem>> classes;
  {
    const int num_colors =
        n == 0 ? 0 : 1 + *std::max_element(color.begin(), color.end());
    classes.resize(num_colors);
    for (Elem e = 0; e < n; ++e) classes[color[e]].push_back(e);
  }

  std::string best_key;
  Structure best_structure(s.schema_ref(), 0);
  std::vector<Elem> best_marks;
  std::vector<Elem> best_perm;
  bool have_best = false;

  // perm[old] = new position.
  std::vector<Elem> perm(n, kNoElem);
  std::function<void(std::size_t, Elem)> assign = [&](std::size_t class_idx,
                                                      Elem next_position) {
    if (class_idx == classes.size()) {
      Structure renamed = s.ApplyPermutation(perm);
      std::vector<Elem> renamed_marks(marks.size());
      for (std::size_t i = 0; i < marks.size(); ++i) {
        renamed_marks[i] = perm[marks[i]];
      }
      std::string key;
      key.reserve(4 * marks.size() + 8);
      for (Elem m : renamed_marks) AppendFullWidth(key, m);
      key.push_back('\x01');
      key += renamed.EncodeContent();
      if (!have_best || key < best_key) {
        best_key = std::move(key);
        best_structure = std::move(renamed);
        best_marks = std::move(renamed_marks);
        best_perm = perm;
        have_best = true;
      }
      return;
    }
    std::vector<Elem>& cls = classes[class_idx];
    std::sort(cls.begin(), cls.end());
    std::vector<Elem> ordering = cls;
    do {
      for (std::size_t i = 0; i < ordering.size(); ++i) {
        perm[ordering[i]] = next_position + static_cast<Elem>(i);
      }
      assign(class_idx + 1, next_position + static_cast<Elem>(cls.size()));
    } while (std::next_permutation(ordering.begin(), ordering.end()));
    for (Elem e : cls) perm[e] = kNoElem;
  };
  assign(0, 0);

  assert(have_best || n == 0);
  if (!have_best) {
    // Empty domain: single canonical form.
    best_structure = Structure(s.schema_ref(), 0);
    best_key = std::string("\x01") + best_structure.EncodeContent();
  }
  const std::size_t hash = HashRange(best_key.begin(), best_key.end());
  return CanonicalForm{std::move(best_structure), std::move(best_marks),
                       std::move(best_key), std::move(best_perm), hash};
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

// n^arity, or SIZE_MAX once it passes `limit`.
std::size_t TableEntries(std::size_t n, int arity, std::size_t limit) {
  std::size_t entries = 1;
  for (int i = 0; i < arity; ++i) {
    if (n != 0 && entries > limit / n) return SIZE_MAX;
    entries *= n;
  }
  return entries > limit ? SIZE_MAX : entries;
}

// The argument tuple of dense table index `idx` (little-endian digits).
void TupleOf(std::size_t idx, std::size_t n, std::vector<Elem>& tuple) {
  for (Elem& e : tuple) {
    e = static_cast<Elem>(idx % n);
    idx /= n;
  }
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
  // The tables must fit the bytes left (every entry takes at least one)
  // before any is allocated.
  const Schema& sig = *schema;
  std::size_t needed = 0;
  for (int r = 0; r < sig.num_relations(); ++r) {
    const std::size_t entries = TableEntries(n, sig.relation(r).arity, rest);
    if (entries == SIZE_MAX || (needed += entries) > rest) return false;
  }
  for (int f = 0; f < sig.num_functions(); ++f) {
    const std::size_t entries = TableEntries(n, sig.function(f).arity, rest);
    if (entries == SIZE_MAX || (needed += entries) > rest) return false;
  }

  if (structure != nullptr) *structure = Structure(schema, n);
  std::vector<Elem> tuple;
  for (int r = 0; r < sig.num_relations(); ++r) {
    const int arity = sig.relation(r).arity;
    const std::size_t entries = TableEntries(n, arity, rest);
    if (structure != nullptr) tuple.resize(arity);
    for (std::size_t idx = 0; idx < entries; ++idx) {
      const auto bit = static_cast<std::uint8_t>(key[pos++]);
      if (bit > 1) return false;
      if (bit == 0 || structure == nullptr) continue;
      TupleOf(idx, n, tuple);
      structure->SetHolds(r, tuple, true);
    }
  }
  for (int f = 0; f < sig.num_functions(); ++f) {
    const int arity = sig.function(f).arity;
    const std::size_t entries = TableEntries(n, arity, rest);
    if (structure != nullptr) tuple.resize(arity);
    for (std::size_t idx = 0; idx < entries; ++idx) {
      std::uint32_t value;
      if (!ReadKeyVarint(key, &pos, &value)) return false;
      // A constant over the empty domain is the constructor's untouched 0.
      if (n == 0 ? value != 0 : value >= n) return false;
      if (structure == nullptr || n == 0) continue;
      TupleOf(idx, n, tuple);
      structure->SetFunction(f, tuple, value);
    }
  }
  return pos == key.size();
}

}  // namespace amalgam
