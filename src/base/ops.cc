#include "base/ops.h"

#include <algorithm>
#include <cassert>

#include "util/enumerate.h"

namespace amalgam {

namespace {

// Calls cb(args) for every tuple in subset^arity, where subset is a list of
// element ids.
void ForEachArgTuple(std::span<const Elem> subset, int arity,
                     const std::function<void(const std::vector<Elem>&)>& cb) {
  std::vector<Elem> args(arity);
  ForEachTuple(static_cast<int>(subset.size()), arity,
               [&](const std::vector<int>& idx) {
                 for (int i = 0; i < arity; ++i) args[i] = subset[idx[i]];
                 cb(args);
               });
}

// True if `subset` (a sorted list of distinct elements) is closed under all
// function symbols of the structure's schema.
[[maybe_unused]] bool IsClosedUnderFunctions(const Structure& s,
                                             std::span<const Elem> subset) {
  std::vector<char> in_subset(s.size(), 0);
  for (Elem e : subset) in_subset[e] = 1;
  bool closed = true;
  for (int f = 0; f < s.schema().num_functions(); ++f) {
    const int arity = s.schema().function(f).arity;
    ForEachArgTuple(subset, arity, [&](const std::vector<Elem>& args) {
      if (!in_subset[s.Apply(f, args)]) closed = false;
    });
  }
  return closed;
}

}  // namespace

std::vector<Elem> GeneratedSubset(const Structure& s,
                                  std::span<const Elem> seeds) {
  ProjectionScratch scratch;
  ComputeGeneratedSubset(s, seeds, scratch);
  return std::move(scratch.subset);
}

SubstructureResult Restrict(const Structure& s, std::span<const Elem> subset) {
  assert(std::is_sorted(subset.begin(), subset.end()));
  assert(IsClosedUnderFunctions(s, subset));
  SubstructureResult result{Structure(s.schema_ref(), subset.size()),
                            std::vector<Elem>(s.size(), kNoElem),
                            std::vector<Elem>(subset.begin(), subset.end())};
  for (std::size_t i = 0; i < subset.size(); ++i) {
    result.old_to_new[subset[i]] = static_cast<Elem>(i);
  }
  for (int r = 0; r < s.schema().num_relations(); ++r) {
    const int arity = s.schema().relation(r).arity;
    ForEachArgTuple(subset, arity, [&](const std::vector<Elem>& args) {
      if (!s.Holds(r, args)) return;
      std::vector<Elem> mapped(arity);
      for (int i = 0; i < arity; ++i) mapped[i] = result.old_to_new[args[i]];
      result.structure.SetHolds(r, mapped, true);
    });
  }
  for (int f = 0; f < s.schema().num_functions(); ++f) {
    const int arity = s.schema().function(f).arity;
    ForEachArgTuple(subset, arity, [&](const std::vector<Elem>& args) {
      Elem value = s.Apply(f, args);
      std::vector<Elem> mapped(arity);
      for (int i = 0; i < arity; ++i) mapped[i] = result.old_to_new[args[i]];
      result.structure.SetFunction(f, mapped, result.old_to_new[value]);
    });
  }
  return result;
}

SubstructureResult GeneratedSubstructure(const Structure& s,
                                         std::span<const Elem> seeds) {
  return Restrict(s, GeneratedSubset(s, seeds));
}

void ComputeGeneratedSubset(const Structure& s, std::span<const Elem> seeds,
                            ProjectionScratch& scratch) {
  // Until the closure is complete, old_to_new marks membership: kNoElem
  // for elements outside, 0 for elements inside.
  const std::size_t n = s.size();
  std::vector<Elem>& in_set = scratch.old_to_new;
  in_set.assign(n, kNoElem);
  for (Elem e : seeds) in_set[e] = 0;
  for (int f = 0; f < s.schema().num_functions(); ++f) {
    if (s.schema().function(f).arity == 0 && n > 0) in_set[s.Apply(f, {})] = 0;
  }
  bool changed = true;
  while (changed) {
    changed = false;
    scratch.subset.clear();
    for (Elem e = 0; e < n; ++e) {
      if (in_set[e] != kNoElem) scratch.subset.push_back(e);
    }
    for (int f = 0; f < s.schema().num_functions(); ++f) {
      const int arity = s.schema().function(f).arity;
      if (arity == 0) continue;
      ForEachTableTuple(
          scratch.subset.size(), arity,
          [&](Elem i) { return scratch.subset[i]; }, scratch.args,
          [&](std::span<const Elem> args) {
            const Elem value = s.Apply(f, args);
            if (in_set[value] == kNoElem) {
              in_set[value] = 0;
              changed = true;
            }
            return true;
          });
    }
  }
  // The last round added nothing, so `subset` is the closure.
  for (std::size_t i = 0; i < scratch.subset.size(); ++i) {
    scratch.old_to_new[scratch.subset[i]] = static_cast<Elem>(i);
  }
}

void AppendRenamedContent(const Structure& s, std::span<const Elem> order,
                          std::span<const Elem> old_to_new,
                          std::vector<Elem>& scratch, std::string& out) {
  AppendFullWidth(out, static_cast<std::uint32_t>(order.size()));
  ForEachContentEntry(
      s.schema(), order.size(), [&](Elem i) { return order[i]; }, scratch,
      [&](int r, std::span<const Elem> args) {
        out.push_back(s.Holds(r, args) ? 1 : 0);
        return true;
      },
      [&](int f, std::span<const Elem> args) {
        // A constant over the empty domain is the constructor's untouched 0.
        AppendFullWidth(out, order.empty() ? 0 : old_to_new[s.Apply(f, args)]);
        return true;
      });
}

Structure DisjointUnion(const Structure& a, const Structure& b) {
  assert(a.schema() == b.schema());
  const Schema& schema = a.schema();
  for (int f = 0; f < schema.num_functions(); ++f) {
    assert(schema.function(f).arity > 0 &&
           "disjoint union is undefined for schemas with constants");
  }
  const std::size_t na = a.size();
  Structure result(a.schema_ref(), na + b.size());
  for (int r = 0; r < schema.num_relations(); ++r) {
    for (auto& t : a.Tuples(r)) result.SetHolds(r, t, true);
    for (auto t : b.Tuples(r)) {
      for (Elem& e : t) e += static_cast<Elem>(na);
      result.SetHolds(r, t, true);
    }
  }
  std::vector<Elem> all(result.size());
  for (Elem e = 0; e < result.size(); ++e) all[e] = e;
  for (int f = 0; f < schema.num_functions(); ++f) {
    const int arity = schema.function(f).arity;
    // Default: mixed tuples map to their first argument.
    ForEachArgTuple(all, arity, [&](const std::vector<Elem>& args) {
      result.SetFunction(f, args, args[0]);
    });
    std::vector<Elem> a_elems(na), b_elems(b.size());
    for (Elem e = 0; e < na; ++e) a_elems[e] = e;
    for (Elem e = 0; e < b.size(); ++e) b_elems[e] = e;
    ForEachArgTuple(a_elems, arity, [&](const std::vector<Elem>& args) {
      result.SetFunction(f, args, a.Apply(f, args));
    });
    ForEachArgTuple(b_elems, arity, [&](const std::vector<Elem>& args) {
      std::vector<Elem> shifted(arity);
      for (int i = 0; i < arity; ++i) {
        shifted[i] = args[i] + static_cast<Elem>(na);
      }
      result.SetFunction(f, shifted,
                         b.Apply(f, args) + static_cast<Elem>(na));
    });
  }
  return result;
}

AmalgamResult FreeAmalgam(const Structure& a, const Structure& b,
                          std::span<const Elem> b_to_a) {
  assert(a.schema() == b.schema());
  assert(b_to_a.size() == b.size());
  const Schema& schema = a.schema();
  const std::size_t na = a.size();
  std::size_t n = na;
  std::vector<Elem> embed_b(b.size(), kNoElem);
  for (std::size_t e = 0; e < b.size(); ++e) {
    if (b_to_a[e] != kNoElem) {
      embed_b[e] = b_to_a[e];
    } else {
      embed_b[e] = static_cast<Elem>(n++);
    }
  }
  AmalgamResult result{Structure(a.schema_ref(), n),
                       std::vector<Elem>(na),
                       std::move(embed_b)};
  for (Elem e = 0; e < na; ++e) result.embed_a[e] = e;

  for (int r = 0; r < schema.num_relations(); ++r) {
    for (auto& t : a.Tuples(r)) result.structure.SetHolds(r, t, true);
    for (auto t : b.Tuples(r)) {
      for (Elem& e : t) e = result.embed_b[e];
      result.structure.SetHolds(r, t, true);
    }
  }
  std::vector<Elem> all(n);
  for (Elem e = 0; e < n; ++e) all[e] = e;
  std::vector<Elem> a_elems(na), b_elems(b.size());
  for (Elem e = 0; e < na; ++e) a_elems[e] = e;
  for (Elem e = 0; e < b.size(); ++e) b_elems[e] = e;
  for (int f = 0; f < schema.num_functions(); ++f) {
    const int arity = schema.function(f).arity;
    if (arity == 0) {
      if (n > 0) result.structure.SetFunction(f, {}, a.Apply(f, {}));
      continue;
    }
    // Default for mixed tuples: first argument (encodes "undefined").
    ForEachArgTuple(all, arity, [&](const std::vector<Elem>& args) {
      result.structure.SetFunction(f, args, args[0]);
    });
    ForEachArgTuple(b_elems, arity, [&](const std::vector<Elem>& args) {
      std::vector<Elem> mapped(arity);
      for (int i = 0; i < arity; ++i) mapped[i] = result.embed_b[args[i]];
      result.structure.SetFunction(f, mapped, result.embed_b[b.Apply(f, args)]);
    });
    // a's values take precedence on the common part; the instance is
    // assumed consistent (both sides agree there), so order is irrelevant
    // for correct inputs.
    ForEachArgTuple(a_elems, arity, [&](const std::vector<Elem>& args) {
      result.structure.SetFunction(f, args, a.Apply(f, args));
    });
  }
  return result;
}

namespace {

// Shared backtracking search for embeddings / homomorphisms.
// `strong` = require injectivity + relation reflection (embedding).
std::optional<std::vector<Elem>> FindMapping(const Structure& a,
                                             const Structure& b, bool strong,
                                             std::span<const Elem> fixed) {
  const std::size_t na = a.size();
  std::vector<Elem> img(na, kNoElem);
  for (std::size_t i = 0; i < fixed.size() && i < na; ++i) img[i] = fixed[i];
  std::vector<char> used(b.size(), 0);
  if (strong) {
    for (std::size_t i = 0; i < na; ++i) {
      if (img[i] != kNoElem) {
        if (used[img[i]]) return std::nullopt;
        used[img[i]] = 1;
      }
    }
  }

  // Checks all constraints among currently-assigned elements that involve
  // element `e`.
  auto consistent = [&](Elem e) -> bool {
    std::vector<Elem> assigned;
    for (Elem x = 0; x < na; ++x) {
      if (img[x] != kNoElem) assigned.push_back(x);
    }
    for (int r = 0; r < a.schema().num_relations(); ++r) {
      const int arity = a.schema().relation(r).arity;
      bool ok = true;
      ForEachArgTuple(assigned, arity, [&](const std::vector<Elem>& args) {
        if (!ok) return;
        bool involves_e = false;
        for (Elem x : args) involves_e |= (x == e);
        if (!involves_e) return;
        std::vector<Elem> mapped(arity);
        for (int i = 0; i < arity; ++i) mapped[i] = img[args[i]];
        const bool ha = a.Holds(r, args);
        const bool hb = b.Holds(r, mapped);
        if (ha && !hb) ok = false;
        if (strong && !ha && hb) ok = false;
      });
      if (!ok) return false;
    }
    for (int f = 0; f < a.schema().num_functions(); ++f) {
      const int arity = a.schema().function(f).arity;
      bool ok = true;
      ForEachArgTuple(assigned, arity, [&](const std::vector<Elem>& args) {
        if (!ok) return;
        Elem value = a.Apply(f, args);
        if (img[value] == kNoElem) return;  // checked once value is assigned
        bool involves_e = (value == e);
        for (Elem x : args) involves_e |= (x == e);
        if (!involves_e) return;
        std::vector<Elem> mapped(arity);
        for (int i = 0; i < arity; ++i) mapped[i] = img[args[i]];
        if (b.Apply(f, mapped) != img[value]) ok = false;
      });
      if (!ok) return false;
    }
    // 0-ary functions (constants).
    for (int f = 0; f < a.schema().num_functions(); ++f) {
      if (a.schema().function(f).arity != 0 || na == 0) continue;
      Elem ca = a.Apply(f, {});
      if (img[ca] != kNoElem && img[ca] != b.Apply(f, {})) return false;
    }
    return true;
  };

  // Validate pre-fixed assignments.
  for (Elem e = 0; e < na; ++e) {
    if (img[e] != kNoElem && !consistent(e)) return std::nullopt;
  }

  std::function<bool(Elem)> rec = [&](Elem e) -> bool {
    while (e < na && img[e] != kNoElem) ++e;
    if (e >= na) return true;
    for (Elem candidate = 0; candidate < b.size(); ++candidate) {
      if (strong && used[candidate]) continue;
      img[e] = candidate;
      if (strong) used[candidate] = 1;
      if (consistent(e) && rec(e + 1)) return true;
      if (strong) used[candidate] = 0;
      img[e] = kNoElem;
    }
    return false;
  };
  if (!rec(0)) return std::nullopt;
  return img;
}

}  // namespace

std::optional<std::vector<Elem>> FindEmbedding(const Structure& a,
                                               const Structure& b,
                                               std::span<const Elem> fixed) {
  return FindMapping(a, b, /*strong=*/true, fixed);
}

std::optional<std::vector<Elem>> FindHomomorphism(const Structure& a,
                                                  const Structure& b) {
  return FindMapping(a, b, /*strong=*/false, {});
}

bool AreIsomorphic(const Structure& a, const Structure& b) {
  if (a.size() != b.size()) return false;
  return FindEmbedding(a, b).has_value();
}

bool IsPrefixSchema(const Schema& base, const Schema& extended) {
  if (base.num_relations() > extended.num_relations()) return false;
  if (base.num_functions() > extended.num_functions()) return false;
  for (int r = 0; r < base.num_relations(); ++r) {
    if (base.relation(r).name != extended.relation(r).name ||
        base.relation(r).arity != extended.relation(r).arity) {
      return false;
    }
  }
  for (int f = 0; f < base.num_functions(); ++f) {
    if (base.function(f).name != extended.function(f).name ||
        base.function(f).arity != extended.function(f).arity) {
      return false;
    }
  }
  return true;
}

Structure ProjectToPrefixSchema(const Structure& s, const SchemaRef& base) {
  assert(IsPrefixSchema(*base, s.schema()));
  Structure result(base, s.size());
  for (int r = 0; r < base->num_relations(); ++r) {
    for (const auto& t : s.Tuples(r)) result.SetHolds(r, t, true);
  }
  for (int f = 0; f < base->num_functions(); ++f) {
    const int arity = base->function(f).arity;
    std::vector<Elem> args(arity);
    std::function<void(int)> rec = [&](int i) {
      if (i == arity) {
        result.SetFunction(f, args, s.Apply(f, args));
        return;
      }
      for (Elem e = 0; e < s.size(); ++e) {
        args[i] = e;
        rec(i + 1);
      }
    };
    if (arity == 0) {
      if (s.size() > 0) result.SetFunction(f, {}, s.Apply(f, {}));
    } else {
      rec(0);
    }
  }
  return result;
}

}  // namespace amalgam
