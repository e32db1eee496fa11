#include "fraisse/data_class.h"

#include <algorithm>
#include <cassert>
#include <numeric>

#include "fraisse/relational.h"
#include "util/enumerate.h"

namespace amalgam {

Structure ExtendToSchema(const Structure& s, const SchemaRef& extended) {
  assert(IsPrefixSchema(s.schema(), *extended));
  Structure result(extended, s.size());
  for (int r = 0; r < s.schema().num_relations(); ++r) {
    for (const auto& t : s.Tuples(r)) result.SetHolds(r, t, true);
  }
  std::vector<Elem> all(s.size());
  for (Elem e = 0; e < s.size(); ++e) all[e] = e;
  for (int f = 0; f < extended->num_functions(); ++f) {
    const int arity = extended->function(f).arity;
    const bool from_base = f < s.schema().num_functions();
    std::vector<Elem> args(arity);
    std::function<void(int)> rec = [&](int i) {
      if (i == arity) {
        result.SetFunction(f, args, from_base ? s.Apply(f, args) : args[0]);
        return;
      }
      for (Elem e = 0; e < s.size(); ++e) {
        args[i] = e;
        rec(i + 1);
      }
    };
    if (arity == 0) {
      if (s.size() > 0 && from_base) result.SetFunction(f, {}, s.Apply(f, {}));
    } else {
      rec(0);
    }
  }
  return result;
}

DataClass::DataClass(std::shared_ptr<const FraisseClass> base,
                     DataDomain domain, bool injective)
    : base_(std::move(base)), domain_(domain), injective_(injective) {
  Schema extended = *base_->schema();
  data_rel_ = extended.AddRelation(
      domain_ == DataDomain::kNaturalsWithEquality ? "deq" : "dlt", 2);
  schema_ = MakeSchema(std::move(extended));
}

std::string DataClass::Fingerprint() const {
  return std::string("data|") +
         (domain_ == DataDomain::kNaturalsWithEquality ? "deq" : "dlt") +
         (injective_ ? "|injective|" : "|arbitrary|") + base_->Fingerprint();
}

bool DataClass::DataPartValid(const Structure& s) const {
  const Elem n = static_cast<Elem>(s.size());
  if (domain_ == DataDomain::kNaturalsWithEquality) {
    if (injective_) {
      // deq must be exactly the diagonal.
      for (Elem a = 0; a < n; ++a) {
        for (Elem b = 0; b < n; ++b) {
          if (s.Holds2(data_rel_, a, b) != (a == b)) return false;
        }
      }
      return true;
    }
    return IsEquivalenceRelation(s, data_rel_);
  }
  // <Q,<>.
  if (injective_) return IsStrictLinearOrder(s, data_rel_);
  return IsStrictWeakOrder(s, data_rel_);
}

bool DataClass::Contains(const Structure& s) const {
  if (!(s.schema() == *schema_)) return false;
  if (!DataPartValid(s)) return false;
  return base_->Contains(ProjectToPrefixSchema(s, base_->schema()));
}

// Each base member, then each data labeling of it. The labelings of a
// member depend on its size, so the stream cannot seek: it walks the base
// stream from its start and skips the members before `start`.
void DataClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                       const PositionCallback& cb,
                                       const EnumControl& ctl) const {
  std::uint64_t index = 0;
  bool go = true;
  auto emit = [&](const Structure& s, std::span<const Elem> marks) {
    const std::uint64_t here = index++;
    if (ctl.generated != nullptr) ++*ctl.generated;
    go = here < start || cb(s, marks, here);
    return go;
  };
  base_->EnumerateGeneratedFrom(m, 0, [&](const Structure& d,
                                          std::span<const Elem> marks,
                                          std::uint64_t) {
    const int n = static_cast<int>(d.size());
    Structure extended = ExtendToSchema(d, schema_);
    auto clear_data = [&] {
      for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
        for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
          extended.SetHolds2(data_rel_, a, b, false);
        }
      }
    };
    if (domain_ == DataDomain::kNaturalsWithEquality) {
      if (injective_) {
        for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
          extended.SetHolds2(data_rel_, a, a, true);
        }
        return emit(extended, marks);
      }
      // All equivalence relations on the domain.
      ForEachSetPartition(n, [&](const std::vector<int>& class_of) {
        if (!go) return;
        clear_data();
        for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
          for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
            if (class_of[a] == class_of[b]) {
              extended.SetHolds2(data_rel_, a, b, true);
            }
          }
        }
        emit(extended, marks);
      });
      return go;
    }
    // <Q,<>: weak orders = partition into value classes + linear order of
    // the classes; injective = all strict linear orders.
    if (injective_) {
      ForEachPermutation(n, [&](const std::vector<int>& position_of) {
        if (!go) return;
        clear_data();
        for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
          for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
            if (position_of[a] < position_of[b]) {
              extended.SetHolds2(data_rel_, a, b, true);
            }
          }
        }
        emit(extended, marks);
      });
      return go;
    }
    ForEachSetPartition(n, [&](const std::vector<int>& class_of) {
      if (!go) return;
      const int num_classes =
          class_of.empty()
              ? 0
              : 1 + *std::max_element(class_of.begin(), class_of.end());
      ForEachPermutation(num_classes, [&](const std::vector<int>& class_pos) {
        if (!go) return;
        clear_data();
        for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
          for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
            if (class_pos[class_of[a]] < class_pos[class_of[b]]) {
              extended.SetHolds2(data_rel_, a, b, true);
            }
          }
        }
        emit(extended, marks);
      });
    });
    return go;
  }, EnumControl{nullptr, ctl.atom_cap});
}

std::optional<AmalgamResult> DataClass::Amalgamate(
    const Structure& a, const Structure& b,
    std::span<const Elem> b_to_a) const {
  // Amalgamate the base projections with the base class's operator, then
  // complete the data relation on the result (the proof of Proposition 1:
  // data values amalgamate independently of the base structure).
  Structure base_a = ProjectToPrefixSchema(a, base_->schema());
  Structure base_b = ProjectToPrefixSchema(b, base_->schema());
  auto base_am = base_->Amalgamate(base_a, base_b, b_to_a);
  if (!base_am.has_value()) return std::nullopt;

  AmalgamResult result{ExtendToSchema(base_am->structure, schema_),
                       std::move(base_am->embed_a),
                       std::move(base_am->embed_b)};
  Structure& s = result.structure;
  const Elem n = static_cast<Elem>(s.size());

  // Union-find over "same data value" classes: pairs that are equal within
  // a part stay equal; everything else becomes distinct.
  std::vector<Elem> parent(n);
  std::iota(parent.begin(), parent.end(), 0);
  std::function<Elem(Elem)> find = [&](Elem x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  auto unite = [&](Elem x, Elem y) { parent[find(x)] = find(y); };
  auto same_in_part = [&](const Structure& part, Elem x, Elem y) {
    if (domain_ == DataDomain::kNaturalsWithEquality) {
      return part.Holds2(data_rel_, x, y);
    }
    return !part.Holds2(data_rel_, x, y) && !part.Holds2(data_rel_, y, x);
  };
  if (!injective_) {
    for (Elem x = 0; x < a.size(); ++x) {
      for (Elem y = 0; y < a.size(); ++y) {
        if (x != y && same_in_part(a, x, y)) {
          unite(result.embed_a[x], result.embed_a[y]);
        }
      }
    }
    for (Elem x = 0; x < b.size(); ++x) {
      for (Elem y = 0; y < b.size(); ++y) {
        if (x != y && same_in_part(b, x, y)) {
          unite(result.embed_b[x], result.embed_b[y]);
        }
      }
    }
  }

  if (domain_ == DataDomain::kNaturalsWithEquality) {
    for (Elem x = 0; x < n; ++x) {
      for (Elem y = 0; y < n; ++y) {
        s.SetHolds2(data_rel_, x, y, find(x) == find(y));
      }
    }
    return result;
  }

  // <Q,<>: order the value classes. Build the class precedence relation
  // from both parts, close transitively, and extend linearly.
  std::vector<char> before(static_cast<std::size_t>(n) * n, 0);
  auto add_before = [&](Elem x, Elem y) {
    before[static_cast<std::size_t>(find(x)) * n + find(y)] = 1;
  };
  for (Elem x = 0; x < a.size(); ++x) {
    for (Elem y = 0; y < a.size(); ++y) {
      if (a.Holds2(data_rel_, x, y)) {
        add_before(result.embed_a[x], result.embed_a[y]);
      }
    }
  }
  for (Elem x = 0; x < b.size(); ++x) {
    for (Elem y = 0; y < b.size(); ++y) {
      if (b.Holds2(data_rel_, x, y)) {
        add_before(result.embed_b[x], result.embed_b[y]);
      }
    }
  }
  for (Elem k = 0; k < n; ++k) {
    for (Elem i = 0; i < n; ++i) {
      for (Elem j = 0; j < n; ++j) {
        if (before[i * n + k] && before[k * n + j]) before[i * n + j] = 1;
      }
    }
  }
  for (Elem i = 0; i < n; ++i) {
    if (before[i * n + i]) return std::nullopt;  // inconsistent instance
  }
  // Deterministic linear extension over class representatives.
  std::vector<Elem> reps;
  for (Elem e = 0; e < n; ++e) {
    if (find(e) == e) reps.push_back(e);
  }
  std::vector<Elem> order;
  std::vector<char> placed(n, 0);
  for (std::size_t step = 0; step < reps.size(); ++step) {
    for (Elem candidate : reps) {
      if (placed[candidate]) continue;
      bool minimal = true;
      for (Elem other : reps) {
        if (!placed[other] && before[other * n + candidate]) {
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
  std::vector<Elem> position(n, 0);
  for (std::size_t i = 0; i < order.size(); ++i) position[order[i]] = i;
  for (Elem x = 0; x < n; ++x) {
    for (Elem y = 0; y < n; ++y) {
      s.SetHolds2(data_rel_, x, y,
                  position[find(x)] < position[find(y)]);
    }
  }
  return result;
}

}  // namespace amalgam
