#include "fraisse/hom_class.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "fraisse/relational.h"
#include "util/enumerate.h"

namespace amalgam {

HomClass::HomClass(Structure template_db)
    : template_(std::move(template_db)), schema_(template_.schema_ref()) {
  if (schema_->num_functions() != 0) {
    throw std::invalid_argument("HOM templates must be relational");
  }
}

std::string HomClass::Fingerprint() const {
  // EncodeContent is unambiguous given the schema (its varints are
  // self-delimiting and its tables have schema-determined lengths), so
  // schema fingerprint + content cannot be imitated by another template.
  return "hom|" + schema_->Fingerprint() + "|" + template_.EncodeContent();
}

bool HomClass::Contains(const Structure& s) const {
  return FindHomomorphism(s, template_).has_value();
}

// The all-structures grid walk over the template's schema, filtered by
// membership. Positions count only the grid cells that pass the filter, so
// the stream cannot seek: it walks the grid from its start and skips the
// members before `start`.
void HomClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                      const PositionCallback& cb,
                                      const EnumControl& ctl) const {
  std::uint64_t index = 0;
  AllStructuresClass(schema_).EnumerateGeneratedFrom(
      m, 0,
      [&](const Structure& s, std::span<const Elem> marks, std::uint64_t) {
        if (!Contains(s)) return true;
        const std::uint64_t here = index++;
        if (ctl.generated != nullptr) ++*ctl.generated;
        return here < start || cb(s, marks, here);
      },
      EnumControl{nullptr, ctl.atom_cap});
}

LiftedHomClass::LiftedHomClass(Structure template_db)
    : template_(std::move(template_db)) {
  if (template_.schema().num_functions() != 0) {
    throw std::invalid_argument("HOM templates must be relational");
  }
  Schema lifted = template_.schema();
  first_color_rel_ = lifted.num_relations();
  for (Elem h = 0; h < template_.size(); ++h) {
    lifted.AddRelation("_col" + std::to_string(h), 1);
  }
  schema_ = MakeSchema(std::move(lifted));
}

Elem LiftedHomClass::ColorOf(const Structure& s, Elem e) const {
  Elem color = kNoElem;
  for (Elem h = 0; h < template_.size(); ++h) {
    if (s.Holds1(ColorRel(h), e)) {
      if (color != kNoElem) return kNoElem;  // two colors
      color = h;
    }
  }
  return color;
}

std::string LiftedHomClass::Fingerprint() const {
  return "hom-lift|" + schema_->Fingerprint() + "|" +
         template_.EncodeContent();
}

bool LiftedHomClass::Contains(const Structure& s) const {
  if (!(s.schema() == *schema_)) return false;
  std::vector<Elem> color(s.size());
  for (Elem e = 0; e < s.size(); ++e) {
    color[e] = ColorOf(s, e);
    if (color[e] == kNoElem) return false;
  }
  // The coloring must be a homomorphism into the template on the base
  // relations.
  for (int r = 0; r < template_.schema().num_relations(); ++r) {
    for (const auto& t : s.Tuples(r)) {
      std::vector<Elem> mapped(t.size());
      for (std::size_t i = 0; i < t.size(); ++i) mapped[i] = color[t[i]];
      if (!template_.Holds(r, mapped)) return false;
    }
  }
  return true;
}

void LiftedHomClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                            const PositionCallback& cb,
                                            const EnumControl& ctl) const {
  // Direct enumeration: choose the mark partition, a color for each
  // element, then any subset of the base-relation tuples allowed by the
  // template through the coloring. This produces exactly the members,
  // without the 2^(d * |H|) waste of enumerating color predicates as
  // arbitrary unary relations. The allowed atoms depend on the coloring,
  // so the stream cannot seek: it walks from its start and skips the
  // members before `start`.
  const int num_base_rels = template_.schema().num_relations();
  const std::uint32_t cap = EffectiveAtomCap(ctl.atom_cap);
  std::uint64_t index = 0;
  bool go = true;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    if (!go) return;
    const int d =
        block_of.empty()
            ? 0
            : 1 + *std::max_element(block_of.begin(), block_of.end());
    std::vector<Elem> marks(m);
    for (int i = 0; i < m; ++i) marks[i] = static_cast<Elem>(block_of[i]);
    const int h = static_cast<int>(template_.size());
    if (d > 0 && h == 0) return;  // no coloring exists
    ForEachTuple(std::max(h, 1), d, [&](const std::vector<int>& coloring) {
      if (!go) return;
      // Allowed atoms under this coloring.
      struct Atom {
        int rel;
        std::vector<Elem> tuple;
      };
      std::vector<Atom> atoms;
      for (int r = 0; r < num_base_rels; ++r) {
        const int arity = template_.schema().relation(r).arity;
        std::vector<Elem> tuple(arity), colors(arity);
        ForEachTuple(d, arity, [&](const std::vector<int>& t) {
          for (int i = 0; i < arity; ++i) {
            tuple[i] = static_cast<Elem>(t[i]);
            colors[i] = static_cast<Elem>(coloring[t[i]]);
          }
          if (template_.Holds(r, colors)) atoms.push_back(Atom{r, tuple});
        });
      }
      if (atoms.size() > cap) throw EnumerationCapError(atoms.size(), cap);
      Structure s(schema_, d);
      for (Elem e = 0; e < static_cast<Elem>(d); ++e) {
        s.SetHolds1(ColorRel(static_cast<Elem>(coloring[e])), e);
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
        const std::uint64_t here = index++;
        if (ctl.generated != nullptr) ++*ctl.generated;
        if (here >= start && !cb(s, marks, here)) {
          go = false;
          return;
        }
      }
    });
  });
}

std::optional<AmalgamResult> LiftedHomClass::Amalgamate(
    const Structure& a, const Structure& b,
    std::span<const Elem> b_to_a) const {
  AmalgamResult result = FreeAmalgam(a, b, b_to_a);
  // Lemma 7: the free amalgam of two well-colored members is well-colored
  // (colors agree on the common part by consistency of the instance).
  assert(Contains(result.structure));
  return result;
}

}  // namespace amalgam
