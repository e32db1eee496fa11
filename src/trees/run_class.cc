#include "trees/run_class.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <optional>
#include <set>

#include "util/enumerate.h"

namespace amalgam {

TreeRunClass::TreeRunClass(const TreeAutomaton* automaton, int extra_cap)
    : automaton_(automaton), oracle_(automaton), extra_cap_(extra_cap) {
  Schema tree_schema;
  for (const std::string& a : automaton_->labels()) {
    tree_schema.AddRelation(a, 1);
  }
  desc_rel_ = tree_schema.AddRelation("desc", 2);
  doc_rel_ = tree_schema.AddRelation("doc", 2);
  cca_fn_ = tree_schema.AddFunction("cca", 2);
  tree_schema_ = MakeSchema(tree_schema);

  Schema full = tree_schema;
  first_state_rel_ = full.num_relations();
  for (int q = 0; q < automaton_->num_states(); ++q) {
    full.AddRelation("_st" + std::to_string(q), 1);
  }
  cmax_rel_ = full.AddRelation("_cmax", 1);
  const int nc = automaton_->NumDescendantComponents();
  first_am_fn_ = full.num_functions();
  for (int c = 0; c < nc; ++c) full.AddFunction("_am" + std::to_string(c), 1);
  first_dm_fn_ = full.num_functions();
  for (int c = 0; c < nc; ++c) full.AddFunction("_dm" + std::to_string(c), 1);
  first_lm_fn_ = full.num_functions();
  for (int q = 0; q < automaton_->num_states(); ++q) {
    full.AddFunction("_lm" + std::to_string(q), 1);
  }
  first_rm_fn_ = full.num_functions();
  for (int q = 0; q < automaton_->num_states(); ++q) {
    full.AddFunction("_rm" + std::to_string(q), 1);
  }
  schema_ = MakeSchema(std::move(full));
}

std::string TreeRunClass::Fingerprint() const {
  // Serializes the automaton plus the enumeration cap: both shape the
  // member stream (the cap truncates which patterns are explored).
  const TreeAutomaton& a = *automaton_;
  std::string fp = "tree-runs|cap" + std::to_string(extra_cap_);
  // Length-prefixed for the same injection-safety reason as WordRunClass.
  for (const std::string& l : a.labels()) {
    fp += "|" + std::to_string(l.size()) + ":" + l;
  }
  for (int q = 0; q < a.num_states(); ++q) {
    fp += ";" + std::to_string(a.label_of(q)) + (a.is_root(q) ? "r" : "-") +
          (a.is_leaf(q) ? "l" : "-") + (a.is_rightmost(q) ? "m" : "-");
  }
  for (int p = 0; p < a.num_states(); ++p) {
    for (int c = 0; c < a.num_states(); ++c) {
      fp += a.first_child_ok(p, c) ? '1' : '0';
      fp += a.next_sibling_ok(p, c) ? '1' : '0';
    }
  }
  return fp;
}

Structure TreeRunClass::PatternToStructure(const TreePattern& p) const {
  const int s = p.size();
  Structure result(schema_, s);
  auto pos = p.PreorderPositions();
  for (int v = 0; v < s; ++v) {
    result.SetHolds1(automaton_->label_of(p.state[v]), v);
    result.SetHolds1(first_state_rel_ + p.state[v], v);
    if (p.cmax[v]) result.SetHolds1(cmax_rel_, v);
    for (int w = 0; w < s; ++w) {
      if (p.AncestorOrSelf(v, w)) result.SetHolds2(desc_rel_, v, w);
      if (pos[v] < pos[w]) result.SetHolds2(doc_rel_, v, w);
      result.SetFunction2(cca_fn_, v, w, static_cast<Elem>(p.Meet(v, w)));
    }
  }
  const int nc = automaton_->NumDescendantComponents();
  for (int v = 0; v < s; ++v) {
    for (int c = 0; c < nc; ++c) {
      result.SetFunction1(
          first_am_fn_ + c, v,
          static_cast<Elem>(oracle_.IntrinsicAncestormost(p, c, v)));
      result.SetFunction1(
          first_dm_fn_ + c, v,
          static_cast<Elem>(oracle_.IntrinsicDescendantmost(p, c, v)));
    }
    for (int q = 0; q < automaton_->num_states(); ++q) {
      result.SetFunction1(first_lm_fn_ + q, v,
                          static_cast<Elem>(oracle_.IntrinsicLeftmost(p, q, v)));
      result.SetFunction1(
          first_rm_fn_ + q, v,
          static_cast<Elem>(oracle_.IntrinsicRightmost(p, q, v)));
    }
  }
  return result;
}

std::optional<TreePattern> TreeRunClass::StructureToPattern(
    const Structure& s, std::vector<Elem>* order_out) const {
  if (!(s.schema() == *schema_)) return std::nullopt;
  const Elem n = static_cast<Elem>(s.size());
  if (n == 0) {
    if (order_out) order_out->clear();
    return TreePattern{};
  }
  // desc must be a reflexive partial order whose down-sets are chains
  // (each node's ancestors are totally ordered) with a unique minimum.
  for (Elem a = 0; a < n; ++a) {
    if (!s.Holds2(desc_rel_, a, a)) return std::nullopt;
    for (Elem b = 0; b < n; ++b) {
      if (a != b && s.Holds2(desc_rel_, a, b) && s.Holds2(desc_rel_, b, a)) {
        return std::nullopt;
      }
      for (Elem c = 0; c < n; ++c) {
        if (s.Holds2(desc_rel_, a, b) && s.Holds2(desc_rel_, b, c) &&
            !s.Holds2(desc_rel_, a, c)) {
          return std::nullopt;
        }
      }
    }
  }
  Elem root = kNoElem;
  for (Elem a = 0; a < n; ++a) {
    bool is_root = true;
    for (Elem b = 0; b < n; ++b) {
      if (!s.Holds2(desc_rel_, a, b)) is_root = false;
    }
    if (is_root) {
      root = a;
      break;
    }
  }
  if (root == kNoElem) return std::nullopt;
  // Ancestor chains.
  for (Elem a = 0; a < n; ++a) {
    for (Elem b = 0; b < n; ++b) {
      for (Elem c = 0; c < n; ++c) {
        if (s.Holds2(desc_rel_, b, a) && s.Holds2(desc_rel_, c, a) &&
            !s.Holds2(desc_rel_, b, c) && !s.Holds2(desc_rel_, c, b)) {
          return std::nullopt;
        }
      }
    }
  }
  // doc must be a strict linear order compatible with desc (ancestors
  // first).
  for (Elem a = 0; a < n; ++a) {
    if (s.Holds2(doc_rel_, a, a)) return std::nullopt;
    for (Elem b = 0; b < n; ++b) {
      if (a != b && s.Holds2(doc_rel_, a, b) == s.Holds2(doc_rel_, b, a)) {
        return std::nullopt;
      }
      if (a != b && s.Holds2(desc_rel_, a, b) && !s.Holds2(doc_rel_, a, b)) {
        return std::nullopt;
      }
      for (Elem c = 0; c < n; ++c) {
        if (s.Holds2(doc_rel_, a, b) && s.Holds2(doc_rel_, b, c) &&
            !s.Holds2(doc_rel_, a, c)) {
          return std::nullopt;
        }
      }
    }
  }
  // Assemble the pattern in document order.
  std::vector<Elem> order(n);
  for (Elem e = 0; e < n; ++e) {
    Elem pos = 0;
    for (Elem f = 0; f < n; ++f) {
      if (s.Holds2(doc_rel_, f, e)) ++pos;
    }
    order[pos] = e;
  }
  std::vector<int> id_of(n, -1);
  TreePattern p;
  for (Elem pos = 0; pos < n; ++pos) {
    Elem e = order[pos];
    // Closest proper ancestor: the desc-maximal strict ancestor.
    Elem parent = kNoElem;
    for (Elem f = 0; f < n; ++f) {
      if (f != e && s.Holds2(desc_rel_, f, e)) {
        if (parent == kNoElem || s.Holds2(desc_rel_, parent, f)) parent = f;
      }
    }
    if (pos == 0 && parent != kNoElem) return std::nullopt;
    int state = -1;
    for (int q = 0; q < automaton_->num_states(); ++q) {
      if (s.Holds1(first_state_rel_ + q, e)) {
        if (state >= 0) return std::nullopt;
        state = q;
      }
    }
    if (state < 0) return std::nullopt;
    for (int a = 0; a < automaton_->num_labels(); ++a) {
      if (s.Holds1(a, e) != (a == automaton_->label_of(state))) {
        return std::nullopt;
      }
    }
    id_of[e] =
        p.AddNode(parent == kNoElem ? -1 : id_of[parent], state,
                  s.Holds1(cmax_rel_, e));
    if (parent != kNoElem && id_of[parent] < 0) return std::nullopt;
  }
  // cca must equal the meet; pointer functions must equal the intrinsic
  // values; document order must equal the pattern's preorder.
  auto pre = p.PreorderPositions();
  for (Elem pos = 0; pos < n; ++pos) {
    if (pre[id_of[order[pos]]] != static_cast<int>(pos)) return std::nullopt;
  }
  const int nc = automaton_->NumDescendantComponents();
  for (Elem a = 0; a < n; ++a) {
    for (Elem b = 0; b < n; ++b) {
      Elem meet = s.Apply2(cca_fn_, a, b);
      if (meet >= n || id_of[meet] != p.Meet(id_of[a], id_of[b])) {
        return std::nullopt;
      }
    }
    for (int c = 0; c < nc; ++c) {
      if (id_of[s.Apply1(first_am_fn_ + c, a)] !=
          oracle_.IntrinsicAncestormost(p, c, id_of[a])) {
        return std::nullopt;
      }
      if (id_of[s.Apply1(first_dm_fn_ + c, a)] !=
          oracle_.IntrinsicDescendantmost(p, c, id_of[a])) {
        return std::nullopt;
      }
    }
    for (int q = 0; q < automaton_->num_states(); ++q) {
      if (id_of[s.Apply1(first_lm_fn_ + q, a)] !=
          oracle_.IntrinsicLeftmost(p, q, id_of[a])) {
        return std::nullopt;
      }
      if (id_of[s.Apply1(first_rm_fn_ + q, a)] !=
          oracle_.IntrinsicRightmost(p, q, id_of[a])) {
        return std::nullopt;
      }
    }
  }
  if (order_out) {
    order_out->assign(n, 0);
    for (Elem e = 0; e < n; ++e) (*order_out)[id_of[e]] = e;
  }
  return p;
}

bool TreeRunClass::Contains(const Structure& s) const {
  auto p = StructureToPattern(s);
  return p.has_value() && oracle_.PatternInClass(*p);
}

void TreeRunClass::EnumeratePatterns(int m, const PatternSink& sink) const {
  const int q_count = automaton_->num_states();
  // Transitive child-reachability for pruning edge assignments.
  std::vector<std::vector<bool>> reach(q_count,
                                       std::vector<bool>(q_count, false));
  for (int p = 0; p < q_count; ++p) {
    for (int c = 0; c < q_count; ++c) reach[p][c] = automaton_->ChildOk(p, c);
  }
  for (int k = 0; k < q_count; ++k) {
    for (int i = 0; i < q_count; ++i) {
      for (int j = 0; j < q_count; ++j) {
        if (reach[i][k] && reach[k][j]) reach[i][j] = true;
      }
    }
  }

  bool go = true;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    if (!go) return;
    const int d =
        block_of.empty()
            ? 0
            : 1 + *std::max_element(block_of.begin(), block_of.end());
    if (d == 0) {
      std::optional<Structure> empty;
      std::vector<Elem> no_marks;
      auto enc = [&]() -> const Structure& {
        if (!empty) empty.emplace(schema_, 0);
        return *empty;
      };
      if (!sink(enc, no_marks)) go = false;
      return;
    }
    const int cap = m + extra_cap_;
    // Enumerate pattern shapes (parent[i] < i), states, cmax flags, and
    // mark placements, filtered by generation + membership. A tree
    // skeleton recurs under several numberings (parent arrays), but the
    // members emitted need no deduplication: the zoo's tree streams at
    // m <= 4 hold no two with one canonical key. The solver's canonical
    // forms deduplicate the projections of joint members.
    TreePattern p;
    std::function<void(int, int)> build = [&](int size, int next) {
      if (next == size) {
        // Assign states in node order with edge pruning. The per-node
        // realizability check (NodeRealizable) depends only on that node's
        // own cmax flag, so valid flags are computed independently per node
        // and combined as a product — membership holds for exactly those
        // combinations.
        std::function<void(int)> states = [&](int v) {
          if (v == p.size()) {
            const auto& comp = automaton_->DescendantComponents();
            // Linear components: at most one own-component child branch.
            for (int x = 0; x < p.size(); ++x) {
              if (automaton_->IsBranching(comp[p.state[x]])) continue;
              int own_branches = 0;
              for (int c : p.children[x]) {
                if (comp[p.state[c]] == comp[p.state[x]]) ++own_branches;
              }
              if (own_branches > 1) return;
            }
            std::vector<std::vector<bool>> valid(p.size());
            for (int x = 0; x < p.size(); ++x) {
              for (bool flag : {false, true}) {
                p.cmax[x] = flag;
                if (oracle_.NodeRealizable(p, x, nullptr)) {
                  valid[x].push_back(flag);
                }
              }
              if (valid[x].empty()) return;
            }
            std::function<void(int)> flags = [&](int w) {
              if (!go) return;
              if (w == p.size()) {
                if (!EmitWithMarks(p, block_of, d, sink)) go = false;
                return;
              }
              for (bool flag : valid[w]) {
                p.cmax[w] = flag;
                flags(w + 1);
                if (!go) return;
              }
            };
            flags(0);
            return;
          }
          for (int q = 0; q < q_count && go; ++q) {
            if (!automaton_->Productive(q)) continue;
            if (v == 0 && !automaton_->is_root(q)) continue;
            if (v > 0 && !reach[p.state[p.parent[v]]][q]) continue;
            p.state[v] = q;
            states(v + 1);
          }
        };
        states(0);
        return;
      }
      for (int par = 0; par < next && go; ++par) {
        p.AddNode(par, 0, false);
        build(size, next + 1);
        p.parent.pop_back();
        p.children.pop_back();
        p.state.pop_back();
        p.cmax.pop_back();
        p.children[par].pop_back();
      }
    };
    for (int size = d; size <= cap && go; ++size) {
      p = TreePattern{};
      p.AddNode(-1, 0, false);
      build(size, 1);
    }
  });
}

bool TreeRunClass::EmitWithMarks(
    const TreePattern& p, const std::vector<int>& block_of, int d,
    const PatternSink& sink) const {
  // Generation: the closure of the marked nodes under cca and the intrinsic
  // pointers must cover the whole pattern. Try every injection of the d
  // mark blocks into the pattern nodes.
  const int s = p.size();
  const int nc = automaton_->NumDescendantComponents();
  auto closure_covers = [&](const std::vector<int>& marked) {
    std::vector<bool> in(s, false);
    std::vector<int> work;
    for (int v : marked) {
      if (!in[v]) {
        in[v] = true;
        work.push_back(v);
      }
    }
    while (!work.empty()) {
      int v = work.back();
      work.pop_back();
      auto add = [&](int w) {
        if (!in[w]) {
          in[w] = true;
          work.push_back(w);
        }
      };
      for (int u = 0; u < s; ++u) {
        if (in[u]) add(p.Meet(v, u));
      }
      for (int c = 0; c < nc; ++c) {
        add(oracle_.IntrinsicAncestormost(p, c, v));
        add(oracle_.IntrinsicDescendantmost(p, c, v));
      }
      for (int q = 0; q < automaton_->num_states(); ++q) {
        add(oracle_.IntrinsicLeftmost(p, q, v));
        add(oracle_.IntrinsicRightmost(p, q, v));
      }
    }
    for (int v = 0; v < s; ++v) {
      if (!in[v]) return false;
    }
    return true;
  };

  // Encoded lazily — the cursor entry points skip members without paying
  // for the structure encoding — and cached across this pattern's mark
  // placements, so a full sweep encodes once per pattern as before.
  std::optional<Structure> encoded;
  auto enc = [&]() -> const Structure& {
    if (!encoded) encoded = PatternToStructure(p);
    return *encoded;
  };
  std::vector<int> slot_of_block(d);
  std::vector<bool> used(s, false);
  bool go = true;
  std::function<void(int)> place = [&](int b) {
    if (!go) return;
    if (b == d) {
      if (!closure_covers(slot_of_block)) return;
      std::vector<Elem> marks(block_of.size());
      for (std::size_t i = 0; i < block_of.size(); ++i) {
        marks[i] = static_cast<Elem>(slot_of_block[block_of[i]]);
      }
      if (!sink(enc, marks)) go = false;
      return;
    }
    for (int v = 0; v < s && go; ++v) {
      if (used[v]) continue;
      used[v] = true;
      slot_of_block[b] = v;
      place(b + 1);
      used[v] = false;
    }
  };
  place(0);
  return go;
}

void TreeRunClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                          const PositionCallback& cb,
                                          const EnumControl& ctl) const {
  std::uint64_t index = 0;
  EnumeratePatterns(m, [&](const std::function<const Structure&()>& enc,
                           const std::vector<Elem>& marks) {
    const std::uint64_t here = index++;
    if (here < start) return true;
    if (ctl.generated != nullptr) ++*ctl.generated;
    return cb(enc(), marks, here);
  });
}

}  // namespace amalgam
