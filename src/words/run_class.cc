#include "words/run_class.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <queue>
#include <stdexcept>

#include "util/enumerate.h"

namespace amalgam {

WordRunClass::WordRunClass(const Nfa& nfa) : nfa_(nfa.Trimmed()) {
  if (nfa_.num_states() == 0) {
    throw std::invalid_argument("the automaton accepts no word");
  }
  comp_ = nfa_.Components();
  num_components_ = nfa_.NumComponents();

  Schema word_schema;
  for (const std::string& a : nfa_.alphabet()) word_schema.AddRelation(a, 1);
  lt_rel_ = word_schema.AddRelation("lt", 2);
  word_schema_ = MakeSchema(word_schema);  // copy; extended below

  Schema full = word_schema;
  first_state_rel_ = full.num_relations();
  for (int q = 0; q < nfa_.num_states(); ++q) {
    full.AddRelation("_st" + std::to_string(q), 1);
  }
  first_lm_fn_ = full.num_functions();
  for (int c = 0; c < num_components_; ++c) {
    full.AddFunction("_lm" + std::to_string(c), 1);
  }
  first_rm_fn_ = full.num_functions();
  for (int c = 0; c < num_components_; ++c) {
    full.AddFunction("_rm" + std::to_string(c), 1);
  }
  schema_ = MakeSchema(std::move(full));
}

std::string WordRunClass::Fingerprint() const {
  // Serializes the trimmed automaton: it alone determines the member
  // stream (alphabet, per-state letter/start/accept flags, transitions).
  // Letter names are length-prefixed — free text must not be able to
  // imitate the separators, or two different automata could share a
  // fingerprint and wrongly share a cached graph.
  std::string fp = "word-runs";
  for (const std::string& a : nfa_.alphabet()) {
    fp += "|" + std::to_string(a.size()) + ":" + a;
  }
  for (int q = 0; q < nfa_.num_states(); ++q) {
    fp += ";" + std::to_string(nfa_.letter_of(q)) +
          (nfa_.is_start(q) ? "s" : "-") + (nfa_.is_accept(q) ? "a" : "-");
    for (int t : nfa_.successors()[q]) fp += "," + std::to_string(t);
  }
  return fp;
}

int WordRunClass::IntrinsicLeftmost(const WordPattern& p, int component,
                                    int pos) const {
  for (int i = 0; i < pos; ++i) {
    if (comp_[p.states[i]] == component) return i;
  }
  return pos;
}

int WordRunClass::IntrinsicRightmost(const WordPattern& p, int component,
                                     int pos) const {
  for (int i = p.size() - 1; i > pos; --i) {
    if (comp_[p.states[i]] == component) return i;
  }
  return pos;
}

bool WordRunClass::GapRealizable(const WordPattern& p, int gap) const {
  // Gap between slot `gap` and slot `gap + 1`. A component is allowed for
  // intermediate states iff it has slots on both sides of the gap.
  std::vector<bool> comp_allowed(num_components_, false);
  std::vector<int> min_slot(num_components_, -1), max_slot(num_components_, -1);
  for (int i = 0; i < p.size(); ++i) {
    int c = comp_[p.states[i]];
    if (min_slot[c] < 0) min_slot[c] = i;
    max_slot[c] = i;
  }
  for (int c = 0; c < num_components_; ++c) {
    comp_allowed[c] =
        min_slot[c] >= 0 && min_slot[c] <= gap && max_slot[c] >= gap + 1;
  }
  std::vector<bool> allowed(nfa_.num_states());
  for (int q = 0; q < nfa_.num_states(); ++q) {
    allowed[q] = comp_allowed[comp_[q]];
  }
  return HasConstrainedPath(nfa_, p.states[gap], p.states[gap + 1], allowed);
}

bool WordRunClass::PatternInClass(const WordPattern& p) const {
  if (p.size() == 0) return true;
  for (int q : p.states) {
    if (q < 0 || q >= nfa_.num_states()) return false;
  }
  if (!nfa_.is_start(p.states.front())) return false;
  if (!nfa_.is_accept(p.states.back())) return false;
  for (int gap = 0; gap + 1 < p.size(); ++gap) {
    if (!GapRealizable(p, gap)) return false;
  }
  return true;
}

Structure WordRunClass::PatternToStructure(const WordPattern& p) const {
  const int s = p.size();
  Structure result(schema_, s);
  for (int i = 0; i < s; ++i) {
    const int q = p.states[i];
    result.SetHolds1(nfa_.letter_of(q), i);
    result.SetHolds1(first_state_rel_ + q, i);
    for (int j = i + 1; j < s; ++j) result.SetHolds2(lt_rel_, i, j);
  }
  for (int c = 0; c < num_components_; ++c) {
    for (int i = 0; i < s; ++i) {
      result.SetFunction1(first_lm_fn_ + c, i,
                          static_cast<Elem>(IntrinsicLeftmost(p, c, i)));
      result.SetFunction1(first_rm_fn_ + c, i,
                          static_cast<Elem>(IntrinsicRightmost(p, c, i)));
    }
  }
  return result;
}

std::optional<WordPattern> WordRunClass::StructureToPattern(
    const Structure& s, std::vector<Elem>* order_out) const {
  if (!(s.schema() == *schema_)) return std::nullopt;
  const Elem n = static_cast<Elem>(s.size());
  // lt must be a strict linear order.
  if (!([&] {
        for (Elem a = 0; a < n; ++a) {
          if (s.Holds2(lt_rel_, a, a)) return false;
          for (Elem b = 0; b < n; ++b) {
            if (a != b && s.Holds2(lt_rel_, a, b) == s.Holds2(lt_rel_, b, a)) {
              return false;
            }
            for (Elem c = 0; c < n; ++c) {
              if (s.Holds2(lt_rel_, a, b) && s.Holds2(lt_rel_, b, c) &&
                  !s.Holds2(lt_rel_, a, c)) {
                return false;
              }
            }
          }
        }
        return true;
      }())) {
    return std::nullopt;
  }
  std::vector<Elem> order(n);
  for (Elem e = 0; e < n; ++e) {
    Elem pos = 0;
    for (Elem f = 0; f < n; ++f) {
      if (s.Holds2(lt_rel_, f, e)) ++pos;
    }
    order[pos] = e;
  }
  WordPattern p;
  p.states.resize(n);
  for (Elem pos = 0; pos < n; ++pos) {
    Elem e = order[pos];
    int state = -1;
    for (int q = 0; q < nfa_.num_states(); ++q) {
      if (s.Holds1(first_state_rel_ + q, e)) {
        if (state >= 0) return std::nullopt;  // two states
        state = q;
      }
    }
    if (state < 0) return std::nullopt;
    p.states[pos] = state;
    // Letter predicates must match the state's letter exactly.
    for (int a = 0; a < nfa_.num_letters(); ++a) {
      if (s.Holds1(a, e) != (a == nfa_.letter_of(state))) return std::nullopt;
    }
  }
  // Pointer functions must agree with the intrinsic values.
  for (int c = 0; c < num_components_; ++c) {
    for (Elem pos = 0; pos < n; ++pos) {
      Elem e = order[pos];
      if (s.Apply1(first_lm_fn_ + c, e) !=
          order[IntrinsicLeftmost(p, c, static_cast<int>(pos))]) {
        return std::nullopt;
      }
      if (s.Apply1(first_rm_fn_ + c, e) !=
          order[IntrinsicRightmost(p, c, static_cast<int>(pos))]) {
        return std::nullopt;
      }
    }
  }
  if (order_out != nullptr) *order_out = std::move(order);
  return p;
}

bool WordRunClass::Contains(const Structure& s) const {
  auto p = StructureToPattern(s);
  return p.has_value() && PatternInClass(*p);
}

void WordRunClass::EnumeratePatterns(
    int m,
    const std::function<bool(const WordPattern&, const std::vector<Elem>&)>&
        sink) const {
  const int max_extra = 2 * num_components_;
  bool go = true;
  ForEachSetPartition(m, [&](const std::vector<int>& block_of) {
    if (!go) return;
    const int d =
        block_of.empty()
            ? 0
            : 1 + *std::max_element(block_of.begin(), block_of.end());
    if (d == 0) {
      // Empty pattern, generated by the empty tuple.
      WordPattern empty;
      std::vector<Elem> no_marks;
      if (!sink(empty, no_marks)) go = false;
      return;
    }
    for (int s = d; s <= d + max_extra && go; ++s) {
      // slot_of_block: injection block -> slot.
      std::vector<int> slot_of_block(d);
      std::vector<bool> used(s, false);
      WordPattern p;
      p.states.assign(s, -1);

      // Recursive assignment of states with a final generation +
      // membership filter.
      std::function<void()> emit = [&] {
        // Generation: closure of marked slots under intrinsic pointers
        // must cover all slots.
        std::vector<bool> in_closure(s, false);
        std::vector<int> worklist;
        for (int b = 0; b < d; ++b) {
          if (!in_closure[slot_of_block[b]]) {
            in_closure[slot_of_block[b]] = true;
            worklist.push_back(slot_of_block[b]);
          }
        }
        while (!worklist.empty()) {
          int x = worklist.back();
          worklist.pop_back();
          for (int c = 0; c < num_components_; ++c) {
            int targets[2] = {IntrinsicLeftmost(p, c, x),
                              IntrinsicRightmost(p, c, x)};
            for (int t : targets) {
              if (!in_closure[t]) {
                in_closure[t] = true;
                worklist.push_back(t);
              }
            }
          }
        }
        for (int i = 0; i < s; ++i) {
          if (!in_closure[i]) return;
        }
        if (!PatternInClass(p)) return;
        std::vector<Elem> marks(m);
        for (int i = 0; i < m; ++i) {
          marks[i] = static_cast<Elem>(slot_of_block[block_of[i]]);
        }
        if (!sink(p, marks)) go = false;
      };

      std::function<void(int)> assign_states = [&](int i) {
        if (!go) return;
        if (i == s) {
          emit();
          return;
        }
        for (int q = 0; q < nfa_.num_states() && go; ++q) {
          p.states[i] = q;
          assign_states(i + 1);
        }
        p.states[i] = -1;
      };

      std::function<void(int)> place_blocks = [&](int b) {
        if (!go) return;
        if (b == d) {
          assign_states(0);
          return;
        }
        for (int slot = 0; slot < s && go; ++slot) {
          if (used[slot]) continue;
          used[slot] = true;
          slot_of_block[b] = slot;
          place_blocks(b + 1);
          used[slot] = false;
        }
      };
      place_blocks(0);
    }
  });
}

// The positioned cursor walks the whole candidate space from its start
// (positions are filter-determined, so there is no seeking past it), but
// encodes only members from `start` on as structures — the per-member
// materialization cost, which EnumControl::generated counts.
void WordRunClass::EnumerateGeneratedFrom(int m, std::uint64_t start,
                                          const PositionCallback& cb,
                                          const EnumControl& ctl) const {
  std::uint64_t index = 0;
  EnumeratePatterns(m, [&](const WordPattern& p,
                           const std::vector<Elem>& marks) {
    const std::uint64_t here = index++;
    if (here < start) return true;
    if (ctl.generated != nullptr) ++*ctl.generated;
    return cb(PatternToStructure(p), marks, here);
  });
}

std::optional<std::pair<std::vector<int>, std::vector<int>>>
WordRunClass::Complete(const WordPattern& p) const {
  if (!PatternInClass(p)) return std::nullopt;
  std::vector<int> run;
  std::vector<int> slot_pos(p.size());
  for (int i = 0; i < p.size(); ++i) {
    slot_pos[i] = static_cast<int>(run.size());
    run.push_back(p.states[i]);
    if (i + 1 >= p.size()) break;
    // Find an explicit allowed path for the gap (same constraint set as
    // GapRealizable, but with parent tracking).
    std::vector<int> min_slot(num_components_, -1),
        max_slot(num_components_, -1);
    for (int j = 0; j < p.size(); ++j) {
      int c = comp_[p.states[j]];
      if (min_slot[c] < 0) min_slot[c] = j;
      max_slot[c] = j;
    }
    std::vector<bool> allowed(nfa_.num_states());
    for (int q = 0; q < nfa_.num_states(); ++q) {
      int c = comp_[q];
      allowed[q] = min_slot[c] >= 0 && min_slot[c] <= i && max_slot[c] >= i + 1;
    }
    const int from = p.states[i];
    const int to = p.states[i + 1];
    std::vector<int> parent(nfa_.num_states(), -2);
    std::queue<int> queue;
    bool direct = false;
    for (int r : nfa_.successors()[from]) {
      if (r == to) {
        direct = true;
        break;
      }
      if (allowed[r] && parent[r] == -2) {
        parent[r] = -1;
        queue.push(r);
      }
    }
    if (direct) continue;  // adjacent slots, empty gap
    int hit = -1;
    while (hit < 0 && !queue.empty()) {
      int q = queue.front();
      queue.pop();
      for (int r : nfa_.successors()[q]) {
        if (r == to) {
          hit = q;
          break;
        }
        if (allowed[r] && parent[r] == -2) {
          parent[r] = q;
          queue.push(r);
        }
      }
    }
    if (hit < 0) return std::nullopt;  // cannot happen for members
    std::vector<int> middle;
    for (int q = hit; q != -1; q = parent[q]) middle.push_back(q);
    std::reverse(middle.begin(), middle.end());
    for (int q : middle) run.push_back(q);
  }
  return std::make_pair(std::move(run), std::move(slot_pos));
}

namespace {

// Checks that embedding `pos` (slot i of `inner` at position pos[i] of
// `outer`) preserves states and intrinsic pointers.
bool EmbeddingPointerConsistent(const WordRunClass& cls,
                                const WordPattern& inner,
                                const WordPattern& outer,
                                const std::vector<int>& pos) {
  for (int i = 0; i < inner.size(); ++i) {
    if (inner.states[i] != outer.states[pos[i]]) return false;
  }
  for (int c = 0; c < cls.num_components(); ++c) {
    for (int i = 0; i < inner.size(); ++i) {
      if (pos[cls.IntrinsicLeftmost(inner, c, i)] !=
          cls.IntrinsicLeftmost(outer, c, pos[i])) {
        return false;
      }
      if (pos[cls.IntrinsicRightmost(inner, c, i)] !=
          cls.IntrinsicRightmost(outer, c, pos[i])) {
        return false;
      }
    }
  }
  return true;
}

}  // namespace

std::optional<AmalgamResult> WordRunClass::Amalgamate(
    const Structure& a, const Structure& b,
    std::span<const Elem> b_to_a) const {
  std::vector<Elem> order_a, order_b;
  auto pa = StructureToPattern(a, &order_a);
  auto pb = StructureToPattern(b, &order_b);
  if (!pa.has_value() || !pb.has_value()) return std::nullopt;
  const int na = pa->size(), nb = pb->size();
  // Position-level common map: pos_b -> pos_a (or -1).
  std::vector<Elem> elem_pos_a(a.size());
  for (int i = 0; i < na; ++i) elem_pos_a[order_a[i]] = i;
  std::vector<int> common(nb, -1);
  std::vector<int> a_common(na, -1);
  for (int j = 0; j < nb; ++j) {
    Elem be = order_b[j];
    if (b_to_a[be] != kNoElem) {
      common[j] = static_cast<int>(elem_pos_a[b_to_a[be]]);
      a_common[common[j]] = j;
    }
  }

  // Enumerate interleavings: walk through a's and b's slots, merging; b's
  // common slots must coincide with their a images.
  std::vector<int> merged_states;
  std::vector<int> pos_a(na), pos_b(nb);
  std::optional<WordPattern> found;
  std::vector<int> found_pos_a, found_pos_b;

  std::function<bool(int, int)> merge = [&](int i, int j) -> bool {
    if (found.has_value()) return true;
    if (i == na && j == nb) {
      WordPattern candidate{merged_states};
      if (!PatternInClass(candidate)) return false;
      if (!EmbeddingPointerConsistent(*this, *pa, candidate, pos_a)) {
        return false;
      }
      if (!EmbeddingPointerConsistent(*this, *pb, candidate, pos_b)) {
        return false;
      }
      found = std::move(candidate);
      found_pos_a = pos_a;
      found_pos_b = pos_b;
      return true;
    }
    // Case 1: next slot is a's slot i. If slot i is the image of some
    // b-slot, that b-slot must be exactly j (otherwise taking it now would
    // violate b's order), and both advance together.
    if (i < na) {
      const int b_image = a_common[i];
      const bool matches_b = b_image == j && j < nb;
      if (b_image < 0 || matches_b) {
        pos_a[i] = static_cast<int>(merged_states.size());
        if (matches_b) pos_b[j] = static_cast<int>(merged_states.size());
        merged_states.push_back(pa->states[i]);
        if (merge(i + 1, matches_b ? j + 1 : j)) return true;
        merged_states.pop_back();
      }
    }
    // Case 2: next slot is b's non-common slot j.
    if (j < nb && common[j] < 0) {
      pos_b[j] = static_cast<int>(merged_states.size());
      merged_states.push_back(pb->states[j]);
      if (merge(i, j + 1)) return true;
      merged_states.pop_back();
    }
    return false;
  };
  merge(0, 0);
  if (!found.has_value()) return std::nullopt;

  // Complete to a full accepting run so the accumulated witness projects
  // onto a word of the language.
  auto completed = Complete(*found);
  if (!completed.has_value()) return std::nullopt;
  const auto& [run, slot_pos] = *completed;
  WordPattern full{run};
  AmalgamResult result{PatternToStructure(full),
                       std::vector<Elem>(a.size()),
                       std::vector<Elem>(b.size())};
  for (int i = 0; i < na; ++i) {
    result.embed_a[order_a[i]] = static_cast<Elem>(slot_pos[found_pos_a[i]]);
  }
  for (int j = 0; j < nb; ++j) {
    result.embed_b[order_b[j]] = static_cast<Elem>(slot_pos[found_pos_b[j]]);
  }
  return result;
}

}  // namespace amalgam
