// Stress tests for the canonicalizer — the correctness linchpin of the
// small-configuration search. Random structures over schemas with unary /
// binary relations and unary / binary functions; invariance under random
// renaming, idempotence, and agreement between the canonical key and
// marked-isomorphism (decided independently by embedding search). The
// key decoder round-trips every key of those cases and of the zoo member
// streams, and rejects or safely decodes every damaged key. A reference
// canonicalizer, which materializes every candidate renaming, pins the
// key, permutation and hash of Canonicalize on random structures and on
// the zoo member streams.
#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <random>
#include <string>
#include <string_view>

#include "base/canonical.h"
#include "base/ops.h"
#include "fraisse/relational.h"
#include "system/zoo.h"
#include "trees/run_class.h"
#include "trees/zoo.h"
#include "util/hash.h"
#include "words/run_class.h"
#include "words/zoo.h"

namespace amalgam {
namespace {

// ---------------------------------------------------------------------------
// The reference canonicalizer: color refinement over a std::map of
// signature vectors, then a recursion over every ordering of every color
// class that renames the structure for each candidate and keeps the
// smallest key (the first among equal keys). Canonicalize must agree with
// it on the key, the permutation and the hash.
// ---------------------------------------------------------------------------

std::vector<int> ReferenceRefineOnce(const Structure& s,
                                     const std::vector<int>& color) {
  const std::size_t n = s.size();
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
  std::map<std::vector<std::int64_t>, int> order;
  for (const auto& g : sig) order.emplace(g, 0);
  int next = 0;
  for (auto& [key, id] : order) id = next++;
  std::vector<int> result(n);
  for (std::size_t e = 0; e < n; ++e) result[e] = order[sig[e]];
  return result;
}

std::vector<int> ReferenceRefineColors(const Structure& s,
                                       std::span<const Elem> marks) {
  const std::size_t n = s.size();
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
    std::vector<int> refined = ReferenceRefineOnce(s, color);
    if (refined == color) return color;
    color = std::move(refined);
  }
}

CanonicalForm ReferenceCanonicalize(const Structure& s,
                                    std::span<const Elem> marks) {
  const std::size_t n = s.size();
  std::vector<int> color = ReferenceRefineColors(s, marks);
  std::vector<std::vector<Elem>> classes;
  const int num_colors =
      n == 0 ? 0 : 1 + *std::max_element(color.begin(), color.end());
  classes.resize(num_colors);
  for (Elem e = 0; e < n; ++e) classes[color[e]].push_back(e);

  std::string best_key;
  std::vector<Elem> best_perm;
  bool have_best = false;
  std::vector<Elem> perm(n, kNoElem);
  std::function<void(std::size_t, Elem)> assign = [&](std::size_t class_idx,
                                                      Elem next_position) {
    if (class_idx == classes.size()) {
      Structure renamed = s.ApplyPermutation(perm);
      std::string key;
      for (Elem m : marks) AppendFullWidth(key, perm[m]);
      key.push_back('\x01');
      key += renamed.EncodeContent();
      if (!have_best || key < best_key) {
        best_key = std::move(key);
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
  const std::size_t hash = HashRange(best_key.begin(), best_key.end());
  return CanonicalForm{std::move(best_key), std::move(best_perm), hash};
}

// Canonicalize and the reference agree on (s, marks).
void ExpectMatchesReference(const Structure& s, std::span<const Elem> marks) {
  const CanonicalForm canon = Canonicalize(s, marks);
  const CanonicalForm reference = ReferenceCanonicalize(s, marks);
  ASSERT_EQ(canon.key, reference.key) << s.ToString();
  ASSERT_EQ(canon.perm, reference.perm) << s.ToString();
  ASSERT_EQ(canon.hash, reference.hash);
}

SchemaRef RichSchema() {
  Schema s;
  s.AddRelation("p", 1);
  s.AddRelation("E", 2);
  s.AddFunction("f", 1);
  s.AddFunction("g", 2);
  return MakeSchema(std::move(s));
}

Structure RandomStructure(std::mt19937& rng, const SchemaRef& schema,
                          int n) {
  Structure s(schema, n);
  for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
    if (rng() % 2) s.SetHolds1(0, a);
    for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
      if (rng() % 3 == 0) s.SetHolds2(1, a, b);
      s.SetFunction2(1, a, b, static_cast<Elem>(rng() % n));
    }
    s.SetFunction1(0, a, static_cast<Elem>(rng() % n));
  }
  return s;
}

class CanonicalStress : public ::testing::TestWithParam<int> {};

TEST_P(CanonicalStress, InvarianceIdempotencePermCorrectness) {
  std::mt19937 rng(GetParam() * 7919 + 13);
  auto schema = RichSchema();
  for (int trial = 0; trial < 30; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 5);
    Structure s = RandomStructure(rng, schema, n);
    std::vector<Elem> marks = {static_cast<Elem>(rng() % n),
                               static_cast<Elem>(rng() % n)};
    CanonicalForm canon = Canonicalize(s, marks);
    Structure canon_structure(schema, 0);
    std::vector<Elem> canon_marks;
    ASSERT_TRUE(DecodeCanonicalKey(canon.key, schema, marks.size(),
                                   &canon_structure, &canon_marks));

    // perm correctness: applying the recorded permutation reproduces the
    // canonical structure and marks the key decodes to.
    Structure renamed = s.ApplyPermutation(canon.perm);
    EXPECT_TRUE(renamed == canon_structure);
    for (std::size_t i = 0; i < marks.size(); ++i) {
      EXPECT_EQ(canon.perm[marks[i]], canon_marks[i]);
    }

    // Idempotence: canonicalizing the canonical form is a fixpoint of the
    // key.
    CanonicalForm again = Canonicalize(canon_structure, canon_marks);
    EXPECT_EQ(again.key, canon.key);

    // Invariance: random renamings keep the key.
    std::vector<Elem> perm(n);
    for (int i = 0; i < n; ++i) perm[i] = static_cast<Elem>(i);
    std::shuffle(perm.begin(), perm.end(), rng);
    Structure t = s.ApplyPermutation(perm);
    std::vector<Elem> tmarks = {perm[marks[0]], perm[marks[1]]};
    EXPECT_EQ(Canonicalize(t, tmarks).key, canon.key);
  }
}

TEST_P(CanonicalStress, KeyEqualityMatchesMarkedIsomorphism) {
  std::mt19937 rng(GetParam() * 104729 + 7);
  auto schema = RichSchema();
  for (int trial = 0; trial < 20; ++trial) {
    const int n = 1 + static_cast<int>(rng() % 4);
    Structure s1 = RandomStructure(rng, schema, n);
    Structure s2 = RandomStructure(rng, schema, n);
    std::vector<Elem> m1 = {static_cast<Elem>(rng() % n)};
    std::vector<Elem> m2 = {static_cast<Elem>(rng() % n)};
    const bool keys_equal =
        Canonicalize(s1, m1).key == Canonicalize(s2, m2).key;
    // Independent decision: an embedding of equal-size structures fixing
    // the marks is a marked isomorphism.
    std::vector<Elem> fixed(n, kNoElem);
    fixed[m1[0]] = m2[0];
    // FindEmbedding fixes by *prefix*, so pass a full map with only the
    // mark pinned... it interprets entries by index; build accordingly.
    bool iso = false;
    if (s1.size() == s2.size()) {
      auto emb = FindEmbedding(s1, s2, fixed);
      iso = emb.has_value();
    }
    EXPECT_EQ(keys_equal, iso) << "trial " << trial;
  }
}

// Canonicalizes (s, marks), decodes the key, and checks the decoded
// structure and marks are the canonical renaming of (s, marks) by the
// form's perm and re-canonicalize to the same key byte for byte.
void ExpectKeyRoundTrips(const Structure& s, std::span<const Elem> marks) {
  const CanonicalForm canon = Canonicalize(s, marks);
  Structure decoded(s.schema_ref(), 0);
  std::vector<Elem> decoded_marks;
  ASSERT_TRUE(DecodeCanonicalKey(canon.key, s.schema_ref(), marks.size(),
                                 &decoded, &decoded_marks));
  EXPECT_TRUE(DecodeCanonicalKey(canon.key, s.schema_ref(), marks.size(),
                                 nullptr, nullptr));
  EXPECT_TRUE(decoded == s.ApplyPermutation(canon.perm));
  ASSERT_EQ(decoded_marks.size(), marks.size());
  for (std::size_t i = 0; i < marks.size(); ++i) {
    EXPECT_EQ(decoded_marks[i], canon.perm[marks[i]]);
  }
  EXPECT_EQ(Canonicalize(decoded, decoded_marks).key, canon.key);
}

// A decoded structure is well formed: every function value and mark is in
// the domain.
void ExpectWellFormed(const Structure& s, std::span<const Elem> marks,
                      std::size_t num_marks) {
  ASSERT_EQ(marks.size(), num_marks);
  for (Elem m : marks) ASSERT_LT(m, s.size());
  const Schema& schema = s.schema();
  for (int f = 0; f < schema.num_functions(); ++f) {
    const int arity = schema.function(f).arity;
    if (s.size() == 0) continue;
    std::vector<Elem> args(arity, 0);
    for (;;) {
      ASSERT_LT(s.Apply(f, args), s.size());
      int i = 0;
      while (i < arity && ++args[i] == s.size()) args[i++] = 0;
      if (i == arity) break;
    }
  }
}

// Every truncation of `key` and `mutations` seeded single-byte mutations
// of it either fail to decode or decode to a well-formed structure.
void ExpectDamageIsSafe(const std::string& key, const SchemaRef& schema,
                        std::size_t num_marks, std::mt19937& rng,
                        int mutations) {
  auto check = [&](std::string_view damaged) {
    Structure s(schema, 0);
    std::vector<Elem> marks;
    const bool valid = DecodeCanonicalKey(damaged, schema, num_marks,
                                          nullptr, nullptr);
    ASSERT_EQ(DecodeCanonicalKey(damaged, schema, num_marks, &s, &marks),
              valid);
    if (valid) ExpectWellFormed(s, marks, num_marks);
  };
  for (std::size_t cut = 0; cut < key.size(); ++cut) {
    check(std::string_view(key).substr(0, cut));
  }
  for (int i = 0; i < mutations; ++i) {
    std::string mutated = key;
    const std::size_t at = rng() % mutated.size();
    mutated[at] = static_cast<char>(mutated[at] ^ (1 + rng() % 255));
    check(mutated);
  }
}

TEST_P(CanonicalStress, DecodedKeysRecanonicalizeToThemselves) {
  // The structures of both tests above, from the same seeds.
  auto schema = RichSchema();
  {
    std::mt19937 rng(GetParam() * 7919 + 13);
    std::mt19937 damage(GetParam());
    for (int trial = 0; trial < 30; ++trial) {
      const int n = 1 + static_cast<int>(rng() % 5);
      Structure s = RandomStructure(rng, schema, n);
      std::vector<Elem> marks = {static_cast<Elem>(rng() % n),
                                 static_cast<Elem>(rng() % n)};
      ExpectKeyRoundTrips(s, marks);
      ExpectDamageIsSafe(Canonicalize(s, marks).key, schema, marks.size(),
                         damage, 64);
      // Consume the renaming draws the first test makes.
      std::vector<Elem> perm(n);
      std::shuffle(perm.begin(), perm.end(), rng);
    }
  }
  {
    std::mt19937 rng(GetParam() * 104729 + 7);
    for (int trial = 0; trial < 20; ++trial) {
      const int n = 1 + static_cast<int>(rng() % 4);
      Structure s1 = RandomStructure(rng, schema, n);
      Structure s2 = RandomStructure(rng, schema, n);
      std::vector<Elem> m1 = {static_cast<Elem>(rng() % n)};
      std::vector<Elem> m2 = {static_cast<Elem>(rng() % n)};
      ExpectKeyRoundTrips(s1, m1);
      ExpectKeyRoundTrips(s2, m2);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CanonicalStress, ::testing::Range(0, 6));

// Calls visit(cls, s, marks) on every member of the relational, word and
// tree zoo classes' streams at m <= 4 (m <= 3 for the E/red graphs, whose
// 4-generated stream holds a million members).
template <typename Visit>
void ForEachZooMember(Visit&& visit) {
  AllStructuresClass graphs(GraphZooSchema());
  Schema unary_schema;
  unary_schema.AddRelation("red", 1);
  unary_schema.AddRelation("blue", 1);
  AllStructuresClass unary(MakeSchema(std::move(unary_schema)));
  LinearOrderClass orders;
  EquivalenceClass equivalences;
  WordRunClass words(NfaAPlusBPlus());
  const TreeAutomaton two_level = TaTwoLevel();
  TreeRunClass trees(&two_level, 3);
  struct Stream {
    const char* name;
    const FraisseClass& cls;
    int max_m;
  };
  const Stream streams[] = {{"graphs", graphs, 3},
                            {"unary", unary, 4},
                            {"orders", orders, 4},
                            {"equivalences", equivalences, 4},
                            {"words", words, 4},
                            {"trees", trees, 4}};
  for (const Stream& stream : streams) {
    SCOPED_TRACE(stream.name);
    for (int m = 1; m <= stream.max_m; ++m) {
      std::uint64_t members = 0;
      stream.cls.EnumerateGenerated(
          m, [&](const Structure& s, std::span<const Elem> marks) {
            ++members;
            visit(stream.cls, s, marks);
          });
      EXPECT_GT(members, 0u) << "m = " << m;
    }
  }
}

TEST(CanonicalDecodeTest, ZooMemberKeysRoundTrip) {
  // Every zoo member's key decodes to the canonical form, which
  // re-canonicalizes to the same key. Every 64th key is also damaged.
  std::mt19937 damage(5);
  std::uint64_t members = 0;
  ForEachZooMember([&](const FraisseClass& cls, const Structure& s,
                       std::span<const Elem> marks) {
    ExpectKeyRoundTrips(s, marks);
    if (members++ % 64 == 0) {
      ExpectDamageIsSafe(Canonicalize(s, marks).key, cls.schema(),
                         marks.size(), damage, 16);
    }
  });
}

TEST(CanonicalReferenceTest, ZooMembersMatchReference) {
  ForEachZooMember([](const FraisseClass&, const Structure& s,
                      std::span<const Elem> marks) {
    ExpectMatchesReference(s, marks);
  });
}

// A random structure over RichSchema with `n` elements. Symmetric ones
// (f the identity, g the first projection, p all or nothing, E a sparse
// symmetric relation) leave large color classes, so the candidate search
// and its tie-break do real work.
Structure RandomDifferentialCase(std::mt19937& rng, const SchemaRef& schema,
                                 int n) {
  if (rng() % 2 == 0) return RandomStructure(rng, schema, n);
  Structure s(schema, n);
  const bool all_p = rng() % 2 == 0;
  for (Elem a = 0; a < static_cast<Elem>(n); ++a) {
    if (all_p) s.SetHolds1(0, a);
    s.SetFunction1(0, a, a);
    for (Elem b = 0; b < static_cast<Elem>(n); ++b) {
      s.SetFunction2(1, a, b, a);
      if (a < b && rng() % 4 == 0) {
        s.SetHolds2(1, a, b);
        s.SetHolds2(1, b, a);
      }
    }
  }
  return s;
}

TEST(CanonicalReferenceTest, RandomStructuresMatchReference) {
  auto schema = RichSchema();
  std::mt19937 rng(20240611);
  for (int trial = 0; trial < 20000; ++trial) {
    const int n = static_cast<int>(rng() % 7);
    Structure s = RandomDifferentialCase(rng, schema, n);
    std::vector<Elem> marks(n == 0 ? 0 : rng() % 4);
    for (Elem& m : marks) m = static_cast<Elem>(rng() % n);
    SCOPED_TRACE(trial);
    ExpectMatchesReference(s, marks);
  }
}

TEST(CanonicalDecodeTest, RejectsMalformedKeys) {
  auto schema = RichSchema();
  Structure s = Structure(schema, 2);
  s.SetHolds1(0, 1);
  s.SetFunction1(0, 0, 1);
  s.SetFunction1(0, 1, 0);
  const std::vector<Elem> marks = {0, 1};
  const std::string key = Canonicalize(s, marks).key;
  ASSERT_TRUE(DecodeCanonicalKey(key, schema, 2, nullptr, nullptr));
  // The wrong number of marks, trailing bytes, an empty key.
  EXPECT_FALSE(DecodeCanonicalKey(key, schema, 1, nullptr, nullptr));
  EXPECT_FALSE(DecodeCanonicalKey(key, schema, 3, nullptr, nullptr));
  EXPECT_FALSE(DecodeCanonicalKey(key + '\0', schema, 2, nullptr, nullptr));
  EXPECT_FALSE(DecodeCanonicalKey("", schema, 2, nullptr, nullptr));
  // A mark outside the domain: marks 0 and 5 over two elements.
  std::string far_mark = key;
  far_mark[1] = 5;
  EXPECT_FALSE(DecodeCanonicalKey(far_mark, schema, 2, nullptr, nullptr));
  // A relation entry that is not 0 or 1 (the first byte of p's table).
  std::string bad_bit = key;
  bad_bit[4] = 2;
  EXPECT_FALSE(DecodeCanonicalKey(bad_bit, schema, 2, nullptr, nullptr));
  // A domain no table bytes account for.
  const SchemaRef bare = MakeSchema(Schema{});
  EXPECT_TRUE(DecodeCanonicalKey(std::string("\x00\x01\x01", 3), bare, 1,
                                 nullptr, nullptr));
  EXPECT_FALSE(DecodeCanonicalKey(std::string("\x00\x01\x7f", 3), bare, 1,
                                  nullptr, nullptr));
  // A table no key bytes could hold: 2^40 entries of a 40-ary relation
  // over two elements.
  Schema wide;
  wide.AddRelation("w", 40);
  Structure wide_structure(bare, 0);
  EXPECT_FALSE(DecodeCanonicalKey(std::string("\x00\x01\x02\x00", 4),
                                  MakeSchema(std::move(wide)), 1,
                                  &wide_structure, nullptr));
}

// ---------------------------------------------------------------------------
// Full-width encoding: EncodeContent and the canonical key once emitted one
// byte per element count / function value / mark, so values 256 apart
// aliased (char(257) == char(1)) and distinct structures shared keys.
// ---------------------------------------------------------------------------

TEST(EncodingWidthTest, FunctionValuesPast256DoNotAlias) {
  Schema s;
  s.AddFunction("f", 1);
  auto schema = MakeSchema(std::move(s));
  const int n = 300;
  Structure s1(schema, n);
  Structure s2(schema, n);
  for (Elem e = 0; e < static_cast<Elem>(n); ++e) {
    s1.SetFunction1(0, e, e);
    s2.SetFunction1(0, e, e);
  }
  s1.SetFunction1(0, 0, 1);
  s2.SetFunction1(0, 0, 257);  // 257 truncates to 1 in a single byte
  EXPECT_FALSE(s1 == s2);
  EXPECT_NE(s1.EncodeContent(), s2.EncodeContent());
}

TEST(EncodingWidthTest, DomainSizesPast256DoNotAlias) {
  auto empty_schema = MakeSchema(Schema{});
  Structure small(empty_schema, 1);
  Structure big(empty_schema, 257);  // 257 truncates to 1 in a single byte
  EXPECT_NE(small.EncodeContent(), big.EncodeContent());
}

TEST(EncodingWidthTest, MarksPast256GetDistinctCanonicalKeys) {
  // A rigid 258-element structure (bit predicates give every element a
  // unique color in one refinement round): marks 1 and 257 are genuinely
  // non-isomorphic marked structures and must not share a canonical key
  // even though their ids agree modulo 256.
  Schema s;
  for (int b = 0; b < 9; ++b) s.AddRelation("b" + std::to_string(b), 1);
  auto schema = MakeSchema(std::move(s));
  const Elem n = 258;
  Structure rigid(schema, n);
  for (Elem e = 0; e < n; ++e) {
    for (int b = 0; b < 9; ++b) {
      if ((e >> b) & 1) rigid.SetHolds1(b, e);
    }
  }
  std::vector<Elem> low = {1};
  std::vector<Elem> high = {257};
  CanonicalForm canon_low = Canonicalize(rigid, low);
  CanonicalForm canon_high = Canonicalize(rigid, high);
  EXPECT_NE(canon_low.key, canon_high.key);

  // Sanity: the canonical key is still invariant under renaming at this
  // size — swap two elements and re-canonicalize.
  std::vector<Elem> perm(n);
  for (Elem e = 0; e < n; ++e) perm[e] = e;
  std::swap(perm[3], perm[200]);
  Structure renamed = rigid.ApplyPermutation(perm);
  std::vector<Elem> renamed_high = {perm[257]};
  EXPECT_EQ(Canonicalize(renamed, renamed_high).key, canon_high.key);
}

}  // namespace
}  // namespace amalgam
