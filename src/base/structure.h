// Finite structures over a schema: the paper's "databases" (§2).
//
// Domains are always {0..n-1}. Relations are stored as dense bitmaps and
// functions as dense tables indexed by the little-endian encoding of the
// argument tuple; domains in this library are small (the Theorem 5 search
// only ever materializes structures generated by the register contents), so
// dense storage is both the simplest and the fastest choice.
#ifndef AMALGAM_BASE_STRUCTURE_H_
#define AMALGAM_BASE_STRUCTURE_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/schema.h"

namespace amalgam {

/// Appends `v` to `out` as a LEB128-style varint (7 value bits per byte,
/// high bit = continuation). Every byte-string key builder (the content
/// encoders, canonical keys, interner raw keys) encodes element ids, domain
/// sizes and function values through this helper: unlike the old single-byte
/// truncation, values >= 256 can never alias a smaller value — each varint
/// is self-delimiting, so concatenations decode uniquely — while the
/// common < 128 case still costs one byte in the canonicalization hot loop.
inline void AppendFullWidth(std::string& out, std::uint32_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

/// AppendFullWidth into a buffer with room for 5 bytes; returns the end.
inline char* WriteFullWidth(char* out, std::uint32_t v) {
  while (v >= 0x80) {
    *out++ = static_cast<char>((v & 0x7f) | 0x80);
    v >>= 7;
  }
  *out++ = static_cast<char>(v);
  return out;
}

/// A finite structure (database) over a fixed schema.
class Structure {
 public:
  /// Creates a structure with the given domain size. All relations start
  /// empty; all function tables start as the constant-0 map (callers must
  /// set meaningful values before use when n > 0).
  Structure(SchemaRef schema, std::size_t domain_size);

  const Schema& schema() const { return *schema_; }
  const SchemaRef& schema_ref() const { return schema_; }
  std::size_t size() const { return n_; }

  /// True if `tuple` is in relation `rel`.
  bool Holds(int rel, std::span<const Elem> tuple) const;
  bool Holds2(int rel, Elem a, Elem b) const;
  bool Holds1(int rel, Elem a) const;

  /// Adds or removes a tuple from relation `rel`.
  void SetHolds(int rel, std::span<const Elem> tuple, bool value = true);
  void SetHolds2(int rel, Elem a, Elem b, bool value = true);
  void SetHolds1(int rel, Elem a, bool value = true);

  /// Function application.
  Elem Apply(int fn, std::span<const Elem> args) const;
  Elem Apply1(int fn, Elem a) const;
  Elem Apply2(int fn, Elem a, Elem b) const;
  void SetFunction(int fn, std::span<const Elem> args, Elem value);
  void SetFunction1(int fn, Elem a, Elem value);
  void SetFunction2(int fn, Elem a, Elem b, Elem value);

  /// All tuples currently in relation `rel`, in encoding order.
  std::vector<std::vector<Elem>> Tuples(int rel) const;

  /// Number of tuples in relation `rel`.
  std::size_t TupleCount(int rel) const;

  /// Renames elements: element `e` becomes `perm[e]`. `perm` must be a
  /// permutation of the domain.
  Structure ApplyPermutation(std::span<const Elem> perm) const;

  /// Serializes the structure content (not the schema) in the content
  /// layout (ForEachContentEntry below): equal for two structures over the
  /// same schema iff they are identical under the identity naming of
  /// elements.
  std::string EncodeContent() const;

  /// Writes a compact, self-delimiting record of the content to `out`,
  /// which has room for PackedBound() bytes, and returns the record's end:
  /// the domain size and function values as varints, every relation table
  /// as a bitmap. Member tables (solver/member_table.h) keep member
  /// streams in this form, at a fraction of a Structure's footprint.
  char* WritePacked(char* out) const;
  /// An upper bound on the bytes of this structure's packed record.
  std::size_t PackedBound() const;

  /// Overwrites this structure with the record WritePacked wrote at
  /// `data` for a structure over the same schema, reusing the table
  /// storage (no allocation once the tables have grown to the domain
  /// size). Returns the number of bytes read.
  std::size_t AssignPacked(const char* data);

  /// Structural equality under identity naming (same schema assumed).
  bool operator==(const Structure& other) const;

  /// Human-readable dump (for test failure messages).
  std::string ToString() const;

 private:
  std::size_t TableSize(int arity) const;
  std::size_t EncodeIndex(std::span<const Elem> tuple) const;

  SchemaRef schema_;
  std::size_t n_;
  std::vector<std::vector<std::uint8_t>> rel_tables_;
  std::vector<std::vector<Elem>> fn_tables_;
};

/// Calls visit(tuple) for every tuple of `arity` positions in 0..n-1, in
/// the little-endian tuple-index order of a table (position 0 varies
/// fastest), with tuple[i] = at(position i): `at` names the element at a
/// position, so one walk serves a table of the structure itself (`at` the
/// identity) and of a renamed one. `scratch` is caller-owned and holds the
/// tuple and its positions. Stops and returns false as soon as a call
/// returns false.
template <typename At, typename Visit>
bool ForEachTableTuple(std::size_t n, int arity, At&& at,
                       std::vector<Elem>& scratch, Visit&& visit) {
  // An empty domain has no tuples, except the one nullary tuple.
  if (n == 0 && arity > 0) return true;
  scratch.assign(2 * static_cast<std::size_t>(arity), 0);
  Elem* tuple = scratch.data();
  Elem* position = tuple + arity;
  const Elem first = arity == 0 ? 0 : at(Elem{0});
  std::fill(tuple, position, first);
  for (;;) {
    if (!visit(std::span<const Elem>(tuple, arity))) return false;
    int i = 0;
    while (i < arity && ++position[i] == n) {
      position[i] = 0;
      tuple[i++] = first;
    }
    if (i == arity) return true;
    tuple[i] = at(position[i]);
  }
}

/// The structure-content layout, which EncodeContent and AppendRenamedContent
/// (base/ops.h) write and DecodeCanonicalKey (base/canonical.h) reads: the
/// domain size n as a varint, then each relation table as one 0/1 byte per
/// entry, then each function table as one varint per entry, every table in
/// little-endian tuple-index order over {0..n-1} (tuple[0] varies fastest).
///
/// This is the one walk over those tables: after the domain size, it calls
/// on_relation(r, tuple) for each entry of each relation table, then
/// on_function(f, tuple) for each entry of each function table, with
/// `tuple` the entry's argument tuple renamed by `at` (ForEachTableTuple).
/// It stops and returns false as soon as a call returns false.
template <typename At, typename OnRelation, typename OnFunction>
bool ForEachContentEntry(const Schema& schema, std::size_t n, At&& at,
                         std::vector<Elem>& scratch, OnRelation&& on_relation,
                         OnFunction&& on_function) {
  for (int r = 0; r < schema.num_relations(); ++r) {
    if (!ForEachTableTuple(n, schema.relation(r).arity, at, scratch,
                           [&](std::span<const Elem> t) {
                             return on_relation(r, t);
                           })) {
      return false;
    }
  }
  for (int f = 0; f < schema.num_functions(); ++f) {
    if (!ForEachTableTuple(n, schema.function(f).arity, at, scratch,
                           [&](std::span<const Elem> t) {
                             return on_function(f, t);
                           })) {
      return false;
    }
  }
  return true;
}

}  // namespace amalgam

#endif  // AMALGAM_BASE_STRUCTURE_H_
