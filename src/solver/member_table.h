// Per-class member tables: a class's member streams, enumerated and
// interned once.
//
// A sub-transition graph depends on (class, k, guards), but its two costly
// inputs do not depend on the guards at all: the class's k- and
// 2k-generated member streams, and each joint member's old/new k-mark
// projection shapes. A MemberTable holds both for one (class fingerprint,
// k):
//
//   * the k-stream as shape ids, in stream order;
//   * the 2k joint stream packed into one byte arena — per member its
//     domain size, relation bitmaps, function tables and 2k marks
//     (Structure::AppendPacked), with no per-member Structure or vector;
//   * each joint member's old/new projection ids, precomputed in the
//     table's own ConfigInterner.
//
// A graph build over a table (SubTransitionGraph::SweepInitial/SweepJoint
// with a MemberSource that names it) then only runs guards: it unpacks
// each member into a reused scratch Structure, evaluates the compiled
// guards, and on a member's first hit maps the table's shape ids into the
// graph through InternCanonical, old before new. The members, their order
// and the shapes are exactly the backend stream's, so the graph is
// bit-identical to a streamed build.
//
// A class is only tabled whole: when either stream runs past kMemberCap
// members, or the backend stops it with an EnumerationCapError, Build
// returns nullptr and every sweep over the class streams from the backend.
// Tables are immutable once built and shared read-only; GraphCache owns
// them (GraphCache::AcquireMemberTable).
#ifndef AMALGAM_SOLVER_MEMBER_TABLE_H_
#define AMALGAM_SOLVER_MEMBER_TABLE_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fraisse/relational.h"
#include "solver/backend.h"
#include "solver/intern.h"

namespace amalgam {

class MemberTable {
 public:
  /// The most members a table holds per stream. It bounds a table's
  /// memory: perfbench's cold_build tables average about 26 bytes per
  /// member, so a full table of such members stays under 1 MB.
  static constexpr std::uint64_t kMemberCap = std::uint64_t{1} << 14;

  /// Enumerates and interns `backend`'s k-generated and 2k-generated
  /// streams. Returns nullptr, having stopped enumerating, once a stream
  /// runs past kMemberCap members or throws EnumerationCapError.
  /// `generated`, when non-null, counts the members the backend
  /// materialized (EnumControl::generated), also for a class left untabled.
  static std::shared_ptr<const MemberTable> Build(
      const SolverBackend& backend, int k,
      std::uint64_t* generated = nullptr);

  /// Whether a table holds the streams a sweep under `atom_cap`
  /// (EnumControl::atom_cap) enumerates: tables are built under the
  /// default cap, so only 0 and kDefaultRelationalAtomCap qualify.
  static bool Serves(std::uint32_t atom_cap) {
    return atom_cap == 0 || atom_cap == kDefaultRelationalAtomCap;
  }

  int k() const { return k_; }
  const SchemaRef& schema() const { return schema_; }

  /// The k-stream: its length and the shape id of member `i`.
  std::uint64_t initial_size() const { return initial_shapes_.size(); }
  int initial_shape(std::uint64_t i) const { return initial_shapes_[i]; }

  /// The 2k joint stream: its length and the shape ids of member `i`'s old
  /// and new projections.
  std::uint64_t joint_size() const { return joint_offsets_.size(); }
  int joint_old_shape(std::uint64_t i) const { return projections_[2 * i]; }
  int joint_new_shape(std::uint64_t i) const {
    return projections_[2 * i + 1];
  }

  /// Writes joint member `i` into `joint` (a structure over schema()) and
  /// its 2k marks into `marks`, reusing both buffers' storage.
  void UnpackJoint(std::uint64_t i, Structure& joint,
                   std::vector<Elem>& marks) const;

  /// The shape arena the ids above index.
  const CanonicalForm& shape(int id) const { return interner_.shape(id); }
  int num_shapes() const { return interner_.size(); }

  /// Approximate resident size: the arena, the id vectors and the shapes.
  std::size_t bytes() const { return bytes_; }

 private:
  MemberTable() = default;

  int k_ = 0;
  SchemaRef schema_;
  ConfigInterner interner_;
  std::vector<std::int32_t> initial_shapes_;
  // Member i's packed record starts at joint_offsets_[i] in arena_.
  std::string arena_;
  std::vector<std::uint32_t> joint_offsets_;
  // Old, new projection id per joint member, interleaved.
  std::vector<std::int32_t> projections_;
  std::size_t bytes_ = 0;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_MEMBER_TABLE_H_
