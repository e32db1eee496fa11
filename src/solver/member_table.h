// Per-class member tables: a class's member streams, enumerated once and
// grown on demand.
//
// A sub-transition graph depends on (class, k, guards), but its two costly
// inputs do not depend on the guards at all: the class's k- and
// 2k-generated member streams, and each joint member's old/new k-mark
// projection shapes. A MemberTable holds both for one (class fingerprint,
// k), as a prefix of each stream:
//
//   * every member packed into byte blocks — its domain size, relation
//     bitmaps, function tables and marks (Structure::WritePacked), with no
//     per-member Structure or vector;
//   * each member's shape ids in the table's own ConfigInterner, interned
//     the first time a sweep reads the member from the table: a k-stream
//     member's shape, and a joint member's old/new projections once some
//     guard hits it;
//   * one bitmap column per atom over the 2k marks (GuardAtom: R(x_i, x_j)
//     or x_i = x_j) that some guard has named, computed over the existing
//     prefix on first use and on every append after that.
//
// A table starts empty and grows as part of the sweeps that read it
// (SubTransitionGraph::SweepInitial/SweepJoint with a MemberSource that
// names it). A sweep reads the prefix the table holds; one that runs past
// its end claims the extension (Claim), keeps reading the backend's
// positioned stream from the table's end, appends each member and sweeps
// the same streamed Structure. So a class is enumerated at most once, and
// only as far as the furthest sweep needed. A sweep that reaches the end
// while another extends waits for the extender's members instead of
// generating them again. A table stops growing at kMemberCap members per
// stream; sweeps past that point stream on their own.
//
// Readers need no lock: every member below a stream's published size is
// immutable (its shape ids and column bits are atomics, set at most once
// and only ever OR-ed in), and the storage never moves. Appends, column
// creation, lazy shape interning and the interner itself run under the
// table's own mutex, so tables of different classes never wait on each
// other. GraphCache owns the tables (GraphCache::AcquireMemberTable).
#ifndef AMALGAM_SOLVER_MEMBER_TABLE_H_
#define AMALGAM_SOLVER_MEMBER_TABLE_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "fraisse/relational.h"
#include "logic/compiled.h"
#include "solver/backend.h"
#include "solver/intern.h"

namespace amalgam {

class MemberTable {
 public:
  /// The most members a table holds per stream. It bounds a table's
  /// memory: perfbench's cold_build tables average about 26 bytes per
  /// member, so a full table of such members stays under 1 MB.
  static constexpr std::uint64_t kMemberCap = std::uint64_t{1} << 14;

  /// The two streams a table holds, indexed like BuildCursor::phase.
  static constexpr int kInitial = 0;
  static constexpr int kJoint = 1;

  /// Whether a table holds the streams a sweep under `atom_cap`
  /// (EnumControl::atom_cap) enumerates: tables grow under the default
  /// cap, so only 0 and kDefaultRelationalAtomCap qualify.
  static bool Serves(std::uint32_t atom_cap) {
    return atom_cap == 0 || atom_cap == kDefaultRelationalAtomCap;
  }

  /// An empty table for the class over `schema` with `k` registers.
  MemberTable(SchemaRef schema, int k);
  ~MemberTable();
  MemberTable(const MemberTable&) = delete;
  MemberTable& operator=(const MemberTable&) = delete;

  int k() const { return k_; }
  const SchemaRef& schema() const { return schema_; }

  /// The members of `stream` the table holds (acquire: every member below
  /// it is readable).
  std::uint64_t size(int stream) const {
    return sizes_[stream].load(std::memory_order_acquire);
  }
  std::uint64_t initial_size() const { return size(kInitial); }
  std::uint64_t joint_size() const { return size(kJoint); }

  /// What a sweep at `position` of `stream` does next.
  enum class Reach {
    kRead,    // the table holds members from `position` on
    kExtend,  // the caller now extends the stream; see EndExtend
    kStream,  // the table will not grow there: stream without appending
    kEnd,     // the stream ends at `position`
  };
  /// Decides, blocking while another sweep extends the stream at
  /// `position`. kExtend hands the caller the stream's one extension
  /// claim: it streams from `position` (== size), appends each member
  /// until an append fails, and then calls EndExtend exactly once.
  Reach Claim(int stream, std::uint64_t position);
  /// Releases the extension claim; `exhausted` records that the backend's
  /// stream ended right after the last member appended.
  void EndExtend(int stream, bool exhausted);

  /// Appends the next member of `stream` (extension claim held): its
  /// packed bytes, its marks and, for the joint stream, its atom bits.
  /// False once the stream holds kMemberCap members.
  bool Append(int stream, const Structure& d, std::span<const Elem> marks);

  /// The table shape id of k-stream member `i` (< initial_size()),
  /// interned on the first call for the member.
  int InitialShape(std::uint64_t i);
  /// Joint member `i`'s old and new projection ids, interned on the first
  /// call for the member: a sweep asks once some guard hits it. `d` and
  /// `marks` are the member when the caller has it unpacked; with `d` null
  /// the table unpacks it.
  std::pair<int, int> JointShapes(std::uint64_t i, const Structure* d,
                                  std::span<const Elem> marks);

  /// Interns table shape `id` into `into` (InternCanonical).
  int MapShape(int id, ConfigInterner& into) const;

  /// The bitmap column of each atom, created over the current prefix
  /// where missing. Word w of a column holds joint members 64w..64w+63,
  /// and is final for every member below joint_size().
  using Column = const std::atomic<std::uint64_t>*;
  std::vector<Column> Columns(std::span<const GuardAtom> atoms);

  /// Writes member `i` (< size(stream)) of `stream` into `d` (a structure
  /// over schema()) and its marks into `marks`, reusing both buffers.
  void Unpack(int stream, std::uint64_t i, Structure& d,
              std::vector<Elem>& marks) const;

  /// Approximate resident size: blocks, chunks, columns and shapes.
  std::size_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  // Per-member storage comes in chunks of kChunk members that never move,
  // so a reader indexes it without the lock.
  static constexpr std::uint64_t kChunk = 256;
  static constexpr std::size_t kChunks = kMemberCap / kChunk;
  static constexpr std::size_t kColumnWords = kMemberCap / 64;
  static constexpr std::size_t kMinBlockBytes = std::size_t{1} << 12;
  static constexpr std::size_t kMaxBlockBytes = std::size_t{1} << 16;

  struct Chunk {
    const char* record[kChunk];
    // The member's shape ids plus one, 0 until interned: the k-stream's
    // shape, or the joint stream's old << 32 | new projection.
    std::atomic<std::uint64_t> shapes[kChunk];
  };
  struct AtomColumn {
    GuardAtom atom;
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
  };

  const char* record(int stream, std::uint64_t i) const {
    return chunks_[stream][i / kChunk]->record[i % kChunk];
  }
  std::atomic<std::uint64_t>& shape_slot(int stream, std::uint64_t i) {
    return chunks_[stream][i / kChunk]->shapes[i % kChunk];
  }
  // Packs the member and its marks into the blocks; returns the record.
  const char* StoreRecord(const Structure& d, std::span<const Elem> marks);
  // Adds the footprint of shapes interned since the last call. Caller
  // holds mutex_.
  void AccountShapes();

  const int k_;
  const SchemaRef schema_;

  std::atomic<std::uint64_t> sizes_[2] = {};
  std::array<std::unique_ptr<Chunk>, kChunks> chunks_[2];
  std::atomic<std::size_t> bytes_{0};

  // Everything below is guarded by mutex_.
  mutable std::mutex mutex_;
  std::condition_variable extended_;
  bool extending_[2] = {false, false};
  bool exhausted_[2] = {false, false};
  int waiters_ = 0;  // sweeps blocked in Claim
  ConfigInterner interner_;
  int accounted_shapes_ = 0;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::size_t block_size_ = 0;
  std::size_t block_used_ = 0;
  std::vector<AtomColumn> columns_;
  Structure unpacked_;
  std::vector<Elem> unpacked_marks_;
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_MEMBER_TABLE_H_
