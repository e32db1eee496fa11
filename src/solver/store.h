// Persistent storage of sub-transition graphs (solver/graph.h).
//
// The complete graph for a (backend fingerprint, k, guard set) is the
// solver's expensive artifact; this module lets it outlive the process. A
// GraphStore is a directory holding one file per cache key, written
// atomically (temp file + rename) and read back into a SubTransitionGraph
// whose resumed or cached behavior is indistinguishable from the original:
// serialize/deserialize/serialize is byte-identical, and a restored
// *partial* graph (its BuildCursor travels with it) resumes its member
// sweep exactly where the suspended build stopped.
//
// File format, version 3 — everything after the magic is varint-coded with
// the same LEB128 encoding as AppendFullWidth (base/structure.h), so the
// file shares its vocabulary with the canonical keys it contains:
//
//   "AMGS" magic, varint format version (= 3)
//   varint key length, key bytes        (the GraphCache key, verified on load)
//   varint k, varint guard count        (verified against the loading query)
//   varint cursor phase, varint cursor next_member, varint edge count
//                                       (the graph's BuildProgress — lets
//                                       Save compare two files without
//                                       parsing the body)
//   schema block: #relations, per symbol (name length, name, arity);
//                 #functions likewise    (verified against the backend schema)
//   shape block:  #shapes, per shape its canonical key (varint length,
//                 bytes), which alone determines the shape; every key is
//                 checked to decode over the schema
//   varint #initial shapes, their ids
//   edge block:   per shape (#edges, per edge guard, new shape)
//   8-byte little-endian FNV-1a checksum of all preceding bytes
//
// Guards are NOT serialized: the key already pins the printed guard set,
// and the loading query supplies the live FormulaRefs — so the store never
// needs a formula parser, and a key match guarantees the guards line up.
// Every read is bounds-checked and every index validated; any mismatch
// (truncation, corruption, key/schema drift, version skew) makes the load
// fail soft — the caller falls back to a fresh build.
//
// Generation 2 — the packed tier. One file per key stops scaling long
// before the millions-of-keys regime: directory lookups, inode pressure
// and per-file open/close dominate. A store directory may therefore also
// hold a *pack*:
//
//   pack.amgp   "AMGP" magic, varint version, then length-prefixed
//               entries (varint byte count, entry bytes), each entry
//               being exactly the bytes a loose file would hold (the
//               AMGS record above, self-validating: embedded key +
//               checksum). The framing makes the pack self-describing:
//               a sequential scan recovers every entry without the index.
//   pack.idx    sorted (key hash, offset, length) index over the pack,
//               bound to it by the pack's byte size; atomically published
//
// Reads check the loose tier first (a loose file is always at least as
// far along as the packed entry for its key — Save only writes loose),
// then binary-search the index and read one entry out of the pack.
// Repack() folds the loose tier into a fresh pack and is crash-tolerant
// at every step; the full state machine, publication order and recovery
// rules are specified normatively in docs/STORE_FORMAT.md.
#ifndef AMALGAM_SOLVER_STORE_H_
#define AMALGAM_SOLVER_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "solver/graph.h"

namespace amalgam {

/// The serialization format version written by SerializeGraph and required
/// by DeserializeGraph. Bump on any layout change; old files then fail
/// soft (rebuild) instead of being misread.
/// Version 2 dropped version 1's per-edge witness steps; version 3 keeps
/// only each shape's canonical key, dropping version 2's structure, marks
/// and permutation.
inline constexpr std::uint32_t kGraphStoreFormatVersion = 3;

/// Serializes `graph` (complete or partial) under its cache key. The
/// output is a pure function of the graph's logical content — two
/// bit-identical graphs serialize identically.
std::string SerializeGraph(const SubTransitionGraph& graph,
                           std::string_view key);

/// Parses `bytes` back into a graph. `schema` becomes the schema of every
/// reconstructed structure (the file's schema block must match it
/// structurally); `guards`/`k` come from the loading query and must match
/// the serialized counts. Returns nullptr on any validation failure.
std::shared_ptr<SubTransitionGraph> DeserializeGraph(
    std::string_view bytes, std::string_view key, const SchemaRef& schema,
    std::span<const FormulaRef> guards, int k);

/// The pack index format version written and required by Repack/Load.
inline constexpr std::uint32_t kPackFormatVersion = 1;

/// What GraphStore::Sweep removed and what survived it.
struct StoreSweepResult {
  std::uint64_t files_removed = 0;
  std::uint64_t bytes_removed = 0;
  std::uint64_t files_kept = 0;
  std::uint64_t bytes_kept = 0;
};

/// What one GraphStore::Repack pass did.
struct StoreRepackResult {
  /// A new pack generation was published (false: nothing to fold, or the
  /// pass failed/was killed before publication — see `error`).
  bool performed = false;
  std::string error;             // non-empty on failure (never on kill)
  std::uint64_t entries = 0;      // entries in the published pack
  std::uint64_t pack_bytes = 0;   // size of the published pack file
  std::uint64_t loose_folded = 0;  // loose files absorbed and deleted
  /// Loose files that advanced concurrently while this pass ran; they are
  /// kept (still authoritative over the packed entry) and picked up by the
  /// next repack.
  std::uint64_t loose_kept = 0;
};

/// Simulated crash points for Repack, used by the crash-safety tests: the
/// pass stops dead (no error, no cleanup) exactly where a real process
/// death at that instant would leave the directory.
enum class RepackKillPoint {
  kNone,
  kBeforePackRename,   // pack tmp fully written, not yet published
  kBeforeIndexRename,  // new pack published, index tmp not yet published
  kBeforeLooseDelete,  // both published, loose tier not yet folded away
};

/// Cumulative per-handle I/O counters (plain atomics: queries on other
/// threads bump them while a stats path reads them).
struct StoreCounters {
  std::uint64_t loose_loads = 0;   // graphs read from one-file-per-key tier
  std::uint64_t pack_loads = 0;    // graphs read out of the pack
  std::uint64_t load_failures = 0; // present-but-invalid reads (either tier)
  std::uint64_t saves = 0;         // loose files written
  std::uint64_t save_skips = 0;    // saves refused by the progress guard
  std::uint64_t sweeps = 0;        // Sweep passes that enforced a cap
  std::uint64_t sweep_files_removed = 0;
  std::uint64_t sweep_bytes_removed = 0;
  std::uint64_t repacks = 0;       // published pack generations
};

/// A directory of serialized graphs: a loose one-file-per-key tier (file
/// names are a hash of the key; the key stored inside the file
/// disambiguates hash collisions, which simply behave as misses) plus an
/// optional packed generation folded together by Repack. Methods are
/// const and touch the filesystem plus per-handle caches/counters behind
/// internal synchronization — callers coordinate cross-call concurrency
/// themselves (GraphCache snapshots the handle and runs I/O outside its
/// map mutex) — see docs/STORE_FORMAT.md for the cross-process story
/// (atomic renames; torn readers rebuild).
class GraphStore {
 public:
  /// Creates `dir` (recursively) if it does not exist. Throws
  /// std::runtime_error when the directory cannot be created.
  explicit GraphStore(std::string dir);

  const std::string& dir() const { return dir_; }

  /// The file a given key persists to.
  std::string PathFor(const std::string& key) const;

  struct LoadResult {
    std::shared_ptr<SubTransitionGraph> graph;  // nullptr on miss/corrupt
    /// True when a file was present for the key — with a null graph this
    /// means the file was unreadable or failed validation, which callers
    /// surface as a load failure rather than a plain miss.
    bool file_found = false;
  };

  /// Reads and validates the graph persisted under `key`: the loose file
  /// first (always at least as far along when both tiers hold the key),
  /// then the pack.
  LoadResult Load(const std::string& key, const SchemaRef& schema,
                  std::span<const FormulaRef> guards, int k) const;

  /// Persists `graph` under `key` as a loose file via an atomic rename —
  /// but only when its BuildProgress (solver/graph.h) is strictly greater
  /// than that of the furthest valid copy already persisted in either
  /// tier, so a less-explored graph never clobbers progress persisted by
  /// another process and a packed complete entry is never shadowed by a
  /// partial loose one. Corrupt/torn incumbents are always overwritten. Returns
  /// true only when a file was actually written; false means the write
  /// failed or was skipped in favor of the further-along incumbent.
  bool Save(const std::string& key, const SubTransitionGraph& graph) const;

  /// The build progress persisted for `key` (the greater of the two
  /// tiers'), read from entry headers without materializing a graph;
  /// nullopt when neither tier holds a valid entry for the key.
  std::optional<BuildProgress> PeekKey(const std::string& key) const;

  /// Folds the loose tier into a fresh pack generation: reads every valid
  /// packed and loose entry, keeps the copy of greatest BuildProgress per
  /// key (a loose copy on a tie), writes
  /// a new pack + index under temp names, publishes both atomically (pack
  /// first, then the index that references it), and only then deletes the
  /// loose files it absorbed — re-checking each one so progress saved
  /// concurrently is never lost. A crash at any point (simulated by
  /// `kill_point`) leaves a directory every reader handles: tmp files are
  /// ignored, a pack without its matching index is invisible, and until
  /// the loose files are deleted they remain authoritative.
  StoreRepackResult Repack(
      RepackKillPoint kill_point = RepackKillPoint::kNone) const;

  /// Loose ".amg" files currently in the directory (the maintenance
  /// loop's repack trigger; one directory scan).
  std::uint64_t LooseFileCount() const;
  /// Entries reachable through the current pack index (0 without a pack).
  std::uint64_t PackEntryCount() const;
  /// True when a pack file exists but its index does not validate (missing,
  /// corrupt, or bound to a different pack size — the state a crash between
  /// the two publication renames leaves). Readers treat this pack as
  /// absent; the next Repack() recovers it by sequential scan.
  bool PackNeedsRepair() const;

  /// Snapshot of the cumulative per-handle counters.
  StoreCounters counters() const;

  /// Caps the disk tier: while the store holds more than `max_files` graph
  /// files or more than `max_bytes` of them, the least-recently-*read* file
  /// (by atime, falling back to mtime where atime is older than the write —
  /// a conservative LRU under relatime mounts) is deleted. 0 means
  /// unlimited for either cap; Sweep(0, 0) is a no-op. Only "*.amg" graph
  /// files are considered — foreign files and in-flight ".tmp.*" writes are
  /// never touched. Deleting a file a concurrent query is about to read is
  /// benign: the load misses and the query rebuilds (the same contract as
  /// a corrupt file).
  StoreSweepResult Sweep(std::uint64_t max_bytes, std::uint64_t max_files) const;

  std::string PackPath() const;
  std::string IndexPath() const;

 private:
  struct PackIndexEntry {
    std::uint64_t key_hash = 0;
    std::uint64_t offset = 0;
    std::uint64_t length = 0;
  };
  /// A parsed, validated pack.idx: entries sorted by key hash, bound to
  /// the pack file size it was written against.
  struct PackIndex {
    std::vector<PackIndexEntry> entries;
    std::uint64_t pack_size = 0;
  };

  /// The current pack index, reloaded when pack.idx changed on disk since
  /// the cached copy (cheap stat per call). Null when there is no pack,
  /// the index fails validation, or it disagrees with the pack's size —
  /// the states a crashed repack can leave, all read as "no pack".
  std::shared_ptr<const PackIndex> LoadPackIndex() const;
  /// The raw serialized entry for `key` out of the pack ("" on miss).
  std::string ReadPackEntry(const std::string& key) const;

  std::string dir_;

  // Index cache: (mtime, size) of the pack.idx the cached parse came
  // from; reloaded when either changed.
  mutable std::mutex pack_mutex_;
  mutable std::shared_ptr<const PackIndex> pack_index_;
  mutable std::int64_t pack_index_mtime_ns_ = -1;
  mutable std::uint64_t pack_index_size_ = 0;

  mutable std::atomic<std::uint64_t> loose_loads_{0};
  mutable std::atomic<std::uint64_t> pack_loads_{0};
  mutable std::atomic<std::uint64_t> load_failures_{0};
  mutable std::atomic<std::uint64_t> saves_{0};
  mutable std::atomic<std::uint64_t> save_skips_{0};
  mutable std::atomic<std::uint64_t> sweeps_{0};
  mutable std::atomic<std::uint64_t> sweep_files_removed_{0};
  mutable std::atomic<std::uint64_t> sweep_bytes_removed_{0};
  mutable std::atomic<std::uint64_t> repacks_{0};
};

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_STORE_H_
