#include "solver/store.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include <sys/stat.h>
#include <unistd.h>

#include "base/canonical.h"
#include "util/hash.h"

namespace amalgam {

namespace {

constexpr char kMagic[4] = {'A', 'M', 'G', 'S'};
constexpr char kPackMagic[4] = {'A', 'M', 'G', 'P'};
constexpr char kIndexMagic[4] = {'A', 'M', 'G', 'I'};
constexpr char kPackFileName[] = "pack.amgp";
constexpr char kIndexFileName[] = "pack.idx";

// 64-bit LEB128, the same encoding AppendFullWidth uses for 32-bit values
// (the two are wire-compatible; cursor positions and counts can exceed 32
// bits on large classes).
void AppendVarint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

// Bounds-checked sequential reader over the serialized payload. Every
// primitive returns false on truncation or malformed data; callers
// propagate the failure up to a nullptr load.
class Reader {
 public:
  explicit Reader(std::string_view data) : data_(data) {}

  bool ReadVarint(std::uint64_t* v) {
    *v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (pos_ >= data_.size()) return false;
      const std::uint8_t byte = static_cast<std::uint8_t>(data_[pos_++]);
      *v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if (!(byte & 0x80)) return true;
    }
    return false;  // > 10 continuation bytes: malformed
  }

  // Varint that must fit the target integer type.
  template <typename T>
  bool ReadCounted(T* out) {
    std::uint64_t v;
    if (!ReadVarint(&v)) return false;
    if (v > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
      return false;
    }
    *out = static_cast<T>(v);
    return true;
  }

  bool ReadBytes(std::size_t n, std::string_view* out) {
    if (n > data_.size() - pos_) return false;
    *out = data_.substr(pos_, n);
    pos_ += n;
    return true;
  }

  std::size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

 private:
  std::string_view data_;
  std::size_t pos_ = 0;
};

void AppendSchema(std::string& out, const Schema& schema) {
  AppendVarint(out, schema.num_relations());
  for (int r = 0; r < schema.num_relations(); ++r) {
    const Symbol& sym = schema.relation(r);
    AppendVarint(out, sym.name.size());
    out += sym.name;
    AppendVarint(out, sym.arity);
  }
  AppendVarint(out, schema.num_functions());
  for (int f = 0; f < schema.num_functions(); ++f) {
    const Symbol& sym = schema.function(f);
    AppendVarint(out, sym.name.size());
    out += sym.name;
    AppendVarint(out, sym.arity);
  }
}

// The schema block is validation only — reconstructed structures share the
// backend's live SchemaRef — so reading is comparing.
bool ReadAndCheckSchema(Reader& r, const Schema& schema) {
  auto check_symbols = [&](int count, auto&& symbol_of) {
    std::uint64_t n;
    if (!r.ReadVarint(&n) || n != static_cast<std::uint64_t>(count)) {
      return false;
    }
    for (int i = 0; i < count; ++i) {
      const Symbol& sym = symbol_of(i);
      std::uint64_t len;
      std::string_view name;
      std::uint64_t arity;
      if (!r.ReadVarint(&len) || !r.ReadBytes(len, &name)) return false;
      if (!r.ReadVarint(&arity)) return false;
      if (name != sym.name || arity != static_cast<std::uint64_t>(sym.arity)) {
        return false;
      }
    }
    return true;
  };
  return check_symbols(schema.num_relations(),
                       [&](int i) -> const Symbol& {
                         return schema.relation(i);
                       }) &&
         check_symbols(schema.num_functions(), [&](int i) -> const Symbol& {
           return schema.function(i);
         });
}

bool ReadFileBytes(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign((std::istreambuf_iterator<char>(in)),
              std::istreambuf_iterator<char>());
  return in.good() || in.eof();
}

void AppendU64LE(std::string& out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint64_t ReadU64LE(std::string_view bytes) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(bytes[i]))
         << (8 * i);
  }
  return v;
}

/// A record's header: everything before the schema block.
struct RecordHeader {
  std::string_view key;  // views the record's bytes
  std::uint64_t k = 0;
  std::uint64_t num_guards = 0;
  BuildProgress progress;
};

/// Validates one serialized graph record (a loose file's bytes, or one
/// entry sliced out of the pack) down to its progress header: checksum,
/// magic, version. Parses the header and leaves `r` at the schema block.
/// False on any mismatch — the record reads as absent.
bool ReadHeader(std::string_view bytes, RecordHeader* header, Reader* r) {
  if (bytes.size() < sizeof(kMagic) + 8) return false;
  const std::string_view payload = bytes.substr(0, bytes.size() - 8);
  if (Fnv1a64(payload) != ReadU64LE(bytes.substr(bytes.size() - 8)) ||
      payload.substr(0, sizeof(kMagic)) !=
          std::string_view(kMagic, sizeof(kMagic))) {
    return false;
  }
  *r = Reader(payload.substr(sizeof(kMagic)));
  std::uint64_t version, key_len;
  return r->ReadVarint(&version) && version == kGraphStoreFormatVersion &&
         r->ReadVarint(&key_len) && r->ReadBytes(key_len, &header->key) &&
         r->ReadVarint(&header->k) && r->ReadVarint(&header->num_guards) &&
         r->ReadCounted(&header->progress.cursor.phase) &&
         r->ReadVarint(&header->progress.cursor.next_member) &&
         r->ReadVarint(&header->progress.edges);
}

/// The embedded key and progress header of a record that ReadHeader
/// accepts.
bool PeekEntryBytes(std::string_view bytes, std::string* key_out,
                    BuildProgress* progress) {
  RecordHeader header;
  Reader r{std::string_view()};
  if (!ReadHeader(bytes, &header, &r)) return false;
  key_out->assign(header.key);
  *progress = header.progress;
  return true;
}

/// The progress recorded in an existing, checksum-valid store file for
/// `key`. Nullopt when the file is absent, torn, for a different key (hash
/// collision) or otherwise unreadable — all cases where overwriting loses
/// nothing.
std::optional<BuildProgress> PeekProgress(const std::string& path,
                                          std::string_view key) {
  std::string bytes;
  std::string stored_key;
  BuildProgress progress;
  if (ReadFileBytes(path, &bytes) &&
      PeekEntryBytes(bytes, &stored_key, &progress) && stored_key == key) {
    return progress;
  }
  return std::nullopt;
}

/// Reader::ReadVarint over a stream, counting the bytes it consumes into
/// `*pos`.
bool ReadStreamVarint(std::istream& in, std::uint64_t* v, std::uint64_t* pos) {
  *v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    const int c = in.get();
    if (c == std::char_traits<char>::eof()) return false;
    ++*pos;
    const std::uint8_t byte = static_cast<std::uint8_t>(c);
    *v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
    if (!(byte & 0x80)) return true;
  }
  return false;
}

/// Scans a pack file sequentially, holding one entry in memory at a time:
/// calls `visit(key, progress, offset, length)` for each entry in file
/// order, where offset and length place the entry's bytes in the file, and
/// stops at the first entry that is torn or fails ReadHeader.
template <typename Visit>
void ScanPack(std::istream& in, Visit&& visit) {
  if (!in.seekg(0, std::ios::end)) return;
  const std::streamoff end = in.tellg();
  if (end < 0 || !in.seekg(0)) return;
  const std::uint64_t size = static_cast<std::uint64_t>(end);
  char magic[sizeof(kPackMagic)];
  std::uint64_t pos = sizeof(magic);
  std::uint64_t version = 0;
  if (size <= sizeof(magic) || !in.read(magic, sizeof(magic)) ||
      std::string_view(magic, sizeof(magic)) !=
          std::string_view(kPackMagic, sizeof(kPackMagic)) ||
      !ReadStreamVarint(in, &version, &pos) || version != kPackFormatVersion) {
    return;
  }
  std::string entry;
  std::string key;
  for (;;) {
    std::uint64_t length = 0;
    if (!ReadStreamVarint(in, &length, &pos) || length > size - pos) break;
    entry.resize(length);
    if (!in.read(entry.data(), static_cast<std::streamsize>(length))) break;
    BuildProgress progress;
    if (!PeekEntryBytes(entry, &key, &progress)) break;
    visit(key, progress, pos, length);
    pos += length;
  }
}

}  // namespace

std::string SerializeGraph(const SubTransitionGraph& graph,
                           std::string_view key) {
  std::string out(kMagic, sizeof(kMagic));
  AppendVarint(out, kGraphStoreFormatVersion);
  AppendVarint(out, key.size());
  out += key;
  AppendVarint(out, graph.k());
  AppendVarint(out, graph.guards().size());
  // The graph's BuildProgress, in the header so Save can compare two
  // files' progress without parsing the shape and edge blocks.
  const BuildProgress progress = graph.progress();
  AppendVarint(out, progress.cursor.phase);
  AppendVarint(out, progress.cursor.next_member);
  AppendVarint(out, progress.edges);

  // Every shape projects a member of one backend class, so all share one
  // schema; a graph without shapes writes an empty block.
  if (graph.num_shapes() > 0) {
    AppendSchema(out, *graph.schema());
  } else {
    AppendVarint(out, 0);
    AppendVarint(out, 0);
  }

  // A shape is its canonical key: the key alone determines the structure
  // and the marks (DecodeCanonicalKey).
  AppendVarint(out, graph.num_shapes());
  for (int id = 0; id < graph.num_shapes(); ++id) {
    const std::string_view canon_key = graph.interner().shape(id).key;
    AppendVarint(out, canon_key.size());
    out += canon_key;
  }

  AppendVarint(out, graph.initial_shapes().size());
  for (int shape : graph.initial_shapes()) AppendVarint(out, shape);

  for (int shape = 0; shape < graph.num_shapes(); ++shape) {
    const auto& edges = graph.edges_from(shape);
    AppendVarint(out, edges.size());
    for (const SubTransitionGraph::Edge& e : edges) {
      AppendVarint(out, e.guard);
      AppendVarint(out, e.new_shape);
    }
  }

  const std::uint64_t checksum = Fnv1a64(out);
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((checksum >> (8 * i)) & 0xff));
  }
  return out;
}

std::shared_ptr<SubTransitionGraph> DeserializeGraph(
    std::string_view bytes, std::string_view key, const SchemaRef& schema,
    std::span<const FormulaRef> guards, int k) {
  RecordHeader header;
  Reader r{std::string_view()};
  // A stored key other than `key` is a filename hash collision.
  if (!ReadHeader(bytes, &header, &r) || header.key != key ||
      header.k != static_cast<std::uint64_t>(k) ||
      header.num_guards != guards.size() || !ReadAndCheckSchema(r, *schema)) {
    return nullptr;
  }

  std::size_t num_shapes;
  if (!r.ReadCounted(&num_shapes) || num_shapes > r.remaining()) {
    return nullptr;
  }
  // Views into `bytes`: FromParts copies them into the interner's arena.
  // Each key is checked to decode over the schema, so the witness path can
  // rely on every shape of a loaded graph.
  std::vector<std::string_view> shape_keys(num_shapes);
  for (std::string_view& canon_key : shape_keys) {
    std::size_t key_size;
    if (!r.ReadCounted(&key_size) || !r.ReadBytes(key_size, &canon_key) ||
        !DecodeCanonicalKey(canon_key, schema, static_cast<std::size_t>(k),
                            nullptr, nullptr)) {
      return nullptr;
    }
  }

  std::size_t num_initial;
  if (!r.ReadCounted(&num_initial) || num_initial > num_shapes) {
    return nullptr;
  }
  std::vector<int> initial_shapes(num_initial);
  for (int& shape : initial_shapes) {
    if (!r.ReadCounted(&shape)) return nullptr;
  }

  // Two bytes at least per edge bound the reservation on a corrupt header.
  std::vector<SubTransitionGraph::Edge> edges;
  edges.reserve(std::min<std::uint64_t>(header.progress.edges,
                                        r.remaining() / 2));
  std::vector<std::uint32_t> edge_begin(num_shapes + 1, 0);
  for (std::size_t shape = 0; shape < num_shapes; ++shape) {
    std::size_t count;
    if (!r.ReadCounted(&count) || count > r.remaining()) return nullptr;
    for (std::size_t i = 0; i < count; ++i) {
      SubTransitionGraph::Edge e;
      if (!r.ReadCounted(&e.guard) || !r.ReadCounted(&e.new_shape)) {
        return nullptr;
      }
      edges.push_back(e);
    }
    if (edges.size() > std::numeric_limits<std::uint32_t>::max()) {
      return nullptr;
    }
    edge_begin[shape + 1] = static_cast<std::uint32_t>(edges.size());
  }
  if (!r.done()) return nullptr;  // trailing garbage

  std::shared_ptr<SubTransitionGraph> graph = SubTransitionGraph::FromParts(
      std::vector<FormulaRef>(guards.begin(), guards.end()), k, schema,
      shape_keys, std::move(initial_shapes), std::move(edges),
      std::move(edge_begin), header.progress.cursor);
  // Save compares records by their header alone, so the header's edge count
  // must be the edge block's.
  if (graph == nullptr || graph->progress() != header.progress) {
    return nullptr;
  }
  return graph;
}

GraphStore::GraphStore(std::string dir) : dir_(std::move(dir)) {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec || !std::filesystem::is_directory(dir_)) {
    throw std::runtime_error("GraphStore: cannot create directory " + dir_);
  }
}

std::string GraphStore::PathFor(const std::string& key) const {
  // File names hash the key (keys embed arbitrary fingerprint bytes and can
  // be long); the key serialized inside the file resolves collisions — a
  // colliding file simply fails the key check and reads as a miss.
  char name[32];
  std::snprintf(name, sizeof(name), "g%016llx.amg",
                static_cast<unsigned long long>(Fnv1a64(key)));
  return (std::filesystem::path(dir_) / name).string();
}

GraphStore::LoadResult GraphStore::Load(const std::string& key,
                                        const SchemaRef& schema,
                                        std::span<const FormulaRef> guards,
                                        int k) const {
  LoadResult result;
  // Loose tier first: Save only writes loose files, so whenever both
  // tiers hold the key the loose copy is at least as far along.
  std::string bytes;
  if (ReadFileBytes(PathFor(key), &bytes)) {
    // An existing file counts as found even when empty (a crashed writer's
    // leavings): the caller surfaces it as a load failure, not a miss.
    result.file_found = true;
    result.graph = DeserializeGraph(bytes, key, schema, guards, k);
    if (result.graph) {
      loose_loads_.fetch_add(1, std::memory_order_relaxed);
      return result;
    }
    // Corrupt loose file: fall through — the pack may still hold a good
    // (older) copy, which beats rebuilding from nothing.
    load_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  const std::string entry = ReadPackEntry(key);
  if (!entry.empty()) {
    result.file_found = true;
    result.graph = DeserializeGraph(entry, key, schema, guards, k);
    if (result.graph) {
      pack_loads_.fetch_add(1, std::memory_order_relaxed);
    } else {
      load_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return result;
}

std::optional<BuildProgress> GraphStore::PeekKey(
    const std::string& key) const {
  std::optional<BuildProgress> progress = PeekProgress(PathFor(key), key);
  // ReadPackEntry returns only a record that carries `key`.
  const std::string entry = ReadPackEntry(key);
  std::string stored_key;
  BuildProgress packed;
  if (!entry.empty() && PeekEntryBytes(entry, &stored_key, &packed) &&
      (!progress || *progress < packed)) {
    progress = packed;
  }
  return progress;
}

bool GraphStore::Save(const std::string& key,
                      const SubTransitionGraph& graph) const {
  const std::string path = PathFor(key);
  // Never clobber further-along progress persisted by someone we have not
  // seen — another process, or another cache in this one — with a
  // less-explored graph: write-through only when this graph's
  // BuildProgress is strictly greater than that of the furthest copy
  // either tier already holds. (Against the pack the check
  // also prevents a *shadow* downgrade: a partial loose file would eclipse
  // the packed entry on the read path.) Last-writer-wins remains possible
  // between racing saves of incomparable snapshots, but both snapshots are
  // then correct graphs and the trajectory merely pauses, never corrupts.
  const std::optional<BuildProgress> incumbent = PeekKey(key);
  if (incumbent && graph.progress() <= *incumbent) {
    save_skips_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  // Unique temp name per process *and* per call — concurrent saves of the
  // same key from two private caches in one process must not interleave
  // into one temp file. The final rename is atomic, so a concurrent
  // reader sees either the old file or the new one, never a torn write.
  static std::atomic<std::uint64_t> save_counter{0};
  const std::string tmp = path + ".tmp." +
                          std::to_string(static_cast<long>(::getpid())) + "." +
                          std::to_string(save_counter.fetch_add(1));
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    const std::string bytes = SerializeGraph(graph, key);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
      out.close();
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    return false;
  }
  saves_.fetch_add(1, std::memory_order_relaxed);
  return true;
}

StoreSweepResult GraphStore::Sweep(std::uint64_t max_bytes,
                                   std::uint64_t max_files) const {
  StoreSweepResult result;
  if (max_bytes == 0 && max_files == 0) return result;
  sweeps_.fetch_add(1, std::memory_order_relaxed);

  struct FileInfo {
    std::string path;
    std::uint64_t size = 0;
    // Last-use time in nanoseconds; atime where it is being maintained,
    // otherwise mtime (relatime mounts may leave atime frozen before the
    // last write, in which case the write is the best lower bound on use).
    std::int64_t used_ns = 0;
  };
  std::vector<FileInfo> files;
  std::uint64_t total_bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::filesystem::path& p = entry.path();
    if (p.extension() != ".amg") continue;  // skip temp files and strangers
    struct stat st;
    if (::stat(p.c_str(), &st) != 0) continue;
    const std::int64_t atime_ns =
        st.st_atim.tv_sec * 1'000'000'000LL + st.st_atim.tv_nsec;
    const std::int64_t mtime_ns =
        st.st_mtim.tv_sec * 1'000'000'000LL + st.st_mtim.tv_nsec;
    files.push_back(FileInfo{p.string(), static_cast<std::uint64_t>(st.st_size),
                             std::max(atime_ns, mtime_ns)});
    total_bytes += static_cast<std::uint64_t>(st.st_size);
  }
  // Oldest-use first: those go first when a cap is exceeded.
  std::sort(files.begin(), files.end(),
            [](const FileInfo& a, const FileInfo& b) {
              return a.used_ns != b.used_ns ? a.used_ns < b.used_ns
                                            : a.path < b.path;
            });
  std::uint64_t remaining_files = files.size();
  for (const FileInfo& f : files) {
    const bool over_files = max_files > 0 && remaining_files > max_files;
    const bool over_bytes = max_bytes > 0 && total_bytes > max_bytes;
    if (!over_files && !over_bytes) break;
    std::error_code remove_ec;
    if (std::filesystem::remove(f.path, remove_ec) && !remove_ec) {
      ++result.files_removed;
      result.bytes_removed += f.size;
      --remaining_files;
      total_bytes -= f.size;
    }
  }
  result.files_kept = remaining_files;
  result.bytes_kept = total_bytes;
  sweep_files_removed_.fetch_add(result.files_removed,
                                 std::memory_order_relaxed);
  sweep_bytes_removed_.fetch_add(result.bytes_removed,
                                 std::memory_order_relaxed);
  return result;
}

std::string GraphStore::PackPath() const {
  return (std::filesystem::path(dir_) / kPackFileName).string();
}

std::string GraphStore::IndexPath() const {
  return (std::filesystem::path(dir_) / kIndexFileName).string();
}

std::shared_ptr<const GraphStore::PackIndex> GraphStore::LoadPackIndex()
    const {
  const std::string idx_path = IndexPath();
  struct stat st;
  if (::stat(idx_path.c_str(), &st) != 0) {
    std::lock_guard<std::mutex> lock(pack_mutex_);
    pack_index_ = nullptr;
    pack_index_mtime_ns_ = -1;
    return nullptr;
  }
  const std::int64_t mtime_ns =
      st.st_mtim.tv_sec * 1'000'000'000LL + st.st_mtim.tv_nsec;
  const std::uint64_t size = static_cast<std::uint64_t>(st.st_size);
  {
    std::lock_guard<std::mutex> lock(pack_mutex_);
    if (pack_index_mtime_ns_ == mtime_ns && pack_index_size_ == size) {
      return pack_index_;  // may be null: a cached failed parse
    }
  }

  // Parse outside the lock; publish whatever the parse decided (including
  // "invalid") so the stat fast path answers until the file changes again.
  std::shared_ptr<const PackIndex> parsed;
  std::string bytes;
  do {
    if (!ReadFileBytes(idx_path, &bytes)) break;
    if (bytes.size() < sizeof(kIndexMagic) + 8) break;
    const std::string_view payload(bytes.data(), bytes.size() - 8);
    if (Fnv1a64(payload) != ReadU64LE(std::string_view(bytes).substr(
                                bytes.size() - 8))) {
      break;
    }
    if (payload.substr(0, sizeof(kIndexMagic)) !=
        std::string_view(kIndexMagic, sizeof(kIndexMagic))) {
      break;
    }
    Reader r(payload.substr(sizeof(kIndexMagic)));
    std::uint64_t version, pack_size, count;
    if (!r.ReadVarint(&version) || version != kPackFormatVersion) break;
    if (!r.ReadVarint(&pack_size) || !r.ReadVarint(&count)) break;
    if (count > r.remaining() / 24) break;  // 3 × 8 bytes per entry
    auto index = std::make_shared<PackIndex>();
    index->pack_size = pack_size;
    index->entries.reserve(count);
    bool ok = true;
    for (std::uint64_t i = 0; i < count && ok; ++i) {
      std::string_view raw;
      if (!r.ReadBytes(24, &raw)) {
        ok = false;
        break;
      }
      PackIndexEntry entry{ReadU64LE(raw), ReadU64LE(raw.substr(8)),
                           ReadU64LE(raw.substr(16))};
      // Entries must be sorted (the binary-search contract) and lie
      // inside the pack the index claims to describe.
      if (i > 0 && entry.key_hash < index->entries.back().key_hash) {
        ok = false;
        break;
      }
      if (entry.length > pack_size || entry.offset > pack_size - entry.length) {
        ok = false;
        break;
      }
      index->entries.push_back(entry);
    }
    if (!ok || !r.done()) break;
    // Bind the index to its pack: a crash between the two publication
    // renames leaves a new pack under an old index (or vice versa), which
    // this size check turns into "no pack" — the loose tier, still
    // undeleted in that state, remains authoritative.
    struct stat pack_st;
    if (::stat(PackPath().c_str(), &pack_st) != 0 ||
        static_cast<std::uint64_t>(pack_st.st_size) != pack_size) {
      break;
    }
    parsed = std::move(index);
  } while (false);

  std::lock_guard<std::mutex> lock(pack_mutex_);
  pack_index_ = parsed;
  pack_index_mtime_ns_ = mtime_ns;
  pack_index_size_ = size;
  return parsed;
}

std::string GraphStore::ReadPackEntry(const std::string& key) const {
  std::shared_ptr<const PackIndex> index = LoadPackIndex();
  if (!index) return "";
  const std::uint64_t hash = Fnv1a64(key);
  auto lo = std::lower_bound(index->entries.begin(), index->entries.end(),
                             hash, [](const PackIndexEntry& e, std::uint64_t h) {
                               return e.key_hash < h;
                             });
  for (; lo != index->entries.end() && lo->key_hash == hash; ++lo) {
    std::ifstream in(PackPath(), std::ios::binary);
    if (!in) return "";
    in.seekg(static_cast<std::streamoff>(lo->offset));
    std::string entry(lo->length, '\0');
    in.read(entry.data(), static_cast<std::streamsize>(lo->length));
    if (!in.good() && !in.eof()) continue;
    if (static_cast<std::uint64_t>(in.gcount()) != lo->length) continue;
    // Colliding hashes share an index slot; the embedded key decides.
    std::string stored_key;
    BuildProgress progress;
    if (PeekEntryBytes(entry, &stored_key, &progress) && stored_key == key) {
      return entry;
    }
  }
  return "";
}

std::uint64_t GraphStore::LooseFileCount() const {
  std::uint64_t count = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.is_regular_file(ec) && entry.path().extension() == ".amg") {
      ++count;
    }
  }
  return count;
}

std::uint64_t GraphStore::PackEntryCount() const {
  std::shared_ptr<const PackIndex> index = LoadPackIndex();
  return index ? index->entries.size() : 0;
}

bool GraphStore::PackNeedsRepair() const {
  std::error_code ec;
  if (!std::filesystem::exists(PackPath(), ec)) return false;
  return LoadPackIndex() == nullptr;
}

StoreCounters GraphStore::counters() const {
  StoreCounters c;
  c.loose_loads = loose_loads_.load(std::memory_order_relaxed);
  c.pack_loads = pack_loads_.load(std::memory_order_relaxed);
  c.load_failures = load_failures_.load(std::memory_order_relaxed);
  c.saves = saves_.load(std::memory_order_relaxed);
  c.save_skips = save_skips_.load(std::memory_order_relaxed);
  c.sweeps = sweeps_.load(std::memory_order_relaxed);
  c.sweep_files_removed = sweep_files_removed_.load(std::memory_order_relaxed);
  c.sweep_bytes_removed = sweep_bytes_removed_.load(std::memory_order_relaxed);
  c.repacks = repacks_.load(std::memory_order_relaxed);
  return c;
}

StoreRepackResult GraphStore::Repack(RepackKillPoint kill_point) const {
  StoreRepackResult result;

  // Stale temp files are leftovers of crashed repacks (a *live* concurrent
  // repack may also lose its temp here; it then fails soft and retries —
  // repack is single-writer by convention: the maintenance loop).
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    const std::string name = entry.path().filename().string();
    if (name.rfind(std::string(kPackFileName) + ".tmp.", 0) == 0 ||
        name.rfind(std::string(kIndexFileName) + ".tmp.", 0) == 0) {
      std::error_code remove_ec;
      std::filesystem::remove(entry.path(), remove_ec);
    }
  }

  // Collect the best copy per key: every valid packed entry, overridden by
  // a valid loose file whenever the loose copy is at least as far along
  // (ties go to the loose file so it can be folded away). A packed copy is
  // kept as its place in the old pack, which stays open (the same file,
  // whatever renames happen meanwhile) until the new pack is written; a
  // loose copy keeps its bytes, since a save may replace its file.
  struct LooseCopy {
    std::string key;
    std::string path;
    std::string bytes;
    BuildProgress progress;
  };
  static constexpr std::size_t kPacked = static_cast<std::size_t>(-1);
  struct Copy {
    BuildProgress progress;
    std::uint64_t offset = 0;  // a packed copy's bytes in the old pack
    std::uint64_t length = 0;
    std::size_t loose = kPacked;  // or its slot in `loose`
  };
  std::unordered_map<std::string, Copy> best;
  std::vector<LooseCopy> loose;

  // Scan the pack *sequentially* instead of through its index: entries are
  // length-prefixed and self-validating, so this recovers a pack whose
  // index is missing or stale — the state a crash between the two
  // publication renames leaves behind. A torn tail (or any invalid entry)
  // ends the scan; everything before it is kept.
  std::shared_ptr<const PackIndex> index = LoadPackIndex();
  std::ifstream old_pack(PackPath(), std::ios::binary);
  ScanPack(old_pack, [&](const std::string& key, const BuildProgress& progress,
                         std::uint64_t offset, std::uint64_t length) {
    auto it = best.find(key);
    if (it == best.end() || it->second.progress < progress) {
      best[key] = Copy{progress, offset, length};
    }
  });

  std::uint64_t loose_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".amg") continue;
    std::string bytes;
    if (!ReadFileBytes(entry.path().string(), &bytes)) continue;
    std::string key;
    BuildProgress progress;
    if (!PeekEntryBytes(bytes, &key, &progress)) continue;  // corrupt
    ++loose_seen;
    auto it = best.find(key);
    if (it != best.end() && progress < it->second.progress) continue;
    Copy& copy = best[key];
    if (copy.loose == kPacked) {
      copy.loose = loose.size();
      loose.emplace_back();
    }
    copy.progress = progress;
    copy.length = bytes.size();
    loose[copy.loose] = LooseCopy{std::move(key), entry.path().string(),
                                  std::move(bytes), progress};
  }

  // Nothing loose to fold and the pack's index is live: no-op. (A stale
  // or missing index with a readable pack falls through — publishing a
  // fresh generation is exactly the repair.)
  if (loose_seen == 0 && index != nullptr) return result;
  if (best.empty()) return result;

  // From here on an entry is its key's hash and where its bytes are; the
  // keys are dropped before the write.
  struct Entry {
    PackIndexEntry at;  // the old place until written, then the new one
    std::size_t loose;
  };
  std::vector<Entry> ordered;
  ordered.reserve(best.size());
  for (const auto& [key, copy] : best) {
    ordered.push_back(
        Entry{PackIndexEntry{Fnv1a64(key), copy.offset, copy.length},
              copy.loose});
  }
  decltype(best)().swap(best);

  // An entry's bytes: a loose copy's from memory, a packed one's read back
  // from the old pack into `buffer`. False when the read fails.
  auto entry_bytes = [&](const Entry& e, std::string& buffer,
                         std::string_view* out) {
    if (e.loose != kPacked) {
      *out = loose[e.loose].bytes;
      return true;
    }
    buffer.resize(e.at.length);
    old_pack.clear();
    old_pack.seekg(static_cast<std::streamoff>(e.at.offset));
    if (!old_pack.read(buffer.data(),
                       static_cast<std::streamsize>(e.at.length))) {
      return false;
    }
    *out = buffer;
    return true;
  };

  // New pack, entries in index (key-hash) order so the sorted index walks
  // the file sequentially; equal hashes order by their entries' bytes.
  // Each entry is length-prefixed: the pack alone reconstructs its content
  // (the recovery scan above).
  std::sort(ordered.begin(), ordered.end(),
            [&](const Entry& a, const Entry& b) {
              if (a.at.key_hash != b.at.key_hash) {
                return a.at.key_hash < b.at.key_hash;
              }
              // Two keys of one hash (rare): compare their bytes.
              std::string a_buffer, b_buffer;
              std::string_view a_bytes, b_bytes;
              entry_bytes(a, a_buffer, &a_bytes);
              entry_bytes(b, b_buffer, &b_bytes);
              return a_bytes < b_bytes;
            });

  // Written one entry at a time: the pass holds the index and the loose
  // tier, never the pack.
  static std::atomic<std::uint64_t> repack_counter{0};
  const std::string suffix = ".tmp." +
                             std::to_string(static_cast<long>(::getpid())) +
                             "." +
                             std::to_string(repack_counter.fetch_add(1));
  const std::string pack_tmp = PackPath() + suffix;
  std::uint64_t pack_size = 0;
  {
    std::ofstream out(pack_tmp, std::ios::binary | std::ios::trunc);
    auto write = [&](std::string_view bytes) {
      out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
      pack_size += bytes.size();
    };
    std::string framing(kPackMagic, sizeof(kPackMagic));
    AppendVarint(framing, kPackFormatVersion);
    write(framing);
    std::string buffer;
    bool read_ok = true;
    for (Entry& e : ordered) {
      std::string_view bytes;
      if (!entry_bytes(e, buffer, &bytes)) {
        read_ok = false;
        break;
      }
      framing.clear();
      AppendVarint(framing, bytes.size());
      write(framing);
      e.at.offset = pack_size;
      write(bytes);
    }
    if (!read_ok || !out.good()) {
      result.error = read_ok ? "repack: cannot write " + pack_tmp
                             : "repack: cannot read " + PackPath();
      out.close();
      std::filesystem::remove(pack_tmp, ec);
      return result;
    }
  }
  if (kill_point == RepackKillPoint::kBeforePackRename) return result;

  std::filesystem::rename(pack_tmp, PackPath(), ec);
  if (ec) {
    result.error = "repack: cannot publish " + PackPath();
    std::filesystem::remove(pack_tmp, ec);
    return result;
  }
  if (kill_point == RepackKillPoint::kBeforeIndexRename) return result;

  std::string idx(kIndexMagic, sizeof(kIndexMagic));
  AppendVarint(idx, kPackFormatVersion);
  AppendVarint(idx, pack_size);
  AppendVarint(idx, ordered.size());
  idx.reserve(idx.size() + 24 * ordered.size() + 8);
  for (const Entry& e : ordered) {
    AppendU64LE(idx, e.at.key_hash);
    AppendU64LE(idx, e.at.offset);
    AppendU64LE(idx, e.at.length);
  }
  AppendU64LE(idx, Fnv1a64(idx));
  const std::string idx_tmp = IndexPath() + suffix;
  {
    std::ofstream out(idx_tmp, std::ios::binary | std::ios::trunc);
    out.write(idx.data(), static_cast<std::streamsize>(idx.size()));
    if (!out.good()) {
      result.error = "repack: cannot write " + idx_tmp;
      out.close();
      std::filesystem::remove(idx_tmp, ec);
      return result;
    }
  }
  std::filesystem::rename(idx_tmp, IndexPath(), ec);
  if (ec) {
    result.error = "repack: cannot publish " + IndexPath();
    std::filesystem::remove(idx_tmp, ec);
    return result;
  }

  // The new generation is live; drop the stale cached parse.
  {
    std::lock_guard<std::mutex> lock(pack_mutex_);
    pack_index_ = nullptr;
    pack_index_mtime_ns_ = -1;
  }
  repacks_.fetch_add(1, std::memory_order_relaxed);
  result.performed = true;
  result.entries = ordered.size();
  result.pack_bytes = pack_size;
  if (kill_point == RepackKillPoint::kBeforeLooseDelete) return result;

  // Fold the absorbed loose files away — unless one advanced while this
  // pass ran, in which case it stays authoritative until the next repack.
  for (const LooseCopy& copy : loose) {
    const std::optional<BuildProgress> now =
        PeekProgress(copy.path, copy.key);
    if (now && copy.progress < *now) {
      ++result.loose_kept;
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(copy.path, remove_ec) && !remove_ec) {
      ++result.loose_folded;
    }
  }
  return result;
}

}  // namespace amalgam
