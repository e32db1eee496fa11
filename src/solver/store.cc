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

std::uint64_t Fnv1a64(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
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

// Structures travel as their EncodeContent bytes (base/structure.h): the
// domain size as a varint, then per relation the dense 0/1 table bytes,
// then per function the varint-coded value table. Given the schema the
// encoding is self-delimiting, so this decoder is the exact inverse.
bool ReadStructure(Reader& r, const SchemaRef& schema, Structure* out) {
  std::size_t n;
  if (!r.ReadCounted(&n)) return false;
  // Dense tables must fit in the remaining payload (each entry costs at
  // least one byte), which caps a corrupt domain size long before any
  // allocation could hurt. The generated structures this library persists
  // are tiny — a few elements — so the bound never bites on valid files.
  auto table_size = [&](int arity) -> std::size_t {
    std::size_t size = 1;
    for (int i = 0; i < arity; ++i) {
      size *= n;
      if (n != 0 && size > r.remaining()) return SIZE_MAX;
    }
    return size;
  };
  if (n > r.remaining() + 1) return false;
  Structure s(schema, n);
  std::vector<Elem> tuple;
  for (int rel = 0; rel < schema->num_relations(); ++rel) {
    const int arity = schema->relation(rel).arity;
    const std::size_t size = table_size(arity);
    std::string_view raw;
    if (size == SIZE_MAX || !r.ReadBytes(size, &raw)) return false;
    tuple.assign(arity, 0);
    for (std::size_t idx = 0; idx < size; ++idx) {
      const std::uint8_t bit = static_cast<std::uint8_t>(raw[idx]);
      if (bit > 1) return false;
      if (!bit) continue;
      std::size_t rest = idx;
      for (int i = 0; i < arity; ++i) {
        tuple[i] = static_cast<Elem>(rest % n);
        rest /= n;
      }
      s.SetHolds(rel, tuple, true);
    }
  }
  for (int fn = 0; fn < schema->num_functions(); ++fn) {
    const int arity = schema->function(fn).arity;
    const std::size_t size = table_size(arity);
    if (size == SIZE_MAX) return false;
    tuple.assign(arity, 0);
    for (std::size_t idx = 0; idx < size; ++idx) {
      std::uint64_t value;
      if (!r.ReadVarint(&value)) return false;
      if (n == 0) {
        // A constant over the empty domain is the constructor's untouched
        // 0 placeholder; anything else is corrupt.
        if (value != 0) return false;
        continue;
      }
      if (value >= n) return false;
      std::size_t rest = idx;
      for (int i = 0; i < arity; ++i) {
        tuple[i] = static_cast<Elem>(rest % n);
        rest /= n;
      }
      s.SetFunction(fn, tuple, static_cast<Elem>(value));
    }
  }
  *out = std::move(s);
  return true;
}

bool ReadMarks(Reader& r, std::size_t expected_count, std::size_t domain,
               std::vector<Elem>* out) {
  std::uint64_t count;
  if (!r.ReadVarint(&count) || count != expected_count) return false;
  out->clear();
  out->reserve(expected_count);
  for (std::size_t i = 0; i < expected_count; ++i) {
    std::uint64_t m;
    if (!r.ReadVarint(&m) || m >= domain) return false;
    out->push_back(static_cast<Elem>(m));
  }
  return true;
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
  BuildCursor cursor;
  std::uint64_t num_edges = 0;
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
         r->ReadCounted(&header->cursor.phase) &&
         r->ReadVarint(&header->cursor.next_member) &&
         r->ReadVarint(&header->num_edges);
}

/// The embedded key and (cursor, edge count) progress header of a record
/// that ReadHeader accepts.
bool PeekEntryBytes(std::string_view bytes, std::string* key_out,
                    BuildCursor* cursor, std::uint64_t* num_edges) {
  RecordHeader header;
  Reader r{std::string_view()};
  if (!ReadHeader(bytes, &header, &r)) return false;
  key_out->assign(header.key);
  *cursor = header.cursor;
  *num_edges = header.num_edges;
  return true;
}

/// The progress recorded in an existing, checksum-valid store file for
/// `key`. False when the file is absent, torn, for a different key (hash
/// collision) or otherwise unreadable — all cases where overwriting loses
/// nothing.
bool PeekProgress(const std::string& path, std::string_view key,
                  BuildCursor* cursor, std::uint64_t* num_edges) {
  std::string bytes;
  std::string stored_key;
  return ReadFileBytes(path, &bytes) &&
         PeekEntryBytes(bytes, &stored_key, cursor, num_edges) &&
         stored_key == key;
}

bool StrictlyBefore(const BuildCursor& a, std::uint64_t a_edges,
                    const BuildCursor& b, std::uint64_t b_edges) {
  return a < b || (a == b && a_edges < b_edges);
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
  AppendVarint(out, graph.cursor().phase);
  AppendVarint(out, graph.cursor().next_member);
  // In the header so Save can compare two files' progress — (cursor, edge
  // count) is the same order GraphCache::Insert replaces entries by —
  // without parsing the shape and edge blocks.
  AppendVarint(out, graph.num_edges());

  // Every shape projects a member of one backend class, so all share one
  // schema; a graph without shapes writes an empty block.
  if (graph.num_shapes() > 0) {
    AppendSchema(out, graph.interner().shape(0).structure.schema());
  } else {
    AppendVarint(out, 0);
    AppendVarint(out, 0);
  }

  AppendVarint(out, graph.num_shapes());
  for (int id = 0; id < graph.num_shapes(); ++id) {
    const CanonicalForm& form = graph.interner().shape(id);
    out += form.structure.EncodeContent();
    AppendVarint(out, form.marks.size());
    for (Elem m : form.marks) AppendVarint(out, m);
    AppendVarint(out, form.key.size());
    out += form.key;
    for (Elem p : form.perm) AppendVarint(out, p);
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
  std::vector<CanonicalForm> shapes;
  shapes.reserve(num_shapes);
  for (std::size_t id = 0; id < num_shapes; ++id) {
    CanonicalForm form{Structure(schema, 0), {}, {}, {}, 0};
    if (!ReadStructure(r, schema, &form.structure)) return nullptr;
    const std::size_t n = form.structure.size();
    if (!ReadMarks(r, static_cast<std::size_t>(k), n, &form.marks)) {
      return nullptr;
    }
    std::uint64_t key_size;
    std::string_view canon_key;
    if (!r.ReadVarint(&key_size) || !r.ReadBytes(key_size, &canon_key)) {
      return nullptr;
    }
    form.key.assign(canon_key);
    std::vector<char> seen_perm(n, 0);
    form.perm.reserve(n);
    for (std::size_t e = 0; e < n; ++e) {
      std::uint64_t p;
      if (!r.ReadVarint(&p) || p >= n || seen_perm[p]) return nullptr;
      seen_perm[p] = 1;
      form.perm.push_back(static_cast<Elem>(p));
    }
    form.hash = HashRange(form.key.begin(), form.key.end());
    shapes.push_back(std::move(form));
  }

  std::size_t num_initial;
  if (!r.ReadCounted(&num_initial) || num_initial > num_shapes) {
    return nullptr;
  }
  std::vector<int> initial_shapes;
  initial_shapes.reserve(num_initial);
  for (std::size_t i = 0; i < num_initial; ++i) {
    int shape;
    if (!r.ReadCounted(&shape)) return nullptr;
    initial_shapes.push_back(shape);
  }

  std::vector<std::vector<SubTransitionGraph::Edge>> edges(num_shapes);
  for (std::size_t shape = 0; shape < num_shapes; ++shape) {
    std::size_t count;
    if (!r.ReadCounted(&count) || count > r.remaining()) return nullptr;
    edges[shape].reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      SubTransitionGraph::Edge e;
      if (!r.ReadCounted(&e.guard) || !r.ReadCounted(&e.new_shape)) {
        return nullptr;
      }
      edges[shape].push_back(e);
    }
  }
  if (!r.done()) return nullptr;  // trailing garbage

  std::shared_ptr<SubTransitionGraph> graph = SubTransitionGraph::FromParts(
      std::vector<FormulaRef>(guards.begin(), guards.end()), k,
      std::move(shapes), std::move(initial_shapes), std::move(edges),
      header.cursor);
  // Save compares records by their header alone, so the header's edge count
  // must be the edge block's.
  if (graph == nullptr || graph->num_edges() != header.num_edges) {
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

GraphStore::KeyProgress GraphStore::PeekKey(const std::string& key) const {
  KeyProgress progress;
  BuildCursor cursor;
  std::uint64_t edges = 0;
  if (PeekProgress(PathFor(key), key, &cursor, &edges)) {
    progress = KeyProgress{true, cursor, edges};
  }
  const std::string entry = ReadPackEntry(key);
  if (!entry.empty()) {
    std::string stored_key;
    if (PeekEntryBytes(entry, &stored_key, &cursor, &edges) &&
        stored_key == key &&
        (!progress.found || StrictlyBefore(progress.cursor, progress.num_edges,
                                           cursor, edges))) {
      progress = KeyProgress{true, cursor, edges};
    }
  }
  return progress;
}

bool GraphStore::Save(const std::string& key,
                      const SubTransitionGraph& graph) const {
  const std::string path = PathFor(key);
  // Never clobber further-along progress persisted by someone we have not
  // seen — another process, or another cache in this one — with a
  // less-explored graph: write-through only when this graph is strictly
  // ahead of the furthest copy either tier already holds, mirroring
  // GraphCache::Insert's replacement order. (Against the pack the check
  // also prevents a *shadow* downgrade: a partial loose file would eclipse
  // the packed entry on the read path.) Last-writer-wins remains possible
  // between racing saves of incomparable snapshots, but both snapshots are
  // then correct graphs and the trajectory merely pauses, never corrupts.
  const KeyProgress incumbent = PeekKey(key);
  if (incumbent.found &&
      !StrictlyBefore(incumbent.cursor, incumbent.num_edges, graph.cursor(),
                      graph.num_edges())) {
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
    BuildCursor cursor;
    std::uint64_t edges;
    if (PeekEntryBytes(entry, &stored_key, &cursor, &edges) &&
        stored_key == key) {
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
  // (ties go to the loose file so it can be folded away).
  struct Candidate {
    std::string bytes;
    BuildCursor cursor;
    std::uint64_t edges = 0;
    std::string loose_path;  // empty: came from the current pack
  };
  std::unordered_map<std::string, Candidate> best;

  // Scan the pack *sequentially* instead of through its index: entries are
  // length-prefixed and self-validating, so this recovers a pack whose
  // index is missing or stale — the state a crash between the two
  // publication renames leaves behind. A torn tail (or any invalid entry)
  // ends the scan; everything before it is kept.
  std::shared_ptr<const PackIndex> index = LoadPackIndex();
  std::string pack_bytes;
  if (ReadFileBytes(PackPath(), &pack_bytes) &&
      pack_bytes.size() > sizeof(kPackMagic) &&
      std::string_view(pack_bytes).substr(0, sizeof(kPackMagic)) ==
          std::string_view(kPackMagic, sizeof(kPackMagic))) {
    Reader r(std::string_view(pack_bytes).substr(sizeof(kPackMagic)));
    std::uint64_t version = 0;
    if (r.ReadVarint(&version) && version == kPackFormatVersion) {
      for (;;) {
        std::uint64_t len = 0;
        std::string_view entry;
        if (!r.ReadVarint(&len) || !r.ReadBytes(len, &entry)) break;
        std::string key;
        BuildCursor cursor;
        std::uint64_t edges;
        if (!PeekEntryBytes(entry, &key, &cursor, &edges)) break;
        auto it = best.find(key);
        if (it == best.end() ||
            StrictlyBefore(it->second.cursor, it->second.edges, cursor,
                           edges)) {
          best[key] = Candidate{std::string(entry), cursor, edges, ""};
        }
      }
    }
  }

  std::uint64_t loose_seen = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (!entry.is_regular_file(ec)) continue;
    if (entry.path().extension() != ".amg") continue;
    std::string bytes;
    if (!ReadFileBytes(entry.path().string(), &bytes)) continue;
    std::string key;
    BuildCursor cursor;
    std::uint64_t edges;
    if (!PeekEntryBytes(bytes, &key, &cursor, &edges)) continue;  // corrupt
    ++loose_seen;
    auto it = best.find(key);
    if (it == best.end() ||
        !StrictlyBefore(cursor, edges, it->second.cursor, it->second.edges)) {
      best[key] = Candidate{std::move(bytes), cursor, edges,
                            entry.path().string()};
    }
  }

  // Nothing loose to fold and the pack's index is live: no-op. (A stale
  // or missing index with a readable pack falls through — publishing a
  // fresh generation is exactly the repair.)
  if (loose_seen == 0 && index != nullptr) return result;
  if (best.empty()) return result;

  // New pack, entries in index (key-hash) order so the sorted index walks
  // the file sequentially. Each entry is length-prefixed: the pack alone
  // reconstructs its content (the recovery scan above).
  std::vector<std::pair<std::uint64_t, const Candidate*>> ordered;
  ordered.reserve(best.size());
  for (const auto& [key, candidate] : best) {
    ordered.emplace_back(Fnv1a64(key), &candidate);
  }
  std::sort(ordered.begin(), ordered.end(),
            [](const auto& a, const auto& b) {
              return a.first != b.first ? a.first < b.first
                                        : a.second->bytes < b.second->bytes;
            });

  std::string pack(kPackMagic, sizeof(kPackMagic));
  AppendVarint(pack, kPackFormatVersion);
  std::vector<PackIndexEntry> entries;
  entries.reserve(ordered.size());
  for (const auto& [hash, candidate] : ordered) {
    AppendVarint(pack, candidate->bytes.size());
    entries.push_back(PackIndexEntry{hash, pack.size(),
                                     candidate->bytes.size()});
    pack += candidate->bytes;
  }

  static std::atomic<std::uint64_t> repack_counter{0};
  const std::string suffix = ".tmp." +
                             std::to_string(static_cast<long>(::getpid())) +
                             "." +
                             std::to_string(repack_counter.fetch_add(1));
  const std::string pack_tmp = PackPath() + suffix;
  {
    std::ofstream out(pack_tmp, std::ios::binary | std::ios::trunc);
    out.write(pack.data(), static_cast<std::streamsize>(pack.size()));
    if (!out.good()) {
      result.error = "repack: cannot write " + pack_tmp;
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
  AppendVarint(idx, pack.size());
  AppendVarint(idx, entries.size());
  for (const PackIndexEntry& e : entries) {
    AppendU64LE(idx, e.key_hash);
    AppendU64LE(idx, e.offset);
    AppendU64LE(idx, e.length);
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
  result.entries = entries.size();
  result.pack_bytes = pack.size();
  if (kill_point == RepackKillPoint::kBeforeLooseDelete) return result;

  // Fold the absorbed loose files away — unless one advanced while this
  // pass ran, in which case it stays authoritative until the next repack.
  for (const auto& [key, candidate] : best) {
    if (candidate.loose_path.empty()) continue;
    BuildCursor cursor;
    std::uint64_t edges = 0;
    if (PeekProgress(candidate.loose_path, key, &cursor, &edges) &&
        StrictlyBefore(candidate.cursor, candidate.edges, cursor, edges)) {
      ++result.loose_kept;
      continue;
    }
    std::error_code remove_ec;
    if (std::filesystem::remove(candidate.loose_path, remove_ec) &&
        !remove_ec) {
      ++result.loose_folded;
    }
  }
  return result;
}

}  // namespace amalgam
