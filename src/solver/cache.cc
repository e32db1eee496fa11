#include "solver/cache.h"

#include <algorithm>
#include <stdexcept>
#include <tuple>
#include <utility>

#include "solver/member_table.h"
#include "solver/store.h"

namespace amalgam {

namespace {

// The replacement order for entries sharing a key: cursor phase, cursor
// position, then edge count (a mid-member early exit records edges without
// advancing the cursor). Strictly-greater progress replaces the incumbent.
bool StrictlyFurtherAlong(const SubTransitionGraph& incumbent,
                          const SubTransitionGraph& candidate) {
  const BuildCursor& a = incumbent.cursor();
  const BuildCursor& b = candidate.cursor();
  return std::tie(a.phase, a.next_member) < std::tie(b.phase, b.next_member) ||
         (a == b && incumbent.num_edges() < candidate.num_edges());
}

}  // namespace

GraphCache::GraphCache(std::size_t max_entries) : max_entries_(max_entries) {}

GraphCache::~GraphCache() = default;

std::string GraphCache::Key(const SolverBackend& backend, int k,
                            std::span<const FormulaRef> guards) {
  std::string key = ClassKey(backend, k);
  AppendGuards(InternGuards(guards, *backend.schema()), key);
  return key;
}

std::string GraphCache::ClassKey(const SolverBackend& backend, int k) {
  // The fingerprint is length-prefixed so the key decodes uniquely even if
  // a backend's fingerprint happens to embed the separator byte.
  const std::string fp = backend.Fingerprint();
  std::string key = std::to_string(fp.size());
  key += ':';
  key += fp;
  key += '\x1f';
  key += std::to_string(k);
  return key;
}

void GraphCache::AppendGuards(const InternedGuards& interned,
                              std::string& key) {
  for (const std::string& printed : interned.printed) {
    // Length-prefixed: printed guards embed free-text symbol names, which
    // must not be able to imitate the separator and merge two different
    // guard lists into one key.
    key += '\x1f';
    key += std::to_string(printed.size());
    key += ':';
    key += printed;
  }
  // A duplicate-free list's rule -> guard index is the identity; only a
  // list that repeats a guard spells it out, after a separator no guard
  // entry can start with.
  if (interned.guard_of.size() != interned.printed.size()) {
    key += '\x1e';
    for (std::size_t i = 0; i < interned.guard_of.size(); ++i) {
      if (i > 0) key += ',';
      key += std::to_string(interned.guard_of[i]);
    }
  }
}

std::shared_ptr<const MemberTable> GraphCache::AcquireMemberTable(
    std::string_view class_key, const SolverBackend& backend, int k,
    SolveStats& stats, TraceRecorder* trace) {
  std::shared_future<std::shared_ptr<const MemberTable>> pending;
  std::promise<std::shared_ptr<const MemberTable>> build;
  std::uint64_t build_id = 0;
  {
    std::lock_guard<std::mutex> lock(tables_mutex_);
    auto it = std::find_if(tables_.begin(), tables_.end(),
                           [&](const TableSlot& slot) {
                             return slot.class_key == class_key;
                           });
    if (it == tables_.end()) {
      // First request: remember the class, and let the caller stream.
      TableSlot slot;
      slot.class_key = class_key;
      slot.id = next_table_id_++;
      tables_.insert(tables_.begin(), std::move(slot));
      if (tables_.size() > kMaxMemberTables) tables_.pop_back();
      return nullptr;
    }
    std::rotate(tables_.begin(), it, it + 1);  // freshest first
    TableSlot& slot = tables_.front();
    if (slot.table.valid()) {
      pending = slot.table;
    } else {
      build_id = slot.id;
      slot.table = build.get_future().share();
    }
  }
  if (pending.valid()) {
    std::shared_ptr<const MemberTable> table;
    try {
      table = pending.get();
    } catch (...) {
      return nullptr;  // the build failed: this query streams instead
    }
    if (table) member_table_hits_.fetch_add(1, std::memory_order_relaxed);
    return table;
  }

  member_table_builds_.fetch_add(1, std::memory_order_relaxed);
  ScopedSpan build_span(trace, "member_table_build");
  std::shared_ptr<const MemberTable> table;
  try {
    table = MemberTable::Build(backend, k, &stats.members_generated);
  } catch (...) {
    build.set_exception(std::current_exception());
    std::lock_guard<std::mutex> lock(tables_mutex_);
    std::erase_if(tables_, [&](const TableSlot& slot) {
      return slot.id == build_id;
    });
    throw;
  }
  build.set_value(table);
  build_span.Annotate("tabled", std::uint64_t{table != nullptr});
  if (!table) return nullptr;
  {
    std::lock_guard<std::mutex> lock(tables_mutex_);
    for (TableSlot& slot : tables_) {
      if (slot.id == build_id) slot.bytes = table->bytes();
    }
  }
  build_span.Annotate("initial_members", table->initial_size());
  build_span.Annotate("joint_members", table->joint_size());
  build_span.Annotate("bytes", static_cast<std::uint64_t>(table->bytes()));
  return table;
}

std::size_t GraphCache::member_tables() const {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  return static_cast<std::size_t>(
      std::count_if(tables_.begin(), tables_.end(),
                    [](const TableSlot& slot) { return slot.bytes > 0; }));
}

std::size_t GraphCache::member_table_bytes() const {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  std::size_t bytes = 0;
  for (const TableSlot& slot : tables_) bytes += slot.bytes;
  return bytes;
}

void GraphCache::AttachStore(const std::string& dir) {
  // The new tier is constructed (and its directory created) outside the
  // lock; only the handle swap is serialized.
  std::shared_ptr<const GraphStore> fresh;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (store_ && store_->dir() == dir) return;
  }
  fresh = std::make_shared<GraphStore>(dir);
  std::lock_guard<std::mutex> lock(mutex_);
  if (store_ && store_->dir() == dir) return;  // lost a benign attach race
  store_ = std::move(fresh);
}

bool GraphCache::has_store() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_ != nullptr;
}

std::shared_ptr<const GraphStore> GraphCache::StoreSnapshot() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return store_;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(key);
  if (it == graphs_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Freshen the entry's recency rank. Skipped when already freshest — the
  // common case for a hot key — so steady-state hits touch no list nodes.
  if (it->second.lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  return it->second.graph;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Lookup(
    const std::string& key, const SchemaRef& schema,
    std::span<const FormulaRef> guards, int k, TraceRecorder* trace) {
  std::shared_ptr<const GraphStore> store;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(key);
    if (it != graphs_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      if (it->second.lru_pos != lru_.begin()) {
        lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
      }
      return it->second.graph;
    }
    store = store_;  // snapshot: the load below must not hold the lock
  }
  if (store) {
    // Disk I/O outside the mutex — concurrent queries for other keys (or
    // this one) proceed instead of convoying behind the read.
    ScopedSpan load_span(trace, "store_load");
    // Which tier served the load is only visible through the store's own
    // counters; the delta is exact because a Load bumps exactly one of
    // them. Only traced queries pay for the extra snapshot.
    StoreCounters before{};
    if (trace != nullptr) before = store->counters();
    GraphStore::LoadResult loaded = store->Load(key, schema, guards, k);
    if (trace != nullptr) {
      const StoreCounters after = store->counters();
      load_span.Annotate("tier",
                         after.loose_loads > before.loose_loads  ? "loose"
                         : after.pack_loads > before.pack_loads  ? "pack"
                                                                 : "miss");
      load_span.Annotate("found", std::uint64_t{loaded.graph != nullptr});
    }
    if (loaded.graph) {
      std::shared_ptr<const SubTransitionGraph> graph = std::move(loaded.graph);
      hits_.fetch_add(1, std::memory_order_relaxed);
      store_loads_.fetch_add(1, std::memory_order_relaxed);
      std::lock_guard<std::mutex> lock(mutex_);
      // Double-checked promote: a racing query may have populated the key
      // while we were reading the file. InsertLocked keeps whichever graph
      // is further along; return the surviving entry either way (it is at
      // least as far along as what we loaded).
      InsertLocked(key, std::move(graph), /*want_store_write=*/false);
      return graphs_.find(key)->second.graph;
    }
    if (loaded.file_found) {
      store_load_failures_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Peek(
    const std::string& key) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(key);
  return it == graphs_.end() ? nullptr : it->second.graph;
}

void GraphCache::Insert(const std::string& key,
                        std::shared_ptr<const SubTransitionGraph> graph,
                        TraceRecorder* trace) {
  if (!graph) {
    throw std::invalid_argument("GraphCache cannot store a null graph");
  }
  std::shared_ptr<const SubTransitionGraph> to_write;
  std::shared_ptr<const GraphStore> store;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    to_write = InsertLocked(key, std::move(graph), /*want_store_write=*/true);
    store = store_;
  }
  // Write-through outside the mutex. Save is progress-guarded on its own
  // (it peeks the incumbent file's header), so racing writers cannot
  // regress the persisted trajectory even without the lock.
  if (to_write && store) {
    ScopedSpan save_span(trace, "store_save");
    const bool accepted = store->Save(key, *to_write);
    save_span.Annotate("accepted", std::uint64_t{accepted});
    if (accepted) {
      store_writes_.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

std::shared_ptr<const SubTransitionGraph> GraphCache::InsertLocked(
    const std::string& key, std::shared_ptr<const SubTransitionGraph> graph,
    bool want_store_write) {
  auto it = graphs_.find(key);
  if (it != graphs_.end()) {
    if (!StrictlyFurtherAlong(*it->second.graph, *graph)) return nullptr;
    it->second.graph = graph;
    if (it->second.lru_pos != lru_.begin()) {
      lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
    }
  } else {
    if (max_entries_ > 0 && graphs_.size() >= max_entries_) {
      graphs_.erase(lru_.back());
      lru_.pop_back();
      evictions_.fetch_add(1, std::memory_order_relaxed);
    }
    lru_.push_front(key);
    graphs_.emplace(key, Entry{graph, lru_.begin()});
  }
  return want_store_write ? graph : nullptr;
}

StoreSweepResult GraphCache::SweepStore(std::uint64_t max_bytes,
                                        std::uint64_t max_files) {
  std::shared_ptr<const GraphStore> store = StoreSnapshot();
  if (!store) return StoreSweepResult{};
  return store->Sweep(max_bytes, max_files);
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

}  // namespace amalgam
