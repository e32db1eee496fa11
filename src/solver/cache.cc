#include "solver/cache.h"

#include <algorithm>
#include <stdexcept>
#include <string_view>
#include <utility>

#include "solver/member_table.h"
#include "solver/store.h"

namespace amalgam {

GraphCache::GraphCache(std::size_t max_entries, const std::string& store_dir)
    : max_entries_(max_entries),
      store_(store_dir.empty() ? nullptr
                               : std::make_shared<GraphStore>(store_dir)) {}

GraphCache::~GraphCache() = default;

void GraphCache::BuildClaim::Release() {
  if (cache_ == nullptr) return;
  {
    std::lock_guard<std::mutex> lock(cache_->mutex_);
    cache_->claimed_.erase(key_);
  }
  cache_->claim_released_.notify_all();
  cache_ = nullptr;
}

std::shared_ptr<MemberTable> GraphCache::AcquireMemberTable(
    const GraphContext& context, std::uint32_t atom_cap) {
  if (!MemberTable::Serves(atom_cap)) return nullptr;
  const std::string_view class_key = context.class_key();
  std::lock_guard<std::mutex> lock(tables_mutex_);
  auto it = std::find_if(tables_.begin(), tables_.end(),
                         [&](const TableSlot& slot) {
                           return slot.class_key == class_key;
                         });
  if (it != tables_.end()) {
    std::rotate(tables_.begin(), it, it + 1);  // freshest first
    member_table_hits_.fetch_add(1, std::memory_order_relaxed);
    return tables_.front().table;
  }
  // First request: an empty table, which the caller's sweep grows.
  tables_.insert(tables_.begin(),
                 TableSlot{std::string(class_key),
                           std::make_shared<MemberTable>(
                               context.backend->schema(), context.k)});
  if (tables_.size() > kMaxMemberTables) tables_.pop_back();
  member_table_builds_.fetch_add(1, std::memory_order_relaxed);
  return tables_.front().table;
}

std::size_t GraphCache::member_tables() const {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  return tables_.size();
}

std::size_t GraphCache::member_table_bytes() const {
  std::lock_guard<std::mutex> lock(tables_mutex_);
  std::size_t bytes = 0;
  for (const TableSlot& slot : tables_) bytes += slot.table->bytes();
  return bytes;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::HitLocked(
    EntryMap::iterator it) {
  hits_.fetch_add(1, std::memory_order_relaxed);
  // Freshen the entry's recency rank. Skipped when already freshest — the
  // common case for a hot key — so steady-state hits touch no list nodes.
  if (it->second.lru_pos != lru_.begin()) {
    lru_.splice(lru_.begin(), lru_, it->second.lru_pos);
  }
  return it->second.graph;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Lookup(
    const std::string& key) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = graphs_.find(key);
  if (it != graphs_.end()) return HitLocked(it);
  misses_.fetch_add(1, std::memory_order_relaxed);
  return nullptr;
}

std::shared_ptr<const SubTransitionGraph> GraphCache::Lookup(
    const GraphContext& context, TraceRecorder* trace) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = graphs_.find(context.key);
    if (it != graphs_.end()) return HitLocked(it);
  }
  return LoadFromStore(context, trace);
}

std::shared_ptr<const SubTransitionGraph> GraphCache::LookupOrClaim(
    const GraphContext& context, BuildClaim& claim, bool& waited,
    TraceRecorder* trace) {
  const std::string& key = context.key;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      auto it = graphs_.find(key);
      if (it != graphs_.end() && it->second.graph->complete()) {
        return HitLocked(it);
      }
      const bool partial = it != graphs_.end();
      if (claimed_.insert(key).second) {
        (partial ? resume_leads_ : single_flight_leads_)
            .fetch_add(1, std::memory_order_relaxed);
        claim.cache_ = this;
        claim.key_ = key;
        if (partial) return HitLocked(it);
        break;
      }
      // Counted before the wait starts, under the lock, so a reader that
      // sees the count knows the waiter is blocked until the release.
      (partial ? resume_coalesced_ : coalesced_joins_)
          .fetch_add(1, std::memory_order_relaxed);
      ScopedSpan wait_span(trace, "coalesced_wait");
      claim_released_.wait(lock, [&] { return !claimed_.contains(key); });
      waited = true;
    }
  }
  return LoadFromStore(context, trace);
}

std::shared_ptr<const SubTransitionGraph> GraphCache::LoadFromStore(
    const GraphContext& context, TraceRecorder* trace) {
  const std::string& key = context.key;
  if (store_) {
    // Disk I/O outside the mutex — concurrent queries for other keys (or
    // this one) proceed instead of convoying behind the read.
    ScopedSpan load_span(trace, "store_load");
    // Which tier served the load is only visible through the store's own
    // counters; the delta is exact because a Load bumps exactly one of
    // them. Only traced queries pay for the extra snapshot.
    StoreCounters before{};
    if (trace != nullptr) before = store_->counters();
    GraphStore::LoadResult loaded = store_->Load(
        key, context.backend->schema(), context.guards, context.k);
    if (trace != nullptr) {
      const StoreCounters after = store_->counters();
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
  {
    std::lock_guard<std::mutex> lock(mutex_);
    to_write = InsertLocked(key, std::move(graph),
                            /*want_store_write=*/store_ != nullptr);
  }
  // Write-through outside the mutex. Save is progress-guarded on its own
  // (it peeks the incumbent file's header), so racing writers cannot
  // regress the persisted trajectory even without the lock.
  if (to_write) {
    ScopedSpan save_span(trace, "store_save");
    const bool accepted = store_->Save(key, *to_write);
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
    // Only strictly greater progress replaces the incumbent.
    if (graph->progress() <= it->second.graph->progress()) return nullptr;
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
  if (!store_) return StoreSweepResult{};
  return store_->Sweep(max_bytes, max_files);
}

std::size_t GraphCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return graphs_.size();
}

std::shared_ptr<const SubTransitionGraph> LookupGraph(
    GraphCache* cache, const GraphContext& context, ScopedSpan& solve_span,
    SolveStats& stats, GraphCache::BuildClaim& claim) {
  if (cache == nullptr) return nullptr;
  std::shared_ptr<const SubTransitionGraph> hit;
  {
    ScopedSpan lookup_span(solve_span.recorder(), "cache_lookup");
    hit = cache->LookupOrClaim(context, claim, stats.coalesced,
                               solve_span.recorder());
    lookup_span.Annotate("hit", std::uint64_t{hit != nullptr});
    lookup_span.Annotate("complete", std::uint64_t{hit && hit->complete()});
  }
  if (hit && hit->guards().size() != context.guards.size()) {
    throw std::logic_error("cached graph does not match its key's guards");
  }
  stats.graph_from_cache = hit != nullptr;
  if (hit && !hit->complete()) {
    // Where the stored trajectory left off, straight off the entry's
    // cursor.
    solve_span.Annotate("resumed_from_phase",
                        static_cast<std::uint64_t>(hit->cursor().phase));
    solve_span.Annotate("resumed_from_member", hit->cursor().next_member);
    stats.graph_resumed = true;
  }
  return hit;
}

std::shared_ptr<const SubTransitionGraph> AcquireCompleteGraph(
    GraphCache* cache, const GraphContext& context, ScopedSpan& solve_span,
    SolveStats& stats, std::uint32_t atom_cap, std::uint64_t max_shapes) {
  // Released when this returns, after the insert below (or by a throw).
  GraphCache::BuildClaim claim;
  std::shared_ptr<const SubTransitionGraph> hit =
      LookupGraph(cache, context, solve_span, stats, claim);
  if (hit && hit->complete()) return hit;
  auto built = hit ? std::make_shared<SubTransitionGraph>(*hit)
                   : std::make_shared<SubTransitionGraph>(context.guards,
                                                          context.k);
  {
    const std::shared_ptr<MemberTable> table =
        cache != nullptr ? cache->AcquireMemberTable(context, atom_cap)
                         : nullptr;
    ScopedSpan build_span(solve_span.recorder(), "full_build");
    const SolveStats before = stats;
    built->BuildFull(MemberSource{*context.backend, table.get(), atom_cap},
                     stats, max_shapes);
    build_span.Annotate("members_generated", stats.members_generated);
    build_span.Annotate("edges", built->num_edges());
    AnnotateSweepSource(build_span, table.get(), before, stats);
  }
  if (cache != nullptr) {
    cache->Insert(context.key, built, solve_span.recorder());
  }
  return built;
}

}  // namespace amalgam
