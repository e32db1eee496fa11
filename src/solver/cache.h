// Cross-query caching of sub-transition graphs, with an optional disk tier.
//
// A SubTransitionGraph depends only on the class of databases, the register
// count and the guard set — not on the control skeleton (states,
// initial/accepting flags, rule endpoints) of the system that asked for it.
// Repeated emptiness queries over the same (class, k, guards) therefore
// reuse the interned shape arena and the edge store (no joint members:
// see solver/engine.h) as-is: a complete cached graph serves any query with
// SolveStats::members_enumerated == 0, and a *partial* one — persisted by
// an early-exited on-the-fly build together with its BuildCursor — lets
// the next query resume the member sweep where it stopped instead of
// rebuilding from scratch. Completeness is not a precondition for caching;
// it is the final cursor state.
//
// Keys are built from SolverBackend::Fingerprint() (a stable serialization
// of the class's identity implemented by every backend), the register
// count, and the printed guard formulas; MakeGraphContext (solver/context.h)
// derives them, and the store-aware lookup and the member tables are asked
// with the query's GraphContext. Entries are immutable graphs held by
// shared_ptr, so lookups can outlive the cache and concurrent readers need
// no coordination beyond the map mutex; resuming a partial entry always
// happens on a private copy.
//
// LookupGraph and AcquireCompleteGraph, at the end of this header, are the
// one path from a query's context to its graph: the linear engine and the
// branching fixpoint both take it, so the lookup, resume, build and insert
// policy (and its spans and counters) is written once.
//
// Single flight lives on that path (GraphCache::LookupOrClaim), for every
// caller that passes a cache — the query service, the maintenance pass, a
// direct front-door call or the benchmark harness alike:
//
//   * a complete memory-tier entry is returned without coordination;
//   * a memory miss or a partial entry takes the key's *build claim*
//     before the store is read, waiting while another query holds it (a
//     "coalesced_wait" span), and after any wait the entry is read again:
//     N concurrent queries over one cold or partial key run one build or
//     one suffix sweep, and the rest replay its result;
//   * the claim is held through resume, build and Insert, and released
//     before witness reconstruction.
//
// A claim taken on a miss counts as a single-flight lead, one taken on a
// partial entry as a resume lead, and each wait as a join of that kind;
// hits and misses count each query's final lookup once, after any wait.
//
// Deadlock discipline:
//
//   * a claim holder never waits for another graph claim: a query takes at
//     most one, and graph claims are taken before member-table extension
//     claims (MemberTable::Claim), never after;
//   * claims are released by RAII (BuildClaim) on every exit, including
//     throws; a failed leader's waiters wake, find the key unbuilt and
//     retry the build themselves;
//   * only running queries hold claims — a queued query holds none — so a
//     service with one worker cannot deadlock on its own queue.
//
// The constructor's `store_dir` adds a disk tier (solver/store.h), fixed
// for the cache's lifetime: memory misses fall through to a load from the
// directory, and accepted inserts are written back, so a fresh process —
// or a different machine sharing the directory — starts with the previous
// trajectory instead of an empty cache. Corrupt or truncated files fail
// soft: the query rebuilds and overwrites them.
// The cache also owns the classes' member tables (solver/member_table.h),
// keyed by (fingerprint, k) — GraphContext::class_key, the graph key's
// class prefix. A table is what every graph over one class shares whatever
// its guards: the enumerated member streams and their interned
// projections. Every positioned sweep under the default atom cap, eager or
// on the fly, asks for its class's table; the class's first request
// creates it empty, and the sweeps grow it as far as the furthest of them
// needed, so a class is enumerated at most once however its queries
// interleave. The tables are
// LRU-bounded by a fixed count (kMaxMemberTables), independent of
// `max_entries`, and live in memory only.
//
// Store loads and saves run *outside* the map mutex (the I/O happens
// unlocked, and a load is reconciled with a double-checked promote), so
// concurrent queries never convoy behind disk I/O.
#ifndef AMALGAM_SOLVER_CACHE_H_
#define AMALGAM_SOLVER_CACHE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/trace.h"
#include "solver/context.h"
#include "solver/graph.h"

namespace amalgam {

class GraphStore;
class MemberTable;
struct StoreSweepResult;

/// A keyed store of sub-transition graphs (complete or partial).
/// Thread-safe; share one cache across all queries that may repeat a
/// (class, k, guard set). Optionally capped: with `max_entries` > 0 the
/// least-recently-hit entry is evicted when an insert would exceed the cap
/// (entries handed out by Lookup stay alive through their shared_ptr
/// regardless). Optionally disk-backed, by the constructor's `store_dir`.
class GraphCache {
 public:
  /// `max_entries` == 0 (the default) means unbounded — the historical
  /// behavior; a long-lived service should set a cap. A non-empty
  /// `store_dir` attaches the disk tier rooted there (created if absent;
  /// throws std::runtime_error when that fails). The disk cap is the
  /// filesystem's — the LRU cap governs memory only, and evicted entries
  /// remain loadable from disk.
  explicit GraphCache(std::size_t max_entries = 0,
                      const std::string& store_dir = "");
  ~GraphCache();

  /// A query's hold on one key's build, from LookupOrClaim until it is
  /// released or destroyed; releasing it wakes the key's waiters. Empty
  /// until LookupOrClaim takes a claim into it.
  class BuildClaim {
   public:
    BuildClaim() = default;
    BuildClaim(const BuildClaim&) = delete;
    BuildClaim& operator=(const BuildClaim&) = delete;
    ~BuildClaim() { Release(); }

    /// Gives the claim up (a no-op on an empty claim).
    void Release();

   private:
    friend class GraphCache;
    GraphCache* cache_ = nullptr;
    std::string key_;
  };

  /// Member tables held, least recently requested forgotten first.
  static constexpr std::size_t kMaxMemberTables = 16;

  /// The member table of the context's class (GraphContext::class_key)
  /// for a sweep under `atom_cap`, or null when no table serves that cap
  /// (MemberTable::Serves) and the sweep streams. The class's first
  /// request creates the table empty; the sweeps that read it grow it. A
  /// forgotten table stays alive for the sweeps still holding it.
  std::shared_ptr<MemberTable> AcquireMemberTable(const GraphContext& context,
                                                  std::uint32_t atom_cap = 0);

  /// The disk-tier handle (nullptr without one). The handle is internally
  /// synchronized; callers may run store I/O on it directly (the
  /// maintenance loop peeks progress and repacks through it, the stats
  /// path reads its counters).
  std::shared_ptr<const GraphStore> store() const { return store_; }

  /// The cached graph for `key` from the memory tier only, or nullptr.
  /// Counts a hit/miss; a hit freshens the entry's eviction rank.
  std::shared_ptr<const SubTransitionGraph> Lookup(const std::string& key);

  /// The cached graph for the context's key, where a memory miss falls
  /// through to the store (if any): a successful load — the context's
  /// backend schema, guards and k are its deserialization context — is
  /// promoted into the memory tier and counts as a hit. The disk read runs
  /// outside the map mutex; if a racing query populated the key meanwhile,
  /// the double-checked promote keeps whichever graph has the greater
  /// BuildProgress. A missing, corrupt or truncated file counts as a miss
  /// (plus store_load_failures() when a file was present) and the caller
  /// builds fresh. The returned graph may be partial — check complete()
  /// and resume from cursor() on a copy. A non-null `trace` records the
  /// disk read as a "store_load" span annotated with the serving tier
  /// (loose/pack/miss). Takes no build claim.
  std::shared_ptr<const SubTransitionGraph> Lookup(
      const GraphContext& context, TraceRecorder* trace = nullptr);

  /// Lookup(context, trace) under the single-flight rule (see the top of
  /// this header): a complete memory-tier entry is returned as is, with
  /// `claim` left empty. Otherwise the key's build claim is taken into
  /// `claim` — after waiting, under a "coalesced_wait" span, while another
  /// query holds it, and re-reading the entry after each wait — and the
  /// memory-then-store lookup runs under it. `waited` is set when the call
  /// waited. `claim` must be empty: a query holds at most one graph claim.
  std::shared_ptr<const SubTransitionGraph> LookupOrClaim(
      const GraphContext& context, BuildClaim& claim, bool& waited,
      TraceRecorder* trace = nullptr);

  /// The memory-tier entry for `key` without counting a hit or miss and
  /// without freshening its eviction rank — a pure side-effect-free probe
  /// (the maintenance pass asks which remembered keys are still partial).
  /// Never touches the disk tier.
  std::shared_ptr<const SubTransitionGraph> Peek(const std::string& key) const;

  /// Stores a graph under `key`, evicting the least-recently-hit entry if
  /// a cap is set and reached. Partial graphs are first-class entries; an
  /// incumbent is replaced only by a graph of strictly greater
  /// BuildProgress (solver/graph.h), so a complete entry is never
  /// downgraded and re-inserting equal progress is a no-op ("first insert
  /// wins" for complete graphs).
  /// Accepted inserts are written through to the store, outside the map
  /// mutex. Throws std::invalid_argument on a null graph. A non-null
  /// `trace` records the write-through as a "store_save" span annotated
  /// with whether the store accepted it.
  void Insert(const std::string& key,
              std::shared_ptr<const SubTransitionGraph> graph,
              TraceRecorder* trace = nullptr);

  /// Applies GraphStore::Sweep(max_bytes, max_files) to the disk tier
  /// (no-op without one), outside the map mutex. Returns what was
  /// removed/kept; see store.h for the LRU-by-atime policy.
  StoreSweepResult SweepStore(std::uint64_t max_bytes,
                              std::uint64_t max_files);

  // Stats are plain atomics: they are written concurrently by queries on
  // other threads, and reading them must never tear or take the map mutex
  // (the query service aggregates them on its stats path).
  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::uint64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  /// Build claims taken on a memory miss, and waits on one.
  std::uint64_t single_flight_leads() const {
    return single_flight_leads_.load(std::memory_order_relaxed);
  }
  std::uint64_t coalesced_joins() const {
    return coalesced_joins_.load(std::memory_order_relaxed);
  }
  /// Build claims taken on a partial entry, and waits on one.
  std::uint64_t resume_leads() const {
    return resume_leads_.load(std::memory_order_relaxed);
  }
  std::uint64_t resume_coalesced() const {
    return resume_coalesced_.load(std::memory_order_relaxed);
  }
  /// Graphs deserialized from the disk tier.
  std::uint64_t store_loads() const {
    return store_loads_.load(std::memory_order_relaxed);
  }
  /// Store files present but unreadable (truncated, corrupt, key or schema
  /// mismatch, version skew); each one fell back to a fresh build.
  std::uint64_t store_load_failures() const {
    return store_load_failures_.load(std::memory_order_relaxed);
  }
  /// Graphs written through to the disk tier.
  std::uint64_t store_writes() const {
    return store_writes_.load(std::memory_order_relaxed);
  }
  /// Member tables created, and requests that found their class's table.
  std::uint64_t member_table_builds() const {
    return member_table_builds_.load(std::memory_order_relaxed);
  }
  std::uint64_t member_table_hits() const {
    return member_table_hits_.load(std::memory_order_relaxed);
  }
  /// Tables currently held, and their approximate total size.
  std::size_t member_tables() const;
  std::size_t member_table_bytes() const;

  std::size_t max_entries() const { return max_entries_; }
  std::size_t size() const;

 private:
  struct Entry {
    std::shared_ptr<const SubTransitionGraph> graph;
    // Position in lru_; kept in sync under mutex_ (list iterators stay
    // valid across splices and other erasures).
    std::list<std::string>::iterator lru_pos;
  };

  using EntryMap = std::unordered_map<std::string, Entry>;

  /// The entry at `it`, counted as a hit and freshened. Caller holds
  /// mutex_.
  std::shared_ptr<const SubTransitionGraph> HitLocked(EntryMap::iterator it);

  /// Lookup's memory-miss half: the store load and its promote, counting
  /// the hit or the miss.
  std::shared_ptr<const SubTransitionGraph> LoadFromStore(
      const GraphContext& context, TraceRecorder* trace);

  /// The shared insert path: map update only, no I/O. Returns the graph
  /// to write through to the store (non-null only when the entry was
  /// accepted and `want_store_write`), so the caller can perform the disk
  /// write after releasing mutex_. Caller holds mutex_.
  std::shared_ptr<const SubTransitionGraph> InsertLocked(
      const std::string& key, std::shared_ptr<const SubTransitionGraph> graph,
      bool want_store_write);

  struct TableSlot {
    std::string class_key;
    std::shared_ptr<MemberTable> table;
  };

  mutable std::mutex tables_mutex_;
  // Most recently requested first; at most kMaxMemberTables long.
  std::vector<TableSlot> tables_;
  std::atomic<std::uint64_t> member_table_builds_{0};
  std::atomic<std::uint64_t> member_table_hits_{0};

  mutable std::mutex mutex_;
  const std::size_t max_entries_;
  const std::shared_ptr<const GraphStore> store_;
  EntryMap graphs_;
  // Recency order, most recently hit/inserted first; entries hold their
  // own key so eviction can erase from the map.
  std::list<std::string> lru_;
  // The keys whose build claim is held, guarded by mutex_; every release
  // notifies claim_released_.
  std::unordered_set<std::string> claimed_;
  std::condition_variable claim_released_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> single_flight_leads_{0};
  std::atomic<std::uint64_t> coalesced_joins_{0};
  std::atomic<std::uint64_t> resume_leads_{0};
  std::atomic<std::uint64_t> resume_coalesced_{0};
  std::atomic<std::uint64_t> store_loads_{0};
  std::atomic<std::uint64_t> store_load_failures_{0};
  std::atomic<std::uint64_t> store_writes_{0};
};

/// The lookup half of a query's path to its graph: the context's entry in
/// `cache` by LookupOrClaim (memory, then store, taking `claim` unless the
/// entry is complete) under a "cache_lookup" span annotated with `hit` and
/// `complete`, or null without a cache. Sets stats.coalesced when the
/// lookup waited on another query's claim, stats.graph_from_cache, and for
/// a partial entry stats.graph_resumed and `solve_span`'s
/// resumed_from_phase / resumed_from_member. The caller keeps `claim`
/// through its build and Insert. Throws std::logic_error when the entry's
/// guards are not the context's: edge labels index them, so such a graph
/// cannot be mapped onto the rules.
std::shared_ptr<const SubTransitionGraph> LookupGraph(
    GraphCache* cache, const GraphContext& context, ScopedSpan& solve_span,
    SolveStats& stats, GraphCache::BuildClaim& claim);

/// The context's complete graph: LookupGraph's complete entry, or else its
/// partial entry resumed on a private copy (the cached graph stays
/// immutable for concurrent readers) or a fresh graph, built to completion
/// under a "full_build" span and inserted into `cache`, the key's build
/// claim held throughout and released after the insert. The build sweeps
/// the class's member table when `cache` has one for `atom_cap`. Throws
/// std::runtime_error when the graph interns more than `max_shapes`
/// shapes.
std::shared_ptr<const SubTransitionGraph> AcquireCompleteGraph(
    GraphCache* cache, const GraphContext& context, ScopedSpan& solve_span,
    SolveStats& stats, std::uint32_t atom_cap = 0,
    std::uint64_t max_shapes = ~std::uint64_t{0});

}  // namespace amalgam

#endif  // AMALGAM_SOLVER_CACHE_H_
