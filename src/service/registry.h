// Named, immutable index snapshots behind shared_ptr refcounts, with
// byte-budgeted LRU eviction — the state the query service serves from.
//
// The concurrency contract is copy-out, not lock-across: Get() returns a
// shared_ptr<const IndexSnapshot> under a brief registry lock, and queries
// then run against that snapshot with no lock held at all.  Builds insert
// *new* snapshots (Put replaces the name atomically), and eviction merely
// drops the registry's own reference — a snapshot stays fully queryable for
// as long as any in-flight request still holds it.  Concurrent const access
// to any IndexBackend is safe (all are immutable after construction), so
// readers never block builders and builders never invalidate readers.
//
// Beyond its primary structure, a snapshot lazily materialises *auxiliary*
// backends on planner demand: the exact alternatives (ekdb-flat, grid,
// brute-SIMD) are built at most once each and kept for the snapshot's
// lifetime, while recall-controlled LSH builds are cached per
// (epsilon, tables, hashes) with a small FIFO cap.  Aux backends are
// handed out as shared_ptr, so an evicted cache entry stays alive for any
// request still querying it.

#ifndef SIMJOIN_SERVICE_REGISTRY_H_
#define SIMJOIN_SERVICE_REGISTRY_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "core/ekdb_flat.h"
#include "core/epsilon_grid.h"
#include "core/index_backend.h"
#include "core/planner.h"
#include "core/segment_backend.h"

namespace simjoin {

class UpdatableIndex;

/// One planner decision for a (epsilon, recall) pair on one snapshot.
struct RangePlan {
  BackendKind kind = BackendKind::kEkdbFlat;
  /// Row-filter-equivalent cost per query the plan expects (probed for the
  /// chosen exact backend, model-estimated for LSH).
  double est_cost = 0.0;
  /// Model lower bound on per-query recall (1.0 for exact routes).
  double expected_recall = 1.0;
  /// Sampled expectation of true epsilon-neighbours per query.
  double est_avg_neighbors = 0.0;
  /// Engaged only when kind == kLsh.
  size_t lsh_tables = 0;
  size_t lsh_hashes = 0;
  std::string rationale;
};

/// A resolved plan plus the backend that executes it.
struct PlannedRange {
  std::shared_ptr<const IndexBackend> backend;
  RangePlan plan;
  bool cache_hit = false;      ///< decision came from the plan cache
  bool built_backend = false;  ///< this call materialised a new aux backend
};

/// One immutable, self-contained index: the dataset (owned, at a stable
/// heap address) plus the primary index structure built over it — the flat
/// eps-k-d-B tree by default, or the epsilon grid when the build request
/// selects that backend.  Construct via Build; after that the snapshot is
/// logically const and safe to share across threads (lazy aux-backend and
/// plan caches are internally synchronised).
class IndexSnapshot {
 public:
  /// Builds the selected primary backend over the dataset (for the tree
  /// backend: pointer tree — parallel when num_threads != 1 — then
  /// flattened) and wraps it with the dataset into an immutable snapshot.
  /// Fails if the config is invalid for the data, coordinates leave
  /// [0, 1], or the kind is not buildable as a primary (LSH, brute-SIMD).
  static Result<std::shared_ptr<const IndexSnapshot>> Build(
      std::string name, Dataset dataset, const EkdbConfig& config,
      size_t num_threads = 1, BackendKind backend = BackendKind::kEkdbFlat);

  /// Opens a segment file (core/segment.h) as a mapped snapshot: the
  /// primary is an MmapEkdbBackend whose structure and dataset are views
  /// into the mapping.  Nothing is rebuilt and no data pages are read
  /// eagerly, so this is the fault-in path — memory_bytes() reports only
  /// the heap bookkeeping, not the mapped file.
  static Result<std::shared_ptr<const IndexSnapshot>> OpenMapped(
      std::string name, const std::string& segment_path,
      const MmapBackendOptions& options = {});

  const std::string& name() const { return name_; }
  const Dataset& dataset() const { return *data_; }
  BackendKind backend() const { return primary_->kind(); }
  const IndexBackend& primary() const { return *primary_; }
  /// The primary as the updatable index when backend() == kUpdatable
  /// (the Insert/Remove/Flush RPCs mutate through this); nullptr for every
  /// other backend.
  const UpdatableIndex* updatable() const;
  /// Valid only when the primary is tree-backed (backend() == kEkdbFlat).
  const FlatEkdbTree& tree() const { return *primary_->flat_tree(); }
  const EkdbConfig& config() const { return primary_->config(); }

  /// Returns (building and caching on first use) the exact auxiliary
  /// backend of the given kind; the primary is returned directly when the
  /// kind matches.  Errors for kLsh (use PlanRange, which sizes LSH from
  /// the recall target) and for kinds the dataset cannot support (e.g.
  /// grid beyond its binning cap).  *built (optional) is set when this
  /// call materialised the structure.
  Result<std::shared_ptr<const IndexBackend>> Backend(
      BackendKind kind, bool* built = nullptr) const;

  /// The backend similarity joins run on: the primary when it implements
  /// SelfJoin natively, else a lazily built ekdb-flat auxiliary (this is
  /// how grid-primary indexes serve joins instead of erroring).
  Result<std::shared_ptr<const IndexBackend>> JoinBackend(
      bool* built = nullptr) const;

  /// Cost-based routing for one (epsilon, recall) request.  recall must be
  /// in (0, 1]; forced_backend is a BackendKind wire byte or
  /// kWireBackendAuto.  Auto decisions are cached per (epsilon, recall)
  /// bits, so repeated requests skip the probe/selectivity sampling.
  /// Deterministic: all cost signals are work counters, never wall time.
  Result<PlannedRange> PlanRange(double eps_query, double recall,
                                 uint8_t forced_backend,
                                 const RangePlannerOptions& options) const;

  /// Heap footprint charged against the registry budget: dataset rows plus
  /// the primary structure's arrays.  Aux backends are planner working
  /// state and tracked separately (aux_bytes) — charging them against the
  /// LRU budget would make eviction depend on query traffic.  For an
  /// updatable primary this is *dynamic* (the delta memtable and
  /// tombstones grow with updates and fold away on compaction); the
  /// registry re-reads it via RefreshCharge after every update RPC.
  uint64_t memory_bytes() const {
    if (backend() == BackendKind::kUpdatable) {
      return data_bytes_ + primary_->index_bytes();
    }
    return memory_bytes_;
  }
  /// Current heap footprint of lazily built aux backends (telemetry).
  uint64_t aux_bytes() const;
  double build_seconds() const { return build_seconds_; }

  /// True when the primary serves out of a memory-mapped segment file.
  bool mapped() const { return primary_->mapped(); }
  /// The backing segment file of a mapped snapshot; empty otherwise.
  const std::string& segment_path() const { return segment_path_; }

  /// Writes the primary flat tree (and its dataset) as a segment file —
  /// how the registry spills a heap-built snapshot to its cold tier.
  /// InvalidArgument when the primary is not tree-backed.
  Status WriteSegmentFile(const std::string& path) const;

  /// The plan cache as a value, and its re-import on a replacement
  /// snapshot.  Both are keyed only by (epsilon, recall) bits, so a cache
  /// must never migrate across *different* index builds — the registry
  /// guards that with its per-name version counter.  const because the
  /// cache is planner working state on a logically immutable snapshot.
  using PlanCache = std::map<std::pair<uint64_t, uint64_t>, RangePlan>;
  PlanCache ExportPlanCache() const;
  void ImportPlanCache(const PlanCache& cache) const;

  IndexSnapshot(const IndexSnapshot&) = delete;
  IndexSnapshot& operator=(const IndexSnapshot&) = delete;

 private:
  IndexSnapshot() = default;

  /// LSH builds cached beyond this count are evicted FIFO (each is
  /// O(n * L) ids plus keys; in-flight queries keep evictees alive via
  /// their shared_ptr).
  static constexpr size_t kMaxCachedLshBackends = 8;

  struct LshCacheEntry {
    uint64_t eps_bits = 0;
    size_t tables = 0;
    size_t hashes = 0;
    std::shared_ptr<const IndexBackend> backend;
  };

  /// Returns (building and FIFO-caching) the LSH backend for the given
  /// query epsilon and table/hash counts.  Requires plan_mu_ NOT held.
  Result<std::shared_ptr<const IndexBackend>> LshBackendFor(
      double eps_query, size_t tables, size_t hashes, uint64_t seed,
      bool* built) const;

  std::string name_;
  // shared_ptr keeps the Dataset at a stable address (the index structures
  // point into it) and lets an updatable primary co-own it: background
  // compaction reads the build rows after this snapshot may already be
  // dead (DropIndex, LRU eviction).  Null for mapped snapshots, whose
  // dataset is a borrowed view owned by the primary backend's mapping.
  std::shared_ptr<const Dataset> dataset_;
  // The snapshot's dataset regardless of ownership: dataset_.get() for
  // built snapshots, &primary_->dataset() for mapped ones.
  const Dataset* data_ = nullptr;
  std::shared_ptr<const IndexBackend> primary_;
  std::string segment_path_;
  uint64_t memory_bytes_ = 0;
  uint64_t data_bytes_ = 0;  ///< initial dataset rows (updatable accounting)
  double build_seconds_ = 0.0;

  // Planner state, lazily populated under plan_mu_.  Backends are handed
  // out as shared_ptr copies, so the lock is never held across a query.
  mutable std::mutex plan_mu_;
  mutable std::shared_ptr<const IndexBackend> aux_[kNumBackendKinds];
  mutable std::deque<LshCacheEntry> lsh_cache_;
  mutable std::map<std::pair<uint64_t, uint64_t>, RangePlan> plan_cache_;
};

/// Listing row for one registry entry (hot or cold).
struct RegistryEntryInfo {
  std::string name;
  uint64_t bytes = 0;
  uint64_t hits = 0;
  size_t num_points = 0;
  size_t dims = 0;
  double epsilon = 0.0;
  Metric metric = Metric::kL2;
  /// Monotone per-registry build generation; a faulted-in snapshot keeps
  /// the version of the build that wrote its segment file.
  uint64_t version = 0;
  /// Served out of a memory-mapped segment file (bytes counts heap
  /// bookkeeping only).
  bool mapped = false;
  /// Evicted to a segment file; the next Get faults it back in.
  bool cold = false;
};

/// Thread-safe name -> snapshot map with LRU eviction against a byte
/// budget.  All operations take one short mutex; nothing blocks while an
/// index is being built or queried.
///
/// With a spill directory configured, eviction demotes instead of
/// destroys: each admitted tree-backed snapshot is written through to a
/// versioned segment file (off-lock), EvictLocked moves the entry to a
/// cold map holding only {path, version, exported plan cache}, and a Get
/// on a cold name re-opens the segment memory-mapped (IndexSnapshot::
/// OpenMapped) — fault-in instead of rebuild — and re-imports the plan
/// cache, which stays valid because the version proves it is the same
/// build.  Mapped snapshots charge only their heap bookkeeping against
/// the byte budget (their data lives in the OS page cache), which is what
/// lets the registry serve indexes far larger than the budget.
class IndexRegistry {
 public:
  /// spill_dir empty disables the cold tier (eviction destroys, as
  /// before).  When set, it must be an existing writable directory;
  /// mmap_options configures snapshots faulted back in from it.
  explicit IndexRegistry(uint64_t byte_budget, std::string spill_dir = "",
                         MmapBackendOptions mmap_options = {})
      : byte_budget_(byte_budget),
        spill_dir_(std::move(spill_dir)),
        mmap_options_(std::move(mmap_options)) {}

  /// Inserts (or atomically replaces) the snapshot under its name, then
  /// evicts least-recently-used *other* entries until the budget holds.
  /// A snapshot that alone exceeds the whole budget is rejected with
  /// InvalidArgument.  With spilling enabled, a tree-backed snapshot is
  /// first written through to a versioned segment file so later eviction
  /// is a demotion; a failed spill write only disables the cold tier for
  /// this entry.  *evicted (optional) receives how many entries were
  /// dropped to admit it.
  Status Put(std::shared_ptr<const IndexSnapshot> snapshot,
             size_t* evicted = nullptr);

  /// Looks up a snapshot and marks it most-recently-used.  A cold entry is
  /// faulted back in from its segment file (and re-admitted, possibly
  /// demoting others).  The returned reference stays valid after any later
  /// eviction or replacement.
  Result<std::shared_ptr<const IndexSnapshot>> Get(const std::string& name);

  /// Removes one entry, hot or cold (unlinking any registry-written
  /// segment file); false when the name is unknown.
  bool Erase(const std::string& name);

  /// Re-reads a hot entry's current memory_bytes() and adjusts the budget
  /// accounting by the difference — the hook the update RPCs call after
  /// mutating an updatable index, whose delta/tombstone footprint moves
  /// under the entry.  Growth past the budget evicts LRU *other* entries
  /// (the refreshed index itself is never evicted by its own growth).
  /// No-op for unknown or cold names.
  void RefreshCharge(const std::string& name);

  /// Hot entries in most-recently-used-first order, then cold entries.
  std::vector<RegistryEntryInfo> List() const;

  uint64_t byte_budget() const { return byte_budget_; }
  bool spill_enabled() const { return !spill_dir_.empty(); }
  uint64_t bytes_in_use() const;
  uint64_t evictions() const;
  size_t size() const;

  // -- cold-tier telemetry (mirrored in registry.segment.* metrics) --------
  size_t cold_size() const;
  uint64_t segment_writes() const;
  uint64_t segment_write_errors() const;
  uint64_t cold_evictions() const;
  uint64_t faults_in() const;

 private:
  struct Entry {
    std::shared_ptr<const IndexSnapshot> snapshot;
    uint64_t hits = 0;
    uint64_t version = 0;
    /// Bytes this entry currently holds against bytes_in_use_.  Captured at
    /// admission and moved by RefreshCharge; eviction returns exactly this
    /// amount, so accounting stays balanced even when memory_bytes() is
    /// dynamic (updatable indexes).
    uint64_t charged = 0;
    /// Segment file backing this entry ("" = not spillable: demotion
    /// disabled, eviction destroys).
    std::string segment_path;
    /// The registry wrote segment_path and owns its lifetime (unlinked on
    /// erase/replace).  False for externally built segments (on-disk
    /// builds), which are durable artifacts the registry only borrows.
    bool owns_file = false;
  };

  /// An evicted-but-recoverable index: everything needed to fault it back
  /// in without touching the data, plus the planner state worth keeping.
  struct ColdEntry {
    std::string segment_path;
    uint64_t version = 0;
    bool owns_file = false;
    uint64_t hits = 0;
    IndexSnapshot::PlanCache plan_cache;
    // Shape for listings (a cold index should still show up in List()).
    size_t num_points = 0;
    size_t dims = 0;
    double epsilon = 0.0;
    Metric metric = Metric::kL2;
  };

  /// Drops LRU entries (back of lru_) until bytes_in_use_ <= byte_budget_,
  /// never evicting `keep`.  Entries with a segment file demote to cold_;
  /// the rest are destroyed.  Requires mu_ held.
  void EvictLocked(const IndexSnapshot* keep, size_t* evicted);

  /// Removes a hot entry from lru_/by_name_ and returns its byte charge to
  /// the budget.  Requires mu_ held.
  void RemoveHotLocked(std::unordered_map<
                       std::string, std::list<Entry>::iterator>::iterator it);

  const uint64_t byte_budget_;
  const std::string spill_dir_;
  const MmapBackendOptions mmap_options_;
  std::atomic<uint64_t> next_version_{0};
  mutable std::mutex mu_;
  std::list<Entry> lru_;  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> by_name_;
  std::unordered_map<std::string, ColdEntry> cold_;
  uint64_t bytes_in_use_ = 0;
  uint64_t evictions_ = 0;
  uint64_t segment_writes_ = 0;
  uint64_t segment_write_errors_ = 0;
  uint64_t cold_evictions_ = 0;
  uint64_t faults_in_ = 0;
};

}  // namespace simjoin

#endif  // SIMJOIN_SERVICE_REGISTRY_H_
