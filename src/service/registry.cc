#include "service/registry.h"

#include <unistd.h>

#include <cmath>
#include <cstring>
#include <utility>

#include "approx/lsh_index.h"
#include "common/timer.h"
#include "core/delta_index.h"
#include "core/segment.h"
#include "obs/metrics.h"

namespace simjoin {
namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(value), "double must be 64-bit");
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

size_t AuxSlot(BackendKind kind) { return static_cast<size_t>(kind); }

struct SegmentTierMetrics {
  obs::Counter* writes;
  obs::Counter* write_errors;
  obs::Counter* cold_evictions;
  obs::Counter* faults_in;

  static SegmentTierMetrics& Get() {
    static SegmentTierMetrics m{
        obs::GlobalMetrics().GetCounter("registry.segment.writes"),
        obs::GlobalMetrics().GetCounter("registry.segment.write_errors"),
        obs::GlobalMetrics().GetCounter("registry.segment.cold_evictions"),
        obs::GlobalMetrics().GetCounter("registry.segment.faults_in")};
    return m;
  }
};

/// Spill-file name for an index: the name with every character outside
/// [A-Za-z0-9._-] replaced (client names are arbitrary bytes and must not
/// traverse out of the spill directory); the version suffix keeps
/// replacements from colliding after sanitisation.
std::string SpillFileName(const std::string& name, uint64_t version) {
  std::string safe = name;
  for (char& c : safe) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '.' || c == '_' || c == '-';
    if (!ok) c = '_';
  }
  return safe + ".v" + std::to_string(version) + ".seg";
}

/// True when the mapped backend has not served a query yet — its first
/// traversals pay page faults on top of arithmetic, which the planner
/// prices in before probing (probing itself would warm the mapping and
/// hide the cost it is trying to measure).
bool MappedAndCold(const IndexBackend& backend) {
  if (!backend.mapped()) return false;
  const auto* mmap_backend = dynamic_cast<const MmapEkdbBackend*>(&backend);
  return mmap_backend != nullptr && mmap_backend->queries_served() == 0;
}

}  // namespace

Result<std::shared_ptr<const IndexSnapshot>> IndexSnapshot::Build(
    std::string name, Dataset dataset, const EkdbConfig& config,
    size_t num_threads, BackendKind backend) {
  if (!BackendKindBuildable(backend)) {
    return Status::InvalidArgument(
        std::string("backend '") + BackendKindName(backend) +
        "' cannot be built as an index primary; it is a per-query tier the "
        "planner materialises on demand");
  }
  Timer timer;
  auto owned = std::make_shared<const Dataset>(std::move(dataset));
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  snapshot->name_ = std::move(name);
  std::shared_ptr<const IndexBackend> primary;
  if (backend == BackendKind::kEpsilonGrid) {
    SIMJOIN_ASSIGN_OR_RETURN(auto grid,
                             EpsilonGridBackend::Build(*owned, config));
    primary = std::move(grid);
  } else if (backend == BackendKind::kUpdatable) {
    // The updatable index co-owns the dataset: its background compaction
    // can outlive this snapshot and still read the build rows.
    SIMJOIN_ASSIGN_OR_RETURN(
        auto updatable, UpdatableIndex::Build(owned, config, num_threads));
    primary = std::move(updatable);
  } else {
    SIMJOIN_ASSIGN_OR_RETURN(
        auto tree, EkdbFlatBackend::Build(*owned, config, num_threads));
    primary = std::move(tree);
  }
  snapshot->data_bytes_ = owned->MemoryUsageBytes();
  snapshot->memory_bytes_ =
      owned->MemoryUsageBytes() + primary->index_bytes();
  // The primary doubles as its own aux slot, so Backend(primary kind) and
  // planner routing back to the primary are lookups, not builds.
  snapshot->aux_[AuxSlot(primary->kind())] = primary;
  snapshot->primary_ = std::move(primary);
  snapshot->dataset_ = std::move(owned);
  snapshot->data_ = snapshot->dataset_.get();
  snapshot->build_seconds_ = timer.Seconds();
  return std::shared_ptr<const IndexSnapshot>(std::move(snapshot));
}

Result<std::shared_ptr<const IndexSnapshot>> IndexSnapshot::OpenMapped(
    std::string name, const std::string& segment_path,
    const MmapBackendOptions& options) {
  Timer timer;
  SIMJOIN_ASSIGN_OR_RETURN(auto mapped,
                           MmapEkdbBackend::Open(segment_path, options));
  auto snapshot = std::shared_ptr<IndexSnapshot>(new IndexSnapshot());
  snapshot->name_ = std::move(name);
  snapshot->segment_path_ = segment_path;
  std::shared_ptr<const IndexBackend> primary(std::move(mapped));
  // Heap bookkeeping only: the structure and the dataset live in the
  // mapping and are accounted to the OS page cache, not the byte budget.
  snapshot->memory_bytes_ = primary->index_bytes();
  snapshot->data_ = &primary->dataset();
  snapshot->aux_[AuxSlot(primary->kind())] = primary;
  snapshot->primary_ = std::move(primary);
  snapshot->build_seconds_ = timer.Seconds();
  return std::shared_ptr<const IndexSnapshot>(std::move(snapshot));
}

const UpdatableIndex* IndexSnapshot::updatable() const {
  if (primary_->kind() != BackendKind::kUpdatable) return nullptr;
  return static_cast<const UpdatableIndex*>(primary_.get());
}

Status IndexSnapshot::WriteSegmentFile(const std::string& path) const {
  const FlatEkdbTree* tree = primary_->flat_tree();
  if (tree == nullptr) {
    return Status::InvalidArgument(
        "index '" + name_ + "' has a " +
        std::string(BackendKindName(primary_->kind())) +
        " primary; only tree-backed indexes can be spilled to a segment");
  }
  return WriteSegment(*tree, path);
}

IndexSnapshot::PlanCache IndexSnapshot::ExportPlanCache() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  return plan_cache_;
}

void IndexSnapshot::ImportPlanCache(const PlanCache& cache) const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  plan_cache_.insert(cache.begin(), cache.end());
}

Result<std::shared_ptr<const IndexBackend>> IndexSnapshot::Backend(
    BackendKind kind, bool* built) const {
  if (built != nullptr) *built = false;
  if (kind == BackendKind::kLsh) {
    return Status::InvalidArgument(
        "LSH backends are sized from a recall target; route through "
        "PlanRange");
  }
  // The build runs under the lock: it happens at most once per kind per
  // snapshot lifetime, and holding the lock keeps a second planner thread
  // from duplicating a multi-second tree build.  Query execution never
  // takes this lock.
  std::lock_guard<std::mutex> lock(plan_mu_);
  std::shared_ptr<const IndexBackend>& slot = aux_[AuxSlot(kind)];
  if (slot != nullptr) return slot;
  switch (kind) {
    case BackendKind::kEkdbFlat: {
      SIMJOIN_ASSIGN_OR_RETURN(
          auto backend, EkdbFlatBackend::Build(*data_, primary_->config(),
                                               /*num_threads=*/1));
      slot = std::move(backend);
      break;
    }
    case BackendKind::kEpsilonGrid: {
      SIMJOIN_ASSIGN_OR_RETURN(
          auto backend,
          EpsilonGridBackend::Build(*data_, primary_->config()));
      slot = std::move(backend);
      break;
    }
    case BackendKind::kBruteSimd: {
      SIMJOIN_ASSIGN_OR_RETURN(
          auto backend, BruteSimdBackend::Build(*data_,
                                                primary_->config()));
      slot = std::move(backend);
      break;
    }
    case BackendKind::kUpdatable:
      // Reached only when the primary is NOT updatable (an updatable
      // primary sits in its own aux slot): a static mutable tier over an
      // immutable snapshot cannot be conjured after the fact.
      return Status::InvalidArgument(
          "updatable is a primary-only backend; build the index with it");
    case BackendKind::kLsh:
      return Status::Internal("unreachable");
  }
  if (built != nullptr) *built = true;
  return slot;
}

Result<std::shared_ptr<const IndexBackend>> IndexSnapshot::JoinBackend(
    bool* built) const {
  if (built != nullptr) *built = false;
  if (primary_->supports_self_join()) return primary_;
  return Backend(BackendKind::kEkdbFlat, built);
}

Result<std::shared_ptr<const IndexBackend>> IndexSnapshot::LshBackendFor(
    double eps_query, size_t tables, size_t hashes, uint64_t seed,
    bool* built) const {
  if (built != nullptr) *built = false;
  const uint64_t eps_bits = DoubleBits(eps_query);
  std::lock_guard<std::mutex> lock(plan_mu_);
  for (const LshCacheEntry& entry : lsh_cache_) {
    if (entry.eps_bits == eps_bits && entry.tables == tables &&
        entry.hashes == hashes) {
      return entry.backend;
    }
  }
  // The LSH structure is built *at the query epsilon*: bucket width and the
  // recall bound both key off the radius actually served, not the primary's
  // build epsilon.
  EkdbConfig config = primary_->config();
  config.epsilon = eps_query;
  LshIndexParams params;
  params.tables = tables;
  params.hashes_per_table = hashes;
  params.seed = seed;
  SIMJOIN_ASSIGN_OR_RETURN(auto backend,
                           LshBackend::Build(*data_, config, params));
  if (lsh_cache_.size() >= kMaxCachedLshBackends) lsh_cache_.pop_front();
  lsh_cache_.push_back(
      LshCacheEntry{eps_bits, tables, hashes, std::move(backend)});
  if (built != nullptr) *built = true;
  return lsh_cache_.back().backend;
}

Result<PlannedRange> IndexSnapshot::PlanRange(
    double eps_query, double recall, uint8_t forced_backend,
    const RangePlannerOptions& options) const {
  if (!(recall > 0.0) || recall > 1.0 || !std::isfinite(recall)) {
    return Status::InvalidArgument("recall target must be in (0, 1]");
  }
  SIMJOIN_RETURN_NOT_OK(primary_->ValidateQueryEpsilon(eps_query));
  const Metric metric = primary_->config().metric;
  const double n = static_cast<double>(data_->size());

  // -- updatable primary: always the merged delta+base view -----------------
  // Aux backends and LSH tiers are built over the *initial* dataset and
  // would answer a stale point set, so routing away from the primary is
  // never sound here.  No plan cache either: the cost moves with every
  // insert (the delta-size term), and caching it would freeze a transient.
  if (primary_->kind() == BackendKind::kUpdatable) {
    if (forced_backend != kWireBackendAuto) {
      SIMJOIN_ASSIGN_OR_RETURN(BackendKind kind,
                               BackendKindFromWire(forced_backend));
      if (kind != BackendKind::kUpdatable) {
        return Status::InvalidArgument(
            std::string("index is updatable; backend '") +
            BackendKindName(kind) +
            "' would serve a stale point set (use auto or updatable)");
      }
    }
    PlannedRange out;
    out.backend = primary_;
    out.plan.kind = BackendKind::kUpdatable;
    out.plan.est_cost = primary_->EstimatedQueryCost(eps_query, 0.0);
    out.plan.expected_recall = 1.0;
    out.plan.rationale =
        "updatable primary: merged delta+base view (cost carries the "
        "delta-size term)";
    return out;
  }

  // -- forced backend: no costing, no cache ---------------------------------
  if (forced_backend != kWireBackendAuto) {
    SIMJOIN_ASSIGN_OR_RETURN(BackendKind kind,
                             BackendKindFromWire(forced_backend));
    PlannedRange out;
    out.plan.kind = kind;
    out.plan.rationale = "forced by request";
    if (kind == BackendKind::kLsh) {
      const double width = 4.0 * eps_query;  // LshIndexParams default
      const double p1 =
          PStableCollisionProbability(metric, eps_query, width);
      const size_t hashes = options.lsh_hashes_per_table;
      const double p_table = std::pow(p1, static_cast<double>(hashes));
      const size_t tables =
          LshTablesForRecall(recall, p_table, options.lsh_max_tables);
      SIMJOIN_ASSIGN_OR_RETURN(
          out.backend, LshBackendFor(eps_query, tables, hashes, options.seed,
                                     &out.built_backend));
      out.plan.lsh_tables = tables;
      out.plan.lsh_hashes = hashes;
    } else {
      SIMJOIN_ASSIGN_OR_RETURN(out.backend,
                               Backend(kind, &out.built_backend));
    }
    out.plan.expected_recall = out.backend->ExpectedRecall(eps_query);
    out.plan.est_cost = out.backend->EstimatedQueryCost(eps_query, 0.0);
    return out;
  }

  // -- plan cache -----------------------------------------------------------
  const std::pair<uint64_t, uint64_t> cache_key{DoubleBits(eps_query),
                                                DoubleBits(recall)};
  {
    // Copy the hit out, then resolve the backend with the lock released —
    // Backend()/LshBackendFor() take plan_mu_ themselves.
    RangePlan cached;
    bool hit = false;
    {
      std::lock_guard<std::mutex> lock(plan_mu_);
      auto it = plan_cache_.find(cache_key);
      if (it != plan_cache_.end()) {
        cached = it->second;
        hit = true;
      }
    }
    if (hit) {
      PlannedRange out;
      out.plan = cached;
      out.cache_hit = true;
      if (cached.kind == BackendKind::kLsh) {
        SIMJOIN_ASSIGN_OR_RETURN(
            out.backend,
            LshBackendFor(eps_query, cached.lsh_tables, cached.lsh_hashes,
                          options.seed, &out.built_backend));
      } else {
        SIMJOIN_ASSIGN_OR_RETURN(out.backend,
                                 Backend(cached.kind, &out.built_backend));
      }
      return out;
    }
  }

  // -- cold planning: sampled selectivity + probed primary cost -------------
  // A mapped primary's coldness must be captured *before* probing: the
  // probe queries themselves fault pages in and would erase the very
  // penalty the plan should carry.
  const bool primary_was_cold = MappedAndCold(*primary_);
  SIMJOIN_ASSIGN_OR_RETURN(
      const double est_avg,
      EstimateAvgNeighbors(*data_, eps_query, metric, options));
  SIMJOIN_ASSIGN_OR_RETURN(
      double primary_cost,
      ProbeRangeQueryCost(*primary_, eps_query, options));
  if (primary_was_cold) primary_cost *= options.cold_read_penalty;

  PlannedRange out;
  out.backend = primary_;
  out.plan.kind = primary_->kind();
  out.plan.est_cost = primary_cost;
  out.plan.est_avg_neighbors = est_avg;
  out.plan.rationale = std::string("primary ") +
                       BackendKindName(primary_->kind()) +
                       (primary_was_cold ? " probed cheapest (cold-mapped)"
                                         : " probed cheapest");
  const double margin = options.switch_margin;

  // Brute scan: free to materialise, pointless to probe (its cost is by
  // construction one discounted pass over every row).
  {
    SIMJOIN_ASSIGN_OR_RETURN(auto brute,
                             Backend(BackendKind::kBruteSimd, nullptr));
    const double brute_cost = brute->EstimatedQueryCost(eps_query, est_avg);
    if (brute_cost * margin < out.plan.est_cost) {
      out.backend = std::move(brute);
      out.plan.kind = BackendKind::kBruteSimd;
      out.plan.est_cost = brute_cost;
      out.plan.rationale =
          "brute scan beats structure traversal at this selectivity";
    }
  }

  // Exact structured alternative to the primary.  Gate the (possibly
  // expensive) aux build behind the backend's own static prior so a
  // clearly-losing candidate is never materialised.
  const BackendKind alt = primary_->kind() == BackendKind::kEpsilonGrid
                              ? BackendKind::kEkdbFlat
                              : BackendKind::kEpsilonGrid;
  bool alt_plausible;
  if (alt == BackendKind::kEpsilonGrid) {
    // The grid only prunes on the dims it bins; past its cap every cell
    // window degenerates toward a full scan (same rule the join planner
    // derives its grid_max_dims from).
    alt_plausible = data_->dims() <= EpsilonGrid::kMaxBinnedDims;
  } else {
    // Mirrors EkdbFlatBackend::EstimatedQueryCost's prior.
    const double prior = std::min(n, 64.0 + 8.0 * est_avg);
    alt_plausible = prior * margin < out.plan.est_cost;
  }
  if (alt_plausible) {
    bool built = false;
    auto alt_backend = Backend(alt, &built);
    // A failed aux build (e.g. grid cell cap) just removes the candidate.
    if (alt_backend.ok()) {
      out.built_backend = out.built_backend || built;
      SIMJOIN_ASSIGN_OR_RETURN(
          const double alt_cost,
          ProbeRangeQueryCost(**alt_backend, eps_query, options));
      if (alt_cost * margin < out.plan.est_cost) {
        out.backend = *alt_backend;
        out.plan.kind = alt;
        out.plan.est_cost = alt_cost;
        out.plan.rationale = std::string(BackendKindName(alt)) +
                             " probed cheaper than the primary";
      }
    }
  }

  // Approximate tier: only admissible when the request tolerates recall
  // below 1 and the metric has a p-stable family.
  if (recall < 1.0 &&
      (metric == Metric::kL1 || metric == Metric::kL2)) {
    const double width = 4.0 * eps_query;  // LshIndexParams default
    const double p1 = PStableCollisionProbability(metric, eps_query, width);
    const size_t hashes = options.lsh_hashes_per_table;
    const double p_table = std::pow(p1, static_cast<double>(hashes));
    const size_t tables =
        LshTablesForRecall(recall, p_table, options.lsh_max_tables);
    const double bound =
        1.0 - std::pow(1.0 - p_table, static_cast<double>(tables));
    // Most optimistic LSH cost: hashing plus verifying just the true
    // neighbours.  If even that loses to the exact route, skip the build.
    const double optimistic =
        static_cast<double>(tables * hashes) + 1.3 * est_avg + 8.0;
    if (bound >= recall && optimistic * margin < out.plan.est_cost) {
      bool built = false;
      SIMJOIN_ASSIGN_OR_RETURN(
          auto lsh, LshBackendFor(eps_query, tables, hashes, options.seed,
                                  &built));
      out.built_backend = out.built_backend || built;
      const double lsh_cost = lsh->EstimatedQueryCost(eps_query, est_avg);
      if (lsh_cost * margin < out.plan.est_cost) {
        out.backend = std::move(lsh);
        out.plan.kind = BackendKind::kLsh;
        out.plan.est_cost = lsh_cost;
        out.plan.lsh_tables = tables;
        out.plan.lsh_hashes = hashes;
        out.plan.rationale =
            "lsh (L=" + std::to_string(tables) +
            ", K=" + std::to_string(hashes) + ") meets recall " +
            std::to_string(recall) + " below the exact cost";
      }
    }
  }
  out.plan.expected_recall = out.backend->ExpectedRecall(eps_query);

  {
    std::lock_guard<std::mutex> lock(plan_mu_);
    plan_cache_.emplace(cache_key, out.plan);
  }
  return out;
}

uint64_t IndexSnapshot::aux_bytes() const {
  std::lock_guard<std::mutex> lock(plan_mu_);
  uint64_t total = 0;
  for (const auto& slot : aux_) {
    if (slot != nullptr && slot.get() != primary_.get()) {
      total += slot->index_bytes();
    }
  }
  for (const LshCacheEntry& entry : lsh_cache_) {
    total += entry.backend->index_bytes();
  }
  return total;
}

Status IndexRegistry::Put(std::shared_ptr<const IndexSnapshot> snapshot,
                          size_t* evicted) {
  if (evicted != nullptr) *evicted = 0;
  if (snapshot == nullptr) {
    return Status::InvalidArgument("null snapshot");
  }
  if (snapshot->memory_bytes() > byte_budget_) {
    return Status::InvalidArgument(
        "index '" + snapshot->name() + "' (" +
        std::to_string(snapshot->memory_bytes()) +
        " bytes) exceeds the registry budget of " +
        std::to_string(byte_budget_) + " bytes");
  }
  const std::string& name = snapshot->name();
  const uint64_t version = next_version_.fetch_add(1) + 1;

  // Write-through spill happens before the lock: segment writes stream the
  // whole index to disk and must not stall every other registry operation.
  // The versioned filename keeps concurrent Puts of the same name from
  // colliding — whichever insert lands later wins the map, and the loser's
  // file is unlinked when its entry is replaced below.
  std::string segment_path;
  bool owns_file = false;
  if (snapshot->mapped()) {
    // Already segment-backed: eviction can demote to the existing file.
    // The file belongs to whoever built it (an on-disk build artifact);
    // the registry never unlinks it.
    segment_path = snapshot->segment_path();
  } else if (spill_enabled() && snapshot->primary().flat_tree() != nullptr) {
    std::string path = spill_dir_ + "/" + SpillFileName(name, version);
    const Status written = snapshot->WriteSegmentFile(path);
    if (written.ok()) {
      segment_path = std::move(path);
      owns_file = true;
      SegmentTierMetrics::Get().writes->Add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++segment_writes_;
    } else {
      // Degrade to the old destroy-on-evict behaviour for this entry; the
      // index itself is fine.
      SegmentTierMetrics::Get().write_errors->Add(1);
      std::lock_guard<std::mutex> lock(mu_);
      ++segment_write_errors_;
    }
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) RemoveHotLocked(it);
  auto cold_it = cold_.find(name);
  if (cold_it != cold_.end()) {
    if (cold_it->second.owns_file) ::unlink(cold_it->second.segment_path.c_str());
    cold_.erase(cold_it);
  }
  const uint64_t charge = snapshot->memory_bytes();
  bytes_in_use_ += charge;
  const IndexSnapshot* keep = snapshot.get();
  lru_.push_front(Entry{std::move(snapshot), 0, version, charge,
                        std::move(segment_path), owns_file});
  by_name_[name] = lru_.begin();
  EvictLocked(keep, evicted);
  return Status::OK();
}

Result<std::shared_ptr<const IndexSnapshot>> IndexRegistry::Get(
    const std::string& name) {
  std::unique_lock<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    ++it->second->hits;
    lru_.splice(lru_.begin(), lru_, it->second);  // iterator stays valid
    return it->second->snapshot;
  }
  auto cold_it = cold_.find(name);
  if (cold_it == cold_.end()) {
    return Status::NotFound("no index named '" + name + "'");
  }

  // Fault-in: re-open the segment memory-mapped, off-lock (it touches the
  // filesystem).  No data is read and nothing is rebuilt — the mapping
  // populates lazily as queries traverse it.
  ColdEntry cold = cold_it->second;
  lock.unlock();
  auto opened = IndexSnapshot::OpenMapped(name, cold.segment_path,
                                          mmap_options_);
  if (!opened.ok()) {
    return Status::IoError("index '" + name +
                           "' is cold and its segment file could not be "
                           "faulted back in: " +
                           opened.status().message());
  }
  std::shared_ptr<const IndexSnapshot> snapshot = std::move(*opened);
  // The plan cache survives the evict/fault cycle: same version, same
  // build, so every cached (epsilon, recall) decision still holds.
  snapshot->ImportPlanCache(cold.plan_cache);

  lock.lock();
  it = by_name_.find(name);
  if (it != by_name_.end()) {
    // Raced with another fault-in or a fresh build; theirs is the entry of
    // record (and if we raced a fault-in, both map the same immutable file).
    ++it->second->hits;
    lru_.splice(lru_.begin(), lru_, it->second);
    return it->second->snapshot;
  }
  cold_it = cold_.find(name);
  if (cold_it == cold_.end() || cold_it->second.version != cold.version) {
    return Status::NotFound("index '" + name +
                            "' was removed while faulting in");
  }
  cold_.erase(cold_it);
  ++faults_in_;
  SegmentTierMetrics::Get().faults_in->Add(1);
  const uint64_t charge = snapshot->memory_bytes();
  bytes_in_use_ += charge;
  const IndexSnapshot* keep = snapshot.get();
  lru_.push_front(Entry{snapshot, cold.hits + 1, cold.version, charge,
                        cold.segment_path, cold.owns_file});
  by_name_[name] = lru_.begin();
  EvictLocked(keep, nullptr);
  return snapshot;
}

bool IndexRegistry::Erase(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    RemoveHotLocked(it);
    return true;
  }
  auto cold_it = cold_.find(name);
  if (cold_it == cold_.end()) return false;
  if (cold_it->second.owns_file) {
    ::unlink(cold_it->second.segment_path.c_str());
  }
  cold_.erase(cold_it);
  return true;
}

void IndexRegistry::RefreshCharge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = by_name_.find(name);
  if (it == by_name_.end()) return;
  Entry& entry = *it->second;
  const uint64_t now = entry.snapshot->memory_bytes();
  bytes_in_use_ = bytes_in_use_ - entry.charged + now;
  entry.charged = now;
  EvictLocked(entry.snapshot.get(), nullptr);
}

std::vector<RegistryEntryInfo> IndexRegistry::List() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<RegistryEntryInfo> out;
  out.reserve(lru_.size() + cold_.size());
  for (const Entry& entry : lru_) {
    const IndexSnapshot& snap = *entry.snapshot;
    out.push_back(RegistryEntryInfo{snap.name(), snap.memory_bytes(),
                                    entry.hits, snap.dataset().size(),
                                    snap.dataset().dims(),
                                    snap.config().epsilon,
                                    snap.config().metric, entry.version,
                                    snap.mapped(), /*cold=*/false});
  }
  for (const auto& [name, cold] : cold_) {
    out.push_back(RegistryEntryInfo{name, 0, cold.hits, cold.num_points,
                                    cold.dims, cold.epsilon, cold.metric,
                                    cold.version, /*mapped=*/false,
                                    /*cold=*/true});
  }
  return out;
}

uint64_t IndexRegistry::bytes_in_use() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_in_use_;
}

uint64_t IndexRegistry::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

size_t IndexRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

size_t IndexRegistry::cold_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cold_.size();
}

uint64_t IndexRegistry::segment_writes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_writes_;
}

uint64_t IndexRegistry::segment_write_errors() const {
  std::lock_guard<std::mutex> lock(mu_);
  return segment_write_errors_;
}

uint64_t IndexRegistry::cold_evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cold_evictions_;
}

uint64_t IndexRegistry::faults_in() const {
  std::lock_guard<std::mutex> lock(mu_);
  return faults_in_;
}

void IndexRegistry::RemoveHotLocked(
    std::unordered_map<std::string, std::list<Entry>::iterator>::iterator it) {
  // This is removal, not demotion: the entry's write-through segment file
  // (if the registry owns one) would otherwise leak on replace and erase.
  if (it->second->owns_file) ::unlink(it->second->segment_path.c_str());
  bytes_in_use_ -= it->second->charged;
  lru_.erase(it->second);
  by_name_.erase(it);
}

void IndexRegistry::EvictLocked(const IndexSnapshot* keep, size_t* evicted) {
  auto it = lru_.end();
  while (bytes_in_use_ > byte_budget_ && it != lru_.begin()) {
    --it;  // back of the list = least recently used
    if (it->snapshot.get() == keep) continue;  // never the new arrival
    if (!it->segment_path.empty()) {
      // Demote instead of destroy: keep the path, the version, and the
      // planner's learned decisions; the data itself is already on disk.
      const IndexSnapshot& snap = *it->snapshot;
      ColdEntry cold;
      cold.segment_path = it->segment_path;
      cold.version = it->version;
      cold.owns_file = it->owns_file;
      cold.hits = it->hits;
      cold.plan_cache = snap.ExportPlanCache();
      cold.num_points = snap.dataset().size();
      cold.dims = snap.dataset().dims();
      cold.epsilon = snap.config().epsilon;
      cold.metric = snap.config().metric;
      cold_[snap.name()] = std::move(cold);
      ++cold_evictions_;
      SegmentTierMetrics::Get().cold_evictions->Add(1);
    }
    bytes_in_use_ -= it->charged;
    by_name_.erase(it->snapshot->name());
    // Dropping the shared_ptr here only releases the registry's reference;
    // requests still holding the snapshot keep it alive and queryable.
    it = lru_.erase(it);
    ++evictions_;
    if (evicted != nullptr) ++*evicted;
  }
}

}  // namespace simjoin
