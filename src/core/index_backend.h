// The backend-agnostic index interface the query service plans over.
//
// The paper's central result is that no single similarity-join structure
// wins across dimensionality/epsilon regimes, so the serving layer cannot
// be married to one: IndexBackend abstracts "a structure built over one
// dataset that answers epsilon range queries (and possibly self-joins)",
// and everything above it — solo dispatch, the fusion collector, join
// streaming, the cost-based planner — works against this interface only.
//
// Four concrete backends exist today:
//   * EkdbFlatBackend  — the exact eps-k-d-B flat tree (the default),
//   * EpsilonGridBackend — the exact dense low-d uniform grid,
//   * BruteSimdBackend — an exact strided SIMD scan of the whole dataset
//     (no build cost, no structure; wins when the tree degenerates so far
//     that it scans almost everything anyway, paying traversal on top),
//   * LshBackend (src/approx/lsh_index.h) — recall-controlled p-stable LSH
//     candidates re-verified by the exact batch kernel.
//
// Every exact backend answers the same query with the same id *set*; the
// emission *order* is backend-specific (tree traversal order, grid cell
// order, ascending dataset order).  Service responses are therefore
// canonicalised (sorted ascending) so the answer bytes do not depend on
// which exact backend the planner picked.

#ifndef SIMJOIN_CORE_INDEX_BACKEND_H_
#define SIMJOIN_CORE_INDEX_BACKEND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "common/dataset.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "core/ekdb_config.h"
#include "core/ekdb_flat.h"
#include "core/epsilon_grid.h"

namespace simjoin {

/// Which index structure backs a served index or answers one query.  Wire
/// values (one byte in BuildIndex requests and in the RangeQuery planner
/// extension) — append only.
enum class BackendKind : uint8_t {
  kEkdbFlat = 0,     ///< eps-k-d-B tree flattened to an arena (the default)
  kEpsilonGrid = 1,  ///< uniform epsilon-cell grid (dense low-d fast path)
  kLsh = 2,          ///< p-stable LSH candidates + exact SIMD verification
  kBruteSimd = 3,    ///< strided SIMD scan of the whole dataset
  // 4 was the retired R-tree serving backend; never reuse it.
  kUpdatable = 5,    ///< LSM-style delta memtable + flat snapshot (updatable)
};

/// One past the largest BackendKind value (for fixed-size per-kind tables).
inline constexpr size_t kNumBackendKinds = 6;

/// Wire byte in the RangeQuery planner extension meaning "no forced
/// backend — let the planner choose".
inline constexpr uint8_t kWireBackendAuto = 0xFF;

/// Returns the backend kind for a wire byte, or InvalidArgument for
/// unknown values.
Result<BackendKind> BackendKindFromWire(uint8_t value);

/// Short stable name ("ekdb-flat", "grid", "lsh", "brute-simd").
const char* BackendKindName(BackendKind kind);

/// True for kinds a BuildIndex request may select as an index's primary
/// structure.  LSH and brute-SIMD are query-time backends the planner (or a
/// per-request override) materialises on demand; they are never primaries.
bool BackendKindBuildable(BackendKind kind);

/// One index structure over one dataset, answering epsilon range queries.
///
/// Implementations are immutable after construction and safe for
/// unsynchronised concurrent const access; the dataset must outlive the
/// backend.  The query contract is shared:
///  * eps_query must pass ValidateQueryEpsilon ((0, build epsilon]);
///  * RangeQuery appends matching ids to *out in a deterministic
///    backend-specific order and tallies stats when provided;
///  * RangeQueryBatch is bit-identical to per-query RangeQuery calls;
///  * exact() backends return exactly the true epsilon neighbourhood;
///    approximate ones return a verified subset (precision 1, recall < 1)
///    and report a per-query achieved-recall estimate.
class IndexBackend {
 public:
  virtual ~IndexBackend() = default;

  virtual BackendKind kind() const = 0;
  virtual const EkdbConfig& config() const = 0;
  virtual const Dataset& dataset() const = 0;
  /// Heap footprint of the structure itself (excluding the dataset).
  virtual uint64_t index_bytes() const = 0;
  /// True when RangeQuery returns the exact epsilon neighbourhood.
  virtual bool exact() const = 0;
  /// True when SelfJoin is implemented natively.
  virtual bool supports_self_join() const { return false; }
  /// True when the structure is served out of a memory-mapped segment file
  /// (fault-in serving) rather than heap storage.  The planner charges
  /// mapped backends a cold-read penalty until they have served queries,
  /// and the registry accounts their bytes against the OS page cache, not
  /// the heap budget.
  virtual bool mapped() const { return false; }

  virtual Status ValidateQueryEpsilon(double eps_query) const = 0;

  /// Appends the ids within eps_query of the query point to *out.  When
  /// recall_est is non-null it receives this backend's estimate of the
  /// recall achieved on this query (exact backends write 1.0).
  virtual Status RangeQuery(const float* query, double eps_query,
                            std::vector<PointId>* out,
                            JoinStats* stats = nullptr,
                            double* recall_est = nullptr) const = 0;

  /// Batch form; results/stats/recall estimates are bit-identical to solo
  /// RangeQuery calls over the same specs.  recall_ests (when non-null) is
  /// resized to count.
  virtual Status RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                                 std::vector<std::vector<PointId>>* results,
                                 std::vector<JoinStats>* stats = nullptr,
                                 std::vector<double>* recall_ests =
                                     nullptr) const = 0;

  /// Streams the epsilon self-join at eps_query into the sink (sequential
  /// pair sequence regardless of num_threads).  Unimplemented unless
  /// supports_self_join(); callers fall back to an ekdb-flat backend.
  virtual Status SelfJoin(double eps_query, size_t num_threads,
                          PairSink* sink, JoinStats* stats = nullptr) const;

  // -- planner hooks -------------------------------------------------------

  /// Estimated work for one range query, in row-filter-equivalent units
  /// (1.0 ~ streaming one candidate row through the batch kernel), given
  /// the sampled expectation of true epsilon neighbours per query.  A
  /// static prior — the planner refines exact backends' costs with probe
  /// queries and trusts this only where probing is pointless (brute scan)
  /// or impossible (backend not yet built).
  virtual double EstimatedQueryCost(double eps_query,
                                    double expected_neighbors) const = 0;

  /// Model lower bound on the recall of one range query at eps_query
  /// (exact backends: 1.0; LSH: the collision-probability bound at the
  /// worst case, distance == eps_query).
  virtual double ExpectedRecall(double eps_query) const { return 1.0; }

  /// The flat tree when this backend is tree-backed (cross-joins need the
  /// concrete structure for compatibility checks); nullptr otherwise.
  virtual const FlatEkdbTree* flat_tree() const { return nullptr; }
};

/// Exact eps-k-d-B flat-tree backend (wraps the pointer-tree build +
/// flatten the registry has always done; parallel when num_threads != 1).
class EkdbFlatBackend final : public IndexBackend {
 public:
  static Result<std::unique_ptr<EkdbFlatBackend>> Build(
      const Dataset& dataset, const EkdbConfig& config, size_t num_threads);
  /// Wraps an already-flattened tree (must be built over `dataset`).
  explicit EkdbFlatBackend(FlatEkdbTree tree) : tree_(std::move(tree)) {}

  BackendKind kind() const override { return BackendKind::kEkdbFlat; }
  const EkdbConfig& config() const override { return tree_.config(); }
  const Dataset& dataset() const override { return tree_.dataset(); }
  uint64_t index_bytes() const override { return tree_.total_bytes(); }
  bool exact() const override { return true; }
  bool supports_self_join() const override { return true; }
  Status ValidateQueryEpsilon(double eps_query) const override {
    return tree_.ValidateQueryEpsilon(eps_query);
  }
  Status RangeQuery(const float* query, double eps_query,
                    std::vector<PointId>* out, JoinStats* stats,
                    double* recall_est) const override;
  Status RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                         std::vector<std::vector<PointId>>* results,
                         std::vector<JoinStats>* stats,
                         std::vector<double>* recall_ests) const override;
  Status SelfJoin(double eps_query, size_t num_threads, PairSink* sink,
                  JoinStats* stats) const override;
  double EstimatedQueryCost(double eps_query,
                            double expected_neighbors) const override;
  const FlatEkdbTree* flat_tree() const override { return &tree_; }

 private:
  FlatEkdbTree tree_;
};

/// Exact epsilon-grid backend (dense low-dimensional fast path).
class EpsilonGridBackend final : public IndexBackend {
 public:
  static Result<std::unique_ptr<EpsilonGridBackend>> Build(
      const Dataset& dataset, const EkdbConfig& config);

  BackendKind kind() const override { return BackendKind::kEpsilonGrid; }
  const EkdbConfig& config() const override { return grid_.config(); }
  const Dataset& dataset() const override { return grid_.dataset(); }
  uint64_t index_bytes() const override { return grid_.total_bytes(); }
  bool exact() const override { return true; }
  Status ValidateQueryEpsilon(double eps_query) const override {
    return grid_.ValidateQueryEpsilon(eps_query);
  }
  Status RangeQuery(const float* query, double eps_query,
                    std::vector<PointId>* out, JoinStats* stats,
                    double* recall_est) const override;
  Status RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                         std::vector<std::vector<PointId>>* results,
                         std::vector<JoinStats>* stats,
                         std::vector<double>* recall_ests) const override;
  double EstimatedQueryCost(double eps_query,
                            double expected_neighbors) const override;

  const EpsilonGrid& grid() const { return grid_; }

 private:
  explicit EpsilonGridBackend(EpsilonGrid grid) : grid_(std::move(grid)) {}

  EpsilonGrid grid_;
};

/// Exact brute-force backend: one strided streaming SIMD sweep of the
/// whole dataset per query, ids emitted in ascending dataset order.  Zero
/// build cost and zero index memory — the floor every structure must beat,
/// and the planner's choice when a degenerate tree would scan nearly
/// everything anyway while also paying traversal.
class BruteSimdBackend final : public IndexBackend {
 public:
  static Result<std::unique_ptr<BruteSimdBackend>> Build(
      const Dataset& dataset, const EkdbConfig& config);

  BackendKind kind() const override { return BackendKind::kBruteSimd; }
  const EkdbConfig& config() const override { return config_; }
  const Dataset& dataset() const override { return *dataset_; }
  uint64_t index_bytes() const override { return 0; }
  bool exact() const override { return true; }
  Status ValidateQueryEpsilon(double eps_query) const override;
  Status RangeQuery(const float* query, double eps_query,
                    std::vector<PointId>* out, JoinStats* stats,
                    double* recall_est) const override;
  Status RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                         std::vector<std::vector<PointId>>* results,
                         std::vector<JoinStats>* stats,
                         std::vector<double>* recall_ests) const override;
  double EstimatedQueryCost(double eps_query,
                            double expected_neighbors) const override;

 private:
  BruteSimdBackend(const Dataset& dataset, const EkdbConfig& config)
      : dataset_(&dataset), config_(config) {}

  const Dataset* dataset_;
  EkdbConfig config_;
};

}  // namespace simjoin

#endif  // SIMJOIN_CORE_INDEX_BACKEND_H_
