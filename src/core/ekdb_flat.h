// Cache-conscious flat form of the eps-k-d-B tree.
//
// The pointer tree (EkdbTree) is the build / incremental-maintenance
// representation: nodes are heap objects linked by unique_ptr, leaves hold
// point ids into the (insertion-ordered) Dataset.  That layout is right for
// Insert/Remove but wrong for the join hot path, where every candidate row
// is a data-dependent pointer chase.
//
// FlatEkdbTree linearises a built tree into three contiguous arrays:
//
//  - a node array: children as index ranges (each node's children occupy a
//    contiguous run, BFS order), with stripe / depth / sort_dim inline;
//  - bbox planes: per-node lo/hi coordinate rows in two dense arrays;
//  - a leaf-major coordinate arena: every leaf's points in leaf sweep
//    order (DFS leaf order, each leaf's rows sorted on its sort_dim), each
//    leaf stored dims-major inside its own block, plus an arena-position ->
//    original PointId remap applied only when a pair is emitted.
//
// A sliding-window leaf sweep is therefore one contiguous run of each of
// the leaf's columns, which the candidate-parallel
// BatchDistanceKernel::FilterWithinEpsilonColumns scores one candidate per
// SIMD lane, instead of a per-candidate gather through 32 row pointers.
// Joins over the flat form emit pair sets bit-identical to the
// pointer-tree joins (see ekdb_flat_join.h and the differential tests).
// See docs/layout.md for the full story.

#ifndef SIMJOIN_CORE_EKDB_FLAT_H_
#define SIMJOIN_CORE_EKDB_FLAT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "core/ekdb_config.h"
#include "core/ekdb_tree.h"

namespace simjoin {

/// One node of the flat tree: 28 bytes, no pointers.  Children of a node are
/// the contiguous index range [children_begin, children_begin +
/// children_count) of the node array, sorted by stripe.  Every node owns the
/// contiguous arena range [arena_begin, arena_end) covering its subtree's
/// points, so subtree size is O(1).
struct FlatEkdbNode {
  uint32_t children_begin = 0;
  uint32_t children_count = 0;  ///< 0 means leaf
  uint32_t arena_begin = 0;
  uint32_t arena_end = 0;
  uint32_t stripe = 0;    ///< stripe index within the parent (root: 0)
  uint32_t depth = 0;
  uint32_t sort_dim = 0;  ///< leaves: dimension the arena range is sorted on

  bool is_leaf() const { return children_count == 0; }
  uint32_t subtree_points() const { return arena_end - arena_begin; }
};

/// One query of a multi-query RangeQueryBatch call: a point (dims floats,
/// borrowed) and its radius.  The pointed-to coordinates must stay alive
/// until the batch call returns.
struct RangeQuerySpec {
  const float* query = nullptr;
  double epsilon = 0.0;
};

/// The complete structural payload of a flat tree as plain arrays — what a
/// segment loader hands to FromStorage (owned) or what a builder assembles
/// off-line.  Index semantics are exactly FlatEkdbTree's internal layout:
/// BFS node array, per-node bbox planes, DFS-leaf-order arena of dims-major
/// leaf blocks.
struct FlatEkdbStorage {
  EkdbConfig config;
  std::vector<uint32_t> dim_order;
  size_t num_stripes = 1;
  double stripe_width = 1.0;
  std::vector<FlatEkdbNode> nodes;
  std::vector<float> bbox_lo;
  std::vector<float> bbox_hi;
  std::vector<float> arena;
  std::vector<PointId> arena_ids;
};

/// Borrowed form of the same payload: raw pointers into storage someone
/// else keeps alive (a memory-mapped segment).  See FlatEkdbTree::FromView.
struct FlatEkdbStorageView {
  EkdbConfig config;
  std::vector<uint32_t> dim_order;
  size_t num_stripes = 1;
  double stripe_width = 1.0;
  const FlatEkdbNode* nodes = nullptr;
  size_t num_nodes = 0;
  const float* bbox_lo = nullptr;
  const float* bbox_hi = nullptr;
  const float* arena = nullptr;
  const PointId* arena_ids = nullptr;
  size_t arena_count = 0;
};

/// Pointer-free eps-k-d-B tree over a dataset it does not own.  Immutable:
/// rebuild (or re-flatten an updated pointer tree) after Insert/Remove
/// batches.  The dataset must stay alive and unmodified for the lifetime of
/// this object.
///
/// Storage is view-backed: the query paths read raw array pointers that
/// either alias this object's own heap vectors (FromTree / FromStorage) or
/// point into an externally owned region such as a memory-mapped segment
/// file (FromView).  Both construction paths execute the *same* traversal
/// code, which is what makes mapped serving bit-identical to in-RAM serving
/// by construction rather than by test.
class FlatEkdbTree {
 public:
  /// Linearises a built pointer tree.  The flat tree joins against the same
  /// dataset the pointer tree was built over.  The arena copy writes each
  /// leaf straight into its dims-major block (one pass, no transpose
  /// afterwards).  With num_threads > 1 the arena copy and node-metadata
  /// fill run as chunked tasks on the shared work-stealing pool over
  /// precomputed subtree offsets (disjoint output ranges, so the result is
  /// identical to the sequential fill); num_threads == 0 uses hardware
  /// concurrency.
  static Result<FlatEkdbTree> FromTree(const EkdbTree& tree,
                                       size_t num_threads = 1);

  /// Convenience: EkdbTree::Load followed by FromTree (the pointer tree is
  /// discarded).
  static Result<FlatEkdbTree> Load(const Dataset& dataset,
                                   const std::string& path);

  /// Adopts fully assembled storage (segment loads, external builds).  The
  /// structure is validated (node/children/arena bounds, stripe and
  /// dimension sanity) so a corrupted segment fails here with a clear error
  /// instead of crashing a traversal.
  static Result<FlatEkdbTree> FromStorage(const Dataset& dataset,
                                          FlatEkdbStorage storage);

  /// Wraps externally owned storage without copying — the mmap serving
  /// path.  `keepalive` is retained for the tree's lifetime (typically the
  /// MappedSegment whose pages the view points into).  Validation is
  /// identical to FromStorage.
  static Result<FlatEkdbTree> FromView(const Dataset& dataset,
                                       const FlatEkdbStorageView& view,
                                       std::shared_ptr<const void> keepalive);

  // Views stay valid across moves (vector moves transfer their heap
  // buffers), but a copy would alias the source's storage — forbidden.
  FlatEkdbTree(FlatEkdbTree&&) = default;
  FlatEkdbTree& operator=(FlatEkdbTree&&) = default;
  FlatEkdbTree(const FlatEkdbTree&) = delete;
  FlatEkdbTree& operator=(const FlatEkdbTree&) = delete;

  // -- structure ----------------------------------------------------------

  uint32_t num_nodes() const { return static_cast<uint32_t>(num_nodes_); }
  const FlatEkdbNode& node(uint32_t idx) const { return nodes_[idx]; }
  const FlatEkdbNode* nodes_data() const { return nodes_; }
  static constexpr uint32_t kRoot = 0;

  /// Per-node bounding-box planes (dims floats each).
  const float* bbox_lo(uint32_t idx) const {
    return bbox_lo_ + static_cast<size_t>(idx) * dims_;
  }
  const float* bbox_hi(uint32_t idx) const {
    return bbox_hi_ + static_cast<size_t>(idx) * dims_;
  }

  // -- arena --------------------------------------------------------------

  /// Number of points in the arena (== points indexed by the tree).
  uint32_t arena_size() const { return static_cast<uint32_t>(arena_count_); }
  /// A leaf's dims-major block, the arena floats [arena_begin * dims,
  /// arena_end * dims): coordinate k of the leaf's row r (arena position
  /// arena_begin + r) sits at leaf_columns(leaf)[k * leaf.subtree_points()
  /// + r].  Rows keep sweep order, so every column — the sort_dim column
  /// included — is in the leaf's row order.
  const float* leaf_columns(const FlatEkdbNode& leaf) const {
    return arena_ + static_cast<size_t>(leaf.arena_begin) * dims_;
  }
  /// The whole arena: the leaf blocks back to back in DFS leaf order.
  const float* arena_data() const { return arena_; }
  /// Original dataset id of arena position pos (the emit-time remap).
  PointId arena_id(uint32_t pos) const { return arena_ids_[pos]; }
  const PointId* arena_ids_data() const { return arena_ids_; }

  /// True when the arrays alias externally owned storage (FromView).
  bool view_backed() const { return keepalive_ != nullptr; }

  // -- configuration ------------------------------------------------------

  const Dataset& dataset() const { return *dataset_; }
  const EkdbConfig& config() const { return config_; }
  size_t dims() const { return dims_; }
  const std::vector<uint32_t>& dim_order() const { return dim_order_; }
  size_t num_stripes() const { return num_stripes_; }
  double stripe_width() const { return stripe_width_; }

  /// Global stripe index of a coordinate value in [0, 1]; identical to
  /// EkdbTree::StripeIndex for equal epsilon.
  uint32_t StripeIndex(float value) const;

  /// True iff the two flat trees were built with join-compatible
  /// configurations (same epsilon grid, metric, dimensionality, dim order).
  static bool JoinCompatible(const FlatEkdbTree& a, const FlatEkdbTree& b);

  // -- queries ------------------------------------------------------------

  /// Collects the ids of all indexed points within eps_query of the query
  /// point (eps_query in (0, config().epsilon]).  Same id set as
  /// EkdbTree::RangeQuery; leaf windows run through the column batch kernel
  /// and are tallied into stats (simd_batches etc.) when provided.
  Status RangeQuery(const float* query, double eps_query,
                    std::vector<PointId>* out,
                    JoinStats* stats = nullptr) const;

  /// Checks a query radius against the built epsilon without running the
  /// query — exactly the validation RangeQuery performs, factored out so
  /// batch schedulers can reject a bad request up front with the identical
  /// error and keep the rest of the batch alive.
  Status ValidateQueryEpsilon(double eps_query) const;

  /// Multi-query entry point: answers `count` range queries in one arena
  /// pass.  Every query is planned against the tree (identical traversal to
  /// RangeQuery), the surviving leaf windows of all queries are sorted by
  /// arena position, and the arena is swept once front to back with a single
  /// column batch kernel.  (*results)[i] receives exactly the ids — in
  /// exactly the order — that RangeQuery(specs[i]) would have produced, and
  /// (*stats)[i], when stats is non-null, receives exactly the JoinStats
  /// delta that query alone would have recorded; both are resized to `count`
  /// and overwritten.  Any invalid spec epsilon fails the whole batch up
  /// front (use ValidateQueryEpsilon to pre-screen when per-query error
  /// isolation is needed).  Runs on the calling thread only, so results do
  /// not depend on any pool configuration.
  Status RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                         std::vector<std::vector<PointId>>* results,
                         std::vector<JoinStats>* stats = nullptr) const;

  // -- memory accounting --------------------------------------------------

  /// Bytes of the node array plus the bbox planes.  View-backed trees own
  /// no heap arrays (the pages belong to the mapping), so these report the
  /// *logical* structure size either way; heap accounting belongs to the
  /// owner of the storage.
  uint64_t node_bytes() const {
    return static_cast<uint64_t>(num_nodes_) * sizeof(FlatEkdbNode) +
           static_cast<uint64_t>(num_nodes_) * 2 * dims_ * sizeof(float);
  }
  /// Bytes of the coordinate arena plus the id remap.
  uint64_t arena_bytes() const {
    return static_cast<uint64_t>(arena_count_) * dims_ * sizeof(float) +
           static_cast<uint64_t>(arena_count_) * sizeof(PointId);
  }
  uint64_t total_bytes() const { return node_bytes() + arena_bytes(); }

  /// Fills the flat-representation fields of an EkdbTreeStats (the pointer
  /// fields are ComputeStats()'s job), so the R8 memory experiment reports
  /// both forms side by side.
  void FillStats(EkdbTreeStats* stats) const;

 private:
  FlatEkdbTree() = default;

  /// Points the query-path views at the owned vectors (after any fill or
  /// adoption of FlatEkdbStorage).
  void BindOwnedStorage();

  /// Bounds/sanity validation shared by FromStorage and FromView: every
  /// node's children range and arena range must lie inside the arrays, the
  /// root must cover the whole arena, and the grid parameters must be
  /// coherent.  Returns a descriptive error for corrupted input.
  static Status ValidateStructure(const FlatEkdbStorageView& view,
                                  size_t dataset_size, size_t dataset_dims);

  const Dataset* dataset_ = nullptr;
  EkdbConfig config_;
  std::vector<uint32_t> dim_order_;
  size_t num_stripes_ = 1;
  double stripe_width_ = 1.0;
  size_t dims_ = 0;

  // Owned storage; empty for view-backed trees.
  std::vector<FlatEkdbNode> owned_nodes_;
  std::vector<float> owned_bbox_lo_;
  std::vector<float> owned_bbox_hi_;
  std::vector<float> owned_arena_;
  std::vector<PointId> owned_arena_ids_;

  // The views every query path reads — into the owned vectors or into an
  // externally owned mapping held alive by keepalive_.
  const FlatEkdbNode* nodes_ = nullptr;
  size_t num_nodes_ = 0;
  const float* bbox_lo_ = nullptr;
  const float* bbox_hi_ = nullptr;
  const float* arena_ = nullptr;
  const PointId* arena_ids_ = nullptr;
  size_t arena_count_ = 0;
  std::shared_ptr<const void> keepalive_;
};

}  // namespace simjoin

#endif  // SIMJOIN_CORE_EKDB_FLAT_H_
