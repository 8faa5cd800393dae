// Epsilon-grid index: the dense low-dimensional fast path.
//
// The GPU self-join literature (PAPERS.md) indexes with a uniform grid of
// epsilon-width cells instead of a tree: a range query only ever has to scan
// the query's cell and its immediate neighbours, and a cell's points are
// contiguous, so the whole query is a handful of strided streaming sweeps
// with no traversal logic at all.  That layout wins when the data is dense
// and the binned dimensionality is low (few neighbour cells, well-filled
// cells) and loses badly in high dimensions (3^d neighbour cells, mostly
// empty) — which is why it is a per-index *backend choice* next to the
// eps-k-d-B tree, not a replacement.
//
// The grid bins on the first few dimensions of the configured dim order
// (at most kMaxBinnedDims, further capped so the cell table stays small) at
// the same stripe width the tree uses, and stores points cell-major in a
// row-major coordinate arena — the same shape FlatEkdbTree's leaf arena has,
// scanned by the same strided batch-kernel tiles, with the same exactness
// guarantees.  Queries support any radius in (0, build epsilon], mirroring
// the tree's contract.

#ifndef SIMJOIN_CORE_EPSILON_GRID_H_
#define SIMJOIN_CORE_EPSILON_GRID_H_

#include <cstdint>
#include <vector>

#include "common/dataset.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "core/ekdb_config.h"
#include "core/ekdb_flat.h"

namespace simjoin {

/// Uniform-grid index over a dataset it does not own.  Immutable after
/// Build; the dataset must stay alive and unmodified for the lifetime of
/// this object.
class EpsilonGrid {
 public:
  /// Hard cap on binned dimensions: 3 keeps the neighbour-cell fan-out at
  /// most 27 and is where the GPU-paper grids stop too.
  static constexpr size_t kMaxBinnedDims = 3;
  /// Cap on the cell table size; binned dims are dropped (highest first)
  /// until stripes^binned_dims fits.
  static constexpr size_t kMaxCells = size_t{1} << 20;

  /// Builds the grid: one counting-sort pass over the dataset.  Fails if the
  /// config is invalid for the dataset (same checks as the tree build).
  static Result<EpsilonGrid> Build(const Dataset& dataset,
                                   const EkdbConfig& config);

  // -- structure -----------------------------------------------------------

  uint32_t num_points() const { return static_cast<uint32_t>(ids_.size()); }
  size_t dims() const { return dims_; }
  const EkdbConfig& config() const { return config_; }
  const Dataset& dataset() const { return *dataset_; }
  /// Dimensions the grid bins on (a prefix of the configured dim order).
  const std::vector<uint32_t>& binned_dims() const { return binned_dims_; }
  size_t num_cells() const { return cell_start_.size() - 1; }

  // -- queries -------------------------------------------------------------

  /// Same contract and validation as FlatEkdbTree::RangeQuery: collects the
  /// ids of all points within eps_query (in (0, build epsilon]) of the query
  /// point, in a deterministic order (neighbour cells ascending, dataset
  /// order within a cell), tallying stats when provided.
  Status RangeQuery(const float* query, double eps_query,
                    std::vector<PointId>* out,
                    JoinStats* stats = nullptr) const;

  /// Same contract as FlatEkdbTree::ValidateQueryEpsilon.
  Status ValidateQueryEpsilon(double eps_query) const;

  /// Multi-query entry point with the same plan / sorted-sweep / scatter
  /// structure — and the same bit-identity guarantee versus single
  /// RangeQuery calls — as FlatEkdbTree::RangeQueryBatch.
  Status RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                         std::vector<std::vector<PointId>>* results,
                         std::vector<JoinStats>* stats = nullptr) const;

  // -- memory accounting ---------------------------------------------------

  uint64_t total_bytes() const {
    return static_cast<uint64_t>(arena_.capacity()) * sizeof(float) +
           static_cast<uint64_t>(ids_.capacity()) * sizeof(PointId) +
           static_cast<uint64_t>(cell_start_.capacity()) * sizeof(uint32_t);
  }

 private:
  EpsilonGrid() = default;

  /// Cell index of a point (by its binned coordinates); lexicographic over
  /// binned_dims_.
  size_t CellOf(const float* row) const;
  /// Stripe index of one coordinate, clamped to [0, stripes_per_dim_ - 1].
  uint32_t StripeIndex(float value) const;

  /// Appends every neighbour-cell arena window for a query (ascending cell
  /// order) to *windows as (begin, end) pairs; shared by the solo and batch
  /// paths so their window order is identical by construction.
  void CollectWindows(
      const float* query,
      std::vector<std::pair<uint32_t, uint32_t>>* windows) const;

  const Dataset* dataset_ = nullptr;
  EkdbConfig config_;
  size_t dims_ = 0;
  std::vector<uint32_t> binned_dims_;
  size_t stripes_per_dim_ = 1;
  double stripe_width_ = 1.0;

  std::vector<uint32_t> cell_start_;  ///< num_cells + 1 prefix offsets
  std::vector<float> arena_;          ///< cell-major row-major coordinates
  std::vector<PointId> ids_;          ///< arena position -> dataset id
};

}  // namespace simjoin

#endif  // SIMJOIN_CORE_EPSILON_GRID_H_
