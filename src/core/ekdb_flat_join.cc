#include "core/ekdb_flat_join.h"

#include <algorithm>

#include "common/logging.h"
#include "core/ekdb_flat_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simjoin {
namespace internal {

FlatEkdbJoinContext::FlatEkdbJoinContext(const FlatEkdbTree& tree,
                                         PairSink* sink)
    : a_tree_(tree),
      b_tree_(tree),
      dims_(tree.dims()),
      epsilon_(tree.config().epsilon),
      bbox_pruning_(tree.config().bbox_pruning),
      sliding_window_(tree.config().sliding_window_leaf_join),
      self_mode_(true),
      batch_(tree.config().metric, tree.dims(), tree.config().epsilon),
      buffered_(sink) {}

FlatEkdbJoinContext::FlatEkdbJoinContext(const FlatEkdbTree& a,
                                         const FlatEkdbTree& b,
                                         PairSink* sink)
    : a_tree_(a),
      b_tree_(b),
      dims_(a.dims()),
      epsilon_(a.config().epsilon),
      bbox_pruning_(a.config().bbox_pruning && b.config().bbox_pruning),
      sliding_window_(a.config().sliding_window_leaf_join &&
                      b.config().sliding_window_leaf_join),
      self_mode_(false),
      batch_(a.config().metric, a.dims(), a.config().epsilon),
      buffered_(sink) {}

// Both leaf joins walk the query leaf kTileRows rows at a time and score
// each tile straight from the leaf's columns.  A candidate leaf that fits
// one column run is scored whole: a sort-column search could not save a
// kernel call there.  Wider leaves keep the sliding window at tile
// granularity, scoring the union of the tile rows' windows.  Each row
// emits its survivors in ascending candidate order, so the pair sequence
// is the one a per-row window walk gives: the window is conservative, and
// candidates outside a row's own window fail the exact test anyway.

void FlatEkdbJoinContext::LeafSelfJoin(const FlatEkdbNode& leaf) {
  SIMJOIN_TRACE_SPAN("join.simd_filter");
  constexpr uint32_t kRows = BatchDistanceKernel::kTileRows;
  const uint32_t size = leaf.subtree_points();
  const float* cols = a_tree_.leaf_columns(leaf);
  const PointId* ids = a_tree_.arena_ids_data() + leaf.arena_begin;
  const float* key = cols + static_cast<size_t>(leaf.sort_dim) * size;
  const bool window =
      sliding_window_ && size > BatchDistanceKernel::kColumnRunCapacity;
  for (uint32_t i = 0; i < size; i += kRows) {
    const uint32_t rows = std::min(kRows, size - i);
    // Every partner of row i+j comes after it, so the tile's candidates
    // start at row i+1; with the window they end where the last row's
    // window ends (the leaf is sorted on sort_dim, so window ends ascend).
    uint32_t end = size;
    if (window) {
      end = flat_internal::SelfWindowEnd(
          key, i + rows, size, static_cast<double>(key[i + rows - 1]),
          epsilon_);
    }
    if (end <= i + 1) continue;
    FilterColumnTileAndEmit(batch_, run_masks_, ids + i, cols + i, size,
                            rows, cols + i + 1, size, ids + i + 1,
                            end - (i + 1), /*triangular=*/true,
                            /*canonical_order=*/true, buffered_, stats_);
  }
}

void FlatEkdbJoinContext::LeafCrossJoin(const FlatEkdbNode& a,
                                        const FlatEkdbNode& b) {
  SIMJOIN_TRACE_SPAN("join.simd_filter");
  constexpr uint32_t kRows = BatchDistanceKernel::kTileRows;
  const uint32_t a_size = a.subtree_points();
  const uint32_t b_size = b.subtree_points();
  if (b_size == 0) return;
  const float* a_cols = a_tree_.leaf_columns(a);
  const float* b_cols = b_tree_.leaf_columns(b);
  const PointId* a_ids = a_tree_.arena_ids_data() + a.arena_begin;
  const PointId* b_ids = b_tree_.arena_ids_data() + b.arena_begin;
  if (!sliding_window_ || b_size <= BatchDistanceKernel::kColumnRunCapacity) {
    for (uint32_t i = 0; i < a_size; i += kRows) {
      FilterColumnTileAndEmit(batch_, run_masks_, a_ids + i, a_cols + i,
                              a_size, std::min(kRows, a_size - i), b_cols,
                              b_size, b_ids, b_size, /*triangular=*/false,
                              self_mode_, buffered_, stats_);
    }
    return;
  }
  // Window on the candidate side's sort dimension, so the window is always
  // a contiguous run of b's rows: the union of the tile rows' windows is
  // found with two searches.  When the query side is sorted on the same
  // dimension its first and last rows bound the tile's keys; otherwise
  // (leaves at different depths) the tile's keys are scanned for them.
  const uint32_t dim = b.sort_dim;
  const bool same_dim = a.sort_dim == b.sort_dim;
  const float* a_key = a_cols + static_cast<size_t>(dim) * a_size;
  const float* b_key = b_cols + static_cast<size_t>(dim) * b_size;
  for (uint32_t i = 0; i < a_size; i += kRows) {
    const uint32_t rows = std::min(kRows, a_size - i);
    float key_lo = a_key[i];
    float key_hi = a_key[i + rows - 1];
    if (!same_dim) {
      const auto [lo_it, hi_it] =
          std::minmax_element(a_key + i, a_key + i + rows);
      key_lo = *lo_it;
      key_hi = *hi_it;
    }
    const uint32_t wb = flat_internal::LowerBoundRow(
        b_key, 0, b_size, static_cast<double>(key_lo) - epsilon_);
    const uint32_t we = flat_internal::UpperBoundRow(
        b_key, wb, b_size, static_cast<double>(key_hi) + epsilon_);
    if (we <= wb) continue;
    FilterColumnTileAndEmit(batch_, run_masks_, a_ids + i, a_cols + i, a_size,
                            rows, b_cols + wb, b_size, b_ids + wb, we - wb,
                            /*triangular=*/false, self_mode_, buffered_,
                            stats_);
  }
}

void FlatEkdbJoinContext::SelfJoinNode(uint32_t node_idx) {
  SIMJOIN_CHECK(self_mode_) << "SelfJoinNode on a two-tree context";
  const FlatEkdbNode& node = a_tree_.node(node_idx);
  if (node.is_leaf()) {
    LeafSelfJoin(node);
    return;
  }
  const uint32_t cb = node.children_begin;
  const uint32_t ce = cb + node.children_count;
  for (uint32_t c = cb; c < ce; ++c) {
    SelfJoinNode(c);
    // Only the immediately adjacent stripe can hold joining partners.
    if (c + 1 < ce &&
        a_tree_.node(c + 1).stripe == a_tree_.node(c).stripe + 1) {
      JoinNodes(c, c + 1);
    }
  }
}

void FlatEkdbJoinContext::JoinNodes(uint32_t a_idx, uint32_t b_idx) {
  ++stats_.node_pairs_visited;
  const FlatEkdbNode& a = a_tree_.node(a_idx);
  const FlatEkdbNode& b = b_tree_.node(b_idx);
  if (bbox_pruning_ &&
      BoxMinDistance(a_tree_.bbox_lo(a_idx), a_tree_.bbox_hi(a_idx),
                     b_tree_.bbox_lo(b_idx), b_tree_.bbox_hi(b_idx), dims_,
                     batch_.metric()) > epsilon_) {
    ++stats_.node_pairs_pruned;
    return;
  }
  if (a.is_leaf() && b.is_leaf()) {
    LeafCrossJoin(a, b);
    return;
  }
  if (a.is_leaf()) {
    const uint32_t end = b.children_begin + b.children_count;
    for (uint32_t c = b.children_begin; c < end; ++c) JoinNodes(a_idx, c);
    return;
  }
  if (b.is_leaf()) {
    const uint32_t end = a.children_begin + a.children_count;
    for (uint32_t c = a.children_begin; c < end; ++c) JoinNodes(c, b_idx);
    return;
  }
  // Both internal: same depth, same split dimension, shared global stripe
  // grid — pair children whose stripe indices differ by at most one.
  const uint32_t ae = a.children_begin + a.children_count;
  const uint32_t be = b.children_begin + b.children_count;
  uint32_t j_lo = b.children_begin;
  for (uint32_t ci = a.children_begin; ci < ae; ++ci) {
    const uint32_t sa = a_tree_.node(ci).stripe;
    const uint32_t lo = sa == 0 ? 0 : sa - 1;
    while (j_lo < be && b_tree_.node(j_lo).stripe < lo) ++j_lo;
    for (uint32_t cj = j_lo; cj < be && b_tree_.node(cj).stripe <= sa + 1;
         ++cj) {
      JoinNodes(ci, cj);
    }
  }
}

}  // namespace internal

namespace {

Status ValidateEpsilonOverride(double eps_query, double build_epsilon) {
  if (!(eps_query > 0.0) || eps_query > build_epsilon) {
    return Status::InvalidArgument(
        "eps_query must be in (0, built epsilon]; the stripe grid only "
        "supports radii up to the build epsilon");
  }
  return Status::OK();
}

/// Phase timing shared by the sequential flat drivers: traversal covers the
/// tree walk including the SIMD filter; emit covers the final sink flush.
/// Instrumentation never touches JoinStats or the pair sequence, so
/// sequential/parallel outputs stay bit-identical.
obs::Histogram* TraversalHistogram() {
  static obs::Histogram* const hist =
      obs::GlobalMetrics().GetHistogram("join.phase.traversal_us");
  return hist;
}

}  // namespace

Status FlatEkdbSelfJoin(const FlatEkdbTree& tree, PairSink* sink,
                        JoinStats* stats) {
  if (sink == nullptr) return Status::InvalidArgument("sink must not be null");
  internal::FlatEkdbJoinContext ctx(tree, sink);
  {
    SIMJOIN_TRACE_SPAN("join.traversal");
    obs::ScopedLatencyTimer timer(TraversalHistogram());
    ctx.SelfJoinNode(FlatEkdbTree::kRoot);
  }
  {
    SIMJOIN_TRACE_SPAN("join.emit");
    ctx.Flush();
  }
  if (stats != nullptr) stats->Merge(ctx.stats());
  return Status::OK();
}

Status FlatEkdbJoin(const FlatEkdbTree& a, const FlatEkdbTree& b,
                    PairSink* sink, JoinStats* stats) {
  if (sink == nullptr) return Status::InvalidArgument("sink must not be null");
  if (!FlatEkdbTree::JoinCompatible(a, b)) {
    return Status::InvalidArgument(
        "trees are not join-compatible (epsilon, metric, dims, and dim order "
        "must match)");
  }
  internal::FlatEkdbJoinContext ctx(a, b, sink);
  {
    SIMJOIN_TRACE_SPAN("join.traversal");
    obs::ScopedLatencyTimer timer(TraversalHistogram());
    ctx.JoinNodes(FlatEkdbTree::kRoot, FlatEkdbTree::kRoot);
  }
  {
    SIMJOIN_TRACE_SPAN("join.emit");
    ctx.Flush();
  }
  if (stats != nullptr) stats->Merge(ctx.stats());
  return Status::OK();
}

Status FlatEkdbSelfJoinWithEpsilon(const FlatEkdbTree& tree, double eps_query,
                                   PairSink* sink, JoinStats* stats) {
  if (sink == nullptr) return Status::InvalidArgument("sink must not be null");
  SIMJOIN_RETURN_NOT_OK(
      ValidateEpsilonOverride(eps_query, tree.config().epsilon));
  internal::FlatEkdbJoinContext ctx(tree, sink);
  ctx.OverrideEpsilon(eps_query);
  {
    SIMJOIN_TRACE_SPAN("join.traversal");
    obs::ScopedLatencyTimer timer(TraversalHistogram());
    ctx.SelfJoinNode(FlatEkdbTree::kRoot);
  }
  {
    SIMJOIN_TRACE_SPAN("join.emit");
    ctx.Flush();
  }
  if (stats != nullptr) stats->Merge(ctx.stats());
  return Status::OK();
}

Status FlatEkdbJoinWithEpsilon(const FlatEkdbTree& a, const FlatEkdbTree& b,
                               double eps_query, PairSink* sink,
                               JoinStats* stats) {
  if (sink == nullptr) return Status::InvalidArgument("sink must not be null");
  if (!FlatEkdbTree::JoinCompatible(a, b)) {
    return Status::InvalidArgument(
        "trees are not join-compatible (epsilon, metric, dims, and dim order "
        "must match)");
  }
  SIMJOIN_RETURN_NOT_OK(ValidateEpsilonOverride(eps_query, a.config().epsilon));
  internal::FlatEkdbJoinContext ctx(a, b, sink);
  ctx.OverrideEpsilon(eps_query);
  {
    SIMJOIN_TRACE_SPAN("join.traversal");
    obs::ScopedLatencyTimer timer(TraversalHistogram());
    ctx.JoinNodes(FlatEkdbTree::kRoot, FlatEkdbTree::kRoot);
  }
  {
    SIMJOIN_TRACE_SPAN("join.emit");
    ctx.Flush();
  }
  if (stats != nullptr) stats->Merge(ctx.stats());
  return Status::OK();
}

}  // namespace simjoin
