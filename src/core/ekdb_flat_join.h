// Similarity-join traversals over flat (pointer-free) eps-k-d-B trees.
//
// Same contracts as ekdb_join.h — FlatEkdbSelfJoin reports every unordered
// within-epsilon pair exactly once in (min, max) order, FlatEkdbJoin reports
// (a, b) pairs across two join-compatible trees — but the traversal walks
// the contiguous node array and the leaf sweeps feed the dims-major leaf
// blocks straight into the candidate-parallel column kernel: a sliding
// window over a leaf sorted on its sort dimension is one contiguous run of
// each column, scored one candidate per SIMD lane, so the hot loop performs
// no per-candidate gather at all.  Emitted pair sets are bit-identical to
// the pointer-tree joins for every metric (the window bounds are
// conservative and the batch kernel's accept decision is exact).

#ifndef SIMJOIN_CORE_EKDB_FLAT_JOIN_H_
#define SIMJOIN_CORE_EKDB_FLAT_JOIN_H_

#include <vector>

#include "common/pair_sink.h"
#include "common/simd_kernel.h"
#include "common/status.h"
#include "core/ekdb_flat.h"

namespace simjoin {

/// Self-join of the flat tree's dataset.  Pairs are emitted in canonical
/// (smaller id, larger id) order, each exactly once — the same pair set as
/// EkdbSelfJoin on the tree the flat form was built from.
Status FlatEkdbSelfJoin(const FlatEkdbTree& tree, PairSink* sink,
                        JoinStats* stats = nullptr);

/// Join between two datasets indexed by join-compatible flat trees.  Pairs
/// are (id in a, id in b); the same pair set as EkdbJoin.
Status FlatEkdbJoin(const FlatEkdbTree& a, const FlatEkdbTree& b,
                    PairSink* sink, JoinStats* stats = nullptr);

/// Self-join at a smaller radius than the trees were built for; eps_query
/// must be in (0, config().epsilon].
Status FlatEkdbSelfJoinWithEpsilon(const FlatEkdbTree& tree, double eps_query,
                                   PairSink* sink, JoinStats* stats = nullptr);

/// Two-tree join at a smaller radius (same constraint as above).
Status FlatEkdbJoinWithEpsilon(const FlatEkdbTree& a, const FlatEkdbTree& b,
                               double eps_query, PairSink* sink,
                               JoinStats* stats = nullptr);

namespace internal {

/// Join engine over flat trees, shared by the sequential entry points above
/// and the parallel driver (parallel_join.cc), which drives single node
/// index pairs as tasks.
class FlatEkdbJoinContext {
 public:
  /// Self-join context over one flat tree.
  explicit FlatEkdbJoinContext(const FlatEkdbTree& tree, PairSink* sink);

  /// Two-tree context; trees must be join-compatible (checked by callers).
  FlatEkdbJoinContext(const FlatEkdbTree& a, const FlatEkdbTree& b,
                      PairSink* sink);

  /// Narrows the join radius below the build epsilon (callers must have
  /// validated 0 < eps <= build epsilon).
  void OverrideEpsilon(double eps) {
    epsilon_ = eps;
    batch_.SetEpsilon(eps);
  }

  /// Joins a subtree with itself (self-join contexts only).
  void SelfJoinNode(uint32_t node_idx);

  /// Joins two distinct subtrees (a from tree A / the left side, b from
  /// tree B / the right side).
  void JoinNodes(uint32_t a_idx, uint32_t b_idx);

  /// Pushes buffered result pairs through to the sink.  Must be called after
  /// the last SelfJoinNode/JoinNodes call and before results are consumed.
  void Flush() { buffered_.Flush(); }

  /// Work counters, including the batch kernel's SIMD/fallback tallies.
  JoinStats stats() const {
    JoinStats s = stats_;
    s.simd_batches = batch_.simd_batches();
    s.scalar_fallbacks = batch_.scalar_fallbacks();
    return s;
  }

 private:
  void LeafSelfJoin(const FlatEkdbNode& leaf);
  void LeafCrossJoin(const FlatEkdbNode& a, const FlatEkdbNode& b);

  const FlatEkdbTree& a_tree_;
  const FlatEkdbTree& b_tree_;
  size_t dims_;
  double epsilon_;
  bool bbox_pruning_;
  bool sliding_window_;
  bool self_mode_;
  BatchDistanceKernel batch_;
  BufferedSink buffered_;
  JoinStats stats_;
  std::vector<float> query_row_;  ///< query row gathered from leaf columns
};

}  // namespace internal

}  // namespace simjoin

#endif  // SIMJOIN_CORE_EKDB_FLAT_JOIN_H_
