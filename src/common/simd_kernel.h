// Batched one-vs-many epsilon filters — the vectorized inner layer every
// join hot path is built on.
//
// The scalar DistanceKernel tests one candidate at a time, widening each
// float coordinate to double.  The BatchDistanceKernel here filters many
// candidates against one query point in a single call, using float
// accumulation (unrolled portable loop, AVX2+FMA, or AVX-512 — the widest
// tier the CPU supports is picked at runtime) compared against the
// threshold in float space.  Two layouts are served:
//
//  * row-major tiles (gathered row pointers or a fixed stride): each vector
//    holds dims of one candidate and is summed across lanes;
//  * dims-major column runs (the flat tree's leaf blocks): each vector
//    lane holds one candidate, 16 (AVX-512) or 8 (AVX2) candidates are
//    scored in lockstep, and the survivors come back as a bitmask.
//
// Exactness is preserved by a rescue band: a candidate whose float score
// lands within the accumulated rounding-error margin of the threshold is
// re-tested with the exact double-precision scalar kernel, so the surviving
// pair set is bit-identical to DistanceKernel::WithinEpsilon for every
// input — on every dispatch tier and layout, which is what lets callers mix
// hosts and paths freely.  See docs/kernels.md for the margin derivation.
//
// Set SIMJOIN_FORCE_SCALAR=1 in the environment to route every test through
// the scalar reference kernel, or SIMJOIN_KERNEL_PATH=scalar|portable|avx2|
// avx512 to pin a specific tier (for debugging and differential testing).

#ifndef SIMJOIN_COMMON_SIMD_KERNEL_H_
#define SIMJOIN_COMMON_SIMD_KERNEL_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/metric.h"
#include "common/pair_sink.h"

namespace simjoin {

/// Which filter implementation a BatchDistanceKernel uses.
enum class KernelPath {
  kAuto,      ///< env override, then the best the CPU supports
  kScalar,    ///< per-candidate exact DistanceKernel reference
  kPortable,  ///< unrolled float loop (compiler auto-vectorization)
  kAvx2,      ///< 8-wide AVX2+FMA float loop (falls back if unsupported)
  kAvx512,    ///< 16-wide AVX-512F float loop (falls back if unsupported)
};

/// One-vs-many epsilon filter bound to (metric, dims, eps).
///
/// Stateful only in its work counters, so each join context owns one and
/// folds the counters into its JoinStats when done.
class BatchDistanceKernel {
 public:
  /// Tile width the join hot loops gather candidates into.  32 keeps the
  /// id/pointer/mask arrays inside one cache line each while amortising the
  /// dispatch and mask-compaction overhead over enough distance tests.
  static constexpr size_t kTileCapacity = 32;

  BatchDistanceKernel(Metric metric, size_t dims, double eps,
                      KernelPath preferred = KernelPath::kAuto);

  /// Sets out_mask[i] = 1 iff dist(query, rows[i]) <= eps (0 otherwise) for
  /// i in [0, count).  Returns the number of surviving candidates.  The
  /// result is bit-identical to calling the scalar WithinEpsilon per row.
  size_t FilterWithinEpsilon(const float* query, const float* const* rows,
                             size_t count, uint8_t* out_mask);

  /// Same filter for candidates laid out at a fixed stride: candidate i is
  /// the row at base + i * stride (stride in floats; stride == dims for a
  /// densely packed arena).  The tile is read with straight streaming loads
  /// — no per-candidate pointer gather — and the scoring arithmetic is the
  /// exact code the gathered path runs, so the mask is bit-identical to
  /// FilterWithinEpsilon over the same rows.  If prefetch is non-null the
  /// first cache lines at that address (typically the next tile,
  /// base + count * stride) are software-prefetched before scoring.
  size_t FilterWithinEpsilonStrided(const float* query, const float* base,
                                    size_t stride, size_t count,
                                    uint8_t* out_mask,
                                    const float* prefetch = nullptr);

  /// Most candidates one FilterWithinEpsilonColumns call scores: one bit
  /// each in the returned mask.
  static constexpr size_t kColumnRunCapacity = 64;

  /// Candidate-parallel filter over dims-major storage: coordinate k of
  /// candidate i is cols[k * col_stride + i], for i in [0, count) and
  /// count <= kColumnRunCapacity.  Bit i of the result is set iff
  /// dist(query, candidate i) <= eps — bit-identical to the scalar
  /// WithinEpsilon per candidate.  Each column is read only at
  /// [k * col_stride, k * col_stride + count): vector tails use masked
  /// loads, so a run may end exactly at the end of a mapping.
  uint64_t FilterWithinEpsilonColumns(const float* query, const float* cols,
                                      size_t col_stride, size_t count);

  /// Counts candidates within eps without producing a mask.
  size_t CountWithinEpsilon(const float* query, const float* const* rows,
                            size_t count);

  /// Narrows the threshold (the eps-k-d-B query-epsilon override path).
  void SetEpsilon(double eps);

  Metric metric() const { return scalar_.metric(); }
  size_t dims() const { return dims_; }
  double epsilon() const { return eps_; }
  /// Path actually selected after CPU detection and env overrides.
  KernelPath path() const { return path_; }

  /// Batch filter invocations that ran on a vector path.
  uint64_t simd_batches() const { return simd_batches_; }
  /// Candidates decided by the exact scalar kernel: boundary-band rescues
  /// plus every test made while the scalar path is forced.
  uint64_t scalar_fallbacks() const { return scalar_fallbacks_; }

  /// True when the CPU reports AVX2 support at runtime.
  static bool CpuHasAvx2();
  /// True when the CPU reports AVX-512F support at runtime.
  static bool CpuHasAvx512();
  /// True when SIMJOIN_FORCE_SCALAR=1 is set in the environment.
  static bool ForceScalarEnv();
  /// Path requested by SIMJOIN_KERNEL_PATH (scalar | portable | avx2 |
  /// avx512), or kAuto when unset/unrecognised.  Consulted only when a
  /// kernel is constructed with KernelPath::kAuto; an explicit constructor
  /// argument always wins.  Requests the CPU cannot honour degrade exactly
  /// like an explicit constructor request (avx512 -> avx2 -> portable).
  static KernelPath EnvKernelPath();

 private:
  // The filter stages are templated over a row accessor (gathered pointer
  // array vs contiguous base + stride), so both public entry points run the
  // same scoring arithmetic and stay bit-identical by construction.  The
  // templates are defined and instantiated in simd_kernel.cc only.
  template <typename Rows>
  size_t FilterScalarT(const float* query, Rows rows, size_t count,
                       uint8_t* out_mask);
  template <typename Rows>
  size_t FilterPortableT(const float* query, Rows rows, size_t count,
                         uint8_t* out_mask);
  template <typename Rows>
  size_t FilterAvx2T(const float* query, Rows rows, size_t count,
                     uint8_t* out_mask);
  template <typename Rows>
  size_t FilterAvx512T(const float* query, Rows rows, size_t count,
                       uint8_t* out_mask);
  template <typename Rows>
  size_t FilterDispatch(const float* query, Rows rows, size_t count,
                        uint8_t* out_mask);
  /// Resolves one candidate whose float score fell inside the rescue band.
  bool Rescue(const float* query, const float* row);
  /// Rescue for candidate i of a dims-major run: gathers its row first.
  bool RescueColumn(const float* query, const float* cols, size_t col_stride,
                    size_t i);

  /// Scores a column run (count <= kColumnRunCapacity) in float and reports
  /// two lane masks: score <= threshold, and score inside the rescue band.
  using ColumnScorer = void (*)(const float* query, const float* cols,
                                size_t col_stride, size_t count, size_t dims,
                                float threshold, float margin,
                                uint64_t* below, uint64_t* band);

  DistanceKernel scalar_;
  size_t dims_;
  double eps_;
  float threshold_;  ///< eps in float space (eps^2 for L2)
  float margin_;     ///< half-width of the rescue band around threshold_
  KernelPath path_;
  ColumnScorer column_scorer_ = nullptr;  ///< null on the scalar path
  std::vector<float> gathered_row_;  ///< RescueColumn scratch, grown lazily
  uint64_t simd_batches_ = 0;
  uint64_t scalar_fallbacks_ = 0;
};

/// Fixed-capacity gather buffer for the leaf-join hot loops: candidate row
/// pointers and ids accumulated until full, then filtered with one
/// batch-kernel call.
class CandidateTile {
 public:
  static constexpr size_t kCapacity = BatchDistanceKernel::kTileCapacity;

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }
  bool full() const { return count_ == kCapacity; }

  void Add(PointId id, const float* row) {
    ids_[count_] = id;
    rows_[count_] = row;
    ++count_;
  }
  void Clear() { count_ = 0; }

  const PointId* ids() const { return ids_; }
  const float* const* rows() const { return rows_; }

 private:
  PointId ids_[kCapacity];
  const float* rows_[kCapacity];
  size_t count_ = 0;
};

/// Filters the tile against one query point, emits the survivors to the sink
/// as one EmitBatch, updates candidate/distance/emitted counters, and clears
/// the tile.  With canonical_order set (self-joins) each pair is emitted as
/// (min id, max id); otherwise as (query_id, candidate_id).  Returns the
/// number of pairs emitted.
size_t FilterTileAndEmit(BatchDistanceKernel& kernel, PointId query_id,
                         const float* query_row, CandidateTile& tile,
                         bool canonical_order, PairSink& sink,
                         JoinStats& stats);

/// Filters a dims-major run of candidates (coordinate k of candidate i at
/// cols[k * col_stride + i], id cand_ids[i]) against one query point,
/// kColumnRunCapacity candidates per kernel call, emitting survivors in run
/// order and updating counters exactly like FilterTileAndEmit.  This is the
/// flat-tree hot path: a sliding window over a leaf is one contiguous run
/// of each of the leaf's columns.  Returns the number of pairs emitted.
size_t FilterColumnRunAndEmit(BatchDistanceKernel& kernel, PointId query_id,
                              const float* query_row, const float* cols,
                              size_t col_stride, const PointId* cand_ids,
                              size_t count, bool canonical_order,
                              PairSink& sink, JoinStats& stats);

}  // namespace simjoin

#endif  // SIMJOIN_COMMON_SIMD_KERNEL_H_
