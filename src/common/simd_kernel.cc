#include "common/simd_kernel.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) || defined(__i386__)
#define SIMJOIN_X86 1
#include <immintrin.h>
#else
#define SIMJOIN_X86 0
#endif

namespace simjoin {
namespace {

// Per-candidate relative rounding bound of the float score versus the exact
// value.  Each subtraction/square rounds at 2^-24 relative and a dims-term
// float sum accumulates at most dims more roundings; (dims + 4) * 2^-22 is a
// >2x over-cover of the worst case (FMA paths round strictly less), so any
// candidate whose exact score and float score straddle the threshold is
// guaranteed to land inside the rescue band.
float RescueMargin(size_t dims) {
  return (static_cast<float>(dims) + 4.0f) * 2.384185791e-7f;  // 2^-22
}

// ---------------------------------------------------------------------------
// Row accessors: how a batch finds candidate row i.  The scorers below are
// templated over these, so the gathered-pointer and contiguous-stride entry
// points execute identical arithmetic (and therefore identical rounding).

/// Tile described by an array of row pointers (the PR-1 gather layout).
struct GatheredRows {
  const float* const* rows;
  const float* row(size_t i) const { return rows[i]; }
  GatheredRows Skip(size_t n) const { return GatheredRows{rows + n}; }
};

/// Tile described by a base pointer + fixed stride (the flat-arena layout);
/// row i is a straight streaming load from base + i * stride.
struct StridedRows {
  const float* base;
  size_t stride;
  const float* row(size_t i) const { return base + i * stride; }
  StridedRows Skip(size_t n) const { return StridedRows{base + n * stride, stride}; }
};

/// Software-prefetches the first few cache lines at p (the next tile).
/// Prefetch instructions never fault, so p may point past the end of the
/// arena on the final tile.
inline void PrefetchTile(const float* p) {
  if (p == nullptr) return;
  const char* c = reinterpret_cast<const char*>(p);
  for (size_t line = 0; line < 8; ++line) {
    __builtin_prefetch(c + line * 64, /*rw=*/0, /*locality=*/3);
  }
}

// ---------------------------------------------------------------------------
// Portable float scoring: plain loops the compiler can auto-vectorize with
// the baseline instruction set.  Scores are: L1 sum, L2 squared sum, Linf max.

float ScorePortableL1(const float* q, const float* r, size_t dims) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= dims; i += 4) {
    s0 += std::fabs(q[i] - r[i]);
    s1 += std::fabs(q[i + 1] - r[i + 1]);
    s2 += std::fabs(q[i + 2] - r[i + 2]);
    s3 += std::fabs(q[i + 3] - r[i + 3]);
  }
  for (; i < dims; ++i) s0 += std::fabs(q[i] - r[i]);
  return (s0 + s1) + (s2 + s3);
}

float ScorePortableL2(const float* q, const float* r, size_t dims) {
  float s0 = 0.0f, s1 = 0.0f, s2 = 0.0f, s3 = 0.0f;
  size_t i = 0;
  for (; i + 4 <= dims; i += 4) {
    const float d0 = q[i] - r[i];
    const float d1 = q[i + 1] - r[i + 1];
    const float d2 = q[i + 2] - r[i + 2];
    const float d3 = q[i + 3] - r[i + 3];
    s0 += d0 * d0;
    s1 += d1 * d1;
    s2 += d2 * d2;
    s3 += d3 * d3;
  }
  for (; i < dims; ++i) {
    const float d = q[i] - r[i];
    s0 += d * d;
  }
  return (s0 + s1) + (s2 + s3);
}

float ScorePortableLinf(const float* q, const float* r, size_t dims) {
  float m = 0.0f;
  for (size_t i = 0; i < dims; ++i) m = std::max(m, std::fabs(q[i] - r[i]));
  return m;
}

/// Mask with the low n bits set (n <= 64).
inline uint64_t LowBits(size_t n) {
  return n >= 64 ? ~uint64_t{0} : (uint64_t{1} << n) - 1;
}

/// How every column tier reports a run: bit i of *below is set iff
/// candidate i's float score is <= threshold, bit i of *band iff that score
/// lies inside the rescue band (the same band test the row tiers make).
using ColumnScoreFn = void (*)(const float* q, const float* cols,
                               size_t stride, size_t count, size_t dims,
                               float threshold, float margin, uint64_t* below,
                               uint64_t* band);

template <Metric M>
inline float PortableStep(float acc, float diff) {
  if constexpr (M == Metric::kL2) {
    return acc + diff * diff;
  } else if constexpr (M == Metric::kL1) {
    return acc + std::fabs(diff);
  } else {
    return std::max(acc, std::fabs(diff));
  }
}

/// Plain-C++ column scorer: one accumulator per candidate, dims in order.
/// The compiler vectorizes the inner loop across candidates with the
/// baseline ISA.
template <Metric M>
void ScoreColumnsPortable(const float* q, const float* cols, size_t stride,
                          size_t count, size_t dims, float threshold,
                          float margin, uint64_t* below, uint64_t* band) {
  float acc[BatchDistanceKernel::kColumnRunCapacity];
  for (size_t i = 0; i < count; ++i) acc[i] = 0.0f;
  for (size_t k = 0; k < dims; ++k) {
    const float qk = q[k];
    const float* col = cols + k * stride;
    for (size_t i = 0; i < count; ++i) {
      acc[i] = PortableStep<M>(acc[i], qk - col[i]);
    }
  }
  uint64_t lo = 0;
  uint64_t bd = 0;
  for (size_t i = 0; i < count; ++i) {
    const float score = acc[i];
    lo |= static_cast<uint64_t>(score <= threshold) << i;
    bd |= static_cast<uint64_t>(std::fabs(score - threshold) <=
                                margin * (score + threshold))
          << i;
  }
  *below = lo;
  *band = bd;
}

// ---------------------------------------------------------------------------
// AVX2+FMA scoring: 8 floats per step, scalar float tail for dims % 8.

#if SIMJOIN_X86 && (defined(__GNUC__) || defined(__clang__))
#define SIMJOIN_HAVE_AVX2_PATH 1

__attribute__((target("avx2,fma"))) float HorizontalSum(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_add_ps(lo, hi);
  lo = _mm_add_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_add_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

__attribute__((target("avx2,fma"))) float HorizontalMax(__m256 v) {
  __m128 lo = _mm256_castps256_ps128(v);
  const __m128 hi = _mm256_extractf128_ps(v, 1);
  lo = _mm_max_ps(lo, hi);
  lo = _mm_max_ps(lo, _mm_movehl_ps(lo, lo));
  lo = _mm_max_ss(lo, _mm_shuffle_ps(lo, lo, 1));
  return _mm_cvtss_f32(lo);
}

// Scores one whole batch per call, four candidates interleaved so the
// independent FMA/add chains hide each other's latency and the query loads
// are shared.  One call per tile keeps the target-attribute function-call
// overhead off the per-candidate cost.  Templated over the row accessor;
// both instantiations run byte-for-byte the same arithmetic.

template <typename Rows>
__attribute__((target("avx2,fma"))) void ScoreBatchAvx2L1(
    const float* q, Rows rows, size_t count, size_t dims, float* scores) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r0 = rows.row(i);
    const float* r1 = rows.row(i + 1);
    const float* r2 = rows.row(i + 2);
    const float* r3 = rows.row(i + 3);
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dims; d += 8) {
      const __m256 qv = _mm256_loadu_ps(q + d);
      a0 = _mm256_add_ps(
          a0, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r0 + d)), abs_mask));
      a1 = _mm256_add_ps(
          a1, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r1 + d)), abs_mask));
      a2 = _mm256_add_ps(
          a2, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r2 + d)), abs_mask));
      a3 = _mm256_add_ps(
          a3, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r3 + d)), abs_mask));
    }
    float s0 = HorizontalSum(a0), s1 = HorizontalSum(a1);
    float s2 = HorizontalSum(a2), s3 = HorizontalSum(a3);
    for (; d < dims; ++d) {
      s0 += std::fabs(q[d] - r0[d]);
      s1 += std::fabs(q[d] - r1[d]);
      s2 += std::fabs(q[d] - r2[d]);
      s3 += std::fabs(q[d] - r3[d]);
    }
    scores[i] = s0;
    scores[i + 1] = s1;
    scores[i + 2] = s2;
    scores[i + 3] = s3;
  }
  for (; i < count; ++i) {
    const float* r = rows.row(i);
    __m256 acc = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dims; d += 8) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_loadu_ps(q + d), _mm256_loadu_ps(r + d));
      acc = _mm256_add_ps(acc, _mm256_and_ps(diff, abs_mask));
    }
    float s = HorizontalSum(acc);
    for (; d < dims; ++d) s += std::fabs(q[d] - r[d]);
    scores[i] = s;
  }
}

template <typename Rows>
__attribute__((target("avx2,fma"))) void ScoreBatchAvx2L2(
    const float* q, Rows rows, size_t count, size_t dims, float* scores) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r0 = rows.row(i);
    const float* r1 = rows.row(i + 1);
    const float* r2 = rows.row(i + 2);
    const float* r3 = rows.row(i + 3);
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dims; d += 8) {
      const __m256 qv = _mm256_loadu_ps(q + d);
      const __m256 d0 = _mm256_sub_ps(qv, _mm256_loadu_ps(r0 + d));
      const __m256 d1 = _mm256_sub_ps(qv, _mm256_loadu_ps(r1 + d));
      const __m256 d2 = _mm256_sub_ps(qv, _mm256_loadu_ps(r2 + d));
      const __m256 d3 = _mm256_sub_ps(qv, _mm256_loadu_ps(r3 + d));
      a0 = _mm256_fmadd_ps(d0, d0, a0);
      a1 = _mm256_fmadd_ps(d1, d1, a1);
      a2 = _mm256_fmadd_ps(d2, d2, a2);
      a3 = _mm256_fmadd_ps(d3, d3, a3);
    }
    float s0 = HorizontalSum(a0), s1 = HorizontalSum(a1);
    float s2 = HorizontalSum(a2), s3 = HorizontalSum(a3);
    for (; d < dims; ++d) {
      const float e0 = q[d] - r0[d], e1 = q[d] - r1[d];
      const float e2 = q[d] - r2[d], e3 = q[d] - r3[d];
      s0 += e0 * e0;
      s1 += e1 * e1;
      s2 += e2 * e2;
      s3 += e3 * e3;
    }
    scores[i] = s0;
    scores[i + 1] = s1;
    scores[i + 2] = s2;
    scores[i + 3] = s3;
  }
  for (; i < count; ++i) {
    const float* r = rows.row(i);
    __m256 acc = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dims; d += 8) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_loadu_ps(q + d), _mm256_loadu_ps(r + d));
      acc = _mm256_fmadd_ps(diff, diff, acc);
    }
    float s = HorizontalSum(acc);
    for (; d < dims; ++d) {
      const float e = q[d] - r[d];
      s += e * e;
    }
    scores[i] = s;
  }
}

template <typename Rows>
__attribute__((target("avx2,fma"))) void ScoreBatchAvx2Linf(
    const float* q, Rows rows, size_t count, size_t dims, float* scores) {
  const __m256 abs_mask = _mm256_castsi256_ps(_mm256_set1_epi32(0x7fffffff));
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r0 = rows.row(i);
    const float* r1 = rows.row(i + 1);
    const float* r2 = rows.row(i + 2);
    const float* r3 = rows.row(i + 3);
    __m256 a0 = _mm256_setzero_ps(), a1 = _mm256_setzero_ps();
    __m256 a2 = _mm256_setzero_ps(), a3 = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dims; d += 8) {
      const __m256 qv = _mm256_loadu_ps(q + d);
      a0 = _mm256_max_ps(
          a0, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r0 + d)), abs_mask));
      a1 = _mm256_max_ps(
          a1, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r1 + d)), abs_mask));
      a2 = _mm256_max_ps(
          a2, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r2 + d)), abs_mask));
      a3 = _mm256_max_ps(
          a3, _mm256_and_ps(_mm256_sub_ps(qv, _mm256_loadu_ps(r3 + d)), abs_mask));
    }
    float s0 = HorizontalMax(a0), s1 = HorizontalMax(a1);
    float s2 = HorizontalMax(a2), s3 = HorizontalMax(a3);
    for (; d < dims; ++d) {
      s0 = std::max(s0, std::fabs(q[d] - r0[d]));
      s1 = std::max(s1, std::fabs(q[d] - r1[d]));
      s2 = std::max(s2, std::fabs(q[d] - r2[d]));
      s3 = std::max(s3, std::fabs(q[d] - r3[d]));
    }
    scores[i] = s0;
    scores[i + 1] = s1;
    scores[i + 2] = s2;
    scores[i + 3] = s3;
  }
  for (; i < count; ++i) {
    const float* r = rows.row(i);
    __m256 acc = _mm256_setzero_ps();
    size_t d = 0;
    for (; d + 8 <= dims; d += 8) {
      const __m256 diff =
          _mm256_sub_ps(_mm256_loadu_ps(q + d), _mm256_loadu_ps(r + d));
      acc = _mm256_max_ps(acc, _mm256_and_ps(diff, abs_mask));
    }
    float m = HorizontalMax(acc);
    for (; d < dims; ++d) m = std::max(m, std::fabs(q[d] - r[d]));
    scores[i] = m;
  }
}

// Per-metric accumulation step shared by the 256-bit code of both vector
// tiers: L1 adds |diff|, L2 adds diff^2 with one FMA, Linf keeps max |diff|.
template <Metric M>
__attribute__((target("avx2,fma"))) inline __m256 Step256(__m256 acc,
                                                          __m256 diff) {
  if constexpr (M == Metric::kL2) {
    return _mm256_fmadd_ps(diff, diff, acc);
  } else {
    const __m256 abs_diff = _mm256_andnot_ps(_mm256_set1_ps(-0.0f), diff);
    if constexpr (M == Metric::kL1) {
      return _mm256_add_ps(acc, abs_diff);
    } else {
      return _mm256_max_ps(acc, abs_diff);
    }
  }
}

template <Metric M>
__attribute__((target("avx2,fma"))) inline float Reduce256(__m256 v) {
  if constexpr (M == Metric::kLinf) {
    return HorizontalMax(v);
  } else {
    return HorizontalSum(v);
  }
}

/// _mm256_maskload_ps mask enabling the first n (1..8) lanes.  Masked-off
/// lanes read as 0 and are never touched in memory.
__attribute__((target("avx2,fma"))) inline __m256i FirstLanes256(size_t n) {
  return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                            _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
}

/// Lane-wise band and threshold tests of one vector of scores, as movemask
/// bits (bit v = lane v).
__attribute__((target("avx2,fma"))) inline void CompareLanes256(
    __m256 score, __m256 threshold, __m256 margin, uint32_t* below,
    uint32_t* band) {
  const __m256 gap = _mm256_andnot_ps(_mm256_set1_ps(-0.0f),
                                      _mm256_sub_ps(score, threshold));
  const __m256 width = _mm256_mul_ps(margin, _mm256_add_ps(score, threshold));
  *below = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_cmp_ps(score, threshold, _CMP_LE_OQ)));
  *band = static_cast<uint32_t>(
      _mm256_movemask_ps(_mm256_cmp_ps(gap, width, _CMP_LE_OQ)));
}

// Candidate-parallel scoring of a dims-major run: NV vectors of 8 lanes,
// one candidate per lane, each lane accumulating its candidate's dims in
// order — no sum across lanes.  The last vector holds `tail` (1..8)
// candidates and is read with masked loads, so nothing past the run is
// touched.
template <Metric M, int NV>
__attribute__((target("avx2,fma"))) void ColumnBlockAvx2(
    const float* q, const float* cols, size_t stride, size_t dims,
    size_t tail, float threshold, float margin, uint64_t* below,
    uint64_t* band) {
  const __m256i tail_mask = FirstLanes256(tail);
  __m256 acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm256_setzero_ps();
  for (size_t k = 0; k < dims; ++k) {
    const __m256 qk = _mm256_set1_ps(q[k]);
    const float* col = cols + k * stride;
    for (int v = 0; v + 1 < NV; ++v) {
      acc[v] = Step256<M>(acc[v],
                          _mm256_sub_ps(qk, _mm256_loadu_ps(col + 8 * v)));
    }
    acc[NV - 1] = Step256<M>(
        acc[NV - 1],
        _mm256_sub_ps(qk, _mm256_maskload_ps(col + 8 * (NV - 1), tail_mask)));
  }
  const __m256 t = _mm256_set1_ps(threshold);
  const __m256 m = _mm256_set1_ps(margin);
  uint64_t lo = 0;
  uint64_t bd = 0;
  for (int v = 0; v < NV; ++v) {
    uint32_t lane_below, lane_band;
    CompareLanes256(acc[v], t, m, &lane_below, &lane_band);
    lo |= static_cast<uint64_t>(lane_below) << (8 * v);
    bd |= static_cast<uint64_t>(lane_band) << (8 * v);
  }
  const uint64_t valid = LowBits(8 * (NV - 1) + tail);
  *below = lo & valid;
  *band = bd & valid;
}

template <Metric M>
__attribute__((target("avx2,fma"))) void ScoreColumnsAvx2(
    const float* q, const float* cols, size_t stride, size_t count,
    size_t dims, float threshold, float margin, uint64_t* below,
    uint64_t* band) {
  constexpr size_t kBlock = 32;  // 4 vectors of 8 lanes
  *below = 0;
  *band = 0;
  for (size_t lo = 0; lo < count; lo += kBlock) {
    const size_t n = std::min(kBlock, count - lo);
    const size_t nv = (n + 7) / 8;
    const size_t tail = n - 8 * (nv - 1);
    uint64_t b = 0;
    uint64_t r = 0;
    switch (nv) {
      case 1:
        ColumnBlockAvx2<M, 1>(q, cols + lo, stride, dims, tail, threshold,
                              margin, &b, &r);
        break;
      case 2:
        ColumnBlockAvx2<M, 2>(q, cols + lo, stride, dims, tail, threshold,
                              margin, &b, &r);
        break;
      case 3:
        ColumnBlockAvx2<M, 3>(q, cols + lo, stride, dims, tail, threshold,
                              margin, &b, &r);
        break;
      default:
        ColumnBlockAvx2<M, 4>(q, cols + lo, stride, dims, tail, threshold,
                              margin, &b, &r);
        break;
    }
    *below |= b << lo;
    *band |= r << lo;
  }
}
#else
#define SIMJOIN_HAVE_AVX2_PATH 0
#endif  // SIMJOIN_X86 && (GNUC || clang)

// ---------------------------------------------------------------------------
// AVX-512F scoring.  Row tiles: 16 floats per step — at d=16 one whole
// candidate per vector — with the same 4-candidate interleave as the AVX2
// tier; the dims % 16 remainder takes at most one 8-wide step plus one
// masked 8-wide step.  Column runs: 16 candidates
// per vector, mask-register compares.  The horizontal reductions order
// additions differently from the AVX2/portable paths, so raw float scores
// can differ in the last bits; the rescue band re-tests every
// near-threshold candidate with the exact scalar kernel, so the *mask*
// stays bit-identical across all tiers (asserted by the differential
// tests).  The functions also carry the avx2/fma targets because the
// remainder steps are 256-bit.

#if SIMJOIN_HAVE_AVX2_PATH
#define SIMJOIN_HAVE_AVX512_PATH 1

// GCC's AVX-512 intrinsics expand through _mm512_undefined_ps(), which GCC
// 12 itself flags as maybe-uninitialized (GCC bug 105593).  The "undefined"
// operand is the ignored pass-through lane source of an unmasked operation,
// so the warning is a false positive; silence it for this block only.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
#endif

template <Metric M>
__attribute__((target("avx512f,avx2,fma"))) inline __m512 Step512(
    __m512 acc, __m512 diff) {
  if constexpr (M == Metric::kL2) {
    return _mm512_fmadd_ps(diff, diff, acc);
  } else if constexpr (M == Metric::kL1) {
    return _mm512_add_ps(acc, _mm512_abs_ps(diff));
  } else {
    return _mm512_max_ps(acc, _mm512_abs_ps(diff));
  }
}

/// Folds a 512-bit accumulator into 256 bits (sum or max of its halves).
template <Metric M>
__attribute__((target("avx512f,avx2,fma"))) inline __m256 Fold512(__m512 v) {
  const __m256 lo = _mm512_castps512_ps256(v);
  const __m256 hi =
      _mm256_castpd_ps(_mm512_extractf64x4_pd(_mm512_castps_pd(v), 1));
  if constexpr (M == Metric::kLinf) {
    return _mm256_max_ps(lo, hi);
  } else {
    return _mm256_add_ps(lo, hi);
  }
}

/// Scores NR candidate rows at once, interleaved so the independent chains
/// hide each other's latency and the query loads are shared.  Masked-off
/// lanes of the last step read 0 from both sides, which adds nothing to a
/// sum and cannot raise a max.
template <Metric M, size_t NR>
__attribute__((target("avx512f,avx2,fma"))) inline void ScoreRowsAvx512(
    const float* q, const float* const* r, size_t dims, float* scores) {
  size_t d = 0;
  __m256 acc[NR];
  if (dims >= 16) {
    __m512 wide[NR];
    for (size_t j = 0; j < NR; ++j) wide[j] = _mm512_setzero_ps();
    for (; d + 16 <= dims; d += 16) {
      const __m512 qv = _mm512_loadu_ps(q + d);
      for (size_t j = 0; j < NR; ++j) {
        wide[j] = Step512<M>(wide[j],
                             _mm512_sub_ps(qv, _mm512_loadu_ps(r[j] + d)));
      }
    }
    for (size_t j = 0; j < NR; ++j) acc[j] = Fold512<M>(wide[j]);
  } else {
    for (size_t j = 0; j < NR; ++j) acc[j] = _mm256_setzero_ps();
  }
  if (d + 8 <= dims) {
    const __m256 qv = _mm256_loadu_ps(q + d);
    for (size_t j = 0; j < NR; ++j) {
      acc[j] = Step256<M>(acc[j], _mm256_sub_ps(qv, _mm256_loadu_ps(r[j] + d)));
    }
    d += 8;
  }
  if (d < dims) {
    const __m256i tail = FirstLanes256(dims - d);
    const __m256 qv = _mm256_maskload_ps(q + d, tail);
    for (size_t j = 0; j < NR; ++j) {
      acc[j] = Step256<M>(
          acc[j], _mm256_sub_ps(qv, _mm256_maskload_ps(r[j] + d, tail)));
    }
  }
  for (size_t j = 0; j < NR; ++j) scores[j] = Reduce256<M>(acc[j]);
}

template <Metric M, typename Rows>
__attribute__((target("avx512f,avx2,fma"))) void ScoreBatchAvx512(
    const float* q, Rows rows, size_t count, size_t dims, float* scores) {
  size_t i = 0;
  for (; i + 4 <= count; i += 4) {
    const float* r[4] = {rows.row(i), rows.row(i + 1), rows.row(i + 2),
                         rows.row(i + 3)};
    ScoreRowsAvx512<M, 4>(q, r, dims, scores + i);
  }
  for (; i < count; ++i) {
    const float* r[1] = {rows.row(i)};
    ScoreRowsAvx512<M, 1>(q, r, dims, scores + i);
  }
}

// The 16-lane form of ColumnBlockAvx2: the last vector holds `tail`
// (1..16) candidates behind a load mask, and the compares land directly in
// mask registers.
template <Metric M, int NV>
__attribute__((target("avx512f,avx2,fma"))) void ColumnBlockAvx512(
    const float* q, const float* cols, size_t stride, size_t dims,
    size_t tail, float threshold, float margin, uint64_t* below,
    uint64_t* band) {
  const auto tail_mask = static_cast<__mmask16>((1u << tail) - 1);
  __m512 acc[NV];
  for (int v = 0; v < NV; ++v) acc[v] = _mm512_setzero_ps();
  for (size_t k = 0; k < dims; ++k) {
    const __m512 qk = _mm512_set1_ps(q[k]);
    const float* col = cols + k * stride;
    for (int v = 0; v + 1 < NV; ++v) {
      acc[v] = Step512<M>(acc[v],
                          _mm512_sub_ps(qk, _mm512_loadu_ps(col + 16 * v)));
    }
    acc[NV - 1] = Step512<M>(
        acc[NV - 1],
        _mm512_sub_ps(qk, _mm512_maskz_loadu_ps(tail_mask,
                                                col + 16 * (NV - 1))));
  }
  const __m512 t = _mm512_set1_ps(threshold);
  const __m512 m = _mm512_set1_ps(margin);
  uint64_t lo = 0;
  uint64_t bd = 0;
  for (int v = 0; v < NV; ++v) {
    const __m512 s = acc[v];
    const __mmask16 le = _mm512_cmp_ps_mask(s, t, _CMP_LE_OQ);
    const __mmask16 in_band = _mm512_cmp_ps_mask(
        _mm512_abs_ps(_mm512_sub_ps(s, t)),
        _mm512_mul_ps(m, _mm512_add_ps(s, t)), _CMP_LE_OQ);
    lo |= static_cast<uint64_t>(le) << (16 * v);
    bd |= static_cast<uint64_t>(in_band) << (16 * v);
  }
  const uint64_t valid = LowBits(16 * (NV - 1) + tail);
  *below = lo & valid;
  *band = bd & valid;
}

template <Metric M>
__attribute__((target("avx512f,avx2,fma"))) void ScoreColumnsAvx512(
    const float* q, const float* cols, size_t stride, size_t count,
    size_t dims, float threshold, float margin, uint64_t* below,
    uint64_t* band) {
  const size_t nv = (count + 15) / 16;  // count <= 64, so nv <= 4
  const size_t tail = count - 16 * (nv - 1);
  switch (nv) {
    case 1:
      ColumnBlockAvx512<M, 1>(q, cols, stride, dims, tail, threshold, margin,
                              below, band);
      break;
    case 2:
      ColumnBlockAvx512<M, 2>(q, cols, stride, dims, tail, threshold, margin,
                              below, band);
      break;
    case 3:
      ColumnBlockAvx512<M, 3>(q, cols, stride, dims, tail, threshold, margin,
                              below, band);
      break;
    default:
      ColumnBlockAvx512<M, 4>(q, cols, stride, dims, tail, threshold, margin,
                              below, band);
      break;
  }
}

#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif
#else
#define SIMJOIN_HAVE_AVX512_PATH 0
#endif  // SIMJOIN_HAVE_AVX2_PATH

}  // namespace

bool BatchDistanceKernel::CpuHasAvx2() {
#if SIMJOIN_HAVE_AVX2_PATH
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool BatchDistanceKernel::CpuHasAvx512() {
#if SIMJOIN_HAVE_AVX512_PATH
  // The AVX-512 tier also runs 256-bit AVX2/FMA remainder steps.
  return __builtin_cpu_supports("avx512f") && CpuHasAvx2();
#else
  return false;
#endif
}

bool BatchDistanceKernel::ForceScalarEnv() {
  const char* v = std::getenv("SIMJOIN_FORCE_SCALAR");
  return v != nullptr && v[0] == '1' && v[1] == '\0';
}

KernelPath BatchDistanceKernel::EnvKernelPath() {
  const char* v = std::getenv("SIMJOIN_KERNEL_PATH");
  if (v == nullptr) return KernelPath::kAuto;
  if (std::strcmp(v, "scalar") == 0) return KernelPath::kScalar;
  if (std::strcmp(v, "portable") == 0) return KernelPath::kPortable;
  if (std::strcmp(v, "avx2") == 0) return KernelPath::kAvx2;
  if (std::strcmp(v, "avx512") == 0) return KernelPath::kAvx512;
  return KernelPath::kAuto;
}

namespace {

KernelPath ResolvePath(KernelPath preferred) {
  if (preferred == KernelPath::kAuto) {
    if (BatchDistanceKernel::ForceScalarEnv()) return KernelPath::kScalar;
    preferred = BatchDistanceKernel::EnvKernelPath();
  }
  if (preferred == KernelPath::kAuto) {
    if (BatchDistanceKernel::CpuHasAvx512()) return KernelPath::kAvx512;
    return BatchDistanceKernel::CpuHasAvx2() ? KernelPath::kAvx2
                                             : KernelPath::kPortable;
  }
  // Explicit (or env-pinned) requests the CPU cannot honour degrade one tier
  // at a time: avx512 -> avx2 -> portable.
  if (preferred == KernelPath::kAvx512 &&
      !BatchDistanceKernel::CpuHasAvx512()) {
    preferred = KernelPath::kAvx2;
  }
  if (preferred == KernelPath::kAvx2 && !BatchDistanceKernel::CpuHasAvx2()) {
    return KernelPath::kPortable;
  }
  return preferred;
}

template <Metric M>
ColumnScoreFn ColumnScorerForMetric(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return nullptr;
#if SIMJOIN_HAVE_AVX512_PATH
    case KernelPath::kAvx512:
      return &ScoreColumnsAvx512<M>;
#endif
#if SIMJOIN_HAVE_AVX2_PATH
    case KernelPath::kAvx2:
      return &ScoreColumnsAvx2<M>;
#endif
    default:
      return &ScoreColumnsPortable<M>;
  }
}

ColumnScoreFn ColumnScorerFor(KernelPath path, Metric metric) {
  switch (metric) {
    case Metric::kL1:
      return ColumnScorerForMetric<Metric::kL1>(path);
    case Metric::kL2:
      return ColumnScorerForMetric<Metric::kL2>(path);
    case Metric::kLinf:
      return ColumnScorerForMetric<Metric::kLinf>(path);
  }
  return nullptr;
}

}  // namespace

BatchDistanceKernel::BatchDistanceKernel(Metric metric, size_t dims, double eps,
                                         KernelPath preferred)
    : scalar_(metric),
      dims_(dims),
      eps_(eps),
      margin_(RescueMargin(dims)),
      path_(ResolvePath(preferred)),
      column_scorer_(ColumnScorerFor(path_, metric)) {
  SetEpsilon(eps);
}

void BatchDistanceKernel::SetEpsilon(double eps) {
  eps_ = eps;
  // L2 scores are squared sums, so the float threshold is eps^2; the scalar
  // reference compares the same way, so the rescue band covers the rounding
  // of both the score and this conversion.
  threshold_ = metric() == Metric::kL2 ? static_cast<float>(eps * eps)
                                       : static_cast<float>(eps);
}

bool BatchDistanceKernel::Rescue(const float* query, const float* row) {
  ++scalar_fallbacks_;
  return scalar_.WithinEpsilon(query, row, dims_, eps_);
}

bool BatchDistanceKernel::RescueColumn(const float* query, const float* cols,
                                       size_t col_stride, size_t i) {
  gathered_row_.resize(dims_);
  for (size_t k = 0; k < dims_; ++k) {
    gathered_row_[k] = cols[k * col_stride + i];
  }
  return Rescue(query, gathered_row_.data());
}

template <typename Rows>
size_t BatchDistanceKernel::FilterScalarT(const float* query, Rows rows,
                                          size_t count, uint8_t* out_mask) {
  size_t kept = 0;
  for (size_t i = 0; i < count; ++i) {
    const uint8_t in = Rescue(query, rows.row(i)) ? 1 : 0;
    out_mask[i] = in;
    kept += in;
  }
  return kept;
}

template <typename Rows>
size_t BatchDistanceKernel::FilterPortableT(const float* query, Rows rows,
                                            size_t count, uint8_t* out_mask) {
  size_t kept = 0;
  for (size_t i = 0; i < count; ++i) {
    const float* row = rows.row(i);
    float score = 0.0f;
    switch (metric()) {
      case Metric::kL1:
        score = ScorePortableL1(query, row, dims_);
        break;
      case Metric::kL2:
        score = ScorePortableL2(query, row, dims_);
        break;
      case Metric::kLinf:
        score = ScorePortableLinf(query, row, dims_);
        break;
    }
    uint8_t in;
    if (std::fabs(score - threshold_) <= margin_ * (score + threshold_)) {
      in = Rescue(query, row) ? 1 : 0;
    } else {
      in = score <= threshold_ ? 1 : 0;
    }
    out_mask[i] = in;
    kept += in;
  }
  return kept;
}

template <typename Rows>
size_t BatchDistanceKernel::FilterAvx2T(const float* query, Rows rows,
                                        size_t count, uint8_t* out_mask) {
#if SIMJOIN_HAVE_AVX2_PATH
  constexpr size_t kChunk = 128;
  float scores[kChunk];
  size_t kept = 0;
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t n = std::min(kChunk, count - base);
    const Rows chunk = rows.Skip(base);
    switch (metric()) {
      case Metric::kL1:
        ScoreBatchAvx2L1(query, chunk, n, dims_, scores);
        break;
      case Metric::kL2:
        ScoreBatchAvx2L2(query, chunk, n, dims_, scores);
        break;
      case Metric::kLinf:
        ScoreBatchAvx2Linf(query, chunk, n, dims_, scores);
        break;
    }
    for (size_t i = 0; i < n; ++i) {
      const float score = scores[i];
      uint8_t in;
      if (std::fabs(score - threshold_) <= margin_ * (score + threshold_)) {
        in = Rescue(query, chunk.row(i)) ? 1 : 0;
      } else {
        in = score <= threshold_ ? 1 : 0;
      }
      out_mask[base + i] = in;
      kept += in;
    }
  }
  return kept;
#else
  return FilterPortableT(query, rows, count, out_mask);
#endif
}

template <typename Rows>
size_t BatchDistanceKernel::FilterAvx512T(const float* query, Rows rows,
                                          size_t count, uint8_t* out_mask) {
#if SIMJOIN_HAVE_AVX512_PATH
  constexpr size_t kChunk = 128;
  float scores[kChunk];
  size_t kept = 0;
  for (size_t base = 0; base < count; base += kChunk) {
    const size_t n = std::min(kChunk, count - base);
    const Rows chunk = rows.Skip(base);
    switch (metric()) {
      case Metric::kL1:
        ScoreBatchAvx512<Metric::kL1>(query, chunk, n, dims_, scores);
        break;
      case Metric::kL2:
        ScoreBatchAvx512<Metric::kL2>(query, chunk, n, dims_, scores);
        break;
      case Metric::kLinf:
        ScoreBatchAvx512<Metric::kLinf>(query, chunk, n, dims_, scores);
        break;
    }
    for (size_t i = 0; i < n; ++i) {
      const float score = scores[i];
      uint8_t in;
      if (std::fabs(score - threshold_) <= margin_ * (score + threshold_)) {
        in = Rescue(query, chunk.row(i)) ? 1 : 0;
      } else {
        in = score <= threshold_ ? 1 : 0;
      }
      out_mask[base + i] = in;
      kept += in;
    }
  }
  return kept;
#else
  return FilterAvx2T(query, rows, count, out_mask);
#endif
}

template <typename Rows>
size_t BatchDistanceKernel::FilterDispatch(const float* query, Rows rows,
                                           size_t count, uint8_t* out_mask) {
  if (count == 0) return 0;
  switch (path_) {
    case KernelPath::kScalar:
      return FilterScalarT(query, rows, count, out_mask);
    case KernelPath::kAvx512:
      ++simd_batches_;
      return FilterAvx512T(query, rows, count, out_mask);
    case KernelPath::kAvx2:
      ++simd_batches_;
      return FilterAvx2T(query, rows, count, out_mask);
    case KernelPath::kAuto:
    case KernelPath::kPortable:
      ++simd_batches_;
      return FilterPortableT(query, rows, count, out_mask);
  }
  return 0;
}

size_t BatchDistanceKernel::FilterWithinEpsilon(const float* query,
                                                const float* const* rows,
                                                size_t count,
                                                uint8_t* out_mask) {
  return FilterDispatch(query, GatheredRows{rows}, count, out_mask);
}

size_t BatchDistanceKernel::FilterWithinEpsilonStrided(
    const float* query, const float* base, size_t stride, size_t count,
    uint8_t* out_mask, const float* prefetch) {
  PrefetchTile(prefetch);
  return FilterDispatch(query, StridedRows{base, stride}, count, out_mask);
}

uint64_t BatchDistanceKernel::FilterWithinEpsilonColumns(const float* query,
                                                         const float* cols,
                                                         size_t col_stride,
                                                         size_t count) {
  if (count == 0) return 0;
  uint64_t in = 0;
  if (column_scorer_ == nullptr) {
    for (size_t i = 0; i < count; ++i) {
      if (RescueColumn(query, cols, col_stride, i)) in |= uint64_t{1} << i;
    }
    return in;
  }
  ++simd_batches_;
  uint64_t below = 0;
  uint64_t band = 0;
  column_scorer_(query, cols, col_stride, count, dims_, threshold_, margin_,
                 &below, &band);
  in = below & ~band;
  for (; band != 0; band &= band - 1) {
    const auto i = static_cast<size_t>(std::countr_zero(band));
    if (RescueColumn(query, cols, col_stride, i)) in |= uint64_t{1} << i;
  }
  return in;
}

size_t BatchDistanceKernel::CountWithinEpsilon(const float* query,
                                               const float* const* rows,
                                               size_t count) {
  uint8_t mask[kTileCapacity];
  size_t kept = 0;
  for (size_t i = 0; i < count; i += kTileCapacity) {
    const size_t chunk = std::min(kTileCapacity, count - i);
    kept += FilterWithinEpsilon(query, rows + i, chunk, mask);
  }
  return kept;
}

size_t FilterTileAndEmit(BatchDistanceKernel& kernel, PointId query_id,
                         const float* query_row, CandidateTile& tile,
                         bool canonical_order, PairSink& sink,
                         JoinStats& stats) {
  if (tile.empty()) return 0;
  const size_t n = tile.size();
  uint8_t mask[CandidateTile::kCapacity];
  stats.candidate_pairs += n;
  stats.distance_calls += n;
  const size_t kept = kernel.FilterWithinEpsilon(query_row, tile.rows(), n, mask);
  if (kept != 0) {
    stats.pairs_emitted += kept;
    IdPair out[CandidateTile::kCapacity];
    size_t m = 0;
    for (size_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      PointId a = query_id;
      PointId b = tile.ids()[i];
      if (canonical_order && a > b) std::swap(a, b);
      out[m++] = IdPair(a, b);
    }
    sink.EmitBatch(std::span<const IdPair>(out, m));
  }
  tile.Clear();
  return kept;
}

size_t FilterColumnRunAndEmit(BatchDistanceKernel& kernel, PointId query_id,
                              const float* query_row, const float* cols,
                              size_t col_stride, const PointId* cand_ids,
                              size_t count, bool canonical_order,
                              PairSink& sink, JoinStats& stats) {
  constexpr size_t kRun = BatchDistanceKernel::kColumnRunCapacity;
  IdPair out[kRun];
  size_t emitted = 0;
  stats.candidate_pairs += count;
  stats.distance_calls += count;
  for (size_t lo = 0; lo < count; lo += kRun) {
    const size_t n = std::min(kRun, count - lo);
    uint64_t bits =
        kernel.FilterWithinEpsilonColumns(query_row, cols + lo, col_stride, n);
    size_t m = 0;
    for (; bits != 0; bits &= bits - 1) {
      PointId a = query_id;
      PointId b = cand_ids[lo + std::countr_zero(bits)];
      if (canonical_order && a > b) std::swap(a, b);
      out[m++] = IdPair(a, b);
    }
    if (m == 0) continue;
    stats.pairs_emitted += m;
    emitted += m;
    sink.EmitBatch(std::span<const IdPair>(out, m));
  }
  return emitted;
}

}  // namespace simjoin
