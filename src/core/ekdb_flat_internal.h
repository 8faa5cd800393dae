// Internal helpers shared by the flat-tree query and join paths
// (ekdb_flat.cc, ekdb_flat_batch.cc and ekdb_flat_join.cc).  Not part of
// the public surface.
//
// Every helper works on one leaf's dims-major block (see
// FlatEkdbTree::leaf_columns): rows are leaf-relative, and a leaf's sort
// column is a plain ascending float array, so the window searches are
// binary searches over contiguous memory.

#ifndef SIMJOIN_CORE_EKDB_FLAT_INTERNAL_H_
#define SIMJOIN_CORE_EKDB_FLAT_INTERNAL_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/simd_kernel.h"

namespace simjoin {
namespace flat_internal {

/// First row in [begin, end) whose value in the ascending column is >= lo.
inline uint32_t LowerBoundRow(const float* col, uint32_t begin, uint32_t end,
                              double lo) {
  while (begin < end) {
    const uint32_t mid = begin + (end - begin) / 2;
    if (static_cast<double>(col[mid]) < lo) {
      begin = mid + 1;
    } else {
      end = mid;
    }
  }
  return begin;
}

/// First row in [begin, end) whose value in the ascending column is > hi.
inline uint32_t UpperBoundRow(const float* col, uint32_t begin, uint32_t end,
                              double hi) {
  while (begin < end) {
    const uint32_t mid = begin + (end - begin) / 2;
    if (static_cast<double>(col[mid]) <= hi) {
      begin = mid + 1;
    } else {
      end = mid;
    }
  }
  return begin;
}

/// First row in [begin, end) whose value in the ascending column exceeds vi
/// by more than eps — the same break predicate the pointer-tree self-join
/// window uses, evaluated with identical arithmetic.
inline uint32_t SelfWindowEnd(const float* col, uint32_t begin, uint32_t end,
                              double vi, double eps) {
  while (begin < end) {
    const uint32_t mid = begin + (end - begin) / 2;
    if (static_cast<double>(col[mid]) - vi > eps) {
      end = mid;
    } else {
      begin = mid + 1;
    }
  }
  return begin;
}

/// Copies row r of a dims-major block (column stride `stride`) into out.
inline void GatherRow(const float* cols, size_t stride, size_t dims,
                      uint32_t r, float* out) {
  for (size_t k = 0; k < dims; ++k) out[k] = cols[k * stride + r];
}

/// Filters rows [wb, we) of a leaf block (columns `cols`, stride `stride`,
/// ids `ids`) against the query, appending the surviving ids in row order.
/// RangeQuery and RangeQueryBatch both scan through here, so their kernel
/// calls — and with them every JoinStats counter — match by construction.
inline void ScanWindow(BatchDistanceKernel& kernel, const float* query,
                       const float* cols, size_t stride, const PointId* ids,
                       uint32_t wb, uint32_t we, std::vector<PointId>* out) {
  constexpr uint32_t kRun = BatchDistanceKernel::kColumnRunCapacity;
  for (uint32_t r = wb; r < we; r += kRun) {
    const uint32_t n = std::min(kRun, we - r);
    uint64_t bits = kernel.FilterWithinEpsilonColumns(query, cols + r, stride, n);
    for (; bits != 0; bits &= bits - 1) {
      out->push_back(ids[r + std::countr_zero(bits)]);
    }
  }
}

}  // namespace flat_internal
}  // namespace simjoin

#endif  // SIMJOIN_CORE_EKDB_FLAT_INTERNAL_H_
