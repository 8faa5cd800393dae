#include "common/simd_kernel.h"

#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <vector>

#include <gtest/gtest.h>

#include "common/metric.h"
#include "common/rng.h"
#include "test_util.h"

namespace simjoin {
namespace {

struct KernelCase {
  Metric metric;
  size_t dims;
};

std::string CaseName(const ::testing::TestParamInfo<KernelCase>& info) {
  return std::string(MetricName(info.param.metric)) + "_d" +
         std::to_string(info.param.dims);
}

class BatchKernelDifferentialTest : public ::testing::TestWithParam<KernelCase> {};

/// Every implementation path must emit exactly the same within/without
/// decision as the scalar double-precision reference, for every candidate.
TEST_P(BatchKernelDifferentialTest, MatchesScalarReferenceOnRandomData) {
  const auto [metric, dims] = GetParam();
  Rng rng(0x5eed + dims);
  DistanceKernel reference(metric);

  const size_t n = 512;
  Dataset data(n, dims);
  for (size_t i = 0; i < n; ++i) {
    float* row = data.MutableRow(static_cast<PointId>(i));
    for (size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(rng.Uniform());
    }
  }

  const KernelPath paths[] = {KernelPath::kScalar, KernelPath::kPortable,
                              KernelPath::kAvx2, KernelPath::kAvx512};
  for (double eps : {0.05, 0.2, 0.7}) {
    for (KernelPath path : paths) {
      BatchDistanceKernel batch(metric, dims, eps, path);
      std::vector<const float*> rows;
      for (size_t i = 0; i < n; ++i) {
        rows.push_back(data.Row(static_cast<PointId>(i)));
      }
      std::vector<uint8_t> mask(n);
      for (size_t q = 0; q < 64; ++q) {
        const float* query = data.Row(static_cast<PointId>(q * 7 % n));
        size_t expected_kept = 0;
        batch.FilterWithinEpsilon(query, rows.data(), n, mask.data());
        for (size_t i = 0; i < n; ++i) {
          const bool expected = reference.WithinEpsilon(query, rows[i], dims, eps);
          expected_kept += expected;
          ASSERT_EQ(expected, mask[i] != 0)
              << "path=" << static_cast<int>(path)
              << " metric=" << MetricName(metric) << " dims=" << dims
              << " eps=" << eps << " candidate=" << i;
        }
        EXPECT_EQ(expected_kept,
                  batch.CountWithinEpsilon(query, rows.data(), n));
      }
    }
  }
}

/// The strided entry point must produce byte-identical masks to the gathered
/// one over the same rows, on every path: both are instantiations of the same
/// templated scoring code, and this pins that equivalence down.
TEST_P(BatchKernelDifferentialTest, StridedMatchesGatheredExactly) {
  const auto [metric, dims] = GetParam();
  Rng rng(0xa11e + dims);

  const size_t n = 300;
  Dataset data(n, dims);  // contiguous row-major: stride == dims
  for (size_t i = 0; i < n; ++i) {
    float* row = data.MutableRow(static_cast<PointId>(i));
    for (size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(rng.Uniform());
    }
  }
  std::vector<const float*> rows;
  for (size_t i = 0; i < n; ++i) {
    rows.push_back(data.Row(static_cast<PointId>(i)));
  }

  for (double eps : {0.05, 0.2, 0.7}) {
    for (KernelPath path : {KernelPath::kScalar, KernelPath::kPortable,
                            KernelPath::kAvx2, KernelPath::kAvx512}) {
      BatchDistanceKernel gathered(metric, dims, eps, path);
      BatchDistanceKernel strided(metric, dims, eps, path);
      std::vector<uint8_t> gathered_mask(n), strided_mask(n);
      for (size_t q = 0; q < 32; ++q) {
        const float* query = data.Row(static_cast<PointId>(q * 11 % n));
        const size_t kept_g =
            gathered.FilterWithinEpsilon(query, rows.data(), n,
                                         gathered_mask.data());
        // Exercise both the no-prefetch default and an explicit prefetch
        // target (the next tile in a real sweep).
        const size_t kept_s = strided.FilterWithinEpsilonStrided(
            query, data.Row(0), dims, n, strided_mask.data(),
            q % 2 == 0 ? data.Row(0) : nullptr);
        EXPECT_EQ(kept_g, kept_s);
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(gathered_mask[i], strided_mask[i])
              << "path=" << static_cast<int>(path)
              << " metric=" << MetricName(metric) << " dims=" << dims
              << " eps=" << eps << " candidate=" << i;
        }
      }
      EXPECT_EQ(gathered.scalar_fallbacks(), strided.scalar_fallbacks());
    }
  }
}

/// FilterColumnRunAndEmit over a dims-major copy of the rows must report the
/// same pair sequence and counters as the gathered-tile loop over the rows.
TEST_P(BatchKernelDifferentialTest, StridedRunEmitsSamePairsAsTiles) {
  const auto [metric, dims] = GetParam();
  Rng rng(0xbeef + dims);

  const size_t n = 100;
  Dataset data(n, dims);
  for (size_t i = 0; i < n; ++i) {
    float* row = data.MutableRow(static_cast<PointId>(i));
    for (size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(rng.Uniform() * 0.3);
    }
  }
  std::vector<float> cols(n * dims);
  for (size_t i = 0; i < n; ++i) {
    for (size_t d = 0; d < dims; ++d) {
      cols[d * n + i] = data.Row(static_cast<PointId>(i))[d];
    }
  }
  std::vector<PointId> cand_ids;
  for (size_t i = 0; i < n; ++i) cand_ids.push_back(static_cast<PointId>(i));

  const double eps = 0.2;
  for (const bool canonical : {false, true}) {
    BatchDistanceKernel tile_kernel(metric, dims, eps);
    BatchDistanceKernel run_kernel(metric, dims, eps);
    VectorSink tile_sink, run_sink;
    JoinStats tile_stats, run_stats;
    const PointId query_id = 55;
    const float* query = data.Row(query_id);

    CandidateTile tile;
    for (size_t i = 0; i < n; ++i) {
      tile.Add(cand_ids[i], data.Row(cand_ids[i]));
      if (tile.full()) {
        FilterTileAndEmit(tile_kernel, query_id, query, tile, canonical,
                          tile_sink, tile_stats);
      }
    }
    FilterTileAndEmit(tile_kernel, query_id, query, tile, canonical,
                      tile_sink, tile_stats);

    const size_t emitted = FilterColumnRunAndEmit(
        run_kernel, query_id, query, cols.data(), n, cand_ids.data(), n,
        canonical, run_sink, run_stats);

    EXPECT_EQ(emitted, tile_sink.pairs().size());
    EXPECT_EQ(tile_sink.pairs(), run_sink.pairs());
    EXPECT_EQ(tile_stats.candidate_pairs, run_stats.candidate_pairs);
    EXPECT_EQ(tile_stats.distance_calls, run_stats.distance_calls);
    EXPECT_EQ(tile_stats.pairs_emitted, run_stats.pairs_emitted);
  }
}

/// Candidates sitting exactly on the epsilon boundary must be classified
/// "within" (the predicate is <=), on every path.  eps = 0.25 and axis-offset
/// constructions keep the true distance exactly representable, so any float
/// rounding inside a vector path would flip the answer if the exact-rescue
/// band failed to catch it.
TEST_P(BatchKernelDifferentialTest, ExactBoundaryPointsStayWithin) {
  const auto [metric, dims] = GetParam();
  const double eps = 0.25;
  DistanceKernel reference(metric);

  std::vector<float> query(dims, 0.5f);
  // Candidate 0: offset eps along one axis (dist == eps in every metric).
  // Candidate 1: offset just beyond.  Candidate 2: identical point.
  // Candidate 3: for L1/L2, spread across axes keeping the distance == eps:
  //   L1: four axes offset eps/4; L2: four axes offset eps/2 (sum of squares
  //   = 4 * eps^2/4 = eps^2).  Falls back to the axis construction at d < 4.
  std::vector<std::vector<float>> cands(4, std::vector<float>(dims, 0.5f));
  cands[0][0] += 0.25f;
  cands[1][0] += 0.2500152587890625f;  // 0.25 + 2^-16, exactly representable
  if (dims >= 4) {
    const float step = metric == Metric::kL2   ? 0.125f
                       : metric == Metric::kL1 ? 0.0625f
                                               : 0.25f;
    for (size_t d = 0; d < 4; ++d) cands[3][d] += (d % 2 ? -step : step);
    if (metric == Metric::kLinf) {
      // Only one axis may reach eps for Linf; damp the others.
      cands[3][1] = 0.5f + 0.125f;
      cands[3][2] = 0.5f - 0.0625f;
      cands[3][3] = 0.5f;
    }
  } else {
    cands[3][0] += 0.25f;
  }

  const float* rows[4] = {cands[0].data(), cands[1].data(), cands[2].data(),
                          cands[3].data()};
  for (KernelPath path : {KernelPath::kScalar, KernelPath::kPortable,
                          KernelPath::kAvx2, KernelPath::kAvx512}) {
    BatchDistanceKernel batch(metric, dims, eps, path);
    uint8_t mask[4];
    batch.FilterWithinEpsilon(query.data(), rows, 4, mask);
    for (size_t i = 0; i < 4; ++i) {
      const bool expected =
          reference.WithinEpsilon(query.data(), rows[i], dims, eps);
      EXPECT_EQ(expected, mask[i] != 0)
          << "path=" << static_cast<int>(path) << " candidate=" << i;
    }
    EXPECT_EQ(1u, mask[0]) << "on-boundary pair must be within";
    EXPECT_EQ(0u, mask[1]) << "just-outside pair must be excluded";
    EXPECT_EQ(1u, mask[2]) << "identical point must be within";
  }
}

/// Every metric at each listed dimensionality.
std::vector<KernelCase> Cases(std::initializer_list<size_t> dims_list) {
  std::vector<KernelCase> cases;
  for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
    for (const size_t dims : dims_list) cases.push_back({metric, dims});
  }
  return cases;
}

// d = 8, 12, 17, 24 and 33 exercise every shape of the vector tiers'
// dims % 16 and dims % 8 remainders.
INSTANTIATE_TEST_SUITE_P(Paths, BatchKernelDifferentialTest,
                         ::testing::ValuesIn(Cases({4, 8, 12, 16, 17, 24, 33,
                                                    64})),
                         CaseName);

class ColumnKernelDifferentialTest
    : public ::testing::TestWithParam<KernelCase> {};

/// The candidate-parallel column entry point must decide every candidate
/// exactly like the scalar reference, on every tier: runs of 1..40 (and a
/// full 64) candidates at several offsets inside a wider dims-major block,
/// so the column stride never equals the run length, over candidates
/// planted on and one ulp either side of the epsilon boundary.  The block
/// is an allocation of exactly rows * dims floats and some runs end at its
/// last float, so a sanitizer build flags any read past a run.
TEST_P(ColumnKernelDifferentialTest, MatchesScalarReference) {
  const auto [metric, dims] = GetParam();
  constexpr size_t kRows = 70;
  const double eps = 0.25;
  Rng rng(0xc01 + dims * 3 + static_cast<size_t>(metric));
  DistanceKernel reference(metric);

  std::vector<float> query(dims);
  for (float& v : query) v = static_cast<float>(0.3 + 0.4 * rng.Uniform());
  std::vector<std::vector<float>> rows(kRows, query);
  for (size_t r = 0; r < kRows; ++r) {
    std::vector<float>& row = rows[r];
    if (r % 3 == 0) {
      // One axis offset by eps (rounded to float), then nudged 0, +1 or -1
      // ulp: in every metric the distance sits on the boundary or one
      // coordinate ulp either side of it.
      const size_t axis = rng.UniformInt(dims);
      float c = static_cast<float>(query[axis] + eps);
      if (r % 9 == 3) c = std::nextafter(c, 2.0f);
      if (r % 9 == 6) c = std::nextafter(c, 0.0f);
      row[axis] = c;
      continue;
    }
    // Elsewhere a random direction scaled to within 1% of eps, so many
    // float scores land inside the rescue band.
    std::vector<double> dir(dims);
    double norm = 0.0;
    for (size_t k = 0; k < dims; ++k) {
      dir[k] = rng.Uniform() - 0.5;
      const double a = std::fabs(dir[k]);
      norm = metric == Metric::kL1   ? norm + a
             : metric == Metric::kL2 ? norm + a * a
                                     : std::max(norm, a);
    }
    if (metric == Metric::kL2) norm = std::sqrt(norm);
    const double scale = eps * (0.99 + 0.02 * rng.Uniform()) / norm;
    for (size_t k = 0; k < dims; ++k) {
      row[k] = static_cast<float>(query[k] + dir[k] * scale);
    }
  }
  std::vector<float> cols(kRows * dims);
  for (size_t r = 0; r < kRows; ++r) {
    for (size_t k = 0; k < dims; ++k) cols[k * kRows + r] = rows[r][k];
  }

  std::vector<size_t> counts;
  for (size_t c = 1; c <= 40; ++c) counts.push_back(c);
  counts.push_back(BatchDistanceKernel::kColumnRunCapacity);
  size_t rescued = 0;
  for (const KernelPath path : {KernelPath::kScalar, KernelPath::kPortable,
                                KernelPath::kAvx2, KernelPath::kAvx512}) {
    BatchDistanceKernel kernel(metric, dims, eps, path);
    for (const size_t count : counts) {
      for (const size_t offset : {size_t{0}, size_t{1}, size_t{5},
                                  kRows - count}) {
        const uint64_t bits = kernel.FilterWithinEpsilonColumns(
            query.data(), cols.data() + offset, kRows, count);
        if (count < 64) {
          ASSERT_EQ(0u, bits >> count) << "bits set past the run";
        }
        for (size_t i = 0; i < count; ++i) {
          const bool expected = reference.WithinEpsilon(
              query.data(), rows[offset + i].data(), dims, eps);
          ASSERT_EQ(expected, ((bits >> i) & 1) != 0)
              << "path=" << static_cast<int>(path)
              << " metric=" << MetricName(metric) << " dims=" << dims
              << " count=" << count << " offset=" << offset
              << " candidate=" << i;
        }
      }
    }
    if (path != KernelPath::kScalar) rescued += kernel.scalar_fallbacks();
  }
  EXPECT_GT(rescued, 0u) << "no candidate reached the rescue band";
}

INSTANTIATE_TEST_SUITE_P(Paths, ColumnKernelDifferentialTest,
                         ::testing::ValuesIn(Cases({1, 3, 4, 8, 12, 16, 17, 24,
                                                    33, 64})),
                         CaseName);

TEST(BatchKernelTest, CountersTallyBatchesAndFallbacks) {
  BatchDistanceKernel scalar(Metric::kL2, 8, 0.1, KernelPath::kScalar);
  Dataset data(64, 8);
  std::vector<const float*> rows;
  for (size_t i = 0; i < 64; ++i) rows.push_back(data.Row(static_cast<PointId>(i)));
  uint8_t mask[64];
  scalar.FilterWithinEpsilon(rows[0], rows.data(), 64, mask);
  EXPECT_EQ(0u, scalar.simd_batches());
  EXPECT_EQ(64u, scalar.scalar_fallbacks());

  BatchDistanceKernel portable(Metric::kL2, 8, 0.1, KernelPath::kPortable);
  portable.FilterWithinEpsilon(rows[0], rows.data(), 64, mask);
  EXPECT_EQ(1u, portable.simd_batches());
}

TEST(BufferedSinkTest, FlushesOnCapacityAndExplicitly) {
  VectorSink target;
  BufferedSink buffered(&target, /*capacity=*/4);
  for (PointId i = 0; i < 5; ++i) buffered.Emit(i, i + 1);
  EXPECT_EQ(4u, target.pairs().size());  // one capacity flush happened
  buffered.Flush();
  EXPECT_EQ(5u, target.pairs().size());
  EXPECT_EQ(IdPair(4, 5), target.pairs().back());
}

TEST(BufferedSinkTest, EmitBatchAppendsAndDestructorFlushes) {
  VectorSink target;
  {
    BufferedSink buffered(&target, /*capacity=*/16);
    const IdPair batch[3] = {{1, 2}, {3, 4}, {5, 6}};
    buffered.EmitBatch(std::span<const IdPair>(batch, 3));
    EXPECT_TRUE(target.pairs().empty());
  }
  EXPECT_EQ(3u, target.pairs().size());
}

TEST(PairSinkTest, DefaultEmitBatchForwardsToEmit) {
  std::vector<IdPair> got;
  CallbackSink sink([&got](PointId a, PointId b) { got.emplace_back(a, b); });
  const IdPair batch[2] = {{7, 8}, {9, 10}};
  sink.EmitBatch(std::span<const IdPair>(batch, 2));
  EXPECT_EQ(2u, got.size());
  EXPECT_EQ(IdPair(9, 10), got[1]);
}

}  // namespace
}  // namespace simjoin
