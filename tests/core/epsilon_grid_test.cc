// Tests of the epsilon-grid backend: correctness against the brute-force
// oracle, contract parity with the flat tree (same id sets for the same
// queries), and fused-vs-solo bit-identity.

#include "core/epsilon_grid.h"

#include <algorithm>
#include <string>
#include <vector>

#include "common/metric.h"
#include "common/rng.h"
#include "core/ekdb_tree.h"
#include "core/index_backend.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

EkdbConfig Config(double epsilon, Metric metric = Metric::kL2) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.metric = metric;
  return config;
}

Dataset UniformData(size_t n, size_t dims, uint64_t seed) {
  Rng rng(seed);
  Dataset data(n, dims);
  for (size_t i = 0; i < n; ++i) {
    float* row = data.MutableRow(static_cast<PointId>(i));
    for (size_t d = 0; d < dims; ++d) {
      row[d] = static_cast<float>(rng.Uniform());
    }
  }
  return data;
}

std::vector<PointId> OracleNeighbours(const Dataset& data, const float* query,
                                      double eps, Metric metric) {
  DistanceKernel kernel(metric);
  std::vector<PointId> out;
  for (size_t i = 0; i < data.size(); ++i) {
    const auto id = static_cast<PointId>(i);
    if (kernel.WithinEpsilon(query, data.Row(id), data.dims(), eps)) {
      out.push_back(id);
    }
  }
  return out;
}

TEST(EpsilonGridTest, MatchesBruteForceAcrossDimsMetricsAndRadii) {
  for (const size_t dims : {1, 2, 3, 4, 16}) {
    for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLinf}) {
      const double eps = 0.15;
      const Dataset data = UniformData(800, dims, 0x9d1d + dims);
      auto grid = EpsilonGrid::Build(data, Config(eps, metric));
      ASSERT_TRUE(grid.ok()) << grid.status().ToString();
      for (size_t q = 0; q < 24; ++q) {
        const float* query = data.Row(static_cast<PointId>(q * 31 % 800));
        const double eps_query = q % 2 == 0 ? eps : eps * 0.4;
        std::vector<PointId> got;
        JoinStats stats;
        ASSERT_TRUE(grid->RangeQuery(query, eps_query, &got, &stats).ok());
        std::vector<PointId> sorted_got = got;
        std::sort(sorted_got.begin(), sorted_got.end());
        EXPECT_EQ(sorted_got,
                  OracleNeighbours(data, query, eps_query, metric))
            << "d" << dims << " " << MetricName(metric) << " q" << q;
        EXPECT_GE(stats.candidate_pairs, got.size());
        EXPECT_EQ(stats.pairs_emitted, got.size());
      }
    }
  }
}

TEST(EpsilonGridTest, FusedMatchesSoloExactly) {
  const double eps = 0.12;
  for (const size_t dims : {2, 3, 16}) {
    const Dataset data = UniformData(1000, dims, 0xf00d + dims);
    auto grid = EpsilonGrid::Build(data, Config(eps));
    ASSERT_TRUE(grid.ok()) << grid.status().ToString();

    std::vector<RangeQuerySpec> specs;
    Rng rng(0x77 + dims);
    for (size_t i = 0; i < 64; ++i) {
      const double e = i % 3 == 0 ? eps : eps * (0.3 + 0.5 * rng.Uniform());
      specs.push_back(
          RangeQuerySpec{data.Row(static_cast<PointId>(i * 13 % 1000)), e});
    }

    std::vector<std::vector<PointId>> solo(specs.size());
    std::vector<JoinStats> solo_stats(specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      ASSERT_TRUE(grid->RangeQuery(specs[i].query, specs[i].epsilon, &solo[i],
                                   &solo_stats[i])
                      .ok());
    }
    std::vector<std::vector<PointId>> fused;
    std::vector<JoinStats> fused_stats;
    ASSERT_TRUE(
        grid->RangeQueryBatch(specs.data(), specs.size(), &fused, &fused_stats)
            .ok());
    ASSERT_EQ(fused.size(), specs.size());
    for (size_t i = 0; i < specs.size(); ++i) {
      EXPECT_EQ(solo[i], fused[i]) << "d" << dims << " query " << i;
      EXPECT_EQ(solo_stats[i].candidate_pairs, fused_stats[i].candidate_pairs);
      EXPECT_EQ(solo_stats[i].distance_calls, fused_stats[i].distance_calls);
      EXPECT_EQ(solo_stats[i].pairs_emitted, fused_stats[i].pairs_emitted);
      EXPECT_EQ(solo_stats[i].simd_batches, fused_stats[i].simd_batches);
      EXPECT_EQ(solo_stats[i].scalar_fallbacks,
                fused_stats[i].scalar_fallbacks);
    }
  }
}

TEST(EpsilonGridTest, SameIdSetsAsFlatTree) {
  const double eps = 0.1;
  const Dataset data = UniformData(700, 3, 0xabc);
  auto grid = EpsilonGrid::Build(data, Config(eps));
  ASSERT_TRUE(grid.ok());
  auto tree = EkdbTree::Build(data, Config(eps));
  ASSERT_TRUE(tree.ok());
  auto flat = FlatEkdbTree::FromTree(*tree);
  ASSERT_TRUE(flat.ok());
  for (size_t q = 0; q < 32; ++q) {
    const float* query = data.Row(static_cast<PointId>(q * 17 % 700));
    std::vector<PointId> from_grid, from_tree;
    ASSERT_TRUE(grid->RangeQuery(query, eps, &from_grid).ok());
    ASSERT_TRUE(flat->RangeQuery(query, eps, &from_tree).ok());
    std::sort(from_grid.begin(), from_grid.end());
    std::sort(from_tree.begin(), from_tree.end());
    EXPECT_EQ(from_grid, from_tree) << "query " << q;
  }
}

TEST(EpsilonGridTest, ValidationMatchesTreeContract) {
  const double eps = 0.2;
  const Dataset data = UniformData(100, 2, 0x5);
  auto grid = EpsilonGrid::Build(data, Config(eps));
  ASSERT_TRUE(grid.ok());
  EXPECT_TRUE(grid->ValidateQueryEpsilon(eps).ok());
  EXPECT_TRUE(grid->ValidateQueryEpsilon(eps * 0.5).ok());
  EXPECT_FALSE(grid->ValidateQueryEpsilon(0.0).ok());
  EXPECT_FALSE(grid->ValidateQueryEpsilon(eps * 1.01).ok());
  std::vector<PointId> out;
  EXPECT_FALSE(grid->RangeQuery(data.Row(0), eps * 2, &out).ok());

  Dataset empty;
  EXPECT_FALSE(EpsilonGrid::Build(empty, Config(eps)).ok());
}

TEST(EpsilonGridTest, BackendWireCodecRejectsUnknownValues) {
  auto flat = BackendKindFromWire(0);
  ASSERT_TRUE(flat.ok());
  EXPECT_EQ(*flat, BackendKind::kEkdbFlat);
  auto grid = BackendKindFromWire(1);
  ASSERT_TRUE(grid.ok());
  EXPECT_EQ(*grid, BackendKind::kEpsilonGrid);
  auto lsh = BackendKindFromWire(2);
  ASSERT_TRUE(lsh.ok());
  EXPECT_EQ(*lsh, BackendKind::kLsh);
  auto brute = BackendKindFromWire(3);
  ASSERT_TRUE(brute.ok());
  EXPECT_EQ(*brute, BackendKind::kBruteSimd);
  // 4 was the retired R-tree serving backend; the value stays unused.
  EXPECT_FALSE(BackendKindFromWire(4).ok());
  auto updatable = BackendKindFromWire(5);
  ASSERT_TRUE(updatable.ok());
  EXPECT_EQ(*updatable, BackendKind::kUpdatable);
  EXPECT_FALSE(BackendKindFromWire(6).ok());
  EXPECT_FALSE(BackendKindFromWire(255).ok());
  // Only the structural kinds may anchor a build; the rest are per-query
  // tiers (0xFF is the wire's "auto" marker, never a kind).
  EXPECT_TRUE(BackendKindBuildable(BackendKind::kEkdbFlat));
  EXPECT_TRUE(BackendKindBuildable(BackendKind::kEpsilonGrid));
  EXPECT_TRUE(BackendKindBuildable(BackendKind::kUpdatable));
  EXPECT_FALSE(BackendKindBuildable(BackendKind::kLsh));
  EXPECT_FALSE(BackendKindBuildable(BackendKind::kBruteSimd));
}

/// Respects the cell-table cap: a tiny epsilon in 3-d would want millions of
/// cells; the build must degrade the binned-dim count instead of exploding.
TEST(EpsilonGridTest, CellTableCapDegradesGracefully) {
  const Dataset data = UniformData(500, 3, 0x42);
  auto grid = EpsilonGrid::Build(data, Config(0.0005));
  ASSERT_TRUE(grid.ok()) << grid.status().ToString();
  EXPECT_LE(grid->num_cells(), EpsilonGrid::kMaxCells);
  EXPECT_LT(grid->binned_dims().size(), 3u);
  // Still correct.
  std::vector<PointId> got;
  ASSERT_TRUE(grid->RangeQuery(data.Row(0), 0.0005, &got).ok());
  std::vector<PointId> sorted_got = got;
  std::sort(sorted_got.begin(), sorted_got.end());
  EXPECT_EQ(sorted_got,
            OracleNeighbours(data, data.Row(0), 0.0005, Metric::kL2));
}

}  // namespace
}  // namespace simjoin
