// Differential tests of fused batch range queries against independent solo
// execution.  RangeQueryBatch promises bit-identical per-query id sequences
// AND bit-identical per-query JoinStats, on every kernel dispatch tier, so
// a caller may use the multi-query entry point or the single-query loop
// interchangeably.

#include <cstdlib>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/ekdb_flat.h"
#include "core/ekdb_tree.h"
#include "workload/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

EkdbConfig Config(double epsilon, Metric metric = Metric::kL2) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = 16;
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

FlatEkdbTree BuildFlat(const Dataset& data, const EkdbConfig& config) {
  auto tree = EkdbTree::Build(data, config);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  auto flat = FlatEkdbTree::FromTree(*tree);
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  return std::move(flat).value();
}

void ExpectSameStats(const JoinStats& a, const JoinStats& b,
                     const std::string& label) {
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs) << label;
  EXPECT_EQ(a.distance_calls, b.distance_calls) << label;
  EXPECT_EQ(a.node_pairs_visited, b.node_pairs_visited) << label;
  EXPECT_EQ(a.node_pairs_pruned, b.node_pairs_pruned) << label;
  EXPECT_EQ(a.pairs_emitted, b.pairs_emitted) << label;
  EXPECT_EQ(a.simd_batches, b.simd_batches) << label;
  EXPECT_EQ(a.scalar_fallbacks, b.scalar_fallbacks) << label;
}

/// Runs every spec solo, runs the same specs fused, and checks per-query
/// output sequences and stats for exact equality.
void RunDifferential(const FlatEkdbTree& flat,
                     const std::vector<RangeQuerySpec>& specs,
                     const std::string& label) {
  std::vector<std::vector<PointId>> solo(specs.size());
  std::vector<JoinStats> solo_stats(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const Status st = flat.RangeQuery(specs[i].query, specs[i].epsilon,
                                      &solo[i], &solo_stats[i]);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  std::vector<std::vector<PointId>> fused;
  std::vector<JoinStats> fused_stats;
  const Status st =
      flat.RangeQueryBatch(specs.data(), specs.size(), &fused, &fused_stats);
  ASSERT_TRUE(st.ok()) << st.ToString();
  ASSERT_EQ(fused.size(), specs.size());
  ASSERT_EQ(fused_stats.size(), specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const std::string at = label + " query " + std::to_string(i);
    // Exact sequence equality, not set equality: the batch must preserve the
    // solo traversal's emission order.
    EXPECT_EQ(solo[i], fused[i]) << at;
    ExpectSameStats(solo_stats[i], fused_stats[i], at);
  }
}

std::vector<RangeQuerySpec> MakeSpecs(const Dataset& data, size_t count,
                                      double build_eps, uint64_t seed) {
  Rng rng(seed);
  std::vector<RangeQuerySpec> specs;
  for (size_t i = 0; i < count; ++i) {
    const auto id = static_cast<PointId>((i * 37) % data.size());
    // Mixed radii exercise the batch kernel's SetEpsilon re-binding.
    const double eps = (i % 3 == 0) ? build_eps : build_eps * (0.3 + 0.5 * rng.Uniform());
    specs.push_back(RangeQuerySpec{data.Row(id), eps});
  }
  return specs;
}

TEST(BatchRangeQueryTest, FusedMatchesSoloAcrossDimsAndMetrics) {
  for (const size_t dims : {2, 8, 16}) {
    for (const Metric metric : {Metric::kL2, Metric::kL1, Metric::kLinf}) {
      const double eps = 0.15;
      const Dataset data = UniformData(1500, dims, 0xba7c + dims);
      const FlatEkdbTree flat = BuildFlat(data, Config(eps, metric));
      const auto specs = MakeSpecs(data, 96, eps, 0x5eed + dims);
      RunDifferential(flat, specs,
                      "d" + std::to_string(dims) + " " + MetricName(metric));
    }
  }
}

TEST(BatchRangeQueryTest, FusedMatchesSoloOnEveryKernelPath) {
  const double eps = 0.12;
  const Dataset data = UniformData(1200, 16, 0xfeed);
  const FlatEkdbTree flat = BuildFlat(data, Config(eps));
  const auto specs = MakeSpecs(data, 64, eps, 0xcafe);
  for (const char* path : {"scalar", "portable", "avx2", "avx512"}) {
    ASSERT_EQ(setenv("SIMJOIN_KERNEL_PATH", path, 1), 0);
    RunDifferential(flat, specs, std::string("path=") + path);
  }
  unsetenv("SIMJOIN_KERNEL_PATH");
}

TEST(BatchRangeQueryTest, EmptyAndSingletonBatches) {
  const double eps = 0.1;
  const Dataset data = UniformData(300, 4, 0x11);
  const FlatEkdbTree flat = BuildFlat(data, Config(eps));

  std::vector<std::vector<PointId>> results = {{1, 2, 3}};
  std::vector<JoinStats> stats;
  ASSERT_TRUE(flat.RangeQueryBatch(nullptr, 0, &results, &stats).ok());
  EXPECT_TRUE(results.empty());
  EXPECT_TRUE(stats.empty());

  const RangeQuerySpec one{data.Row(0), eps};
  ASSERT_TRUE(flat.RangeQueryBatch(&one, 1, &results, &stats).ok());
  ASSERT_EQ(results.size(), 1u);
  std::vector<PointId> solo;
  ASSERT_TRUE(flat.RangeQuery(one.query, one.epsilon, &solo).ok());
  EXPECT_EQ(results[0], solo);
}

TEST(BatchRangeQueryTest, RejectsInvalidSpecsUpFront) {
  const double eps = 0.1;
  const Dataset data = UniformData(200, 4, 0x22);
  const FlatEkdbTree flat = BuildFlat(data, Config(eps));

  std::vector<std::vector<PointId>> results;
  const RangeQuerySpec bad_eps[] = {{data.Row(0), eps}, {data.Row(1), eps * 2}};
  EXPECT_FALSE(flat.RangeQueryBatch(bad_eps, 2, &results, nullptr).ok());
  const RangeQuerySpec null_query[] = {{nullptr, eps}};
  EXPECT_FALSE(flat.RangeQueryBatch(null_query, 1, &results, nullptr).ok());
  EXPECT_FALSE(flat.RangeQueryBatch(bad_eps, 2, nullptr, nullptr).ok());
  // The factored validator answers exactly like RangeQuery would.
  EXPECT_TRUE(flat.ValidateQueryEpsilon(eps).ok());
  EXPECT_FALSE(flat.ValidateQueryEpsilon(0.0).ok());
  EXPECT_FALSE(flat.ValidateQueryEpsilon(eps * 1.5).ok());
}

/// Duplicate specs (same pointer, same radius) must each get the full solo
/// answer — the batch must not dedup or cross-wire queries.
TEST(BatchRangeQueryTest, DuplicateQueriesEachGetFullResults) {
  const double eps = 0.2;
  const Dataset data = UniformData(600, 8, 0x33);
  const FlatEkdbTree flat = BuildFlat(data, Config(eps));
  std::vector<RangeQuerySpec> specs(8, RangeQuerySpec{data.Row(5), eps});
  RunDifferential(flat, specs, "duplicates");
}

}  // namespace
}  // namespace simjoin
