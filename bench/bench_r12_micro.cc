// Experiment R12 — micro-kernels (google-benchmark).
//
// The primitive costs everything else is built from: distance kernels per
// metric and dimensionality (full vs early-exit), the batch filter on both
// layouts (row-major tiles and the flat tree's dims-major column runs),
// stripe indexing, tree builds, and leaf sweeps.  These are throughput
// numbers, not figure reproductions; they calibrate the absolute scale of
// R1..R11.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "bench_util.h"

#include "baselines/kdtree.h"
#include "common/metric.h"
#include "common/simd_kernel.h"
#include "core/ekdb_tree.h"
#include "rtree/rtree.h"
#include "workload/generators.h"

namespace simjoin {
namespace {

Dataset MakePoints(size_t n, size_t dims, uint64_t seed) {
  return *GenerateUniform({.n = n, .dims = dims, .seed = seed});
}

void BM_FullDistance(benchmark::State& state) {
  const auto metric = static_cast<Metric>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  const Dataset data = MakePoints(1024, dims, 1);
  DistanceKernel kernel(metric);
  size_t i = 0;
  for (auto _ : state) {
    const PointId a = static_cast<PointId>(i % 1024);
    const PointId b = static_cast<PointId>((i * 7 + 1) % 1024);
    benchmark::DoNotOptimize(kernel.Distance(data.Row(a), data.Row(b), dims));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FullDistance)
    ->ArgsProduct({{static_cast<long>(Metric::kL1), static_cast<long>(Metric::kL2),
                    static_cast<long>(Metric::kLinf)},
                   {4, 16, 64}});

void BM_WithinEpsilonEarlyExit(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  const double eps = 0.05;  // selective: most tests exit early
  const Dataset data = MakePoints(1024, dims, 2);
  DistanceKernel kernel(Metric::kL2);
  size_t i = 0;
  for (auto _ : state) {
    const PointId a = static_cast<PointId>(i % 1024);
    const PointId b = static_cast<PointId>((i * 13 + 3) % 1024);
    benchmark::DoNotOptimize(
        kernel.WithinEpsilon(data.Row(a), data.Row(b), dims, eps));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WithinEpsilonEarlyExit)->Arg(4)->Arg(16)->Arg(64);

// --- Batch kernel filter: scalar reference vs the tiled SIMD layer. ---
//
// Both variants filter the same tile of kTileCapacity candidate rows against
// one query point per iteration; items processed = candidate tests, so the
// items/s ratio between BM_KernelFilterBatch and BM_KernelFilterScalar is
// the kernel-filter speedup the join hot paths inherit.

constexpr size_t kFilterTile = BatchDistanceKernel::kTileCapacity;

struct FilterFixture {
  Dataset data;
  std::vector<const float*> rows;
  FilterFixture(size_t dims, uint64_t seed) : data(MakePoints(1024, dims, seed)) {
    rows.reserve(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      rows.push_back(data.Row(static_cast<PointId>(i)));
    }
  }
};

void BM_KernelFilterScalar(benchmark::State& state) {
  const auto metric = static_cast<Metric>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  const double eps = 0.5;  // selective at d >= 16, so the scalar baseline
                           // keeps its early-exit advantage
  const FilterFixture fx(dims, 11);
  DistanceKernel kernel(metric);
  uint8_t mask[kFilterTile];
  size_t base = 0;
  for (auto _ : state) {
    const float* query = fx.rows[base % 1024];
    const float* const* tile = fx.rows.data() + (base * 7 + 1) % (1024 - kFilterTile);
    size_t kept = 0;
    for (size_t i = 0; i < kFilterTile; ++i) {
      mask[i] = kernel.WithinEpsilon(query, tile[i], dims, eps) ? 1 : 0;
      kept += mask[i];
    }
    benchmark::DoNotOptimize(kept);
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFilterTile));
}
BENCHMARK(BM_KernelFilterScalar)
    ->ArgsProduct({{static_cast<long>(Metric::kL1), static_cast<long>(Metric::kL2),
                    static_cast<long>(Metric::kLinf)},
                   {4, 16, 64}});

void BM_KernelFilterBatch(benchmark::State& state) {
  const auto metric = static_cast<Metric>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  const double eps = 0.5;
  const FilterFixture fx(dims, 11);
  BatchDistanceKernel kernel(metric, dims, eps);
  uint8_t mask[kFilterTile];
  size_t base = 0;
  for (auto _ : state) {
    const float* query = fx.rows[base % 1024];
    const float* const* tile = fx.rows.data() + (base * 7 + 1) % (1024 - kFilterTile);
    benchmark::DoNotOptimize(
        kernel.FilterWithinEpsilon(query, tile, kFilterTile, mask));
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFilterTile));
  state.counters["simd_batches"] = static_cast<double>(kernel.simd_batches());
  state.counters["scalar_fallbacks"] =
      static_cast<double>(kernel.scalar_fallbacks());
}
BENCHMARK(BM_KernelFilterBatch)
    ->ArgsProduct({{static_cast<long>(Metric::kL1), static_cast<long>(Metric::kL2),
                    static_cast<long>(Metric::kLinf)},
                   {4, 16, 64}});

// Strided variant: candidates are consecutive rows of a packed arena
// (base + i * stride), the layout the flat eps-k-d-B leaf arena feeds the
// kernels.  Compare items/s against BM_KernelFilterBatch to isolate the
// gather-elimination + prefetch win of the flat layout.
void BM_KernelFilterStrided(benchmark::State& state) {
  const auto metric = static_cast<Metric>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  const double eps = 0.5;
  const FilterFixture fx(dims, 11);
  BatchDistanceKernel kernel(metric, dims, eps);
  uint8_t mask[kFilterTile];
  size_t base = 0;
  for (auto _ : state) {
    const float* query = fx.rows[base % 1024];
    const size_t start = (base * 7 + 1) % (1024 - kFilterTile);
    const float* tile = fx.rows[start];
    benchmark::DoNotOptimize(kernel.FilterWithinEpsilonStrided(
        query, tile, dims, kFilterTile, mask, tile + kFilterTile * dims));
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFilterTile));
  state.counters["simd_batches"] = static_cast<double>(kernel.simd_batches());
}
BENCHMARK(BM_KernelFilterStrided)
    ->ArgsProduct({{static_cast<long>(Metric::kL1), static_cast<long>(Metric::kL2),
                    static_cast<long>(Metric::kLinf)},
                   {4, 16, 64}});

// Portable (auto-vectorized baseline ISA) variant, so the bench JSON also
// separates "float batching" from "AVX2 dispatch" gains.
void BM_KernelFilterPortable(benchmark::State& state) {
  const size_t dims = static_cast<size_t>(state.range(0));
  const double eps = 0.5;
  const FilterFixture fx(dims, 11);
  BatchDistanceKernel kernel(Metric::kL2, dims, eps, KernelPath::kPortable);
  uint8_t mask[kFilterTile];
  size_t base = 0;
  for (auto _ : state) {
    const float* query = fx.rows[base % 1024];
    const float* const* tile = fx.rows.data() + (base * 7 + 1) % (1024 - kFilterTile);
    benchmark::DoNotOptimize(
        kernel.FilterWithinEpsilon(query, tile, kFilterTile, mask));
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFilterTile));
}
BENCHMARK(BM_KernelFilterPortable)->Arg(4)->Arg(16)->Arg(64);

// Row-major strided tiles on one pinned tier (arg 0: KernelPath), L2, at
// the dimensionalities whose dims % 16 remainder the AVX-512 tier scores
// with 256-bit and masked steps.  The auto tier must not trail avx2 here.
void BM_KernelFilterStridedTier(benchmark::State& state) {
  const auto path = static_cast<KernelPath>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  const FilterFixture fx(dims, 11);
  BatchDistanceKernel kernel(Metric::kL2, dims, 0.5, path);
  uint8_t mask[kFilterTile];
  size_t base = 0;
  for (auto _ : state) {
    const float* query = fx.rows[base % 1024];
    const float* tile = fx.rows[(base * 7 + 1) % (1024 - kFilterTile)];
    benchmark::DoNotOptimize(kernel.FilterWithinEpsilonStrided(
        query, tile, dims, kFilterTile, mask));
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kFilterTile));
  state.SetLabel(std::to_string(static_cast<int>(kernel.path())));
}
BENCHMARK(BM_KernelFilterStridedTier)
    ->ArgsProduct({{static_cast<long>(KernelPath::kAuto),
                    static_cast<long>(KernelPath::kPortable),
                    static_cast<long>(KernelPath::kAvx2),
                    static_cast<long>(KernelPath::kAvx512)},
                   {8, 12, 16, 24}});

// Candidate-parallel column runs (the flat tree's leaf layout) on one
// pinned tier (arg 0: KernelPath), L2: runs of 25 candidates — the
// selfjoin workload's mean window — inside 48-row dims-major leaf blocks,
// so the column stride differs from the run length as it does in a leaf.
void BM_KernelFilterColumns(benchmark::State& state) {
  const auto path = static_cast<KernelPath>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  constexpr size_t kLeaf = 48;
  constexpr size_t kRun = 25;
  const Dataset data = MakePoints(1024, dims, 11);
  const size_t blocks = data.size() / kLeaf;
  std::vector<float> cols(blocks * kLeaf * dims);
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t r = 0; r < kLeaf; ++r) {
      const float* row = data.Row(static_cast<PointId>(b * kLeaf + r));
      for (size_t k = 0; k < dims; ++k) {
        cols[b * kLeaf * dims + k * kLeaf + r] = row[k];
      }
    }
  }
  BatchDistanceKernel kernel(Metric::kL2, dims, 0.5, path);
  size_t base = 0;
  for (auto _ : state) {
    const float* query = data.Row(static_cast<PointId>(base % 1024));
    const float* block = cols.data() + (base * 7 % blocks) * kLeaf * dims;
    benchmark::DoNotOptimize(kernel.FilterWithinEpsilonColumns(
        query, block + base % (kLeaf - kRun), kLeaf, kRun));
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRun));
  state.SetLabel(std::to_string(static_cast<int>(kernel.path())));
}
BENCHMARK(BM_KernelFilterColumns)
    ->ArgsProduct({{static_cast<long>(KernelPath::kScalar),
                    static_cast<long>(KernelPath::kPortable),
                    static_cast<long>(KernelPath::kAvx2),
                    static_cast<long>(KernelPath::kAvx512)},
                   {4, 8, 16, 32}});

// Register tiles on one pinned tier (arg 0: KernelPath), L2: kTileRows
// query rows read straight from one leaf block's columns against the same
// 25-candidate runs as BM_KernelFilterColumns.  Items are (row, candidate)
// lanes, so ns per item compares directly with the one-row numbers.
void BM_KernelFilterTile(benchmark::State& state) {
  const auto path = static_cast<KernelPath>(state.range(0));
  const size_t dims = static_cast<size_t>(state.range(1));
  constexpr size_t kLeaf = 48;
  constexpr size_t kRun = 25;
  constexpr size_t kRows = BatchDistanceKernel::kTileRows;
  const Dataset data = MakePoints(1024, dims, 11);
  const size_t blocks = data.size() / kLeaf;
  std::vector<float> cols(blocks * kLeaf * dims);
  for (size_t b = 0; b < blocks; ++b) {
    for (size_t r = 0; r < kLeaf; ++r) {
      const float* row = data.Row(static_cast<PointId>(b * kLeaf + r));
      for (size_t k = 0; k < dims; ++k) {
        cols[b * kLeaf * dims + k * kLeaf + r] = row[k];
      }
    }
  }
  BatchDistanceKernel kernel(Metric::kL2, dims, 0.5, path);
  uint64_t masks[kRows];
  size_t base = 0;
  for (auto _ : state) {
    const float* queries =
        cols.data() + (base * 5 % blocks) * kLeaf * dims + base % (kLeaf - kRows);
    const float* block = cols.data() + (base * 7 % blocks) * kLeaf * dims;
    kernel.FilterTileColumns(queries, kLeaf, kRows,
                             block + base % (kLeaf - kRun), kLeaf, kRun,
                             masks);
    benchmark::DoNotOptimize(masks);
    benchmark::ClobberMemory();
    ++base;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(kRows * kRun));
  state.SetLabel(std::to_string(static_cast<int>(kernel.path())));
}
BENCHMARK(BM_KernelFilterTile)
    ->ArgsProduct({{static_cast<long>(KernelPath::kScalar),
                    static_cast<long>(KernelPath::kPortable),
                    static_cast<long>(KernelPath::kAvx2),
                    static_cast<long>(KernelPath::kAvx512)},
                   {4, 8, 16, 32}});

void BM_EkdbBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = MakePoints(n, 8, 3);
  EkdbConfig config;
  config.epsilon = 0.05;
  config.leaf_threshold = 64;
  for (auto _ : state) {
    auto tree = EkdbTree::Build(data, config);
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_EkdbBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_RtreeBulkLoad(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = MakePoints(n, 8, 4);
  for (auto _ : state) {
    auto tree = RTree::BulkLoad(data, RTreeConfig{});
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_RtreeBulkLoad)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_KdTreeBuild(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Dataset data = MakePoints(n, 8, 6);
  for (auto _ : state) {
    auto tree = KdTree::Build(data, KdTreeConfig{});
    benchmark::DoNotOptimize(tree);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_KdTreeBuild)->Arg(1000)->Arg(10000)->Arg(50000);

void BM_EkdbRangeQuery(benchmark::State& state) {
  const Dataset data = MakePoints(20000, 8, 7);
  EkdbConfig config;
  config.epsilon = 0.05;
  auto tree = EkdbTree::Build(data, config);
  std::vector<PointId> hits;
  size_t i = 0;
  for (auto _ : state) {
    hits.clear();
    benchmark::DoNotOptimize(
        tree->RangeQuery(data.Row(static_cast<PointId>(i % data.size())),
                         0.05, &hits));
    ++i;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EkdbRangeQuery);

void BM_EkdbInsert(benchmark::State& state) {
  Dataset data = MakePoints(20000, 8, 8);
  EkdbConfig config;
  config.epsilon = 0.05;
  auto tree = EkdbTree::Build(data, config);
  // Cycle removals + inserts so the tree size stays constant.
  PointId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->Remove(id));
    benchmark::DoNotOptimize(tree->Insert(id));
    id = static_cast<PointId>((id + 1) % data.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_EkdbInsert);

void BM_StripeIndex(benchmark::State& state) {
  const Dataset data = MakePoints(2, 2, 5);
  EkdbConfig config;
  config.epsilon = 0.03;
  auto tree = EkdbTree::Build(data, config);
  float v = 0.0f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(tree->StripeIndex(v));
    v += 0.001f;
    if (v > 1.0f) v = 0.0f;
  }
}
BENCHMARK(BM_StripeIndex);

}  // namespace
}  // namespace simjoin

int main(int argc, char** argv) {
  // benchmark::Initialize consumes the --benchmark_* flags first, leaving the
  // shared bench flags (--threads) for InitBenchArgs.
  benchmark::Initialize(&argc, argv);
  if (!simjoin::bench::InitBenchArgs(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
