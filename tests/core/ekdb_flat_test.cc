// Differential tests of the flat (pointer-free) eps-k-d-B tree against the
// pointer tree it is built from.  The flat form must emit bit-identical
// pair/id sets for self-joins, two-tree joins, epsilon overrides, parallel
// drivers, and range queries — across workloads, dimensionalities, and
// metrics, and after a Save/Load round trip.

#include "core/ekdb_flat.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/ekdb_flat_join.h"
#include "core/ekdb_join.h"
#include "core/parallel_join.h"
#include "workload/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

using testing_util::ExpectSamePairs;
using testing_util::MakeDataset;

EkdbConfig Config(double epsilon, size_t leaf_threshold = 16,
                  Metric metric = Metric::kL2) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = leaf_threshold;
  config.metric = metric;
  return config;
}

FlatEkdbTree Flatten(const EkdbTree& tree) {
  auto flat = FlatEkdbTree::FromTree(tree);
  EXPECT_TRUE(flat.ok()) << flat.status().ToString();
  return std::move(flat).value();
}

// ---------------------------------------------------------------------------
// Randomized differential suite: uniform + clustered, d in {4, 16, 64},
// L1 / L2 / Linf, self and non-self.

struct FlatDiffCase {
  const char* workload;  // "uniform" | "clustered"
  size_t dims;
  Metric metric;
  double epsilon;
};

/// Generates the case's point cloud and plants near-duplicates displaced by
/// well under epsilon/dims per coordinate, so every combination — even
/// high-dimensional uniform noise, where organic pairs are rare — joins a
/// known non-empty pair set.
Dataset MakeData(const FlatDiffCase& c, size_t n, uint64_t seed) {
  Result<Dataset> base =
      std::string(c.workload) == "uniform"
          ? GenerateUniform({.n = n, .dims = c.dims, .seed = seed})
          : GenerateClustered(
                {.n = n,
                 .dims = c.dims,
                 .clusters = 6,
                 .sigma = c.epsilon / (3.0 * std::sqrt(static_cast<double>(c.dims))),
                 .seed = seed});
  EXPECT_TRUE(base.ok()) << base.status().ToString();
  auto planted = PlantNearDuplicates(
      *base, 25, c.epsilon / (4.0 * static_cast<double>(c.dims)), seed + 1);
  EXPECT_TRUE(planted.ok()) << planted.status().ToString();
  return std::move(planted).value();
}

class FlatDifferentialTest : public ::testing::TestWithParam<FlatDiffCase> {};

TEST_P(FlatDifferentialTest, SelfJoinMatchesPointerTree) {
  const FlatDiffCase c = GetParam();
  const Dataset data = MakeData(c, 700, 42);
  auto tree = EkdbTree::Build(data, Config(c.epsilon, 16, c.metric));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const FlatEkdbTree flat = Flatten(*tree);

  VectorSink pointer_sink;
  ASSERT_TRUE(EkdbSelfJoin(*tree, &pointer_sink).ok());
  const auto expected = pointer_sink.Sorted();
  ASSERT_FALSE(expected.empty());  // planted duplicates guarantee pairs

  VectorSink flat_sink;
  JoinStats stats;
  ASSERT_TRUE(FlatEkdbSelfJoin(flat, &flat_sink, &stats).ok());
  ExpectSamePairs(expected, flat_sink.Sorted(), "flat self-join");
  EXPECT_EQ(stats.pairs_emitted, expected.size());
  EXPECT_GT(stats.candidate_pairs, 0u);

  VectorSink parallel_sink;
  ASSERT_TRUE(ParallelFlatEkdbSelfJoin(flat, {.num_threads = 3,
                                              .min_task_points = 64},
                                       &parallel_sink)
                  .ok());
  ExpectSamePairs(expected, parallel_sink.Sorted(), "parallel flat self-join");

  // Epsilon override: both representations narrowed to the same radius.
  const double eps_q = 0.7 * c.epsilon;
  VectorSink pointer_narrow, flat_narrow;
  ASSERT_TRUE(EkdbSelfJoinWithEpsilon(*tree, eps_q, &pointer_narrow).ok());
  ASSERT_TRUE(FlatEkdbSelfJoinWithEpsilon(flat, eps_q, &flat_narrow).ok());
  ExpectSamePairs(pointer_narrow.Sorted(), flat_narrow.Sorted(),
                  "flat self-join with epsilon override");
}

TEST_P(FlatDifferentialTest, CrossJoinMatchesPointerTree) {
  const FlatDiffCase c = GetParam();
  const Dataset data_a = MakeData(c, 600, 7);
  const Dataset data_b = MakeData(c, 500, 8);
  // Different leaf thresholds put the two trees' leaves at different depths,
  // which exercises the mismatched-sort-dimension leaf sweeps.
  auto tree_a = EkdbTree::Build(data_a, Config(c.epsilon, 8, c.metric));
  auto tree_b = EkdbTree::Build(data_b, Config(c.epsilon, 32, c.metric));
  ASSERT_TRUE(tree_a.ok()) << tree_a.status().ToString();
  ASSERT_TRUE(tree_b.ok()) << tree_b.status().ToString();
  const FlatEkdbTree flat_a = Flatten(*tree_a);
  const FlatEkdbTree flat_b = Flatten(*tree_b);

  VectorSink pointer_sink;
  ASSERT_TRUE(EkdbJoin(*tree_a, *tree_b, &pointer_sink).ok());
  const auto expected = pointer_sink.Sorted();

  VectorSink flat_sink;
  ASSERT_TRUE(FlatEkdbJoin(flat_a, flat_b, &flat_sink).ok());
  ExpectSamePairs(expected, flat_sink.Sorted(), "flat cross join");

  VectorSink parallel_sink;
  ASSERT_TRUE(ParallelFlatEkdbJoin(flat_a, flat_b,
                                   {.num_threads = 3, .min_task_points = 64},
                                   &parallel_sink)
                  .ok());
  ExpectSamePairs(expected, parallel_sink.Sorted(), "parallel flat cross join");

  const double eps_q = 0.6 * c.epsilon;
  VectorSink pointer_narrow, flat_narrow;
  ASSERT_TRUE(
      EkdbJoinWithEpsilon(*tree_a, *tree_b, eps_q, &pointer_narrow).ok());
  ASSERT_TRUE(
      FlatEkdbJoinWithEpsilon(flat_a, flat_b, eps_q, &flat_narrow).ok());
  ExpectSamePairs(pointer_narrow.Sorted(), flat_narrow.Sorted(),
                  "flat cross join with epsilon override");
}

TEST_P(FlatDifferentialTest, RangeQueryMatchesPointerTree) {
  const FlatDiffCase c = GetParam();
  const Dataset data = MakeData(c, 600, 13);
  auto tree = EkdbTree::Build(data, Config(c.epsilon, 16, c.metric));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  const FlatEkdbTree flat = Flatten(*tree);

  auto queries = GenerateUniform({.n = 20, .dims = c.dims, .seed = 99});
  ASSERT_TRUE(queries.ok());
  for (const double eps_q : {c.epsilon, 0.5 * c.epsilon}) {
    // Indexed points as queries (guaranteed non-empty results) plus uniform
    // probes (often empty results).
    for (size_t qi = 0; qi < 40; ++qi) {
      const float* q = qi < 20 ? data.Row(static_cast<PointId>(qi * 7))
                               : queries->Row(qi - 20);
      std::vector<PointId> pointer_ids, flat_ids;
      ASSERT_TRUE(tree->RangeQuery(q, eps_q, &pointer_ids).ok());
      ASSERT_TRUE(flat.RangeQuery(q, eps_q, &flat_ids).ok());
      std::sort(pointer_ids.begin(), pointer_ids.end());
      std::sort(flat_ids.begin(), flat_ids.end());
      EXPECT_EQ(pointer_ids, flat_ids)
          << "range query " << qi << " at eps " << eps_q;
    }
  }
}

TEST_P(FlatDifferentialTest, SelfJoinMatchesAfterSaveLoad) {
  const FlatDiffCase c = GetParam();
  const Dataset data = MakeData(c, 500, 21);
  auto tree = EkdbTree::Build(data, Config(c.epsilon, 16, c.metric));
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();

  // Parameterized test names contain '/', which cannot appear in a file
  // name component.
  std::string test_name =
      ::testing::UnitTest::GetInstance()->current_test_info()->name();
  std::replace(test_name.begin(), test_name.end(), '/', '_');
  const std::string path =
      ::testing::TempDir() + "/flat_roundtrip_" + test_name + ".sjet";
  ASSERT_TRUE(tree->Save(path).ok());
  auto flat = FlatEkdbTree::Load(data, path);
  std::remove(path.c_str());
  ASSERT_TRUE(flat.ok()) << flat.status().ToString();

  VectorSink pointer_sink, flat_sink;
  ASSERT_TRUE(EkdbSelfJoin(*tree, &pointer_sink).ok());
  ASSERT_TRUE(FlatEkdbSelfJoin(*flat, &flat_sink).ok());
  ExpectSamePairs(pointer_sink.Sorted(), flat_sink.Sorted(),
                  "flat self-join after Save/Load");
}

std::vector<FlatDiffCase> AllDiffCases() {
  std::vector<FlatDiffCase> cases;
  for (const char* workload : {"uniform", "clustered"}) {
    for (const size_t dims : {size_t{4}, size_t{16}, size_t{64}}) {
      for (const Metric metric : {Metric::kL1, Metric::kL2, Metric::kLinf}) {
        // Wider radii keep high-dimensional result sets non-trivial while
        // still giving the stripe grid at least two stripes.
        const double eps = dims == 4 ? 0.2 : dims == 16 ? 0.35 : 0.45;
        cases.push_back(FlatDiffCase{workload, dims, metric, eps});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombos, FlatDifferentialTest, ::testing::ValuesIn(AllDiffCases()),
    [](const ::testing::TestParamInfo<FlatDiffCase>& info) {
      const FlatDiffCase& c = info.param;
      return std::string(c.workload) + "_d" + std::to_string(c.dims) + "_" +
             MetricName(c.metric);
    });

// ---------------------------------------------------------------------------
// Ablation flags must behave identically on both representations.

TEST(FlatEkdbJoinTest, AblationFlagsStillMatchPointerTree) {
  auto data = GenerateClustered(
      {.n = 600, .dims = 4, .clusters = 5, .sigma = 0.04, .seed = 5});
  ASSERT_TRUE(data.ok());
  for (const bool bbox : {true, false}) {
    for (const bool window : {true, false}) {
      EkdbConfig config = Config(0.15, 16);
      config.bbox_pruning = bbox;
      config.sliding_window_leaf_join = window;
      auto tree = EkdbTree::Build(*data, config);
      ASSERT_TRUE(tree.ok());
      const FlatEkdbTree flat = Flatten(*tree);
      VectorSink pointer_sink, flat_sink;
      ASSERT_TRUE(EkdbSelfJoin(*tree, &pointer_sink).ok());
      ASSERT_TRUE(FlatEkdbSelfJoin(flat, &flat_sink).ok());
      ExpectSamePairs(pointer_sink.Sorted(), flat_sink.Sorted(),
                      (std::string("ablation bbox=") + (bbox ? "1" : "0") +
                       " window=" + (window ? "1" : "0"))
                          .c_str());
    }
  }
}

// ---------------------------------------------------------------------------
// Structural invariants of the flattened form.

TEST(FlatEkdbTreeTest, StructureMirrorsPointerTree) {
  auto data = GenerateClustered(
      {.n = 900, .dims = 6, .clusters = 7, .sigma = 0.05, .seed = 3});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.12, 16));
  ASSERT_TRUE(tree.ok());
  const FlatEkdbTree flat = Flatten(*tree);

  const EkdbTreeStats stats = tree->ComputeStats();
  EXPECT_EQ(flat.num_nodes(), stats.nodes);
  ASSERT_EQ(flat.arena_size(), data->size());

  // Arena ids are a permutation of the dataset ids.
  std::vector<PointId> ids(flat.arena_ids_data(),
                           flat.arena_ids_data() + flat.arena_size());
  std::sort(ids.begin(), ids.end());
  for (size_t i = 0; i < ids.size(); ++i) {
    ASSERT_EQ(ids[i], static_cast<PointId>(i));
  }

  uint64_t leaves = 0;
  uint64_t leaf_points = 0;
  for (uint32_t idx = 0; idx < flat.num_nodes(); ++idx) {
    const FlatEkdbNode& node = flat.node(idx);
    if (node.is_leaf()) {
      ++leaves;
      // Every leaf column holds the original coordinates of the leaf's rows
      // (remapped by arena_id), and the sort_dim column is ascending.
      const uint32_t size = node.subtree_points();
      const float* cols = flat.leaf_columns(node);
      ASSERT_EQ(cols, flat.arena_data() +
                          static_cast<size_t>(node.arena_begin) * flat.dims());
      for (uint32_t r = 0; r < size; ++r) {
        const float* dataset_row =
            data->Row(flat.arena_id(node.arena_begin + r));
        for (size_t k = 0; k < flat.dims(); ++k) {
          ASSERT_EQ(cols[k * size + r], dataset_row[k])
              << "leaf " << idx << " row " << r << " dim " << k;
        }
      }
      const float* key = cols + static_cast<size_t>(node.sort_dim) * size;
      for (uint32_t r = 1; r < size; ++r) ASSERT_LE(key[r - 1], key[r]);
      leaf_points += size;
      continue;
    }
    // Children are a contiguous stripe-sorted index range whose arena
    // ranges tile the parent's exactly.
    const FlatEkdbNode& first = flat.node(node.children_begin);
    EXPECT_EQ(first.arena_begin, node.arena_begin);
    uint32_t expected_begin = node.arena_begin;
    for (uint32_t c = node.children_begin;
         c < node.children_begin + node.children_count; ++c) {
      const FlatEkdbNode& child = flat.node(c);
      EXPECT_EQ(child.depth, node.depth + 1);
      EXPECT_EQ(child.arena_begin, expected_begin);
      expected_begin = child.arena_end;
      if (c > node.children_begin) {
        EXPECT_LT(flat.node(c - 1).stripe, child.stripe);
      }
    }
    EXPECT_EQ(expected_begin, node.arena_end);
  }
  EXPECT_EQ(leaves, stats.leaves);
  EXPECT_EQ(leaf_points, data->size()) << "leaf blocks must tile the arena";
  EXPECT_EQ(flat.node(FlatEkdbTree::kRoot).subtree_points(), data->size());
}

TEST(FlatEkdbTreeTest, FillStatsReportsBothRepresentations) {
  auto data = GenerateUniform({.n = 2000, .dims = 8, .seed = 17});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.1, 32));
  ASSERT_TRUE(tree.ok());
  const FlatEkdbTree flat = Flatten(*tree);

  EkdbTreeStats stats = tree->ComputeStats();
  EXPECT_GT(stats.bytes_per_point, 0.0);
  EXPECT_EQ(stats.flat_node_bytes, 0u);  // ComputeStats leaves flat fields
  flat.FillStats(&stats);
  EXPECT_EQ(stats.flat_node_bytes, flat.node_bytes());
  EXPECT_EQ(stats.flat_arena_bytes, flat.arena_bytes());
  EXPECT_GT(stats.flat_bytes_per_point, 0.0);
  // The arena stores dims floats plus one id per point, at minimum.
  EXPECT_GE(flat.arena_bytes(),
            data->size() * (flat.dims() * sizeof(float) + sizeof(PointId)));
}

TEST(FlatEkdbTreeTest, SingleLeafTreeStillJoins) {
  // Tiny dataset below the leaf threshold: the whole tree is one leaf.
  const Dataset ds = MakeDataset({{0.10f, 0.10f},
                                  {0.15f, 0.10f},
                                  {0.10f, 0.17f},
                                  {0.90f, 0.90f}});
  auto tree = EkdbTree::Build(ds, Config(0.1, 16));
  ASSERT_TRUE(tree.ok());
  const FlatEkdbTree flat = Flatten(*tree);
  EXPECT_EQ(flat.num_nodes(), 1u);
  VectorSink sink;
  ASSERT_TRUE(FlatEkdbSelfJoin(flat, &sink).ok());
  const auto pairs = sink.Sorted();
  ASSERT_EQ(pairs.size(), 3u);
  EXPECT_EQ(pairs[0], (IdPair{0, 1}));
  EXPECT_EQ(pairs[1], (IdPair{0, 2}));
  EXPECT_EQ(pairs[2], (IdPair{1, 2}));
}

// ---------------------------------------------------------------------------
// Error handling.

TEST(FlatEkdbTreeTest, RejectsInvalidArguments) {
  auto data = GenerateUniform({.n = 100, .dims = 3, .seed = 1});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.2, 16));
  ASSERT_TRUE(tree.ok());
  const FlatEkdbTree flat = Flatten(*tree);

  EXPECT_FALSE(FlatEkdbSelfJoin(flat, nullptr).ok());
  std::vector<PointId> out;
  const float* q = data->Row(0);
  EXPECT_FALSE(flat.RangeQuery(q, 0.0, &out).ok());
  EXPECT_FALSE(flat.RangeQuery(q, 0.5, &out).ok());  // above build epsilon
  EXPECT_FALSE(flat.RangeQuery(q, 0.1, nullptr).ok());

  // Join-incompatible flat trees are rejected.
  auto other_tree = EkdbTree::Build(*data, Config(0.1, 16));
  ASSERT_TRUE(other_tree.ok());
  const FlatEkdbTree other = Flatten(*other_tree);
  VectorSink sink;
  EXPECT_FALSE(FlatEkdbJoin(flat, other, &sink).ok());
  EXPECT_FALSE(FlatEkdbJoinWithEpsilon(flat, other, 0.05, &sink).ok());
  EXPECT_FALSE(
      ParallelFlatEkdbJoin(flat, other, {.num_threads = 2}, &sink).ok());
}

TEST(FlatEkdbTreeTest, ParallelFromTreeMatchesSequential) {
  auto data = GenerateClustered({.n = 60000,
                                 .dims = 6,
                                 .clusters = 12,
                                 .sigma = 0.04,
                                 .seed = 71});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.06, 32));
  ASSERT_TRUE(tree.ok());

  auto seq = FlatEkdbTree::FromTree(*tree);
  ASSERT_TRUE(seq.ok());
  for (size_t threads : {size_t{2}, size_t{4}, size_t{0}}) {
    auto par = FlatEkdbTree::FromTree(*tree, threads);
    ASSERT_TRUE(par.ok()) << threads << " threads";
    ASSERT_EQ(seq->num_nodes(), par->num_nodes());
    ASSERT_EQ(seq->arena_size(), par->arena_size());
    for (uint32_t i = 0; i < seq->num_nodes(); ++i) {
      const FlatEkdbNode& a = seq->node(i);
      const FlatEkdbNode& b = par->node(i);
      ASSERT_EQ(a.children_begin, b.children_begin) << "node " << i;
      ASSERT_EQ(a.children_count, b.children_count) << "node " << i;
      ASSERT_EQ(a.arena_begin, b.arena_begin) << "node " << i;
      ASSERT_EQ(a.arena_end, b.arena_end) << "node " << i;
      ASSERT_EQ(a.stripe, b.stripe) << "node " << i;
      ASSERT_EQ(a.depth, b.depth) << "node " << i;
      ASSERT_EQ(a.sort_dim, b.sort_dim) << "node " << i;
      for (size_t d = 0; d < seq->dims(); ++d) {
        ASSERT_EQ(seq->bbox_lo(i)[d], par->bbox_lo(i)[d]) << "node " << i;
        ASSERT_EQ(seq->bbox_hi(i)[d], par->bbox_hi(i)[d]) << "node " << i;
      }
    }
    for (uint32_t pos = 0; pos < seq->arena_size(); ++pos) {
      ASSERT_EQ(seq->arena_id(pos), par->arena_id(pos)) << "pos " << pos;
    }
    const size_t floats = static_cast<size_t>(seq->arena_size()) * seq->dims();
    for (size_t f = 0; f < floats; ++f) {
      ASSERT_EQ(seq->arena_data()[f], par->arena_data()[f]) << "float " << f;
    }
  }
}

/// A view-backed tree over exactly sized copies of the arrays: the arena
/// allocation ends at the last float of the last leaf block, so a sanitizer
/// build flags any column read past a run.  Joins and range queries must
/// match the owned tree.
TEST(FlatEkdbTreeTest, ViewBackedTreeMatchesOwnedTree) {
  auto data = GenerateClustered(
      {.n = 3000, .dims = 12, .clusters = 5, .sigma = 0.04, .seed = 29});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.1, 24));
  ASSERT_TRUE(tree.ok());
  const FlatEkdbTree owned = Flatten(*tree);

  struct Arrays {
    std::vector<FlatEkdbNode> nodes;
    std::vector<float> bbox_lo, bbox_hi, arena;
    std::vector<PointId> ids;
  };
  auto arrays = std::make_shared<Arrays>();
  const size_t dims = owned.dims();
  const size_t num_nodes = owned.num_nodes();
  const size_t points = owned.arena_size();
  arrays->nodes.assign(owned.nodes_data(), owned.nodes_data() + num_nodes);
  arrays->bbox_lo.assign(owned.bbox_lo(0), owned.bbox_lo(0) + num_nodes * dims);
  arrays->bbox_hi.assign(owned.bbox_hi(0), owned.bbox_hi(0) + num_nodes * dims);
  arrays->arena.assign(owned.arena_data(), owned.arena_data() + points * dims);
  arrays->ids.assign(owned.arena_ids_data(), owned.arena_ids_data() + points);

  FlatEkdbStorageView view;
  view.config = owned.config();
  view.dim_order = owned.dim_order();
  view.num_stripes = owned.num_stripes();
  view.stripe_width = owned.stripe_width();
  view.nodes = arrays->nodes.data();
  view.num_nodes = num_nodes;
  view.bbox_lo = arrays->bbox_lo.data();
  view.bbox_hi = arrays->bbox_hi.data();
  view.arena = arrays->arena.data();
  view.arena_ids = arrays->ids.data();
  view.arena_count = points;
  auto viewed = FlatEkdbTree::FromView(*data, view, arrays);
  ASSERT_TRUE(viewed.ok()) << viewed.status().ToString();
  ASSERT_TRUE(viewed->view_backed());

  VectorSink owned_pairs, viewed_pairs;
  JoinStats owned_stats, viewed_stats;
  ASSERT_TRUE(FlatEkdbSelfJoin(owned, &owned_pairs, &owned_stats).ok());
  ASSERT_TRUE(FlatEkdbSelfJoin(*viewed, &viewed_pairs, &viewed_stats).ok());
  EXPECT_GT(owned_pairs.pairs().size(), 0u);
  EXPECT_EQ(owned_pairs.pairs(), viewed_pairs.pairs());
  EXPECT_EQ(owned_stats.candidate_pairs, viewed_stats.candidate_pairs);
  for (PointId q = 0; q < data->size(); q += 97) {
    std::vector<PointId> a, b;
    ASSERT_TRUE(owned.RangeQuery(data->Row(q), 0.1, &a).ok());
    ASSERT_TRUE(viewed->RangeQuery(data->Row(q), 0.1, &b).ok());
    EXPECT_EQ(a, b) << "query " << q;
  }
}

TEST(FlatEkdbTreeTest, RangeQueryStatsCountBatches) {
  auto data = GenerateClustered(
      {.n = 1500, .dims = 6, .clusters = 3, .sigma = 0.03, .seed = 11});
  ASSERT_TRUE(data.ok());
  auto tree = EkdbTree::Build(*data, Config(0.15, 64));
  ASSERT_TRUE(tree.ok());
  const FlatEkdbTree flat = Flatten(*tree);

  std::vector<PointId> out;
  JoinStats flat_stats, pointer_stats;
  ASSERT_TRUE(flat.RangeQuery(data->Row(0), 0.15, &out, &flat_stats).ok());
  EXPECT_GT(flat_stats.candidate_pairs, 0u);
  EXPECT_EQ(flat_stats.pairs_emitted, out.size());
  EXPECT_GT(flat_stats.simd_batches + flat_stats.scalar_fallbacks, 0u);

  out.clear();
  ASSERT_TRUE(
      tree->RangeQuery(data->Row(0), 0.15, &out, &pointer_stats).ok());
  EXPECT_GT(pointer_stats.candidate_pairs, 0u);
  EXPECT_EQ(pointer_stats.pairs_emitted, out.size());
  EXPECT_GT(pointer_stats.simd_batches + pointer_stats.scalar_fallbacks, 0u);
}

}  // namespace
}  // namespace simjoin
