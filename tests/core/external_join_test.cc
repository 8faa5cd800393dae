#include "core/external_join.h"

#include <cstdio>
#include <filesystem>

#include "common/binary_io.h"
#include "workload/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

using testing_util::ExpectSamePairs;
using testing_util::OracleSelfJoin;

class ExternalJoinTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs tests as parallel processes.
    temp_dir_ = ::testing::TempDir() + "/extjoin_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(temp_dir_);
  }

  std::string WriteInput(const Dataset& data, const std::string& name) {
    const std::string path = temp_dir_ + "/" + name;
    EXPECT_TRUE(WriteBinaryDataset(data, path).ok());
    inputs_.push_back(path);
    return path;
  }

  void TearDown() override {
    for (const auto& p : inputs_) std::remove(p.c_str());
  }

  ExternalJoinConfig Config(double epsilon, size_t budget) {
    ExternalJoinConfig config;
    config.ekdb.epsilon = epsilon;
    config.ekdb.leaf_threshold = 16;
    config.temp_dir = temp_dir_;
    config.memory_budget_points = budget;
    config.io_batch_points = 128;  // force many streaming batches
    return config;
  }

  std::string temp_dir_;
  std::vector<std::string> inputs_;
};

TEST_F(ExternalJoinTest, MatchesInMemoryJoinUnderTinyBudget) {
  auto data = GenerateClustered(
      {.n = 2000, .dims = 4, .clusters = 6, .sigma = 0.05, .seed = 1});
  ASSERT_TRUE(data.ok());
  const std::string input = WriteInput(*data, "clustered.sjdb");

  VectorSink sink;
  JoinStats stats;
  ExternalJoinReport report;
  ASSERT_TRUE(ExternalSelfJoin(input, Config(0.05, 600), &sink, &stats,
                               &report)
                  .ok());
  ExpectSamePairs(OracleSelfJoin(*data, 0.05, Metric::kL2), sink.Sorted(),
                  "external vs oracle");
  EXPECT_GT(report.partitions, 1u) << "tiny budget must force partitioning";
  EXPECT_EQ(report.total_points, 2000u);
  EXPECT_GT(report.bytes_spilled, 0u);
  EXPECT_LE(report.peak_resident_points, 2000u);
  EXPECT_EQ(stats.pairs_emitted, sink.pairs().size());
}

TEST_F(ExternalJoinTest, SinglePartitionWhenBudgetIsLarge) {
  auto data = GenerateUniform({.n = 500, .dims = 3, .seed = 2});
  const std::string input = WriteInput(*data, "uniform.sjdb");
  VectorSink sink;
  ExternalJoinReport report;
  ASSERT_TRUE(
      ExternalSelfJoin(input, Config(0.1, 1 << 20), &sink, nullptr, &report)
          .ok());
  EXPECT_EQ(report.partitions, 1u);
  ExpectSamePairs(OracleSelfJoin(*data, 0.1, Metric::kL2), sink.Sorted(),
                  "single partition");
}

TEST_F(ExternalJoinTest, SweepOverBudgetsStaysExact) {
  auto data = GenerateClustered(
      {.n = 1500, .dims = 5, .clusters = 4, .sigma = 0.04, .seed = 3});
  const std::string input = WriteInput(*data, "sweep.sjdb");
  const auto expected = OracleSelfJoin(*data, 0.07, Metric::kL2);
  for (size_t budget : {64u, 300u, 1000u, 5000u}) {
    VectorSink sink;
    ASSERT_TRUE(ExternalSelfJoin(input, Config(0.07, budget), &sink).ok())
        << "budget " << budget;
    ExpectSamePairs(expected, sink.Sorted(),
                    ("budget " + std::to_string(budget)).c_str());
  }
}

TEST_F(ExternalJoinTest, BoundaryPairsAcrossPartitionsFound) {
  // Construct points hugging a stripe boundary so the joining pairs span
  // partitions; with budget 2 every stripe is its own partition.
  Dataset ds;
  ds.Append(std::vector<float>{0.099f, 0.5f});
  ds.Append(std::vector<float>{0.101f, 0.5f});
  ds.Append(std::vector<float>{0.199f, 0.5f});
  ds.Append(std::vector<float>{0.201f, 0.5f});
  ds.Append(std::vector<float>{0.95f, 0.5f});
  const std::string input = WriteInput(ds, "boundary.sjdb");
  VectorSink sink;
  ExternalJoinReport report;
  ASSERT_TRUE(
      ExternalSelfJoin(input, Config(0.1, 4), &sink, nullptr, &report).ok());
  ExpectSamePairs(OracleSelfJoin(ds, 0.1, Metric::kL2), sink.Sorted(),
                  "partition boundary");
  EXPECT_GT(report.partitions, 1u);
}

TEST_F(ExternalJoinTest, CrossJoinMatchesOracleUnderTinyBudget) {
  auto a = GenerateClustered(
      {.n = 1200, .dims = 4, .clusters = 5, .sigma = 0.05, .seed = 31});
  auto b = GenerateClustered(
      {.n = 900, .dims = 4, .clusters = 5, .sigma = 0.05, .seed = 32});
  ASSERT_TRUE(a.ok() && b.ok());
  const std::string path_a = WriteInput(*a, "cross_a.sjdb");
  const std::string path_b = WriteInput(*b, "cross_b.sjdb");

  const auto expected = testing_util::OracleJoin(*a, *b, 0.06, Metric::kL2);
  for (size_t budget : {100u, 700u, 1u << 20}) {
    VectorSink sink;
    ExternalJoinReport report;
    ASSERT_TRUE(ExternalJoin(path_a, path_b, Config(0.06, budget), &sink,
                             nullptr, &report)
                    .ok())
        << "budget " << budget;
    ExpectSamePairs(expected, sink.Sorted(),
                    ("cross budget " + std::to_string(budget)).c_str());
    EXPECT_EQ(report.total_points, 2100u);
  }
}

TEST_F(ExternalJoinTest, CrossJoinBoundarySpanningPairs) {
  // A's points hug stripe boundaries from below, B's from above.
  Dataset a, b;
  for (int s = 0; s < 5; ++s) {
    a.Append(std::vector<float>{0.1f * static_cast<float>(s + 1) - 0.003f, 0.5f});
    b.Append(std::vector<float>{0.1f * static_cast<float>(s + 1) + 0.003f, 0.5f});
  }
  const std::string path_a = WriteInput(a, "edge_a.sjdb");
  const std::string path_b = WriteInput(b, "edge_b.sjdb");
  VectorSink sink;
  ASSERT_TRUE(ExternalJoin(path_a, path_b, Config(0.1, 4), &sink).ok());
  ExpectSamePairs(testing_util::OracleJoin(a, b, 0.1, Metric::kL2),
                  sink.Sorted(), "cross boundary");
}

TEST_F(ExternalJoinTest, CrossJoinRejectsDimensionMismatch) {
  auto a = GenerateUniform({.n = 50, .dims = 3, .seed = 33});
  auto b = GenerateUniform({.n = 50, .dims = 4, .seed = 34});
  const std::string path_a = WriteInput(*a, "mismatch_a.sjdb");
  const std::string path_b = WriteInput(*b, "mismatch_b.sjdb");
  VectorSink sink;
  EXPECT_FALSE(ExternalJoin(path_a, path_b, Config(0.1, 100), &sink).ok());
}

TEST_F(ExternalJoinTest, RejectsBadArguments) {
  auto data = GenerateUniform({.n = 50, .dims = 2, .seed = 4});
  const std::string input = WriteInput(*data, "args.sjdb");
  VectorSink sink;

  EXPECT_FALSE(ExternalSelfJoin(input, Config(0.1, 100), nullptr).ok());

  ExternalJoinConfig no_dir = Config(0.1, 100);
  no_dir.temp_dir = temp_dir_ + "/does_not_exist";
  EXPECT_FALSE(ExternalSelfJoin(input, no_dir, &sink).ok());

  ExternalJoinConfig bad_eps = Config(0.0, 100);
  EXPECT_FALSE(ExternalSelfJoin(input, bad_eps, &sink).ok());

  EXPECT_EQ(
      ExternalSelfJoin(temp_dir_ + "/missing.sjdb", Config(0.1, 100), &sink)
          .code(),
      StatusCode::kIoError);
}

TEST_F(ExternalJoinTest, RejectsUnnormalisedInput) {
  Dataset ds;
  ds.Append(std::vector<float>{0.5f, 1.7f});
  const std::string input = WriteInput(ds, "unnormalised.sjdb");
  VectorSink sink;
  const Status st = ExternalSelfJoin(input, Config(0.1, 100), &sink);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(ExternalJoinTest, SpillFilesAreCleanedUp) {
  auto data = GenerateUniform({.n = 300, .dims = 3, .seed = 5});
  const std::string input = WriteInput(*data, "cleanup.sjdb");
  VectorSink sink;
  ASSERT_TRUE(ExternalSelfJoin(input, Config(0.1, 100), &sink).ok());
  size_t leftover = 0;
  for (const auto& entry : std::filesystem::directory_iterator(temp_dir_)) {
    if (entry.path().string().find(".spill") != std::string::npos) ++leftover;
  }
  EXPECT_EQ(leftover, 0u);
}

}  // namespace
}  // namespace simjoin
