// Segment-file round-trip, external-build identity, and robustness tests.
//
// The format's two load paths (mmap fault-in, full in-memory read) and two
// build paths (WriteSegment of a heap tree, BuildSegmentExternal's
// sort-runs + merge) must all converge: same bytes on disk, same answers
// to every query.  The robustness half feeds the loader truncated,
// bit-flipped, version-skewed, and randomly mutated files — every one must
// come back as a clean Status, never a crash or a silently wrong tree.

#include "core/segment.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <random>
#include <vector>

#include "common/binary_io.h"
#include "common/pair_sink.h"
#include "core/ekdb_tree.h"
#include "core/segment_backend.h"
#include "core/segment_builder.h"
#include "core/segment_internal.h"
#include "workload/generators.h"
#include "gtest/gtest.h"
#include "test_util.h"

namespace simjoin {
namespace {

using testing_util::ExpectSamePairs;

EkdbConfig Config(double epsilon, size_t leaf_threshold = 16) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = leaf_threshold;
  return config;
}

class SegmentIoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs tests as parallel processes, and
    // TearDown removes the whole directory.
    temp_dir_ = ::testing::TempDir() + "/segment_io_" +
                ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(temp_dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(temp_dir_, ec);
  }

  std::string Path(const std::string& name) { return temp_dir_ + "/" + name; }

  FlatEkdbTree BuildFlat(const Dataset& data, const EkdbConfig& config) {
    auto tree = EkdbTree::Build(data, config);
    EXPECT_TRUE(tree.ok()) << tree.status().ToString();
    auto flat = FlatEkdbTree::FromTree(*tree);
    EXPECT_TRUE(flat.ok()) << flat.status().ToString();
    return std::move(flat).value();
  }

  std::vector<uint8_t> ReadFile(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                                std::istreambuf_iterator<char>());
  }

  void WriteFile(const std::string& path, const std::vector<uint8_t>& bytes) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    ASSERT_TRUE(out.good());
  }

  /// Runs the same probe queries through both trees and demands
  /// bit-identical ids (same set, same order) and stats.
  void ExpectSameQueries(const FlatEkdbTree& a, const FlatEkdbTree& b,
                         const Dataset& queries, double eps) {
    for (size_t i = 0; i < queries.size(); ++i) {
      std::vector<PointId> ids_a, ids_b;
      JoinStats stats_a, stats_b;
      ASSERT_TRUE(a.RangeQuery(queries.Row(static_cast<PointId>(i)), eps,
                               &ids_a, &stats_a)
                      .ok());
      ASSERT_TRUE(b.RangeQuery(queries.Row(static_cast<PointId>(i)), eps,
                               &ids_b, &stats_b)
                      .ok());
      ASSERT_EQ(ids_a, ids_b) << "query " << i;
      EXPECT_EQ(stats_a.candidate_pairs, stats_b.candidate_pairs);
      EXPECT_EQ(stats_a.pairs_emitted, stats_b.pairs_emitted);
    }
  }

  std::string temp_dir_;
};

// ---------------------------------------------------------------------------
// Round trips

TEST_F(SegmentIoTest, InMemoryRoundTripServesIdenticalQueries) {
  auto data = GenerateUniform({.n = 600, .dims = 6, .seed = 7});
  ASSERT_TRUE(data.ok());
  FlatEkdbTree tree = BuildFlat(*data, Config(0.15));
  const std::string path = Path("roundtrip.seg");
  ASSERT_TRUE(WriteSegment(tree, path).ok());

  auto loaded = OpenSegment(path, SegmentOpenMode::kInMemory);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded->tree->num_nodes(), tree.num_nodes());
  EXPECT_EQ(loaded->tree->arena_size(), tree.arena_size());
  EXPECT_EQ(loaded->segment, nullptr);
  ExpectSameQueries(tree, *loaded->tree, *data, 0.15);
  ExpectSameQueries(tree, *loaded->tree, *data, 0.04);
}

TEST_F(SegmentIoTest, MmapRoundTripServesIdenticalQueries) {
  auto data = GenerateClustered({.n = 700, .dims = 8, .seed = 11});
  ASSERT_TRUE(data.ok());
  FlatEkdbTree tree = BuildFlat(*data, Config(0.2));
  const std::string path = Path("mapped.seg");
  ASSERT_TRUE(WriteSegment(tree, path).ok());

  auto mapped = OpenSegment(path, SegmentOpenMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_NE(mapped->segment, nullptr);
  EXPECT_TRUE(mapped->segment->VerifyChecksums().ok());
  EXPECT_GT(mapped->segment->mapped_bytes(), 0u);
  ExpectSameQueries(tree, *mapped->tree, *data, 0.2);
  ExpectSameQueries(tree, *mapped->tree, *data, 0.05);
  // Releasing residency must not change answers (pages fault back in).
  mapped->segment->ReleaseResidentPages();
  ExpectSameQueries(tree, *mapped->tree, *data, 0.1);
}

TEST_F(SegmentIoTest, ReadSegmentInfoReportsShape) {
  auto data = GenerateUniform({.n = 300, .dims = 5, .seed = 3});
  ASSERT_TRUE(data.ok());
  FlatEkdbTree tree = BuildFlat(*data, Config(0.25));
  const std::string path = Path("info.seg");
  ASSERT_TRUE(WriteSegment(tree, path).ok());

  auto info = ReadSegmentInfo(path);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->version, kSegmentVersion);
  EXPECT_EQ(info->dims, 5u);
  EXPECT_EQ(info->num_points, 300u);
  EXPECT_EQ(info->num_nodes, tree.num_nodes());
  EXPECT_DOUBLE_EQ(info->config.epsilon, 0.25);
  for (size_t s = 0; s < kNumSegmentSections; ++s) {
    EXPECT_EQ(info->sections[s].offset % kSegmentPageBytes, 0u) << s;
  }
}

// ---------------------------------------------------------------------------
// External build identity

TEST_F(SegmentIoTest, ExternalBuildIsByteIdenticalToInMemoryBuild) {
  auto data = GenerateClustered({.n = 2500, .dims = 6, .seed = 23});
  ASSERT_TRUE(data.ok());
  const EkdbConfig config = Config(0.1);
  const std::string input = Path("points.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*data, input).ok());

  // In-memory reference: full build + WriteSegment.
  FlatEkdbTree tree = BuildFlat(*data, config);
  const std::string ram_path = Path("ram.seg");
  ASSERT_TRUE(WriteSegment(tree, ram_path).ok());

  // External build with tiny runs, forcing many sort runs and a real merge.
  ExternalBuildConfig ext;
  ext.ekdb = config;
  ext.temp_dir = temp_dir_;
  ext.sort_run_points = 256;
  ext.io_batch_points = 128;
  const std::string ext_path = Path("ext.seg");
  auto report = BuildSegmentExternal(input, ext_path, ext);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->fallback_in_memory);
  EXPECT_GT(report->num_runs, 1u);
  EXPECT_GT(report->num_fragments, 1u);
  EXPECT_EQ(report->num_points, 2500u);

  EXPECT_EQ(ReadFile(ram_path), ReadFile(ext_path))
      << "external build diverged from the in-memory segment bytes";
}

TEST_F(SegmentIoTest, ExternalBuildFallbackStillByteIdentical) {
  // Few points (<= leaf threshold): the builder takes its in-memory
  // fallback, which must still produce the canonical bytes.
  auto data = GenerateUniform({.n = 12, .dims = 4, .seed = 5});
  ASSERT_TRUE(data.ok());
  const EkdbConfig config = Config(0.3, /*leaf_threshold=*/16);
  const std::string input = Path("small.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*data, input).ok());

  FlatEkdbTree tree = BuildFlat(*data, config);
  const std::string ram_path = Path("small_ram.seg");
  ASSERT_TRUE(WriteSegment(tree, ram_path).ok());

  ExternalBuildConfig ext;
  ext.ekdb = config;
  ext.temp_dir = temp_dir_;
  const std::string ext_path = Path("small_ext.seg");
  auto report = BuildSegmentExternal(input, ext_path, ext);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->fallback_in_memory);
  EXPECT_EQ(ReadFile(ram_path), ReadFile(ext_path));
}

TEST_F(SegmentIoTest, ExternalBuildMappedServesIdenticalQueries) {
  auto data = GenerateUniform({.n = 1500, .dims = 8, .seed = 31});
  ASSERT_TRUE(data.ok());
  const EkdbConfig config = Config(0.12);
  const std::string input = Path("q.sjdb");
  ASSERT_TRUE(WriteBinaryDataset(*data, input).ok());

  ExternalBuildConfig ext;
  ext.ekdb = config;
  ext.temp_dir = temp_dir_;
  ext.sort_run_points = 300;
  const std::string seg = Path("q.seg");
  ASSERT_TRUE(BuildSegmentExternal(input, seg, ext).ok());

  FlatEkdbTree tree = BuildFlat(*data, config);
  auto mapped = OpenSegment(seg, SegmentOpenMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ExpectSameQueries(tree, *mapped->tree, *data, 0.12);
  ExpectSameQueries(tree, *mapped->tree, *data, 0.03);
}

// ---------------------------------------------------------------------------
// Mapped backend

TEST_F(SegmentIoTest, MmapBackendMatchesHeapBackendAndSpillJoins) {
  auto data = GenerateClustered({.n = 900, .dims = 6, .seed = 41});
  ASSERT_TRUE(data.ok());
  const EkdbConfig config = Config(0.1);
  FlatEkdbTree tree = BuildFlat(*data, config);
  const std::string path = Path("backend.seg");
  ASSERT_TRUE(WriteSegment(tree, path).ok());

  MmapBackendOptions options;
  options.spill_temp_dir = temp_dir_;
  auto backend = MmapEkdbBackend::Open(path, options);
  ASSERT_TRUE(backend.ok()) << backend.status().ToString();
  EXPECT_TRUE((*backend)->mapped());
  EXPECT_TRUE((*backend)->exact());
  // Heap bookkeeping must be tiny next to the mapped file.
  EXPECT_LT((*backend)->index_bytes(), (*backend)->mapped_bytes() / 4);

  // Range queries: bit-identical to the heap tree, recall 1.
  EXPECT_EQ((*backend)->queries_served(), 0u);
  for (size_t i = 0; i < 32; ++i) {
    std::vector<PointId> want, got;
    double recall = 0.0;
    ASSERT_TRUE(
        tree.RangeQuery(data->Row(static_cast<PointId>(i)), 0.1, &want).ok());
    ASSERT_TRUE((*backend)
                    ->RangeQuery(data->Row(static_cast<PointId>(i)), 0.1,
                                 &got, nullptr, &recall)
                    .ok());
    ASSERT_EQ(want, got);
    EXPECT_DOUBLE_EQ(recall, 1.0);
  }
  EXPECT_EQ((*backend)->queries_served(), 32u);

  // In-core self-join path (mapped bytes below the spill threshold).
  VectorSink in_core;
  ASSERT_TRUE((*backend)->SelfJoin(0.1, 1, &in_core, nullptr).ok());

  // Force the spill path and demand the identical canonical pair set.
  MmapBackendOptions spill = options;
  spill.spill_join_bytes = 0;
  spill.spill_memory_budget_points = 128;
  auto spilling = MmapEkdbBackend::Open(path, spill);
  ASSERT_TRUE(spilling.ok());
  VectorSink spilled;
  ASSERT_TRUE((*spilling)->SelfJoin(0.1, 1, &spilled, nullptr).ok());
  ExpectSamePairs(in_core.Sorted(), spilled.Sorted(), "spilled self-join");

  // Cold-cost penalty: a fresh mapping prices queries higher, and the
  // penalty disappears once queries have been served.
  auto cold = MmapEkdbBackend::Open(path, options);
  ASSERT_TRUE(cold.ok());
  const double cold_cost = (*cold)->EstimatedQueryCost(0.1, 4.0);
  std::vector<PointId> ids;
  ASSERT_TRUE((*cold)->RangeQuery(data->Row(0), 0.1, &ids, nullptr, nullptr)
                  .ok());
  const double warm_cost = (*cold)->EstimatedQueryCost(0.1, 4.0);
  EXPECT_GT(cold_cost, warm_cost);
}

// ---------------------------------------------------------------------------
// Robustness: every malformed file must fail with a clean Status.

class SegmentRobustnessTest : public SegmentIoTest {
 protected:
  /// Writes a valid segment and returns its bytes.
  std::vector<uint8_t> ValidSegment() {
    auto data = GenerateUniform({.n = 400, .dims = 4, .seed = 13});
    EXPECT_TRUE(data.ok());
    FlatEkdbTree tree = BuildFlat(*data, Config(0.2));
    const std::string path = Path("valid.seg");
    EXPECT_TRUE(WriteSegment(tree, path).ok());
    return ReadFile(path);
  }

  /// Both open modes must reject the file (or, for kMmap, at latest its
  /// checksum verification must fail) without crashing.
  void ExpectRejected(const std::vector<uint8_t>& bytes,
                      const std::string& label) {
    const std::string path = Path("mutated.seg");
    WriteFile(path, bytes);
    auto in_memory = OpenSegment(path, SegmentOpenMode::kInMemory);
    EXPECT_FALSE(in_memory.ok()) << label << ": in-memory open accepted it";
    auto mapped = OpenSegment(path, SegmentOpenMode::kMmap);
    if (mapped.ok()) {
      EXPECT_FALSE(mapped->segment->VerifyChecksums().ok())
          << label << ": mapped open and checksums both accepted it";
    }
  }
};

TEST_F(SegmentRobustnessTest, RejectsBadMagic) {
  std::vector<uint8_t> bytes = ValidSegment();
  bytes[0] ^= 0xFF;
  ExpectRejected(bytes, "bad magic");
}

TEST_F(SegmentRobustnessTest, RejectsVersionSkew) {
  std::vector<uint8_t> bytes = ValidSegment();
  bytes[4] = static_cast<uint8_t>(kSegmentVersion + 1);  // version u32 @4
  const std::string path = Path("skew.seg");
  WriteFile(path, bytes);
  auto opened = OpenSegment(path, SegmentOpenMode::kInMemory);
  ASSERT_FALSE(opened.ok());
  EXPECT_NE(opened.status().message().find("version"), std::string::npos)
      << "error should name the version mismatch: "
      << opened.status().ToString();
}

TEST_F(SegmentRobustnessTest, RejectsVersionOneSegment) {
  // A version-1 file stores its arena row-major.  Patch the version field
  // and re-seal the header checksum, so the header is a well-formed v1
  // header: only the version check can reject it, and it must, cleanly.
  std::vector<uint8_t> bytes = ValidSegment();
  const uint32_t v1 = 1;
  std::memcpy(bytes.data() + 4, &v1, sizeof(v1));  // version u32 @4
  const size_t checksum_at = 64 + kNumSegmentSections * 24;  // after table
  const uint64_t sealed = segment_internal::Fnv1a64(
      bytes.data(), checksum_at, segment_internal::kFnvSeed);
  std::memcpy(bytes.data() + checksum_at, &sealed, sizeof(sealed));
  const std::string path = Path("v1.seg");
  WriteFile(path, bytes);
  for (const SegmentOpenMode mode :
       {SegmentOpenMode::kInMemory, SegmentOpenMode::kMmap}) {
    auto opened = OpenSegment(path, mode);
    ASSERT_FALSE(opened.ok());
    EXPECT_NE(opened.status().message().find("unsupported segment version 1"),
              std::string::npos)
        << opened.status().ToString();
  }
  auto info = ReadSegmentInfo(path);
  ASSERT_FALSE(info.ok());
  EXPECT_NE(info.status().message().find("unsupported segment version 1"),
            std::string::npos)
      << info.status().ToString();
}

TEST_F(SegmentRobustnessTest, RejectsTruncation) {
  const std::vector<uint8_t> bytes = ValidSegment();
  // Truncations at several depths: inside the header, at a section
  // boundary, and mid-way through the last section.
  for (const size_t keep :
       {size_t{0}, size_t{100}, size_t{4096}, bytes.size() / 2,
        bytes.size() - 1}) {
    std::vector<uint8_t> cut(bytes.begin(),
                             bytes.begin() + static_cast<ptrdiff_t>(keep));
    ExpectRejected(cut, "truncated to " + std::to_string(keep));
  }
}

TEST_F(SegmentRobustnessTest, RejectsCorruptionInEverySection) {
  const std::vector<uint8_t> bytes = ValidSegment();
  const std::string valid_path = Path("for_info.seg");
  WriteFile(valid_path, bytes);
  auto info = ReadSegmentInfo(valid_path);
  ASSERT_TRUE(info.ok());
  for (size_t s = 0; s < kNumSegmentSections; ++s) {
    const SegmentInfo::Section& section = info->sections[s];
    if (section.bytes == 0) continue;
    std::vector<uint8_t> mutated = bytes;
    mutated[section.offset + section.bytes / 2] ^= 0x40;
    ExpectRejected(mutated, "flip in section " + std::to_string(s));
  }
}

TEST_F(SegmentRobustnessTest, HeaderFuzzNeverCrashes) {
  const std::vector<uint8_t> bytes = ValidSegment();
  std::mt19937_64 rng(20260809);
  for (int iter = 0; iter < 300; ++iter) {
    std::vector<uint8_t> mutated = bytes;
    // 1-4 byte flips confined to the header page, where every parsed field
    // lives — the loader's bounds and checksum logic must hold under all
    // of them.
    const int flips = 1 + static_cast<int>(rng() % 4);
    for (int f = 0; f < flips; ++f) {
      mutated[rng() % kSegmentPageBytes] ^= static_cast<uint8_t>(1u << (rng() % 8));
    }
    const std::string path = Path("fuzz.seg");
    WriteFile(path, mutated);
    auto in_memory = OpenSegment(path, SegmentOpenMode::kInMemory);
    if (in_memory.ok()) {
      // A mutation that still parses must have hit padding; the tree is
      // then fully intact and must answer queries.
      std::vector<PointId> ids;
      EXPECT_TRUE(in_memory->tree
                      ->RangeQuery(in_memory->dataset->Row(0), 0.05, &ids)
                      .ok());
    }
    auto mapped = OpenSegment(path, SegmentOpenMode::kMmap);
    if (mapped.ok()) {
      (void)mapped->segment->VerifyChecksums();  // must not crash either way
    }
  }
}

TEST_F(SegmentRobustnessTest, MissingFileIsCleanError) {
  auto opened = OpenSegment(Path("does_not_exist.seg"),
                            SegmentOpenMode::kMmap);
  EXPECT_FALSE(opened.ok());
  auto info = ReadSegmentInfo(Path("does_not_exist.seg"));
  EXPECT_FALSE(info.ok());
}

}  // namespace
}  // namespace simjoin
