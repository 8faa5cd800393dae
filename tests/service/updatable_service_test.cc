// Loopback tests for the live-update RPCs (Insert / Remove / Flush) and
// for querying an updatable index over the wire.  The contract mirrors the
// rest of the service: transport adds no semantics, so every result must
// be bit-identical to the canonical answer — the sorted, id-remapped
// result of a stop-the-world rebuild over the current live point set.

#include <algorithm>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/delta_index.h"
#include "core/ekdb_flat.h"
#include "core/ekdb_tree.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/drift.h"
#include "workload/generators.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace {

EkdbConfig Config(double epsilon = 0.1) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = 16;
  return config;
}

Dataset MakeData(size_t n, size_t dims, uint64_t seed) {
  auto data = GenerateUniform({.n = n, .dims = dims, .seed = seed});
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

BuildIndexRequest UpdatableBuildRequest(const std::string& name,
                                        const Dataset& data,
                                        const EkdbConfig& config) {
  BuildIndexRequest req;
  req.name = name;
  req.config = config;
  req.dims = static_cast<uint32_t>(data.dims());
  req.points = data.flat();
  req.backend = BackendKind::kUpdatable;
  return req;
}

struct LiveServer {
  std::unique_ptr<Server> server;
  Client client;
};

LiveServer StartWithClient(ServerConfig config = {}) {
  auto server = Server::Start(config);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  ClientConfig client_config;
  client_config.port = (*server)->port();
  auto client = Client::Connect(client_config);
  EXPECT_TRUE(client.ok()) << client.status().ToString();
  return LiveServer{std::move(*server), std::move(*client)};
}

/// In-process model of the served index: live (logical id, row) pairs in
/// ascending-id order, with a rebuild oracle for queries and joins.
struct Mirror {
  size_t dims;
  std::vector<std::pair<PointId, std::vector<float>>> live;

  explicit Mirror(const Dataset& initial) : dims(initial.dims()) {
    for (size_t i = 0; i < initial.size(); ++i) {
      const float* row = initial.Row(static_cast<PointId>(i));
      live.emplace_back(static_cast<PointId>(i),
                        std::vector<float>(row, row + dims));
    }
  }

  void Insert(PointId first_id, const std::vector<float>& rows) {
    const size_t count = rows.size() / dims;
    for (size_t i = 0; i < count; ++i) {
      live.emplace_back(
          first_id + static_cast<PointId>(i),
          std::vector<float>(rows.begin() + i * dims,
                             rows.begin() + (i + 1) * dims));
    }
  }

  bool Remove(PointId id) {
    for (auto it = live.begin(); it != live.end(); ++it) {
      if (it->first == id) {
        live.erase(it);
        return true;
      }
    }
    return false;
  }

  std::vector<PointId> OracleRange(const float* query, double eps,
                                   const EkdbConfig& config) const {
    std::vector<PointId> out;
    if (!live.empty()) {
      std::vector<float> flat;
      std::vector<PointId> logical;
      for (const auto& [id, row] : live) {
        logical.push_back(id);
        flat.insert(flat.end(), row.begin(), row.end());
      }
      auto data = Dataset::FromFlat(std::move(flat), dims);
      EXPECT_TRUE(data.ok());
      auto tree = EkdbTree::Build(*data, config);
      EXPECT_TRUE(tree.ok()) << tree.status().ToString();
      std::vector<PointId> rows;
      EXPECT_TRUE(tree->RangeQuery(query, eps, &rows).ok());
      for (PointId r : rows) out.push_back(logical[r]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }
};

// ---------------------------------------------------------------------------
// The update RPCs round-trip and match the rebuild oracle.
// ---------------------------------------------------------------------------

TEST(UpdatableServiceTest, InsertRemoveFlushRoundTripAgainstOracle) {
  const Dataset data = MakeData(300, 4, 51);
  const EkdbConfig config = Config(0.15);
  LiveServer live = StartWithClient();
  auto built =
      live.client.BuildIndex(UpdatableBuildRequest("u", data, config));
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  EXPECT_EQ(built->num_points, 300u);
  Mirror mirror(data);
  Rng rng(53);

  // Insert a batch; the response reports contiguous fresh ids.
  InsertRequest ins;
  ins.name = "u";
  ins.dims = 4;
  ins.rows.resize(60 * 4);
  for (float& f : ins.rows) f = rng.UniformFloat();
  auto inserted = live.client.Insert(ins);
  ASSERT_TRUE(inserted.ok()) << inserted.status().ToString();
  EXPECT_EQ(inserted->first_id, 300u);
  EXPECT_EQ(inserted->count, 60u);
  EXPECT_EQ(inserted->delta_points, 60u);
  EXPECT_EQ(inserted->tombstones, 0u);
  mirror.Insert(inserted->first_id, ins.rows);

  // Remove a mix of base ids, delta ids, and dead/unknown ids.
  RemoveRequest rem;
  rem.name = "u";
  rem.ids = {3, 7, 7, 320, 9999};
  auto removed = live.client.Remove(rem);
  ASSERT_TRUE(removed.ok()) << removed.status().ToString();
  EXPECT_EQ(removed->removed, 3u);  // 3, 7, 320
  EXPECT_EQ(removed->missing, 2u);  // duplicate 7, unknown 9999
  EXPECT_EQ(removed->tombstones, 3u);
  ASSERT_TRUE(mirror.Remove(3));
  ASSERT_TRUE(mirror.Remove(7));
  ASSERT_TRUE(mirror.Remove(320));

  // Queries over the wire equal the rebuild oracle, before the flush...
  for (PointId q = 0; q < 15; ++q) {
    auto ids = live.client.RangeQueryOne("u", data.RowSpan(q), 0.1);
    ASSERT_TRUE(ids.ok()) << ids.status().ToString();
    EXPECT_EQ(*ids, mirror.OracleRange(data.Row(q), 0.1, config))
        << "query " << q;
  }

  // ... and bit-identically after it.
  auto flushed = live.client.Flush("u");
  ASSERT_TRUE(flushed.ok()) << flushed.status().ToString();
  EXPECT_TRUE(flushed->compacted);
  EXPECT_EQ(flushed->base_points, 300u + 60u - 3u);
  EXPECT_EQ(flushed->delta_points, 0u);
  EXPECT_EQ(flushed->tombstones, 0u);
  EXPECT_GT(flushed->index_bytes, 0u);
  for (PointId q = 0; q < 15; ++q) {
    auto ids = live.client.RangeQueryOne("u", data.RowSpan(q), 0.1);
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(*ids, mirror.OracleRange(data.Row(q), 0.1, config))
        << "post-flush query " << q;
  }

  // A second flush has nothing to fold.
  auto again = live.client.Flush("u");
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again->compacted);
}

TEST(UpdatableServiceTest, SelfJoinMatchesInProcessAtEveryThreadCount) {
  const Dataset data = MakeData(400, 4, 57);
  const EkdbConfig config = Config(0.12);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(UpdatableBuildRequest("u", data, config)).ok());

  Rng rng(59);
  InsertRequest ins;
  ins.name = "u";
  ins.dims = 4;
  ins.rows.resize(80 * 4);
  for (float& f : ins.rows) f = rng.UniformFloat();
  ASSERT_TRUE(live.client.Insert(ins).ok());
  RemoveRequest rem;
  rem.name = "u";
  rem.ids = {0, 11, 405};
  ASSERT_TRUE(live.client.Remove(rem).ok());

  // In-process reference over the same mutation sequence.
  auto ref = UpdatableIndex::Build(
      std::make_shared<const Dataset>(data), config, 1,
                                   {.auto_compact = false});
  ASSERT_TRUE(ref.ok());
  ASSERT_TRUE((*ref)->InsertBatch(ins.rows.data(), 80).ok());
  uint32_t removed = 0;
  (*ref)->RemoveBatch(rem.ids.data(), rem.ids.size(), &removed, nullptr);
  ASSERT_EQ(removed, 3u);
  VectorSink expected;
  JoinStats ref_stats;
  ASSERT_TRUE((*ref)->SelfJoin(0.12, 1, &expected, &ref_stats).ok());

  for (const uint32_t threads : {1u, 2u, 4u}) {
    SimilarityJoinRequest req;
    req.name_a = "u";
    req.num_threads = threads;
    req.chunk_pairs = 97;  // many chunks, so reassembly is exercised
    VectorSink got;
    auto done = live.client.SimilarityJoin(req, &got);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    EXPECT_EQ(got.pairs(), expected.pairs()) << "threads=" << threads;
    EXPECT_EQ(done->total_pairs, expected.pairs().size());
  }

  // An explicit self-join spelling (name_b == name_a) works too.
  SimilarityJoinRequest self;
  self.name_a = "u";
  self.name_b = "u";
  VectorSink got;
  ASSERT_TRUE(live.client.SimilarityJoin(self, &got).ok());
  EXPECT_EQ(got.pairs(), expected.pairs());
}

TEST(UpdatableServiceTest, ConcurrentClientsUpdateAndQueryConsistently) {
  const Dataset data = MakeData(300, 4, 61);
  const EkdbConfig config = Config(0.1);
  ServerConfig server_config;
  server_config.io_threads = 2;
  LiveServer live = StartWithClient(server_config);
  ASSERT_TRUE(
      live.client.BuildIndex(UpdatableBuildRequest("u", data, config)).ok());

  // One updating connection races three querying connections.  Results
  // under the race are only checked for internal consistency; exactness is
  // asserted afterwards.
  const uint16_t port = live.server->port();
  std::thread updater([&]() {
    ClientConfig cc;
    cc.port = port;
    auto client = Client::Connect(cc);
    ASSERT_TRUE(client.ok());
    Rng rng(63);
    for (int op = 0; op < 30; ++op) {
      InsertRequest ins;
      ins.name = "u";
      ins.dims = 4;
      ins.rows.resize(8 * 4);
      for (float& f : ins.rows) f = rng.UniformFloat();
      auto got = client->Insert(ins);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      RemoveRequest rem;
      rem.name = "u";
      rem.ids = {got->first_id + 1};
      ASSERT_TRUE(client->Remove(rem).ok());
      if (op % 10 == 9) ASSERT_TRUE(client->Flush("u").ok());
    }
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t]() {
      ClientConfig cc;
      cc.port = port;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 40; ++i) {
        const size_t qi = static_cast<size_t>(t * 40 + i) % data.size();
        auto ids = client->RangeQueryOne("u", data.RowSpan(qi), 0.08);
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        ASSERT_TRUE(std::is_sorted(ids->begin(), ids->end()));
        ASSERT_TRUE(std::adjacent_find(ids->begin(), ids->end()) ==
                    ids->end());
      }
    });
  }
  updater.join();
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(live.server->counters().decode_errors, 0u);

  // Quiesced: the server's answer equals a fresh rebuild of the live set.
  ASSERT_TRUE(live.client.Flush("u").ok());
  auto ref = UpdatableIndex::Build(
      std::make_shared<const Dataset>(data),
      config, 1, {.auto_compact = false});
  ASSERT_TRUE(ref.ok());
  Rng replay(63);
  for (int op = 0; op < 30; ++op) {
    std::vector<float> rows(8 * 4);
    for (float& f : rows) f = replay.UniformFloat();
    auto first = (*ref)->InsertBatch(rows.data(), 8);
    ASSERT_TRUE(first.ok());
    ASSERT_TRUE((*ref)->Remove(*first + 1).ok());
  }
  for (PointId q = 0; q < 20; ++q) {
    auto ids = live.client.RangeQueryOne("u", data.RowSpan(q), 0.08);
    ASSERT_TRUE(ids.ok());
    std::vector<PointId> expected;
    ASSERT_TRUE(
        (*ref)->RangeQuery(data.Row(q), 0.08, &expected, nullptr, nullptr)
            .ok());
    EXPECT_EQ(*ids, expected) << "query " << q;
  }
}

TEST(UpdatableServiceTest, DriftTimelineReplaysOverTheWire) {
  DriftConfig dc;
  dc.dims = 4;
  dc.clusters = 3;
  dc.points_per_cluster = 24;
  dc.steps = 6;
  dc.queries_per_step = 4;
  dc.seed = 67;
  auto timeline = GenerateDrift(dc);
  ASSERT_TRUE(timeline.ok());

  const EkdbConfig config = Config(0.15);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client
                  .BuildIndex(UpdatableBuildRequest("drift", timeline->initial,
                                                    config))
                  .ok());
  Mirror mirror(timeline->initial);

  for (size_t s = 0; s < timeline->steps.size(); ++s) {
    const DriftStep& step = timeline->steps[s];
    if (!step.remove_ids.empty()) {
      RemoveRequest rem;
      rem.name = "drift";
      rem.ids = step.remove_ids;
      auto got = live.client.Remove(rem);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(got->removed, step.remove_ids.size()) << "step " << s;
      EXPECT_EQ(got->missing, 0u) << "step " << s;
      for (PointId id : step.remove_ids) ASSERT_TRUE(mirror.Remove(id));
    }
    if (!step.insert_rows.empty()) {
      InsertRequest ins;
      ins.name = "drift";
      ins.dims = 4;
      ins.rows = step.insert_rows;
      auto got = live.client.Insert(ins);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      mirror.Insert(got->first_id, step.insert_rows);
    }
    for (size_t q = 0; q < step.queries(dc.dims); ++q) {
      const float* query = step.query_rows.data() + q * dc.dims;
      auto ids = live.client.RangeQueryOne(
          "drift", std::span<const float>(query, dc.dims), 0.1);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(*ids, mirror.OracleRange(query, 0.1, config))
          << "step " << s << " query " << q;
    }
  }
  ASSERT_TRUE(live.client.Flush("drift").ok());
}

// ---------------------------------------------------------------------------
// Error paths and metrics.
// ---------------------------------------------------------------------------

TEST(UpdatableServiceTest, ErrorPaths) {
  const Dataset data = MakeData(80, 3, 71);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(UpdatableBuildRequest("u", data, Config())).ok());

  // Updates against an unknown index.
  InsertRequest ins;
  ins.name = "ghost";
  ins.dims = 3;
  ins.rows = {0.5f, 0.5f, 0.5f};
  EXPECT_EQ(live.client.Insert(ins).status().code(), StatusCode::kNotFound);
  RemoveRequest rem;
  rem.name = "ghost";
  rem.ids = {0};
  EXPECT_EQ(live.client.Remove(rem).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(live.client.Flush("ghost").status().code(),
            StatusCode::kNotFound);

  // Updates against an immutable (tree-backed) index.
  BuildIndexRequest tree_req;
  tree_req.name = "frozen";
  tree_req.config = Config();
  tree_req.dims = 3;
  tree_req.points = data.flat();
  ASSERT_TRUE(live.client.BuildIndex(tree_req).ok());
  ins.name = "frozen";
  EXPECT_EQ(live.client.Insert(ins).status().code(),
            StatusCode::kInvalidArgument);
  rem.name = "frozen";
  EXPECT_EQ(live.client.Remove(rem).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(live.client.Flush("frozen").status().code(),
            StatusCode::kInvalidArgument);

  // Dimension mismatch and out-of-domain coordinates.
  ins.name = "u";
  ins.dims = 2;
  ins.rows = {0.5f, 0.5f};
  EXPECT_EQ(live.client.Insert(ins).status().code(),
            StatusCode::kInvalidArgument);
  ins.dims = 3;
  ins.rows = {0.5f, 0.5f, 1.5f};
  EXPECT_EQ(live.client.Insert(ins).status().code(),
            StatusCode::kInvalidArgument);

  // Cross-index joins that touch an updatable index are rejected (flush
  // and rebuild immutable to join across).
  SimilarityJoinRequest cross;
  cross.name_a = "u";
  cross.name_b = "frozen";
  EXPECT_EQ(live.client.SimilarityJoin(cross, nullptr).status().code(),
            StatusCode::kInvalidArgument);
  cross.name_a = "frozen";
  cross.name_b = "u";
  EXPECT_EQ(live.client.SimilarityJoin(cross, nullptr).status().code(),
            StatusCode::kInvalidArgument);

  // The connection survived every error above.
  EXPECT_TRUE(live.client.Ping().ok());
}

TEST(UpdatableServiceTest, UpdateMetricsFlowThroughStatsRpc) {
  const Dataset data = MakeData(100, 3, 73);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(UpdatableBuildRequest("u", data, Config())).ok());

  InsertRequest ins;
  ins.name = "u";
  ins.dims = 3;
  ins.rows = {0.5f, 0.5f, 0.5f, 0.25f, 0.25f, 0.25f};
  ASSERT_TRUE(live.client.Insert(ins).ok());
  RemoveRequest rem;
  rem.name = "u";
  rem.ids = {0};
  ASSERT_TRUE(live.client.Remove(rem).ok());
  ASSERT_TRUE(live.client.Flush("u").ok());

  auto stats = live.client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const obs::MetricsSnapshot& wire = stats->metrics;

  const obs::CounterSample* inserts =
      wire.FindCounter("service.updates.inserts");
  ASSERT_NE(inserts, nullptr);
  EXPECT_GE(inserts->value, 1u);
  const obs::CounterSample* rows =
      wire.FindCounter("service.updates.rows_inserted");
  ASSERT_NE(rows, nullptr);
  EXPECT_GE(rows->value, 2u);
  const obs::CounterSample* removes =
      wire.FindCounter("service.updates.removes");
  ASSERT_NE(removes, nullptr);
  EXPECT_GE(removes->value, 1u);
  const obs::CounterSample* flushes =
      wire.FindCounter("service.updates.flushes");
  ASSERT_NE(flushes, nullptr);
  EXPECT_GE(flushes->value, 1u);
  const obs::CounterSample* compactions = wire.FindCounter("compaction.count");
  ASSERT_NE(compactions, nullptr);
  EXPECT_GE(compactions->value, 1u);
  const obs::HistogramSample* compact_us =
      wire.FindHistogram("compaction.duration_us");
  ASSERT_NE(compact_us, nullptr);
  EXPECT_GE(compact_us->count, 1u);
  // After the flush folded everything in, the delta gauges read zero.
  const obs::GaugeSample* delta_points = wire.FindGauge("delta.points");
  ASSERT_NE(delta_points, nullptr);
  EXPECT_EQ(delta_points->value, 0);
  const obs::GaugeSample* tombstones = wire.FindGauge("delta.tombstones");
  ASSERT_NE(tombstones, nullptr);
  EXPECT_EQ(tombstones->value, 0);
  ASSERT_NE(wire.FindGauge("delta.bytes"), nullptr);
  const obs::HistogramSample* insert_lat =
      wire.FindHistogram("service.latency_us.insert");
  ASSERT_NE(insert_lat, nullptr);
  EXPECT_GE(insert_lat->count, 1u);
}

TEST(UpdatableServiceTest, DropReleasesUpdatableIndex) {
  const Dataset data = MakeData(60, 3, 79);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(UpdatableBuildRequest("u", data, Config())).ok());
  auto dropped = live.client.DropIndex("u");
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped->found);
  InsertRequest ins;
  ins.name = "u";
  ins.dims = 3;
  ins.rows = {0.5f, 0.5f, 0.5f};
  EXPECT_EQ(live.client.Insert(ins).status().code(), StatusCode::kNotFound);
  EXPECT_TRUE(live.client.Ping().ok());
}

}  // namespace
}  // namespace simjoin
