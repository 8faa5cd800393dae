// Differential tests for the batch-fused query execution engine: fusing
// range queries across connections is an execution strategy, never a
// semantic change.  Every response produced by a fused server must be
// bit-identical — same ascending neighbour ids, same JoinStats — to the
// in-process reference APIs and to an unfused server, at every worker
// count and every SIMD dispatch tier, and per-request failures inside a
// fused batch must stay confined to the request that caused them.

#include <algorithm>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/ekdb_flat.h"
#include "core/ekdb_flat_join.h"
#include "core/ekdb_tree.h"
#include "service/client.h"
#include "service/planned_reference.h"
#include "service/server.h"
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

BuildIndexRequest BuildRequestFor(const std::string& name,
                                  const Dataset& data,
                                  const EkdbConfig& config) {
  BuildIndexRequest req;
  req.name = name;
  req.config = config;
  req.dims = static_cast<uint32_t>(data.dims());
  req.points = data.flat();
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

void ExpectStatsEqual(const JoinStats& a, const JoinStats& b) {
  EXPECT_EQ(a.candidate_pairs, b.candidate_pairs);
  EXPECT_EQ(a.distance_calls, b.distance_calls);
  EXPECT_EQ(a.node_pairs_visited, b.node_pairs_visited);
  EXPECT_EQ(a.node_pairs_pruned, b.node_pairs_pruned);
  EXPECT_EQ(a.pairs_emitted, b.pairs_emitted);
  EXPECT_EQ(a.simd_batches, b.simd_batches);
  EXPECT_EQ(a.scalar_fallbacks, b.scalar_fallbacks);
}

/// Neighbours of `query` from the in-process flat tree, in ascending id
/// order (the wire order).
std::vector<PointId> SortedTreeAnswer(const FlatEkdbTree& tree,
                                      const float* query, double eps) {
  std::vector<PointId> ids;
  EXPECT_TRUE(tree.RangeQuery(query, eps, &ids).ok());
  std::sort(ids.begin(), ids.end());
  return ids;
}

/// Fusion config that reliably forms multi-request batches in a test: a
/// generous wait budget parks concurrent requests together instead of
/// flushing the first one alone.
ServerConfig FusedConfig(uint32_t worker_threads = 0) {
  ServerConfig config;
  config.fusion_enabled = true;
  config.fusion_max_batch = 64;
  config.fusion_wait_us = 2000;
  config.worker_threads = worker_threads;
  return config;
}

// The tentpole contract: a fused server answers exactly like the
// in-process planned backend (which is also what an unfused server
// executes), per query and per JoinStats, at 1/2/4 worker threads, with
// many connections issuing overlapping requests so real multi-request
// batches form.
TEST(FusionTest, FusedMatchesReferenceAtEveryWorkerCount) {
  const Dataset data = MakeData(500, 8, 11);
  const EkdbConfig config = Config(0.2);
  const PlannedReference ref(data, config, 0.15);

  constexpr size_t kThreads = 8;
  constexpr size_t kRequestsPerThread = 4;
  constexpr size_t kQueriesPerRequest = 16;

  for (const uint32_t workers : {1u, 2u, 4u}) {
    LiveServer live = StartWithClient(FusedConfig(workers));
    ASSERT_TRUE(
        live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

    const uint16_t port = live.server->port();
    std::vector<std::thread> threads;
    for (size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t]() {
        ClientConfig cc;
        cc.port = port;
        auto client = Client::Connect(cc);
        ASSERT_TRUE(client.ok());
        for (size_t r = 0; r < kRequestsPerThread; ++r) {
          RangeQueryRequest req;
          req.name = "d";
          req.epsilon = 0.15;
          req.dims = static_cast<uint32_t>(data.dims());
          std::vector<size_t> rows(kQueriesPerRequest);
          for (size_t q = 0; q < kQueriesPerRequest; ++q) {
            rows[q] = (t * 131 + r * 17 + q) % data.size();
            const float* row = data.Row(static_cast<PointId>(rows[q]));
            req.queries.insert(req.queries.end(), row, row + data.dims());
          }
          auto resp = client->RangeQuery(req);
          ASSERT_TRUE(resp.ok()) << resp.status().ToString();
          ASSERT_EQ(resp->results.size(), kQueriesPerRequest);
          JoinStats ref_stats;
          for (size_t q = 0; q < kQueriesPerRequest; ++q) {
            EXPECT_EQ(resp->results[q],
                      ref.Query(data.Row(static_cast<PointId>(rows[q])),
                                &ref_stats))
                << "workers=" << workers << " thread=" << t << " query=" << q;
          }
          ExpectStatsEqual(resp->stats, ref_stats);
        }
      });
    }
    for (std::thread& t : threads) t.join();

    const ServerCounters counters = live.server->counters();
    EXPECT_GT(counters.fusion_batches, 0u) << "workers=" << workers;
    EXPECT_GE(counters.fusion_fused_queries, kThreads * kRequestsPerThread)
        << "workers=" << workers;
  }
}

// The SIMD dispatch tiers (portable / AVX2 / AVX-512) are selected at
// kernel construction via SIMJOIN_KERNEL_PATH; all of them must produce
// the same fused responses down to the JoinStats.  On hosts without the
// wider ISA the pin degrades one tier at a time, so the test still
// compares three (possibly coinciding) executions.
TEST(FusionTest, DispatchTiersAgreeBitForBit) {
  const Dataset data = MakeData(400, 16, 29);
  const EkdbConfig config = Config(0.3);
  LiveServer live = StartWithClient(FusedConfig());
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  RangeQueryRequest req;
  req.name = "d";
  req.epsilon = 0.25;
  req.dims = static_cast<uint32_t>(data.dims());
  const size_t batch = 64;
  req.queries.assign(data.flat().begin(),
                     data.flat().begin() + batch * data.dims());

  std::vector<std::vector<std::vector<PointId>>> per_tier_results;
  std::vector<JoinStats> per_tier_stats;
  for (const char* tier : {"portable", "avx2", "avx512"}) {
    ASSERT_EQ(setenv("SIMJOIN_KERNEL_PATH", tier, /*overwrite=*/1), 0);
    auto resp = live.client.RangeQuery(req);
    ASSERT_TRUE(resp.ok()) << tier << ": " << resp.status().ToString();
    per_tier_results.push_back(resp->results);
    per_tier_stats.push_back(resp->stats);
  }
  ASSERT_EQ(unsetenv("SIMJOIN_KERNEL_PATH"), 0);

  for (size_t i = 1; i < per_tier_results.size(); ++i) {
    EXPECT_EQ(per_tier_results[i], per_tier_results[0]) << "tier " << i;
    ExpectStatsEqual(per_tier_stats[i], per_tier_stats[0]);
  }

  // And the tiers agree with the scalar reference on the ids themselves.
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  ASSERT_EQ(setenv("SIMJOIN_KERNEL_PATH", "scalar", 1), 0);
  for (size_t q = 0; q < batch; ++q) {
    EXPECT_EQ(per_tier_results[0][q],
              SortedTreeAnswer(*ref_flat, data.Row(static_cast<PointId>(q)),
                               0.25))
        << "query " << q;
  }
  ASSERT_EQ(unsetenv("SIMJOIN_KERNEL_PATH"), 0);
}

// A request whose deadline lapses while parked in the fusion buffer gets
// the same DEADLINE_EXCEEDED answer the solo path gives, and the expiry is
// counted.
TEST(FusionTest, DeadlineExpiresInsideFusionBuffer) {
  ServerConfig config = FusedConfig();
  config.handler_delay_ms_for_testing = 50;
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(60, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());

  ClientConfig cc;
  cc.port = live.server->port();
  cc.deadline_ms = 1;
  auto deadline_client = Client::Connect(cc);
  ASSERT_TRUE(deadline_client.ok());
  auto ids = deadline_client->RangeQueryOne("d", data.RowSpan(0), 0.05);
  EXPECT_EQ(ids.status().code(), StatusCode::kDeadlineExceeded)
      << ids.status().ToString();
  EXPECT_GE(live.server->counters().deadline_expired, 1u);
}

// Bad requests fused into the same batch as good ones fail individually —
// exactly as they would solo — without poisoning their batchmates or their
// connections.
TEST(FusionTest, PerRequestErrorsAreIsolatedWithinABatch) {
  LiveServer live = StartWithClient(FusedConfig());
  const Dataset data = MakeData(80, 3, 7);
  const EkdbConfig config = Config(0.2);
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  const uint16_t port = live.server->port();
  std::vector<std::thread> threads;
  // Unknown index.
  threads.emplace_back([&]() {
    auto client = Client::Connect({.port = port});
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 8; ++i) {
      auto ids = client->RangeQueryOne("ghost", data.RowSpan(0), 0.1);
      EXPECT_EQ(ids.status().code(), StatusCode::kNotFound);
    }
    EXPECT_TRUE(client->Ping().ok());  // the connection survived
  });
  // Dimension mismatch.
  threads.emplace_back([&]() {
    auto client = Client::Connect({.port = port});
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 8; ++i) {
      auto ids = client->RangeQueryOne("d", std::vector<float>{0.5f, 0.5f},
                                       0.1);
      EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument);
    }
    EXPECT_TRUE(client->Ping().ok());
  });
  // Radius beyond the build epsilon.
  threads.emplace_back([&]() {
    auto client = Client::Connect({.port = port});
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 8; ++i) {
      auto ids = client->RangeQueryOne("d", data.RowSpan(0), 0.9);
      EXPECT_EQ(ids.status().code(), StatusCode::kInvalidArgument);
    }
    EXPECT_TRUE(client->Ping().ok());
  });
  // Well-formed queries racing the bad ones still get exact answers.
  threads.emplace_back([&]() {
    auto client = Client::Connect({.port = port});
    ASSERT_TRUE(client.ok());
    for (int i = 0; i < 8; ++i) {
      const size_t qi = static_cast<size_t>(i * 9) % data.size();
      auto ids = client->RangeQueryOne("d", data.RowSpan(qi), 0.1);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(*ids, SortedTreeAnswer(*ref_flat,
                                       data.Row(static_cast<PointId>(qi)),
                                       0.1));
    }
  });
  for (std::thread& t : threads) t.join();
}

// The epsilon-grid backend is a first-class fusion citizen: built over the
// wire, its fused range queries are bit-identical to the in-process
// planned backend over a grid primary, and joins against it fall back to a
// lazily built flat-tree auxiliary — same pairs as a tree-primary index,
// no error.
TEST(FusionTest, GridBackendServesFusedQueriesAndJoinsViaTreeFallback) {
  const Dataset data = MakeData(600, 3, 41);
  const EkdbConfig config = Config(0.15);
  const PlannedReference ref(data, config, 0.12, BackendKind::kEpsilonGrid);

  LiveServer live = StartWithClient(FusedConfig());
  BuildIndexRequest build = BuildRequestFor("g", data, config);
  build.backend = BackendKind::kEpsilonGrid;
  auto built = live.client.BuildIndex(build);
  ASSERT_TRUE(built.ok()) << built.status().ToString();

  RangeQueryRequest req;
  req.name = "g";
  req.epsilon = 0.12;
  req.dims = static_cast<uint32_t>(data.dims());
  const size_t batch = 32;
  req.queries.assign(data.flat().begin(),
                     data.flat().begin() + batch * data.dims());
  auto resp = live.client.RangeQuery(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_EQ(resp->results.size(), batch);
  JoinStats ref_stats;
  for (size_t q = 0; q < batch; ++q) {
    EXPECT_EQ(resp->results[q],
              ref.Query(data.Row(static_cast<PointId>(q)), &ref_stats))
        << "query " << q;
  }
  ExpectStatsEqual(resp->stats, ref_stats);

  // Self-join on the grid index streams the same pairs the flat tree
  // produces in-process (the server joins on its lazily built tree aux).
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  VectorSink ref_sink;
  ASSERT_TRUE(FlatEkdbSelfJoin(*ref_flat, &ref_sink).ok());

  SimilarityJoinRequest join;
  join.name_a = "g";
  VectorSink sink;
  auto done = live.client.SimilarityJoin(join, &sink);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(sink.pairs(), ref_sink.pairs());

  // A cross-join naming the grid index on either side works the same way
  // (grid aux tree vs. tree primary over identical data = self-join pairs,
  // both orientations).
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("t", data, config)).ok());
  join.name_a = "t";
  join.name_b = "g";
  VectorSink cross_sink;
  done = live.client.SimilarityJoin(join, &cross_sink);
  ASSERT_TRUE(done.ok()) << done.status().ToString();

  join.name_a = "g";
  join.name_b = "t";
  VectorSink cross_sink2;
  done = live.client.SimilarityJoin(join, &cross_sink2);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(cross_sink.pairs(), cross_sink2.pairs());
}

// Shutdown while requests are parked in the fusion buffer: the collector
// flushes everything it holds, every parked request still gets its exact
// answer, and Wait() returns.
TEST(FusionTest, ShutdownDrainsParkedFusionEntries) {
  ServerConfig config;
  config.fusion_enabled = true;
  config.fusion_max_batch = 1000;   // never flushes on count...
  config.fusion_wait_us = 500000;   // ...or (within the test) on time
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(200, 4, 13);
  const EkdbConfig index_config = Config(0.2);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, index_config)).ok());
  auto ref_tree = EkdbTree::Build(data, index_config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  const uint16_t port = live.server->port();
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&, t]() {
      auto client = Client::Connect({.port = port});
      ASSERT_TRUE(client.ok());
      const size_t qi = static_cast<size_t>(t * 31) % data.size();
      auto ids = client->RangeQueryOne("d", data.RowSpan(qi), 0.1);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      EXPECT_EQ(*ids, SortedTreeAnswer(*ref_flat,
                                       data.Row(static_cast<PointId>(qi)),
                                       0.1));
    });
  }
  // Give the requests time to park, then pull the plug.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  ASSERT_TRUE(live.client.Shutdown().ok());
  for (std::thread& t : threads) t.join();
  live.server->Wait();
}

// The fusion instrumentation crosses the Stats RPC: counters and the
// batch-size histogram ride the same metrics snapshot as everything else.
TEST(FusionTest, FusionMetricsSurfaceInStatsRpc) {
  LiveServer live = StartWithClient(FusedConfig());
  const Dataset data = MakeData(100, 3, 17);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(
        live.client.RangeQueryOne("d", data.RowSpan(0), 0.05).ok());
  }

  const ServerCounters counters = live.server->counters();
  EXPECT_GT(counters.fusion_batches, 0u);
  EXPECT_GE(counters.fusion_fused_queries, 4u);
  EXPECT_EQ(counters.fusion_batch_full + counters.fusion_wait_expired,
            counters.fusion_batches);

  auto stats = live.client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const obs::CounterSample* batches =
      stats->metrics.FindCounter("service.fusion.batches");
  ASSERT_NE(batches, nullptr);
  EXPECT_GT(batches->value, 0u);
  const obs::CounterSample* fused =
      stats->metrics.FindCounter("service.fusion.fused_queries");
  ASSERT_NE(fused, nullptr);
  EXPECT_GE(fused->value, 4u);
  const obs::HistogramSample* sizes =
      stats->metrics.FindHistogram("service.fusion.batch_size");
  ASSERT_NE(sizes, nullptr);
  EXPECT_GT(sizes->count, 0u);
  const obs::HistogramSample* waits =
      stats->metrics.FindHistogram("service.fusion.wait_us");
  ASSERT_NE(waits, nullptr);
  EXPECT_GE(waits->count, 4u);
}

}  // namespace
}  // namespace simjoin
