// Differential loopback tests: every result that crosses the wire must be
// bit-identical to the in-process APIs on the same data — range answers of
// the planned backend in ascending id order, the join pair sequence of the
// flat tree, the same JoinStats — at every thread count.  The service adds
// transport, not semantics.

#include <algorithm>
#include <chrono>
#include <memory>
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

TEST(ServerLoopbackTest, PingAndStats) {
  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client.Ping().ok());
  auto stats = live.client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->accepted_connections, 1u);
  EXPECT_EQ(stats->indexes.size(), 0u);
}

TEST(ServerLoopbackTest, StatsRpcRoundTripsEveryRegisteredMetric) {
  const Dataset data = MakeData(300, 6, 17);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("m", data, Config(0.15))).ok());
  SimilarityJoinRequest req;
  req.name_a = "m";
  VectorSink sink;
  ASSERT_TRUE(live.client.SimilarityJoin(req, &sink).ok());

  // The server runs in-process, so the RPC must export (a superset of) the
  // same registry this test can snapshot locally: every metric registered
  // before the call comes back by name, counters no smaller than the local
  // reading (they are monotonic and traffic only moves them forward).
  const obs::MetricsSnapshot before = obs::GlobalMetrics().Snapshot();
  auto stats = live.client.GetStats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const obs::MetricsSnapshot& wire = stats->metrics;
  for (const obs::CounterSample& c : before.counters) {
    const obs::CounterSample* got = wire.FindCounter(c.name);
    ASSERT_NE(got, nullptr) << "counter " << c.name << " missing from RPC";
    EXPECT_GE(got->value, c.value) << c.name;
  }
  for (const obs::GaugeSample& g : before.gauges) {
    EXPECT_NE(wire.FindGauge(g.name), nullptr)
        << "gauge " << g.name << " missing from RPC";
  }
  for (const obs::HistogramSample& h : before.histograms) {
    const obs::HistogramSample* got = wire.FindHistogram(h.name);
    ASSERT_NE(got, nullptr) << "histogram " << h.name << " missing from RPC";
    EXPECT_EQ(got->boundaries, h.boundaries) << h.name;
    EXPECT_GE(got->count, h.count) << h.name;
  }

  // Spot-check the service instrumentation itself made the trip.
  const obs::CounterSample* admitted =
      wire.FindCounter("service.requests_admitted");
  ASSERT_NE(admitted, nullptr);
  EXPECT_GE(admitted->value, 3u);  // build + join + this stats request
  const obs::CounterSample* streamed =
      wire.FindCounter("service.pairs_streamed");
  ASSERT_NE(streamed, nullptr);
  EXPECT_EQ(streamed->value, sink.pairs().size());
  const obs::HistogramSample* join_lat =
      wire.FindHistogram("service.latency_us.similarity_join");
  ASSERT_NE(join_lat, nullptr);
  EXPECT_GE(join_lat->count, 1u);
  const obs::CounterSample* bytes_in = wire.FindCounter("service.bytes_in");
  const obs::CounterSample* bytes_out = wire.FindCounter("service.bytes_out");
  ASSERT_NE(bytes_in, nullptr);
  ASSERT_NE(bytes_out, nullptr);
  EXPECT_GT(bytes_in->value, 0u);
  EXPECT_GT(bytes_out->value, 0u);
}

TEST(ServerLoopbackTest, RangeQueryMatchesInProcessBitForBit) {
  const Dataset data = MakeData(500, 8, 11);
  const EkdbConfig config = Config(0.2);
  const PlannedReference ref(data, config, 0.15);

  RangeQueryRequest req;
  req.name = "d";
  req.epsilon = 0.15;
  req.dims = static_cast<uint32_t>(data.dims());
  const size_t batch = 40;
  req.queries.assign(data.flat().begin(),
                     data.flat().begin() + batch * data.dims());

  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    ServerConfig server_config;
    server_config.worker_threads = workers;
    LiveServer live = StartWithClient(server_config);
    auto built = live.client.BuildIndex(BuildRequestFor("d", data, config));
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    EXPECT_EQ(built->num_points, 500u);

    auto resp = live.client.RangeQuery(req);
    ASSERT_TRUE(resp.ok()) << resp.status().ToString();
    ASSERT_EQ(resp->results.size(), batch);
    JoinStats ref_stats;
    for (size_t i = 0; i < batch; ++i) {
      EXPECT_EQ(resp->results[i], ref.Query(data.Row(i), &ref_stats))
          << "workers=" << workers << " query " << i;
    }
    ExpectStatsEqual(resp->stats, ref_stats);
  }
}

TEST(ServerLoopbackTest, SelfJoinMatchesInProcessAtEveryThreadCount) {
  const Dataset data = MakeData(600, 6, 23);
  const EkdbConfig config = Config(0.15);

  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  VectorSink expected;
  JoinStats ref_stats;
  ASSERT_TRUE(FlatEkdbSelfJoin(*ref_flat, &expected, &ref_stats).ok());

  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  for (const uint32_t threads : {1u, 2u, 4u}) {
    SimilarityJoinRequest req;
    req.name_a = "d";
    req.num_threads = threads;
    req.chunk_pairs = 97;  // force many chunks so reassembly is exercised
    VectorSink got;
    auto done = live.client.SimilarityJoin(req, &got);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    // Exact sequence, not just the same set: the wire preserves the
    // deterministic emission order of the join engine.
    EXPECT_EQ(got.pairs(), expected.pairs()) << "threads=" << threads;
    EXPECT_EQ(done->total_pairs, expected.pairs().size());
    ExpectStatsEqual(done->stats, ref_stats);
  }
}

TEST(ServerLoopbackTest, CrossJoinAndNarrowedEpsilonMatch) {
  const Dataset a = MakeData(300, 5, 31);
  const Dataset b = MakeData(250, 5, 37);
  const EkdbConfig config = Config(0.2);

  auto ta = EkdbTree::Build(a, config);
  auto tb = EkdbTree::Build(b, config);
  ASSERT_TRUE(ta.ok() && tb.ok());
  auto fa = FlatEkdbTree::FromTree(*ta);
  auto fb = FlatEkdbTree::FromTree(*tb);
  ASSERT_TRUE(fa.ok() && fb.ok());
  VectorSink expected;
  JoinStats ref_stats;
  ASSERT_TRUE(
      FlatEkdbJoinWithEpsilon(*fa, *fb, 0.12, &expected, &ref_stats).ok());

  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("a", a, config)).ok());
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("b", b, config)).ok());

  SimilarityJoinRequest req;
  req.name_a = "a";
  req.name_b = "b";
  req.epsilon = 0.12;  // narrower than the build epsilon
  VectorSink got;
  auto done = live.client.SimilarityJoin(req, &got);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(got.pairs(), expected.pairs());
  ExpectStatsEqual(done->stats, ref_stats);
}

TEST(ServerLoopbackTest, ParallelClientsGetConsistentAnswers) {
  const Dataset data = MakeData(400, 4, 43);
  const EkdbConfig config = Config(0.1);
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());

  ServerConfig server_config;
  server_config.io_threads = 2;
  LiveServer live = StartWithClient(server_config);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  const uint16_t port = live.server->port();
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&, t]() {
      ClientConfig cc;
      cc.port = port;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      for (int i = 0; i < 20; ++i) {
        const size_t qi = static_cast<size_t>(t * 20 + i) % data.size();
        auto ids = client->RangeQueryOne("d", data.RowSpan(qi), 0.08);
        ASSERT_TRUE(ids.ok()) << ids.status().ToString();
        std::vector<PointId> expected;
        ASSERT_TRUE(
            ref_flat->RangeQuery(data.Row(qi), 0.08, &expected).ok());
        std::sort(expected.begin(), expected.end());
        EXPECT_EQ(*ids, expected);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(live.server->counters().decode_errors, 0u);
}

TEST(ServerLoopbackTest, ErrorPaths) {
  LiveServer live = StartWithClient();

  // Unknown index.
  auto ids = live.client.RangeQueryOne("ghost", std::vector<float>{0.5f});
  EXPECT_EQ(ids.status().code(), StatusCode::kNotFound);

  // Dimension mismatch.
  const Dataset data = MakeData(50, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());
  auto wrong = live.client.RangeQueryOne("d", std::vector<float>{0.5f, 0.5f});
  EXPECT_EQ(wrong.status().code(), StatusCode::kInvalidArgument);

  // Malformed points payload (count not a multiple of dims).
  BuildIndexRequest bad = BuildRequestFor("bad", data, Config());
  bad.points.pop_back();
  EXPECT_FALSE(live.client.BuildIndex(bad).ok());

  // Radius beyond the build epsilon.
  RangeQueryRequest req;
  req.name = "d";
  req.epsilon = 0.9;
  req.dims = 3;
  req.queries = {0.5f, 0.5f, 0.5f};
  EXPECT_EQ(live.client.RangeQuery(req).status().code(),
            StatusCode::kInvalidArgument);

  // Drop, then the index really is gone.
  auto dropped = live.client.DropIndex("d");
  ASSERT_TRUE(dropped.ok());
  EXPECT_TRUE(dropped->found);
  EXPECT_EQ(live.client.DropIndex("d")->found, false);
  EXPECT_EQ(live.client.RangeQueryOne("d", std::vector<float>{0.0f, 0.0f,
                                                              0.0f})
                .status()
                .code(),
            StatusCode::kNotFound);

  // The connection survived every error above.
  EXPECT_TRUE(live.client.Ping().ok());
}

TEST(ServerLoopbackTest, BackpressureRejectsThenRecovers) {
  ServerConfig config;
  config.max_inflight = 1;
  config.handler_delay_ms_for_testing = 100;
  LiveServer live = StartWithClient(config);

  const Dataset data = MakeData(60, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());

  // Saturate the single slot from several connections at once.  With
  // max_retries = 0 the rejected requests surface as Unavailable.
  std::atomic<int> ok{0}, unavailable{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&]() {
      ClientConfig cc;
      cc.port = live.server->port();
      cc.max_retries = 0;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      auto ids = client->RangeQueryOne("d", data.RowSpan(0), 0.05);
      if (ids.ok()) {
        ok.fetch_add(1);
      } else {
        ASSERT_EQ(ids.status().code(), StatusCode::kUnavailable)
            << ids.status().ToString();
        unavailable.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(ok.load(), 0);
  EXPECT_GT(unavailable.load(), 0);
  EXPECT_GT(live.server->counters().requests_rejected, 0u);

  // With retries enabled the same burst fully succeeds.
  std::atomic<int> retried_ok{0};
  std::vector<std::thread> retry_threads;
  for (int t = 0; t < 4; ++t) {
    retry_threads.emplace_back([&]() {
      ClientConfig cc;
      cc.port = live.server->port();
      cc.max_retries = 100;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      auto ids = client->RangeQueryOne("d", data.RowSpan(0), 0.05);
      ASSERT_TRUE(ids.ok()) << ids.status().ToString();
      retried_ok.fetch_add(1);
    });
  }
  for (std::thread& t : retry_threads) t.join();
  EXPECT_EQ(retried_ok.load(), 4);
}

TEST(ServerLoopbackTest, DeadlineExpiryReported) {
  ServerConfig config;
  config.handler_delay_ms_for_testing = 50;  // emulates queueing delay
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

TEST(ServerLoopbackTest, MalformedBytesGetErrorFrameAndClose) {
  LiveServer live = StartWithClient();
  auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
  ASSERT_TRUE(raw.ok());
  const uint8_t garbage[32] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(raw->SendAll(garbage, sizeof(garbage)).ok());
  // The server answers with one kError frame, then hangs up.
  uint8_t header[kFrameHeaderSize];
  ASSERT_TRUE(raw->RecvAll(header, sizeof(header)).ok());
  FrameHeader h;
  ASSERT_TRUE(DecodeFrameHeader(header, kDefaultMaxFramePayload, &h).ok());
  EXPECT_EQ(h.type, FrameType::kError);
  std::vector<uint8_t> payload(h.payload_size);
  ASSERT_TRUE(raw->RecvAll(payload.data(), payload.size()).ok());
  uint8_t one_more;
  EXPECT_FALSE(raw->RecvAll(&one_more, 1).ok());  // EOF: connection closed
  EXPECT_EQ(live.server->counters().decode_errors, 1u);

  // Other connections are unaffected.
  EXPECT_TRUE(live.client.Ping().ok());
}

// A hostile request may ask for u32-max threads and u32-max chunk pairs;
// the server must clamp both (not spawn a million OS threads or reserve a
// 34 GB chunk buffer) and still answer the exact join result.
TEST(ServerLoopbackTest, HostileResourceParamsAreClamped) {
  const Dataset data = MakeData(300, 4, 7);
  const EkdbConfig config = Config(0.15);
  auto ref_tree = EkdbTree::Build(data, config);
  ASSERT_TRUE(ref_tree.ok());
  auto ref_flat = FlatEkdbTree::FromTree(*ref_tree);
  ASSERT_TRUE(ref_flat.ok());
  VectorSink expected;
  ASSERT_TRUE(FlatEkdbSelfJoin(*ref_flat, &expected).ok());

  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, config)).ok());

  SimilarityJoinRequest req;
  req.name_a = "d";
  req.num_threads = 0xFFFFFFFFu;
  req.chunk_pairs = 0xFFFFFFFFu;
  VectorSink got;
  auto done = live.client.SimilarityJoin(req, &got);
  ASSERT_TRUE(done.ok()) << done.status().ToString();
  EXPECT_EQ(got.pairs(), expected.pairs());

  // BuildIndex carries the same unvalidated thread count.
  BuildIndexRequest build = BuildRequestFor("d2", data, config);
  build.num_threads = 0xFFFFFFFFu;
  EXPECT_TRUE(live.client.BuildIndex(build).ok());
}

// A peer that resets mid join-stream must not leave undeliverable bytes
// queued forever: the connection is marked dead, its queue discarded, and
// shutdown still drains (the pre-fix server hung in Wait() here).
TEST(ServerLoopbackTest, AbruptDisconnectMidJoinDoesNotWedgeShutdown) {
  const Dataset data = MakeData(2000, 2, 13);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config(0.3))).ok());

  {
    auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
    ASSERT_TRUE(raw.ok());
    SimilarityJoinRequest req;
    req.name_a = "d";
    req.chunk_pairs = 1024;  // many frames, well past the socket buffers
    const std::vector<uint8_t> frame = EncodeFrame(
        FrameType::kSimilarityJoin, 1, 0, EncodeSimilarityJoinRequest(req));
    ASSERT_TRUE(raw->SendAll(frame.data(), frame.size()).ok());
    // Scope exit closes the socket while the join is still streaming.
  }

  ASSERT_TRUE(live.client.Shutdown().ok());
  live.server->Wait();  // regression: must return, not spin on the dead conn
}

// A connected client that stops reading must not buffer its entire result
// set in server memory: the stream blocks at max_conn_queued_bytes and the
// stall timeout disconnects it, leaving the server responsive.
TEST(ServerLoopbackTest, StalledStreamReaderIsDisconnected) {
  ServerConfig config;
  config.max_conn_queued_bytes = 64u << 10;
  config.write_stall_timeout_ms = 250;
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(4000, 2, 17);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config(0.5))).ok());

  // Raw connection that requests a multi-megabyte pair stream and never
  // reads a byte of it.
  auto raw = TcpSocket::Connect("127.0.0.1", live.server->port());
  ASSERT_TRUE(raw.ok());
  SimilarityJoinRequest req;
  req.name_a = "d";
  const std::vector<uint8_t> frame = EncodeFrame(
      FrameType::kSimilarityJoin, 1, 0, EncodeSimilarityJoinRequest(req));
  ASSERT_TRUE(raw->SendAll(frame.data(), frame.size()).ok());

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(30);
  while (live.server->counters().write_stall_disconnects == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(live.server->counters().write_stall_disconnects, 1u);
  // The server shed the stalled connection and stayed responsive.
  EXPECT_TRUE(live.client.Ping().ok());
}

// A response that would overflow the frame limit is replaced by a clear
// error, never a size-field-truncated frame that desyncs the stream.
TEST(ServerLoopbackTest, OversizedResponseRejectedNotTruncated) {
  ServerConfig config;
  config.max_frame_payload = 4096;
  LiveServer live = StartWithClient(config);
  const Dataset data = MakeData(80, 3, 19);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config(0.9))).ok());

  // 50 queries at a radius that matches most of the index: the result
  // payload exceeds 4096 bytes and must come back as OUT_OF_RANGE.
  RangeQueryRequest big;
  big.name = "d";
  big.epsilon = 0.9;
  big.dims = 3;
  big.queries.assign(data.flat().begin(), data.flat().begin() + 50 * 3);
  EXPECT_EQ(live.client.RangeQuery(big).status().code(),
            StatusCode::kOutOfRange);

  // The connection survived and a small batch still works.
  auto one = live.client.RangeQueryOne("d", data.RowSpan(0), 0.05);
  EXPECT_TRUE(one.ok()) << one.status().ToString();
}

// A failed Start (here: port already bound) must surface as a Status; the
// pre-fix destructor of the partially built Server dereferenced the
// never-created task group and crashed.
TEST(ServerLoopbackTest, StartOnOccupiedPortFailsCleanly) {
  LiveServer live = StartWithClient();
  ServerConfig conflict;
  conflict.port = live.server->port();
  auto second = Server::Start(conflict);
  EXPECT_FALSE(second.ok());
}

TEST(ServerLoopbackTest, ShutdownDrainsCleanly) {
  LiveServer live = StartWithClient();
  const Dataset data = MakeData(100, 3, 5);
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("d", data, Config())).ok());
  ASSERT_TRUE(live.client.Shutdown().ok());
  live.server->Wait();
  // After the drain, new connections are refused.
  EXPECT_FALSE(Client::Connect({.port = live.server->port()}).ok());
}

}  // namespace
}  // namespace simjoin
