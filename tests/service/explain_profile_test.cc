// Loopback tests for per-request observability: EXPLAIN ANALYZE profiles
// must ride along without perturbing results (bit-identical ids to the
// unprofiled request at every worker count, fused and unfused), the phase
// tree must account for essentially all of the request's wall time and
// name the backend that served it, and the slow-query log must capture
// every over-threshold or failed request under concurrent load.

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "service/client.h"
#include "service/server.h"
#include "workload/generators.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace {

Dataset MakeData(size_t n, size_t dims, uint64_t seed) {
  auto data = GenerateUniform({.n = n, .dims = dims, .seed = seed});
  EXPECT_TRUE(data.ok());
  return std::move(*data);
}

BuildIndexRequest BuildRequestFor(const std::string& name,
                                  const Dataset& data, double epsilon) {
  BuildIndexRequest req;
  req.name = name;
  req.config.epsilon = epsilon;
  req.config.leaf_threshold = 16;
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

RangeQueryRequest QueryBatch(const Dataset& data, bool planner) {
  RangeQueryRequest req;
  req.name = "idx";
  req.epsilon = 0.2;
  req.dims = static_cast<uint32_t>(data.dims());
  // A handful of query rows straight from the dataset: nonempty results.
  for (size_t i = 0; i < 5; ++i) {
    const auto row = data.RowSpan(static_cast<PointId>(i * 7));
    req.queries.insert(req.queries.end(), row.begin(), row.end());
  }
  if (planner) {
    req.has_planner = true;
    req.recall = 1.0;
  }
  return req;
}

/// Index of the first root node, checked to be the request span.
uint32_t RootNode(const obs::RequestProfile& p) {
  for (uint32_t i = 0; i < p.nodes.size(); ++i) {
    if (p.nodes[i].parent == obs::kProfileNoParent) return i;
  }
  return obs::kProfileNoParent;
}

void ExpectWellFormedProfile(const obs::RequestProfile& p,
                             uint64_t trace_id) {
  EXPECT_EQ(p.trace_id, trace_id);
  EXPECT_GT(p.total_wall_ns, 0u);
  EXPECT_EQ(p.dropped_nodes, 0u);
  // The plan names the backend that served the request.
  EXPECT_NE(p.plan.find("backend="), std::string::npos) << p.plan;

  const uint32_t root = RootNode(p);
  ASSERT_NE(root, obs::kProfileNoParent);
  EXPECT_EQ(p.nodes[root].name, "service.range_query");
  // The root span covers the request end to end and its direct children
  // (queue / resolve-or-parse / execute phases) account for >= 95% of it:
  // no invisible time.
  EXPECT_GE(p.nodes[root].wall_ns, p.total_wall_ns * 95 / 100);
  EXPECT_GE(p.ChildWallNanos(root), p.nodes[root].wall_ns * 95 / 100);
  // Execution surfaced its work counters.
  bool saw_queries = false;
  for (const obs::ProfileCounter& c : p.counters) {
    if (c.name == "query_points") {
      saw_queries = true;
      EXPECT_EQ(c.value, 5u);
    }
  }
  EXPECT_TRUE(saw_queries);
}

TEST(ExplainProfileTest, ProfiledQueriesAreBitIdenticalAtEveryShape) {
  const Dataset data = MakeData(400, 6, 17);
  for (const size_t workers : {size_t{1}, size_t{2}, size_t{4}}) {
    for (const bool fusion : {false, true}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " fusion=" + std::to_string(fusion));
      ServerConfig config;
      config.worker_threads = workers;
      config.fusion_enabled = fusion;
      LiveServer live = StartWithClient(config);
      ASSERT_TRUE(
          live.client.BuildIndex(BuildRequestFor("idx", data, 0.2)).ok());

      for (const bool planner : {false, true}) {
        RangeQueryRequest plain = QueryBatch(data, planner);
        auto baseline = live.client.RangeQuery(plain);
        ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
        EXPECT_FALSE(baseline->has_profile);

        RangeQueryRequest profiled = QueryBatch(data, planner);
        profiled.trace.present = true;
        profiled.trace.trace_id = GenerateTraceId();
        profiled.trace.flags = kTraceFlagProfile;
        auto traced = live.client.RangeQuery(profiled);
        ASSERT_TRUE(traced.ok()) << traced.status().ToString();

        // Profiling must not perturb the answer.
        EXPECT_EQ(traced->results, baseline->results);
        ASSERT_TRUE(traced->has_profile);
        ExpectWellFormedProfile(traced->profile, profiled.trace.trace_id);
        // Some result row is nonempty, so the comparison is meaningful.
        size_t total_ids = 0;
        for (const auto& ids : baseline->results) total_ids += ids.size();
        EXPECT_GT(total_ids, 0u);
      }
    }
  }
}

TEST(ExplainProfileTest, UntracedRequestsCarryNoProfile) {
  const Dataset data = MakeData(100, 4, 3);
  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("idx", data, 0.2)).ok());
  // The client auto-attaches a trace id, but without the profile flag the
  // response must carry no kProfile tag.
  auto resp = live.client.RangeQuery(QueryBatch(data, false));
  ASSERT_TRUE(resp.ok());
  EXPECT_FALSE(resp->has_profile);
}

TEST(ExplainProfileTest, SlowLogCapturesEveryRequestUnderConcurrentLoad) {
  const Dataset data = MakeData(200, 4, 11);
  ServerConfig config;
  config.slow_query_us = 1;  // every request is over threshold
  config.slow_query_capacity = 2048;
  LiveServer live = StartWithClient(config);
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("idx", data, 0.2)).ok());

  constexpr size_t kConnections = 16;
  constexpr size_t kQueriesPerConnection = 8;
  std::atomic<size_t> sent{0};
  std::vector<std::thread> threads;
  threads.reserve(kConnections);
  const uint16_t port = live.server->port();
  for (size_t c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ClientConfig cc;
      cc.port = port;
      auto client = Client::Connect(cc);
      ASSERT_TRUE(client.ok());
      for (size_t i = 0; i < kQueriesPerConnection; ++i) {
        auto resp = client->RangeQuery(QueryBatch(data, c % 2 == 0));
        if (resp.ok()) sent.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(sent.load(), kConnections * kQueriesPerConnection);

  auto stats = live.client.GetStats(/*drain_slowlog=*/true);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  ASSERT_TRUE(stats->has_slowlog);
  size_t range_entries = 0;
  for (const obs::SlowQueryEntry& e : stats->slowlog) {
    if (e.op != static_cast<uint8_t>(FrameType::kRangeQuery)) continue;
    ++range_entries;
    EXPECT_EQ(e.index, "idx");
    EXPECT_EQ(e.status_code, 0u);
    EXPECT_NE(e.trace_id, 0u);  // client auto-attached an id
    // Each entry carries the phase tree that explains its latency.
    EXPECT_FALSE(e.profile.nodes.empty());
    EXPECT_NE(e.profile.plan.find("backend="), std::string::npos);
  }
  // 100% capture: every over-threshold request left an entry (none were
  // evicted: capacity exceeds the load).
  EXPECT_EQ(range_entries, kConnections * kQueriesPerConnection);
  EXPECT_EQ(stats->slowlog_evicted, 0u);
  EXPECT_GE(stats->slowlog_recorded, range_entries);

  // Draining removed them: a second drain returns only newer entries.
  auto again = live.client.GetStats(true);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(again->has_slowlog);
  for (const obs::SlowQueryEntry& e : again->slowlog) {
    EXPECT_NE(e.op, static_cast<uint8_t>(FrameType::kRangeQuery));
  }
}

TEST(ExplainProfileTest, FailedRequestsAreAlwaysRecorded) {
  ServerConfig config;
  config.slow_query_us = 60'000'000;  // threshold no fast request reaches
  LiveServer live = StartWithClient(config);
  RangeQueryRequest req;
  req.name = "no-such-index";
  req.dims = 2;
  req.queries = {0.1f, 0.2f};
  EXPECT_FALSE(live.client.RangeQuery(req).ok());

  auto stats = live.client.GetStats(true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->has_slowlog);
  ASSERT_EQ(stats->slowlog.size(), 1u);  // the failure, not the fast stats
  EXPECT_NE(stats->slowlog[0].status_code, 0u);
  EXPECT_EQ(stats->slowlog[0].index, "no-such-index");
}

TEST(ExplainProfileTest, DisabledSlowLogAnswersDrainWithEmptyBlock) {
  LiveServer live = StartWithClient();  // slow_query_us == 0: no log
  auto stats = live.client.GetStats(true);
  ASSERT_TRUE(stats.ok());
  // The block is present (the server understood the request) but empty —
  // distinguishable from talking to a pre-extension server.
  ASSERT_TRUE(stats->has_slowlog);
  EXPECT_TRUE(stats->slowlog.empty());
  EXPECT_EQ(stats->slowlog_recorded, 0u);
}

TEST(ExplainProfileTest, ProfiledJoinAttributesParallelSweepSpans) {
  // A profiled request that fans work onto the ThreadPool must see its
  // spans come back to the request's own tree (context propagation), and
  // the un-profiled path must stay unaffected.
  const Dataset data = MakeData(300, 4, 5);
  ServerConfig config;
  config.worker_threads = 4;
  config.slow_query_us = 1;  // arm collectors for every request
  LiveServer live = StartWithClient(config);
  ASSERT_TRUE(live.client.BuildIndex(BuildRequestFor("idx", data, 0.2)).ok());

  SimilarityJoinRequest join;
  join.name_a = "idx";
  join.num_threads = 4;
  VectorSink sink;
  auto done = live.client.SimilarityJoin(join, &sink);
  ASSERT_TRUE(done.ok()) << done.status().ToString();

  auto stats = live.client.GetStats(true);
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->has_slowlog);
  bool saw_join = false;
  for (const obs::SlowQueryEntry& e : stats->slowlog) {
    if (e.op != static_cast<uint8_t>(FrameType::kSimilarityJoin)) continue;
    saw_join = true;
    EXPECT_FALSE(e.profile.nodes.empty());
  }
  EXPECT_TRUE(saw_join);
}

}  // namespace
}  // namespace simjoin
