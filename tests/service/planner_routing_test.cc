// Randomized differential tests of the cost-based range planner over the
// wire: planner-routed exact answers, with or without the planner tag, must
// be bit-identical to forced ekdb-flat answers (all in ascending id order)
// at every worker count, solo and under concurrent fused traffic; the
// recall-controlled LSH tier
// must return a verified subset meeting its target; bad planner fields must
// be rejected; repeated (epsilon, recall) pairs must hit the plan cache.

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "common/metric.h"
#include "common/rng.h"
#include "core/index_backend.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/generators.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace {

EkdbConfig Config(double epsilon) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = 16;
  return config;
}

BuildIndexRequest BuildRequestFor(const std::string& name,
                                  const Dataset& data,
                                  const EkdbConfig& config,
                                  BackendKind backend = BackendKind::kEkdbFlat) {
  BuildIndexRequest req;
  req.name = name;
  req.config = config;
  req.dims = static_cast<uint32_t>(data.dims());
  req.points = data.flat();
  req.backend = backend;
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

RangeQueryRequest QueriesFor(const std::string& name, const Dataset& data,
                             double epsilon, size_t count, uint64_t seed) {
  RangeQueryRequest req;
  req.name = name;
  req.epsilon = epsilon;
  req.dims = static_cast<uint32_t>(data.dims());
  Rng rng(seed);
  for (size_t i = 0; i < count; ++i) {
    const auto row = static_cast<PointId>(rng.UniformInt(data.size()));
    const float* p = data.Row(row);
    req.queries.insert(req.queries.end(), p, p + data.dims());
  }
  return req;
}

TEST(PlannerRoutingTest, RoutedExactIsBitIdenticalToForcedEkdbAcrossWorkers) {
  auto data = GenerateUniform({.n = 1500, .dims = 6, .seed = 0x41});
  ASSERT_TRUE(data.ok());
  const double eps = 0.12;
  for (const size_t workers : {1u, 2u, 4u}) {
    ServerConfig config;
    config.worker_threads = workers;
    LiveServer live = StartWithClient(config);
    ASSERT_TRUE(
        live.client.BuildIndex(BuildRequestFor("u", *data, Config(eps)))
            .ok());

    for (size_t round = 0; round < 4; ++round) {
      RangeQueryRequest req =
          QueriesFor("u", *data, round % 2 == 0 ? eps : eps * 0.5,
                     round == 0 ? 1 : 24, 0x900 + round + workers);

      RangeQueryRequest forced = req;
      forced.has_planner = true;
      forced.backend = static_cast<uint8_t>(BackendKind::kEkdbFlat);
      auto want = live.client.RangeQuery(forced);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      ASSERT_TRUE(want->has_planner);
      EXPECT_EQ(want->backend_used,
                static_cast<uint8_t>(BackendKind::kEkdbFlat));
      EXPECT_EQ(want->achieved_recall, 1.0);

      RangeQueryRequest routed = req;
      routed.has_planner = true;  // recall 1, backend auto
      auto got = live.client.RangeQuery(routed);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ASSERT_TRUE(got->has_planner);
      EXPECT_EQ(got->achieved_recall, 1.0);
      const auto kind = BackendKindFromWire(got->backend_used);
      ASSERT_TRUE(kind.ok());
      EXPECT_NE(*kind, BackendKind::kLsh);  // recall 1 must stay exact

      // The planner may route anywhere exact; the canonical answer bytes
      // must not change.
      EXPECT_EQ(got->results, want->results)
          << "workers=" << workers << " round=" << round << " routed to "
          << BackendKindName(*kind);

      // A request without the planner tag is planned the same way and
      // answers the same bytes, without the planner echo.
      auto untagged = live.client.RangeQuery(req);
      ASSERT_TRUE(untagged.ok());
      EXPECT_FALSE(untagged->has_planner);
      EXPECT_EQ(untagged->results, want->results);
    }
  }
}

TEST(PlannerRoutingTest, ConcurrentPlannerAndLegacyTrafficStaysConsistent) {
  auto data = GenerateUniform({.n = 1200, .dims = 4, .seed = 0x77});
  ASSERT_TRUE(data.ok());
  const double eps = 0.1;
  ServerConfig config;
  config.worker_threads = 4;
  auto server = Server::Start(config);
  ASSERT_TRUE(server.ok());
  ClientConfig client_config;
  client_config.port = (*server)->port();

  {
    auto setup = Client::Connect(client_config);
    ASSERT_TRUE(setup.ok());
    ASSERT_TRUE(
        setup->BuildIndex(BuildRequestFor("c", *data, Config(eps))).ok());
  }

  // Reference answers, canonical order, computed up front.
  std::vector<RangeQueryRequest> reqs;
  std::vector<std::vector<std::vector<PointId>>> want;
  {
    auto ref = Client::Connect(client_config);
    ASSERT_TRUE(ref.ok());
    for (size_t i = 0; i < 6; ++i) {
      RangeQueryRequest req = QueriesFor("c", *data, eps, 16, 0xabc + i);
      req.has_planner = true;
      req.backend = static_cast<uint8_t>(BackendKind::kEkdbFlat);
      auto resp = ref->RangeQuery(req);
      ASSERT_TRUE(resp.ok());
      reqs.push_back(req);
      want.push_back(resp->results);
    }
  }

  // Several connections fire planner-auto requests with and without the
  // planner tag at once so the fusion collector sees mixed batches; every
  // answer must match, in ascending id order.
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (size_t t = 0; t < 4; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(client_config);
      if (!client.ok()) {
        ++failures;
        return;
      }
      for (size_t iter = 0; iter < 12; ++iter) {
        const size_t i = (t * 5 + iter) % reqs.size();
        RangeQueryRequest req = reqs[i];
        const bool planner = (t + iter) % 2 == 0;
        if (planner) {
          req.has_planner = true;
          req.backend = kWireBackendAuto;
        } else {
          req.has_planner = false;
        }
        auto resp = client->RangeQuery(req);
        if (!resp.ok()) {
          ++failures;
          continue;
        }
        if (resp->has_planner != planner || resp->results != want[i]) {
          ++failures;
        }
      }
    });
  }
  for (auto& thread : threads) {
    thread.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

TEST(PlannerRoutingTest, ForcedBackendsEchoAndAgreeOnGridPrimaryToo) {
  auto data = GenerateUniform({.n = 800, .dims = 3, .seed = 0x3});
  ASSERT_TRUE(data.ok());
  const double eps = 0.1;
  LiveServer live = StartWithClient();
  ASSERT_TRUE(live.client
                  .BuildIndex(BuildRequestFor("g", *data, Config(eps),
                                              BackendKind::kEpsilonGrid))
                  .ok());

  RangeQueryRequest base = QueriesFor("g", *data, eps, 12, 0x5eed);
  base.has_planner = true;

  std::vector<std::vector<PointId>> reference;
  for (const BackendKind kind :
       {BackendKind::kEkdbFlat, BackendKind::kEpsilonGrid,
        BackendKind::kBruteSimd}) {
    RangeQueryRequest req = base;
    req.backend = static_cast<uint8_t>(kind);
    auto resp = live.client.RangeQuery(req);
    ASSERT_TRUE(resp.ok()) << BackendKindName(kind) << ": "
                           << resp.status().ToString();
    ASSERT_TRUE(resp->has_planner);
    EXPECT_EQ(resp->backend_used, static_cast<uint8_t>(kind));
    EXPECT_EQ(resp->achieved_recall, 1.0);
    if (reference.empty()) {
      reference = resp->results;
    } else {
      EXPECT_EQ(resp->results, reference) << BackendKindName(kind);
    }
  }
}

TEST(PlannerRoutingTest, OnDiskBuildServesIdenticallyToInMemoryBuild) {
  const std::string spill_dir = ::testing::TempDir() + "/routing_spill";
  std::filesystem::create_directories(spill_dir);
  auto data = GenerateUniform({.n = 1200, .dims = 6, .seed = 0x61});
  ASSERT_TRUE(data.ok());
  const double eps = 0.1;
  ServerConfig config;
  config.segment_spill_dir = spill_dir;
  LiveServer live = StartWithClient(config);

  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("ram", *data, Config(eps)))
          .ok());
  BuildIndexRequest on_disk = BuildRequestFor("disk", *data, Config(eps));
  on_disk.on_disk = true;
  ASSERT_TRUE(live.client.BuildIndex(on_disk).ok());

  for (size_t round = 0; round < 3; ++round) {
    RangeQueryRequest ram_req =
        QueriesFor("ram", *data, eps, 16, 0x8000 + round);
    RangeQueryRequest disk_req = ram_req;
    disk_req.name = "disk";
    auto want = live.client.RangeQuery(ram_req);
    ASSERT_TRUE(want.ok()) << want.status().ToString();
    auto got = live.client.RangeQuery(disk_req);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got->results, want->results) << "round " << round;
  }

  // Without a spill dir the server must reject on-disk builds cleanly.
  LiveServer no_spill = StartWithClient();
  BuildIndexRequest rejected = BuildRequestFor("d2", *data, Config(eps));
  rejected.on_disk = true;
  EXPECT_FALSE(no_spill.client.BuildIndex(rejected).ok());

  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}

TEST(PlannerRoutingTest, LshTierReturnsVerifiedSubsetMeetingTarget) {
  auto data = GenerateClustered(
      {.n = 2000, .dims = 24, .clusters = 16, .sigma = 0.05, .seed = 0x15});
  ASSERT_TRUE(data.ok());
  const double eps = 0.4;
  const double target = 0.9;
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("k", *data, Config(eps))).ok());

  RangeQueryRequest req = QueriesFor("k", *data, eps, 48, 0xdead);
  req.has_planner = true;
  req.recall = target;
  req.backend = static_cast<uint8_t>(BackendKind::kLsh);  // pin the tier
  auto resp = live.client.RangeQuery(req);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  ASSERT_TRUE(resp->has_planner);
  EXPECT_EQ(resp->backend_used, static_cast<uint8_t>(BackendKind::kLsh));
  EXPECT_GT(resp->achieved_recall, 0.0);
  EXPECT_LE(resp->achieved_recall, 1.0);

  // Ground truth by brute force; every returned id must be a true
  // neighbour (precision 1) and overall recall must clear the target with
  // a sampling allowance.
  DistanceKernel kernel(Metric::kL2);
  const size_t count = resp->results.size();
  ASSERT_EQ(count, 48u);
  size_t found = 0;
  size_t truth_total = 0;
  for (size_t q = 0; q < count; ++q) {
    const float* query = req.queries.data() + q * data->dims();
    std::set<PointId> truth;
    for (size_t i = 0; i < data->size(); ++i) {
      const auto id = static_cast<PointId>(i);
      if (kernel.WithinEpsilon(query, data->Row(id), data->dims(), eps)) {
        truth.insert(id);
      }
    }
    EXPECT_TRUE(
        std::is_sorted(resp->results[q].begin(), resp->results[q].end()));
    for (const PointId id : resp->results[q]) {
      EXPECT_TRUE(truth.count(id)) << "false positive q" << q;
    }
    found += resp->results[q].size();
    truth_total += truth.size();
  }
  ASSERT_GT(truth_total, 0u);
  const double measured =
      static_cast<double>(found) / static_cast<double>(truth_total);
  EXPECT_GE(measured, target - 0.07) << "measured recall " << measured;
  // The wire estimate should be in the measurement's neighbourhood.
  EXPECT_GE(resp->achieved_recall, measured - 0.15);
  EXPECT_LE(resp->achieved_recall, 1.0);
}

TEST(PlannerRoutingTest, SecondIdenticalRequestHitsThePlanCache) {
  auto data = GenerateUniform({.n = 600, .dims = 5, .seed = 0x21});
  ASSERT_TRUE(data.ok());
  const double eps = 0.1;
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("p", *data, Config(eps))).ok());

  RangeQueryRequest req = QueriesFor("p", *data, eps, 4, 0x44);
  req.has_planner = true;
  auto first = live.client.RangeQuery(req);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->plan_cache_hit);
  auto second = live.client.RangeQuery(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->plan_cache_hit);
  EXPECT_EQ(second->backend_used, first->backend_used);
  EXPECT_EQ(second->results, first->results);

  // A different epsilon is a different cache key.
  RangeQueryRequest other = req;
  other.epsilon = eps * 0.5;
  auto third = live.client.RangeQuery(other);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->plan_cache_hit);
}

TEST(PlannerRoutingTest, InvalidPlannerFieldsAreRejected) {
  auto data = GenerateUniform({.n = 200, .dims = 3, .seed = 0x8});
  ASSERT_TRUE(data.ok());
  const double eps = 0.1;
  LiveServer live = StartWithClient();
  ASSERT_TRUE(
      live.client.BuildIndex(BuildRequestFor("v", *data, Config(eps))).ok());

  RangeQueryRequest good = QueriesFor("v", *data, eps, 2, 0x2);
  good.has_planner = true;
  ASSERT_TRUE(live.client.RangeQuery(good).ok());

  for (const double bad_recall : {0.0, -0.5, 1.5}) {
    RangeQueryRequest req = good;
    req.recall = bad_recall;
    EXPECT_FALSE(live.client.RangeQuery(req).ok())
        << "recall " << bad_recall;
  }
  // 4 is the retired R-tree value; 7 was never a BackendKind.
  for (const uint8_t bad : {4, 7}) {
    RangeQueryRequest bad_backend = good;
    bad_backend.backend = bad;
    EXPECT_FALSE(live.client.RangeQuery(bad_backend).ok()) << int{bad};
  }

  // recall < 1 forced onto an exact backend is fine (it just stays exact),
  // but recall < 1 with Linf metric has no LSH family — auto must still
  // answer exactly rather than fail.
  RangeQueryRequest lenient = good;
  lenient.recall = 0.8;
  auto resp = live.client.RangeQuery(lenient);
  ASSERT_TRUE(resp.ok()) << resp.status().ToString();
  EXPECT_GE(resp->achieved_recall, 0.8);
}

}  // namespace
}  // namespace simjoin
