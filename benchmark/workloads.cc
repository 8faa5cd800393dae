// Workload inputs, exact oracles, and the cold set-up measurement.

#include <sched.h>

#include <algorithm>
#include <thread>

#include "bench.h"
#include "common/rng.h"
#include "service/client.h"
#include "service/registry.h"
#include "workload/generators.h"

namespace simjoin::perf {

const char* WorkloadName(WorkloadKind kind) {
  switch (kind) {
    case WorkloadKind::kPoint: return "point";
    case WorkloadKind::kScan: return "scan";
    case WorkloadKind::kSelfJoin: return "selfjoin";
    case WorkloadKind::kChurn: return "churn";
  }
  return "?";
}

Result<WorkloadKind> ParseWorkload(const std::string& name) {
  for (WorkloadKind kind : {WorkloadKind::kPoint, WorkloadKind::kScan,
                            WorkloadKind::kSelfJoin, WorkloadKind::kChurn}) {
    if (name == WorkloadName(kind)) return kind;
  }
  return Status::InvalidArgument("unknown workload '" + name +
                                 "' (point, scan, selfjoin, churn, all)");
}

size_t NumProcessors() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return static_cast<size_t>(CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

Result<std::vector<std::vector<PointId>>> BruteAnswers(
    const Dataset& data, const EkdbConfig& config, double eps,
    const float* queries, size_t count) {
  SIMJOIN_ASSIGN_OR_RETURN(auto brute, BruteSimdBackend::Build(data, config));
  std::vector<RangeQuerySpec> specs(count);
  for (size_t i = 0; i < count; ++i) {
    specs[i] = {queries + i * data.dims(), eps};
  }
  std::vector<std::vector<PointId>> out;
  SIMJOIN_RETURN_NOT_OK(
      brute->RangeQueryBatch(specs.data(), count, &out, nullptr, nullptr));
  return out;
}

namespace {

/// Pool of `count` dataset rows drawn with replacement.
std::vector<float> SampleRows(const Dataset& data, size_t count, Rng* rng) {
  std::vector<float> pool;
  pool.reserve(count * data.dims());
  for (size_t i = 0; i < count; ++i) {
    const float* row = data.Row(static_cast<PointId>(rng->UniformInt(
        static_cast<uint64_t>(data.size()))));
    pool.insert(pool.end(), row, row + data.dims());
  }
  return pool;
}

}  // namespace

Result<Inputs> MakeInputs(const Options& options) {
  const size_t scale = options.smoke ? 10 : 1;
  Inputs in;
  in.kind = options.workload;
  in.config.metric = Metric::kL2;
  Rng rng(options.seed * 0x9e3779b97f4a7c15ull + 1);
  switch (options.workload) {
    case WorkloadKind::kPoint: {
      in.config.epsilon = 0.1;
      SIMJOIN_ASSIGN_OR_RETURN(
          in.data, GenerateUniform({.n = 100'000 / scale, .dims = 16,
                                    .seed = options.seed}));
      in.conns = 4;
      in.depth = 8;
      in.queries_per_request = 1;
      in.replay_requests = 2000 / scale;
      // Rows jittered by at most 0.02 per coordinate: each query's answer
      // is its source row, and a checker with a halved epsilon loses about
      // half of them, which --self-test relies on.
      in.pool = SampleRows(in.data, 4096 / scale, &rng);
      for (float& v : in.pool) {
        v = std::clamp(v + static_cast<float>(rng.Uniform(-0.02, 0.02)),
                       0.0f, 1.0f);
      }
      break;
    }
    case WorkloadKind::kScan: {
      in.config.epsilon = 0.2;
      SIMJOIN_ASSIGN_OR_RETURN(
          in.data,
          GenerateClustered({.n = 100'000 / scale, .dims = 16, .clusters = 10,
                             .sigma = 0.05, .seed = options.seed}));
      in.conns = 4;
      in.queries_per_request = 32;
      in.replay_requests = 200 / scale;
      in.pool = SampleRows(in.data, 1024 / scale, &rng);
      break;
    }
    case WorkloadKind::kSelfJoin: {
      in.config.epsilon = 0.1;
      SIMJOIN_ASSIGN_OR_RETURN(
          in.data,
          GenerateClustered({.n = 100'000 / scale, .dims = 8, .clusters = 10,
                             .sigma = 0.05, .seed = options.seed}));
      in.conns = 1;
      in.queries_per_request = 32;
      in.replay_requests = 200 / scale;
      in.pool = SampleRows(in.data, 1024 / scale, &rng);
      break;
    }
    case WorkloadKind::kChurn: {
      // Clusters drift 0.002 per step, a tenth of GenerateDrift's default:
      // at the default a query leaves its cluster's points within a few
      // steps, and how often clusters bounce back over their old points
      // depends on the seed's drift line, which moved the read cost 2x
      // between seeds.  At this pace a query stays near its cluster's
      // points for the cluster's lifetime, and epsilon 0.05 gives 62-68
      // ids per query over seeds 1-8 (inside [50, 500]).
      in.config.epsilon = 0.05;
      in.backend = BackendKind::kUpdatable;
      DriftConfig drift;
      drift.dims = 16;
      drift.clusters = 64;
      drift.points_per_cluster = 1024 / scale;
      drift.steps = 256;
      drift.queries_per_step = 32;
      drift.sigma = 0.01;
      drift.drift_step = 0.002;
      drift.seed = options.seed;
      SIMJOIN_ASSIGN_OR_RETURN(in.timeline, GenerateDrift(drift));
      in.data = in.timeline.initial;
      in.conns = 4;  // one writer, three readers
      in.queries_per_request = 8;
      in.replay_requests = 500 / scale;
      for (const DriftStep& step : in.timeline.steps) {
        in.pool.insert(in.pool.end(), step.query_rows.begin(),
                       step.query_rows.end());
      }
      break;
    }
  }
  in.oracle_eps = options.self_test ? in.config.epsilon * 0.5
                                    : in.config.epsilon;

  if (in.kind == WorkloadKind::kPoint || in.kind == WorkloadKind::kScan) {
    SIMJOIN_ASSIGN_OR_RETURN(
        in.answers, BruteAnswers(in.data, in.config, in.oracle_eps,
                                 in.pool.data(), in.pool_size()));
  }
  if (in.kind == WorkloadKind::kSelfJoin) {
    SIMJOIN_ASSIGN_OR_RETURN(
        auto snapshot,
        IndexSnapshot::Build("oracle", in.data, in.config, NumProcessors()));
    SIMJOIN_ASSIGN_OR_RETURN(auto backend, snapshot->JoinBackend());
    HashSink sink;
    const Clock::time_point start = Clock::now();
    SIMJOIN_RETURN_NOT_OK(
        backend->SelfJoin(in.oracle_eps, 1, &sink, &in.join_seq_stats));
    in.join_seq_s = SecondsBetween(start, Clock::now());
    in.join_hash = sink.hash();
    in.join_pairs = sink.count();
  }
  return in;
}

Result<Setup> ColdSetups(const Inputs& in, Tally* tally) {
  // A set-up takes tens of milliseconds; nine make its median steady.
  constexpr int kColdSetups = 9;
  BuildIndexRequest build;
  build.name = in.index_name;
  build.config = in.config;
  build.num_threads = 0;
  build.dims = static_cast<uint32_t>(in.dims());
  build.points = in.data.flat();
  build.backend = in.backend;

  RangeQueryRequest first;
  first.name = in.index_name;
  first.epsilon = in.config.epsilon;
  first.dims = build.dims;
  first.queries.assign(in.pool_row(0), in.pool_row(0) + in.dims());
  first.has_planner = true;
  SIMJOIN_ASSIGN_OR_RETURN(
      auto expect, BruteAnswers(in.data, in.config, in.oracle_eps,
                                first.queries.data(), 1));

  Setup setup;
  for (int i = 0; i < kColdSetups; ++i) {
    if (setup.server != nullptr) {
      setup.server->Shutdown();
      setup.server->Wait();
    }
    const Clock::time_point start = Clock::now();
    SIMJOIN_ASSIGN_OR_RETURN(setup.server, Server::Start(ServerConfig{}));
    ClientConfig cc;
    cc.port = setup.server->port();
    SIMJOIN_ASSIGN_OR_RETURN(Client client, Client::Connect(cc));
    const Clock::time_point build_start = Clock::now();
    auto built = client.BuildIndex(build);
    tally->Check(built.ok());
    SIMJOIN_RETURN_NOT_OK(built.status());
    setup.build_rpc_s.push_back(SecondsBetween(build_start, Clock::now()));
    auto answer = client.RangeQuery(first);
    tally->Check(answer.ok() && answer->results.size() == 1 &&
                 answer->results[0] == expect[0]);
    SIMJOIN_RETURN_NOT_OK(answer.status());
    setup.setup_s.push_back(SecondsBetween(start, Clock::now()));
    setup.index_bytes = built->index_bytes;
  }
  return setup;
}

}  // namespace simjoin::perf
