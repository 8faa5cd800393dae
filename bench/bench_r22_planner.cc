// R22: cost-based backend planner — exact routing overhead and the
// recall-controlled LSH tier's payoff.
//
// Two claims, two workloads, one gate line each:
//
//  A. Routed exact is never slower than the forced tree beyond noise.
//     Uniform d=16, n=100k, eps=0.1 (a regime the flat tree wins): the
//     same closed-loop poll-multiplexed driver runs frames forcing
//     ekdb-flat and planner frames (recall=1, backend=auto) against one
//     server; the planner must land on an exact backend, answer
//     bit-identically to forced ekdb-flat, and keep qps_routed within a
//     few percent of qps_forced_tree (the plan cache amortises probing to
//     a map lookup per request).
//
//  B. At high dimensionality and a large radius, recall 0.9 buys >= 3x.
//     Clustered d=32, n=50k, eps=0.5 (bbox pruning is useless here, so
//     every exact structure degenerates toward a full scan): forced
//     ekdb-flat at recall 1 versus planner-auto at recall 0.9 (the LSH
//     tier: p-stable candidates re-verified by the exact kernel).  The
//     bench also measures true recall against brute-force ground truth —
//     the speedup only counts if the answers actually meet the target.
//
// Phases alternate --repeats times and keep the best pass per mode so a
// transient host stall penalises both modes evenly.
//
//   ./bench/bench_r22_planner
//   ./bench/bench_r22_planner --seconds 4 --concurrency 128
//
// Emits a `# PLANNER_JSON {...}` line for
// scripts/check_bench_regression.sh, which gates identical == true,
// exact_ratio >= 1 - SIMJOIN_BENCH_PLANNER_EXACT_TOLERANCE and
// lsh_speedup >= SIMJOIN_BENCH_PLANNER_MIN_SPEEDUP with
// measured_recall >= the target minus a small sampling allowance.

#include <poll.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <iostream>
#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

#include "common/args.h"
#include "common/metric.h"
#include "common/net.h"
#include "common/timer.h"
#include "core/index_backend.h"
#include "service/client.h"
#include "service/server.h"
#include "workload/generators.h"

namespace simjoin {
namespace {

using Clock = std::chrono::steady_clock;

/// One multiplexed loopback connection: non-blocking socket, one request
/// in flight, reusable request frame whose query floats (and nothing
/// else) are rewritten between requests.
struct DriverConn {
  TcpSocket sock;
  FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  size_t cursor = 0;
  uint64_t next_id = 1;
  size_t float_tail_offset = 0;  ///< bytes from frame end to the floats
  uint64_t completed = 0;
  uint64_t errors = 0;
};

/// Every driver request carries the planner tag with these fields.
struct RequestShape {
  double epsilon = 0.0;
  double recall = 1.0;
  uint8_t backend = kWireBackendAuto;
};

struct PhaseResult {
  uint64_t requests = 0;
  uint64_t errors = 0;
  double qps = 0.0;
};

void BuildRequestFrame(const Dataset& data, const std::string& name,
                       const RequestShape& shape, DriverConn* conn) {
  RangeQueryRequest req;
  req.name = name;
  req.epsilon = shape.epsilon;
  req.dims = static_cast<uint32_t>(data.dims());
  const float* row = data.Row(static_cast<PointId>(conn->cursor));
  req.queries.assign(row, row + data.dims());
  req.has_planner = true;
  req.recall = shape.recall;
  req.backend = shape.backend;
  conn->cursor = (conn->cursor + 1) % data.size();
  const std::vector<uint8_t> payload = EncodeRangeQueryRequest(req);
  conn->out = EncodeFrame(FrameType::kRangeQuery, conn->next_id++, 0,
                          payload);
  // The tags trail the floats; their size is whatever the untagged
  // encoding lacks.
  RangeQueryRequest untagged = req;
  untagged.has_planner = false;
  conn->float_tail_offset = data.dims() * sizeof(float) + payload.size() -
                            EncodeRangeQueryRequest(untagged).size();
  conn->out_off = 0;
}

void PatchNextQuery(const Dataset& data, DriverConn* conn) {
  std::memcpy(conn->out.data() + conn->out.size() - conn->float_tail_offset,
              data.Row(static_cast<PointId>(conn->cursor)),
              data.dims() * sizeof(float));
  conn->cursor = (conn->cursor + 1) % data.size();
  conn->out_off = 0;
}

/// Closed-loop load phase: `concurrency` connections, one batch=1 range
/// query in flight each, single-threaded poll loop, warmup not counted.
Result<PhaseResult> RunLoadPhase(uint16_t port, const Dataset& data,
                                 const std::string& name,
                                 const RequestShape& shape, size_t concurrency,
                                 double warmup, double seconds) {
  std::vector<std::unique_ptr<DriverConn>> conns;
  conns.reserve(concurrency);
  for (size_t c = 0; c < concurrency; ++c) {
    auto conn = std::make_unique<DriverConn>();
    SIMJOIN_ASSIGN_OR_RETURN(conn->sock,
                             TcpSocket::Connect("127.0.0.1", port));
    SIMJOIN_RETURN_NOT_OK(conn->sock.SetNonBlocking(true));
    conn->cursor = (c * 7919) % data.size();
    BuildRequestFrame(data, name, shape, conn.get());
    conns.push_back(std::move(conn));
  }

  std::vector<pollfd> fds(conns.size());
  uint8_t buf[64 << 10];
  Timer wall;
  bool measuring = false;
  double measure_start = 0.0;
  while (wall.Seconds() < warmup + seconds) {
    if (!measuring && wall.Seconds() >= warmup) {
      measuring = true;
      measure_start = wall.Seconds();
      for (auto& conn : conns) conn->completed = 0;
    }
    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->sock.fd();
      fds[i].events = POLLIN;
      if (conns[i]->out_off < conns[i]->out.size()) fds[i].events |= POLLOUT;
      fds[i].revents = 0;
    }
    ::poll(fds.data(), fds.size(), 10);
    for (size_t i = 0; i < conns.size(); ++i) {
      DriverConn& conn = *conns[i];
      if ((fds[i].revents & POLLOUT) != 0 &&
          conn.out_off < conn.out.size()) {
        size_t sent = 0;
        SIMJOIN_RETURN_NOT_OK(conn.sock.SendSome(
            conn.out.data() + conn.out_off, conn.out.size() - conn.out_off,
            &sent));
        conn.out_off += sent;
      }
      if ((fds[i].revents & POLLIN) == 0) continue;
      while (true) {
        size_t n = 0;
        bool eof = false;
        SIMJOIN_RETURN_NOT_OK(conn.sock.RecvSome(buf, sizeof(buf), &n, &eof));
        if (n > 0) conn.decoder.Append(buf, n);
        if (n == 0 || eof) break;
      }
      while (true) {
        Frame frame;
        bool got = false;
        SIMJOIN_RETURN_NOT_OK(conn.decoder.Next(&frame, &got));
        if (!got) break;
        if (frame.header.type == FrameType::kRangeQueryResult) {
          ++conn.completed;
        } else {
          ++conn.errors;
        }
        PatchNextQuery(data, &conn);
        size_t sent = 0;
        SIMJOIN_RETURN_NOT_OK(conn.sock.SendSome(conn.out.data(),
                                                 conn.out.size(), &sent));
        conn.out_off = sent;
      }
    }
  }

  PhaseResult res;
  const double elapsed = wall.Seconds() - measure_start;
  for (const auto& conn : conns) {
    res.requests += conn->completed;
    res.errors += conn->errors;
  }
  res.qps = static_cast<double>(res.requests) / elapsed;
  return res;
}

/// Best-of-`repeats` alternating passes of two request shapes on one
/// server; keeps transient host stalls from skewing the ratio.
Result<std::pair<PhaseResult, PhaseResult>> RunAlternating(
    uint16_t port, const Dataset& data, const std::string& name,
    const RequestShape& base, const RequestShape& contender,
    size_t concurrency, double warmup, double seconds, size_t repeats,
    const char* base_label, const char* contender_label) {
  std::optional<PhaseResult> best_base, best_contender;
  for (size_t pass = 0; pass < repeats; ++pass) {
    SIMJOIN_ASSIGN_OR_RETURN(
        PhaseResult b, RunLoadPhase(port, data, name, base, concurrency,
                                    warmup, seconds));
    SIMJOIN_ASSIGN_OR_RETURN(
        PhaseResult c, RunLoadPhase(port, data, name, contender, concurrency,
                                    warmup, seconds));
    std::cout << "  pass " << pass + 1 << "/" << repeats << ": "
              << base_label << " " << static_cast<uint64_t>(b.qps)
              << " qps, " << contender_label << " "
              << static_cast<uint64_t>(c.qps) << " qps\n";
    if (!best_base || b.qps > best_base->qps) best_base = b;
    if (!best_contender || c.qps > best_contender->qps) best_contender = c;
  }
  return std::make_pair(*best_base, *best_contender);
}

/// Routed-auto answers must be bit-identical to forced ekdb-flat answers
/// and to the answers of requests without the planner tag (all in
/// ascending id order).
Result<bool> ExactIdentityCheck(uint16_t port, const Dataset& data,
                                const std::string& name, double epsilon,
                                size_t num_queries, uint8_t* routed_to) {
  ClientConfig cc;
  cc.port = port;
  SIMJOIN_ASSIGN_OR_RETURN(auto client, Client::Connect(cc));
  for (size_t q = 0; q < num_queries; ++q) {
    RangeQueryRequest req;
    req.name = name;
    req.epsilon = epsilon;
    req.dims = static_cast<uint32_t>(data.dims());
    const float* row =
        data.Row(static_cast<PointId>((q * 131) % data.size()));
    req.queries.assign(row, row + data.dims());

    RangeQueryRequest forced = req;
    forced.has_planner = true;
    forced.backend = static_cast<uint8_t>(BackendKind::kEkdbFlat);
    SIMJOIN_ASSIGN_OR_RETURN(auto want, client.RangeQuery(forced));

    RangeQueryRequest routed = req;
    routed.has_planner = true;
    SIMJOIN_ASSIGN_OR_RETURN(auto got, client.RangeQuery(routed));
    *routed_to = got.backend_used;
    if (got.results != want.results) return false;

    SIMJOIN_ASSIGN_OR_RETURN(auto untagged, client.RangeQuery(req));
    if (untagged.results != want.results) return false;
  }
  return true;
}

/// Measures true recall of the recall-targeted path against brute-force
/// ground truth on sampled queries; also checks precision 1.
Result<double> MeasureRecall(uint16_t port, const Dataset& data,
                             const std::string& name, double epsilon,
                             double recall_target, size_t num_queries,
                             uint8_t* backend_used) {
  ClientConfig cc;
  cc.port = port;
  SIMJOIN_ASSIGN_OR_RETURN(auto client, Client::Connect(cc));
  DistanceKernel kernel(Metric::kL2);
  size_t found = 0;
  size_t truth_total = 0;
  for (size_t q = 0; q < num_queries; ++q) {
    const float* query =
        data.Row(static_cast<PointId>((q * 977) % data.size()));
    RangeQueryRequest req;
    req.name = name;
    req.epsilon = epsilon;
    req.dims = static_cast<uint32_t>(data.dims());
    req.queries.assign(query, query + data.dims());
    req.has_planner = true;
    req.recall = recall_target;
    SIMJOIN_ASSIGN_OR_RETURN(auto resp, client.RangeQuery(req));
    *backend_used = resp.backend_used;
    std::set<PointId> truth;
    for (size_t i = 0; i < data.size(); ++i) {
      const auto id = static_cast<PointId>(i);
      if (kernel.WithinEpsilon(query, data.Row(id), data.dims(), epsilon)) {
        truth.insert(id);
      }
    }
    for (const PointId id : resp.results[0]) {
      if (truth.count(id) == 0) {
        return Status::Internal("false positive id from recall tier");
      }
    }
    found += resp.results[0].size();
    truth_total += truth.size();
  }
  if (truth_total == 0) return Status::Internal("empty ground truth");
  return static_cast<double>(found) / static_cast<double>(truth_total);
}

Result<std::unique_ptr<Server>> StartWithIndex(
    const std::string& name, const Dataset& data, double epsilon,
    size_t max_inflight) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.metric = Metric::kL2;
  Timer build_timer;
  SIMJOIN_ASSIGN_OR_RETURN(auto snapshot,
                           IndexSnapshot::Build(name, data, config));
  std::cout << "  index '" << name << "' built in " << build_timer.Seconds()
            << " s (" << snapshot->memory_bytes() << " bytes)\n";
  ServerConfig server_config;
  server_config.max_inflight = max_inflight;
  SIMJOIN_ASSIGN_OR_RETURN(auto server, Server::Start(server_config));
  SIMJOIN_RETURN_NOT_OK(server->registry().Put(snapshot));
  return server;
}

int Run(const ArgParser& args) {
  const size_t concurrency = static_cast<size_t>(args.GetInt("concurrency"));
  const double seconds = args.GetDouble("seconds");
  const double warmup = args.GetDouble("warmup");
  const size_t repeats =
      std::max<size_t>(1, static_cast<size_t>(args.GetInt("repeats")));
  const double recall_target = args.GetDouble("recall");

  const size_t n_a = static_cast<size_t>(args.GetInt("n-exact"));
  const size_t dims_a = static_cast<size_t>(args.GetInt("dims-exact"));
  const double eps_a = args.GetDouble("epsilon-exact");
  const size_t n_b = static_cast<size_t>(args.GetInt("n-recall"));
  const size_t dims_b = static_cast<size_t>(args.GetInt("dims-recall"));
  const double eps_b = args.GetDouble("epsilon-recall");
  const size_t clusters_b = static_cast<size_t>(args.GetInt("clusters"));

  std::cout << "R22: cost-based planner routing (concurrency=" << concurrency
            << ", " << seconds << "s windows, best of " << repeats
            << " passes)\n"
            << "  cores detected: " << std::thread::hardware_concurrency()
            << " (driver and server share them)\n";

  // ---- Workload A: routed exact must not tax the tree's best regime ----
  std::cout << "workload A: uniform n=" << n_a << " d=" << dims_a
            << " eps=" << eps_a << " (exact routing overhead)\n";
  auto data_a = GenerateUniform({.n = n_a, .dims = dims_a, .seed = 22});
  if (!data_a.ok()) {
    std::cerr << data_a.status().ToString() << "\n";
    return 1;
  }
  auto server_a = StartWithIndex("exact", *data_a, eps_a,
                                 std::max<size_t>(concurrency, 256));
  if (!server_a.ok()) {
    std::cerr << server_a.status().ToString() << "\n";
    return 1;
  }

  uint8_t routed_to = 0;
  auto identical = ExactIdentityCheck((*server_a)->port(), *data_a, "exact",
                                      eps_a, /*num_queries=*/256, &routed_to);
  if (!identical.ok()) {
    std::cerr << identical.status().ToString() << "\n";
    return 1;
  }
  const auto routed_kind = BackendKindFromWire(routed_to);
  std::cout << "  identity: routed-auto "
            << (*identical ? "bit-identical to" : "DIVERGES from")
            << " forced ekdb-flat (256 queries); planner routed to "
            << (routed_kind.ok() ? BackendKindName(*routed_kind) : "?")
            << "\n";

  RequestShape tree_shape{eps_a, 1.0,
                          static_cast<uint8_t>(BackendKind::kEkdbFlat)};
  RequestShape routed_shape{eps_a, 1.0, kWireBackendAuto};
  auto exact_phases =
      RunAlternating((*server_a)->port(), *data_a, "exact", tree_shape,
                     routed_shape, concurrency, warmup, seconds, repeats,
                     "forced-tree", "routed");
  if (!exact_phases.ok()) {
    std::cerr << exact_phases.status().ToString() << "\n";
    return 1;
  }
  const PhaseResult& forced_tree = exact_phases->first;
  const PhaseResult& routed = exact_phases->second;
  const double exact_ratio =
      forced_tree.qps > 0.0 ? routed.qps / forced_tree.qps : 0.0;
  std::cout << "  forced-tree " << static_cast<uint64_t>(forced_tree.qps)
            << " qps vs routed " << static_cast<uint64_t>(routed.qps)
            << " qps -> ratio " << exact_ratio << "\n";
  (*server_a)->Shutdown();
  (*server_a)->Wait();

  // ---- Workload B: the recall tier's payoff where exact degenerates ----
  std::cout << "workload B: clustered n=" << n_b << " d=" << dims_b
            << " eps=" << eps_b << " recall=" << recall_target
            << " (LSH tier payoff)\n";
  auto data_b = GenerateClustered({.n = n_b,
                                   .dims = dims_b,
                                   .clusters = clusters_b,
                                   .sigma = 0.04,
                                   .seed = 23});
  if (!data_b.ok()) {
    std::cerr << data_b.status().ToString() << "\n";
    return 1;
  }
  auto server_b = StartWithIndex("recall", *data_b, eps_b,
                                 std::max<size_t>(concurrency, 256));
  if (!server_b.ok()) {
    std::cerr << server_b.status().ToString() << "\n";
    return 1;
  }

  uint8_t recall_backend = 0;
  auto measured = MeasureRecall((*server_b)->port(), *data_b, "recall",
                                eps_b, recall_target, /*num_queries=*/32,
                                &recall_backend);
  if (!measured.ok()) {
    std::cerr << measured.status().ToString() << "\n";
    return 1;
  }
  const auto recall_kind = BackendKindFromWire(recall_backend);
  std::cout << "  measured recall " << *measured << " (target "
            << recall_target << "), planner routed to "
            << (recall_kind.ok() ? BackendKindName(*recall_kind) : "?")
            << "\n";

  RequestShape forced_exact{eps_b, 1.0,
                            static_cast<uint8_t>(BackendKind::kEkdbFlat)};
  RequestShape recall_shape{eps_b, recall_target, kWireBackendAuto};
  auto recall_phases =
      RunAlternating((*server_b)->port(), *data_b, "recall", forced_exact,
                     recall_shape, concurrency, warmup, seconds, repeats,
                     "forced-exact", "recall-0.9");
  if (!recall_phases.ok()) {
    std::cerr << recall_phases.status().ToString() << "\n";
    return 1;
  }
  const PhaseResult& forced = recall_phases->first;
  const PhaseResult& tiered = recall_phases->second;
  const double speedup = forced.qps > 0.0 ? tiered.qps / forced.qps : 0.0;
  std::cout << "  forced-exact " << static_cast<uint64_t>(forced.qps)
            << " qps vs recall-target " << static_cast<uint64_t>(tiered.qps)
            << " qps -> " << speedup << "x\n";
  (*server_b)->Shutdown();
  (*server_b)->Wait();

  const uint64_t errors =
      forced_tree.errors + routed.errors + forced.errors + tiered.errors;
  std::ostringstream json;
  json << "{\"bench\":\"r22_planner\",\"concurrency\":" << concurrency
       << ",\"seconds\":" << seconds
       << ",\"n_exact\":" << n_a << ",\"dims_exact\":" << dims_a
       << ",\"epsilon_exact\":" << eps_a
       << ",\"qps_forced_tree\":" << forced_tree.qps
       << ",\"qps_routed\":" << routed.qps
       << ",\"exact_ratio\":" << exact_ratio
       << ",\"identical\":" << (*identical ? "true" : "false")
       << ",\"routed_backend\":\""
       << (routed_kind.ok() ? BackendKindName(*routed_kind) : "?") << "\""
       << ",\"n_recall\":" << n_b << ",\"dims_recall\":" << dims_b
       << ",\"epsilon_recall\":" << eps_b
       << ",\"recall_target\":" << recall_target
       << ",\"measured_recall\":" << *measured
       << ",\"recall_backend\":\""
       << (recall_kind.ok() ? BackendKindName(*recall_kind) : "?") << "\""
       << ",\"qps_forced_exact\":" << forced.qps
       << ",\"qps_recall\":" << tiered.qps
       << ",\"lsh_speedup\":" << speedup
       << ",\"errors\":" << errors
       << ",\"hardware_concurrency\":" << std::thread::hardware_concurrency()
       << "}";
  std::cout << "# PLANNER_JSON " << json.str() << "\n";

  return *identical && errors == 0 ? 0 : 1;
}

}  // namespace
}  // namespace simjoin

int main(int argc, char** argv) {
  simjoin::ArgParser args("R22: cost-based planner routing benchmark");
  args.AddFlag("concurrency", "64",
               "concurrent connections, one batch=1 query in flight each");
  args.AddFlag("seconds", "3", "measurement window per phase");
  args.AddFlag("warmup", "1", "uncounted warmup prefix per phase (seconds)");
  args.AddFlag("repeats", "2", "alternating passes per mode; best is kept");
  args.AddFlag("recall", "0.9", "recall target for workload B");
  args.AddFlag("n-exact", "100000", "workload A points");
  args.AddFlag("dims-exact", "16", "workload A dimensionality");
  args.AddFlag("epsilon-exact", "0.1", "workload A epsilon (L2)");
  args.AddFlag("n-recall", "50000", "workload B points");
  args.AddFlag("dims-recall", "32", "workload B dimensionality");
  args.AddFlag("epsilon-recall", "0.5", "workload B epsilon (L2)");
  args.AddFlag("clusters", "4000", "workload B cluster count");
  const simjoin::Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n" << args.Help();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.Help();
    return 0;
  }
  return simjoin::Run(args);
}
