// simjoin_client — command-line client for the similarity-join service.
//
//   ./tools/simjoin_client ping
//   ./tools/simjoin_client build --name base --data pts.bin --epsilon 0.1
//   ./tools/simjoin_client query --name base --point 0.2,0.3,0.4
//   ./tools/simjoin_client query --name base --point 0.2,0.3 --recall 0.9
//   ./tools/simjoin_client query --name base --point 0.2,0.3 --explain
//   ./tools/simjoin_client join --name base --limit 20
//   ./tools/simjoin_client insert --name live --point 0.2,0.3,0.4
//   ./tools/simjoin_client remove --name live --ids 17,42
//   ./tools/simjoin_client flush --name live
//   ./tools/simjoin_client drift --name live --dims 8 --steps 16
//   ./tools/simjoin_client stats
//   ./tools/simjoin_client stats --watch --interval-ms 1000
//   ./tools/simjoin_client stats --watch --filter service.latency
//   ./tools/simjoin_client slowlog
//   ./tools/simjoin_client drop --name base
//   ./tools/simjoin_client shutdown
//
// One subcommand per invocation; --host/--port select the server.  join
// streams its result pairs to stdout (capped by --limit; 0 = all).
// insert/remove/flush target an index built with --backend updatable;
// drift builds such an index and replays a drifting-cluster update +
// query timeline against it (workload/drift.h) — a service-level chaos /
// soak driver for the live-update path.

#include <chrono>
#include <functional>
#include <iomanip>
#include <iostream>
#include <limits>
#include <sstream>
#include <thread>

#include "common/args.h"
#include "common/binary_io.h"
#include "obs/slow_query_log.h"
#include "service/client.h"
#include "workload/drift.h"
#include "workload/profile.h"

namespace simjoin {
namespace {

std::vector<float> ParsePoint(const std::string& csv) {
  std::vector<float> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(std::stof(tok));
  }
  return out;
}

std::vector<PointId> ParseIds(const std::string& csv) {
  std::vector<PointId> out;
  std::stringstream ss(csv);
  std::string tok;
  while (std::getline(ss, tok, ',')) {
    if (!tok.empty()) out.push_back(static_cast<PointId>(std::stoul(tok)));
  }
  return out;
}

/// `drift`: builds an updatable index from a drifting-cluster timeline and
/// replays its update + query schedule through the live-update RPCs.  The
/// timeline's insertion-order ids line up with the server's contiguous id
/// assignment, so removals need no translation.
int RunDrift(Client& client, const ArgParser& args) {
  DriftConfig cfg;
  cfg.dims = static_cast<size_t>(args.GetInt("dims"));
  cfg.steps = static_cast<size_t>(args.GetInt("steps"));
  cfg.clusters = static_cast<size_t>(args.GetInt("drift-clusters"));
  cfg.points_per_cluster =
      static_cast<size_t>(args.GetInt("points-per-cluster"));
  cfg.queries_per_step = static_cast<size_t>(args.GetInt("queries-per-step"));
  cfg.seed = static_cast<uint64_t>(args.GetInt("seed"));
  auto timeline = GenerateDrift(cfg);
  if (!timeline.ok()) {
    std::cerr << timeline.status().ToString() << "\n";
    return 1;
  }
  BuildIndexRequest build;
  build.name = args.GetString("name");
  build.config.epsilon = args.GetDouble("epsilon") != 0.0
                             ? args.GetDouble("epsilon")
                             : 0.1;
  build.backend = BackendKind::kUpdatable;
  build.dims = static_cast<uint32_t>(cfg.dims);
  build.points = timeline->initial.flat();
  auto built = client.BuildIndex(build);
  if (!built.ok()) {
    std::cerr << built.status().ToString() << "\n";
    return 1;
  }
  uint64_t inserted = 0, removed = 0, neighbours = 0;
  for (const DriftStep& step : timeline->steps) {
    if (!step.remove_ids.empty()) {
      RemoveRequest req;
      req.name = build.name;
      req.ids = step.remove_ids;
      auto resp = client.Remove(req);
      if (!resp.ok()) {
        std::cerr << resp.status().ToString() << "\n";
        return 1;
      }
      removed += resp->removed;
    }
    if (!step.insert_rows.empty()) {
      InsertRequest req;
      req.name = build.name;
      req.dims = static_cast<uint32_t>(cfg.dims);
      req.rows = step.insert_rows;
      auto resp = client.Insert(req);
      if (!resp.ok()) {
        std::cerr << resp.status().ToString() << "\n";
        return 1;
      }
      inserted += resp->count;
    }
    for (size_t q = 0; q < step.queries(cfg.dims); ++q) {
      auto ids = client.RangeQueryOne(
          build.name,
          std::span<const float>(step.query_rows.data() + q * cfg.dims,
                                 cfg.dims));
      if (!ids.ok()) {
        std::cerr << ids.status().ToString() << "\n";
        return 1;
      }
      neighbours += ids->size();
    }
  }
  auto flushed = client.Flush(build.name);
  if (!flushed.ok()) {
    std::cerr << flushed.status().ToString() << "\n";
    return 1;
  }
  std::cout << "drift replay: " << timeline->initial.size()
            << " initial points, " << timeline->steps.size() << " steps, "
            << inserted << " inserted, " << removed << " removed, "
            << neighbours << " neighbours found; final base "
            << flushed->base_points << " points ("
            << (flushed->compacted ? "compacted" : "nothing to compact")
            << ")\n";
  return 0;
}

/// PairSink that prints up to `limit` pairs and counts the rest.
class PrintSink : public PairSink {
 public:
  explicit PrintSink(uint64_t limit) : limit_(limit) {}
  void Emit(PointId a, PointId b) override {
    if (limit_ == 0 || printed_ < limit_) {
      std::cout << a << "\t" << b << "\n";
      ++printed_;
    }
    ++total_;
  }
  uint64_t total() const { return total_; }

 private:
  uint64_t limit_;
  uint64_t printed_ = 0;
  uint64_t total_ = 0;
};

void PrintServerCounters(const StatsResponse& resp) {
  std::cout << "connections: " << resp.accepted_connections << " accepted, "
            << resp.active_connections << " active\n"
            << "requests: " << resp.requests_admitted << " admitted, "
            << resp.requests_rejected << " rejected, "
            << resp.deadline_expired << " deadline-expired, "
            << resp.decode_errors << " decode errors\n"
            << "pairs streamed: " << resp.pairs_streamed << "\n"
            << "registry: " << resp.registry_bytes << "/"
            << resp.registry_byte_budget << " bytes, "
            << resp.registry_evictions << " evictions\n";
  for (const IndexInfo& info : resp.indexes) {
    std::cout << "  index '" << info.name << "': " << info.num_points
              << " points, dims=" << info.dims << ", eps=" << info.epsilon
              << ", " << MetricName(info.metric) << ", " << info.bytes
              << " bytes, " << info.hits << " hits\n";
  }
}

/// Renders one metrics snapshot (absolute or interval delta): counters and
/// gauges one per line, histograms with quantiles and a bucket sparkline.
/// A non-empty `filter` keeps only metrics whose name starts with it.
void PrintMetrics(const obs::MetricsSnapshot& snap,
                  const std::string& filter = "") {
  const auto keep = [&filter](const std::string& name) {
    return filter.empty() || name.rfind(filter, 0) == 0;
  };
  for (const obs::CounterSample& c : snap.counters) {
    if (!keep(c.name)) continue;
    std::cout << "  " << c.name << " " << c.value << "\n";
  }
  for (const obs::GaugeSample& g : snap.gauges) {
    if (!keep(g.name)) continue;
    std::cout << "  " << g.name << " " << g.value << "\n";
  }
  for (const obs::HistogramSample& h : snap.histograms) {
    if (!keep(h.name)) continue;
    std::vector<uint32_t> bins;
    bins.reserve(h.counts.size());
    for (const uint64_t c : h.counts) {
      bins.push_back(static_cast<uint32_t>(
          std::min<uint64_t>(c, std::numeric_limits<uint32_t>::max())));
    }
    std::cout << "  " << h.name << " n=" << h.count;
    if (h.count > 0) {
      std::cout << std::fixed << std::setprecision(1) << " mean="
                << h.mean() << " p50=" << h.Quantile(0.50)
                << " p95=" << h.Quantile(0.95)
                << " p99=" << h.Quantile(0.99)
                << std::defaultfloat << std::setprecision(6);
    }
    // Samples past the last bucket bound clamp into the overflow bucket;
    // a nonzero count here means the quantiles above are floors.
    if (h.overflow_count() > 0) {
      std::cout << " overflow=" << h.overflow_count();
    }
    std::cout << "  " << HistogramSparkline(bins) << "\n";
  }
}

/// `query --explain`: renders the server's phase tree, one line per phase,
/// indented by depth, with each phase's share of the request's wall time.
void PrintProfile(const obs::RequestProfile& profile) {
  std::cout << "explain analyze: trace_id=" << std::hex << profile.trace_id
            << std::dec << " total=" << std::fixed << std::setprecision(1)
            << static_cast<double>(profile.total_wall_ns) / 1e3 << " us\n";
  if (!profile.plan.empty()) {
    std::cout << "  plan: " << profile.plan << "\n";
  }
  const double total = profile.total_wall_ns > 0
                           ? static_cast<double>(profile.total_wall_ns)
                           : 1.0;
  std::vector<std::vector<uint32_t>> children(profile.nodes.size());
  std::vector<uint32_t> roots;
  for (uint32_t i = 0; i < profile.nodes.size(); ++i) {
    const uint32_t parent = profile.nodes[i].parent;
    if (parent == obs::kProfileNoParent) {
      roots.push_back(i);
    } else if (parent < profile.nodes.size()) {
      children[parent].push_back(i);
    }
  }
  const std::function<void(uint32_t, size_t)> print_node =
      [&](uint32_t i, size_t depth) {
        const obs::ProfileNode& node = profile.nodes[i];
        std::cout << "  " << std::string(depth * 2, ' ') << node.name << "  "
                  << static_cast<double>(node.wall_ns) / 1e3 << " us ("
                  << std::setprecision(1)
                  << 100.0 * static_cast<double>(node.wall_ns) / total
                  << "%)";
        if (node.cpu_ns > 0) {
          std::cout << " cpu=" << static_cast<double>(node.cpu_ns) / 1e3
                    << " us";
        }
        std::cout << "\n";
        for (const uint32_t child : children[i]) print_node(child, depth + 1);
      };
  for (const uint32_t root : roots) print_node(root, 0);
  std::cout << std::defaultfloat << std::setprecision(6);
  for (const obs::ProfileCounter& c : profile.counters) {
    std::cout << "  counter " << c.name << " = " << c.value << "\n";
  }
  if (profile.dropped_nodes > 0) {
    std::cout << "  (" << profile.dropped_nodes
              << " phases dropped past the node cap)\n";
  }
}

/// `stats --watch`: polls GetStats every interval and renders per-interval
/// counter/histogram deltas (gauges stay levels), so latency quantiles
/// reflect only the traffic of the last window.
int WatchStats(Client& client, int64_t interval_ms, int64_t count,
               const std::string& filter) {
  obs::MetricsSnapshot prev;
  bool have_prev = false;
  for (int64_t tick = 0; count == 0 || tick < count; ++tick) {
    auto resp = client.GetStats();
    if (!resp.ok()) {
      std::cerr << resp.status().ToString() << "\n";
      return 1;
    }
    std::cout << "=== stats"
              << (have_prev
                      ? " (delta over " + std::to_string(interval_ms) + " ms)"
                      : " (absolute)")
              << " ===\n";
    PrintServerCounters(*resp);
    PrintMetrics(have_prev ? resp->metrics.DeltaSince(prev) : resp->metrics,
                 filter);
    std::cout << std::flush;
    prev = std::move(resp->metrics);
    have_prev = true;
    if (count == 0 || tick + 1 < count) {
      std::this_thread::sleep_for(std::chrono::milliseconds(interval_ms));
    }
  }
  return 0;
}

int Run(const ArgParser& args) {
  if (args.positional().size() != 1) {
    std::cerr << "exactly one subcommand expected: ping | build | query | "
                 "join | insert | remove | flush | drift | stats | slowlog "
                 "| drop | shutdown\n";
    return 2;
  }
  const std::string& cmd = args.positional()[0];

  ClientConfig config;
  config.host = args.GetString("host");
  config.port = static_cast<uint16_t>(args.GetInt("port"));
  config.deadline_ms = static_cast<uint32_t>(args.GetInt("deadline-ms"));
  auto client = Client::Connect(config);
  if (!client.ok()) {
    std::cerr << "connect failed: " << client.status().ToString() << "\n";
    return 1;
  }

  Status st;
  if (cmd == "ping") {
    st = client->Ping();
    if (st.ok()) std::cout << "pong\n";
  } else if (cmd == "build") {
    auto data = ReadBinaryDataset(args.GetString("data"));
    if (!data.ok()) {
      std::cerr << data.status().ToString() << "\n";
      return 1;
    }
    auto metric = ParseMetric(args.GetString("metric"));
    if (!metric.ok()) {
      std::cerr << metric.status().ToString() << "\n";
      return 1;
    }
    BuildIndexRequest req;
    req.name = args.GetString("name");
    req.config.epsilon = args.GetDouble("epsilon");
    req.config.metric = *metric;
    const std::string backend = args.GetString("backend");
    if (backend == "grid") {
      req.backend = BackendKind::kEpsilonGrid;
    } else if (backend == "updatable") {
      req.backend = BackendKind::kUpdatable;
    } else if (backend != "tree") {
      std::cerr << "--backend must be tree, grid, or updatable: '" << backend
                << "' is not a buildable index primary (lsh and brute are "
                   "per-query tiers; select them with --query-backend)\n";
      return 2;
    }
    req.num_threads = static_cast<uint32_t>(args.GetInt("threads"));
    req.dims = static_cast<uint32_t>(data->dims());
    req.points = data->flat();
    req.on_disk = args.GetBool("on-disk");
    if (req.on_disk && req.backend != BackendKind::kEkdbFlat) {
      std::cerr << "--on-disk builds support only --backend tree\n";
      return 2;
    }
    auto resp = client->BuildIndex(req);
    st = resp.status();
    if (resp.ok()) {
      std::cout << "built '" << req.name << "'"
                << (req.on_disk ? " (on-disk, served memory-mapped)" : "")
                << ": " << resp->num_points
                << " points, dims=" << resp->dims << ", "
                << resp->index_bytes << " bytes, " << resp->build_seconds
                << " s (evicted " << resp->evicted << ")\n";
    }
  } else if (cmd == "query") {
    const std::vector<float> point = ParsePoint(args.GetString("point"));
    if (point.empty()) {
      std::cerr << "--point must be a comma-separated float list\n";
      return 2;
    }
    const double recall = args.GetDouble("recall");
    if (!(recall > 0.0) || recall > 1.0) {
      std::cerr << "--recall must be in (0, 1]: got "
                << args.GetString("recall")
                << " (1 = exact; below 1 admits the approximate LSH tier)\n";
      return 2;
    }
    const std::string qb = args.GetString("query-backend");
    uint8_t backend_byte = kWireBackendAuto;
    if (qb == "tree") {
      backend_byte = static_cast<uint8_t>(BackendKind::kEkdbFlat);
    } else if (qb == "grid") {
      backend_byte = static_cast<uint8_t>(BackendKind::kEpsilonGrid);
    } else if (qb == "lsh") {
      backend_byte = static_cast<uint8_t>(BackendKind::kLsh);
    } else if (qb == "brute") {
      backend_byte = static_cast<uint8_t>(BackendKind::kBruteSimd);
    } else if (qb != "auto") {
      std::cerr << "--query-backend must be auto, tree, grid, lsh, or "
                   "brute: got '"
                << qb << "'\n";
      return 2;
    }
    RangeQueryRequest req;
    req.name = args.GetString("name");
    req.epsilon = args.GetDouble("epsilon");
    req.dims = static_cast<uint32_t>(point.size());
    req.queries = point;
    req.has_planner = true;
    req.recall = recall;
    req.backend = backend_byte;
    const bool explain = args.GetBool("explain");
    if (explain) {
      req.trace.present = true;
      req.trace.trace_id = GenerateTraceId();
      req.trace.flags = kTraceFlagProfile;
    }
    auto resp = client->RangeQuery(req);
    st = resp.status();
    if (resp.ok()) {
      const std::vector<PointId>& ids = resp->results[0];
      std::cout << ids.size() << " neighbours:";
      for (PointId id : ids) std::cout << " " << id;
      std::cout << "\n";
      auto used = BackendKindFromWire(resp->backend_used);
      std::cout << "planner: backend="
                << (used.ok() ? BackendKindName(*used) : "unknown")
                << " achieved_recall=" << resp->achieved_recall
                << (resp->plan_cache_hit ? " (plan cached)" : "") << "\n";
      if (resp->has_profile) PrintProfile(resp->profile);
    }
  } else if (cmd == "join") {
    SimilarityJoinRequest req;
    req.name_a = args.GetString("name");
    req.name_b = args.GetString("name-b");
    req.epsilon = args.GetDouble("epsilon");
    req.num_threads = static_cast<uint32_t>(args.GetInt("threads"));
    PrintSink sink(static_cast<uint64_t>(args.GetInt("limit")));
    auto done = client->SimilarityJoin(req, &sink);
    st = done.status();
    if (done.ok()) {
      std::cout << done->total_pairs << " pairs ("
                << done->stats.distance_calls << " distance calls, "
                << done->stats.node_pairs_pruned << " node pairs pruned)\n";
    }
  } else if (cmd == "insert") {
    const std::vector<float> point = ParsePoint(args.GetString("point"));
    if (point.empty()) {
      std::cerr << "--point must be a comma-separated float list\n";
      return 2;
    }
    InsertRequest req;
    req.name = args.GetString("name");
    req.dims = static_cast<uint32_t>(point.size());
    req.rows = point;
    auto resp = client->Insert(req);
    st = resp.status();
    if (resp.ok()) {
      std::cout << "inserted " << resp->count << " point(s), ids "
                << resp->first_id << ".."
                << resp->first_id + resp->count - 1 << " (delta "
                << resp->delta_points << " points, " << resp->tombstones
                << " tombstones)\n";
    }
  } else if (cmd == "remove") {
    const std::vector<PointId> ids = ParseIds(args.GetString("ids"));
    if (ids.empty()) {
      std::cerr << "--ids must be a comma-separated id list\n";
      return 2;
    }
    RemoveRequest req;
    req.name = args.GetString("name");
    req.ids = ids;
    auto resp = client->Remove(req);
    st = resp.status();
    if (resp.ok()) {
      std::cout << "removed " << resp->removed << ", missing "
                << resp->missing << " (delta " << resp->delta_points
                << " points, " << resp->tombstones << " tombstones)\n";
    }
  } else if (cmd == "flush") {
    auto resp = client->Flush(args.GetString("name"));
    st = resp.status();
    if (resp.ok()) {
      std::cout << (resp->compacted ? "compacted" : "nothing to compact")
                << ": base " << resp->base_points << " points, delta "
                << resp->delta_points << ", " << resp->tombstones
                << " tombstones, " << resp->index_bytes << " bytes\n";
    }
  } else if (cmd == "drift") {
    return RunDrift(*client, args);
  } else if (cmd == "stats") {
    if (args.GetBool("watch")) {
      return WatchStats(*client, args.GetInt("interval-ms"),
                        args.GetInt("count"), args.GetString("filter"));
    }
    auto resp = client->GetStats();
    st = resp.status();
    if (resp.ok()) {
      PrintServerCounters(*resp);
      std::cout << "metrics:\n";
      PrintMetrics(resp->metrics, args.GetString("filter"));
    }
  } else if (cmd == "slowlog") {
    auto resp = client->GetStats(/*drain_slowlog=*/true);
    st = resp.status();
    if (resp.ok()) {
      std::cout << resp->slowlog.size() << " entries drained ("
                << resp->slowlog_recorded << " recorded, "
                << resp->slowlog_evicted << " evicted before draining)\n";
      for (const obs::SlowQueryEntry& entry : resp->slowlog) {
        std::cout << obs::SlowQueryLog::ToJsonLine(entry) << "\n";
      }
    }
  } else if (cmd == "drop") {
    auto resp = client->DropIndex(args.GetString("name"));
    st = resp.status();
    if (resp.ok()) {
      std::cout << (resp->found ? "dropped\n" : "not found\n");
    }
  } else if (cmd == "shutdown") {
    st = client->Shutdown();
    if (st.ok()) std::cout << "server stopping\n";
  } else {
    std::cerr << "unknown subcommand '" << cmd << "'\n";
    return 2;
  }

  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace simjoin

int main(int argc, char** argv) {
  simjoin::ArgParser args("Client for the similarity-join query service");
  args.AddFlag("host", "127.0.0.1", "server address");
  args.AddFlag("port", "7411", "server port");
  args.AddFlag("deadline-ms", "0", "per-request deadline; 0 = none");
  args.AddFlag("name", "base", "index name");
  args.AddFlag("name-b", "", "second index for a cross-join");
  args.AddFlag("data", "", "binary dataset file (build)");
  args.AddFlag("epsilon", "0", "epsilon; 0 = index build epsilon");
  args.AddFlag("metric", "l2", "metric for build: l2 | l1 | linf");
  args.AddFlag("backend", "tree",
               "index backend for build: tree (joins + queries) | grid "
               "(vectorised epsilon grid; joins fall back to a lazily "
               "built tree)");
  args.AddFlag("threads", "0", "build/join parallelism; 0 = server default");
  args.AddBoolFlag("on-disk", false,
                   "build only: external (sort-runs + merge) build into a "
                   "segment file served memory-mapped — for datasets "
                   "beyond the registry budget; needs a server --spill-dir");
  args.AddFlag("point", "", "comma-separated query point (query)");
  args.AddFlag("recall", "1",
               "query only: recall target in (0, 1]; below 1 lets the "
               "server route to the recall-controlled LSH tier");
  args.AddFlag("query-backend", "auto",
               "query only: force one backend (tree | grid | lsh | brute) "
               "or auto for cost-based planning");
  args.AddBoolFlag("explain", false,
                   "query only: EXPLAIN ANALYZE — run the query profiled "
                   "and print the server's per-phase breakdown");
  args.AddFlag("limit", "20", "join pairs printed; 0 = all");
  args.AddFlag("ids", "", "comma-separated point ids (remove)");
  args.AddFlag("dims", "8", "drift only: dimensionality");
  args.AddFlag("steps", "16", "drift only: timeline steps");
  args.AddFlag("drift-clusters", "4", "drift only: initial live clusters");
  args.AddFlag("points-per-cluster", "64", "drift only: points per cluster");
  args.AddFlag("queries-per-step", "8", "drift only: chasing queries");
  args.AddFlag("seed", "42", "drift only: RNG seed");
  args.AddBoolFlag("watch", false,
                   "stats only: poll repeatedly, rendering interval deltas");
  args.AddFlag("interval-ms", "1000", "polling interval for --watch");
  args.AddFlag("count", "0", "number of --watch ticks; 0 = until killed");
  args.AddFlag("filter", "",
               "stats only: print just the metrics whose name starts with "
               "this prefix (e.g. service.latency)");
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
