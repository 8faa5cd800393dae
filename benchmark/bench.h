// Shared declarations of the repository benchmark (benchmark/README.md).
//
// One process runs everything: it generates a workload's inputs from the
// seed, computes exact answers in-process (the oracle), starts the server
// with its default configuration, drives it over loopback from this one
// thread, and — on traced runs — replays part of the workload through each
// layer's public functions to build the per-layer ledger.

#ifndef SIMJOIN_BENCHMARK_BENCH_H_
#define SIMJOIN_BENCHMARK_BENCH_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "core/ekdb_config.h"
#include "core/index_backend.h"
#include "service/server.h"
#include "workload/drift.h"

namespace simjoin::perf {

using Clock = std::chrono::steady_clock;

inline double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class WorkloadKind { kPoint, kScan, kSelfJoin, kChurn };

const char* WorkloadName(WorkloadKind kind);
Result<WorkloadKind> ParseWorkload(const std::string& name);

struct Options {
  WorkloadKind workload = WorkloadKind::kPoint;
  uint64_t seed = 11;
  double seconds = 10.0;  ///< measured window
  double warmup = 3.0;    ///< unmeasured prefix (plan probes, caches)
  bool trace = false;
  bool smoke = false;      ///< n/10 inputs, 1 s windows
  bool self_test = false;  ///< the checker gets a wrong epsilon
  std::string trace_dir = ".";
};

/// Operations attempted and failed (errors, retry exhaustion, wrong answers).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  void Check(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// One printed metric: value, unit, and how many samples it summarises.
struct MetricValue {
  std::string name;
  double value = 0.0;
  std::string unit;
  size_t samples = 0;
  /// Set for per-layer self times, which print their median and p99.
  std::optional<double> p99;
};

class Report {
 public:
  void Add(std::string name, double value, std::string unit, size_t samples,
           std::optional<double> p99 = std::nullopt) {
    metrics_.push_back(
        {std::move(name), value, std::move(unit), samples, p99});
  }
  const std::vector<MetricValue>& metrics() const { return metrics_; }

 private:
  std::vector<MetricValue> metrics_;
};

/// FNV-1a over the 32-bit ids of a pair sequence, plus the pair count: an
/// order-sensitive fingerprint of a join's output that needs no storage.
class HashSink : public PairSink {
 public:
  void Emit(PointId a, PointId b) override {
    Mix(a);
    Mix(b);
    ++count_;
  }
  void EmitBatch(std::span<const IdPair> pairs) override {
    for (const IdPair& p : pairs) Emit(p.first, p.second);
  }
  uint64_t hash() const { return hash_; }
  uint64_t count() const { return count_; }

 private:
  void Mix(uint32_t v) {
    hash_ ^= v;
    hash_ *= 1099511628211ull;
  }
  uint64_t hash_ = 14695981039346656037ull;
  uint64_t count_ = 0;
};

/// Everything a workload needs, generated from the seed before the server
/// starts.  The server only ever sees `data` (and, for churn, the timeline
/// rows and ids the writer sends).
struct Inputs {
  WorkloadKind kind = WorkloadKind::kPoint;
  std::string index_name = "bench";
  EkdbConfig config;  ///< build epsilon and metric
  BackendKind backend = BackendKind::kEkdbFlat;
  /// Epsilon the checker uses: config.epsilon, or a wrong one under
  /// --self-test.
  double oracle_eps = 0.0;
  Dataset data;  ///< build set (churn: the timeline's initial rows)

  // Load shape.
  size_t conns = 1;
  size_t depth = 1;  ///< pipelined requests per reader connection
  size_t queries_per_request = 1;
  /// Range requests the traced replay runs in-process.
  size_t replay_requests = 0;

  /// Query pool, row-major (point/scan: the load's queries; selfjoin and
  /// churn: the replay's queries).
  std::vector<float> pool;
  /// Exact answers for every pool row, ascending ids (point/scan).
  std::vector<std::vector<PointId>> answers;

  // selfjoin: the sequential in-process join at oracle_eps.
  uint64_t join_hash = 0;
  uint64_t join_pairs = 0;
  double join_seq_s = 0.0;
  JoinStats join_seq_stats;

  // churn.
  DriftTimeline timeline;

  size_t dims() const { return data.dims(); }
  size_t pool_size() const { return pool.size() / data.dims(); }
  const float* pool_row(size_t i) const {
    return pool.data() + (i % pool_size()) * data.dims();
  }
};

/// Generates the inputs and the exact answers for one workload.
Result<Inputs> MakeInputs(const Options& options);

/// Ascending ids of `data` rows within eps of each query (brute force).
Result<std::vector<std::vector<PointId>>> BruteAnswers(
    const Dataset& data, const EkdbConfig& config, double eps,
    const float* queries, size_t count);

/// Cold starts, each Server::Start, BuildIndex RPC, and the first range
/// query answered.  The last server is kept for the load.
struct Setup {
  std::unique_ptr<Server> server;
  uint64_t index_bytes = 0;  ///< BuildIndexResponse.index_bytes
  std::vector<double> setup_s;
  std::vector<double> build_rpc_s;
};

Result<Setup> ColdSetups(const Inputs& in, Tally* tally);

/// Spans kept in memory and written as Chrome trace JSON.
class Tracer {
 public:
  static constexpr uint32_t kNoParent = UINT32_MAX;

  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    uint32_t parent;
    uint64_t request;
    double work;    ///< units the span's self time is divided by
    uint32_t lane;  ///< trace-viewer row of a root span (children inherit)
  };

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  int64_t Now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - origin_)
        .count();
  }
  int64_t Ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }
  uint32_t Add(const char* name, int64_t start_ns, int64_t end_ns,
               uint32_t parent, uint64_t request, double work = 1.0,
               uint32_t lane = 0) {
    spans_.push_back({name, start_ns, end_ns, parent, request, work, lane});
    return static_cast<uint32_t>(spans_.size() - 1);
  }
  /// Opens a span whose end is set later with Close.
  uint32_t Open(const char* name, uint32_t parent, uint64_t request) {
    return Add(name, Now(), 0, parent, request);
  }
  void Close(uint32_t span) { spans_[span].end_ns = Now(); }

  /// Self time (duration minus children) ÷ work, in ns, of every span
  /// with this name.
  std::vector<double> SelfNsPerWork(const std::string& name) const;

  /// Writes the first `limit` spans of each root name plus all their
  /// descendants as Chrome trace JSON.
  Status WriteChromeTrace(const std::string& path, size_t limit) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// What one measured load phase saw.
struct PhaseResult {
  double elapsed_s = 0.0;
  uint64_t ops = 0;             ///< queries answered (joins for selfjoin)
  std::vector<double> op_ms;    ///< per-request latency
  std::vector<double> write_ms;  ///< churn Insert/Remove acknowledgements
  std::vector<double> send_lag_ms;
  double load_cpu_s = 0.0;
  double process_cpu_s = 0.0;
  uint64_t plan_hits = 0;
  uint64_t plan_responses = 0;
  uint64_t compactions = 0;  ///< background delta compactions
  ServerCounters counters;   ///< deltas over the phase
};

/// Drives the workload over loopback: a warm-up, then one measured phase
/// per entry of `phase_seconds`; phases flagged in `traced` record load
/// spans.  Churn's post-window checks run here too and report the index
/// size after the final Flush in *churn_index_bytes.
Result<std::vector<PhaseResult>> RunLoad(
    const Inputs& in, Server& server, double warmup_s,
    const std::vector<double>& phase_seconds, const std::vector<bool>& traced,
    Tracer* tracer, Tally* tally, uint64_t* churn_index_bytes);

/// Pools consecutive phases into one (sums and concatenated samples).
PhaseResult MergePhases(std::vector<PhaseResult>::const_iterator first,
                        std::vector<PhaseResult>::const_iterator last);

/// Traced run: replays part of the workload in-process through each layer's
/// public functions and adds the per-layer metrics.
Status RunLedger(const Inputs& in, const Options& options, Server& server,
                 const PhaseResult& untraced, const PhaseResult& traced,
                 Tracer* tracer, Tally* tally, Report* report);

/// The `q`-quantile of the samples, or 0 when there are none.
double Quantile(const std::vector<double>& samples, double q);

/// Processor count the process may run on (what `nproc` prints).
size_t NumProcessors();

}  // namespace simjoin::perf

#endif  // SIMJOIN_BENCHMARK_BENCH_H_
