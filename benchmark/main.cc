// simjoin_bench: the repository benchmark (benchmark/README.md).
//
//   simjoin_bench --workload point --seed 11 --seconds 10 --trace 0
//   simjoin_bench --workload all --smoke
//
// Prints a host fingerprint, every metric by name with its unit and sample
// count, and — as the last line of each workload — one JSON object:
// {"correct", "attempted", "failed", "metrics"}.  --trace 0 reports the
// end-to-end metrics, --trace 1 the per-layer ledger.  Exits non-zero when
// any answer is wrong or any operation fails.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.h"
#include "common/args.h"
#include "common/simd_kernel.h"

#ifndef SIMJOIN_BENCH_BUILD_TYPE
#define SIMJOIN_BENCH_BUILD_TYPE "unknown"
#endif

namespace simjoin::perf {
namespace {

constexpr size_t kSubWindows = 10;

const char* KernelPathName(KernelPath path) {
  switch (path) {
    case KernelPath::kAuto: return "auto";
    case KernelPath::kScalar: return "scalar";
    case KernelPath::kPortable: return "portable";
    case KernelPath::kAvx2: return "avx2";
    case KernelPath::kAvx512: return "avx512";
  }
  return "?";
}

/// Numbers carry every digit measured; JSON has no NaN or infinity.
std::string Num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintFingerprint(const Options& o, const std::string& commit,
                      const std::string& workload) {
  const BatchDistanceKernel kernel(Metric::kL2, 16, 0.1);
  std::cout << "# host {\"nproc\":" << NumProcessors()
            << ",\"hardware_concurrency\":"
            << std::thread::hardware_concurrency() << ",\"kernel_path\":\""
            << KernelPathName(kernel.path())
            << "\",\"avx2\":" << BatchDistanceKernel::CpuHasAvx2()
            << ",\"avx512\":" << BatchDistanceKernel::CpuHasAvx512()
            << ",\"compiler\":\"" << __VERSION__ << "\",\"build_type\":\""
            << SIMJOIN_BENCH_BUILD_TYPE << "\",\"commit\":\"" << commit
            << "\",\"seed\":" << o.seed << ",\"workload\":\"" << workload
            << "\",\"seconds\":" << o.seconds << ",\"trace\":" << o.trace
            << ",\"smoke\":" << o.smoke << ",\"self_test\":" << o.self_test
            << "}\n";
}

/// The highest of p99, p95 and p50 that leaves at least ten samples
/// beyond it.
double TailQuantile(size_t samples) {
  return samples >= 1000 ? 0.99 : samples >= 200 ? 0.95 : 0.5;
}

/// Median over sub-windows of a per-sub-window statistic, so a burst of
/// host contention moves one sub-window instead of the whole result.
/// Sub-windows without samples (fn returns NaN) are skipped.
template <typename Fn>
double SubWindowMedian(const std::vector<PhaseResult>& windows, Fn fn) {
  std::vector<double> v;
  for (const PhaseResult& w : windows) {
    const double x = fn(w);
    if (std::isfinite(x)) v.push_back(x);
  }
  return Quantile(v, 0.5);
}

void AddEndToEnd(const Inputs& in, const Setup& setup,
                 const std::vector<PhaseResult>& windows,
                 uint64_t churn_index_bytes, Report* report) {
  const PhaseResult all = MergePhases(windows.begin(), windows.end());
  report->Add("setup_s", Quantile(setup.setup_s, 0.5), "s",
              setup.setup_s.size());
  report->Add("ops_per_s", SubWindowMedian(windows, [](const PhaseResult& w) {
                return static_cast<double>(w.ops) / w.elapsed_s;
              }),
              "ops/s", all.ops);
  report->Add("op_p50_ms", SubWindowMedian(windows, [](const PhaseResult& w) {
                return Quantile(w.op_ms, 0.5);
              }),
              "ms", all.op_ms.size());
  report->Add("op_tail_ms",
              Quantile(all.op_ms, TailQuantile(all.op_ms.size())), "ms",
              all.op_ms.size());
  // Churn's writes are Insert/Remove acknowledgements; the immutable
  // workloads' only write is the BuildIndex RPC of each cold set-up.
  const bool churn = in.kind == WorkloadKind::kChurn;
  std::vector<double> writes = all.write_ms;
  if (!churn) {
    for (double s : setup.build_rpc_s) writes.push_back(s * 1e3);
  }
  report->Add("write_p50_ms",
              churn ? SubWindowMedian(windows,
                                      [](const PhaseResult& w) {
                                        return w.write_ms.empty()
                                                   ? std::nan("")
                                                   : Quantile(w.write_ms, 0.5);
                                      })
                    : Quantile(writes, 0.5),
              "ms", writes.size());
  report->Add("write_tail_ms",
              Quantile(writes, TailQuantile(writes.size())), "ms",
              writes.size());
  report->Add("index_mb",
              static_cast<double>(churn ? churn_index_bytes
                                        : setup.index_bytes) /
                  (1 << 20),
              "MiB", 1);
}

/// Runs one workload and prints its metrics and result line.  Returns
/// false when an operation failed or an answer was wrong.
bool RunWorkload(const Options& o) {
  const char* name = WorkloadName(o.workload);
  Tally tally;
  Report report;
  auto run = [&]() -> Status {
    SIMJOIN_ASSIGN_OR_RETURN(Inputs in, MakeInputs(o));
    SIMJOIN_ASSIGN_OR_RETURN(Setup setup, ColdSetups(in, &tally));
    Tracer tracer(Clock::now());
    // The window is measured as kSubWindows sub-windows.  A traced run
    // traces the second half only; the difference is the tracing overhead.
    const std::vector<double> phases(kSubWindows, o.seconds / kSubWindows);
    std::vector<bool> traced(kSubWindows, false);
    if (o.trace) {
      std::fill(traced.begin() + kSubWindows / 2, traced.end(), true);
    }
    uint64_t churn_index_bytes = 0;
    auto load = RunLoad(in, *setup.server, o.warmup, phases, traced, &tracer,
                        &tally, &churn_index_bytes);
    Status st = load.status();
    if (st.ok() && o.trace) {
      const auto half = load->begin() + kSubWindows / 2;
      st = RunLedger(in, o, *setup.server, MergePhases(load->begin(), half),
                     MergePhases(half, load->end()), &tracer, &tally, &report);
    } else if (st.ok()) {
      AddEndToEnd(in, setup, *load, churn_index_bytes, &report);
    }
    setup.server->Shutdown();
    setup.server->Wait();
    return st;
  };
  const Status st = run();
  if (!st.ok()) {
    std::cerr << name << ": " << st.ToString() << "\n";
    return false;
  }
  for (const MetricValue& m : report.metrics()) {
    std::cout << name << "  " << m.name << " = " << Num(m.value) << " "
              << m.unit;
    if (m.p99) std::cout << " (p99 " << Num(*m.p99) << ")";
    std::cout << "  n=" << m.samples << "\n";
    if (m.name == "load.cpu_frac" && m.value > 0.8) {
      std::cout << name << "  WARNING: the load thread was busy " << Num(m.value)
                << " of the window; the run may be bound by its load thread\n";
    }
  }
  std::ostringstream json;
  json << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  bool first = true;
  for (const MetricValue& m : report.metrics()) {
    json << (first ? "" : ", ") << "\"" << m.name << "\": {\"value\": "
         << Num(m.value) << ", \"unit\": \"" << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return tally.failed == 0;
}

int Main(int argc, char** argv) {
  ArgParser args("simjoin repository benchmark (benchmark/README.md)");
  args.AddFlag("workload", "all", "point | scan | selfjoin | churn | all");
  args.AddFlag("seed", "11", "seed of every generator and query pool");
  args.AddFlag("seconds", "10", "measured window per workload");
  args.AddFlag("trace", "0", "1 = per-layer ledger instead of end-to-end");
  args.AddBoolFlag("smoke", false, "n/10 inputs and 1 s windows");
  args.AddBoolFlag("self-test", false,
                   "give the checker a wrong epsilon; the run must fail");
  args.AddFlag("commit", "unknown", "source revision, for the fingerprint");
  args.AddFlag("trace-dir", ".", "where trace-<workload>.json is written");
  Status st = args.Parse(argc, argv);
  if (st.ok() && !args.positional().empty()) {
    st = Status::InvalidArgument("unexpected argument " +
                                 args.positional().front());
  }
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n";
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.Help();
    return 0;
  }
  Options o;
  o.seed = static_cast<uint64_t>(args.GetInt("seed"));
  o.seconds = args.GetDouble("seconds");
  o.trace = args.GetInt("trace") != 0;
  o.smoke = args.GetBool("smoke");
  o.self_test = args.GetBool("self-test");
  o.trace_dir = args.GetString("trace-dir");
  if (o.smoke) {
    o.seconds = 1.0;
    o.warmup = 0.2;
  }
  if (!(o.seconds > 0.0)) {
    std::cerr << "--seconds must be positive\n";
    return 2;
  }
  const std::string workload = args.GetString("workload");
  std::vector<WorkloadKind> kinds;
  if (workload == "all") {
    kinds = {WorkloadKind::kPoint, WorkloadKind::kScan,
             WorkloadKind::kSelfJoin, WorkloadKind::kChurn};
  } else {
    auto kind = ParseWorkload(workload);
    if (!kind.ok()) {
      std::cerr << kind.status().ToString() << "\n";
      return 2;
    }
    kinds = {*kind};
  }
  PrintFingerprint(o, args.GetString("commit"), workload);
  bool ok = true;
  for (WorkloadKind kind : kinds) {
    o.workload = kind;
    ok = RunWorkload(o) && ok;
  }
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace simjoin::perf

int main(int argc, char** argv) { return simjoin::perf::Main(argc, argv); }
