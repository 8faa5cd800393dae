// Request-scoped observability context: per-request span trees and the
// thread-propagated context that attributes work back to one request.
//
// A RequestContext is a small value (trace id + optional profile collector
// + current phase node) installed into thread-local storage for a scope by
// ScopedRequestContext.  While installed, every TraceSpan on the thread
// does double duty: it still feeds the global Chrome-trace buffers when
// tracing is on, and it *also* records a phase node (wall + thread-CPU
// time, parent-linked into a tree) into the request's
// RequestProfileCollector when the request asked to be profiled.  The
// ThreadPool captures the submitting thread's context when a task is
// enqueued and restores it around execution, so spans inside pool tasks —
// parallel joins, fused batch sweeps — land in the right request's tree.
//
// The disabled path stays free: TraceSpan's constructor checks one shared
// relaxed atomic (the capture gate in trace.h) that is non-zero only while
// tracing is active or at least one profile collector is alive.  With the
// gate at zero nothing here is ever touched.
//
// A RequestProfile is the finished, serialisable result: a bounded flat
// node tree plus named counters and the planner's decision.  The service
// ships it over the wire as the EXPLAIN ANALYZE response's kProfile tag and
// into the slow-query log (obs/slow_query_log.h).

#ifndef SIMJOIN_OBS_REQUEST_CONTEXT_H_
#define SIMJOIN_OBS_REQUEST_CONTEXT_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace simjoin {
namespace obs {

/// Parent sentinel for root phase nodes.
inline constexpr uint32_t kProfileNoParent = 0xFFFFFFFFu;
/// Bounds a profile against runaway span recursion (and hostile payloads
/// on the parse side): more phases than this are counted, not stored.
inline constexpr uint32_t kMaxProfileNodes = 4096;
inline constexpr uint32_t kMaxProfileCounters = 256;

/// One phase in a request's span tree.  Times are relative to the
/// collector's epoch (request admission), so profiles from different
/// machines line up without clock agreement.
struct ProfileNode {
  uint32_t parent = kProfileNoParent;  ///< index into nodes; sentinel = root
  std::string name;
  uint64_t start_ns = 0;  ///< offset from the profile epoch
  uint64_t wall_ns = 0;
  uint64_t cpu_ns = 0;  ///< thread CPU time consumed inside the phase

  bool operator==(const ProfileNode&) const = default;
};

struct ProfileCounter {
  std::string name;
  uint64_t value = 0;

  bool operator==(const ProfileCounter&) const = default;
};

/// Finished per-request profile: phase tree + counters + planner decision.
struct RequestProfile {
  uint64_t trace_id = 0;
  uint64_t total_wall_ns = 0;  ///< admission -> response built
  std::string plan;            ///< planner decision, human-readable
  std::vector<ProfileNode> nodes;
  std::vector<ProfileCounter> counters;
  uint64_t dropped_nodes = 0;  ///< phases past kMaxProfileNodes

  bool operator==(const RequestProfile&) const = default;

  /// Sum of wall time over the direct children of `parent` (the coverage
  /// numerator for the root); 0 when the node has no children.
  uint64_t ChildWallNanos(uint32_t parent) const;
};

/// Thread-safe accumulator for one request's profile.  Constructing one
/// raises the shared capture gate (so TraceSpans start recording) and
/// destruction lowers it; keep the collector alive until every task of the
/// request has finished.  All methods may be called from any thread.
class RequestProfileCollector {
 public:
  /// `epoch_ns` anchors node start offsets (pass the admission timestamp
  /// from internal::TraceNowNanos()'s clock).
  RequestProfileCollector(uint64_t trace_id, uint64_t epoch_ns);
  ~RequestProfileCollector();

  RequestProfileCollector(const RequestProfileCollector&) = delete;
  RequestProfileCollector& operator=(const RequestProfileCollector&) = delete;

  uint64_t trace_id() const { return trace_id_; }
  uint64_t epoch_ns() const { return epoch_ns_; }

  /// Opens a phase; returns its node index (or kProfileNoParent when the
  /// node cap is hit — EndPhase on the sentinel is a no-op).
  uint32_t BeginPhase(const char* name, uint32_t parent, uint64_t start_ns);
  void EndPhase(uint32_t node, uint64_t end_ns, uint64_t cpu_ns);

  /// Records a completed phase in one call (retroactive attribution: queue
  /// wait measured from the admission stamp, a fused batch's shared sweep
  /// attributed to every member).  Returns the node index.
  uint32_t AddPhase(const char* name, uint32_t parent, uint64_t start_ns,
                    uint64_t wall_ns, uint64_t cpu_ns);

  /// Accumulates into a named counter (created on first use).
  void AddCounter(std::string_view name, uint64_t delta);

  void SetPlan(std::string plan);

  /// Snapshots the finished profile; total wall is `end_ns - epoch_ns`.
  RequestProfile Finish(uint64_t end_ns) const;

 private:
  const uint64_t trace_id_;
  const uint64_t epoch_ns_;
  mutable std::mutex mu_;
  std::string plan_;
  std::vector<ProfileNode> nodes_;
  std::vector<ProfileCounter> counters_;
  uint64_t dropped_nodes_ = 0;
};

/// The thread-propagated context: which request this thread is currently
/// working for.  `node` is the phase new spans attach under, so spans in a
/// pool task nest beneath the span that submitted the task.
struct RequestContext {
  uint64_t trace_id = 0;
  RequestProfileCollector* collector = nullptr;
  uint32_t node = kProfileNoParent;

  bool active() const { return trace_id != 0 || collector != nullptr; }
};

/// The calling thread's current context (inactive default when none).
RequestContext CurrentRequestContext();

/// Installs `ctx` as the thread's context for the enclosing scope and
/// restores the previous one on destruction.  Used by request handlers and
/// by the ThreadPool around propagated tasks.
class ScopedRequestContext {
 public:
  explicit ScopedRequestContext(const RequestContext& ctx);
  ~ScopedRequestContext();

  ScopedRequestContext(const ScopedRequestContext&) = delete;
  ScopedRequestContext& operator=(const ScopedRequestContext&) = delete;

 private:
  RequestContext prev_;
};

/// Adds to a profile counter of the current request; no-op (one thread-
/// local read) when the thread is not working for a profiled request.
/// Cheap enough for per-batch call sites, not for per-pair loops.
void AddRequestCounter(std::string_view name, uint64_t delta);

/// CLOCK_THREAD_CPUTIME_ID in nanoseconds (0 where unsupported).
uint64_t ThreadCpuNanos();

namespace internal {

/// Raw thread-local slot, exposed for TraceSpan's recording path.
RequestContext& MutableRequestContext();

}  // namespace internal

}  // namespace obs
}  // namespace simjoin

#endif  // SIMJOIN_OBS_REQUEST_CONTEXT_H_
