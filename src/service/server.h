// Poll-based TCP server for the similarity-join query service.
//
// Architecture (see docs/service.md for the ops view):
//
//   accept -> io threads -> admission gate -> worker pool -> io threads
//
// A small set of I/O threads each own a poll() loop over a disjoint subset
// of connections: they read bytes, run the frame decoder, and flush queued
// response bytes.  Complete request frames pass an admission gate — a
// bounded count of in-flight requests — and are dispatched as tasks onto the
// shared work-stealing ThreadPool, which executes them against immutable
// IndexRegistry snapshots and enqueues response frames back on the
// connection (waking its io thread through a self-pipe).  When the gate is
// full the io thread answers kRetryAfter immediately instead of queueing —
// overload sheds load in O(1) with a client-visible retry hint rather than
// by letting latency grow without bound.  Each request may carry a deadline;
// a request that expires while queued is answered kError/DEADLINE_EXCEEDED
// without touching the index.
//
// Client-supplied resource parameters are clamped server-side: thread
// counts to the worker-pool size, chunk sizes to kMaxJoinChunkPairs, and
// response payloads to max_frame_payload — a hostile request can make the
// server do bounded work, never spawn unbounded threads or allocations.
// Streamed join chunks obey per-connection write backpressure: once
// max_conn_queued_bytes of responses are queued unsent, the producing
// worker blocks until the client drains (or the stall timeout declares the
// connection dead and discards its queue), so a slow reader bounds server
// memory instead of buffering its whole result set.
//
// Query execution never locks the registry for longer than a map lookup:
// handlers copy out a shared_ptr snapshot and run lock-free against it, so
// concurrent BuildIndex requests (which insert new snapshots) neither block
// nor are blocked by running queries.  Range answers are the in-process
// answer of the backend the planner picked, each id list in ascending order;
// joins stream the in-process pair sequence with the same JoinStats.  The
// loopback differential tests assert both.

#ifndef SIMJOIN_SERVICE_SERVER_H_
#define SIMJOIN_SERVICE_SERVER_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/status.h"
#include "service/protocol.h"
#include "service/registry.h"

namespace simjoin {

/// Hard ceiling on pairs per streamed kJoinChunk frame.  Client requests
/// beyond it are clamped, which bounds the per-chunk buffer no matter what
/// a hostile SimilarityJoinRequest asks for (2^20 pairs = 8 MB on the wire).
inline constexpr size_t kMaxJoinChunkPairs = 1u << 20;

/// Server tuning knobs.
struct ServerConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;      ///< 0 = ephemeral; read back via Server::port()
  size_t io_threads = 1;  ///< poll loops decoding frames / flushing writes
  size_t worker_threads = 0;  ///< request executors; 0 = hardware concurrency

  /// Admission gate: at most this many requests dispatched-but-unanswered.
  /// Requests arriving beyond the bound get kRetryAfter instead of queueing.
  size_t max_inflight = 256;
  /// Retry hint sent with kRetryAfter rejections.
  uint32_t retry_after_ms = 20;

  /// Byte budget of the index registry (LRU-evicted beyond it).
  uint64_t registry_byte_budget = 4ull << 30;

  /// Directory for the registry's out-of-core tier: spilled index segment
  /// files, on-disk build artifacts, and external-sort temporaries.  Must
  /// be an existing writable directory.  Empty disables the tier: eviction
  /// destroys instead of demoting, and BuildIndex requests asking for an
  /// on-disk build are rejected with a clear error.
  std::string segment_spill_dir;

  /// Ceiling on one request frame's payload.  Also enforced on responses:
  /// a terminal response larger than this is replaced by kError/OUT_OF_RANGE
  /// telling the client to split its batch (never a truncated frame).
  uint32_t max_frame_payload = kDefaultMaxFramePayload;
  /// Result pairs per streamed kJoinChunk frame (when the request does not
  /// choose its own chunking).  Clamped to kMaxJoinChunkPairs either way.
  uint32_t join_chunk_pairs = 8192;

  /// Per-connection ceiling on queued-but-unsent response bytes.  Streamed
  /// join chunks block the producing worker at the ceiling until the client
  /// drains; at least one frame is always admitted so oversized single
  /// responses still flow.
  size_t max_conn_queued_bytes = 64u << 20;
  /// How long a streamed join may block on a client that has stopped
  /// reading before the connection is declared dead and its queued bytes
  /// are discarded (counted in write_stall_disconnects).
  uint32_t write_stall_timeout_ms = 30'000;

  /// Cross-connection range-query fusion.  Admitted kRangeQuery frames from
  /// ALL connections land in one fusion buffer; a dedicated collector thread
  /// flushes the buffer as one fused batch — grouped by planned backend and
  /// executed with IndexBackend::RangeQueryBatch, which sorts the
  /// constituent leaf sweeps by arena position and runs one SIMD kernel over
  /// the whole batch — when either fusion_max_batch requests have
  /// accumulated or the oldest one has waited fusion_wait_us microseconds.
  /// Per-request responses are bit-identical to unfused execution (same
  /// ascending ids, same JoinStats), so
  /// fusion is purely a throughput/latency trade: under load, batches fill
  /// and amortise traversal + kernel dispatch; when idle, a lone query pays
  /// at most the wait budget.
  bool fusion_enabled = true;
  /// Flush when this many range queries are buffered (counts requests, each
  /// of which may carry several query points).
  size_t fusion_max_batch = 256;
  /// Flush when the oldest buffered request has waited this long (µs).
  uint32_t fusion_wait_us = 120;

  /// Slow-query log (docs/observability.md).  A request whose wall time
  /// (admission to response built) reaches this many microseconds — or that
  /// fails with any error — is recorded with its full phase profile into a
  /// bounded ring, drainable via the Stats RPC (`simjoin_client slowlog`).
  /// 0 disables recording entirely (the default: no per-request collector
  /// is ever allocated).
  uint64_t slow_query_us = 0;
  /// JSONL sink for slow-query entries (one JSON object per line); empty
  /// keeps them in the in-memory ring only.  Writes are rotation-safe
  /// (open-append-close per entry) and rate-limited.
  std::string slow_query_log_path;
  /// Ring capacity for drainable slow-query entries.
  size_t slow_query_capacity = 512;
  /// Ceiling on JSONL sink writes per second (ring recording is unlimited).
  uint64_t slow_query_sink_per_sec = 100;

  /// Test hook: sleep this long at the start of every worker-side request,
  /// so deadline and backpressure paths can be exercised deterministically.
  uint32_t handler_delay_ms_for_testing = 0;
};

/// Counter snapshot (monotonic except active_connections).
struct ServerCounters {
  uint64_t accepted_connections = 0;
  uint64_t active_connections = 0;
  uint64_t requests_admitted = 0;
  uint64_t requests_rejected = 0;
  uint64_t deadline_expired = 0;
  uint64_t decode_errors = 0;
  uint64_t pairs_streamed = 0;
  uint64_t write_stall_disconnects = 0;
  uint64_t fusion_batches = 0;       ///< fused batches executed
  uint64_t fusion_fused_queries = 0; ///< range-query requests routed through fusion
  uint64_t fusion_batch_full = 0;    ///< flushes triggered by a full buffer
  uint64_t fusion_wait_expired = 0;  ///< flushes triggered by the wait budget
};

/// Running service instance.  Start() binds and spins up the io threads;
/// the server runs until a kShutdown frame arrives or Shutdown() is called
/// locally; Wait() blocks until fully drained (all io threads joined, all
/// dispatched requests finished).
class Server {
 public:
  static Result<std::unique_ptr<Server>> Start(const ServerConfig& config);

  ~Server();
  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Port actually bound (resolves an ephemeral request).
  uint16_t port() const;

  /// Initiates an orderly stop: stop accepting, answer nothing new, flush
  /// pending responses, then tear down.  Idempotent, callable from any
  /// thread (including request handlers).
  void Shutdown();

  /// Blocks until the server has fully stopped.
  void Wait();

  /// Point-in-time counters.
  ServerCounters counters() const;

  /// The index registry (pre-loading indexes before serving is fine).
  IndexRegistry& registry();

 private:
  Server();
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace simjoin

#endif  // SIMJOIN_SERVICE_SERVER_H_
