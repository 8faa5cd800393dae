#include "service/server.h"

#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/logging.h"
#include "common/net.h"
#include "common/thread_pool.h"
#include "core/delta_index.h"
#include "core/ekdb_flat_join.h"
#include "core/parallel_join.h"
#include "core/segment_builder.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"

namespace simjoin {
namespace {

using Clock = std::chrono::steady_clock;

uint32_t ElapsedMs(Clock::time_point since) {
  return static_cast<uint32_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            since)
          .count());
}

double ElapsedUs(Clock::time_point since) {
  return static_cast<double>(
             std::chrono::duration_cast<std::chrono::nanoseconds>(
                 Clock::now() - since)
                 .count()) *
         1e-3;
}

/// Service-layer registry handles, resolved once.  The per-opcode latency
/// histograms cover admission to terminal-response enqueue; the counters
/// mirror the Impl atomics (which fill the Stats response's fixed counters)
/// so `stats --watch` sees everything through one snapshot.
struct ServiceMetrics {
  obs::Histogram* latency_build_index;
  obs::Histogram* latency_range_query;
  obs::Histogram* latency_similarity_join;
  obs::Histogram* latency_stats;
  obs::Histogram* latency_drop_index;
  obs::Gauge* inflight;
  obs::Counter* bytes_in;
  obs::Counter* bytes_out;
  obs::Counter* requests_admitted;
  obs::Counter* retry_after;
  obs::Counter* deadline_expired;
  obs::Counter* decode_errors;
  obs::Counter* pairs_streamed;
  obs::Counter* write_stall_disconnects;
  obs::Counter* fusion_batches;
  obs::Counter* fusion_fused_queries;
  obs::Counter* fusion_batch_full;
  obs::Counter* fusion_wait_expired;
  obs::Histogram* fusion_batch_size;
  obs::Histogram* fusion_wait_us;  ///< admission -> batch execution start
  obs::Counter* planner_requests;       ///< planned range queries
  obs::Counter* planner_cache_hits;     ///< decision served from plan cache
  obs::Counter* planner_cache_misses;   ///< cold plans (probe + selectivity)
  obs::Counter* planner_forced;         ///< request pinned the backend
  obs::Counter* planner_backend_builds; ///< aux backends materialised
  obs::Counter* planner_routed_ekdb;
  obs::Counter* planner_routed_grid;
  obs::Counter* planner_routed_lsh;
  obs::Counter* planner_routed_brute;
  obs::Counter* planner_join_fallbacks; ///< grid-primary joins run on aux tree
  obs::Histogram* latency_insert;
  obs::Histogram* latency_remove;
  obs::Histogram* latency_flush;
  obs::Counter* updates_inserts;        ///< Insert RPCs served
  obs::Counter* updates_removes;        ///< Remove RPCs served
  obs::Counter* updates_flushes;        ///< Flush RPCs served
  obs::Counter* updates_rows_inserted;  ///< rows appended across all inserts
  obs::Counter* updates_rows_removed;   ///< ids tombstoned across all removes
  obs::Gauge* delta_points;             ///< delta-tier rows (last updated index)
  obs::Gauge* delta_tombstones;         ///< live tombstones
  obs::Gauge* delta_bytes;              ///< delta memtable + tombstone bytes
  obs::Counter* compactions;            ///< delta tiers folded into the base
  obs::Histogram* compaction_us;        ///< per-compaction duration
  obs::Counter* profiled_requests;      ///< requests carrying the profile flag
  obs::Counter* slowlog_recorded;       ///< entries recorded to the slow log

  obs::Counter* RoutedCounterFor(BackendKind kind) const {
    switch (kind) {
      case BackendKind::kEkdbFlat: return planner_routed_ekdb;
      case BackendKind::kEpsilonGrid: return planner_routed_grid;
      case BackendKind::kLsh: return planner_routed_lsh;
      case BackendKind::kBruteSimd: return planner_routed_brute;
    }
    return planner_routed_ekdb;
  }

  obs::Histogram* LatencyFor(FrameType type) const {
    switch (type) {
      case FrameType::kBuildIndex: return latency_build_index;
      case FrameType::kRangeQuery: return latency_range_query;
      case FrameType::kSimilarityJoin: return latency_similarity_join;
      case FrameType::kStats: return latency_stats;
      case FrameType::kDropIndex: return latency_drop_index;
      case FrameType::kInsert: return latency_insert;
      case FrameType::kRemove: return latency_remove;
      case FrameType::kFlush: return latency_flush;
      default: return nullptr;
    }
  }
};

const ServiceMetrics& GetServiceMetrics() {
  static const ServiceMetrics metrics = [] {
    obs::MetricRegistry& reg = obs::GlobalMetrics();
    return ServiceMetrics{
        reg.GetHistogram("service.latency_us.build_index"),
        reg.GetHistogram("service.latency_us.range_query"),
        reg.GetHistogram("service.latency_us.similarity_join"),
        reg.GetHistogram("service.latency_us.stats"),
        reg.GetHistogram("service.latency_us.drop_index"),
        reg.GetGauge("service.inflight"),
        reg.GetCounter("service.bytes_in"),
        reg.GetCounter("service.bytes_out"),
        reg.GetCounter("service.requests_admitted"),
        reg.GetCounter("service.retry_after"),
        reg.GetCounter("service.deadline_expired"),
        reg.GetCounter("service.decode_errors"),
        reg.GetCounter("service.pairs_streamed"),
        reg.GetCounter("service.write_stall_disconnects"),
        reg.GetCounter("service.fusion.batches"),
        reg.GetCounter("service.fusion.fused_queries"),
        reg.GetCounter("service.fusion.batch_full"),
        reg.GetCounter("service.fusion.wait_expired"),
        reg.GetHistogram("service.fusion.batch_size"),
        reg.GetHistogram("service.fusion.wait_us"),
        reg.GetCounter("service.planner.requests"),
        reg.GetCounter("service.planner.cache_hits"),
        reg.GetCounter("service.planner.cache_misses"),
        reg.GetCounter("service.planner.forced"),
        reg.GetCounter("service.planner.backend_builds"),
        reg.GetCounter("service.planner.routed_ekdb_flat"),
        reg.GetCounter("service.planner.routed_grid"),
        reg.GetCounter("service.planner.routed_lsh"),
        reg.GetCounter("service.planner.routed_brute_simd"),
        reg.GetCounter("service.planner.join_tree_fallbacks"),
        reg.GetHistogram("service.latency_us.insert"),
        reg.GetHistogram("service.latency_us.remove"),
        reg.GetHistogram("service.latency_us.flush"),
        reg.GetCounter("service.updates.inserts"),
        reg.GetCounter("service.updates.removes"),
        reg.GetCounter("service.updates.flushes"),
        reg.GetCounter("service.updates.rows_inserted"),
        reg.GetCounter("service.updates.rows_removed"),
        reg.GetGauge("delta.points"),
        reg.GetGauge("delta.tombstones"),
        reg.GetGauge("delta.bytes"),
        reg.GetCounter("compaction.count"),
        reg.GetHistogram("compaction.duration_us"),
        reg.GetCounter("service.trace.profiled_requests"),
        reg.GetCounter("service.slowlog.recorded"),
    };
  }();
  return metrics;
}

/// Trace-span label for one request opcode (string literals only: TraceSpan
/// keeps the pointer).
const char* RequestSpanName(FrameType type) {
  switch (type) {
    case FrameType::kBuildIndex: return "service.build_index";
    case FrameType::kRangeQuery: return "service.range_query";
    case FrameType::kSimilarityJoin: return "service.similarity_join";
    case FrameType::kStats: return "service.stats";
    case FrameType::kDropIndex: return "service.drop_index";
    case FrameType::kInsert: return "service.insert";
    case FrameType::kRemove: return "service.remove";
    case FrameType::kFlush: return "service.flush";
    default: return "service.request";
  }
}

}  // namespace

struct Server::Impl {
  // One client connection.  The socket, decoder, and membership in an io
  // thread's connection list belong to that io thread alone; the write
  // queue is the cross-thread handoff point (workers append response
  // frames, the io thread drains them to the socket).
  struct Conn {
    TcpSocket sock;
    FrameDecoder decoder;
    size_t io_index = 0;

    std::mutex write_mu;
    std::deque<std::vector<uint8_t>> write_queue;  // guarded by write_mu
    size_t write_offset = 0;   // sent bytes of write_queue.front()
    size_t queued_bytes = 0;   // guarded by write_mu: sum of queued frames
    bool dead = false;         // guarded by write_mu: drop further writes
    /// Signalled whenever queued_bytes drops or the conn dies; streaming
    /// workers block on it for write backpressure.
    std::condition_variable write_cv;
    bool close_after_flush = false;  // io thread only

    explicit Conn(TcpSocket s, uint32_t max_payload)
        : sock(std::move(s)), decoder(max_payload) {}
  };

  struct IoThread {
    WakePipe wake;
    std::thread thread;
    std::mutex incoming_mu;
    std::vector<std::shared_ptr<Conn>> incoming;  // guarded by incoming_mu
  };

  ServerConfig config;
  TcpListener listener;
  IndexRegistry registry;
  ThreadPool* pool = nullptr;
  std::unique_ptr<TaskGroup> group;
  std::vector<std::unique_ptr<IoThread>> io;
  std::atomic<size_t> next_io{0};

  std::atomic<bool> stop{false};
  /// Admission gate: slots are freed just BEFORE the terminal response is
  /// enqueued, so a client that pipelines its next request the instant it
  /// reads a response can never be falsely rejected by a stale count.
  std::atomic<size_t> inflight{0};
  /// Dispatched-but-not-fully-finished requests; unlike inflight this only
  /// drops AFTER the terminal response is queued, which is what the
  /// shutdown drain condition needs (pending == 0 => every response byte
  /// is visible to the io threads).
  std::atomic<size_t> pending{0};

  std::atomic<uint64_t> accepted_connections{0};
  std::atomic<uint64_t> active_connections{0};
  std::atomic<uint64_t> requests_admitted{0};
  std::atomic<uint64_t> requests_rejected{0};
  std::atomic<uint64_t> deadline_expired{0};
  std::atomic<uint64_t> decode_errors{0};
  std::atomic<uint64_t> pairs_streamed{0};
  std::atomic<uint64_t> write_stall_disconnects{0};
  std::atomic<uint64_t> fusion_batches{0};
  std::atomic<uint64_t> fusion_fused_queries{0};
  std::atomic<uint64_t> fusion_batch_full{0};
  std::atomic<uint64_t> fusion_wait_expired{0};
  /// Sequence for on-disk build artifact names (a rebuilt name must not
  /// overwrite a segment file the previous snapshot is still mapping).
  std::atomic<uint64_t> on_disk_builds{0};

  /// One admitted range query parked in the fusion buffer.  admitted_at is
  /// the admission-gate timestamp — it anchors both the deadline check and
  /// the latency histogram, exactly as in the unfused path, so the wait
  /// spent in the buffer is charged to the request that waited.
  struct FusionEntry {
    std::shared_ptr<Conn> conn;
    Frame frame;
    Clock::time_point admitted_at;
  };

  std::mutex fusion_mu;
  std::condition_variable fusion_cv;            // guarded by fusion_mu
  std::deque<FusionEntry> fusion_queue;         // guarded by fusion_mu
  /// Fused batches dispatched but not yet finished.  Group-commit flow
  /// control: while one is executing, the collector keeps accumulating past
  /// the wait budget (flushing into a busy pool would only shrink batches),
  /// so under load the previous batch's execution time becomes the batching
  /// window and batch sizes track the offered concurrency.
  std::atomic<size_t> fusion_executing{0};
  /// Set (under fusion_mu) when the collector thread has drained and exited;
  /// frames arriving after that fall back to solo dispatch instead of being
  /// stranded in a buffer nobody will ever flush.
  bool fusion_exited = false;
  std::thread fusion_thread;

  std::mutex join_mu;
  bool joined = false;

  /// Present iff config.slow_query_us > 0; with it absent no request ever
  /// allocates a profile collector unless it asked for one on the wire.
  std::unique_ptr<obs::SlowQueryLog> slow_log;

  explicit Impl(const ServerConfig& cfg)
      : config(cfg),
        registry(cfg.registry_byte_budget, cfg.segment_spill_dir) {
    if (config.slow_query_us > 0) {
      obs::SlowQueryLog::Options opts;
      opts.capacity = config.slow_query_capacity;
      opts.jsonl_path = config.slow_query_log_path;
      opts.sink_max_per_sec = config.slow_query_sink_per_sec;
      slow_log = std::make_unique<obs::SlowQueryLog>(opts);
    }
  }

  // -- response plumbing ----------------------------------------------------

  /// Queue-only half of EnqueueFrame: appends the frame without waking the
  /// connection's io thread.  The fused batch path uses it to scatter many
  /// responses and then notify each io thread once, instead of once per
  /// response.  Callers must wake io[conn->io_index] afterwards.
  void EnqueueFrameNoWake(const std::shared_ptr<Conn>& conn,
                          std::vector<uint8_t> frame) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    if (conn->dead) return;
    conn->queued_bytes += frame.size();
    conn->write_queue.push_back(std::move(frame));
  }

  /// Queues one encoded frame on the connection and wakes its io thread.
  /// Callable from any thread; silently drops frames for dead connections.
  /// Never blocks — io threads use it too, and an io thread waiting on its
  /// own drain would deadlock.
  void EnqueueFrame(const std::shared_ptr<Conn>& conn,
                    std::vector<uint8_t> frame) {
    EnqueueFrameNoWake(conn, std::move(frame));
    io[conn->io_index]->wake.Notify();
  }

  /// Backpressured variant for streamed join chunks (worker threads only):
  /// blocks while the connection already has max_conn_queued_bytes queued,
  /// so a slow reader throttles the join instead of buffering its entire
  /// result set.  At least one frame is always admitted when the queue is
  /// empty.  A client that stalls past write_stall_timeout_ms is declared
  /// dead (queue discarded, connection closed by its io thread).  Returns
  /// false when the connection is dead and the frame was dropped.
  bool EnqueueStreamFrame(const std::shared_ptr<Conn>& conn,
                          std::vector<uint8_t> frame) {
    {
      std::unique_lock<std::mutex> lock(conn->write_mu);
      const auto give_up =
          Clock::now() + std::chrono::milliseconds(config.write_stall_timeout_ms);
      while (!conn->dead && conn->queued_bytes != 0 &&
             conn->queued_bytes + frame.size() > config.max_conn_queued_bytes) {
        if (conn->write_cv.wait_until(lock, give_up) ==
            std::cv_status::timeout) {
          write_stall_disconnects.fetch_add(1, std::memory_order_relaxed);
          GetServiceMetrics().write_stall_disconnects->Add();
          conn->dead = true;
          conn->write_queue.clear();
          conn->write_offset = 0;
          conn->queued_bytes = 0;
          break;
        }
      }
      if (conn->dead) {
        lock.unlock();
        conn->write_cv.notify_all();
        io[conn->io_index]->wake.Notify();
        return false;
      }
      conn->queued_bytes += frame.size();
      conn->write_queue.push_back(std::move(frame));
    }
    io[conn->io_index]->wake.Notify();
    return true;
  }

  void Reply(const std::shared_ptr<Conn>& conn, FrameType type,
             uint64_t request_id, std::span<const uint8_t> payload) {
    EnqueueFrame(conn, EncodeFrame(type, request_id, 0, payload));
  }

  void ReplyError(const std::shared_ptr<Conn>& conn, uint64_t request_id,
                  const Status& status) {
    Reply(conn, FrameType::kError, request_id, EncodeErrorResponse(status));
  }

  // -- request execution (worker pool) --------------------------------------

  /// Streams join result pairs as kJoinChunk frames while the join runs.
  class ChunkSink : public PairSink {
   public:
    ChunkSink(Impl* impl, std::shared_ptr<Conn> conn, uint64_t request_id,
              size_t chunk_pairs)
        : impl_(impl),
          conn_(std::move(conn)),
          request_id_(request_id),
          chunk_pairs_(std::clamp<size_t>(chunk_pairs, 1, kMaxJoinChunkPairs)) {
      buffer_.reserve(chunk_pairs_);
    }

    void Emit(PointId a, PointId b) override {
      buffer_.emplace_back(a, b);
      if (buffer_.size() >= chunk_pairs_) FlushChunk();
    }

    void EmitBatch(std::span<const IdPair> pairs) override {
      buffer_.insert(buffer_.end(), pairs.begin(), pairs.end());
      if (buffer_.size() >= chunk_pairs_) FlushChunk();
    }

    /// Sends any buffered tail.  Must precede the kJoinDone frame.  Blocks
    /// on write backpressure when the client reads slower than the join
    /// emits; once the connection dies, remaining chunks are discarded
    /// (the join still runs to completion — PairSink has no abort channel —
    /// but its memory stays bounded by one chunk).
    void FlushChunk() {
      if (buffer_.empty()) return;
      if (!dropped_) {
        if (impl_->EnqueueStreamFrame(
                conn_, EncodeFrame(FrameType::kJoinChunk, request_id_, 0,
                                   EncodeJoinChunk(buffer_)))) {
          total_ += buffer_.size();
          impl_->pairs_streamed.fetch_add(buffer_.size(),
                                          std::memory_order_relaxed);
          GetServiceMetrics().pairs_streamed->Add(buffer_.size());
        } else {
          dropped_ = true;
        }
      }
      buffer_.clear();
    }

    uint64_t total_pairs() const { return total_; }

   private:
    Impl* impl_;
    std::shared_ptr<Conn> conn_;
    uint64_t request_id_;
    size_t chunk_pairs_;
    std::vector<IdPair> buffer_;
    uint64_t total_ = 0;
    bool dropped_ = false;  ///< connection died mid-stream; stop encoding
  };

  /// Terminal response of one request, built by the handler and sent by
  /// ExecuteRequest's tail (after the admission slot is released).
  struct Terminal {
    FrameType type = FrameType::kError;
    std::vector<uint8_t> payload;
  };

  /// Maps a client-requested thread count onto the server's resources.
  /// The request is a hint, never a grant: counts are clamped to the
  /// worker-pool size (ThreadPool::Shared keeps a persistent pool per
  /// distinct count, so an unclamped u32 would let one request spawn
  /// millions of OS threads).
  size_t ResolveThreads(uint32_t requested) const {
    const size_t ceiling =
        config.worker_threads != 0
            ? config.worker_threads
            : std::max<size_t>(1, std::thread::hardware_concurrency());
    if (requested == 0) return ceiling;
    return std::min<size_t>(requested, ceiling);
  }

  // -- per-request observability (docs/observability.md) ---------------------

  /// Clock::time_point -> the trace/profile epoch.  Both Clock and
  /// obs::internal::TraceNowNanos() read std::chrono::steady_clock, so the
  /// admission stamp converts to profile-epoch nanoseconds directly.
  static uint64_t TraceStamp(Clock::time_point tp) {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            tp.time_since_epoch())
            .count());
  }

  /// Observability state of one in-flight request.  ExecuteRequest stamps
  /// the timing fields; the handler calls ArmObs once its request has
  /// parsed (the trace context is a payload tag, so it is only known
  /// post-parse).  When the request asked for a profile — or the slow-query
  /// log wants one for every over-threshold request — ArmObs opens the
  /// phase tree (queue | parse | execute, contiguous by construction) and
  /// installs the collector into the worker thread's request context, so
  /// every TraceSpan below lands in the tree and ThreadPool::Submit carries
  /// it into parallel-join tasks.
  struct RequestObs {
    const char* span_name = "service.request";
    uint64_t epoch_ns = 0;          ///< admission stamp (profile epoch)
    uint64_t handler_start_ns = 0;  ///< worker picked the request up
    uint64_t cpu_start_ns = 0;      ///< worker thread CPU at pickup
    TraceContext trace;
    std::string index;              ///< for the slow-query log
    std::unique_ptr<obs::RequestProfileCollector> collector;
    uint32_t root = obs::kProfileNoParent;
    uint32_t execute_node = obs::kProfileNoParent;
    bool phases_closed = false;
  };

  void ArmObs(RequestObs* ro, const TraceContext& trace, std::string index) {
    ro->trace = trace;
    ro->index = std::move(index);
    const bool collect = trace.profile() || slow_log != nullptr;
    if (!collect) {
      if (trace.present && trace.trace_id != 0 &&
          obs::internal::CaptureEnabled()) {
        // No tree wanted, but global tracing is on: tag this thread's
        // spans with the request's trace id so the Chrome trace can be
        // filtered per request.  ExecuteRequest resets the slot.
        obs::internal::MutableRequestContext().trace_id = trace.trace_id;
      }
      return;
    }
    if (trace.profile()) GetServiceMetrics().profiled_requests->Add();
    ro->collector = std::make_unique<obs::RequestProfileCollector>(
        trace.trace_id, ro->epoch_ns);
    const uint64_t now = obs::internal::TraceNowNanos();
    ro->root =
        ro->collector->BeginPhase(ro->span_name, obs::kProfileNoParent,
                                  ro->epoch_ns);
    ro->collector->AddPhase("queue", ro->root, ro->epoch_ns,
                            ro->handler_start_ns - ro->epoch_ns, 0);
    ro->collector->AddPhase("parse", ro->root, ro->handler_start_ns,
                            now - ro->handler_start_ns, 0);
    ro->execute_node = ro->collector->BeginPhase("execute", ro->root, now);
    obs::RequestContext& tls = obs::internal::MutableRequestContext();
    tls.trace_id = trace.trace_id;
    tls.collector = ro->collector.get();
    tls.node = ro->execute_node;
  }

  /// Closes the execute phase and the root (idempotent); returns the stamp
  /// used, so Finish(stamp) yields a tree whose root ends exactly where
  /// total_wall_ns does.
  uint64_t CloseObsPhases(RequestObs* ro) {
    const uint64_t now = obs::internal::TraceNowNanos();
    if (ro->collector == nullptr || ro->phases_closed) return now;
    ro->phases_closed = true;
    const uint64_t cpu = obs::ThreadCpuNanos();
    ro->collector->EndPhase(
        ro->execute_node, now,
        cpu >= ro->cpu_start_ns ? cpu - ro->cpu_start_ns : 0);
    ro->collector->EndPhase(ro->root, now, 0);
    return now;
  }

  /// Records one finished request into the slow-query log when it is over
  /// the latency threshold or failed.  `collector` may be null (request
  /// parsed too little to arm) — the entry then carries an empty profile.
  void RecordSlowQuery(const TraceContext& trace, const std::string& index,
                       uint64_t request_id, FrameType op, const Status& status,
                       double wall_us, obs::RequestProfileCollector* collector,
                       uint64_t end_ns) {
    if (slow_log == nullptr) return;
    if (status.ok() &&
        wall_us < static_cast<double>(config.slow_query_us)) {
      return;
    }
    obs::SlowQueryEntry entry;
    entry.trace_id = trace.trace_id;
    entry.request_id = request_id;
    entry.op = static_cast<uint8_t>(op);
    entry.index = index;
    entry.wall_us = static_cast<uint64_t>(wall_us);
    entry.status_code = static_cast<uint32_t>(status.code());
    entry.status_message = status.message();
    if (collector != nullptr) entry.profile = collector->Finish(end_ns);
    slow_log->Record(std::move(entry));
    GetServiceMetrics().slowlog_recorded->Add();
  }

  Status HandleBuildIndex(const Frame& frame, RequestObs* ro, Terminal* out) {
    BuildIndexRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseBuildIndexRequest(frame.payload, &req));
    ArmObs(ro, req.trace, req.name);
    SIMJOIN_ASSIGN_OR_RETURN(Dataset data,
                             Dataset::FromFlat(std::move(req.points), req.dims));
    std::shared_ptr<const IndexSnapshot> snapshot;
    if (req.on_disk) {
      SIMJOIN_ASSIGN_OR_RETURN(snapshot, BuildOnDisk(req, data));
    } else {
      SIMJOIN_ASSIGN_OR_RETURN(
          snapshot,
          IndexSnapshot::Build(req.name, std::move(data), req.config,
                               ResolveThreads(req.num_threads), req.backend));
    }
    // Compaction metrics hook: the observer touches only process-lifetime
    // globals (never the registry or Impl), because a background compaction
    // submitted to the shared pool can outlive both — its task holds the
    // index alive via shared_ptr, not the server.
    if (const UpdatableIndex* upd = snapshot->updatable()) {
      upd->SetCompactionObserver([](double seconds) {
        const ServiceMetrics& m = GetServiceMetrics();
        m.compactions->Add();
        m.compaction_us->Record(seconds * 1e6);
      });
    }
    size_t evicted = 0;
    SIMJOIN_RETURN_NOT_OK(registry.Put(snapshot, &evicted));
    BuildIndexResponse resp;
    resp.num_points = static_cast<uint32_t>(snapshot->dataset().size());
    resp.dims = static_cast<uint32_t>(snapshot->dataset().dims());
    resp.index_bytes = snapshot->memory_bytes();
    resp.registry_bytes = registry.bytes_in_use();
    resp.evicted = static_cast<uint32_t>(evicted);
    resp.build_seconds = snapshot->build_seconds();
    out->type = FrameType::kBuildIndexOk;
    out->payload = EncodeBuildIndexResponse(resp);
    return Status::OK();
  }

  /// On-disk build path: stage the uploaded rows as a binary dataset file,
  /// run the external (sort-runs + merge) segment build, and open the
  /// result memory-mapped — the snapshot admitted to the registry charges
  /// only bookkeeping bytes, so indexes far beyond the byte budget serve
  /// fault-in instead of being rejected.
  Result<std::shared_ptr<const IndexSnapshot>> BuildOnDisk(
      const BuildIndexRequest& req, const Dataset& data) {
    if (config.segment_spill_dir.empty()) {
      return Status::InvalidArgument(
          "on-disk builds require a segment spill directory; start the "
          "server with --spill-dir");
    }
    if (req.backend != BackendKind::kEkdbFlat) {
      return Status::InvalidArgument(
          "on-disk builds support only the tree backend (segments are "
          "serialised flat eps-k-d-B trees)");
    }
    std::string safe = req.name;
    for (char& c : safe) {
      const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                      (c >= '0' && c <= '9') || c == '.' || c == '_' ||
                      c == '-';
      if (!ok) c = '_';
    }
    const uint64_t seq = on_disk_builds.fetch_add(1) + 1;
    const std::string base =
        config.segment_spill_dir + "/" + safe + ".b" + std::to_string(seq);
    const std::string staged = base + ".sjdb";
    const std::string segment = base + ".seg";
    SIMJOIN_RETURN_NOT_OK(WriteBinaryDataset(data, staged));
    ExternalBuildConfig build;
    build.ekdb = req.config;
    build.temp_dir = config.segment_spill_dir;
    auto built = BuildSegmentExternal(staged, segment, build);
    ::unlink(staged.c_str());  // the segment embeds the dataset section
    SIMJOIN_RETURN_NOT_OK(built.status());
    return IndexSnapshot::OpenMapped(req.name, segment, MmapBackendOptions{});
  }

  /// Parses and resolves one range-query request up to the point where it
  /// could execute: snapshot looked up, dims checked, epsilon resolved, and
  /// the request planned (which validates epsilon and recall).  Shared by
  /// the solo and fused paths so both fail with byte-identical errors, and
  /// a bad request in a fused batch fails only itself.
  struct ResolvedRangeQuery {
    RangeQueryRequest req;
    /// Keeps the dataset the planned backend reads alive.
    std::shared_ptr<const IndexSnapshot> snapshot;
    double eps = 0.0;
    size_t count = 0;  ///< query points in the request
    PlannedRange planned;  ///< the backend that executes the request
  };

  /// Precondition: out->req is already parsed (the solo and fused paths
  /// both parse first, so the trace context can be armed before resolution
  /// work is attributed to the request).
  Status ResolveRangeQuery(ResolvedRangeQuery* out) {
    SIMJOIN_ASSIGN_OR_RETURN(out->snapshot, registry.Get(out->req.name));
    const size_t index_dims = out->snapshot->dataset().dims();
    if (out->req.dims != index_dims) {
      return Status::InvalidArgument(
          "query dims " + std::to_string(out->req.dims) + " != index dims " +
          std::to_string(index_dims));
    }
    out->eps = out->req.epsilon == 0.0 ? out->snapshot->config().epsilon
                                       : out->req.epsilon;
    out->count = out->req.queries.size() / out->req.dims;
    // A request without the planner tag parsed as recall 1, backend auto.
    SIMJOIN_ASSIGN_OR_RETURN(
        out->planned,
        out->snapshot->PlanRange(out->eps, out->req.recall, out->req.backend,
                                 RangePlannerOptions{}));
    const ServiceMetrics& metrics = GetServiceMetrics();
    metrics.planner_requests->Add();
    if (out->req.backend != kWireBackendAuto) {
      metrics.planner_forced->Add();
    } else if (out->planned.cache_hit) {
      metrics.planner_cache_hits->Add();
    } else {
      metrics.planner_cache_misses->Add();
    }
    if (out->planned.built_backend) metrics.planner_backend_builds->Add();
    metrics.RoutedCounterFor(out->planned.plan.kind)->Add();
    return Status::OK();
  }

  /// Human-readable planner decision carried in profiles and slow-log
  /// entries: which backend executed, at what radius and recall target,
  /// and whether the decision came from the plan cache.
  static std::string RangePlanString(const ResolvedRangeQuery& rq) {
    std::string plan = "backend=";
    plan += BackendKindName(rq.planned.plan.kind);
    plan += " eps=" + std::to_string(rq.eps);
    plan += " recall_target=" + std::to_string(rq.req.recall);
    plan += rq.planned.cache_hit ? " cache=hit" : " cache=miss";
    return plan;
  }

  /// Finishes one response: canonicalises each id list to ascending order
  /// (the one answer order, so answer bytes do not depend on the routed
  /// backend) and, when the request carried the planner tag, echoes the
  /// plan with the per-query recall estimates aggregated into one batch
  /// figure — each query's estimated true neighbour count is found/recall,
  /// so the batch estimate is total found over the summed estimates.
  static void FinalizePlannedResponse(const ResolvedRangeQuery& rq,
                                      const std::vector<double>& recalls,
                                      size_t recalls_offset,
                                      RangeQueryResponse* resp) {
    double est_true = 0.0;
    uint64_t found = 0;
    for (size_t q = 0; q < resp->results.size(); ++q) {
      std::sort(resp->results[q].begin(), resp->results[q].end());
      const size_t got = resp->results[q].size();
      const double r = recalls[recalls_offset + q];
      if (got > 0 && r > 0.0) {
        found += got;
        est_true += static_cast<double>(got) / r;
      }
    }
    double achieved =
        found > 0 ? static_cast<double>(found) / est_true
                  : rq.planned.backend->ExpectedRecall(rq.eps);
    resp->has_planner = rq.req.has_planner;
    resp->achieved_recall = std::min(1.0, std::max(0.0, achieved));
    resp->backend_used = static_cast<uint8_t>(rq.planned.plan.kind);
    resp->plan_cache_hit = rq.planned.cache_hit;
  }

  Status HandleRangeQuery(const Frame& frame, RequestObs* ro, Terminal* out) {
    ResolvedRangeQuery rq;
    SIMJOIN_RETURN_NOT_OK(ParseRangeQueryRequest(frame.payload, &rq.req));
    ArmObs(ro, rq.req.trace, rq.req.name);
    {
      SIMJOIN_TRACE_SPAN("service.phase.resolve");
      SIMJOIN_RETURN_NOT_OK(ResolveRangeQuery(&rq));
    }
    if (ro->collector != nullptr) ro->collector->SetPlan(RangePlanString(rq));
    RangeQueryResponse resp;
    resp.results.resize(rq.count);
    {
      SIMJOIN_TRACE_SPAN("service.phase.query");
      std::vector<double> recalls(rq.count, 1.0);
      for (size_t i = 0; i < rq.count; ++i) {
        SIMJOIN_RETURN_NOT_OK(rq.planned.backend->RangeQuery(
            rq.req.queries.data() + i * rq.req.dims, rq.eps, &resp.results[i],
            &resp.stats, &recalls[i]));
      }
      FinalizePlannedResponse(rq, recalls, 0, &resp);
    }
    if (ro->collector != nullptr) {
      obs::AddRequestCounter("query_points", rq.count);
      obs::AddRequestCounter("candidates", resp.stats.candidate_pairs);
      obs::AddRequestCounter("distance_calls", resp.stats.distance_calls);
      obs::AddRequestCounter("results", resp.stats.pairs_emitted);
      if (ro->trace.profile()) {
        // Finish the tree BEFORE encoding: the profile rides inside this
        // very payload, so its root must close here (the sliver spent
        // encoding afterwards is the only uncovered wall time).
        resp.has_profile = true;
        resp.profile = ro->collector->Finish(CloseObsPhases(ro));
      }
    }
    out->type = FrameType::kRangeQueryResult;
    out->payload = EncodeRangeQueryResponse(resp);
    return Status::OK();
  }

  Status HandleSimilarityJoin(const std::shared_ptr<Conn>& conn,
                              const Frame& frame, RequestObs* ro,
                              Terminal* out) {
    SimilarityJoinRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseSimilarityJoinRequest(frame.payload, &req));
    ArmObs(ro, req.trace, req.name_a);
    SIMJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const IndexSnapshot> a,
                             registry.Get(req.name_a));
    // A primary without a native join (the epsilon grid) no longer rejects:
    // JoinBackend lazily builds an ekdb-flat auxiliary over the same
    // dataset and the join streams from that, bit-identical to a
    // tree-primary index.
    SIMJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const IndexBackend> a_join,
                             a->JoinBackend());
    if (a_join->kind() != a->backend()) {
      GetServiceMetrics().planner_join_fallbacks->Add();
    }
    // An updatable primary has no flat tree to hand the join drivers — its
    // SelfJoin merges the base tier, the delta memtable, and the tombstone
    // set itself (canonical ascending-id pairs, bit-identical to a fresh
    // rebuild over the live rows).  Cross-joins are rejected: the other
    // side would be joined against a moving point set.
    if (a_join->flat_tree() == nullptr) {
      if (!req.name_b.empty() && req.name_b != req.name_a) {
        return Status::InvalidArgument(
            "index '" + req.name_a + "' is updatable; cross-index joins "
            "require immutable indexes (flush and rebuild to join)");
      }
      const double upd_build_eps = a_join->config().epsilon;
      const double upd_eps = req.epsilon == 0.0 ? upd_build_eps : req.epsilon;
      SIMJOIN_RETURN_NOT_OK(a_join->ValidateQueryEpsilon(upd_eps));
      ChunkSink sink(this, conn, frame.header.request_id,
                     std::min<size_t>(req.chunk_pairs != 0
                                          ? req.chunk_pairs
                                          : config.join_chunk_pairs,
                                      kMaxJoinChunkPairs));
      JoinStats stats;
      SIMJOIN_RETURN_NOT_OK(a_join->SelfJoin(
          upd_eps, ResolveThreads(req.num_threads), &sink, &stats));
      sink.FlushChunk();
      JoinDone done;
      done.total_pairs = sink.total_pairs();
      done.stats = stats;
      out->type = FrameType::kJoinDone;
      out->payload = EncodeJoinDone(done);
      return Status::OK();
    }
    const FlatEkdbTree& a_tree = *a_join->flat_tree();
    std::shared_ptr<const IndexSnapshot> b;
    std::shared_ptr<const IndexBackend> b_join;
    const FlatEkdbTree* b_tree = nullptr;
    if (!req.name_b.empty() && req.name_b != req.name_a) {
      SIMJOIN_ASSIGN_OR_RETURN(b, registry.Get(req.name_b));
      SIMJOIN_ASSIGN_OR_RETURN(b_join, b->JoinBackend());
      if (b_join->kind() != b->backend()) {
        GetServiceMetrics().planner_join_fallbacks->Add();
      }
      b_tree = b_join->flat_tree();
      if (b_tree == nullptr) {
        return Status::InvalidArgument(
            "index '" + req.name_b + "' is updatable; cross-index joins "
            "require immutable indexes (flush and rebuild to join)");
      }
      if (!FlatEkdbTree::JoinCompatible(a_tree, *b_tree)) {
        return Status::InvalidArgument(
            "indexes '" + req.name_a + "' and '" + req.name_b +
            "' are not join-compatible (epsilon/metric/dims/dim order)");
      }
    }
    const double build_eps = a_tree.config().epsilon;
    const double eps = req.epsilon == 0.0 ? build_eps : req.epsilon;
    const size_t threads = ResolveThreads(req.num_threads);
    const size_t chunk = std::min<size_t>(
        req.chunk_pairs != 0 ? req.chunk_pairs : config.join_chunk_pairs,
        kMaxJoinChunkPairs);
    ChunkSink sink(this, conn, frame.header.request_id, chunk);
    JoinStats stats;
    Status st;
    // The parallel driver joins at build epsilon; narrower radii take the
    // sequential radius-override path.  Either way the emitted pair
    // sequence is the sequential sequence (the parallel engine's
    // deterministic-merge guarantee), so clients cannot tell the difference.
    const bool parallel = threads > 1 && eps == build_eps;
    ParallelJoinConfig pcfg;
    pcfg.num_threads = threads;
    if (b == nullptr) {
      st = parallel ? ParallelFlatEkdbSelfJoin(a_tree, pcfg, &sink, &stats)
           : eps == build_eps ? FlatEkdbSelfJoin(a_tree, &sink, &stats)
                              : FlatEkdbSelfJoinWithEpsilon(a_tree, eps,
                                                            &sink, &stats);
    } else {
      st = parallel
               ? ParallelFlatEkdbJoin(a_tree, *b_tree, pcfg, &sink, &stats)
           : eps == build_eps
               ? FlatEkdbJoin(a_tree, *b_tree, &sink, &stats)
               : FlatEkdbJoinWithEpsilon(a_tree, *b_tree, eps, &sink,
                                         &stats);
    }
    SIMJOIN_RETURN_NOT_OK(st);
    sink.FlushChunk();
    JoinDone done;
    done.total_pairs = sink.total_pairs();
    done.stats = stats;
    out->type = FrameType::kJoinDone;
    out->payload = EncodeJoinDone(done);
    return Status::OK();
  }

  Status HandleStats(const Frame& frame, RequestObs* ro, Terminal* out) {
    StatsRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseStatsRequest(frame.payload, &req));
    ArmObs(ro, TraceContext{}, "");
    StatsResponse resp;
    resp.accepted_connections =
        accepted_connections.load(std::memory_order_relaxed);
    resp.active_connections =
        active_connections.load(std::memory_order_relaxed);
    resp.requests_admitted = requests_admitted.load(std::memory_order_relaxed);
    resp.requests_rejected = requests_rejected.load(std::memory_order_relaxed);
    resp.deadline_expired = deadline_expired.load(std::memory_order_relaxed);
    resp.decode_errors = decode_errors.load(std::memory_order_relaxed);
    resp.pairs_streamed = pairs_streamed.load(std::memory_order_relaxed);
    resp.registry_byte_budget = registry.byte_budget();
    resp.registry_bytes = registry.bytes_in_use();
    resp.registry_evictions = registry.evictions();
    for (const RegistryEntryInfo& entry : registry.List()) {
      IndexInfo info;
      info.name = entry.name;
      info.num_points = static_cast<uint32_t>(entry.num_points);
      info.dims = static_cast<uint32_t>(entry.dims);
      info.bytes = entry.bytes;
      info.hits = entry.hits;
      info.epsilon = entry.epsilon;
      info.metric = entry.metric;
      resp.indexes.push_back(std::move(info));
    }
    // The full registry snapshot (pool, join-phase, and service metrics).
    resp.metrics = obs::GlobalMetrics().Snapshot();
    // Drain the slow-query ring on request.  With no log configured the
    // tag still answers (present, empty).
    if (req.drain_slowlog) {
      resp.has_slowlog = true;
      if (slow_log != nullptr) {
        resp.slowlog = slow_log->Drain(config.slow_query_capacity);
        resp.slowlog_recorded = slow_log->recorded();
        resp.slowlog_evicted = slow_log->evicted();
      }
    }
    out->type = FrameType::kStatsResult;
    out->payload = EncodeStatsResponse(resp);
    return Status::OK();
  }

  Status HandleDropIndex(const Frame& frame, RequestObs* ro, Terminal* out) {
    DropIndexRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseDropIndexRequest(frame.payload, &req));
    ArmObs(ro, TraceContext{}, req.name);
    DropIndexResponse resp;
    resp.found = registry.Erase(req.name);
    out->type = FrameType::kDropIndexOk;
    out->payload = EncodeDropIndexResponse(resp);
    return Status::OK();
  }

  // -- live-update RPCs (docs/updates.md) ------------------------------------

  /// Looks up one index for a live-update RPC.  Updates against an index
  /// whose primary is not the updatable backend fail here — every other
  /// snapshot's structures are immutable by contract and must stay that way.
  Result<std::shared_ptr<const IndexSnapshot>> ResolveUpdatable(
      const std::string& name, const UpdatableIndex** upd) {
    SIMJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const IndexSnapshot> snapshot,
                             registry.Get(name));
    *upd = snapshot->updatable();
    if (*upd == nullptr) {
      return Status::InvalidArgument(
          "index '" + name + "' uses the " +
          std::string(BackendKindName(snapshot->backend())) +
          " backend; live updates need an index built with the updatable "
          "backend");
    }
    return snapshot;
  }

  /// Publishes the delta-tier gauges after an update RPC.  Gauges reflect
  /// the most recently updated index; the per-index breakdown lives in the
  /// Stats index list (bytes are the dynamic registry charge).
  void PublishDeltaGauges(const UpdatableIndex& upd) {
    const UpdatableStats s = upd.Stats();
    const ServiceMetrics& m = GetServiceMetrics();
    m.delta_points->Set(static_cast<int64_t>(s.delta_points));
    m.delta_tombstones->Set(static_cast<int64_t>(s.tombstones));
    m.delta_bytes->Set(static_cast<int64_t>(s.delta_bytes));
  }

  Status HandleInsert(const Frame& frame, RequestObs* ro, Terminal* out) {
    InsertRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseInsertRequest(frame.payload, &req));
    ArmObs(ro, req.trace, req.name);
    const UpdatableIndex* upd = nullptr;
    SIMJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const IndexSnapshot> snapshot,
                             ResolveUpdatable(req.name, &upd));
    const size_t index_dims = snapshot->dataset().dims();
    if (req.dims != index_dims) {
      return Status::InvalidArgument(
          "insert dims " + std::to_string(req.dims) + " != index dims " +
          std::to_string(index_dims));
    }
    const size_t count = req.rows.size() / req.dims;
    SIMJOIN_ASSIGN_OR_RETURN(PointId first,
                             upd->InsertBatch(req.rows.data(), count));
    // The delta grew: re-read this index's dynamic footprint into the LRU
    // accounting (evicting colder entries if the budget is now exceeded).
    registry.RefreshCharge(req.name);
    const UpdatableStats s = upd->Stats();
    const ServiceMetrics& metrics = GetServiceMetrics();
    metrics.updates_inserts->Add();
    metrics.updates_rows_inserted->Add(count);
    PublishDeltaGauges(*upd);
    InsertResponse resp;
    resp.first_id = first;
    resp.count = static_cast<uint32_t>(count);
    resp.delta_points = s.delta_points;
    resp.tombstones = s.tombstones;
    out->type = FrameType::kInsertOk;
    out->payload = EncodeInsertResponse(resp);
    return Status::OK();
  }

  Status HandleRemove(const Frame& frame, RequestObs* ro, Terminal* out) {
    RemoveRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseRemoveRequest(frame.payload, &req));
    ArmObs(ro, req.trace, req.name);
    const UpdatableIndex* upd = nullptr;
    SIMJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const IndexSnapshot> snapshot,
                             ResolveUpdatable(req.name, &upd));
    RemoveResponse resp;
    upd->RemoveBatch(req.ids.data(), req.ids.size(), &resp.removed,
                     &resp.missing);
    registry.RefreshCharge(req.name);
    const UpdatableStats s = upd->Stats();
    const ServiceMetrics& metrics = GetServiceMetrics();
    metrics.updates_removes->Add();
    metrics.updates_rows_removed->Add(resp.removed);
    PublishDeltaGauges(*upd);
    resp.delta_points = s.delta_points;
    resp.tombstones = s.tombstones;
    out->type = FrameType::kRemoveOk;
    out->payload = EncodeRemoveResponse(resp);
    return Status::OK();
  }

  Status HandleFlush(const Frame& frame, RequestObs* ro, Terminal* out) {
    FlushRequest req;
    SIMJOIN_RETURN_NOT_OK(ParseFlushRequest(frame.payload, &req));
    ArmObs(ro, req.trace, req.name);
    const UpdatableIndex* upd = nullptr;
    SIMJOIN_ASSIGN_OR_RETURN(std::shared_ptr<const IndexSnapshot> snapshot,
                             ResolveUpdatable(req.name, &upd));
    SIMJOIN_ASSIGN_OR_RETURN(bool compacted, upd->Flush());
    registry.RefreshCharge(req.name);
    const UpdatableStats s = upd->Stats();
    GetServiceMetrics().updates_flushes->Add();
    PublishDeltaGauges(*upd);
    FlushResponse resp;
    resp.compacted = compacted;
    resp.base_points = s.base_points;
    resp.delta_points = s.delta_points;
    resp.tombstones = s.tombstones;
    resp.index_bytes = snapshot->memory_bytes();
    out->type = FrameType::kFlushOk;
    out->payload = EncodeFlushResponse(resp);
    return Status::OK();
  }

  /// Runs one admitted request on a worker thread.
  void ExecuteRequest(const std::shared_ptr<Conn>& conn, const Frame& frame,
                      Clock::time_point admitted_at) {
    if (config.handler_delay_ms_for_testing > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.handler_delay_ms_for_testing));
    }
    SIMJOIN_TRACE_SPAN(RequestSpanName(frame.header.type));
    RequestObs ro;
    ro.span_name = RequestSpanName(frame.header.type);
    ro.epoch_ns = TraceStamp(admitted_at);
    ro.handler_start_ns = obs::internal::TraceNowNanos();
    ro.cpu_start_ns = obs::ThreadCpuNanos();
    Terminal term;
    Status request_status;
    const uint32_t deadline = frame.header.deadline_ms;
    if (deadline > 0 && ElapsedMs(admitted_at) > deadline) {
      deadline_expired.fetch_add(1, std::memory_order_relaxed);
      GetServiceMetrics().deadline_expired->Add();
      request_status = Status::DeadlineExceeded(
          "deadline of " + std::to_string(deadline) + " ms expired after " +
          std::to_string(ElapsedMs(admitted_at)) + " ms");
      term.payload = EncodeErrorResponse(request_status);
    } else {
      Status st;
      switch (frame.header.type) {
        case FrameType::kBuildIndex:
          st = HandleBuildIndex(frame, &ro, &term);
          break;
        case FrameType::kRangeQuery:
          st = HandleRangeQuery(frame, &ro, &term);
          break;
        case FrameType::kSimilarityJoin:
          st = HandleSimilarityJoin(conn, frame, &ro, &term);
          break;
        case FrameType::kStats:
          st = HandleStats(frame, &ro, &term);
          break;
        case FrameType::kDropIndex:
          st = HandleDropIndex(frame, &ro, &term);
          break;
        case FrameType::kInsert:
          st = HandleInsert(frame, &ro, &term);
          break;
        case FrameType::kRemove:
          st = HandleRemove(frame, &ro, &term);
          break;
        case FrameType::kFlush:
          st = HandleFlush(frame, &ro, &term);
          break;
        default:
          st = Status::Internal("request type routed to worker unexpectedly");
          break;
      }
      if (!st.ok()) {
        term.type = FrameType::kError;
        term.payload = EncodeErrorResponse(st);
      }
      request_status = std::move(st);
    }
    // The worker thread is about to move on: whatever the handler (or
    // ArmObs) left in the request context must not leak into the next
    // request — or into a background task submitted later from this thread.
    obs::internal::MutableRequestContext() = obs::RequestContext{};
    // A response the peer would reject (or that would overflow the u32
    // size field) must fail loudly here, not desync the stream: replace it
    // with an error telling the client to split its batch.
    if (term.payload.size() > config.max_frame_payload) {
      term.type = FrameType::kError;
      term.payload = EncodeErrorResponse(Status::OutOfRange(
          "response payload of " + std::to_string(term.payload.size()) +
          " bytes exceeds the " + std::to_string(config.max_frame_payload) +
          "-byte frame limit; split the request into smaller batches"));
    }
    std::vector<uint8_t> bytes =
        EncodeFrame(term.type, frame.header.request_id, 0, term.payload);
    // Free the admission slot BEFORE the response becomes visible: a client
    // that sends its next request the moment it reads this response must
    // find the slot open, not a stale count (false kRetryAfter).
    inflight.fetch_sub(1, std::memory_order_acq_rel);
    const ServiceMetrics& metrics = GetServiceMetrics();
    metrics.inflight->Add(-1);
    const double wall_us = ElapsedUs(admitted_at);
    if (obs::Histogram* hist = metrics.LatencyFor(frame.header.type)) {
      hist->Record(wall_us);
    }
    RecordSlowQuery(ro.trace, ro.index, frame.header.request_id,
                    frame.header.type, request_status, wall_us,
                    ro.collector.get(), CloseObsPhases(&ro));
    EnqueueFrame(conn, std::move(bytes));
  }

  // -- fused range-query execution -------------------------------------------

  /// Runs one fused batch of admitted range queries on a worker thread.
  ///
  /// Each entry is resolved exactly as the solo path would (same parse,
  /// lookup, dims, epsilon, and plan errors); the viable ones are grouped
  /// by the backend the planner picked and executed through
  /// RangeQueryBatch, which plans every query's leaf windows, sorts them by
  /// arena position, and sweeps the coordinate arena once with the strided
  /// SIMD kernels.  Responses are bit-identical to solo execution: same
  /// ascending ids, same per-request JoinStats (RangeQueryBatch attributes
  /// kernel counters per query).
  void ExecuteFusedBatch(std::vector<FusionEntry> entries) {
    if (config.handler_delay_ms_for_testing > 0) {
      std::this_thread::sleep_for(
          std::chrono::milliseconds(config.handler_delay_ms_for_testing));
    }
    SIMJOIN_TRACE_SPAN("service.fusion.sweep");
    const ServiceMetrics& metrics = GetServiceMetrics();
    fusion_batches.fetch_add(1, std::memory_order_relaxed);
    fusion_fused_queries.fetch_add(entries.size(), std::memory_order_relaxed);
    metrics.fusion_batches->Add();
    metrics.fusion_fused_queries->Add(entries.size());
    metrics.fusion_batch_size->Record(static_cast<double>(entries.size()));
    for (const FusionEntry& entry : entries) {
      metrics.fusion_wait_us->Record(ElapsedUs(entry.admitted_at));
    }

    const size_t n = entries.size();
    std::vector<Terminal> terminals(n);
    std::vector<ResolvedRangeQuery> resolved(n);
    std::vector<bool> viable(n, false);
    // Per-member observability: a member that asked for a profile (or that
    // the slow-query log will want) gets its own collector, and the shared
    // sweep is attributed retroactively to every member — each profile
    // shows the full batch sweep interval, because that IS the wall time
    // the member spent executing.  Phases stay contiguous per member:
    // queue | resolve | wait (grouping + other members) | sweep | finalize.
    struct EntryObs {
      TraceContext trace;
      std::string index;
      std::unique_ptr<obs::RequestProfileCollector> collector;
      uint32_t root = obs::kProfileNoParent;
      uint64_t epoch_ns = 0;
      uint64_t resolve_end_ns = 0;
      Status status;
      bool closed = false;
    };
    std::vector<EntryObs> eobs(n);
    for (size_t i = 0; i < n; ++i) {
      const Frame& frame = entries[i].frame;
      eobs[i].epoch_ns = TraceStamp(entries[i].admitted_at);
      const uint32_t deadline = frame.header.deadline_ms;
      if (deadline > 0 && ElapsedMs(entries[i].admitted_at) > deadline) {
        deadline_expired.fetch_add(1, std::memory_order_relaxed);
        metrics.deadline_expired->Add();
        eobs[i].status = Status::DeadlineExceeded(
            "deadline of " + std::to_string(deadline) + " ms expired after " +
            std::to_string(ElapsedMs(entries[i].admitted_at)) + " ms");
        terminals[i].payload = EncodeErrorResponse(eobs[i].status);
        continue;
      }
      const uint64_t resolve_start = obs::internal::TraceNowNanos();
      Status st = ParseRangeQueryRequest(frame.payload, &resolved[i].req);
      if (st.ok()) {
        eobs[i].trace = resolved[i].req.trace;
        eobs[i].index = resolved[i].req.name;
        if (eobs[i].trace.profile() || slow_log != nullptr) {
          if (eobs[i].trace.profile()) metrics.profiled_requests->Add();
          eobs[i].collector =
              std::make_unique<obs::RequestProfileCollector>(
                  eobs[i].trace.trace_id, eobs[i].epoch_ns);
          eobs[i].root = eobs[i].collector->BeginPhase(
              "service.range_query", obs::kProfileNoParent, eobs[i].epoch_ns);
          eobs[i].collector->AddPhase("queue", eobs[i].root, eobs[i].epoch_ns,
                                      resolve_start - eobs[i].epoch_ns, 0);
        }
        st = ResolveRangeQuery(&resolved[i]);
      }
      if (eobs[i].collector != nullptr) {
        eobs[i].resolve_end_ns = obs::internal::TraceNowNanos();
        eobs[i].collector->AddPhase("resolve", eobs[i].root, resolve_start,
                                    eobs[i].resolve_end_ns - resolve_start,
                                    0);
        eobs[i].collector->SetPlan(st.ok() ? RangePlanString(resolved[i])
                                           : "unresolved");
      }
      if (!st.ok()) {
        eobs[i].status = st;
        terminals[i].payload = EncodeErrorResponse(st);
        continue;
      }
      viable[i] = true;
    }

    // Group viable requests by the backend the planner picked; requests on
    // the same structure fuse among themselves.  Raw pointers are safe as
    // group keys: each resolved entry keeps its planned backend alive for
    // the whole batch.  Linear scan: batches hold few distinct backends.
    struct BackendGroup {
      const IndexBackend* backend;
      std::vector<size_t> members;  ///< entry indexes, admission order
    };
    std::vector<BackendGroup> groups;
    for (size_t i = 0; i < n; ++i) {
      if (!viable[i]) continue;
      const IndexBackend* backend = resolved[i].planned.backend.get();
      auto it = std::find_if(
          groups.begin(), groups.end(),
          [backend](const BackendGroup& g) { return g.backend == backend; });
      if (it == groups.end()) {
        groups.push_back(BackendGroup{backend, {}});
        it = std::prev(groups.end());
      }
      it->members.push_back(i);
    }

    for (const BackendGroup& bg : groups) {
      std::vector<RangeQuerySpec> specs;
      for (const size_t i : bg.members) {
        const ResolvedRangeQuery& rq = resolved[i];
        for (size_t q = 0; q < rq.count; ++q) {
          specs.push_back(RangeQuerySpec{
              rq.req.queries.data() + q * rq.req.dims, rq.eps});
        }
      }
      std::vector<std::vector<PointId>> results;
      std::vector<JoinStats> stats;
      std::vector<double> recalls;
      Status st;
      const uint64_t sweep_start_ns = obs::internal::TraceNowNanos();
      const uint64_t sweep_cpu_start = obs::ThreadCpuNanos();
      if (!specs.empty()) {
        st = bg.backend->RangeQueryBatch(specs.data(), specs.size(), &results,
                                         &stats, &recalls);
      }
      const uint64_t sweep_end_ns = obs::internal::TraceNowNanos();
      const uint64_t sweep_cpu = obs::ThreadCpuNanos() - sweep_cpu_start;
      size_t cursor = 0;
      for (const size_t i : bg.members) {
        if (!st.ok()) {
          // Cannot happen after per-request validation, but if the batch
          // engine ever rejects, every member reports the failure rather
          // than silently dropping.
          viable[i] = false;
          eobs[i].status = st;
          terminals[i].payload = EncodeErrorResponse(st);
          continue;
        }
        const ResolvedRangeQuery& rq = resolved[i];
        RangeQueryResponse resp;
        resp.results.reserve(rq.count);
        const size_t first = cursor;
        for (size_t q = 0; q < rq.count; ++q, ++cursor) {
          resp.results.push_back(std::move(results[cursor]));
          resp.stats.Merge(stats[cursor]);
        }
        FinalizePlannedResponse(rq, recalls, first, &resp);
        if (obs::RequestProfileCollector* col = eobs[i].collector.get()) {
          // The group sweep is one shared interval; every member's tree
          // carries it whole (the member really did wait for all of it).
          col->AddPhase("wait", eobs[i].root, eobs[i].resolve_end_ns,
                        sweep_start_ns - eobs[i].resolve_end_ns, 0);
          col->AddPhase("fused_sweep", eobs[i].root, sweep_start_ns,
                        sweep_end_ns - sweep_start_ns, sweep_cpu);
          col->AddCounter("fused_batch_requests", bg.members.size());
          col->AddCounter("query_points", rq.count);
          col->AddCounter("candidates", resp.stats.candidate_pairs);
          col->AddCounter("distance_calls", resp.stats.distance_calls);
          col->AddCounter("results", resp.stats.pairs_emitted);
          const uint64_t fin = obs::internal::TraceNowNanos();
          col->AddPhase("finalize", eobs[i].root, sweep_end_ns,
                        fin - sweep_end_ns, 0);
          col->EndPhase(eobs[i].root, fin, 0);
          eobs[i].closed = true;
          if (eobs[i].trace.profile()) {
            resp.has_profile = true;
            resp.profile = col->Finish(fin);
          }
        }
        terminals[i].type = FrameType::kRangeQueryResult;
        terminals[i].payload = EncodeRangeQueryResponse(resp);
      }
    }

    // Scatter, in admission order, with the same tail the solo path runs:
    // oversize replacement, slot release before the response is visible,
    // latency charged from admission (buffer wait included).  Io-thread
    // wakes are coalesced to one per io thread per batch.
    std::vector<bool> wake_io(io.size(), false);
    for (size_t i = 0; i < n; ++i) {
      Terminal& term = terminals[i];
      if (term.payload.size() > config.max_frame_payload) {
        term.type = FrameType::kError;
        term.payload = EncodeErrorResponse(Status::OutOfRange(
            "response payload of " + std::to_string(term.payload.size()) +
            " bytes exceeds the " + std::to_string(config.max_frame_payload) +
            "-byte frame limit; split the request into smaller batches"));
      }
      std::vector<uint8_t> bytes = EncodeFrame(
          term.type, entries[i].frame.header.request_id, 0, term.payload);
      inflight.fetch_sub(1, std::memory_order_acq_rel);
      metrics.inflight->Add(-1);
      const double wall_us = ElapsedUs(entries[i].admitted_at);
      metrics.latency_range_query->Record(wall_us);
      uint64_t end_ns = obs::internal::TraceNowNanos();
      if (eobs[i].collector != nullptr && !eobs[i].closed) {
        // Deadline-expired / unresolvable member: its tree never reached
        // the sweep, close the root here so the slow-log profile is whole.
        eobs[i].collector->EndPhase(eobs[i].root, end_ns, 0);
        eobs[i].closed = true;
      }
      RecordSlowQuery(eobs[i].trace, eobs[i].index,
                      entries[i].frame.header.request_id,
                      FrameType::kRangeQuery, eobs[i].status, wall_us,
                      eobs[i].collector.get(), end_ns);
      EnqueueFrameNoWake(entries[i].conn, std::move(bytes));
      wake_io[entries[i].conn->io_index] = true;
    }
    // pending drops only after every response of the batch is queued (the
    // shutdown drain invariant), then each touched io thread is woken once.
    pending.fetch_sub(n, std::memory_order_acq_rel);
    for (size_t idx = 0; idx < io.size(); ++idx) {
      if (wake_io[idx]) io[idx]->wake.Notify();
    }
  }

  /// Collector thread: parks admitted range queries until the batch fills
  /// or the oldest one's wait budget expires, then hands the batch to the
  /// worker pool.  While a batch executes, the next one accumulates — under
  /// load that is what grows batch sizes (and amortisation) automatically.
  void FusionLoop() {
    std::unique_lock<std::mutex> lock(fusion_mu);
    while (true) {
      fusion_cv.wait(lock, [&] {
        return !fusion_queue.empty() || stop.load(std::memory_order_relaxed);
      });
      if (fusion_queue.empty()) break;  // stop requested, fully drained
      const Clock::time_point flush_at =
          fusion_queue.front().admitted_at +
          std::chrono::microseconds(config.fusion_wait_us);
      fusion_cv.wait_until(lock, flush_at, [&] {
        return fusion_queue.size() >= config.fusion_max_batch ||
               stop.load(std::memory_order_relaxed);
      });
      // Budget spent but the workers are saturated with fused batches:
      // keep accumulating until one completes (the worker notifies), the
      // buffer fills, or stop.  One in-flight batch per worker thread keeps
      // multicore pools busy without queueing up undersized batches.
      const size_t max_outstanding = std::max<size_t>(
          1, config.worker_threads != 0
                 ? config.worker_threads
                 : std::thread::hardware_concurrency());
      fusion_cv.wait(lock, [&] {
        return fusion_queue.size() >= config.fusion_max_batch ||
               fusion_executing.load(std::memory_order_acquire) <
                   max_outstanding ||
               stop.load(std::memory_order_relaxed);
      });
      const bool full = fusion_queue.size() >= config.fusion_max_batch;
      const size_t take = std::min(fusion_queue.size(), config.fusion_max_batch);
      std::vector<FusionEntry> batch;
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(fusion_queue.front()));
        fusion_queue.pop_front();
      }
      lock.unlock();
      if (full) {
        fusion_batch_full.fetch_add(1, std::memory_order_relaxed);
        GetServiceMetrics().fusion_batch_full->Add();
      } else {
        fusion_wait_expired.fetch_add(1, std::memory_order_relaxed);
        GetServiceMetrics().fusion_wait_expired->Add();
      }
      fusion_executing.fetch_add(1, std::memory_order_acq_rel);
      group->Run([this, batch = std::move(batch)]() mutable {
        ExecuteFusedBatch(std::move(batch));
        fusion_executing.fetch_sub(1, std::memory_order_acq_rel);
        // Lock/unlock pairs with the collector's predicate so this wakeup
        // cannot be lost between its check and its wait.
        { std::lock_guard<std::mutex> relock(fusion_mu); }
        fusion_cv.notify_one();
      });
      lock.lock();
    }
    // Frames racing in after this point fall back to solo dispatch; setting
    // the flag under the lock makes "parked but never flushed" impossible.
    fusion_exited = true;
  }

  // -- frame routing (io threads) --------------------------------------------

  /// Decides what to do with one complete request frame: answer inline
  /// (ping/shutdown), reject (overload / stopping / wrong direction), or
  /// admit and dispatch to the worker pool.
  void HandleFrame(const std::shared_ptr<Conn>& conn, Frame frame) {
    const FrameHeader& h = frame.header;
    if (!IsRequestFrameType(h.type)) {
      ReplyError(conn, h.request_id,
                 Status::InvalidArgument("response-type frame sent to server"));
      conn->close_after_flush = true;
      return;
    }
    switch (h.type) {
      case FrameType::kPing:
        Reply(conn, FrameType::kPong, h.request_id, {});
        return;
      case FrameType::kShutdown:
        Reply(conn, FrameType::kShutdownOk, h.request_id, {});
        RequestStop();
        return;
      default:
        break;
    }
    if (stop.load(std::memory_order_relaxed)) {
      ReplyError(conn, h.request_id,
                 Status::Unavailable("server is shutting down"));
      return;
    }
    // Admission gate: bounded in-flight requests; beyond the bound the
    // client gets an immediate retry hint instead of a queue slot.
    if (inflight.fetch_add(1, std::memory_order_acq_rel) >=
        config.max_inflight) {
      inflight.fetch_sub(1, std::memory_order_acq_rel);
      requests_rejected.fetch_add(1, std::memory_order_relaxed);
      GetServiceMetrics().retry_after->Add();
      Reply(conn, FrameType::kRetryAfter, h.request_id,
            EncodeRetryAfterResponse(config.retry_after_ms));
      return;
    }
    requests_admitted.fetch_add(1, std::memory_order_relaxed);
    GetServiceMetrics().requests_admitted->Add();
    GetServiceMetrics().inflight->Add(1);
    pending.fetch_add(1, std::memory_order_acq_rel);
    const Clock::time_point admitted_at = Clock::now();
    if (config.fusion_enabled && h.type == FrameType::kRangeQuery) {
      bool parked = false;
      bool notify = false;
      {
        std::lock_guard<std::mutex> lock(fusion_mu);
        if (!fusion_exited) {
          fusion_queue.push_back(FusionEntry{conn, std::move(frame),
                                             admitted_at});
          parked = true;
          // The collector only sleeps on two edges: queue empty (waiting
          // for a first entry) and batch not yet full (waiting out the
          // budget).  Notifying on just those transitions spares a futex
          // wake per request in between.
          notify = fusion_queue.size() == 1 ||
                   fusion_queue.size() >= config.fusion_max_batch;
        }
      }
      if (parked) {
        if (notify) fusion_cv.notify_one();
        return;
      }
      // The collector already drained and exited (shutdown race): fall
      // through to solo dispatch so the admitted request is still answered.
    }
    group->Run([this, conn, frame = std::move(frame), admitted_at]() {
      ExecuteRequest(conn, frame, admitted_at);
      // pending drops strictly after the terminal response is queued, so
      // the drain-on-shutdown condition (pending == 0 and empty write
      // queues) can never exit with a response still unqueued.
      pending.fetch_sub(1, std::memory_order_acq_rel);
      io[conn->io_index]->wake.Notify();
    });
  }

  // -- io loop ----------------------------------------------------------------

  bool HasPendingWrites(const std::shared_ptr<Conn>& conn) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return !conn->write_queue.empty();
  }

  /// Drains as much of the write queue as the socket accepts.  On a hard
  /// socket error the connection is marked dead and its queue discarded —
  /// nothing can reach the peer any more, and a retained queue would wedge
  /// both DrainFinished and the shutdown drain (and any worker blocked on
  /// write backpressure).  Returns false on that error (caller closes).
  bool FlushWrites(const std::shared_ptr<Conn>& conn) {
    bool ok = true;
    bool freed = false;
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      while (!conn->write_queue.empty()) {
        const std::vector<uint8_t>& front = conn->write_queue.front();
        size_t sent = 0;
        const Status st = conn->sock.SendSome(
            front.data() + conn->write_offset,
            front.size() - conn->write_offset, &sent);
        if (!st.ok()) {
          conn->dead = true;
          conn->write_queue.clear();
          conn->write_offset = 0;
          conn->queued_bytes = 0;
          ok = false;
          freed = true;
          break;
        }
        if (sent == 0) break;  // kernel buffer full; wait for POLLOUT
        GetServiceMetrics().bytes_out->Add(sent);
        conn->write_offset += sent;
        if (conn->write_offset == front.size()) {
          conn->queued_bytes -= front.size();
          conn->write_queue.pop_front();
          conn->write_offset = 0;
          freed = true;
        }
      }
    }
    if (freed) conn->write_cv.notify_all();
    return ok;
  }

  /// Poisons a connection whose socket failed: further writes are dropped,
  /// queued bytes discarded, and any worker blocked on backpressure woken.
  void MarkDead(const std::shared_ptr<Conn>& conn) {
    {
      std::lock_guard<std::mutex> lock(conn->write_mu);
      conn->dead = true;
      conn->write_queue.clear();
      conn->write_offset = 0;
      conn->queued_bytes = 0;
    }
    conn->write_cv.notify_all();
  }

  bool IsDead(const std::shared_ptr<Conn>& conn) {
    std::lock_guard<std::mutex> lock(conn->write_mu);
    return conn->dead;
  }

  void CloseConn(const std::shared_ptr<Conn>& conn) {
    MarkDead(conn);
    conn->sock.Close();
    active_connections.fetch_sub(1, std::memory_order_relaxed);
  }

  void RequestStop() {
    stop.store(true, std::memory_order_seq_cst);
    // Lock/unlock pairs the store with the collector's predicate check, so
    // the wakeup below can never race into a lost notify.
    { std::lock_guard<std::mutex> lock(fusion_mu); }
    fusion_cv.notify_all();
    for (auto& t : io) t->wake.Notify();
  }

  /// Accepts every pending connection and hands each to an io thread
  /// round-robin.  Only io thread 0 calls this.
  void AcceptPending(std::vector<std::shared_ptr<Conn>>* own_conns) {
    while (true) {
      Result<TcpSocket> accepted = listener.Accept();
      if (!accepted.ok()) {
        SIMJOIN_LOG(Warning) << "accept: " << accepted.status().ToString();
        return;
      }
      if (!accepted->valid()) return;  // drained
      accepted_connections.fetch_add(1, std::memory_order_relaxed);
      active_connections.fetch_add(1, std::memory_order_relaxed);
      const size_t target =
          next_io.fetch_add(1, std::memory_order_relaxed) % io.size();
      auto conn = std::make_shared<Conn>(std::move(*accepted),
                                         config.max_frame_payload);
      conn->io_index = target;
      if (target == 0) {
        own_conns->push_back(std::move(conn));
      } else {
        {
          std::lock_guard<std::mutex> lock(io[target]->incoming_mu);
          io[target]->incoming.push_back(std::move(conn));
        }
        io[target]->wake.Notify();
      }
    }
  }

  /// Reads whatever the socket has, feeds the decoder, and routes complete
  /// frames.  Returns false when the connection should close (EOF, socket
  /// error, or a poisoned frame stream).
  bool DrainReadable(const std::shared_ptr<Conn>& conn) {
    if (conn->close_after_flush) return true;  // stream already poisoned
    uint8_t buf[64 << 10];
    bool keep_open = true;
    while (true) {
      size_t n = 0;
      bool eof = false;
      if (!conn->sock.RecvSome(buf, sizeof(buf), &n, &eof).ok()) {
        MarkDead(conn);  // hard error, not EOF: queued bytes are undeliverable
        return false;
      }
      if (n > 0) {
        conn->decoder.Append(buf, n);
        GetServiceMetrics().bytes_in->Add(n);
      }
      if (eof) keep_open = false;
      if (n == 0) break;
    }
    while (true) {
      Frame frame;
      bool got = false;
      const Status st = conn->decoder.Next(&frame, &got);
      if (!st.ok()) {
        // Corrupt stream: frame boundaries are gone, so report once and
        // hang up (flushing the error frame first).
        decode_errors.fetch_add(1, std::memory_order_relaxed);
        GetServiceMetrics().decode_errors->Add();
        ReplyError(conn, 0, st);
        conn->close_after_flush = true;
        return true;
      }
      if (!got) break;
      HandleFrame(conn, std::move(frame));
    }
    return keep_open;
  }

  void IoLoop(size_t index) {
    IoThread& self = *io[index];
    std::vector<std::shared_ptr<Conn>> conns;
    std::vector<pollfd> fds;
    bool listener_open = index == 0;
    while (true) {
      {
        std::lock_guard<std::mutex> lock(self.incoming_mu);
        for (auto& c : self.incoming) conns.push_back(std::move(c));
        self.incoming.clear();
      }
      const bool stopping = stop.load(std::memory_order_seq_cst);
      if (listener_open && stopping) {
        listener.Close();
        listener_open = false;
      }

      fds.clear();
      fds.push_back(pollfd{self.wake.read_fd(), POLLIN, 0});
      if (listener_open) fds.push_back(pollfd{listener.fd(), POLLIN, 0});
      const size_t first_conn = fds.size();
      for (const auto& conn : conns) {
        short events = POLLIN;
        if (HasPendingWrites(conn)) events |= POLLOUT;
        fds.push_back(pollfd{conn->sock.fd(), events, 0});
      }

      ::poll(fds.data(), fds.size(), 25);
      self.wake.Drain();
      if (listener_open && (fds[1].revents & POLLIN) != 0) {
        AcceptPending(&conns);
      }

      for (size_t i = 0; i < conns.size();) {
        const std::shared_ptr<Conn>& conn = conns[i];
        const short revents =
            first_conn + i < fds.size() ? fds[first_conn + i].revents : 0;
        bool keep = true;
        if ((revents & (POLLERR | POLLNVAL)) != 0) {
          MarkDead(conn);
          keep = false;
        }
        if (keep && (revents & (POLLIN | POLLHUP)) != 0) {
          keep = DrainReadable(conn);
        }
        if (!FlushWrites(conn)) keep = false;
        // A stalled stream reader is killed by EnqueueStreamFrame (dead set
        // from a worker thread); notice it here so the conn gets closed.
        if (keep && IsDead(conn)) keep = false;
        if (keep && conn->close_after_flush && !HasPendingWrites(conn)) {
          keep = false;
        }
        // A peer that half-closed (EOF) still gets its queued responses.
        if (!keep && DrainFinished(conn)) {
          CloseConn(conn);
          conns.erase(conns.begin() + static_cast<ptrdiff_t>(i));
          // fds indexes are stale for the rest of this sweep; the next
          // loop iteration rebuilds them.  Treat remaining conns as
          // event-free this round.
          fds.resize(first_conn);
          continue;
        }
        if (!keep) conn->close_after_flush = true;
        ++i;
      }

      if (stopping && pending.load(std::memory_order_seq_cst) == 0) {
        bool all_flushed = true;
        for (const auto& conn : conns) {
          if (HasPendingWrites(conn)) {
            all_flushed = false;
            break;
          }
        }
        if (all_flushed) break;
      }
    }
    for (const auto& conn : conns) CloseConn(conn);
    conns.clear();
  }

  /// True when it is safe to drop the connection: nothing queued.  Error
  /// paths (FlushWrites/DrainReadable failures, POLLERR, stream stalls)
  /// clear the queue when they set the dead flag, so a failed socket never
  /// lingers with undeliverable bytes.
  bool DrainFinished(const std::shared_ptr<Conn>& conn) {
    return !HasPendingWrites(conn);
  }
};

Server::Server() = default;

Server::~Server() {
  Shutdown();
  Wait();
}

Result<std::unique_ptr<Server>> Server::Start(const ServerConfig& config) {
  std::unique_ptr<Server> server(new Server());
  server->impl_ = std::make_unique<Impl>(config);
  Impl& impl = *server->impl_;
  if (impl.config.io_threads == 0) impl.config.io_threads = 1;
  SIMJOIN_RETURN_NOT_OK(
      impl.listener.Listen(impl.config.host, impl.config.port));
  impl.pool = &ThreadPool::Shared(impl.config.worker_threads);
  impl.group = std::make_unique<TaskGroup>(impl.pool);
  for (size_t i = 0; i < impl.config.io_threads; ++i) {
    auto t = std::make_unique<Impl::IoThread>();
    SIMJOIN_RETURN_NOT_OK(t->wake.Open());
    impl.io.push_back(std::move(t));
  }
  for (size_t i = 0; i < impl.io.size(); ++i) {
    impl.io[i]->thread = std::thread([&impl, i]() { impl.IoLoop(i); });
  }
  if (impl.config.fusion_enabled) {
    if (impl.config.fusion_max_batch == 0) impl.config.fusion_max_batch = 1;
    impl.fusion_thread = std::thread([&impl]() { impl.FusionLoop(); });
  }
  return server;
}

uint16_t Server::port() const { return impl_->listener.port(); }

void Server::Shutdown() {
  if (impl_ != nullptr) impl_->RequestStop();
}

void Server::Wait() {
  if (impl_ == nullptr) return;
  std::lock_guard<std::mutex> lock(impl_->join_mu);
  if (impl_->joined) return;
  for (auto& t : impl_->io) {
    if (t->thread.joinable()) t->thread.join();
  }
  if (impl_->fusion_thread.joinable()) impl_->fusion_thread.join();
  // Io threads only exit once inflight hit zero, so this returns promptly.
  // group is null when Start() failed before creating it (e.g. the bind
  // failed) and its partially built Server is being destroyed.
  if (impl_->group != nullptr) impl_->group->Wait();
  impl_->listener.Close();
  impl_->joined = true;
}

ServerCounters Server::counters() const {
  const Impl& impl = *impl_;
  ServerCounters c;
  c.accepted_connections =
      impl.accepted_connections.load(std::memory_order_relaxed);
  c.active_connections =
      impl.active_connections.load(std::memory_order_relaxed);
  c.requests_admitted =
      impl.requests_admitted.load(std::memory_order_relaxed);
  c.requests_rejected =
      impl.requests_rejected.load(std::memory_order_relaxed);
  c.deadline_expired = impl.deadline_expired.load(std::memory_order_relaxed);
  c.decode_errors = impl.decode_errors.load(std::memory_order_relaxed);
  c.pairs_streamed = impl.pairs_streamed.load(std::memory_order_relaxed);
  c.write_stall_disconnects =
      impl.write_stall_disconnects.load(std::memory_order_relaxed);
  c.fusion_batches = impl.fusion_batches.load(std::memory_order_relaxed);
  c.fusion_fused_queries =
      impl.fusion_fused_queries.load(std::memory_order_relaxed);
  c.fusion_batch_full =
      impl.fusion_batch_full.load(std::memory_order_relaxed);
  c.fusion_wait_expired =
      impl.fusion_wait_expired.load(std::memory_order_relaxed);
  return c;
}

IndexRegistry& Server::registry() { return impl_->registry; }

}  // namespace simjoin
