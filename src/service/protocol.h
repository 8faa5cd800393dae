// Wire protocol of the similarity-join query service.
//
// Every message is one length-prefixed frame: a fixed 24-byte header
// (magic, version, type, payload size, deadline, request id) followed by a
// type-specific little-endian payload.  The codec is defensive by design —
// it is the part of the server that touches attacker-controlled bytes — so
// every read goes through the bounds-checked WireReader cursor and every
// malformed input returns a Status; no parser CHECKs, throws, or over-reads
// (tools/fuzz_protocol.cpp soaks exactly this property).  The one CHECK in
// this file sits on the *encode* side: EncodeFrame refuses to truncate a
// payload past the u32 size field, which only local logic bugs can reach
// (the server caps response payloads at max_frame_payload first).
//
//   frame  := header payload
//   header := magic:u32 version:u8 type:u8 reserved:u16
//             payload_size:u32 deadline_ms:u32 request_id:u64
//
// Integers are little-endian; f32/f64 are IEEE-754 bit patterns carried as
// u32/u64.  Requests stream client -> server; a request is answered by
// exactly one terminal response frame with the same request_id, optionally
// preceded by zero or more kJoinChunk frames (SimilarityJoin streams its
// result pairs).
//
//   payload := fixed_body tag*
//   tag     := tag:u8 len:u32 value[len]
//
// Every payload is a fixed, type-specific body followed by a list of tagged
// entries that runs to the end of the payload.  Tags carry the optional,
// cross-cutting data (WireTag); one shared walker parses them for every
// message: it skips tags the message does not know and rejects duplicates,
// wrong lengths, and lengths past the payload end.  See docs/service.md for
// the full layout of every payload.

#ifndef SIMJOIN_SERVICE_PROTOCOL_H_
#define SIMJOIN_SERVICE_PROTOCOL_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/pair_sink.h"
#include "common/status.h"
#include "core/ekdb_config.h"
#include "core/epsilon_grid.h"
#include "core/index_backend.h"
#include "obs/metrics.h"
#include "obs/request_context.h"
#include "obs/slow_query_log.h"

namespace simjoin {

/// First four bytes of every frame: "SJWP" (simjoin wire protocol).
inline constexpr uint32_t kWireMagic = 0x53'4a'57'50;
/// Protocol revision; bumped on any incompatible layout change.  Frames of
/// any other version are rejected at the header.
inline constexpr uint8_t kWireVersion = 2;
/// Bytes of the fixed frame header.
inline constexpr size_t kFrameHeaderSize = 24;
/// Default ceiling on one frame's payload (guards the decoder against
/// hostile length fields; BuildIndex of 100k x 16 floats is ~6.4 MB).
inline constexpr uint32_t kDefaultMaxFramePayload = 256u << 20;

/// Frame type tags.  Requests are < 64, responses >= 64, so each side can
/// reject frames from the wrong direction outright.
enum class FrameType : uint8_t {
  // Requests (client -> server).
  kBuildIndex = 1,      ///< upload points, build + register a named index
  kRangeQuery = 2,      ///< batched eps-range queries against one index
  kSimilarityJoin = 3,  ///< self- or cross-join, result pairs streamed
  kStats = 4,           ///< server + registry counters
  kShutdown = 5,        ///< orderly server stop
  kDropIndex = 6,       ///< evict one named index
  kPing = 7,            ///< liveness probe
  kInsert = 8,          ///< append points to an updatable index's delta tier
  kRemove = 9,          ///< tombstone points in an updatable index
  kFlush = 10,          ///< force a synchronous compaction of the delta tier

  // Responses (server -> client).
  kBuildIndexOk = 64,
  kRangeQueryResult = 65,
  kJoinChunk = 66,  ///< non-terminal: one run of result pairs
  kJoinDone = 67,   ///< terminal: pair total + JoinStats
  kStatsResult = 68,
  kShutdownOk = 69,
  kDropIndexOk = 70,
  kPong = 71,
  kInsertOk = 72,
  kRemoveOk = 73,
  kFlushOk = 74,
  kError = 126,      ///< terminal failure: wire StatusCode + message
  kRetryAfter = 127, ///< admission queue full; retry after the given delay
};

/// True for tags a conforming peer may put on the wire.
bool IsKnownFrameType(uint8_t tag);
/// True for request tags (client -> server direction).
bool IsRequestFrameType(FrameType type);

/// Decoded fixed header of one frame.
struct FrameHeader {
  FrameType type = FrameType::kPing;
  uint32_t payload_size = 0;
  uint32_t deadline_ms = 0;  ///< 0 = no deadline
  uint64_t request_id = 0;
};

/// One complete frame.
struct Frame {
  FrameHeader header;
  std::vector<uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Primitive codec
// ---------------------------------------------------------------------------

/// Append-only little-endian serialiser.
class WireWriter {
 public:
  void U8(uint8_t v) { buf_.push_back(v); }
  void U16(uint16_t v);
  void U32(uint32_t v);
  void U64(uint64_t v);
  void F32(float v);
  void F64(double v);
  void Bytes(const void* data, size_t len);
  /// u32 length prefix + raw bytes.
  void String(const std::string& s);
  /// Raw float array, no length prefix (callers encode counts themselves).
  void FloatArray(std::span<const float> values);
  /// Opens one tag entry: writes the tag and a length placeholder, and
  /// returns the mark EndTag needs to patch the length once the value is
  /// written.
  size_t BeginTag(uint8_t tag);
  void EndTag(size_t mark);

  const std::vector<uint8_t>& buffer() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  std::vector<uint8_t> buf_;
};

/// Bounds-checked little-endian cursor over one payload.  Every accessor
/// fails with OutOfRange instead of reading past the end.
class WireReader {
 public:
  explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

  Status U8(uint8_t* v);
  Status U16(uint16_t* v);
  Status U32(uint32_t* v);
  Status U64(uint64_t* v);
  Status F32(float* v);
  Status F64(double* v);
  /// u32 length prefix + bytes; lengths above max_len are rejected.
  Status String(std::string* s, uint32_t max_len = 4096);
  /// Reads exactly count floats.
  Status FloatArray(size_t count, std::vector<float>* out);
  /// Returns the next len bytes as a view into the payload.
  Status Bytes(size_t len, std::span<const uint8_t>* out);

  size_t remaining() const { return data_.size() - pos_; }
  /// Fails unless the cursor consumed the payload exactly — trailing bytes
  /// in a parsed message are a framing bug, not padding.
  Status ExpectEnd() const;

 private:
  Status Need(size_t n) const;

  std::span<const uint8_t> data_;
  size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Serialises one complete frame (header + payload) ready to send.
std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t request_id,
                                 uint32_t deadline_ms,
                                 std::span<const uint8_t> payload);

/// Parses and validates one fixed header from exactly kFrameHeaderSize
/// bytes (magic, version, known type, payload bound).
Status DecodeFrameHeader(std::span<const uint8_t> bytes, uint32_t max_payload,
                         FrameHeader* out);

/// Incremental frame extractor over a byte stream.  Feed arbitrary chunks
/// with Append, then call Next until it reports "no complete frame yet".
/// Any error is sticky: the stream is corrupt and the connection should be
/// closed (frame boundaries can no longer be trusted).
class FrameDecoder {
 public:
  explicit FrameDecoder(uint32_t max_payload = kDefaultMaxFramePayload)
      : max_payload_(max_payload) {}

  void Append(const uint8_t* data, size_t len);

  /// Extracts the next complete frame into *out.  *got is false when more
  /// bytes are needed.  Returns the sticky decode error, if any.
  Status Next(Frame* out, bool* got);

  /// Bytes buffered but not yet consumed by complete frames.
  size_t buffered_bytes() const { return buf_.size() - consumed_; }

 private:
  uint32_t max_payload_;
  std::vector<uint8_t> buf_;
  size_t consumed_ = 0;  // prefix of buf_ already handed out as frames
  Status error_;
};

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

/// Longest accepted index name.
inline constexpr uint32_t kMaxIndexNameLen = 256;

// ---------------------------------------------------------------------------
// Tags
// ---------------------------------------------------------------------------

/// Tags of the optional entries after a fixed body.  The numbers are shared
/// by all messages; a message skips tags it does not carry.  Append only.
enum class WireTag : uint8_t {
  /// Requests that take a trace (BuildIndex, RangeQuery, SimilarityJoin,
  /// Insert, Remove, Flush): trace_id:u64 flags:u8.
  kTrace = 1,
  /// RangeQuery: recall:f64 backend:u8.  RangeQueryResult, echoed only when
  /// the request carried it: achieved_recall:f64 backend_used:u8
  /// cache_hit:u8.
  kPlanner = 2,
  /// RangeQueryResult: the RequestProfile body (EXPLAIN ANALYZE).
  kProfile = 3,
  /// StatsResult: count:u32 SlowQueryEntry[count] recorded:u64
  /// evicted:u64.
  kSlowlog = 4,
};

/// flags bit 0: request an EXPLAIN ANALYZE profile in the response.
inline constexpr uint8_t kTraceFlagProfile = 0x01;

/// Optional per-request trace context (docs/observability.md), carried as
/// the kTrace tag.  The client attaches a generated context to every
/// request that does not already carry one, so server logs and traces can
/// always name the request they belong to.
struct TraceContext {
  bool present = false;
  uint64_t trace_id = 0;
  uint8_t flags = 0;

  bool profile() const { return (flags & kTraceFlagProfile) != 0; }

  bool operator==(const TraceContext&) const = default;
};

/// Process-unique nonzero trace id (random base + counter).
uint64_t GenerateTraceId();

/// Appends a kTrace entry to an already encoded request payload (no-op when
/// ctx.present is false).  Tags are always the tail of a payload, so the
/// client stamps requests without re-encoding them.
void AppendTraceContext(const TraceContext& ctx, std::vector<uint8_t>* payload);

struct BuildIndexRequest {
  std::string name;
  EkdbConfig config;
  uint32_t num_threads = 1;  ///< build parallelism; 0 = server default
  uint32_t dims = 0;
  std::vector<float> points;  ///< row-major, points.size() == n * dims
  /// Index structure to build.  Only buildable kinds (tree, grid,
  /// updatable) are valid; the server rejects the rest.
  BackendKind backend = BackendKind::kEkdbFlat;
  /// Build the index *externally* (sort runs + merge on disk, core/
  /// segment_builder.h) and serve it memory-mapped instead of heap-built —
  /// for datasets larger than the registry budget.  Requires the tree
  /// backend and a server started with a spill dir.
  bool on_disk = false;
  TraceContext trace;
};

struct BuildIndexResponse {
  uint32_t num_points = 0;
  uint32_t dims = 0;
  uint64_t index_bytes = 0;   ///< dataset + flat tree footprint
  uint64_t registry_bytes = 0;
  uint32_t evicted = 0;       ///< LRU entries evicted to admit this index
  double build_seconds = 0.0;
};

struct RangeQueryRequest {
  std::string name;
  double epsilon = 0.0;  ///< 0 = the index's build epsilon
  uint32_t dims = 0;
  std::vector<float> queries;  ///< row-major, queries.size() == count * dims
  /// True when the kPlanner tag carries recall and backend.  Every request
  /// is planned; without the tag it is planned at recall 1 with the backend
  /// on auto, and the response carries no planner echo.
  bool has_planner = false;
  /// Recall target in (0, 1].  1 = exact answer (planner may still switch
  /// among exact backends); < 1 admits the LSH tier.
  double recall = 1.0;
  /// BackendKind wire byte forcing one backend, or kWireBackendAuto to let
  /// the cost-based planner choose.
  uint8_t backend = kWireBackendAuto;
  /// The profile flag asks for the kProfile tag in the response.
  TraceContext trace;
};

struct RangeQueryResponse {
  /// results[i] = ids within epsilon of query i, in ascending id order —
  /// the one answer order, so the bytes do not depend on which exact
  /// backend the planner routed to.
  std::vector<std::vector<PointId>> results;
  JoinStats stats;  ///< summed over the batch
  /// True when the kPlanner echo is present (only when the request carried
  /// the kPlanner tag).
  bool has_planner = false;
  /// Estimated recall achieved over the batch (1.0 on exact routes).
  double achieved_recall = 1.0;
  /// BackendKind wire byte of the backend that served the batch.
  uint8_t backend_used = 0;
  bool plan_cache_hit = false;
  /// True when the kProfile tag carries the request's phase tree (only when
  /// the request set the profile flag in its trace context).
  bool has_profile = false;
  obs::RequestProfile profile;
};

struct SimilarityJoinRequest {
  std::string name_a;
  std::string name_b;        ///< empty = self-join of name_a
  double epsilon = 0.0;      ///< 0 = build epsilon
  uint32_t num_threads = 1;  ///< join parallelism; 0 = server default
  uint32_t chunk_pairs = 0;  ///< pairs per kJoinChunk frame; 0 = server default
  TraceContext trace;
};

struct JoinChunk {
  std::vector<IdPair> pairs;
};

struct JoinDone {
  uint64_t total_pairs = 0;
  JoinStats stats;
};

// Live-update messages (docs/updates.md).  All three target an index built
// with the updatable backend; the server answers updates against any other
// backend (or an unknown name) with kError, never by mutating a snapshot.

struct InsertRequest {
  std::string name;
  uint32_t dims = 0;
  std::vector<float> rows;  ///< row-major, rows.size() == count * dims
  TraceContext trace;
};

struct InsertResponse {
  PointId first_id = 0;      ///< ids assigned are [first_id, first_id+count)
  uint32_t count = 0;
  uint64_t delta_points = 0;  ///< delta-tier size after the insert
  uint64_t tombstones = 0;
};

struct RemoveRequest {
  std::string name;
  std::vector<PointId> ids;
  TraceContext trace;
};

struct RemoveResponse {
  uint32_t removed = 0;  ///< ids that were live and are now tombstoned
  uint32_t missing = 0;  ///< ids unknown or already removed (not an error)
  uint64_t delta_points = 0;
  uint64_t tombstones = 0;
};

struct FlushRequest {
  std::string name;
  TraceContext trace;
};

struct FlushResponse {
  bool compacted = false;  ///< false when there was nothing to fold in
  uint64_t base_points = 0;
  uint64_t delta_points = 0;  ///< 0 unless concurrent inserts raced the flush
  uint64_t tombstones = 0;
  uint64_t index_bytes = 0;
};

struct DropIndexRequest {
  std::string name;
};

struct DropIndexResponse {
  bool found = false;
};

/// One registry entry in a stats response.
struct IndexInfo {
  std::string name;
  uint32_t num_points = 0;
  uint32_t dims = 0;
  uint64_t bytes = 0;
  uint64_t hits = 0;
  double epsilon = 0.0;
  Metric metric = Metric::kL2;
};

/// kStats payload: one flags byte.
struct StatsRequest {
  /// Drain the server's slow-query ring into the response (entries are
  /// removed server-side — repeated drains return only new entries).
  bool drain_slowlog = false;
};

struct StatsResponse {
  uint64_t accepted_connections = 0;
  uint64_t active_connections = 0;
  uint64_t requests_admitted = 0;
  uint64_t requests_rejected = 0;   ///< backpressure (kRetryAfter) rejections
  uint64_t deadline_expired = 0;
  uint64_t decode_errors = 0;
  uint64_t pairs_streamed = 0;
  uint64_t registry_byte_budget = 0;
  uint64_t registry_bytes = 0;
  uint64_t registry_evictions = 0;
  std::vector<IndexInfo> indexes;
  /// Full metrics-registry snapshot.
  obs::MetricsSnapshot metrics;
  /// True when the kSlowlog tag is present (only when the request asked
  /// for a slow-query drain).
  bool has_slowlog = false;
  std::vector<obs::SlowQueryEntry> slowlog;
  uint64_t slowlog_recorded = 0;  ///< entries ever recorded server-side
  uint64_t slowlog_evicted = 0;   ///< entries lost to the ring bound
};

struct ErrorResponse {
  StatusCode code = StatusCode::kInternal;
  std::string message;
};

struct RetryAfterResponse {
  uint32_t retry_after_ms = 0;
};

// Payload encoders (frame body only; wrap with EncodeFrame) and parsers.
// Parsers validate structure — string bounds, float-count consistency, the
// tag list up to the payload end — but not semantics (unknown index names
// etc. are the server's job).
std::vector<uint8_t> EncodeBuildIndexRequest(const BuildIndexRequest& req);
Status ParseBuildIndexRequest(std::span<const uint8_t> payload,
                              BuildIndexRequest* out);

std::vector<uint8_t> EncodeBuildIndexResponse(const BuildIndexResponse& resp);
Status ParseBuildIndexResponse(std::span<const uint8_t> payload,
                               BuildIndexResponse* out);

std::vector<uint8_t> EncodeRangeQueryRequest(const RangeQueryRequest& req);
Status ParseRangeQueryRequest(std::span<const uint8_t> payload,
                              RangeQueryRequest* out);

std::vector<uint8_t> EncodeRangeQueryResponse(const RangeQueryResponse& resp);
Status ParseRangeQueryResponse(std::span<const uint8_t> payload,
                               RangeQueryResponse* out);

std::vector<uint8_t> EncodeSimilarityJoinRequest(
    const SimilarityJoinRequest& req);
Status ParseSimilarityJoinRequest(std::span<const uint8_t> payload,
                                  SimilarityJoinRequest* out);

std::vector<uint8_t> EncodeJoinChunk(std::span<const IdPair> pairs);
Status ParseJoinChunk(std::span<const uint8_t> payload, JoinChunk* out);

std::vector<uint8_t> EncodeJoinDone(const JoinDone& done);
Status ParseJoinDone(std::span<const uint8_t> payload, JoinDone* out);

std::vector<uint8_t> EncodeInsertRequest(const InsertRequest& req);
Status ParseInsertRequest(std::span<const uint8_t> payload,
                          InsertRequest* out);

std::vector<uint8_t> EncodeInsertResponse(const InsertResponse& resp);
Status ParseInsertResponse(std::span<const uint8_t> payload,
                           InsertResponse* out);

std::vector<uint8_t> EncodeRemoveRequest(const RemoveRequest& req);
Status ParseRemoveRequest(std::span<const uint8_t> payload,
                          RemoveRequest* out);

std::vector<uint8_t> EncodeRemoveResponse(const RemoveResponse& resp);
Status ParseRemoveResponse(std::span<const uint8_t> payload,
                           RemoveResponse* out);

std::vector<uint8_t> EncodeFlushRequest(const FlushRequest& req);
Status ParseFlushRequest(std::span<const uint8_t> payload, FlushRequest* out);

std::vector<uint8_t> EncodeFlushResponse(const FlushResponse& resp);
Status ParseFlushResponse(std::span<const uint8_t> payload,
                          FlushResponse* out);

std::vector<uint8_t> EncodeDropIndexRequest(const DropIndexRequest& req);
Status ParseDropIndexRequest(std::span<const uint8_t> payload,
                             DropIndexRequest* out);

std::vector<uint8_t> EncodeDropIndexResponse(const DropIndexResponse& resp);
Status ParseDropIndexResponse(std::span<const uint8_t> payload,
                              DropIndexResponse* out);

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& req);
Status ParseStatsRequest(std::span<const uint8_t> payload, StatsRequest* out);

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp);
Status ParseStatsResponse(std::span<const uint8_t> payload,
                          StatsResponse* out);

std::vector<uint8_t> EncodeErrorResponse(const Status& status);
/// Reconstructs the Status an ErrorResponse carries.
Status ParseErrorResponse(std::span<const uint8_t> payload, Status* out);

std::vector<uint8_t> EncodeRetryAfterResponse(uint32_t retry_after_ms);
Status ParseRetryAfterResponse(std::span<const uint8_t> payload,
                               RetryAfterResponse* out);

/// JoinStats as 7 u64 fields (shared by several responses).
void EncodeJoinStats(const JoinStats& stats, WireWriter* w);
Status ParseJoinStats(WireReader* r, JoinStats* out);

// Defensive bounds for the Stats metrics block (hostile peers can claim
// arbitrary counts; parsers reject anything beyond these before allocating).
inline constexpr uint32_t kMaxMetricNameLen = 256;
inline constexpr uint32_t kMaxMetricsPerKind = 4096;
inline constexpr uint32_t kMaxHistogramBoundaries = 512;

/// Metrics snapshot as the Stats block (also usable standalone; the parser
/// enforces the kMaxMetric* bounds above).
void EncodeMetricsSnapshot(const obs::MetricsSnapshot& snapshot,
                           WireWriter* w);
Status ParseMetricsSnapshot(WireReader* r, obs::MetricsSnapshot* out);

// ---------------------------------------------------------------------------
// EXPLAIN ANALYZE profile block
// ---------------------------------------------------------------------------

/// Longest accepted phase/counter name and plan string on the parse side.
inline constexpr uint32_t kMaxProfileNameLen = 256;
inline constexpr uint32_t kMaxProfilePlanLen = 1024;

/// RequestProfile body (trace id, plan, node tree, counters).  The parser
/// enforces obs::kMaxProfileNodes / kMaxProfileCounters and the name
/// bounds above before allocating.
void EncodeRequestProfile(const obs::RequestProfile& profile, WireWriter* w);
Status ParseRequestProfile(WireReader* r, obs::RequestProfile* out);

/// One slow-query entry of the kSlowlog tag.
void EncodeSlowQueryEntry(const obs::SlowQueryEntry& entry, WireWriter* w);
Status ParseSlowQueryEntry(WireReader* r, obs::SlowQueryEntry* out);

}  // namespace simjoin

#endif  // SIMJOIN_SERVICE_PROTOCOL_H_
