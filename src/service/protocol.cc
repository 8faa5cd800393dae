#include "service/protocol.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <optional>
#include <random>

#include "common/logging.h"

namespace simjoin {
namespace {

// Hard caps on repeated elements, under the per-frame payload cap, so a
// hostile count field cannot trigger a huge allocation before the byte
// bounds check catches it: every cap is checked against remaining() first.

constexpr uint32_t kWireDimOrderMax = 4096;

uint64_t ToBits(double v) { return std::bit_cast<uint64_t>(v); }
double FromBits(uint64_t v) { return std::bit_cast<double>(v); }

Status ParseMetricTag(uint8_t tag, Metric* out) {
  switch (tag) {
    case static_cast<uint8_t>(Metric::kL1):
      *out = Metric::kL1;
      return Status::OK();
    case static_cast<uint8_t>(Metric::kL2):
      *out = Metric::kL2;
      return Status::OK();
    case static_cast<uint8_t>(Metric::kLinf):
      *out = Metric::kLinf;
      return Status::OK();
    default:
      return Status::InvalidArgument("unknown metric tag " +
                                     std::to_string(tag));
  }
}

Status ParseStatusCodeTag(uint16_t tag, StatusCode* out) {
  if (tag > static_cast<uint16_t>(StatusCode::kDeadlineExceeded) ||
      tag == static_cast<uint16_t>(StatusCode::kOk)) {
    // Unknown or nonsensical (an error frame carrying OK) collapses to
    // kInternal rather than being rejected: the message text survives.
    *out = StatusCode::kInternal;
    return Status::OK();
  }
  *out = static_cast<StatusCode>(tag);
  return Status::OK();
}

}  // namespace

bool IsKnownFrameType(uint8_t tag) {
  switch (static_cast<FrameType>(tag)) {
    case FrameType::kBuildIndex:
    case FrameType::kRangeQuery:
    case FrameType::kSimilarityJoin:
    case FrameType::kStats:
    case FrameType::kShutdown:
    case FrameType::kDropIndex:
    case FrameType::kPing:
    case FrameType::kInsert:
    case FrameType::kRemove:
    case FrameType::kFlush:
    case FrameType::kBuildIndexOk:
    case FrameType::kRangeQueryResult:
    case FrameType::kJoinChunk:
    case FrameType::kJoinDone:
    case FrameType::kStatsResult:
    case FrameType::kShutdownOk:
    case FrameType::kDropIndexOk:
    case FrameType::kPong:
    case FrameType::kInsertOk:
    case FrameType::kRemoveOk:
    case FrameType::kFlushOk:
    case FrameType::kError:
    case FrameType::kRetryAfter:
      return true;
  }
  return false;
}

bool IsRequestFrameType(FrameType type) {
  return static_cast<uint8_t>(type) < 64;
}

// --------------------------------------------------------------------------
// WireWriter
// --------------------------------------------------------------------------

void WireWriter::U16(uint16_t v) {
  buf_.push_back(static_cast<uint8_t>(v));
  buf_.push_back(static_cast<uint8_t>(v >> 8));
}

void WireWriter::U32(uint32_t v) {
  for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::U64(uint64_t v) {
  for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<uint8_t>(v >> (8 * i)));
}

void WireWriter::F32(float v) { U32(std::bit_cast<uint32_t>(v)); }

void WireWriter::F64(double v) { U64(ToBits(v)); }

void WireWriter::Bytes(const void* data, size_t len) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  buf_.insert(buf_.end(), p, p + len);
}

void WireWriter::String(const std::string& s) {
  U32(static_cast<uint32_t>(s.size()));
  Bytes(s.data(), s.size());
}

void WireWriter::FloatArray(std::span<const float> values) {
  // Floats go on the wire as little-endian u32 bit patterns; on LE hosts
  // this is a straight memcpy.
  if (values.empty()) return;  // empty span's data() may be null
  const size_t start = buf_.size();
  buf_.resize(start + values.size() * 4);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(buf_.data() + start, values.data(), values.size() * 4);
  } else {
    uint8_t* out = buf_.data() + start;
    for (const float v : values) {
      const uint32_t bits = std::bit_cast<uint32_t>(v);
      for (int i = 0; i < 4; ++i) *out++ = static_cast<uint8_t>(bits >> (8 * i));
    }
  }
}

size_t WireWriter::BeginTag(uint8_t tag) {
  U8(tag);
  const size_t mark = buf_.size();
  U32(0);  // patched by EndTag
  return mark;
}

void WireWriter::EndTag(size_t mark) {
  // A value past u32 would also overflow the frame's payload size field,
  // which EncodeFrame CHECKs.
  const size_t len = buf_.size() - mark - 4;
  for (int i = 0; i < 4; ++i) {
    buf_[mark + i] = static_cast<uint8_t>(len >> (8 * i));
  }
}

// --------------------------------------------------------------------------
// WireReader
// --------------------------------------------------------------------------

Status WireReader::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::OutOfRange("payload truncated: need " + std::to_string(n) +
                              " bytes, have " +
                              std::to_string(data_.size() - pos_));
  }
  return Status::OK();
}

Status WireReader::U8(uint8_t* v) {
  SIMJOIN_RETURN_NOT_OK(Need(1));
  *v = data_[pos_++];
  return Status::OK();
}

Status WireReader::U16(uint16_t* v) {
  SIMJOIN_RETURN_NOT_OK(Need(2));
  *v = static_cast<uint16_t>(data_[pos_] | (data_[pos_ + 1] << 8));
  pos_ += 2;
  return Status::OK();
}

Status WireReader::U32(uint32_t* v) {
  SIMJOIN_RETURN_NOT_OK(Need(4));
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= static_cast<uint32_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 4;
  *v = out;
  return Status::OK();
}

Status WireReader::U64(uint64_t* v) {
  SIMJOIN_RETURN_NOT_OK(Need(8));
  uint64_t out = 0;
  for (int i = 0; i < 8; ++i) out |= static_cast<uint64_t>(data_[pos_ + i]) << (8 * i);
  pos_ += 8;
  *v = out;
  return Status::OK();
}

Status WireReader::F32(float* v) {
  uint32_t bits = 0;
  SIMJOIN_RETURN_NOT_OK(U32(&bits));
  *v = std::bit_cast<float>(bits);
  return Status::OK();
}

Status WireReader::F64(double* v) {
  uint64_t bits = 0;
  SIMJOIN_RETURN_NOT_OK(U64(&bits));
  *v = FromBits(bits);
  return Status::OK();
}

Status WireReader::String(std::string* s, uint32_t max_len) {
  uint32_t len = 0;
  SIMJOIN_RETURN_NOT_OK(U32(&len));
  if (len > max_len) {
    return Status::OutOfRange("string length " + std::to_string(len) +
                              " exceeds limit " + std::to_string(max_len));
  }
  SIMJOIN_RETURN_NOT_OK(Need(len));
  s->assign(reinterpret_cast<const char*>(data_.data() + pos_), len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::FloatArray(size_t count, std::vector<float>* out) {
  // Divide instead of multiplying so a hostile count cannot wrap the
  // byte-size computation.
  if (count > (data_.size() - pos_) / 4) {
    return Status::OutOfRange("float array of " + std::to_string(count) +
                              " elements exceeds payload");
  }
  out->resize(count);
  if (count == 0) return Status::OK();  // out->data() may be null when empty
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out->data(), data_.data() + pos_, count * 4);
  } else {
    for (size_t i = 0; i < count; ++i) {
      uint32_t bits = 0;
      for (int b = 0; b < 4; ++b) {
        bits |= static_cast<uint32_t>(data_[pos_ + i * 4 + b]) << (8 * b);
      }
      (*out)[i] = std::bit_cast<float>(bits);
    }
  }
  pos_ += count * 4;
  return Status::OK();
}

Status WireReader::Bytes(size_t len, std::span<const uint8_t>* out) {
  SIMJOIN_RETURN_NOT_OK(Need(len));
  *out = data_.subspan(pos_, len);
  pos_ += len;
  return Status::OK();
}

Status WireReader::ExpectEnd() const {
  if (pos_ != data_.size()) {
    return Status::InvalidArgument(
        std::to_string(data_.size() - pos_) +
        " trailing bytes after a complete message");
  }
  return Status::OK();
}

// --------------------------------------------------------------------------
// Frame encode / decode
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeFrame(FrameType type, uint64_t request_id,
                                 uint32_t deadline_ms,
                                 std::span<const uint8_t> payload) {
  // The size field is u32; silently truncating it would desync the stream
  // while still writing every payload byte.  Callers bound payloads first
  // (the server caps responses at max_frame_payload), so tripping this is
  // a local logic bug, not an attacker-reachable path.
  SIMJOIN_CHECK_LE(payload.size(), UINT32_MAX) << "frame payload too large";
  WireWriter w;
  w.U32(kWireMagic);
  w.U8(kWireVersion);
  w.U8(static_cast<uint8_t>(type));
  w.U16(0);  // reserved
  w.U32(static_cast<uint32_t>(payload.size()));
  w.U32(deadline_ms);
  w.U64(request_id);
  w.Bytes(payload.data(), payload.size());
  return w.Take();
}

Status DecodeFrameHeader(std::span<const uint8_t> bytes, uint32_t max_payload,
                         FrameHeader* out) {
  if (bytes.size() < kFrameHeaderSize) {
    return Status::OutOfRange("frame header needs " +
                              std::to_string(kFrameHeaderSize) + " bytes");
  }
  WireReader r(bytes.subspan(0, kFrameHeaderSize));
  uint32_t magic = 0;
  uint8_t version = 0, type = 0;
  uint16_t reserved = 0;
  // Header reads from a 24-byte span cannot fail; statuses folded away.
  (void)r.U32(&magic);
  (void)r.U8(&version);
  (void)r.U8(&type);
  (void)r.U16(&reserved);
  if (magic != kWireMagic) {
    return Status::InvalidArgument("bad frame magic");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(version));
  }
  if (!IsKnownFrameType(type)) {
    return Status::InvalidArgument("unknown frame type " +
                                   std::to_string(type));
  }
  if (reserved != 0) {
    return Status::InvalidArgument("reserved header bits set");
  }
  out->type = static_cast<FrameType>(type);
  (void)r.U32(&out->payload_size);
  (void)r.U32(&out->deadline_ms);
  (void)r.U64(&out->request_id);
  if (out->payload_size > max_payload) {
    return Status::OutOfRange("frame payload " +
                              std::to_string(out->payload_size) +
                              " exceeds limit " + std::to_string(max_payload));
  }
  return Status::OK();
}

void FrameDecoder::Append(const uint8_t* data, size_t len) {
  if (!error_.ok()) return;  // stream already condemned
  // Compact the consumed prefix before growing, so long-lived connections
  // don't accumulate every frame they ever received.
  if (consumed_ > 0 && consumed_ == buf_.size()) {
    buf_.clear();
    consumed_ = 0;
  } else if (consumed_ > (64u << 10) && consumed_ > buf_.size() / 2) {
    buf_.erase(buf_.begin(),
               buf_.begin() + static_cast<ptrdiff_t>(consumed_));
    consumed_ = 0;
  }
  buf_.insert(buf_.end(), data, data + len);
}

Status FrameDecoder::Next(Frame* out, bool* got) {
  *got = false;
  if (!error_.ok()) return error_;
  const size_t avail = buf_.size() - consumed_;
  if (avail < kFrameHeaderSize) return Status::OK();
  FrameHeader header;
  const Status st = DecodeFrameHeader(
      std::span<const uint8_t>(buf_.data() + consumed_, kFrameHeaderSize),
      max_payload_, &header);
  if (!st.ok()) {
    error_ = st;
    return error_;
  }
  if (avail < kFrameHeaderSize + header.payload_size) return Status::OK();
  out->header = header;
  const uint8_t* body = buf_.data() + consumed_ + kFrameHeaderSize;
  out->payload.assign(body, body + header.payload_size);
  consumed_ += kFrameHeaderSize + header.payload_size;
  *got = true;
  return Status::OK();
}

// --------------------------------------------------------------------------
// JoinStats
// --------------------------------------------------------------------------

void EncodeJoinStats(const JoinStats& stats, WireWriter* w) {
  w->U64(stats.candidate_pairs);
  w->U64(stats.distance_calls);
  w->U64(stats.node_pairs_visited);
  w->U64(stats.node_pairs_pruned);
  w->U64(stats.pairs_emitted);
  w->U64(stats.simd_batches);
  w->U64(stats.scalar_fallbacks);
}

Status ParseJoinStats(WireReader* r, JoinStats* out) {
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->candidate_pairs));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->distance_calls));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->node_pairs_visited));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->node_pairs_pruned));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->pairs_emitted));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->simd_batches));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->scalar_fallbacks));
  return Status::OK();
}

// --------------------------------------------------------------------------
// Tags
// --------------------------------------------------------------------------

uint64_t GenerateTraceId() {
  // Random process base plus a counter, finalised with a splitmix64 mix so
  // concurrent ids from the same process are well spread.  Zero is the
  // "no trace" sentinel, so it is remapped.
  static const uint64_t base = [] {
    std::random_device rd;
    return (static_cast<uint64_t>(rd()) << 32) ^ rd();
  }();
  static std::atomic<uint64_t> counter{0};
  uint64_t x = base + counter.fetch_add(1, std::memory_order_relaxed);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ull;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 31;
  return x == 0 ? 1 : x;
}

namespace {

/// Values of the tags one message knows, indexed by tag number.
struct TagValues {
  std::array<std::optional<std::span<const uint8_t>>,
             static_cast<size_t>(WireTag::kSlowlog) + 1>
      values;

  std::optional<std::span<const uint8_t>> Get(WireTag tag) const {
    return values[static_cast<size_t>(tag)];
  }
};

/// The one tag walker: reads entries from the cursor to the end of the
/// payload.  Tags outside `known` are skipped; a known tag seen twice is
/// InvalidArgument; a truncated entry or a len past the payload end is
/// OutOfRange.
Status ReadTags(WireReader* r, std::initializer_list<WireTag> known,
                TagValues* out) {
  while (r->remaining() > 0) {
    uint8_t tag = 0;
    uint32_t len = 0;
    SIMJOIN_RETURN_NOT_OK(r->U8(&tag));
    SIMJOIN_RETURN_NOT_OK(r->U32(&len));
    std::span<const uint8_t> value;
    SIMJOIN_RETURN_NOT_OK(r->Bytes(len, &value));
    if (std::find(known.begin(), known.end(), static_cast<WireTag>(tag)) ==
        known.end()) {
      continue;
    }
    auto& slot = out->values[tag];
    if (slot.has_value()) {
      return Status::InvalidArgument("duplicate tag " + std::to_string(tag));
    }
    slot = value;
  }
  return Status::OK();
}

/// Parses the value of `tag` when present, setting *present.  `parse`
/// reads from a cursor over exactly the value bytes and must consume all of
/// them; any failure is a malformed value (InvalidArgument), which covers a
/// value of the wrong length.
template <typename Parse>
Status ParseTag(const TagValues& tags, WireTag tag, bool* present,
                Parse parse) {
  const auto value = tags.Get(tag);
  *present = value.has_value();
  if (!*present) return Status::OK();
  WireReader v(*value);
  Status st = parse(&v);
  if (st.ok()) st = v.ExpectEnd();
  if (!st.ok()) {
    return Status::InvalidArgument(
        "malformed tag " + std::to_string(static_cast<int>(tag)) +
        " value: " + st.message());
  }
  return Status::OK();
}

/// Walks the tag list of a message that knows no tags.
Status SkipTags(WireReader* r) {
  TagValues tags;
  return ReadTags(r, {}, &tags);
}

void EncodeTraceTag(const TraceContext& ctx, WireWriter* w) {
  if (!ctx.present) return;
  const size_t mark = w->BeginTag(static_cast<uint8_t>(WireTag::kTrace));
  w->U64(ctx.trace_id);
  w->U8(ctx.flags);
  w->EndTag(mark);
}

Status ParseTraceTag(const TagValues& tags, TraceContext* out) {
  *out = TraceContext{};
  return ParseTag(tags, WireTag::kTrace, &out->present, [&](WireReader* v) {
    SIMJOIN_RETURN_NOT_OK(v->U64(&out->trace_id));
    return v->U8(&out->flags);
  });
}

/// Walks the tag list of a request whose only tag is kTrace.
Status ParseTraceTags(WireReader* r, TraceContext* out) {
  TagValues tags;
  SIMJOIN_RETURN_NOT_OK(ReadTags(r, {WireTag::kTrace}, &tags));
  return ParseTraceTag(tags, out);
}

}  // namespace

void AppendTraceContext(const TraceContext& ctx,
                        std::vector<uint8_t>* payload) {
  if (!ctx.present) return;
  WireWriter w;
  EncodeTraceTag(ctx, &w);
  payload->insert(payload->end(), w.buffer().begin(), w.buffer().end());
}

// --------------------------------------------------------------------------
// BuildIndex
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeBuildIndexRequest(const BuildIndexRequest& req) {
  WireWriter w;
  w.String(req.name);
  w.F64(req.config.epsilon);
  w.U8(static_cast<uint8_t>(req.config.metric));
  w.U32(static_cast<uint32_t>(req.config.leaf_threshold));
  w.U8(req.config.bbox_pruning ? 1 : 0);
  w.U8(req.config.sliding_window_leaf_join ? 1 : 0);
  w.U32(static_cast<uint32_t>(req.config.dim_order.size()));
  for (const uint32_t d : req.config.dim_order) w.U32(d);
  w.U32(req.num_threads);
  w.U32(req.dims);
  w.U32(req.dims == 0 ? 0
                      : static_cast<uint32_t>(req.points.size() / req.dims));
  w.FloatArray(req.points);
  w.U8(static_cast<uint8_t>(req.backend));
  w.U8(req.on_disk ? 1 : 0);
  EncodeTraceTag(req.trace, &w);
  return w.Take();
}

Status ParseBuildIndexRequest(std::span<const uint8_t> payload,
                              BuildIndexRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name, kMaxIndexNameLen));
  if (out->name.empty()) {
    return Status::InvalidArgument("index name must not be empty");
  }
  SIMJOIN_RETURN_NOT_OK(r.F64(&out->config.epsilon));
  uint8_t metric_tag = 0;
  SIMJOIN_RETURN_NOT_OK(r.U8(&metric_tag));
  SIMJOIN_RETURN_NOT_OK(ParseMetricTag(metric_tag, &out->config.metric));
  uint32_t leaf_threshold = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&leaf_threshold));
  out->config.leaf_threshold = leaf_threshold;
  uint8_t bbox = 0, sliding = 0;
  SIMJOIN_RETURN_NOT_OK(r.U8(&bbox));
  SIMJOIN_RETURN_NOT_OK(r.U8(&sliding));
  out->config.bbox_pruning = bbox != 0;
  out->config.sliding_window_leaf_join = sliding != 0;
  uint32_t order_len = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&order_len));
  if (order_len > kWireDimOrderMax) {
    return Status::OutOfRange("dim_order length " +
                              std::to_string(order_len) + " exceeds limit");
  }
  out->config.dim_order.clear();
  out->config.dim_order.reserve(order_len);
  for (uint32_t i = 0; i < order_len; ++i) {
    uint32_t d = 0;
    SIMJOIN_RETURN_NOT_OK(r.U32(&d));
    out->config.dim_order.push_back(d);
  }
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->num_threads));
  uint32_t n = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->dims));
  SIMJOIN_RETURN_NOT_OK(r.U32(&n));
  if (out->dims == 0) {
    return Status::InvalidArgument("BuildIndex dims must be positive");
  }
  SIMJOIN_RETURN_NOT_OK(
      r.FloatArray(static_cast<uint64_t>(n) * out->dims, &out->points));
  uint8_t backend_byte = 0, on_disk_byte = 0;
  SIMJOIN_RETURN_NOT_OK(r.U8(&backend_byte));
  SIMJOIN_ASSIGN_OR_RETURN(out->backend, BackendKindFromWire(backend_byte));
  SIMJOIN_RETURN_NOT_OK(r.U8(&on_disk_byte));
  out->on_disk = on_disk_byte != 0;
  return ParseTraceTags(&r, &out->trace);
}

std::vector<uint8_t> EncodeBuildIndexResponse(const BuildIndexResponse& resp) {
  WireWriter w;
  w.U32(resp.num_points);
  w.U32(resp.dims);
  w.U64(resp.index_bytes);
  w.U64(resp.registry_bytes);
  w.U32(resp.evicted);
  w.F64(resp.build_seconds);
  return w.Take();
}

Status ParseBuildIndexResponse(std::span<const uint8_t> payload,
                               BuildIndexResponse* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->num_points));
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->dims));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->index_bytes));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->registry_bytes));
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->evicted));
  SIMJOIN_RETURN_NOT_OK(r.F64(&out->build_seconds));
  return SkipTags(&r);
}

// --------------------------------------------------------------------------
// RangeQuery
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeRangeQueryRequest(const RangeQueryRequest& req) {
  WireWriter w;
  w.String(req.name);
  w.F64(req.epsilon);
  w.U32(req.dims);
  w.U32(req.dims == 0 ? 0
                      : static_cast<uint32_t>(req.queries.size() / req.dims));
  w.FloatArray(req.queries);
  if (req.has_planner) {
    const size_t mark = w.BeginTag(static_cast<uint8_t>(WireTag::kPlanner));
    w.F64(req.recall);
    w.U8(req.backend);
    w.EndTag(mark);
  }
  EncodeTraceTag(req.trace, &w);
  return w.Take();
}

Status ParseRangeQueryRequest(std::span<const uint8_t> payload,
                              RangeQueryRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name, kMaxIndexNameLen));
  SIMJOIN_RETURN_NOT_OK(r.F64(&out->epsilon));
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->dims));
  SIMJOIN_RETURN_NOT_OK(r.U32(&count));
  if (out->dims == 0) {
    return Status::InvalidArgument("RangeQuery dims must be positive");
  }
  if (count == 0) {
    return Status::InvalidArgument("RangeQuery needs at least one query");
  }
  SIMJOIN_RETURN_NOT_OK(
      r.FloatArray(static_cast<uint64_t>(count) * out->dims, &out->queries));
  // Semantic checks (recall range, known backend byte) belong to the
  // server so a kError response can name the field.
  TagValues tags;
  SIMJOIN_RETURN_NOT_OK(
      ReadTags(&r, {WireTag::kTrace, WireTag::kPlanner}, &tags));
  out->recall = 1.0;
  out->backend = kWireBackendAuto;
  SIMJOIN_RETURN_NOT_OK(ParseTag(tags, WireTag::kPlanner, &out->has_planner,
                                 [&](WireReader* v) {
                                   SIMJOIN_RETURN_NOT_OK(v->F64(&out->recall));
                                   return v->U8(&out->backend);
                                 }));
  return ParseTraceTag(tags, &out->trace);
}

std::vector<uint8_t> EncodeRangeQueryResponse(const RangeQueryResponse& resp) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(resp.results.size()));
  for (const auto& ids : resp.results) {
    w.U32(static_cast<uint32_t>(ids.size()));
    for (const PointId id : ids) w.U32(id);
  }
  EncodeJoinStats(resp.stats, &w);
  if (resp.has_planner) {
    const size_t mark = w.BeginTag(static_cast<uint8_t>(WireTag::kPlanner));
    w.F64(resp.achieved_recall);
    w.U8(resp.backend_used);
    w.U8(resp.plan_cache_hit ? 1 : 0);
    w.EndTag(mark);
  }
  if (resp.has_profile) {
    const size_t mark = w.BeginTag(static_cast<uint8_t>(WireTag::kProfile));
    EncodeRequestProfile(resp.profile, &w);
    w.EndTag(mark);
  }
  return w.Take();
}

Status ParseRangeQueryResponse(std::span<const uint8_t> payload,
                               RangeQueryResponse* out) {
  WireReader r(payload);
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&count));
  if (static_cast<uint64_t>(count) * 4 > r.remaining()) {
    return Status::OutOfRange("result count exceeds payload");
  }
  out->results.clear();
  out->results.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t m = 0;
    SIMJOIN_RETURN_NOT_OK(r.U32(&m));
    if (static_cast<uint64_t>(m) * 4 > r.remaining()) {
      return Status::OutOfRange("id list exceeds payload");
    }
    out->results[i].resize(m);
    for (uint32_t j = 0; j < m; ++j) {
      SIMJOIN_RETURN_NOT_OK(r.U32(&out->results[i][j]));
    }
  }
  SIMJOIN_RETURN_NOT_OK(ParseJoinStats(&r, &out->stats));
  TagValues tags;
  SIMJOIN_RETURN_NOT_OK(
      ReadTags(&r, {WireTag::kPlanner, WireTag::kProfile}, &tags));
  out->achieved_recall = 1.0;
  out->backend_used = 0;
  out->plan_cache_hit = false;
  SIMJOIN_RETURN_NOT_OK(ParseTag(
      tags, WireTag::kPlanner, &out->has_planner, [&](WireReader* v) {
        SIMJOIN_RETURN_NOT_OK(v->F64(&out->achieved_recall));
        SIMJOIN_RETURN_NOT_OK(v->U8(&out->backend_used));
        uint8_t cache_hit = 0;
        SIMJOIN_RETURN_NOT_OK(v->U8(&cache_hit));
        out->plan_cache_hit = cache_hit != 0;
        return Status::OK();
      }));
  out->profile = obs::RequestProfile{};
  return ParseTag(tags, WireTag::kProfile, &out->has_profile,
                  [&](WireReader* v) {
                    return ParseRequestProfile(v, &out->profile);
                  });
}

// --------------------------------------------------------------------------
// SimilarityJoin
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeSimilarityJoinRequest(
    const SimilarityJoinRequest& req) {
  WireWriter w;
  w.String(req.name_a);
  w.String(req.name_b);
  w.F64(req.epsilon);
  w.U32(req.num_threads);
  w.U32(req.chunk_pairs);
  EncodeTraceTag(req.trace, &w);
  return w.Take();
}

Status ParseSimilarityJoinRequest(std::span<const uint8_t> payload,
                                  SimilarityJoinRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name_a, kMaxIndexNameLen));
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name_b, kMaxIndexNameLen));
  if (out->name_a.empty()) {
    return Status::InvalidArgument("join needs a left index name");
  }
  SIMJOIN_RETURN_NOT_OK(r.F64(&out->epsilon));
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->num_threads));
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->chunk_pairs));
  return ParseTraceTags(&r, &out->trace);
}

std::vector<uint8_t> EncodeJoinChunk(std::span<const IdPair> pairs) {
  WireWriter w;
  w.U32(static_cast<uint32_t>(pairs.size()));
  for (const IdPair& p : pairs) {
    w.U32(p.first);
    w.U32(p.second);
  }
  return w.Take();
}

Status ParseJoinChunk(std::span<const uint8_t> payload, JoinChunk* out) {
  WireReader r(payload);
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&count));
  if (static_cast<uint64_t>(count) * 8 > r.remaining()) {
    return Status::OutOfRange("join chunk count exceeds payload");
  }
  out->pairs.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SIMJOIN_RETURN_NOT_OK(r.U32(&out->pairs[i].first));
    SIMJOIN_RETURN_NOT_OK(r.U32(&out->pairs[i].second));
  }
  return SkipTags(&r);
}

std::vector<uint8_t> EncodeJoinDone(const JoinDone& done) {
  WireWriter w;
  w.U64(done.total_pairs);
  EncodeJoinStats(done.stats, &w);
  return w.Take();
}

Status ParseJoinDone(std::span<const uint8_t> payload, JoinDone* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->total_pairs));
  SIMJOIN_RETURN_NOT_OK(ParseJoinStats(&r, &out->stats));
  return SkipTags(&r);
}

// --------------------------------------------------------------------------
// Insert / Remove / Flush (live-update RPCs, docs/updates.md)
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeInsertRequest(const InsertRequest& req) {
  WireWriter w;
  w.String(req.name);
  w.U32(req.dims);
  w.U32(req.dims == 0 ? 0
                      : static_cast<uint32_t>(req.rows.size() / req.dims));
  w.FloatArray(req.rows);
  EncodeTraceTag(req.trace, &w);
  return w.Take();
}

Status ParseInsertRequest(std::span<const uint8_t> payload,
                          InsertRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name, kMaxIndexNameLen));
  if (out->name.empty()) {
    return Status::InvalidArgument("index name must not be empty");
  }
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->dims));
  SIMJOIN_RETURN_NOT_OK(r.U32(&count));
  if (out->dims == 0) {
    return Status::InvalidArgument("Insert dims must be positive");
  }
  if (count == 0) {
    return Status::InvalidArgument("Insert needs at least one row");
  }
  SIMJOIN_RETURN_NOT_OK(
      r.FloatArray(static_cast<uint64_t>(count) * out->dims, &out->rows));
  return ParseTraceTags(&r, &out->trace);
}

std::vector<uint8_t> EncodeInsertResponse(const InsertResponse& resp) {
  WireWriter w;
  w.U32(resp.first_id);
  w.U32(resp.count);
  w.U64(resp.delta_points);
  w.U64(resp.tombstones);
  return w.Take();
}

Status ParseInsertResponse(std::span<const uint8_t> payload,
                           InsertResponse* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->first_id));
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->count));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->delta_points));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->tombstones));
  return SkipTags(&r);
}

std::vector<uint8_t> EncodeRemoveRequest(const RemoveRequest& req) {
  WireWriter w;
  w.String(req.name);
  w.U32(static_cast<uint32_t>(req.ids.size()));
  for (const PointId id : req.ids) w.U32(id);
  EncodeTraceTag(req.trace, &w);
  return w.Take();
}

Status ParseRemoveRequest(std::span<const uint8_t> payload,
                          RemoveRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name, kMaxIndexNameLen));
  if (out->name.empty()) {
    return Status::InvalidArgument("index name must not be empty");
  }
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&count));
  if (count == 0) {
    return Status::InvalidArgument("Remove needs at least one id");
  }
  if (static_cast<uint64_t>(count) * 4 > r.remaining()) {
    return Status::OutOfRange("Remove id count exceeds payload");
  }
  out->ids.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SIMJOIN_RETURN_NOT_OK(r.U32(&out->ids[i]));
  }
  return ParseTraceTags(&r, &out->trace);
}

std::vector<uint8_t> EncodeRemoveResponse(const RemoveResponse& resp) {
  WireWriter w;
  w.U32(resp.removed);
  w.U32(resp.missing);
  w.U64(resp.delta_points);
  w.U64(resp.tombstones);
  return w.Take();
}

Status ParseRemoveResponse(std::span<const uint8_t> payload,
                           RemoveResponse* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->removed));
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->missing));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->delta_points));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->tombstones));
  return SkipTags(&r);
}

std::vector<uint8_t> EncodeFlushRequest(const FlushRequest& req) {
  WireWriter w;
  w.String(req.name);
  EncodeTraceTag(req.trace, &w);
  return w.Take();
}

Status ParseFlushRequest(std::span<const uint8_t> payload, FlushRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name, kMaxIndexNameLen));
  if (out->name.empty()) {
    return Status::InvalidArgument("index name must not be empty");
  }
  return ParseTraceTags(&r, &out->trace);
}

std::vector<uint8_t> EncodeFlushResponse(const FlushResponse& resp) {
  WireWriter w;
  w.U8(resp.compacted ? 1 : 0);
  w.U64(resp.base_points);
  w.U64(resp.delta_points);
  w.U64(resp.tombstones);
  w.U64(resp.index_bytes);
  return w.Take();
}

Status ParseFlushResponse(std::span<const uint8_t> payload,
                          FlushResponse* out) {
  WireReader r(payload);
  uint8_t compacted = 0;
  SIMJOIN_RETURN_NOT_OK(r.U8(&compacted));
  out->compacted = compacted != 0;
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->base_points));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->delta_points));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->tombstones));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->index_bytes));
  return SkipTags(&r);
}

// --------------------------------------------------------------------------
// DropIndex / Stats / Error / RetryAfter
// --------------------------------------------------------------------------

std::vector<uint8_t> EncodeDropIndexRequest(const DropIndexRequest& req) {
  WireWriter w;
  w.String(req.name);
  return w.Take();
}

Status ParseDropIndexRequest(std::span<const uint8_t> payload,
                             DropIndexRequest* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.String(&out->name, kMaxIndexNameLen));
  if (out->name.empty()) {
    return Status::InvalidArgument("index name must not be empty");
  }
  return SkipTags(&r);
}

std::vector<uint8_t> EncodeDropIndexResponse(const DropIndexResponse& resp) {
  WireWriter w;
  w.U8(resp.found ? 1 : 0);
  return w.Take();
}

Status ParseDropIndexResponse(std::span<const uint8_t> payload,
                              DropIndexResponse* out) {
  WireReader r(payload);
  uint8_t found = 0;
  SIMJOIN_RETURN_NOT_OK(r.U8(&found));
  out->found = found != 0;
  return SkipTags(&r);
}

std::vector<uint8_t> EncodeStatsRequest(const StatsRequest& req) {
  WireWriter w;
  w.U8(req.drain_slowlog ? 0x01 : 0x00);
  return w.Take();
}

Status ParseStatsRequest(std::span<const uint8_t> payload, StatsRequest* out) {
  WireReader r(payload);
  uint8_t flags = 0;
  SIMJOIN_RETURN_NOT_OK(r.U8(&flags));
  out->drain_slowlog = (flags & 0x01) != 0;
  return SkipTags(&r);
}

std::vector<uint8_t> EncodeStatsResponse(const StatsResponse& resp) {
  WireWriter w;
  w.U64(resp.accepted_connections);
  w.U64(resp.active_connections);
  w.U64(resp.requests_admitted);
  w.U64(resp.requests_rejected);
  w.U64(resp.deadline_expired);
  w.U64(resp.decode_errors);
  w.U64(resp.pairs_streamed);
  w.U64(resp.registry_byte_budget);
  w.U64(resp.registry_bytes);
  w.U64(resp.registry_evictions);
  w.U32(static_cast<uint32_t>(resp.indexes.size()));
  for (const IndexInfo& info : resp.indexes) {
    w.String(info.name);
    w.U32(info.num_points);
    w.U32(info.dims);
    w.U64(info.bytes);
    w.U64(info.hits);
    w.F64(info.epsilon);
    w.U8(static_cast<uint8_t>(info.metric));
  }
  EncodeMetricsSnapshot(resp.metrics, &w);
  if (resp.has_slowlog) {
    const size_t mark = w.BeginTag(static_cast<uint8_t>(WireTag::kSlowlog));
    w.U32(static_cast<uint32_t>(resp.slowlog.size()));
    for (const obs::SlowQueryEntry& e : resp.slowlog) {
      EncodeSlowQueryEntry(e, &w);
    }
    w.U64(resp.slowlog_recorded);
    w.U64(resp.slowlog_evicted);
    w.EndTag(mark);
  }
  return w.Take();
}

void EncodeMetricsSnapshot(const obs::MetricsSnapshot& snapshot,
                           WireWriter* w) {
  w->U32(static_cast<uint32_t>(snapshot.counters.size()));
  for (const obs::CounterSample& c : snapshot.counters) {
    w->String(c.name);
    w->U64(c.value);
  }
  w->U32(static_cast<uint32_t>(snapshot.gauges.size()));
  for (const obs::GaugeSample& g : snapshot.gauges) {
    w->String(g.name);
    w->U64(static_cast<uint64_t>(g.value));  // two's-complement bit pattern
  }
  w->U32(static_cast<uint32_t>(snapshot.histograms.size()));
  for (const obs::HistogramSample& h : snapshot.histograms) {
    w->String(h.name);
    w->U32(static_cast<uint32_t>(h.boundaries.size()));
    for (const double b : h.boundaries) w->F64(b);
    w->U64(h.count);
    w->F64(h.sum);
    for (const uint64_t c : h.counts) w->U64(c);
  }
}

Status ParseMetricsSnapshot(WireReader* r, obs::MetricsSnapshot* out) {
  out->counters.clear();
  out->gauges.clear();
  out->histograms.clear();
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r->U32(&count));
  if (count > kMaxMetricsPerKind ||
      static_cast<uint64_t>(count) * 12 > r->remaining()) {
    return Status::OutOfRange("counter count exceeds payload");
  }
  out->counters.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SIMJOIN_RETURN_NOT_OK(
        r->String(&out->counters[i].name, kMaxMetricNameLen));
    SIMJOIN_RETURN_NOT_OK(r->U64(&out->counters[i].value));
  }
  SIMJOIN_RETURN_NOT_OK(r->U32(&count));
  if (count > kMaxMetricsPerKind ||
      static_cast<uint64_t>(count) * 12 > r->remaining()) {
    return Status::OutOfRange("gauge count exceeds payload");
  }
  out->gauges.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SIMJOIN_RETURN_NOT_OK(r->String(&out->gauges[i].name, kMaxMetricNameLen));
    uint64_t bits = 0;
    SIMJOIN_RETURN_NOT_OK(r->U64(&bits));
    out->gauges[i].value = static_cast<int64_t>(bits);
  }
  SIMJOIN_RETURN_NOT_OK(r->U32(&count));
  if (count > kMaxMetricsPerKind ||
      static_cast<uint64_t>(count) * 24 > r->remaining()) {
    return Status::OutOfRange("histogram count exceeds payload");
  }
  out->histograms.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::HistogramSample& h = out->histograms[i];
    SIMJOIN_RETURN_NOT_OK(r->String(&h.name, kMaxMetricNameLen));
    uint32_t num_bounds = 0;
    SIMJOIN_RETURN_NOT_OK(r->U32(&num_bounds));
    if (num_bounds > kMaxHistogramBoundaries ||
        static_cast<uint64_t>(num_bounds) * 16 + 16 > r->remaining()) {
      return Status::OutOfRange("histogram boundary count exceeds payload");
    }
    h.boundaries.resize(num_bounds);
    for (uint32_t b = 0; b < num_bounds; ++b) {
      SIMJOIN_RETURN_NOT_OK(r->F64(&h.boundaries[b]));
    }
    SIMJOIN_RETURN_NOT_OK(r->U64(&h.count));
    SIMJOIN_RETURN_NOT_OK(r->F64(&h.sum));
    h.counts.resize(static_cast<size_t>(num_bounds) + 1);
    for (size_t b = 0; b < h.counts.size(); ++b) {
      SIMJOIN_RETURN_NOT_OK(r->U64(&h.counts[b]));
    }
  }
  return Status::OK();
}

Status ParseStatsResponse(std::span<const uint8_t> payload,
                          StatsResponse* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->accepted_connections));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->active_connections));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->requests_admitted));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->requests_rejected));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->deadline_expired));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->decode_errors));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->pairs_streamed));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->registry_byte_budget));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->registry_bytes));
  SIMJOIN_RETURN_NOT_OK(r.U64(&out->registry_evictions));
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r.U32(&count));
  if (static_cast<uint64_t>(count) * 4 > r.remaining()) {
    return Status::OutOfRange("index count exceeds payload");
  }
  out->indexes.clear();
  out->indexes.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    IndexInfo& info = out->indexes[i];
    SIMJOIN_RETURN_NOT_OK(r.String(&info.name, kMaxIndexNameLen));
    SIMJOIN_RETURN_NOT_OK(r.U32(&info.num_points));
    SIMJOIN_RETURN_NOT_OK(r.U32(&info.dims));
    SIMJOIN_RETURN_NOT_OK(r.U64(&info.bytes));
    SIMJOIN_RETURN_NOT_OK(r.U64(&info.hits));
    SIMJOIN_RETURN_NOT_OK(r.F64(&info.epsilon));
    uint8_t metric_tag = 0;
    SIMJOIN_RETURN_NOT_OK(r.U8(&metric_tag));
    SIMJOIN_RETURN_NOT_OK(ParseMetricTag(metric_tag, &info.metric));
  }
  SIMJOIN_RETURN_NOT_OK(ParseMetricsSnapshot(&r, &out->metrics));
  TagValues tags;
  SIMJOIN_RETURN_NOT_OK(ReadTags(&r, {WireTag::kSlowlog}, &tags));
  out->slowlog.clear();
  out->slowlog_recorded = 0;
  out->slowlog_evicted = 0;
  return ParseTag(
      tags, WireTag::kSlowlog, &out->has_slowlog, [&](WireReader* v) {
        uint32_t n = 0;
        SIMJOIN_RETURN_NOT_OK(v->U32(&n));
        // Every entry is at least 8 bytes on the wire (far more in
        // practice); the cap stops hostile counts before the per-entry
        // parses would.
        if (n > 65536 || static_cast<uint64_t>(n) * 8 > v->remaining()) {
          return Status::OutOfRange("slowlog entry count exceeds payload");
        }
        out->slowlog.resize(n);
        for (uint32_t i = 0; i < n; ++i) {
          SIMJOIN_RETURN_NOT_OK(ParseSlowQueryEntry(v, &out->slowlog[i]));
        }
        SIMJOIN_RETURN_NOT_OK(v->U64(&out->slowlog_recorded));
        return v->U64(&out->slowlog_evicted);
      });
}

std::vector<uint8_t> EncodeErrorResponse(const Status& status) {
  WireWriter w;
  w.U16(static_cast<uint16_t>(status.code()));
  w.String(status.message());
  return w.Take();
}

Status ParseErrorResponse(std::span<const uint8_t> payload, Status* out) {
  WireReader r(payload);
  uint16_t code_tag = 0;
  SIMJOIN_RETURN_NOT_OK(r.U16(&code_tag));
  std::string message;
  SIMJOIN_RETURN_NOT_OK(r.String(&message, 64 << 10));
  SIMJOIN_RETURN_NOT_OK(SkipTags(&r));
  StatusCode code = StatusCode::kInternal;
  SIMJOIN_RETURN_NOT_OK(ParseStatusCodeTag(code_tag, &code));
  *out = Status(code, std::move(message));
  return Status::OK();
}

std::vector<uint8_t> EncodeRetryAfterResponse(uint32_t retry_after_ms) {
  WireWriter w;
  w.U32(retry_after_ms);
  return w.Take();
}

Status ParseRetryAfterResponse(std::span<const uint8_t> payload,
                               RetryAfterResponse* out) {
  WireReader r(payload);
  SIMJOIN_RETURN_NOT_OK(r.U32(&out->retry_after_ms));
  return SkipTags(&r);
}

// --------------------------------------------------------------------------
// EXPLAIN ANALYZE profile / slow-query entries
// --------------------------------------------------------------------------

void EncodeRequestProfile(const obs::RequestProfile& profile, WireWriter* w) {
  w->U32(static_cast<uint32_t>(profile.nodes.size()));
  for (const obs::ProfileNode& n : profile.nodes) {
    w->U32(n.parent);
    w->String(n.name);
    w->U64(n.start_ns);
    w->U64(n.wall_ns);
    w->U64(n.cpu_ns);
  }
  w->U32(static_cast<uint32_t>(profile.counters.size()));
  for (const obs::ProfileCounter& c : profile.counters) {
    w->String(c.name);
    w->U64(c.value);
  }
  w->U64(profile.trace_id);
  w->U64(profile.total_wall_ns);
  w->String(profile.plan);
  w->U64(profile.dropped_nodes);
}

Status ParseRequestProfile(WireReader* r, obs::RequestProfile* out) {
  *out = obs::RequestProfile{};
  uint32_t count = 0;
  SIMJOIN_RETURN_NOT_OK(r->U32(&count));
  // A node is at least 32 wire bytes (parent + empty name + three u64s).
  if (count > obs::kMaxProfileNodes ||
      static_cast<uint64_t>(count) * 32 > r->remaining()) {
    return Status::OutOfRange("profile node count exceeds payload");
  }
  out->nodes.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    obs::ProfileNode& n = out->nodes[i];
    SIMJOIN_RETURN_NOT_OK(r->U32(&n.parent));
    SIMJOIN_RETURN_NOT_OK(r->String(&n.name, kMaxProfileNameLen));
    SIMJOIN_RETURN_NOT_OK(r->U64(&n.start_ns));
    SIMJOIN_RETURN_NOT_OK(r->U64(&n.wall_ns));
    SIMJOIN_RETURN_NOT_OK(r->U64(&n.cpu_ns));
  }
  SIMJOIN_RETURN_NOT_OK(r->U32(&count));
  if (count > obs::kMaxProfileCounters ||
      static_cast<uint64_t>(count) * 12 > r->remaining()) {
    return Status::OutOfRange("profile counter count exceeds payload");
  }
  out->counters.resize(count);
  for (uint32_t i = 0; i < count; ++i) {
    SIMJOIN_RETURN_NOT_OK(
        r->String(&out->counters[i].name, kMaxProfileNameLen));
    SIMJOIN_RETURN_NOT_OK(r->U64(&out->counters[i].value));
  }
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->trace_id));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->total_wall_ns));
  SIMJOIN_RETURN_NOT_OK(r->String(&out->plan, kMaxProfilePlanLen));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->dropped_nodes));
  return Status::OK();
}

void EncodeSlowQueryEntry(const obs::SlowQueryEntry& entry, WireWriter* w) {
  w->U64(entry.unix_micros);
  w->U64(entry.trace_id);
  w->U64(entry.request_id);
  w->U8(entry.op);
  w->String(entry.index);
  w->U64(entry.wall_us);
  w->U32(entry.status_code);
  w->String(entry.status_message);
  EncodeRequestProfile(entry.profile, w);
}

Status ParseSlowQueryEntry(WireReader* r, obs::SlowQueryEntry* out) {
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->unix_micros));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->trace_id));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->request_id));
  SIMJOIN_RETURN_NOT_OK(r->U8(&out->op));
  SIMJOIN_RETURN_NOT_OK(r->String(&out->index, kMaxIndexNameLen));
  SIMJOIN_RETURN_NOT_OK(r->U64(&out->wall_us));
  SIMJOIN_RETURN_NOT_OK(r->U32(&out->status_code));
  SIMJOIN_RETURN_NOT_OK(r->String(&out->status_message, 64 << 10));
  return ParseRequestProfile(r, &out->profile);
}

}  // namespace simjoin
