#include "service/protocol.h"

#include <algorithm>
#include <cstring>
#include <functional>

#include "gtest/gtest.h"
#include "service/wire_words.h"

namespace simjoin {
namespace {

Frame MustDecodeOne(std::span<const uint8_t> bytes) {
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool got = false;
  const Status st = decoder.Next(&frame, &got);
  EXPECT_TRUE(st.ok()) << st.ToString();
  EXPECT_TRUE(got);
  EXPECT_EQ(decoder.buffered_bytes(), 0u);
  return frame;
}

TEST(ProtocolTest, FrameHeaderRoundTrip) {
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5};
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kRangeQuery, 42, 750, payload);
  ASSERT_EQ(bytes.size(), kFrameHeaderSize + payload.size());
  const Frame frame = MustDecodeOne(bytes);
  EXPECT_EQ(frame.header.type, FrameType::kRangeQuery);
  EXPECT_EQ(frame.header.request_id, 42u);
  EXPECT_EQ(frame.header.deadline_ms, 750u);
  EXPECT_EQ(frame.payload, payload);
}

TEST(ProtocolTest, DecoderReassemblesByteAtATime) {
  const std::vector<uint8_t> payload(300, 0xab);
  const std::vector<uint8_t> bytes =
      EncodeFrame(FrameType::kJoinChunk, 7, 0, payload);
  FrameDecoder decoder;
  Frame frame;
  bool got = false;
  for (size_t i = 0; i < bytes.size(); ++i) {
    decoder.Append(&bytes[i], 1);
    ASSERT_TRUE(decoder.Next(&frame, &got).ok());
    EXPECT_EQ(got, i + 1 == bytes.size());
  }
  EXPECT_EQ(frame.payload, payload);
}

TEST(ProtocolTest, DecoderSplitsConcatenatedFrames) {
  std::vector<uint8_t> stream;
  for (uint64_t id = 0; id < 5; ++id) {
    const std::vector<uint8_t> payload(id * 10, static_cast<uint8_t>(id));
    const auto f = EncodeFrame(FrameType::kPing, id, 0, payload);
    stream.insert(stream.end(), f.begin(), f.end());
  }
  FrameDecoder decoder;
  decoder.Append(stream.data(), stream.size());
  for (uint64_t id = 0; id < 5; ++id) {
    Frame frame;
    bool got = false;
    ASSERT_TRUE(decoder.Next(&frame, &got).ok());
    ASSERT_TRUE(got);
    EXPECT_EQ(frame.header.request_id, id);
    EXPECT_EQ(frame.payload.size(), id * 10);
  }
  bool got = true;
  Frame frame;
  ASSERT_TRUE(decoder.Next(&frame, &got).ok());
  EXPECT_FALSE(got);
}

TEST(ProtocolTest, BadMagicRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, 0, {});
  bytes[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool got = false;
  EXPECT_FALSE(decoder.Next(&frame, &got).ok());
  // The error is sticky: the stream cannot be resynchronised.
  EXPECT_FALSE(decoder.Next(&frame, &got).ok());
}

TEST(ProtocolTest, WrongVersionRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, 0, {});
  bytes[4] = kWireVersion + 1;
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool got = false;
  EXPECT_FALSE(decoder.Next(&frame, &got).ok());
}

TEST(ProtocolTest, UnknownTypeRejected) {
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, 0, {});
  bytes[5] = 40;  // not a defined FrameType
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool got = false;
  EXPECT_FALSE(decoder.Next(&frame, &got).ok());
}

TEST(ProtocolTest, OversizedPayloadRejectedBeforeBuffering) {
  // Header declares 2 MB against a 1 MB decoder bound; the decoder must
  // fail on the header alone, not wait for (or allocate) the payload.
  const std::vector<uint8_t> payload;
  std::vector<uint8_t> bytes = EncodeFrame(FrameType::kPing, 1, 0, payload);
  const uint32_t huge = 2u << 20;
  std::memcpy(&bytes[8], &huge, sizeof(huge));
  FrameDecoder decoder(1u << 20);
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  bool got = false;
  EXPECT_FALSE(decoder.Next(&frame, &got).ok());
}

TEST(ProtocolTest, BuildIndexRequestRoundTrip) {
  BuildIndexRequest req;
  req.name = "fleet";
  req.config.epsilon = 0.125;
  req.config.metric = Metric::kLinf;
  req.config.leaf_threshold = 48;
  req.config.bbox_pruning = false;
  req.config.dim_order = {2, 0, 1};
  req.num_threads = 3;
  req.dims = 3;
  req.points = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f, 0.6f};
  BuildIndexRequest out;
  ASSERT_TRUE(ParseBuildIndexRequest(EncodeBuildIndexRequest(req), &out).ok());
  EXPECT_EQ(out.name, req.name);
  EXPECT_EQ(out.config.epsilon, req.config.epsilon);
  EXPECT_EQ(out.config.metric, req.config.metric);
  EXPECT_EQ(out.config.leaf_threshold, req.config.leaf_threshold);
  EXPECT_EQ(out.config.bbox_pruning, req.config.bbox_pruning);
  EXPECT_EQ(out.config.dim_order, req.config.dim_order);
  EXPECT_EQ(out.num_threads, req.num_threads);
  EXPECT_EQ(out.dims, req.dims);
  EXPECT_EQ(out.points, req.points);
}

TEST(ProtocolTest, BuildIndexOnDiskFlagRoundTrip) {
  BuildIndexRequest req;
  req.name = "cold";
  req.dims = 2;
  req.points = {0.1f, 0.2f, 0.3f, 0.4f};
  req.backend = BackendKind::kEkdbFlat;
  req.on_disk = true;
  const std::vector<uint8_t> wire = EncodeBuildIndexRequest(req);
  // backend and on_disk are the last two bytes of the fixed body.
  BuildIndexRequest out;
  ASSERT_TRUE(ParseBuildIndexRequest(wire, &out).ok());
  EXPECT_TRUE(out.on_disk);
  EXPECT_EQ(out.backend, BackendKind::kEkdbFlat);
  EXPECT_EQ(out.points, req.points);

  req.on_disk = false;
  BuildIndexRequest in_memory;
  ASSERT_TRUE(
      ParseBuildIndexRequest(EncodeBuildIndexRequest(req), &in_memory).ok());
  EXPECT_FALSE(in_memory.on_disk);

  // A stray byte after the body is a truncated tag entry — reject, don't
  // misread it.
  std::vector<uint8_t> mutated = wire;
  mutated.push_back(0);
  BuildIndexRequest bad;
  EXPECT_FALSE(ParseBuildIndexRequest(mutated, &bad).ok());
}

TEST(ProtocolTest, BuildIndexRequestPointCountMismatchRejected) {
  BuildIndexRequest req;
  req.name = "x";
  req.dims = 4;
  req.points = {0.1f, 0.2f, 0.3f};  // not a multiple of dims
  BuildIndexRequest out;
  EXPECT_FALSE(
      ParseBuildIndexRequest(EncodeBuildIndexRequest(req), &out).ok());
}

TEST(ProtocolTest, RangeQueryRoundTrip) {
  RangeQueryRequest req;
  req.name = "idx";
  req.epsilon = 0.07;
  req.dims = 2;
  req.queries = {0.5f, 0.5f, 0.9f, 0.1f};
  RangeQueryRequest out;
  ASSERT_TRUE(ParseRangeQueryRequest(EncodeRangeQueryRequest(req), &out).ok());
  EXPECT_EQ(out.name, req.name);
  EXPECT_EQ(out.epsilon, req.epsilon);
  EXPECT_EQ(out.queries, req.queries);

  RangeQueryResponse resp;
  resp.results = {{1, 5, 9}, {}, {1u << 30}};
  resp.stats.distance_calls = 77;
  resp.stats.simd_batches = 3;
  RangeQueryResponse parsed;
  ASSERT_TRUE(
      ParseRangeQueryResponse(EncodeRangeQueryResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.results, resp.results);
  EXPECT_EQ(parsed.stats.distance_calls, 77u);
  EXPECT_EQ(parsed.stats.simd_batches, 3u);
}

TEST(ProtocolTest, RangeQueryPlannerExtensionRoundTrip) {
  RangeQueryRequest req;
  req.name = "idx";
  req.epsilon = 0.07;
  req.dims = 2;
  req.queries = {0.5f, 0.5f, 0.9f, 0.1f};
  req.has_planner = true;
  req.recall = 0.85;
  req.backend = static_cast<uint8_t>(BackendKind::kLsh);
  RangeQueryRequest out;
  ASSERT_TRUE(ParseRangeQueryRequest(EncodeRangeQueryRequest(req), &out).ok());
  EXPECT_TRUE(out.has_planner);
  EXPECT_EQ(out.recall, 0.85);
  EXPECT_EQ(out.backend, static_cast<uint8_t>(BackendKind::kLsh));
  EXPECT_EQ(out.queries, req.queries);

  RangeQueryResponse resp;
  resp.results = {{1, 5, 9}, {}};
  resp.has_planner = true;
  resp.achieved_recall = 0.91;
  resp.backend_used = static_cast<uint8_t>(BackendKind::kLsh);
  resp.plan_cache_hit = true;
  RangeQueryResponse parsed;
  ASSERT_TRUE(
      ParseRangeQueryResponse(EncodeRangeQueryResponse(resp), &parsed).ok());
  EXPECT_TRUE(parsed.has_planner);
  EXPECT_EQ(parsed.achieved_recall, 0.91);
  EXPECT_EQ(parsed.backend_used, static_cast<uint8_t>(BackendKind::kLsh));
  EXPECT_TRUE(parsed.plan_cache_hit);
  EXPECT_EQ(parsed.results, resp.results);
}

TEST(ProtocolTest, LegacyRangeQueryFramesParseWithPlannerDefaults) {
  // A frame without the planner tag must decode to the exact-path
  // defaults, and so must a response without the planner echo.
  RangeQueryRequest untagged;
  untagged.name = "idx";
  untagged.epsilon = 0.05;
  untagged.dims = 1;
  untagged.queries = {0.25f};
  RangeQueryRequest out;
  ASSERT_TRUE(
      ParseRangeQueryRequest(EncodeRangeQueryRequest(untagged), &out).ok());
  EXPECT_FALSE(out.has_planner);
  EXPECT_EQ(out.recall, 1.0);
  EXPECT_EQ(out.backend, kWireBackendAuto);

  RangeQueryResponse untagged_resp;
  untagged_resp.results = {{3}};
  RangeQueryResponse parsed;
  ASSERT_TRUE(
      ParseRangeQueryResponse(EncodeRangeQueryResponse(untagged_resp), &parsed)
          .ok());
  EXPECT_FALSE(parsed.has_planner);
  EXPECT_EQ(parsed.achieved_recall, 1.0);
  EXPECT_FALSE(parsed.plan_cache_hit);
}

TEST(ProtocolTest, RangeQueryExtensionTruncationRejected) {
  // The planner tag is one 14-byte entry (tag, len, 9-byte value) after the
  // float block; any partial entry is a malformed frame, and stripping all
  // of it leaves a frame without the tag.
  constexpr size_t kRequestEntry = 1 + 4 + 9;
  constexpr size_t kResponseEntry = 1 + 4 + 10;
  RangeQueryRequest req;
  req.name = "t";
  req.epsilon = 0.1;
  req.dims = 2;
  req.queries = {0.1f, 0.2f};
  req.has_planner = true;
  req.recall = 0.5;
  const std::vector<uint8_t> full = EncodeRangeQueryRequest(req);
  RangeQueryRequest out;
  for (size_t drop = 1; drop < kRequestEntry; ++drop) {
    std::vector<uint8_t> cut(full.begin(), full.end() - drop);
    EXPECT_FALSE(ParseRangeQueryRequest(cut, &out).ok()) << "drop " << drop;
  }
  std::vector<uint8_t> untagged(full.begin(), full.end() - kRequestEntry);
  ASSERT_TRUE(ParseRangeQueryRequest(untagged, &out).ok());
  EXPECT_FALSE(out.has_planner);

  RangeQueryResponse resp;
  resp.results = {{1, 2}};
  resp.has_planner = true;
  resp.achieved_recall = 0.7;
  const std::vector<uint8_t> full_resp = EncodeRangeQueryResponse(resp);
  RangeQueryResponse parsed;
  for (size_t drop = 1; drop < kResponseEntry; ++drop) {
    std::vector<uint8_t> cut(full_resp.begin(), full_resp.end() - drop);
    EXPECT_FALSE(ParseRangeQueryResponse(cut, &parsed).ok())
        << "drop " << drop;
  }
  std::vector<uint8_t> untagged_resp(full_resp.begin(),
                                     full_resp.end() - kResponseEntry);
  ASSERT_TRUE(ParseRangeQueryResponse(untagged_resp, &parsed).ok());
  EXPECT_FALSE(parsed.has_planner);
}

TEST(ProtocolTest, JoinMessagesRoundTrip) {
  SimilarityJoinRequest req;
  req.name_a = "a";
  req.name_b = "b";
  req.epsilon = 0.3;
  req.num_threads = 4;
  req.chunk_pairs = 1000;
  SimilarityJoinRequest out;
  ASSERT_TRUE(
      ParseSimilarityJoinRequest(EncodeSimilarityJoinRequest(req), &out).ok());
  EXPECT_EQ(out.name_a, "a");
  EXPECT_EQ(out.name_b, "b");
  EXPECT_EQ(out.chunk_pairs, 1000u);

  const std::vector<IdPair> pairs = {{0, 1}, {2, 3}, {1u << 20, 5}};
  JoinChunk chunk;
  ASSERT_TRUE(ParseJoinChunk(EncodeJoinChunk(pairs), &chunk).ok());
  EXPECT_EQ(chunk.pairs, pairs);

  JoinDone done;
  done.total_pairs = 3;
  done.stats.candidate_pairs = 9;
  done.stats.pairs_emitted = 3;
  done.stats.scalar_fallbacks = 1;
  JoinDone parsed;
  ASSERT_TRUE(ParseJoinDone(EncodeJoinDone(done), &parsed).ok());
  EXPECT_EQ(parsed.total_pairs, 3u);
  EXPECT_EQ(parsed.stats.candidate_pairs, 9u);
  EXPECT_EQ(parsed.stats.scalar_fallbacks, 1u);
}

TEST(ProtocolTest, StatsRoundTrip) {
  StatsResponse resp;
  resp.requests_admitted = 10;
  resp.requests_rejected = 2;
  resp.registry_bytes = 12345;
  IndexInfo info;
  info.name = "base";
  info.num_points = 100;
  info.dims = 16;
  info.bytes = 6400;
  info.hits = 9;
  info.epsilon = 0.1;
  info.metric = Metric::kL1;
  resp.indexes.push_back(info);
  StatsResponse parsed;
  ASSERT_TRUE(ParseStatsResponse(EncodeStatsResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.requests_admitted, 10u);
  ASSERT_EQ(parsed.indexes.size(), 1u);
  EXPECT_EQ(parsed.indexes[0].name, "base");
  EXPECT_EQ(parsed.indexes[0].metric, Metric::kL1);
  EXPECT_EQ(parsed.indexes[0].epsilon, 0.1);
}

TEST(ProtocolTest, StatsMetricsRoundTripEveryKind) {
  StatsResponse resp;
  resp.metrics.counters = {{"a.count", 7}, {"b.count", 1ull << 60}};
  resp.metrics.gauges = {{"depth", -12}, {"inflight", 3}};
  obs::HistogramSample h;
  h.name = "latency_us";
  h.boundaries = {1.0, 10.0, 100.0};
  h.counts = {4, 3, 2, 1};
  h.count = 10;
  h.sum = 256.5;
  resp.metrics.histograms = {h};

  StatsResponse parsed;
  ASSERT_TRUE(ParseStatsResponse(EncodeStatsResponse(resp), &parsed).ok());
  EXPECT_EQ(parsed.metrics, resp.metrics);  // field-exact, all three kinds
  // Quantiles survive the trip because bucket structure is preserved.
  EXPECT_DOUBLE_EQ(parsed.metrics.histograms[0].Quantile(0.5),
                   resp.metrics.histograms[0].Quantile(0.5));
}

TEST(ProtocolTest, StatsMetricsRejectsOversizedCounts) {
  // A counter count far beyond the remaining payload must fail cleanly
  // before any allocation.
  StatsResponse resp;
  std::vector<uint8_t> payload = EncodeStatsResponse(resp);
  ASSERT_GE(payload.size(), 12u);
  const size_t counter_count_off = payload.size() - 12;
  payload[counter_count_off] = 0xff;
  payload[counter_count_off + 1] = 0xff;
  payload[counter_count_off + 2] = 0xff;
  payload[counter_count_off + 3] = 0xff;
  StatsResponse parsed;
  EXPECT_FALSE(ParseStatsResponse(payload, &parsed).ok());
}

TEST(ProtocolTest, ErrorStatusRoundTrip) {
  const Status original = Status::NotFound("no index named 'zap'");
  Status parsed = Status::OK();
  ASSERT_TRUE(ParseErrorResponse(EncodeErrorResponse(original), &parsed).ok());
  EXPECT_EQ(parsed.code(), StatusCode::kNotFound);
  EXPECT_EQ(parsed.message(), original.message());
}

TEST(ProtocolTest, RetryAfterRoundTrip) {
  RetryAfterResponse parsed;
  ASSERT_TRUE(
      ParseRetryAfterResponse(EncodeRetryAfterResponse(35), &parsed).ok());
  EXPECT_EQ(parsed.retry_after_ms, 35u);
}

TEST(ProtocolTest, TruncatedPayloadsRejected) {
  BuildIndexRequest req;
  req.name = "idx";
  req.dims = 2;
  req.points = {0.1f, 0.2f};
  const std::vector<uint8_t> full = EncodeBuildIndexRequest(req);
  for (size_t cut = 0; cut < full.size(); ++cut) {
    BuildIndexRequest out;
    EXPECT_FALSE(
        ParseBuildIndexRequest(std::span(full.data(), cut), &out).ok())
        << "accepted a payload truncated to " << cut << " bytes";
  }
}

TEST(ProtocolTest, TrailingGarbageRejected) {
  DropIndexRequest req;
  req.name = "idx";
  std::vector<uint8_t> payload = EncodeDropIndexRequest(req);
  payload.push_back(0);
  DropIndexRequest out;
  EXPECT_FALSE(ParseDropIndexRequest(payload, &out).ok());
}

TEST(ProtocolTest, HostileStringLengthRejected) {
  // A name length field of 0xffffffff must fail cleanly, not allocate 4 GB.
  WireWriter w;
  w.U32(0xffffffffu);
  const std::vector<uint8_t>& payload = w.buffer();
  DropIndexRequest out;
  EXPECT_FALSE(ParseDropIndexRequest(payload, &out).ok());
}

TEST(ProtocolTest, WireReaderBounds) {
  const uint8_t bytes[] = {1, 2, 3};
  WireReader r(bytes);
  uint32_t v32 = 0;
  EXPECT_FALSE(r.U32(&v32).ok());  // only 3 bytes left
  uint8_t v8 = 0;
  ASSERT_TRUE(r.U8(&v8).ok());
  EXPECT_EQ(v8, 1);
  EXPECT_EQ(r.remaining(), 2u);
  EXPECT_FALSE(r.ExpectEnd().ok());
  uint16_t v16 = 0;
  ASSERT_TRUE(r.U16(&v16).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
}

TEST(ProtocolTest, FloatArrayOverflowGuard) {
  // Request more floats than the payload could hold; the count * 4
  // multiplication must not wrap into a small allocation.
  WireWriter w;
  w.U32(7);
  WireReader r(w.buffer());
  std::vector<float> out;
  EXPECT_FALSE(r.FloatArray(static_cast<size_t>(1) << 62, &out).ok());
}

TEST(ProtocolTest, BulkArrayOverflowGuards) {
  // Hostile element counts fail before anything is allocated, and a count
  // one past what the payload holds fails too.
  WireWriter w;
  w.U32(7);
  w.U32(8);
  w.U32(9);
  WireReader r(w.buffer());
  std::vector<uint32_t> ids;
  EXPECT_FALSE(r.U32Array(static_cast<size_t>(1) << 62, &ids).ok());
  EXPECT_FALSE(r.U32Array(4, &ids).ok());
  std::vector<IdPair> pairs;
  EXPECT_FALSE(r.U32PairArray(static_cast<size_t>(1) << 61, &pairs).ok());
  EXPECT_FALSE(r.U32PairArray(2, &pairs).ok());
  ASSERT_TRUE(r.U32PairArray(1, &pairs).ok());
  EXPECT_EQ(pairs, (std::vector<IdPair>{{7, 8}}));
  ASSERT_TRUE(r.U32Array(1, &ids).ok());
  EXPECT_EQ(ids, std::vector<uint32_t>{9});
  EXPECT_TRUE(r.ExpectEnd().ok());
}

// Golden bytes of a join chunk and a range answer, as written by the
// byte-at-a-time encoders the bulk codecs replaced: the wire did not move.

const std::vector<IdPair> kGoldenPairs = {
    {0, 1}, {2, 0xdeadbeefu}, {0x01020304u, 7}};

const std::vector<uint8_t> kGoldenChunk = {
    0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
    0x02, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x04, 0x03, 0x02, 0x01,
    0x07, 0x00, 0x00, 0x00};

TEST(ProtocolTest, JoinChunkBytesAreGolden) {
  EXPECT_EQ(EncodeJoinChunk(kGoldenPairs), kGoldenChunk);
  JoinChunk chunk;
  ASSERT_TRUE(ParseJoinChunk(kGoldenChunk, &chunk).ok());
  EXPECT_EQ(chunk.pairs, kGoldenPairs);

  const std::vector<uint8_t> golden_frame = {
      0x50, 0x57, 0x4a, 0x53, 0x02, 0x42, 0x00, 0x00, 0x1c, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x88, 0x77, 0x66, 0x55, 0x44, 0x33, 0x22, 0x11,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0xef, 0xbe, 0xad, 0xde, 0x04, 0x03, 0x02, 0x01,
      0x07, 0x00, 0x00, 0x00};
  constexpr uint64_t kRequest = 0x1122334455667788ull;
  EXPECT_EQ(EncodeJoinChunkFrame(kRequest, kGoldenPairs), golden_frame);
  EXPECT_EQ(EncodeFrame(FrameType::kJoinChunk, kRequest, 0, kGoldenChunk),
            golden_frame);
  // An empty chunk is a bare count.
  EXPECT_EQ(EncodeJoinChunkFrame(kRequest, {}),
            EncodeFrame(FrameType::kJoinChunk, kRequest, 0,
                        EncodeJoinChunk({})));
}

TEST(ProtocolTest, RangeQueryResponseBytesAreGolden) {
  RangeQueryResponse resp;
  resp.results = {{1, 2, 3}, {}, {0xfffffffeu}};
  resp.stats.candidate_pairs = 9;
  resp.stats.distance_calls = 8;
  resp.stats.node_pairs_visited = 7;
  resp.stats.node_pairs_pruned = 6;
  resp.stats.pairs_emitted = 4;
  resp.stats.simd_batches = 3;
  resp.stats.scalar_fallbacks = 1;
  resp.has_planner = true;
  resp.achieved_recall = 0.75;
  resp.backend_used = 2;
  resp.plan_cache_hit = true;
  const std::vector<uint8_t> golden = {
      0x03, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x02, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x01, 0x00, 0x00, 0x00, 0xfe, 0xff, 0xff, 0xff, 0x09, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0x00, 0x02, 0x0a, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
      0x00, 0x00, 0x00, 0xe8, 0x3f, 0x02, 0x01};
  EXPECT_EQ(EncodeRangeQueryResponse(resp), golden);
  RangeQueryResponse parsed;
  ASSERT_TRUE(ParseRangeQueryResponse(golden, &parsed).ok());
  EXPECT_EQ(parsed.results, resp.results);
  EXPECT_EQ(parsed.stats.scalar_fallbacks, 1u);
  EXPECT_EQ(parsed.achieved_recall, 0.75);
}

/// The byte-loop word codecs, which big-endian hosts run, write the same
/// bytes as the memcpy form and read them back, on any host.
TEST(ProtocolTest, ByteLoopWordCodecsMatchGoldenBytes) {
  // The chunk body after its count.
  const std::span<const uint8_t> golden_pairs =
      std::span<const uint8_t>(kGoldenChunk).subspan(4);
  std::vector<uint8_t> bytes(golden_pairs.size());
  wire_words::PutIdPairs<false>(kGoldenPairs, bytes.data());
  EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), golden_pairs.begin()));
  std::vector<IdPair> pairs(kGoldenPairs.size());
  wire_words::GetIdPairs<false>(golden_pairs.data(), std::span<IdPair>(pairs));
  EXPECT_EQ(pairs, kGoldenPairs);

  const std::vector<uint32_t> ids = {1, 0x01020304u, 0xfffffffeu, 0};
  std::vector<uint8_t> by_loop(ids.size() * 4);
  std::vector<uint8_t> by_copy(ids.size() * 4);
  wire_words::PutWords<false>(std::span<const uint32_t>(ids), by_loop.data());
  wire_words::PutWords<wire_words::kNativeMemcpy>(
      std::span<const uint32_t>(ids), by_copy.data());
  EXPECT_EQ(by_loop, by_copy);
  EXPECT_EQ(by_loop[4], 0x04);  // little-endian on the wire
  std::vector<uint32_t> back(ids.size());
  wire_words::GetWords<false>(by_loop.data(), std::span<uint32_t>(back));
  EXPECT_EQ(back, ids);

  const std::vector<float> floats = {0.5f, -1.25f, 3.0e-38f};
  std::vector<uint8_t> float_bytes(floats.size() * 4);
  wire_words::PutWords<false>(std::span<const float>(floats),
                              float_bytes.data());
  WireWriter w;
  w.FloatArray(floats);
  EXPECT_EQ(float_bytes, w.buffer());
  std::vector<float> floats_back(floats.size());
  wire_words::GetWords<false>(float_bytes.data(),
                              std::span<float>(floats_back));
  EXPECT_EQ(floats_back, floats);
}

// ---------------------------------------------------------------------------
// The tag contract, run over every message type
// ---------------------------------------------------------------------------

using Bytes = std::vector<uint8_t>;

/// One tag entry: tag:u8 len:u32 value.
Bytes Entry(uint8_t tag, std::span<const uint8_t> value) {
  WireWriter w;
  w.U8(tag);
  w.U32(static_cast<uint32_t>(value.size()));
  w.Bytes(value.data(), value.size());
  return w.Take();
}

Bytes Concat(std::initializer_list<std::span<const uint8_t>> parts) {
  Bytes out;
  for (const auto part : parts) out.insert(out.end(), part.begin(), part.end());
  return out;
}

/// One message type: its payload without tags, its payload with each tag
/// it knows (as its encoder writes them), and a parse-then-encode round
/// trip, which drops skipped tags and writes known ones in canonical order.
struct MessageCase {
  std::string name;
  FrameType type;
  Bytes body;
  std::vector<Bytes> tagged;
  std::function<Result<Bytes>(std::span<const uint8_t>)> reencode;
};

template <typename Msg>
MessageCase Case(std::string name, FrameType type, const Msg& msg,
                 std::vector<std::function<void(Msg*)>> tags,
                 Bytes (*encode)(const Msg&),
                 Status (*parse)(std::span<const uint8_t>, Msg*)) {
  MessageCase c{std::move(name), type, encode(msg), {}, {}};
  for (const auto& set_tag : tags) {
    Msg with_tag = msg;
    set_tag(&with_tag);
    c.tagged.push_back(encode(with_tag));
  }
  c.reencode = [encode, parse](std::span<const uint8_t> payload)
      -> Result<Bytes> {
    Msg m;
    SIMJOIN_RETURN_NOT_OK(parse(payload, &m));
    return encode(m);
  };
  return c;
}

Bytes EncodeChunk(const JoinChunk& chunk) { return EncodeJoinChunk(chunk.pairs); }

Bytes EncodeError(const ErrorResponse& e) {
  return EncodeErrorResponse(Status(e.code, e.message));
}

Status ParseError(std::span<const uint8_t> payload, ErrorResponse* out) {
  Status remote = Status::OK();
  SIMJOIN_RETURN_NOT_OK(ParseErrorResponse(payload, &remote));
  out->code = remote.code();
  out->message = remote.message();
  return Status::OK();
}

Bytes EncodeRetry(const RetryAfterResponse& r) {
  return EncodeRetryAfterResponse(r.retry_after_ms);
}

obs::RequestProfile SmallProfile() {
  obs::RequestProfile p;
  p.trace_id = 9;
  p.total_wall_ns = 1000;
  p.plan = "backend=ekdb-flat";
  p.nodes.push_back({obs::kProfileNoParent, "service.range_query", 0, 1000, 0});
  p.nodes.push_back({0, "execute", 10, 900, 800});
  p.counters.push_back({"candidates", 4});
  return p;
}

std::vector<MessageCase> AllMessageCases() {
  const auto trace = [](auto* m) {
    m->trace = TraceContext{true, 0x0102030405060708ull, kTraceFlagProfile};
  };

  BuildIndexRequest build;
  build.name = "b";
  build.config.dim_order = {1, 0};
  build.dims = 2;
  build.points = {0.1f, 0.2f, 0.3f, 0.4f};
  build.backend = BackendKind::kEpsilonGrid;
  BuildIndexResponse built;
  built.num_points = 2;
  built.build_seconds = 0.5;

  RangeQueryRequest query;
  query.name = "q";
  query.epsilon = 0.1;
  query.dims = 2;
  query.queries = {0.5f, 0.5f};
  RangeQueryResponse answer;
  answer.results = {{1, 4, 9}, {}};
  answer.stats.distance_calls = 12;

  SimilarityJoinRequest join;
  join.name_a = "a";
  join.chunk_pairs = 64;
  JoinChunk chunk;
  chunk.pairs = {{0, 1}, {2, 3}};
  JoinDone done;
  done.total_pairs = 2;

  InsertRequest insert;
  insert.name = "u";
  insert.dims = 2;
  insert.rows = {0.25f, 0.75f};
  InsertResponse inserted;
  inserted.first_id = 7;
  inserted.count = 1;
  RemoveRequest remove;
  remove.name = "u";
  remove.ids = {3, 5};
  RemoveResponse removed;
  removed.removed = 2;
  FlushRequest flush;
  flush.name = "u";
  FlushResponse flushed;
  flushed.compacted = true;

  DropIndexRequest drop;
  drop.name = "d";
  DropIndexResponse dropped;
  dropped.found = true;

  StatsRequest stats;
  stats.drain_slowlog = true;
  StatsResponse stats_resp;
  stats_resp.requests_admitted = 3;
  stats_resp.indexes.push_back(IndexInfo{"i", 10, 2, 800, 1, 0.1, Metric::kL1});
  stats_resp.metrics.counters = {{"c", 1}};
  stats_resp.metrics.histograms.push_back(
      obs::HistogramSample{"h", {1.0, 2.0}, {1, 0, 2}, 3, 4.5});

  ErrorResponse error{StatusCode::kNotFound, "no index named 'x'"};
  RetryAfterResponse retry{25};

  std::vector<MessageCase> cases;
  cases.push_back(Case("BuildIndex", FrameType::kBuildIndex, build,
                       {trace}, EncodeBuildIndexRequest,
                       ParseBuildIndexRequest));
  cases.push_back(Case("BuildIndexOk", FrameType::kBuildIndexOk, built, {},
                       EncodeBuildIndexResponse, ParseBuildIndexResponse));
  cases.push_back(Case<RangeQueryRequest>(
      "RangeQuery", FrameType::kRangeQuery, query,
      {[](RangeQueryRequest* m) {
         m->has_planner = true;
         m->recall = 0.5;
         m->backend = static_cast<uint8_t>(BackendKind::kLsh);
       },
       trace},
      EncodeRangeQueryRequest, ParseRangeQueryRequest));
  cases.push_back(Case<RangeQueryResponse>(
      "RangeQueryResult", FrameType::kRangeQueryResult, answer,
      {[](RangeQueryResponse* m) {
         m->has_planner = true;
         m->achieved_recall = 0.9;
         m->backend_used = static_cast<uint8_t>(BackendKind::kBruteSimd);
         m->plan_cache_hit = true;
       },
       [](RangeQueryResponse* m) {
         m->has_profile = true;
         m->profile = SmallProfile();
       }},
      EncodeRangeQueryResponse, ParseRangeQueryResponse));
  cases.push_back(Case("SimilarityJoin", FrameType::kSimilarityJoin, join,
                       {trace}, EncodeSimilarityJoinRequest,
                       ParseSimilarityJoinRequest));
  cases.push_back(Case("JoinChunk", FrameType::kJoinChunk, chunk, {},
                       EncodeChunk, ParseJoinChunk));
  cases.push_back(Case("JoinDone", FrameType::kJoinDone, done, {},
                       EncodeJoinDone, ParseJoinDone));
  cases.push_back(Case("Insert", FrameType::kInsert, insert, {trace},
                       EncodeInsertRequest, ParseInsertRequest));
  cases.push_back(Case("InsertOk", FrameType::kInsertOk, inserted, {},
                       EncodeInsertResponse, ParseInsertResponse));
  cases.push_back(Case("Remove", FrameType::kRemove, remove, {trace},
                       EncodeRemoveRequest, ParseRemoveRequest));
  cases.push_back(Case("RemoveOk", FrameType::kRemoveOk, removed, {},
                       EncodeRemoveResponse, ParseRemoveResponse));
  cases.push_back(Case("Flush", FrameType::kFlush, flush, {trace},
                       EncodeFlushRequest, ParseFlushRequest));
  cases.push_back(Case("FlushOk", FrameType::kFlushOk, flushed, {},
                       EncodeFlushResponse, ParseFlushResponse));
  cases.push_back(Case("DropIndex", FrameType::kDropIndex, drop, {},
                       EncodeDropIndexRequest, ParseDropIndexRequest));
  cases.push_back(Case("DropIndexOk", FrameType::kDropIndexOk, dropped, {},
                       EncodeDropIndexResponse, ParseDropIndexResponse));
  cases.push_back(Case("Stats", FrameType::kStats, stats, {},
                       EncodeStatsRequest, ParseStatsRequest));
  cases.push_back(Case<StatsResponse>(
      "StatsResult", FrameType::kStatsResult, stats_resp,
      {[](StatsResponse* m) {
        m->has_slowlog = true;
        obs::SlowQueryEntry e;
        e.trace_id = 5;
        e.index = "i";
        e.status_message = "slow";
        e.profile = SmallProfile();
        m->slowlog = {e, obs::SlowQueryEntry{}};
        m->slowlog_recorded = 3;
        m->slowlog_evicted = 1;
      }},
      EncodeStatsResponse, ParseStatsResponse));
  cases.push_back(Case("Error", FrameType::kError, error, {}, EncodeError,
                       ParseError));
  cases.push_back(Case("RetryAfter", FrameType::kRetryAfter, retry, {},
                       EncodeRetry, ParseRetryAfterResponse));
  return cases;
}

StatusCode CodeOf(const MessageCase& c, std::span<const uint8_t> payload) {
  return c.reencode(payload).status().code();
}

void ExpectRoundTrip(const MessageCase& c, std::span<const uint8_t> payload,
                     const Bytes& want, const std::string& what) {
  auto got = c.reencode(payload);
  ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
  EXPECT_EQ(*got, want) << what;
}

TEST(ProtocolTest, EveryMessageFollowsTheTagContract) {
  const Bytes unknown = Entry(200, Bytes{1, 2, 3});
  const Bytes empty_unknown = Entry(0, {});
  for (const MessageCase& c : AllMessageCases()) {
    SCOPED_TRACE(c.name);
    ExpectRoundTrip(c, c.body, c.body, "no tags");

    Bytes all = c.body;  // the body with every tag the message knows
    Bytes interleaved = c.body;  // the same, an unknown tag before each
    std::vector<size_t> boundaries = {c.body.size()};
    std::vector<uint8_t> known;
    for (const Bytes& tagged : c.tagged) {
      ASSERT_GT(tagged.size(), c.body.size());
      ASSERT_TRUE(std::equal(c.body.begin(), c.body.end(), tagged.begin()));
      const std::span<const uint8_t> entry(tagged.data() + c.body.size(),
                                           tagged.size() - c.body.size());
      const uint8_t tag = entry[0];
      const auto value = entry.subspan(5);
      known.push_back(tag);
      const std::string what = "tag " + std::to_string(tag);
      ExpectRoundTrip(c, tagged, tagged, what);
      EXPECT_EQ(CodeOf(c, Concat({tagged, entry})),
                StatusCode::kInvalidArgument)
          << what << " duplicated";
      const Bytes longer = Concat({value, Bytes{0}});
      EXPECT_EQ(CodeOf(c, Concat({c.body, Entry(tag, longer)})),
                StatusCode::kInvalidArgument)
          << what << " one byte long";
      const Bytes shorter = Entry(tag, value.first(value.size() - 1));
      EXPECT_EQ(CodeOf(c, Concat({c.body, shorter})),
                StatusCode::kInvalidArgument)
          << what << " one byte short";
      all = Concat({all, entry});
      interleaved = Concat({interleaved, unknown, entry});
      boundaries.push_back(all.size());
    }
    if (c.tagged.size() == 2) {
      // Known tags in the other order parse to the same message.
      const size_t first = c.tagged[0].size() - c.body.size();
      const std::span<const uint8_t> tags(all.data() + c.body.size(),
                                          all.size() - c.body.size());
      ExpectRoundTrip(
          c, Concat({c.body, tags.subspan(first), tags.first(first)}), all,
          "swapped tags");
    }

    // Unknown tags are skipped, and so are the tags of other messages.
    ExpectRoundTrip(c, Concat({interleaved, empty_unknown}), all,
                    "unknown tags");
    for (uint8_t tag = 1; tag <= static_cast<uint8_t>(WireTag::kSlowlog);
         ++tag) {
      if (std::find(known.begin(), known.end(), tag) != known.end()) continue;
      ExpectRoundTrip(c, Concat({c.body, Entry(tag, Bytes{7})}), c.body,
                      "foreign tag " + std::to_string(tag));
    }

    // A len past the end of the payload.
    WireWriter overlong;
    overlong.U8(200);
    overlong.U32(4);
    overlong.U8(1);
    EXPECT_EQ(CodeOf(c, Concat({all, overlong.buffer()})),
              StatusCode::kOutOfRange);

    // Truncation at every byte: rejected, except where the cut lands on an
    // entry boundary and leaves the same message with fewer tags.
    for (size_t cut = 0; cut < all.size(); ++cut) {
      const std::span<const uint8_t> prefix(all.data(), cut);
      if (std::find(boundaries.begin(), boundaries.end(), cut) !=
          boundaries.end()) {
        ExpectRoundTrip(c, prefix, Bytes(prefix.begin(), prefix.end()),
                        "cut at boundary " + std::to_string(cut));
      } else {
        EXPECT_FALSE(c.reencode(prefix).ok()) << "cut at " << cut;
      }
    }

    // A version-1 header is rejected before the payload is looked at.
    Bytes frame = EncodeFrame(c.type, 1, 0, all);
    frame[4] = 1;
    FrameDecoder decoder;
    decoder.Append(frame.data(), frame.size());
    Frame out;
    bool got = false;
    EXPECT_EQ(decoder.Next(&out, &got).code(), StatusCode::kInvalidArgument);
  }
}

}  // namespace
}  // namespace simjoin
