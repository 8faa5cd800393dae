// Wire tests for the observability tags: kTrace on requests (round trip on
// every request type, byte-identity without it, truncation at every byte),
// kProfile on the EXPLAIN ANALYZE response, and kSlowlog on the Stats
// response.

#include <set>
#include <vector>

#include "service/protocol.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace {

/// Bytes of one kTrace entry: tag, len, trace_id:u64 flags:u8.
constexpr size_t kTraceEntryBytes = 1 + 4 + 9;

TraceContext MakeTrace(uint64_t id = 0x1122334455667788ull,
                       uint8_t flags = kTraceFlagProfile) {
  TraceContext t;
  t.present = true;
  t.trace_id = id;
  t.flags = flags;
  return t;
}

obs::RequestProfile MakeProfile() {
  obs::RequestProfile p;
  p.trace_id = 0xfeed;
  p.total_wall_ns = 123456;
  p.plan = "backend=ekdb-flat eps=0.1";
  p.nodes.push_back({obs::kProfileNoParent, "service.range_query", 0, 123456, 0});
  p.nodes.push_back({0, "queue", 0, 1000, 0});
  p.nodes.push_back({0, "execute", 1000, 122456, 98765});
  p.counters.push_back({"candidates", 88});
  p.counters.push_back({"distance_calls", 88});
  p.dropped_nodes = 2;
  return p;
}

TEST(ProtocolTraceTest, GeneratedIdsAreNonzeroAndDistinct) {
  std::set<uint64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t id = GenerateTraceId();
    EXPECT_NE(id, 0u);
    seen.insert(id);
  }
  EXPECT_EQ(seen.size(), 1000u);
}

TEST(ProtocolTraceTest, AbsentContextLeavesPayloadByteIdentical) {
  RangeQueryRequest req;
  req.name = "idx";
  req.epsilon = 0.1;
  req.dims = 1;
  req.queries = {0.5f};
  const std::vector<uint8_t> untraced = EncodeRangeQueryRequest(req);
  req.trace = MakeTrace();
  const std::vector<uint8_t> traced = EncodeRangeQueryRequest(req);
  // The tag is purely additive: strip its entry and the remaining bytes are
  // exactly the untraced payload.
  ASSERT_EQ(traced.size(), untraced.size() + kTraceEntryBytes);
  EXPECT_TRUE(std::equal(untraced.begin(), untraced.end(), traced.begin()));
  EXPECT_EQ(traced[untraced.size()], static_cast<uint8_t>(WireTag::kTrace));

  std::vector<uint8_t> via_append = untraced;
  AppendTraceContext(req.trace, &via_append);
  EXPECT_EQ(via_append, traced);
  // present == false makes AppendTraceContext a no-op.
  std::vector<uint8_t> untouched = untraced;
  AppendTraceContext(TraceContext{}, &untouched);
  EXPECT_EQ(untouched, untraced);
}

TEST(ProtocolTraceTest, RangeQueryTraceRoundTripsWithAndWithoutPlanner) {
  RangeQueryRequest req;
  req.name = "idx";
  req.epsilon = 0.07;
  req.dims = 2;
  req.queries = {0.5f, 0.5f, 0.9f, 0.1f};
  req.trace = MakeTrace(42, kTraceFlagProfile);
  RangeQueryRequest out;
  ASSERT_TRUE(ParseRangeQueryRequest(EncodeRangeQueryRequest(req), &out).ok());
  EXPECT_EQ(out.trace, req.trace);
  EXPECT_TRUE(out.trace.profile());
  EXPECT_FALSE(out.has_planner);
  EXPECT_EQ(out.queries, req.queries);

  // Both tags together.
  req.has_planner = true;
  req.recall = 0.8;
  RangeQueryRequest both;
  ASSERT_TRUE(
      ParseRangeQueryRequest(EncodeRangeQueryRequest(req), &both).ok());
  EXPECT_TRUE(both.has_planner);
  EXPECT_EQ(both.recall, 0.8);
  EXPECT_EQ(both.trace, req.trace);
}

TEST(ProtocolTraceTest, EveryRequestTypeCarriesTheSuffix) {
  const TraceContext trace = MakeTrace(7, 0);

  BuildIndexRequest build;
  build.name = "b";
  build.dims = 1;
  build.points = {0.5f};
  build.trace = trace;
  BuildIndexRequest build_out;
  ASSERT_TRUE(
      ParseBuildIndexRequest(EncodeBuildIndexRequest(build), &build_out).ok());
  EXPECT_EQ(build_out.trace, trace);

  // ... including after BuildIndex's backend/on_disk bytes.
  build.on_disk = true;
  ASSERT_TRUE(
      ParseBuildIndexRequest(EncodeBuildIndexRequest(build), &build_out).ok());
  EXPECT_EQ(build_out.trace, trace);
  EXPECT_TRUE(build_out.on_disk);

  SimilarityJoinRequest join;
  join.name_a = "a";
  join.trace = trace;
  SimilarityJoinRequest join_out;
  ASSERT_TRUE(
      ParseSimilarityJoinRequest(EncodeSimilarityJoinRequest(join), &join_out)
          .ok());
  EXPECT_EQ(join_out.trace, trace);

  InsertRequest ins;
  ins.name = "u";
  ins.dims = 1;
  ins.rows = {0.25f};
  ins.trace = trace;
  InsertRequest ins_out;
  ASSERT_TRUE(ParseInsertRequest(EncodeInsertRequest(ins), &ins_out).ok());
  EXPECT_EQ(ins_out.trace, trace);

  RemoveRequest rem;
  rem.name = "u";
  rem.ids = {1, 2, 3};
  rem.trace = trace;
  RemoveRequest rem_out;
  ASSERT_TRUE(ParseRemoveRequest(EncodeRemoveRequest(rem), &rem_out).ok());
  EXPECT_EQ(rem_out.trace, trace);

  FlushRequest flush;
  flush.name = "u";
  flush.trace = trace;
  FlushRequest flush_out;
  ASSERT_TRUE(ParseFlushRequest(EncodeFlushRequest(flush), &flush_out).ok());
  EXPECT_EQ(flush_out.trace, trace);
}

TEST(ProtocolTraceTest, TruncatedSuffixRejectedAtEveryByte) {
  // Every partial kTrace entry is a framing error; dropping the whole entry
  // leaves the payload without the tag.
  RangeQueryRequest req;
  req.name = "t";
  req.epsilon = 0.1;
  req.dims = 2;
  req.queries = {0.1f, 0.2f};
  req.trace = MakeTrace();
  RangeQueryRequest out;
  for (const bool planner : {false, true}) {
    req.has_planner = planner;
    req.recall = 0.5;
    const std::vector<uint8_t> full = EncodeRangeQueryRequest(req);
    for (size_t drop = 1; drop < kTraceEntryBytes; ++drop) {
      std::vector<uint8_t> cut(full.begin(), full.end() - drop);
      EXPECT_FALSE(ParseRangeQueryRequest(cut, &out).ok()) << "drop " << drop;
    }
    std::vector<uint8_t> untraced(full.begin(), full.end() - kTraceEntryBytes);
    ASSERT_TRUE(ParseRangeQueryRequest(untraced, &out).ok());
    EXPECT_FALSE(out.trace.present);
    EXPECT_EQ(out.has_planner, planner);
  }
}

TEST(ProtocolTraceTest, ProfileResponseExtensionRoundTrips) {
  RangeQueryResponse resp;
  resp.results = {{1, 5}, {}};
  resp.stats.distance_calls = 9;
  resp.has_profile = true;
  resp.profile = MakeProfile();
  RangeQueryResponse parsed;
  ASSERT_TRUE(
      ParseRangeQueryResponse(EncodeRangeQueryResponse(resp), &parsed).ok());
  ASSERT_TRUE(parsed.has_profile);
  EXPECT_EQ(parsed.profile, resp.profile);
  EXPECT_EQ(parsed.results, resp.results);
  EXPECT_FALSE(parsed.has_planner);

  // Stacked after the planner echo.
  resp.has_planner = true;
  resp.achieved_recall = 0.93;
  resp.backend_used = 3;
  RangeQueryResponse both;
  ASSERT_TRUE(
      ParseRangeQueryResponse(EncodeRangeQueryResponse(resp), &both).ok());
  ASSERT_TRUE(both.has_planner);
  ASSERT_TRUE(both.has_profile);
  EXPECT_EQ(both.achieved_recall, 0.93);
  EXPECT_EQ(both.profile, resp.profile);
}

TEST(ProtocolTraceTest, ProfileExtensionTruncationRejected) {
  RangeQueryResponse resp;
  resp.results = {{2}};
  resp.has_profile = true;
  resp.profile = MakeProfile();
  const std::vector<uint8_t> full = EncodeRangeQueryResponse(resp);
  resp.has_profile = false;
  const std::vector<uint8_t> unprofiled = EncodeRangeQueryResponse(resp);
  RangeQueryResponse out;
  // The kProfile entry is length-prefixed, so every partial entry is
  // rejected — the results block can never be misread.
  for (size_t drop = 1; drop < full.size() - unprofiled.size(); ++drop) {
    std::vector<uint8_t> cut(full.begin(), full.end() - drop);
    EXPECT_FALSE(ParseRangeQueryResponse(cut, &out).ok()) << "drop " << drop;
  }
  ASSERT_TRUE(ParseRangeQueryResponse(unprofiled, &out).ok());
  EXPECT_FALSE(out.has_profile);

  // A profile length pointing outside the payload is rejected.
  std::vector<uint8_t> bad_len = full;
  for (size_t i = 1; i <= 4; ++i) bad_len[unprofiled.size() + i] = 0xff;
  EXPECT_EQ(ParseRangeQueryResponse(bad_len, &out).code(),
            StatusCode::kOutOfRange);
}

TEST(ProtocolTraceTest, ProfileParserRejectsHostileCounts) {
  // Hand-crafted body claiming more nodes than kMaxProfileNodes.
  WireWriter w;
  w.U32(obs::kMaxProfileNodes + 1);
  WireReader r(w.buffer());
  obs::RequestProfile out;
  EXPECT_FALSE(ParseRequestProfile(&r, &out).ok());

  // And a node count whose minimum encoding exceeds the remaining bytes.
  WireWriter w2;
  w2.U32(100);
  w2.U32(0);  // far fewer bytes than 100 nodes need
  WireReader r2(w2.buffer());
  EXPECT_FALSE(ParseRequestProfile(&r2, &out).ok());
}

TEST(ProtocolTraceTest, StatsRequestLegacyAndDrainShapes) {
  // The flags byte is part of the fixed body: the empty payload of the
  // first protocol revision is rejected.
  StatsRequest out;
  EXPECT_FALSE(ParseStatsRequest({}, &out).ok());

  for (const bool drain : {false, true}) {
    StatsRequest req;
    req.drain_slowlog = drain;
    const std::vector<uint8_t> bytes = EncodeStatsRequest(req);
    ASSERT_EQ(bytes.size(), 1u);
    ASSERT_TRUE(ParseStatsRequest(bytes, &out).ok());
    EXPECT_EQ(out.drain_slowlog, drain);
  }
}

TEST(ProtocolTraceTest, StatsResponseSlowlogBlockRoundTrips) {
  StatsResponse resp;
  resp.requests_admitted = 10;
  resp.has_slowlog = true;
  resp.slowlog_recorded = 5;
  resp.slowlog_evicted = 2;
  obs::SlowQueryEntry e;
  e.unix_micros = 1'700'000'000'000'000ull;
  e.trace_id = 0xabc;
  e.request_id = 9;
  e.op = 2;
  e.index = "base";
  e.wall_us = 1500;
  e.status_code = 4;
  e.status_message = "deadline exceeded";
  e.profile = MakeProfile();
  resp.slowlog.push_back(e);
  resp.slowlog.push_back(obs::SlowQueryEntry{});  // minimal entry

  StatsResponse parsed;
  ASSERT_TRUE(ParseStatsResponse(EncodeStatsResponse(resp), &parsed).ok());
  ASSERT_TRUE(parsed.has_slowlog);
  EXPECT_EQ(parsed.slowlog, resp.slowlog);
  EXPECT_EQ(parsed.slowlog_recorded, 5u);
  EXPECT_EQ(parsed.slowlog_evicted, 2u);

  // Without the kSlowlog tag the flag is off.
  resp.has_slowlog = false;
  ASSERT_TRUE(ParseStatsResponse(EncodeStatsResponse(resp), &parsed).ok());
  EXPECT_FALSE(parsed.has_slowlog);
  EXPECT_TRUE(parsed.slowlog.empty());
}

TEST(ProtocolTraceTest, StatsSlowlogTruncationRejected) {
  StatsResponse resp;
  resp.has_slowlog = true;
  obs::SlowQueryEntry e;
  e.index = "x";
  e.profile = MakeProfile();
  resp.slowlog.push_back(e);
  const std::vector<uint8_t> full = EncodeStatsResponse(resp);
  const size_t undrained_size = EncodeStatsResponse([&] {
                               StatsResponse r = resp;
                               r.has_slowlog = false;
                               return r;
                             }())
                                 .size();
  StatsResponse out;
  for (size_t drop = 1; drop < full.size() - undrained_size; ++drop) {
    std::vector<uint8_t> cut(full.begin(), full.end() - drop);
    EXPECT_FALSE(ParseStatsResponse(cut, &out).ok()) << "drop " << drop;
  }
}

}  // namespace
}  // namespace simjoin
