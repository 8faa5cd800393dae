// fuzz_protocol — randomized robustness tester for the service wire codec.
//
// The decoder is the one component that parses attacker-controlled bytes, so
// its contract is absolute: any byte stream, fed in any chunking, either
// yields valid frames or a Status — never a crash, hang, or out-of-bounds
// read.  This tool soaks that contract seven ways per iteration:
//
//   1. pure noise      — random bytes through the FrameDecoder
//   2. round-trips     — random valid messages encode -> parse -> compare
//   3. bit flips       — valid frame streams with random mutations
//   4. truncations     — valid frames cut off at every kind of boundary
//   5. interleaving    — pipelined RangeQuery frames from several simulated
//                        connections, delivered in arbitrarily interleaved
//                        chunks (the arrival pattern the fusion collector
//                        batches across), each stream decoding exactly its
//                        own frames in order
//   6. malformed updates — Insert/Remove/Flush payloads truncated at every
//                        byte and with count/dims fields patched to extremes
//   7. tag lists       — random tag/len/value lists appended to valid
//                        payloads of every message type: unknown tags (must
//                        not change the parse outcome), lengths past the
//                        payload end (must fail), duplicates, wrong lengths,
//                        and random values of every known tag
//
// Random valid messages also carry every optional tag with coin-flip
// probability, so every generic pass (round-trip, bit flips, truncation)
// soaks the tagged shapes too.
//
// Payloads of frames the decoder does produce are handed to the matching
// Parse* function, which must also only ever return a Status.  Run it under
// ASan/UBSan (scripts/check_asan_ubsan.sh) to turn silent over-reads into
// hard failures:
//
//   ./tools/fuzz_protocol --iterations 2000 --seed 1
//   ./tools/fuzz_protocol --iterations 0      # run until interrupted

#include <algorithm>
#include <cstring>
#include <iostream>

#include "common/args.h"
#include "common/rng.h"
#include "service/protocol.h"

namespace simjoin {
namespace {

std::string RandomName(Rng* rng, size_t max_len = 24) {
  std::string s(rng->UniformInt(max_len + 1), 'x');
  for (char& c : s) c = static_cast<char>('a' + rng->UniformInt(26u));
  return s;
}

std::vector<float> RandomFloats(Rng* rng, size_t count) {
  std::vector<float> v(count);
  for (float& f : v) f = rng->UniformFloat();
  return v;
}

/// Half the request frames carry a trace context so the kTrace tag rides
/// every generic pass; a quarter of those ask for a profile, and a few get
/// hostile flag bytes (unknown bits must parse, not reject).
TraceContext MaybeTrace(Rng* rng) {
  TraceContext ctx;
  if (!rng->Bernoulli(0.5)) return ctx;
  ctx.present = true;
  ctx.trace_id = rng->Next();
  ctx.flags = rng->Bernoulli(0.25)
                  ? static_cast<uint8_t>(rng->UniformInt(256u))
                  : (rng->Bernoulli(0.5) ? kTraceFlagProfile : 0);
  return ctx;
}

/// Small random phase tree + counters for response-profile fuzzing.
obs::RequestProfile RandomProfile(Rng* rng) {
  obs::RequestProfile p;
  p.trace_id = rng->Next();
  p.total_wall_ns = rng->Next();
  p.plan = RandomName(rng, 48);
  p.nodes.resize(rng->UniformInt(6u));
  for (size_t i = 0; i < p.nodes.size(); ++i) {
    obs::ProfileNode& n = p.nodes[i];
    n.name = RandomName(rng, 16);
    n.parent = (i == 0 || rng->Bernoulli(0.3))
                   ? obs::kProfileNoParent
                   : static_cast<uint32_t>(rng->UniformInt(i));
    n.start_ns = rng->UniformInt(1u << 20);
    n.wall_ns = rng->UniformInt(1u << 20);
    n.cpu_ns = rng->UniformInt(1u << 20);
  }
  p.counters.resize(rng->UniformInt(4u));
  for (obs::ProfileCounter& c : p.counters) {
    c.name = RandomName(rng, 16);
    c.value = rng->Next();
  }
  p.dropped_nodes = rng->UniformInt(8u);
  return p;
}

obs::SlowQueryEntry RandomSlowEntry(Rng* rng) {
  obs::SlowQueryEntry e;
  e.unix_micros = rng->Next();
  e.trace_id = rng->Next();
  e.request_id = rng->Next();
  e.op = static_cast<uint8_t>(rng->UniformInt(256u));
  e.index = RandomName(rng, 16);
  e.wall_us = rng->Next();
  e.status_code = static_cast<uint32_t>(rng->UniformInt(16u));
  if (rng->Bernoulli(0.5)) e.status_message = RandomName(rng, 32);
  if (rng->Bernoulli(0.5)) e.profile = RandomProfile(rng);
  return e;
}

/// One message: frame type plus encoded payload.
struct Message {
  FrameType type;
  std::vector<uint8_t> payload;
};

/// Encodes one random, structurally valid message.
Message RandomValidMessage(Rng* rng) {
  switch (rng->UniformInt(15u)) {
    case 0: {
      BuildIndexRequest req;
      req.name = RandomName(rng);
      req.config.epsilon = rng->Uniform(0.01, 0.5);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.num_threads = static_cast<uint32_t>(rng->UniformInt(5u));
      req.points = RandomFloats(rng, req.dims * rng->UniformInt(64u));
      if (rng->Bernoulli(0.5)) req.backend = BackendKind::kEpsilonGrid;
      req.on_disk = rng->Bernoulli(0.25);
      req.trace = MaybeTrace(rng);
      return {FrameType::kBuildIndex, EncodeBuildIndexRequest(req)};
    }
    case 1: {
      RangeQueryRequest req;
      req.name = RandomName(rng);
      req.epsilon = rng->Uniform(0.0, 0.5);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.queries = RandomFloats(rng, req.dims * rng->UniformInt(16u));
      if (rng->Bernoulli(0.5)) {
        req.has_planner = true;
        req.recall = rng->Uniform(0.05, 1.0);
        req.backend = rng->Bernoulli(0.2)
                          ? kWireBackendAuto
                          : static_cast<uint8_t>(rng->UniformInt(4u));
      }
      req.trace = MaybeTrace(rng);
      return {FrameType::kRangeQuery, EncodeRangeQueryRequest(req)};
    }
    case 2: {
      SimilarityJoinRequest req;
      req.name_a = RandomName(rng);
      if (rng->Bernoulli(0.5)) req.name_b = RandomName(rng);
      req.epsilon = rng->Uniform(0.0, 0.5);
      req.num_threads = static_cast<uint32_t>(rng->UniformInt(9u));
      req.chunk_pairs = static_cast<uint32_t>(rng->UniformInt(10000u));
      req.trace = MaybeTrace(rng);
      return {FrameType::kSimilarityJoin, EncodeSimilarityJoinRequest(req)};
    }
    case 3: {
      std::vector<IdPair> pairs(rng->UniformInt(200u));
      for (IdPair& p : pairs) {
        p.first = static_cast<PointId>(rng->UniformInt(1u << 20));
        p.second = static_cast<PointId>(rng->UniformInt(1u << 20));
      }
      return {FrameType::kJoinChunk, EncodeJoinChunk(pairs)};
    }
    case 4: {
      JoinDone done;
      done.total_pairs = rng->Next();
      done.stats.candidate_pairs = rng->Next();
      done.stats.pairs_emitted = rng->Next();
      return {FrameType::kJoinDone, EncodeJoinDone(done)};
    }
    case 5: {
      RangeQueryResponse resp;
      resp.results.resize(rng->UniformInt(8u));
      for (auto& ids : resp.results) {
        ids.resize(rng->UniformInt(32u));
        for (PointId& p : ids) p = static_cast<PointId>(rng->Next() >> 40);
      }
      if (rng->Bernoulli(0.5)) {
        resp.has_planner = true;
        resp.achieved_recall = rng->Uniform(0.0, 1.0);
        resp.backend_used = static_cast<uint8_t>(rng->UniformInt(4u));
        resp.plan_cache_hit = rng->Bernoulli(0.5);
      }
      if (rng->Bernoulli(0.5)) {
        resp.has_profile = true;
        resp.profile = RandomProfile(rng);
      }
      return {FrameType::kRangeQueryResult, EncodeRangeQueryResponse(resp)};
    }
    case 6: {
      StatsResponse resp;
      resp.requests_admitted = rng->Next();
      resp.indexes.resize(rng->UniformInt(4u));
      for (IndexInfo& info : resp.indexes) {
        info.name = RandomName(rng);
        info.bytes = rng->Next();
      }
      // Random counters, gauges, and histograms so the metrics block is
      // soaked through the same mutation and truncation passes as
      // everything else.
      resp.metrics.counters.resize(rng->UniformInt(6u));
      for (obs::CounterSample& c : resp.metrics.counters) {
        c.name = RandomName(rng);
        c.value = rng->Next();
      }
      resp.metrics.gauges.resize(rng->UniformInt(6u));
      for (obs::GaugeSample& g : resp.metrics.gauges) {
        g.name = RandomName(rng);
        g.value = static_cast<int64_t>(rng->Next());
      }
      resp.metrics.histograms.resize(rng->UniformInt(4u));
      for (obs::HistogramSample& h : resp.metrics.histograms) {
        h.name = RandomName(rng);
        h.boundaries.resize(rng->UniformInt(8u));
        double bound = 0.0;
        for (double& b : h.boundaries) b = (bound += rng->Uniform(0.1, 10.0));
        h.counts.assign(h.boundaries.size() + 1, 0);
        h.count = 0;
        for (uint64_t& c : h.counts) {
          c = rng->UniformInt(1u << 16);
          h.count += c;
        }
        h.sum = rng->Uniform(0.0, 1e6);
      }
      // The kSlowlog tag, including the empty drain a server without a
      // configured log answers.
      if (rng->Bernoulli(0.5)) {
        resp.has_slowlog = true;
        resp.slowlog.resize(rng->UniformInt(4u));
        for (obs::SlowQueryEntry& e : resp.slowlog) e = RandomSlowEntry(rng);
        resp.slowlog_recorded = rng->Next();
        resp.slowlog_evicted = rng->Next();
      }
      return {FrameType::kStatsResult, EncodeStatsResponse(resp)};
    }
    case 7:
      return {FrameType::kError, EncodeErrorResponse(Status::NotFound(
                                     "fuzz " + RandomName(rng, 64)))};
    case 8: {
      DropIndexRequest req;
      req.name = RandomName(rng);
      return {FrameType::kDropIndex, EncodeDropIndexRequest(req)};
    }
    case 9: {
      InsertRequest req;
      req.name = RandomName(rng);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.rows = RandomFloats(rng, req.dims * (1 + rng->UniformInt(32u)));
      req.trace = MaybeTrace(rng);
      return {FrameType::kInsert, EncodeInsertRequest(req)};
    }
    case 10: {
      RemoveRequest req;
      req.name = RandomName(rng);
      req.ids.resize(1 + rng->UniformInt(64u));
      // Mix plausible ids with extremes so mutated frames probe the
      // decoder's id handling, not just small integers.
      for (PointId& p : req.ids) {
        p = rng->Bernoulli(0.25)
                ? static_cast<PointId>(rng->Next())
                : static_cast<PointId>(rng->UniformInt(1u << 16));
      }
      req.trace = MaybeTrace(rng);
      return {FrameType::kRemove, EncodeRemoveRequest(req)};
    }
    case 11: {
      FlushRequest req;
      req.name = RandomName(rng);
      req.trace = MaybeTrace(rng);
      return {FrameType::kFlush, EncodeFlushRequest(req)};
    }
    case 12: {
      // Update responses ride the same mutation/truncation passes.
      switch (rng->UniformInt(3u)) {
        case 0: {
          InsertResponse resp;
          resp.first_id = static_cast<PointId>(rng->Next());
          resp.count = static_cast<uint32_t>(rng->UniformInt(1u << 20));
          resp.delta_points = rng->Next();
          resp.tombstones = rng->Next();
          return {FrameType::kInsertOk, EncodeInsertResponse(resp)};
        }
        case 1: {
          RemoveResponse resp;
          resp.removed = static_cast<uint32_t>(rng->UniformInt(1u << 20));
          resp.missing = static_cast<uint32_t>(rng->UniformInt(1u << 20));
          resp.delta_points = rng->Next();
          resp.tombstones = rng->Next();
          return {FrameType::kRemoveOk, EncodeRemoveResponse(resp)};
        }
        default: {
          FlushResponse resp;
          resp.compacted = rng->Bernoulli(0.5);
          resp.base_points = rng->Next();
          resp.delta_points = rng->Next();
          resp.tombstones = rng->Next();
          resp.index_bytes = rng->Next();
          return {FrameType::kFlushOk, EncodeFlushResponse(resp)};
        }
      }
    }
    case 13: {
      StatsRequest req;
      req.drain_slowlog = rng->Bernoulli(0.75);
      return {FrameType::kStats, EncodeStatsRequest(req)};
    }
    default:
      return {FrameType::kPing, {}};
  }
}

/// Encodes one random, structurally valid frame.
std::vector<uint8_t> RandomValidFrame(Rng* rng) {
  const Message msg = RandomValidMessage(rng);
  return EncodeFrame(msg.type, rng->Next(),
                     static_cast<uint32_t>(rng->UniformInt(1000u)),
                     msg.payload);
}

/// Pass 6: hand-crafted malformed update payloads — the shapes a buggy or
/// hostile client is most likely to send.  Every parse must return a
/// Status (usually !ok); only a crash or sanitizer report fails the pass.
void MalformedUpdateFrames(Rng* rng) {
  InsertRequest ins;
  ins.name = RandomName(rng, 12);
  ins.dims = 4;
  ins.rows = RandomFloats(rng, 4 * (1 + rng->UniformInt(8u)));
  const std::vector<uint8_t> ins_payload = EncodeInsertRequest(ins);
  RemoveRequest rem;
  rem.name = RandomName(rng, 12);
  rem.ids.resize(1 + rng->UniformInt(16u));
  for (PointId& p : rem.ids) p = static_cast<PointId>(rng->Next());
  const std::vector<uint8_t> rem_payload = EncodeRemoveRequest(rem);

  // Short payloads: every truncation point of both request shapes.
  for (size_t cut = 0; cut < ins_payload.size(); ++cut) {
    InsertRequest out;
    (void)ParseInsertRequest(
        std::span<const uint8_t>(ins_payload.data(), cut), &out);
  }
  for (size_t cut = 0; cut < rem_payload.size(); ++cut) {
    RemoveRequest out;
    (void)ParseRemoveRequest(
        std::span<const uint8_t>(rem_payload.data(), cut), &out);
  }

  // Count fields inflated to extremes (overflow probes): patch the u32
  // immediately after the length-prefixed name.
  auto patch_count = [&](std::vector<uint8_t> bytes, size_t offset,
                         uint32_t value) {
    if (offset + 4 <= bytes.size()) {
      std::memcpy(bytes.data() + offset, &value, sizeof(value));
    }
    return bytes;
  };
  const size_t ins_count_off = 4 + ins.name.size() + 4;  // name, dims
  for (uint32_t v : {0u, 1u, 0x7FFFFFFFu, 0xFFFFFFFFu}) {
    InsertRequest out;
    (void)ParseInsertRequest(patch_count(ins_payload, ins_count_off, v),
                             &out);
    RemoveRequest rout;
    (void)ParseRemoveRequest(patch_count(rem_payload, 4 + rem.name.size(), v),
                             &rout);
  }

  // Zero-dims insert and empty-name updates must be rejected, not crash.
  {
    InsertRequest out;
    (void)ParseInsertRequest(patch_count(ins_payload, 4 + ins.name.size(), 0),
                             &out);
    FlushRequest empty;
    empty.name = "";
    FlushRequest fout;
    (void)ParseFlushRequest(EncodeFlushRequest(empty), &fout);
  }
}

/// Parses one payload with its type's Parse function.  Statuses are fine;
/// crashing is the only way to fail.  Types without a payload contract
/// (ping, pong, shutdown) parse as OK.
Status ParseByType(FrameType type, std::span<const uint8_t> payload) {
  switch (type) {
    case FrameType::kBuildIndex: {
      BuildIndexRequest m;
      return ParseBuildIndexRequest(payload, &m);
    }
    case FrameType::kRangeQuery: {
      RangeQueryRequest m;
      return ParseRangeQueryRequest(payload, &m);
    }
    case FrameType::kSimilarityJoin: {
      SimilarityJoinRequest m;
      return ParseSimilarityJoinRequest(payload, &m);
    }
    case FrameType::kDropIndex: {
      DropIndexRequest m;
      return ParseDropIndexRequest(payload, &m);
    }
    case FrameType::kBuildIndexOk: {
      BuildIndexResponse m;
      return ParseBuildIndexResponse(payload, &m);
    }
    case FrameType::kRangeQueryResult: {
      RangeQueryResponse m;
      return ParseRangeQueryResponse(payload, &m);
    }
    case FrameType::kJoinChunk: {
      JoinChunk m;
      return ParseJoinChunk(payload, &m);
    }
    case FrameType::kJoinDone: {
      JoinDone m;
      return ParseJoinDone(payload, &m);
    }
    case FrameType::kStatsResult: {
      StatsResponse m;
      return ParseStatsResponse(payload, &m);
    }
    case FrameType::kDropIndexOk: {
      DropIndexResponse m;
      return ParseDropIndexResponse(payload, &m);
    }
    case FrameType::kError: {
      Status m = Status::OK();
      return ParseErrorResponse(payload, &m);
    }
    case FrameType::kRetryAfter: {
      RetryAfterResponse m;
      return ParseRetryAfterResponse(payload, &m);
    }
    case FrameType::kInsert: {
      InsertRequest m;
      return ParseInsertRequest(payload, &m);
    }
    case FrameType::kRemove: {
      RemoveRequest m;
      return ParseRemoveRequest(payload, &m);
    }
    case FrameType::kFlush: {
      FlushRequest m;
      return ParseFlushRequest(payload, &m);
    }
    case FrameType::kInsertOk: {
      InsertResponse m;
      return ParseInsertResponse(payload, &m);
    }
    case FrameType::kRemoveOk: {
      RemoveResponse m;
      return ParseRemoveResponse(payload, &m);
    }
    case FrameType::kFlushOk: {
      FlushResponse m;
      return ParseFlushResponse(payload, &m);
    }
    case FrameType::kStats: {
      StatsRequest m;
      return ParseStatsRequest(payload, &m);
    }
    default:
      return Status::OK();
  }
}

/// Appends one tag entry whose len field is `len` but whose value is
/// `value` (they differ for overlong entries).
void AppendEntry(uint8_t tag, uint32_t len, std::span<const uint8_t> value,
                 std::vector<uint8_t>* payload) {
  WireWriter w;
  w.U8(tag);
  w.U32(len);
  w.Bytes(value.data(), value.size());
  payload->insert(payload->end(), w.buffer().begin(), w.buffer().end());
}

std::vector<uint8_t> RandomBytes(Rng* rng, size_t max_len) {
  std::vector<uint8_t> v(rng->UniformInt(max_len + 1));
  for (uint8_t& b : v) b = static_cast<uint8_t>(rng->Next());
  return v;
}

/// Pass 7: random tag lists appended to a valid payload of a random message
/// type.  Tags are the only optional data on the wire, so this one pass
/// covers every extension.
bool TagLists(Rng* rng, uint64_t seed, uint64_t iter) {
  const Message msg = RandomValidMessage(rng);
  if (msg.type == FrameType::kPing) return true;  // no payload contract
  const bool base_ok = ParseByType(msg.type, msg.payload).ok();

  // Unknown tags (0 and everything past the known range) are skipped: the
  // parse outcome must not change.
  constexpr unsigned kLastKnownTag = static_cast<unsigned>(WireTag::kSlowlog);
  std::vector<uint8_t> unknown = msg.payload;
  for (size_t i = 0, n = 1 + rng->UniformInt(3u); i < n; ++i) {
    const auto tag = static_cast<uint8_t>(
        rng->Bernoulli(0.2)
            ? 0
            : kLastKnownTag + 1 + rng->UniformInt(255u - kLastKnownTag));
    const std::vector<uint8_t> value = RandomBytes(rng, 24);
    AppendEntry(tag, static_cast<uint32_t>(value.size()), value, &unknown);
  }
  if (ParseByType(msg.type, unknown).ok() != base_ok) {
    std::cerr << "FAIL: unknown tags changed the parse outcome (seed=" << seed
              << " iter=" << iter << ")\n";
    return false;
  }

  // A len past the payload end must fail.
  std::vector<uint8_t> overlong = msg.payload;
  const std::vector<uint8_t> value = RandomBytes(rng, 16);
  AppendEntry(static_cast<uint8_t>(rng->UniformInt(256u)),
              static_cast<uint32_t>(value.size() + 1 +
                                    rng->UniformInt(1u << 20)),
              value, &overlong);
  if (ParseByType(msg.type, overlong).ok()) {
    std::cerr << "FAIL: overlong tag accepted (seed=" << seed
              << " iter=" << iter << ")\n";
    return false;
  }

  // Known tag numbers with random values, duplicates, wrong lengths, and
  // extreme len fields, parsed whole and truncated at random points: only
  // a Status may come back.
  std::vector<uint8_t> hostile = msg.payload;
  std::vector<uint8_t> last;
  for (size_t i = 0, n = 1 + rng->UniformInt(4u); i < n; ++i) {
    const size_t mark = hostile.size();
    if (!last.empty() && rng->Bernoulli(0.3)) {
      hostile.insert(hostile.end(), last.begin(), last.end());  // duplicate
      continue;
    }
    const auto tag = static_cast<uint8_t>(rng->UniformInt(kLastKnownTag + 1));
    // Lengths near the fixed value sizes (9 and 10) hit the wrong-length
    // checks; larger random values reach the variable-length parsers.
    const std::vector<uint8_t> v =
        rng->Bernoulli(0.5) ? RandomBytes(rng, 12) : RandomBytes(rng, 256);
    const uint32_t len = rng->Bernoulli(0.1)
                             ? static_cast<uint32_t>(rng->Next())
                             : static_cast<uint32_t>(v.size());
    AppendEntry(tag, len, v, &hostile);
    last.assign(hostile.begin() + static_cast<ptrdiff_t>(mark), hostile.end());
  }
  (void)ParseByType(msg.type, hostile);
  for (int i = 0; i < 4; ++i) {
    (void)ParseByType(msg.type, std::span<const uint8_t>(
                                    hostile.data(),
                                    rng->UniformInt(hostile.size() + 1)));
  }
  return true;
}

/// Feeds bytes to a decoder in random chunk sizes and parses whatever comes
/// out.  Exercises the incremental reassembly path.
void Soak(Rng* rng, std::span<const uint8_t> bytes) {
  FrameDecoder decoder(1u << 20);
  size_t off = 0;
  while (off < bytes.size()) {
    const size_t chunk =
        std::min<size_t>(1 + rng->UniformInt(97u), bytes.size() - off);
    decoder.Append(bytes.data() + off, chunk);
    off += chunk;
    while (true) {
      Frame frame;
      bool got = false;
      if (!decoder.Next(&frame, &got).ok() || !got) break;
      (void)ParseByType(frame.header.type, frame.payload);
    }
  }
}

/// Pass 5: several simulated connections each pipeline a run of RangeQuery
/// frames; delivery interleaves random-sized chunks across the connections
/// (each into its own decoder, like the io loop's per-connection buffers).
/// Every decoder must reproduce exactly its own frames, in order, with the
/// request ids and query payloads intact — the invariant the fusion
/// collector's cross-connection batching rests on.
bool InterleavedPipelines(Rng* rng, uint64_t seed, uint64_t iter) {
  struct SimConn {
    std::vector<uint8_t> stream;            // all frames, concatenated
    size_t sent = 0;                        // delivery cursor
    std::vector<uint64_t> ids;              // expected request ids, in order
    std::vector<std::vector<float>> sent_queries;  // per frame
    FrameDecoder decoder{1u << 20};
    size_t decoded = 0;
  };
  const size_t num_conns = 2 + rng->UniformInt(5u);
  std::vector<SimConn> conns(num_conns);
  for (size_t c = 0; c < num_conns; ++c) {
    const size_t pipelined = 1 + rng->UniformInt(8u);
    for (size_t f = 0; f < pipelined; ++f) {
      RangeQueryRequest req;
      req.name = RandomName(rng);
      req.epsilon = rng->Uniform(0.0, 0.5);
      req.dims = 1 + static_cast<uint32_t>(rng->UniformInt(8u));
      req.queries = RandomFloats(rng, req.dims * (1 + rng->UniformInt(8u)));
      const uint64_t id = (c << 32) | (f + 1);
      const std::vector<uint8_t> frame = EncodeFrame(
          FrameType::kRangeQuery, id,
          static_cast<uint32_t>(rng->UniformInt(1000u)),
          EncodeRangeQueryRequest(req));
      conns[c].stream.insert(conns[c].stream.end(), frame.begin(),
                             frame.end());
      conns[c].ids.push_back(id);
      conns[c].sent_queries.push_back(req.queries);
    }
  }

  // Deliver chunks from random connections until every stream drains.
  size_t remaining = num_conns;
  while (remaining > 0) {
    SimConn& conn = conns[rng->UniformInt(num_conns)];
    if (conn.sent == conn.stream.size()) continue;
    const size_t chunk = std::min<size_t>(1 + rng->UniformInt(97u),
                                          conn.stream.size() - conn.sent);
    conn.decoder.Append(conn.stream.data() + conn.sent, chunk);
    conn.sent += chunk;
    if (conn.sent == conn.stream.size()) --remaining;
    while (true) {
      Frame frame;
      bool got = false;
      const Status st = conn.decoder.Next(&frame, &got);
      if (!st.ok()) {
        std::cerr << "FAIL: pipelined stream rejected (seed=" << seed
                  << " iter=" << iter << "): " << st.ToString() << "\n";
        return false;
      }
      if (!got) break;
      if (conn.decoded >= conn.ids.size() ||
          frame.header.request_id != conn.ids[conn.decoded] ||
          frame.header.type != FrameType::kRangeQuery) {
        std::cerr << "FAIL: pipelined frame out of order (seed=" << seed
                  << " iter=" << iter << ")\n";
        return false;
      }
      RangeQueryRequest parsed;
      if (!ParseRangeQueryRequest(frame.payload, &parsed).ok() ||
          parsed.queries != conn.sent_queries[conn.decoded]) {
        std::cerr << "FAIL: pipelined payload corrupted (seed=" << seed
                  << " iter=" << iter << ")\n";
        return false;
      }
      ++conn.decoded;
    }
  }
  for (const SimConn& conn : conns) {
    if (conn.decoded != conn.ids.size() ||
        conn.decoder.buffered_bytes() != 0) {
      std::cerr << "FAIL: pipelined stream incomplete (seed=" << seed
                << " iter=" << iter << ")\n";
      return false;
    }
  }
  return true;
}

int Run(uint64_t iterations, uint64_t seed) {
  Rng rng(seed);
  uint64_t frames_ok = 0;
  for (uint64_t iter = 0; iterations == 0 || iter < iterations; ++iter) {
    // 1. Pure noise.
    std::vector<uint8_t> noise(rng.UniformInt(512u));
    for (uint8_t& b : noise) b = static_cast<uint8_t>(rng.Next());
    Soak(&rng, noise);

    // 2. Round-trip a stream of valid frames; they must all decode.
    std::vector<uint8_t> stream;
    const size_t num_frames = 1 + rng.UniformInt(4u);
    for (size_t i = 0; i < num_frames; ++i) {
      const std::vector<uint8_t> frame = RandomValidFrame(&rng);
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    {
      FrameDecoder decoder;
      decoder.Append(stream.data(), stream.size());
      size_t decoded = 0;
      while (true) {
        Frame frame;
        bool got = false;
        const Status st = decoder.Next(&frame, &got);
        if (!st.ok()) {
          std::cerr << "FAIL: valid stream rejected (seed=" << seed
                    << " iter=" << iter << "): " << st.ToString() << "\n";
          return 1;
        }
        if (!got) break;
        (void)ParseByType(frame.header.type, frame.payload);
        ++decoded;
      }
      if (decoded != num_frames || decoder.buffered_bytes() != 0) {
        std::cerr << "FAIL: decoded " << decoded << "/" << num_frames
                  << " frames, " << decoder.buffered_bytes()
                  << " bytes stranded (seed=" << seed << " iter=" << iter
                  << ")\n";
        return 1;
      }
      frames_ok += decoded;
    }

    // 3. Bit flips over the same stream.
    std::vector<uint8_t> mutated = stream;
    const size_t flips = 1 + rng.UniformInt(8u);
    for (size_t i = 0; i < flips && !mutated.empty(); ++i) {
      mutated[rng.UniformInt(mutated.size())] ^=
          static_cast<uint8_t>(1u << rng.UniformInt(8u));
    }
    Soak(&rng, mutated);

    // 4. Truncation at a random offset.
    if (!stream.empty()) {
      Soak(&rng, std::span<const uint8_t>(stream.data(),
                                          rng.UniformInt(stream.size())));
    }

    // 5. Interleaved pipelined RangeQuery streams across connections.
    if (!InterleavedPipelines(&rng, seed, iter)) return 1;

    // 6. Hand-crafted malformed update (insert/remove/flush) payloads.
    MalformedUpdateFrames(&rng);

    // 7. Random tag lists on every message type.
    if (!TagLists(&rng, seed, iter)) return 1;

    if ((iter + 1) % 500 == 0) {
      std::cout << "iter " << (iter + 1) << ": " << frames_ok
                << " valid frames round-tripped\n";
    }
  }
  std::cout << "OK: " << frames_ok << " valid frames round-tripped, no "
            << "decoder crashes\n";
  return 0;
}

}  // namespace
}  // namespace simjoin

int main(int argc, char** argv) {
  simjoin::ArgParser args(
      "Randomized robustness fuzzer for the service wire protocol");
  args.AddFlag("iterations", "2000", "fuzz iterations; 0 = run forever");
  args.AddFlag("seed", "1", "rng seed");
  const simjoin::Status st = args.Parse(argc, argv);
  if (!st.ok()) {
    std::cerr << st.ToString() << "\n" << args.Help();
    return 2;
  }
  if (args.help_requested()) {
    std::cout << args.Help();
    return 0;
  }
  return simjoin::Run(static_cast<uint64_t>(args.GetInt("iterations")),
                      static_cast<uint64_t>(args.GetInt("seed")));
}
