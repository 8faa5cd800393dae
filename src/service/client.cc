#include "service/client.h"

#include <chrono>
#include <thread>
#include <utility>

namespace simjoin {

namespace {

/// Ensures an encoded request carries a trace context: when the caller did
/// not set one, a generated id is appended.  Appending after encoding is
/// sound because tags are always the tail of a payload.
std::vector<uint8_t> WithTrace(const TraceContext& trace,
                               std::vector<uint8_t> payload) {
  if (!trace.present) {
    TraceContext generated;
    generated.present = true;
    generated.trace_id = GenerateTraceId();
    AppendTraceContext(generated, &payload);
  }
  return payload;
}

}  // namespace

Result<Client> Client::Connect(const ClientConfig& config) {
  Client client(config);
  SIMJOIN_ASSIGN_OR_RETURN(client.sock_,
                           TcpSocket::Connect(config.host, config.port));
  return client;
}

Status Client::SendRequest(FrameType type, uint64_t request_id,
                           std::span<const uint8_t> payload) {
  const std::vector<uint8_t> frame =
      EncodeFrame(type, request_id, config_.deadline_ms, payload);
  return sock_.SendAll(frame.data(), frame.size());
}

Result<Frame> Client::ReadFrame(uint64_t expect_request_id) {
  uint8_t header_bytes[kFrameHeaderSize];
  SIMJOIN_RETURN_NOT_OK(sock_.RecvAll(header_bytes, sizeof(header_bytes)));
  Frame frame;
  SIMJOIN_RETURN_NOT_OK(DecodeFrameHeader(header_bytes,
                                          config_.max_frame_payload,
                                          &frame.header));
  frame.payload.resize(frame.header.payload_size);
  if (!frame.payload.empty()) {
    SIMJOIN_RETURN_NOT_OK(
        sock_.RecvAll(frame.payload.data(), frame.payload.size()));
  }
  if (frame.header.request_id != expect_request_id) {
    return Status::IoError(
        "response for request " + std::to_string(frame.header.request_id) +
        " while awaiting " + std::to_string(expect_request_id) +
        " (stream out of sync)");
  }
  return frame;
}

Result<Frame> Client::Roundtrip(FrameType type,
                                std::span<const uint8_t> payload) {
  for (size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    const uint64_t id = next_request_id_++;
    SIMJOIN_RETURN_NOT_OK(SendRequest(type, id, payload));
    SIMJOIN_ASSIGN_OR_RETURN(Frame frame, ReadFrame(id));
    if (frame.header.type == FrameType::kRetryAfter) {
      RetryAfterResponse retry;
      SIMJOIN_RETURN_NOT_OK(ParseRetryAfterResponse(frame.payload, &retry));
      ++retries_;
      std::this_thread::sleep_for(
          std::chrono::milliseconds(retry.retry_after_ms));
      continue;
    }
    if (frame.header.type == FrameType::kError) {
      Status remote = Status::OK();
      SIMJOIN_RETURN_NOT_OK(ParseErrorResponse(frame.payload, &remote));
      return remote;
    }
    return frame;
  }
  return Status::Unavailable("server still overloaded after " +
                             std::to_string(config_.max_retries) +
                             " retries");
}

Result<BuildIndexResponse> Client::BuildIndex(
    const BuildIndexRequest& request) {
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame,
      Roundtrip(FrameType::kBuildIndex,
                WithTrace(request.trace, EncodeBuildIndexRequest(request))));
  if (frame.header.type != FrameType::kBuildIndexOk) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  BuildIndexResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseBuildIndexResponse(frame.payload, &resp));
  return resp;
}

Result<RangeQueryResponse> Client::RangeQuery(
    const RangeQueryRequest& request) {
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame,
      Roundtrip(FrameType::kRangeQuery,
                WithTrace(request.trace, EncodeRangeQueryRequest(request))));
  if (frame.header.type != FrameType::kRangeQueryResult) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  RangeQueryResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseRangeQueryResponse(frame.payload, &resp));
  return resp;
}

Result<std::vector<PointId>> Client::RangeQueryOne(
    const std::string& name, std::span<const float> query, double epsilon) {
  RangeQueryRequest req;
  req.name = name;
  req.epsilon = epsilon;
  req.dims = static_cast<uint32_t>(query.size());
  req.queries.assign(query.begin(), query.end());
  SIMJOIN_ASSIGN_OR_RETURN(RangeQueryResponse resp, RangeQuery(req));
  if (resp.results.size() != 1) {
    return Status::IoError("expected one result list, got " +
                           std::to_string(resp.results.size()));
  }
  return std::move(resp.results[0]);
}

Result<JoinDone> Client::SimilarityJoin(const SimilarityJoinRequest& request,
                                        PairSink* sink) {
  const std::vector<uint8_t> payload =
      WithTrace(request.trace, EncodeSimilarityJoinRequest(request));
  for (size_t attempt = 0; attempt <= config_.max_retries; ++attempt) {
    const uint64_t id = next_request_id_++;
    SIMJOIN_RETURN_NOT_OK(SendRequest(FrameType::kSimilarityJoin, id, payload));
    // kRetryAfter / kError can only arrive before the first chunk: the
    // server admits or rejects a join before it starts streaming.
    bool streamed = false;
    while (true) {
      SIMJOIN_ASSIGN_OR_RETURN(Frame frame, ReadFrame(id));
      switch (frame.header.type) {
        case FrameType::kJoinChunk: {
          JoinChunk chunk;
          SIMJOIN_RETURN_NOT_OK(ParseJoinChunk(frame.payload, &chunk));
          if (sink != nullptr) sink->EmitBatch(chunk.pairs);
          streamed = true;
          break;
        }
        case FrameType::kJoinDone: {
          JoinDone done;
          SIMJOIN_RETURN_NOT_OK(ParseJoinDone(frame.payload, &done));
          return done;
        }
        case FrameType::kRetryAfter: {
          if (streamed) {
            return Status::IoError("kRetryAfter after join chunks");
          }
          RetryAfterResponse retry;
          SIMJOIN_RETURN_NOT_OK(
              ParseRetryAfterResponse(frame.payload, &retry));
          ++retries_;
          std::this_thread::sleep_for(
              std::chrono::milliseconds(retry.retry_after_ms));
          break;
        }
        case FrameType::kError: {
          Status remote = Status::OK();
          SIMJOIN_RETURN_NOT_OK(ParseErrorResponse(frame.payload, &remote));
          return remote;
        }
        default:
          return Status::IoError("unexpected response frame type " +
                                 std::to_string(uint8_t(frame.header.type)));
      }
      if (frame.header.type == FrameType::kRetryAfter) break;  // resend
    }
  }
  return Status::Unavailable("server still overloaded after " +
                             std::to_string(config_.max_retries) +
                             " retries");
}

Result<InsertResponse> Client::Insert(const InsertRequest& request) {
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame,
      Roundtrip(FrameType::kInsert,
                WithTrace(request.trace, EncodeInsertRequest(request))));
  if (frame.header.type != FrameType::kInsertOk) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  InsertResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseInsertResponse(frame.payload, &resp));
  return resp;
}

Result<RemoveResponse> Client::Remove(const RemoveRequest& request) {
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame,
      Roundtrip(FrameType::kRemove,
                WithTrace(request.trace, EncodeRemoveRequest(request))));
  if (frame.header.type != FrameType::kRemoveOk) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  RemoveResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseRemoveResponse(frame.payload, &resp));
  return resp;
}

Result<FlushResponse> Client::Flush(const std::string& name) {
  FlushRequest req;
  req.name = name;
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame,
      Roundtrip(FrameType::kFlush,
                WithTrace(req.trace, EncodeFlushRequest(req))));
  if (frame.header.type != FrameType::kFlushOk) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  FlushResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseFlushResponse(frame.payload, &resp));
  return resp;
}

Result<DropIndexResponse> Client::DropIndex(const std::string& name) {
  DropIndexRequest req;
  req.name = name;
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame,
      Roundtrip(FrameType::kDropIndex, EncodeDropIndexRequest(req)));
  if (frame.header.type != FrameType::kDropIndexOk) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  DropIndexResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseDropIndexResponse(frame.payload, &resp));
  return resp;
}

Result<StatsResponse> Client::GetStats(bool drain_slowlog) {
  StatsRequest req;
  req.drain_slowlog = drain_slowlog;
  SIMJOIN_ASSIGN_OR_RETURN(
      Frame frame, Roundtrip(FrameType::kStats, EncodeStatsRequest(req)));
  if (frame.header.type != FrameType::kStatsResult) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  StatsResponse resp;
  SIMJOIN_RETURN_NOT_OK(ParseStatsResponse(frame.payload, &resp));
  return resp;
}

Status Client::Ping() {
  SIMJOIN_ASSIGN_OR_RETURN(Frame frame, Roundtrip(FrameType::kPing, {}));
  if (frame.header.type != FrameType::kPong) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  return Status::OK();
}

Status Client::Shutdown() {
  SIMJOIN_ASSIGN_OR_RETURN(Frame frame, Roundtrip(FrameType::kShutdown, {}));
  if (frame.header.type != FrameType::kShutdownOk) {
    return Status::IoError("unexpected response frame type " +
                           std::to_string(uint8_t(frame.header.type)));
  }
  return Status::OK();
}

}  // namespace simjoin
