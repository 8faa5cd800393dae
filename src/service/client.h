// Synchronous client for the similarity-join query service.
//
// One Client owns one TCP connection and speaks the frame protocol of
// service/protocol.h: each call sends a request frame and blocks until the
// terminal response arrives (SimilarityJoin additionally streams every
// kJoinChunk into a caller-supplied PairSink first).  Backpressure is
// handled transparently — a kRetryAfter rejection sleeps for the server's
// hint and resends, up to ClientConfig::max_retries times, with the retry
// count observable via retry_count().  kError responses come back as the
// Status the server put on the wire.

#ifndef SIMJOIN_SERVICE_CLIENT_H_
#define SIMJOIN_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/net.h"
#include "common/pair_sink.h"
#include "common/status.h"
#include "service/protocol.h"

namespace simjoin {

/// Connection + retry policy for one Client.
struct ClientConfig {
  std::string host = "127.0.0.1";
  uint16_t port = 0;

  /// Deadline stamped on every request frame (0 = none).  A request that
  /// expires server-side returns DEADLINE_EXCEEDED.
  uint32_t deadline_ms = 0;

  /// How many kRetryAfter rejections to absorb per call before giving up
  /// and surfacing Unavailable to the caller.
  size_t max_retries = 8;

  /// Ceiling on one response frame's payload.
  uint32_t max_frame_payload = kDefaultMaxFramePayload;
};

/// Blocking, single-connection service client.  Not thread-safe: wrap in a
/// mutex or give each thread its own Client (connections are cheap).
///
/// Every request type that takes the kTrace tag leaves the client with one
/// attached: the caller's (request.trace) when set, a freshly generated
/// trace id otherwise — so server-side spans, slow-query
/// entries, and EXPLAIN ANALYZE profiles always correlate back to a
/// client-visible id.  Set request.trace.flags |= kTraceFlagProfile to get
/// the phase tree back in the response (docs/observability.md).
class Client {
 public:
  static Result<Client> Connect(const ClientConfig& config);

  Client(Client&&) noexcept = default;
  Client& operator=(Client&&) noexcept = default;
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Uploads points and builds a named index on the server.
  Result<BuildIndexResponse> BuildIndex(const BuildIndexRequest& request);

  /// Batched eps-range queries; results[i] answers queries row i.
  Result<RangeQueryResponse> RangeQuery(const RangeQueryRequest& request);

  /// Single-query convenience wrapper over RangeQuery.
  Result<std::vector<PointId>> RangeQueryOne(const std::string& name,
                                             std::span<const float> query,
                                             double epsilon = 0.0);

  /// Runs a join on the server, feeding every streamed pair into *sink in
  /// arrival order (which is the sequential in-process pair order).
  Result<JoinDone> SimilarityJoin(const SimilarityJoinRequest& request,
                                  PairSink* sink);

  /// Appends rows to an updatable index's delta tier; the response carries
  /// the contiguous id range the server assigned.
  Result<InsertResponse> Insert(const InsertRequest& request);

  /// Tombstones ids in an updatable index.  Unknown or already-removed ids
  /// are counted as missing, not errors.
  Result<RemoveResponse> Remove(const RemoveRequest& request);

  /// Forces a synchronous compaction of an updatable index's delta tier.
  Result<FlushResponse> Flush(const std::string& name);

  Result<DropIndexResponse> DropIndex(const std::string& name);
  /// With drain_slowlog the response also carries (and removes) the
  /// server's slow-query ring entries (`simjoin_client slowlog`).
  Result<StatsResponse> GetStats(bool drain_slowlog = false);
  Status Ping();
  /// Asks the server to stop (it still flushes every pending response).
  Status Shutdown();

  /// kRetryAfter rejections absorbed over this client's lifetime.
  uint64_t retry_count() const { return retries_; }

 private:
  explicit Client(ClientConfig config) : config_(std::move(config)) {}

  /// Sends one request and returns the first response frame for its id,
  /// transparently retrying kRetryAfter and converting kError to Status.
  Result<Frame> Roundtrip(FrameType type, std::span<const uint8_t> payload);

  Status SendRequest(FrameType type, uint64_t request_id,
                     std::span<const uint8_t> payload);
  Result<Frame> ReadFrame(uint64_t expect_request_id);

  ClientConfig config_;
  TcpSocket sock_;
  uint64_t next_request_id_ = 1;
  uint64_t retries_ = 0;
};

}  // namespace simjoin

#endif  // SIMJOIN_SERVICE_CLIENT_H_
