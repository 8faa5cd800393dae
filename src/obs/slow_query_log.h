// Structured slow-query log: a bounded in-memory ring of per-request
// profiles plus an optional JSONL file sink.
//
// The service records one SlowQueryEntry for every request that either
// exceeded the configured latency threshold or failed — carrying the same
// RequestProfile the EXPLAIN ANALYZE response ships, so a slow request
// leaves behind the phase breakdown that explains *why* it was slow, not
// just that it was.  The ring is drainable over the wire (the Stats RPC's
// kSlowlog tag, `simjoin_client slowlog`); the JSONL sink makes entries
// survive the process.
//
// The sink is rotation-safe: each write opens the path in append mode and
// closes it again, so an external logrotate can move the file at any time
// and the next entry recreates it.  A per-second rate limit bounds the
// sink's cost during incident storms; suppressed writes are counted, and
// the ring (which is cheap) still records every entry regardless.

#ifndef SIMJOIN_OBS_SLOW_QUERY_LOG_H_
#define SIMJOIN_OBS_SLOW_QUERY_LOG_H_

#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

#include "obs/request_context.h"

namespace simjoin {
namespace obs {

/// One recorded request.  Times are microseconds; unix_micros is wall
/// clock at record time (stamped by Record when left 0).
struct SlowQueryEntry {
  uint64_t unix_micros = 0;
  uint64_t trace_id = 0;
  uint64_t request_id = 0;
  uint8_t op = 0;  ///< wire frame type of the request
  std::string index;
  uint64_t wall_us = 0;
  uint32_t status_code = 0;  ///< wire StatusCode; 0 = ok
  std::string status_message;
  RequestProfile profile;

  bool operator==(const SlowQueryEntry&) const = default;
};

class SlowQueryLog {
 public:
  struct Options {
    /// Ring entries kept for draining (oldest evicted past this).
    size_t capacity = 512;
    /// JSONL sink path; empty disables the file sink.
    std::string jsonl_path;
    /// Sink writes allowed per second (the ring is unlimited-rate).
    uint64_t sink_max_per_sec = 100;
  };

  explicit SlowQueryLog(Options options);

  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Records one entry: always into the ring, and into the JSONL sink when
  /// configured and under the rate limit.  Thread-safe.
  void Record(SlowQueryEntry entry);

  /// Removes and returns up to `max` entries, oldest first.
  std::vector<SlowQueryEntry> Drain(size_t max);

  /// Entries ever recorded / evicted from the ring before being drained /
  /// sink writes suppressed by the rate limit / sink open-or-write errors.
  uint64_t recorded() const;
  uint64_t evicted() const;
  uint64_t sink_suppressed() const;
  uint64_t sink_errors() const;

  /// One-line JSON rendering used by the sink (exposed for tests/tools).
  static std::string ToJsonLine(const SlowQueryEntry& entry);

 private:
  void WriteSinkLocked(const SlowQueryEntry& entry);

  const Options options_;
  mutable std::mutex mu_;
  std::deque<SlowQueryEntry> ring_;
  uint64_t recorded_ = 0;
  uint64_t evicted_ = 0;
  uint64_t sink_suppressed_ = 0;
  uint64_t sink_errors_ = 0;
  uint64_t window_start_us_ = 0;  ///< current rate-limit second
  uint64_t window_writes_ = 0;
};

}  // namespace obs
}  // namespace simjoin

#endif  // SIMJOIN_OBS_SLOW_QUERY_LOG_H_
