// The load generator: one thread, at most four loopback connections, every
// answer checked.  Readers run closed loops (a request is sent as soon as a
// slot frees); the churn writer runs an open loop on a fixed tick and is
// timed from the tick, so a stall also charges the writes it delays.

#include <poll.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <deque>

#include "bench.h"
#include "obs/metrics.h"
#include "service/client.h"

namespace simjoin::perf {
namespace {

constexpr size_t kMaxRetries = 8;
/// The churn writer applies one timeline step per tick.
constexpr double kStepSeconds = 0.1;
/// A load that receives nothing for this long is reported as stalled
/// instead of hanging the run.
constexpr double kStallSeconds = 60.0;

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) +
         static_cast<double>(ts.tv_nsec) * 1e-9;
}

double Ms(Clock::time_point a, Clock::time_point b) {
  return SecondsBetween(a, b) * 1e3;
}

enum class OpKind { kRead, kRemove, kInsert, kJoin };

/// One request in flight.
struct Op {
  uint64_t id = 0;
  OpKind kind = OpKind::kRead;
  size_t first = 0;  ///< pool row (reads) or timeline step (writes)
  size_t count = 0;  ///< queries carried (reads)
  Clock::time_point due;
  Clock::time_point sent;
  std::vector<uint8_t> frame;  ///< kept for kRetryAfter resends
  size_t retries = 0;
  bool awaiting_retry = false;
  Clock::time_point retry_at;
  uint32_t span = Tracer::kNoParent;  ///< load.request when traced
  int64_t encoded_ns = 0;
};

struct Conn {
  bool writer = false;
  TcpSocket sock;
  FrameDecoder decoder;
  std::vector<uint8_t> out;
  size_t out_off = 0;
  std::vector<Op> inflight;
  std::deque<Clock::time_point> free_since;  ///< when each idle slot freed
  uint64_t next_id = 1;
  size_t cursor = 0;
  HashSink join_hash;
};

class Load {
 public:
  Load(const Inputs& in, Server& server, Tracer* tracer, Tally* tally)
      : in_(in), server_(server), tracer_(tracer), tally_(tally) {}

  Result<std::vector<PhaseResult>> Run(double warmup_s,
                                       const std::vector<double>& phase_s,
                                       const std::vector<bool>& traced,
                                       uint64_t* churn_index_bytes);

 private:
  struct Mark {
    Clock::time_point t;
    double load_cpu = 0.0;
    double process_cpu = 0.0;
    uint64_t compactions = 0;
    ServerCounters counters;
  };

  Status Connect();
  Mark TakeMark(Clock::time_point t) const;
  void BeginPhase(Clock::time_point t);
  bool measuring() const { return phase_ >= 0 && !draining_; }

  Status Fill(size_t c, Clock::time_point now);
  Status Enqueue(size_t c, Op op, std::vector<uint8_t> frame,
               int64_t encode_start_ns);
  Status Flush(Conn& conn);
  Status FillReader(size_t c, Clock::time_point now);
  Status FillJoiner(size_t c, Clock::time_point now);
  Status FillWriter(Conn& conn, Clock::time_point now);
  Status Receive(size_t c);
  Status OnFrame(size_t c, Frame& frame);
  void Finish(size_t c, size_t slot, Clock::time_point parsed, bool ok);
  void CheckRead(const Op& op, const RangeQueryResponse& resp, bool* ok);
  void OnOpCompleted(Clock::time_point t);
  Status ChurnChecks(uint64_t* index_bytes);
  int PollTimeoutMs(Clock::time_point now) const;
  const float* ChurnRow(PointId id) const;

  const Inputs& in_;
  Server& server_;
  Tracer* tracer_;
  Tally* tally_;
  std::vector<Conn> conns_;

  Clock::time_point start_;
  Clock::time_point last_progress_;
  int phase_ = -1;  ///< -1 warm-up, then index into phases_
  bool draining_ = false;
  Clock::time_point window_start_;
  Clock::time_point phase_end_;  ///< scheduled end of the current phase
  std::vector<double> phase_s_;
  std::vector<bool> traced_;
  std::vector<PhaseResult> phases_;
  Mark phase_mark_;

  // churn writer state
  size_t next_step_ = 0;
  size_t step_acks_ = 0;      ///< acknowledgements of the step in flight
  int64_t applied_step_ = -1;  ///< last step fully acknowledged
  std::vector<uint8_t> alive_;
  size_t inserts_per_step_ = 0;
};

Status Load::Connect() {
  conns_.resize(in_.conns);
  for (size_t c = 0; c < in_.conns; ++c) {
    Conn& conn = conns_[c];
    SIMJOIN_ASSIGN_OR_RETURN(conn.sock,
                             TcpSocket::Connect("127.0.0.1", server_.port()));
    SIMJOIN_RETURN_NOT_OK(conn.sock.SetNonBlocking(true));
    conn.writer = in_.kind == WorkloadKind::kChurn && c == 0;
    conn.free_since.assign(in_.depth, start_);
    conn.cursor = c * in_.pool_size() / in_.conns;
  }
  return Status::OK();
}

Load::Mark Load::TakeMark(Clock::time_point t) const {
  return {t, CpuSeconds(CLOCK_THREAD_CPUTIME_ID),
          CpuSeconds(CLOCK_PROCESS_CPUTIME_ID),
          obs::GlobalMetrics().GetCounter("compaction.count")->Value(),
          server_.counters()};
}

void Load::BeginPhase(Clock::time_point t) {
  if (phase_ >= 0) {
    const Mark end = TakeMark(t);
    PhaseResult& r = phases_[static_cast<size_t>(phase_)];
    r.elapsed_s = SecondsBetween(phase_mark_.t, t);
    r.load_cpu_s = end.load_cpu - phase_mark_.load_cpu;
    r.process_cpu_s = end.process_cpu - phase_mark_.process_cpu;
    r.compactions = end.compactions - phase_mark_.compactions;
    const ServerCounters& a = phase_mark_.counters;
    const ServerCounters& b = end.counters;
    r.counters.requests_admitted = b.requests_admitted - a.requests_admitted;
    r.counters.requests_rejected = b.requests_rejected - a.requests_rejected;
    r.counters.fusion_batches = b.fusion_batches - a.fusion_batches;
    r.counters.fusion_fused_queries =
        b.fusion_fused_queries - a.fusion_fused_queries;
    r.counters.fusion_wait_expired =
        b.fusion_wait_expired - a.fusion_wait_expired;
    r.counters.fusion_batch_full = b.fusion_batch_full - a.fusion_batch_full;
  }
  ++phase_;
  if (static_cast<size_t>(phase_) >= phase_s_.size()) {
    draining_ = true;
    return;
  }
  phase_mark_ = TakeMark(t);
  // Scheduled ends count from the window's start, so a sub-window that
  // overran (it ends at a completion) does not push back the others.
  if (phase_ == 0) window_start_ = t;
  double end_s = 0.0;
  for (int k = 0; k <= phase_; ++k) end_s += phase_s_[static_cast<size_t>(k)];
  phase_end_ = window_start_ + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(end_s));
}

void Load::OnOpCompleted(Clock::time_point t) {
  if (!draining_ && t >= phase_end_) BeginPhase(t);
}

/// Queues one encoded request (Fill sends the connection's queue with one
/// write); in a traced sub-window it opens the
/// request's load.request span, with the encode step as its first child.
Status Load::Enqueue(size_t c, Op op, std::vector<uint8_t> frame,
                   int64_t encode_start_ns) {
  Conn& conn = conns_[c];
  op.sent = Clock::now();
  if (measuring()) {
    phases_[static_cast<size_t>(phase_)].send_lag_ms.push_back(
        Ms(op.due, op.sent));
    if (traced_[static_cast<size_t>(phase_)]) {
      op.span = tracer_->Add("load.request", encode_start_ns, 0,
                             Tracer::kNoParent, op.id, 1.0,
                             static_cast<uint32_t>(c * 16 + op.id % 16));
      op.encoded_ns = tracer_->Ns(op.sent);
      tracer_->Add("load.encode", encode_start_ns, op.encoded_ns, op.span,
                   op.id);
    }
  }
  op.frame = frame;
  conn.out.insert(conn.out.end(), frame.begin(), frame.end());
  conn.inflight.push_back(std::move(op));
  return Status::OK();
}

Status Load::Flush(Conn& conn) {
  if (conn.out_off < conn.out.size()) {
    size_t sent = 0;
    SIMJOIN_RETURN_NOT_OK(conn.sock.SendSome(conn.out.data() + conn.out_off,
                                             conn.out.size() - conn.out_off,
                                             &sent));
    conn.out_off += sent;
  }
  if (conn.out_off == conn.out.size()) {
    conn.out.clear();
    conn.out_off = 0;
  }
  return Status::OK();
}

Status Load::Fill(size_t c, Clock::time_point now) {
  Conn& conn = conns_[c];
  for (Op& op : conn.inflight) {
    if (op.awaiting_retry && now >= op.retry_at) {
      op.awaiting_retry = false;
      conn.out.insert(conn.out.end(), op.frame.begin(), op.frame.end());
    }
  }
  if (!draining_) {
    if (conn.writer) {
      SIMJOIN_RETURN_NOT_OK(FillWriter(conn, now));
    } else if (in_.kind == WorkloadKind::kSelfJoin) {
      SIMJOIN_RETURN_NOT_OK(FillJoiner(c, now));
    } else {
      SIMJOIN_RETURN_NOT_OK(FillReader(c, now));
    }
  }
  return Flush(conn);
}

Status Load::FillJoiner(size_t c, Clock::time_point now) {
  Conn& conn = conns_[c];
  if (conn.free_since.empty()) return Status::OK();
  Op op;
  op.kind = OpKind::kJoin;
  op.id = conn.next_id++;
  op.due = std::min(conn.free_since.front(), now);
  conn.free_since.pop_front();
  const int64_t t0 = tracer_->Now();
  SimilarityJoinRequest req;
  req.name_a = in_.index_name;
  req.num_threads = 0;
  auto frame = EncodeFrame(FrameType::kSimilarityJoin, op.id, 0,
                           EncodeSimilarityJoinRequest(req));
  return Enqueue(c, std::move(op), std::move(frame), t0);
}

Status Load::FillReader(size_t c, Clock::time_point now) {
  Conn& conn = conns_[c];
  const size_t q = in_.queries_per_request;
  while (!conn.free_since.empty()) {
    Op op;
    op.kind = OpKind::kRead;
    op.id = conn.next_id++;
    op.count = q;
    op.due = std::min(conn.free_since.front(), now);
    conn.free_since.pop_front();
    const int64_t t0 = tracer_->Now();
    RangeQueryRequest req;
    req.name = in_.index_name;
    req.epsilon = in_.config.epsilon;
    req.dims = static_cast<uint32_t>(in_.dims());
    req.has_planner = true;
    req.queries.resize(q * in_.dims());
    if (in_.kind == WorkloadKind::kChurn) {
      // Cluster-chasing queries of the latest step the writer applied.
      const size_t step = applied_step_ < 0
                              ? 0
                              : static_cast<size_t>(applied_step_);
      const size_t per_step = in_.timeline.steps[step].queries(in_.dims());
      op.first = step * per_step + (conn.cursor % per_step);
      conn.cursor += q;
    } else {
      op.first = conn.cursor % in_.pool_size();
      conn.cursor += q;
    }
    for (size_t i = 0; i < q; ++i) {
      std::copy_n(in_.pool_row(op.first + i), in_.dims(),
                  req.queries.begin() + static_cast<ptrdiff_t>(i * in_.dims()));
    }
    auto frame = EncodeFrame(FrameType::kRangeQuery, op.id, 0,
                             EncodeRangeQueryRequest(req));
    SIMJOIN_RETURN_NOT_OK(Enqueue(c, std::move(op), std::move(frame), t0));
  }
  return Status::OK();
}

Status Load::FillWriter(Conn& conn, Clock::time_point now) {
  // One step in flight at most: insert ids stay in timeline order.
  if (step_acks_ > 0 || next_step_ >= in_.timeline.steps.size()) {
    return Status::OK();
  }
  const Clock::time_point due =
      start_ + std::chrono::duration_cast<Clock::duration>(
                   std::chrono::duration<double>(
                       kStepSeconds * static_cast<double>(next_step_)));
  if (now < due) return Status::OK();
  const DriftStep& step = in_.timeline.steps[next_step_];
  RemoveRequest remove;
  remove.name = in_.index_name;
  remove.ids = step.remove_ids;
  InsertRequest insert;
  insert.name = in_.index_name;
  insert.dims = static_cast<uint32_t>(in_.dims());
  insert.rows = step.insert_rows;
  for (OpKind kind : {OpKind::kRemove, OpKind::kInsert}) {
    const int64_t t0 = tracer_->Now();
    Op op;
    op.kind = kind;
    op.id = conn.next_id++;
    op.first = next_step_;
    op.due = due;
    auto frame =
        kind == OpKind::kRemove
            ? EncodeFrame(FrameType::kRemove, op.id, 0,
                          EncodeRemoveRequest(remove))
            : EncodeFrame(FrameType::kInsert, op.id, 0,
                          EncodeInsertRequest(insert));
    SIMJOIN_RETURN_NOT_OK(Enqueue(0, std::move(op), std::move(frame), t0));
  }
  step_acks_ = 2;
  ++next_step_;
  return Status::OK();
}

Status Load::Receive(size_t c) {
  Conn& conn = conns_[c];
  uint8_t buf[64 << 10];
  while (true) {
    size_t n = 0;
    bool eof = false;
    SIMJOIN_RETURN_NOT_OK(conn.sock.RecvSome(buf, sizeof(buf), &n, &eof));
    if (n > 0) {
      conn.decoder.Append(buf, n);
      last_progress_ = Clock::now();
    }
    if (eof) return Status::IoError("server closed a load connection");
    if (n == 0) break;
  }
  while (true) {
    Frame frame;
    bool got = false;
    SIMJOIN_RETURN_NOT_OK(conn.decoder.Next(&frame, &got));
    if (!got) return Status::OK();
    SIMJOIN_RETURN_NOT_OK(OnFrame(c, frame));
  }
}

void Load::CheckRead(const Op& op, const RangeQueryResponse& resp, bool* ok) {
  if (resp.results.size() != op.count) {
    *ok = false;
    return;
  }
  for (size_t i = 0; i < op.count && *ok; ++i) {
    const std::vector<PointId>& got = resp.results[i];
    if (in_.kind == WorkloadKind::kChurn) {
      // Which writes a read saw is a race, so in-window reads are checked
      // for shape only: ascending ids that the writer has handed out.  The
      // exact check runs after the window (ChurnChecks).
      *ok = std::is_sorted(got.begin(), got.end()) &&
            std::adjacent_find(got.begin(), got.end()) == got.end() &&
            (got.empty() || got.back() < alive_.size());
    } else {
      *ok = got == in_.answers[(op.first + i) % in_.pool_size()];
    }
  }
}

Status Load::OnFrame(size_t c, Frame& frame) {
  Conn& conn = conns_[c];
  const int64_t parse_start = tracer_->Now();
  auto it = std::find_if(conn.inflight.begin(), conn.inflight.end(),
                         [&](const Op& op) {
                           return op.id == frame.header.request_id;
                         });
  if (it == conn.inflight.end()) {
    return Status::Internal("response for an unknown request id");
  }
  Op& op = *it;
  const size_t slot = static_cast<size_t>(it - conn.inflight.begin());
  bool ok = true;
  bool terminal = true;
  switch (frame.header.type) {
    case FrameType::kRetryAfter: {
      RetryAfterResponse retry;
      if (ParseRetryAfterResponse(frame.payload, &retry).ok() &&
          op.retries < kMaxRetries) {
        ++op.retries;
        op.awaiting_retry = true;
        op.retry_at = Clock::now() + std::chrono::milliseconds(
                                         retry.retry_after_ms);
        return Status::OK();
      }
      ok = false;  // retries exhausted
      break;
    }
    case FrameType::kError:
      ok = false;
      break;
    case FrameType::kJoinChunk: {
      JoinChunk chunk;
      ok = ParseJoinChunk(frame.payload, &chunk).ok();
      if (ok) {
        conn.join_hash.EmitBatch(chunk.pairs);
        terminal = false;
      }
      if (op.span != Tracer::kNoParent) {
        tracer_->Add("load.parse", parse_start, tracer_->Now(), op.span,
                     op.id, static_cast<double>(chunk.pairs.size()));
      }
      break;
    }
    case FrameType::kJoinDone: {
      JoinDone done;
      ok = ParseJoinDone(frame.payload, &done).ok() &&
           done.total_pairs == conn.join_hash.count() &&
           conn.join_hash.count() == in_.join_pairs &&
           conn.join_hash.hash() == in_.join_hash;
      break;
    }
    case FrameType::kRangeQueryResult: {
      RangeQueryResponse resp;
      ok = ParseRangeQueryResponse(frame.payload, &resp).ok();
      const Clock::time_point parsed = Clock::now();
      const int64_t parsed_ns = tracer_->Ns(parsed);
      if (ok && measuring()) {
        PhaseResult& r = phases_[static_cast<size_t>(phase_)];
        r.plan_responses += 1;
        r.plan_hits += resp.plan_cache_hit ? 1 : 0;
      }
      if (ok) CheckRead(op, resp, &ok);
      if (op.span != Tracer::kNoParent) {
        tracer_->Add("load.wait", op.encoded_ns, parse_start, op.span,
                     op.id);
        tracer_->Add("load.parse", parse_start, parsed_ns, op.span, op.id);
        tracer_->Add("load.verify", parsed_ns, tracer_->Now(), op.span,
                     op.id);
      }
      Finish(c, slot, parsed, ok);
      return Status::OK();
    }
    case FrameType::kRemoveOk: {
      RemoveResponse resp;
      const DriftStep& step = in_.timeline.steps[op.first];
      ok = ParseRemoveResponse(frame.payload, &resp).ok() &&
           resp.removed == step.remove_ids.size() && resp.missing == 0;
      for (PointId id : step.remove_ids) alive_[id] = 0;
      break;
    }
    case FrameType::kInsertOk: {
      InsertResponse resp;
      const PointId expect = static_cast<PointId>(
          in_.data.size() + op.first * inserts_per_step_);
      ok = ParseInsertResponse(frame.payload, &resp).ok() &&
           resp.first_id == expect && resp.count == inserts_per_step_;
      for (size_t i = 0; i < inserts_per_step_; ++i) alive_[expect + i] = 1;
      break;
    }
    default:
      ok = false;
      break;
  }
  if (terminal) Finish(c, slot, Clock::now(), ok);
  return Status::OK();
}

void Load::Finish(size_t c, size_t slot, Clock::time_point parsed, bool ok) {
  Conn& conn = conns_[c];
  Op op = std::move(conn.inflight[slot]);
  conn.inflight.erase(conn.inflight.begin() + static_cast<ptrdiff_t>(slot));
  tally_->Check(ok);
  if (op.span != Tracer::kNoParent) tracer_->Close(op.span);
  if (op.kind == OpKind::kJoin) conn.join_hash = HashSink();
  if (op.kind == OpKind::kRemove || op.kind == OpKind::kInsert) {
    if (measuring()) {
      phases_[static_cast<size_t>(phase_)].write_ms.push_back(
          Ms(op.due, parsed));
    }
    if (--step_acks_ == 0) applied_step_ = static_cast<int64_t>(op.first);
    return;
  }
  if (measuring()) {
    PhaseResult& r = phases_[static_cast<size_t>(phase_)];
    r.op_ms.push_back(Ms(op.sent, parsed));
    r.ops += op.kind == OpKind::kJoin ? 1 : op.count;
  }
  conn.free_since.push_back(Clock::now());
  OnOpCompleted(parsed);
}

/// Wakes for the writer's next tick and for pending retries.
int Load::PollTimeoutMs(Clock::time_point now) const {
  Clock::time_point wake = now + std::chrono::milliseconds(10);
  for (const Conn& conn : conns_) {
    for (const Op& op : conn.inflight) {
      if (op.awaiting_retry) wake = std::min(wake, op.retry_at);
    }
  }
  if (in_.kind == WorkloadKind::kChurn && step_acks_ == 0 && !draining_) {
    wake = std::min(wake, start_ + std::chrono::duration_cast<Clock::duration>(
                                       std::chrono::duration<double>(
                                           kStepSeconds *
                                           static_cast<double>(next_step_))));
  }
  return std::max(0, static_cast<int>(std::ceil(Ms(now, wake))));
}

const float* Load::ChurnRow(PointId id) const {
  const size_t initial = in_.data.size();
  if (id < initial) return in_.data.Row(id);
  const size_t k = (id - initial) / inserts_per_step_;
  const size_t off = (id - initial) % inserts_per_step_;
  return in_.timeline.steps[k].insert_rows.data() + off * in_.dims();
}

Status Load::ChurnChecks(uint64_t* index_bytes) {
  // The last 8 applied steps' queries (256), against a brute scan of the
  // live rows this thread mirrored from acknowledged writes.
  const size_t per_step = in_.timeline.steps[0].queries(in_.dims());
  const size_t last = applied_step_ < 0 ? 0
                                        : static_cast<size_t>(applied_step_);
  const size_t first_step = last >= 7 ? last - 7 : 0;
  std::vector<float> queries(
      in_.pool.begin() +
          static_cast<ptrdiff_t>(first_step * per_step * in_.dims()),
      in_.pool.begin() +
          static_cast<ptrdiff_t>((first_step + 8) * per_step * in_.dims()));
  const size_t count = queries.size() / in_.dims();

  std::vector<float> live_rows;
  std::vector<PointId> live_ids;
  for (size_t id = 0; id < alive_.size(); ++id) {
    if (alive_[id] == 0) continue;
    const float* row = ChurnRow(static_cast<PointId>(id));
    live_rows.insert(live_rows.end(), row, row + in_.dims());
    live_ids.push_back(static_cast<PointId>(id));
  }
  SIMJOIN_ASSIGN_OR_RETURN(Dataset live,
                           Dataset::FromFlat(std::move(live_rows), in_.dims()));
  SIMJOIN_ASSIGN_OR_RETURN(auto expect,
                           BruteAnswers(live, in_.config, in_.oracle_eps,
                                        queries.data(), count));
  for (auto& ids : expect) {
    for (PointId& id : ids) id = live_ids[id];
  }

  ClientConfig cc;
  cc.port = server_.port();
  SIMJOIN_ASSIGN_OR_RETURN(Client client, Client::Connect(cc));
  auto check = [&]() {
    for (size_t q = 0; q < count; q += in_.queries_per_request) {
      RangeQueryRequest req;
      req.name = in_.index_name;
      req.epsilon = in_.config.epsilon;
      req.dims = static_cast<uint32_t>(in_.dims());
      req.has_planner = true;
      req.queries.assign(
          queries.begin() + static_cast<ptrdiff_t>(q * in_.dims()),
          queries.begin() + static_cast<ptrdiff_t>(
                                (q + in_.queries_per_request) * in_.dims()));
      auto resp = client.RangeQuery(req);
      bool ok = resp.ok();
      for (size_t i = 0; ok && i < in_.queries_per_request; ++i) {
        ok = resp->results[i] == expect[q + i];
      }
      tally_->Check(ok);
    }
  };
  check();  // delta tier present
  auto flushed = client.Flush(in_.index_name);
  tally_->Check(flushed.ok());
  check();  // after compaction
  auto stats = client.GetStats();
  tally_->Check(stats.ok());
  SIMJOIN_RETURN_NOT_OK(stats.status());
  *index_bytes = stats->registry_bytes;
  return Status::OK();
}

Result<std::vector<PhaseResult>> Load::Run(double warmup_s,
                                           const std::vector<double>& phase_s,
                                           const std::vector<bool>& traced,
                                           uint64_t* churn_index_bytes) {
  phase_s_ = phase_s;
  traced_ = traced;
  phases_.assign(phase_s.size(), PhaseResult{});
  if (in_.kind == WorkloadKind::kChurn) {
    inserts_per_step_ = in_.timeline.steps[0].inserts(in_.dims());
    alive_.assign(in_.data.size() + in_.timeline.total_inserts(), 0);
    std::fill_n(alive_.begin(), in_.data.size(), 1);
  }
  start_ = Clock::now();
  last_progress_ = start_;
  SIMJOIN_RETURN_NOT_OK(Connect());
  phase_end_ = start_ + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(warmup_s));

  std::vector<pollfd> fds(conns_.size());
  while (true) {
    const Clock::time_point now = Clock::now();
    if (SecondsBetween(last_progress_, now) > kStallSeconds) {
      return Status::DeadlineExceeded("the server stopped answering");
    }
    bool idle = true;
    for (size_t c = 0; c < conns_.size(); ++c) {
      SIMJOIN_RETURN_NOT_OK(Fill(c, now));
      idle = idle && conns_[c].inflight.empty();
    }
    if (draining_ && idle) break;
    for (size_t c = 0; c < conns_.size(); ++c) {
      fds[c].fd = conns_[c].sock.fd();
      fds[c].events = POLLIN;
      if (conns_[c].out_off < conns_[c].out.size()) fds[c].events |= POLLOUT;
      fds[c].revents = 0;
    }
    ::poll(fds.data(), fds.size(), PollTimeoutMs(now));
    for (size_t c = 0; c < conns_.size(); ++c) {
      if ((fds[c].revents & POLLOUT) != 0) {
        SIMJOIN_RETURN_NOT_OK(Flush(conns_[c]));
      }
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) != 0) {
        SIMJOIN_RETURN_NOT_OK(Receive(c));
      }
    }
  }
  if (in_.kind == WorkloadKind::kChurn) {
    SIMJOIN_RETURN_NOT_OK(ChurnChecks(churn_index_bytes));
  }
  return phases_;
}

}  // namespace

PhaseResult MergePhases(std::vector<PhaseResult>::const_iterator first,
                        std::vector<PhaseResult>::const_iterator last) {
  PhaseResult out;
  for (auto it = first; it != last; ++it) {
    out.elapsed_s += it->elapsed_s;
    out.ops += it->ops;
    out.op_ms.insert(out.op_ms.end(), it->op_ms.begin(), it->op_ms.end());
    out.write_ms.insert(out.write_ms.end(), it->write_ms.begin(),
                        it->write_ms.end());
    out.send_lag_ms.insert(out.send_lag_ms.end(), it->send_lag_ms.begin(),
                           it->send_lag_ms.end());
    out.load_cpu_s += it->load_cpu_s;
    out.process_cpu_s += it->process_cpu_s;
    out.plan_hits += it->plan_hits;
    out.plan_responses += it->plan_responses;
    out.compactions += it->compactions;
    out.counters.requests_admitted += it->counters.requests_admitted;
    out.counters.requests_rejected += it->counters.requests_rejected;
    out.counters.fusion_batches += it->counters.fusion_batches;
    out.counters.fusion_fused_queries += it->counters.fusion_fused_queries;
    out.counters.fusion_wait_expired += it->counters.fusion_wait_expired;
    out.counters.fusion_batch_full += it->counters.fusion_batch_full;
  }
  return out;
}

Result<std::vector<PhaseResult>> RunLoad(
    const Inputs& in, Server& server, double warmup_s,
    const std::vector<double>& phase_seconds, const std::vector<bool>& traced,
    Tracer* tracer, Tally* tally, uint64_t* churn_index_bytes) {
  Load load(in, server, tracer, tally);
  return load.Run(warmup_s, phase_seconds, traced, churn_index_bytes);
}

}  // namespace simjoin::perf
