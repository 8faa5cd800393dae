// The per-layer ledger of a traced run.
//
// After the measured window, part of the workload is replayed in-process,
// one span per call into a layer's public functions, each nested under a
// replay root span.  Server internals that no public function exposes (io,
// admission, fusion wait, answer ordering, socket write) are not replayed;
// they remain in server.residual_us.

#include <algorithm>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.h"
#include "common/simd_kernel.h"
#include "common/stats.h"
#include "core/delta_index.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "service/registry.h"

namespace simjoin::perf {

double Quantile(const std::vector<double>& samples, double q) {
  return samples.empty() ? 0.0 : Percentile(samples, q);
}

std::vector<double> Tracer::SelfNsPerWork(const std::string& name) const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent != kNoParent) child_ns[s.parent] += s.end_ns - s.start_ns;
  }
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (name != s.name) continue;
    out.push_back(static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) /
                  std::max(s.work, 1.0));
  }
  return out;
}

Status Tracer::WriteChromeTrace(const std::string& path, size_t limit) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot write " + path);
  std::vector<uint8_t> keep(spans_.size(), 0);
  std::vector<uint32_t> lane(spans_.size(), 0);
  std::vector<std::pair<std::string, size_t>> roots;
  out << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  bool first = true;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.parent == kNoParent) {
      auto it = std::find_if(roots.begin(), roots.end(),
                             [&](const auto& r) { return r.first == s.name; });
      if (it == roots.end()) it = roots.insert(roots.end(), {s.name, 0});
      keep[i] = it->second++ < limit;
      lane[i] = s.lane;
    } else {
      keep[i] = keep[s.parent];
      lane[i] = lane[s.parent];
    }
    if (!keep[i]) continue;
    out << (first ? "" : ",") << "\n{\"name\":\"" << s.name
        << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << lane[i]
        << ",\"ts\":" << static_cast<double>(s.start_ns) / 1e3
        << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
        << ",\"args\":{\"request\":" << s.request << ",\"work\":" << s.work
        << ",\"parent\":"
        << (s.parent == kNoParent ? -1 : static_cast<int64_t>(s.parent))
        << "}}";
    first = false;
  }
  out << "\n]}\n";
  return out ? Status::OK() : Status::IoError("short write to " + path);
}

namespace {

/// Rows of the data used by the layer probes that would be too slow on a
/// whole 100k-point workload (the join and delta replays of the range
/// workloads).
constexpr size_t kProbeRows = 20'000;
/// Background compaction folds the delta every fourth step of 1,024 rows
/// (UpdatableConfig::compact_min_delta_points = 4096), so the 33rd step
/// leaves one step's delta for Flush to merge.
constexpr size_t kDeltaSteps = 33;
constexpr size_t kChunkPairs = 8192;  ///< ServerConfig::join_chunk_pairs

/// Times `fn` as one span; returns fn's result.
template <typename Fn>
auto Timed(Tracer* tracer, const char* name, uint32_t parent,
           uint64_t request, double work, Fn&& fn) {
  const int64_t start = tracer->Now();
  auto result = fn();
  tracer->Add(name, start, tracer->Now(), parent, request, work);
  return result;
}

Result<Dataset> Prefix(const Dataset& data, size_t rows) {
  rows = std::min(rows, data.size());
  return Dataset::FromFlat(
      std::vector<float>(data.flat().begin(),
                         data.flat().begin() +
                             static_cast<ptrdiff_t>(rows * data.dims())),
      data.dims());
}

/// Encodes one message into a frame and decodes it back, the work client
/// and server each do once per message.
template <typename Msg, typename Encode, typename Parse>
Status RoundTrip(Tracer* tracer, const char* encode_name,
                 const char* parse_name, uint32_t parent, uint64_t request,
                 double work, FrameType type, Encode encode, Parse parse,
                 Msg* out, size_t* frame_bytes) {
  const std::vector<uint8_t> frame =
      Timed(tracer, encode_name, parent, request, work,
            [&] { return EncodeFrame(type, request, 0, encode()); });
  *frame_bytes = frame.size();
  return Timed(tracer, parse_name, parent, request, work, [&] {
    FrameDecoder decoder;
    decoder.Append(frame.data(), frame.size());
    Frame f;
    bool got = false;
    Status st = decoder.Next(&f, &got);
    if (st.ok() && !got) st = Status::Internal("frame did not decode");
    return st.ok() ? parse(f.payload, out) : st;
  });
}

struct RangeTotals {
  JoinStats stats;
  uint64_t queries = 0;
  uint64_t ids = 0;
  std::vector<double> req_bytes;
  std::vector<double> resp_bytes;
};

/// Replays in.replay_requests range requests of the workload's shape.
Status ReplayRange(const Inputs& in, Server& server,
                   const IndexSnapshot& replica, Tracer* tracer, Tally* tally,
                   RangeTotals* totals) {
  const size_t d = in.dims();
  const size_t q = in.queries_per_request;
  const double eps = in.config.epsilon;
  BatchDistanceKernel kernel(in.config.metric, d, eps);
  constexpr size_t kTile = BatchDistanceKernel::kTileCapacity;
  const size_t kernel_rows =
      std::min<size_t>(1024, in.data.size() / kTile * kTile);
  uint8_t mask[kTile];
  std::vector<IdPair> pairs;

  auto chunk_roundtrip = [&](uint64_t request) -> Status {
    JoinChunk chunk;
    size_t bytes = 0;
    SIMJOIN_RETURN_NOT_OK(RoundTrip(
        tracer, "protocol.chunk_encode", "protocol.chunk_parse",
        Tracer::kNoParent, request, static_cast<double>(pairs.size()),
        FrameType::kJoinChunk, [&] { return EncodeJoinChunk(pairs); },
        ParseJoinChunk, &chunk, &bytes));
    tally->Check(chunk.pairs == pairs);
    pairs.clear();
    return Status::OK();
  };

  for (size_t r = 0; r < in.replay_requests; ++r) {
    const uint32_t root = tracer->Open("replay.request", Tracer::kNoParent, r);
    RangeQueryRequest req;
    req.name = in.index_name;
    req.epsilon = eps;
    req.dims = static_cast<uint32_t>(d);
    req.has_planner = true;
    for (size_t i = 0; i < q; ++i) {
      const float* row = in.pool_row(r * q + i);
      req.queries.insert(req.queries.end(), row, row + d);
    }
    RangeQueryRequest parsed;
    size_t bytes = 0;
    SIMJOIN_RETURN_NOT_OK(RoundTrip(
        tracer, "protocol.req_encode", "protocol.req_parse", root, r, 1.0,
        FrameType::kRangeQuery, [&] { return EncodeRangeQueryRequest(req); },
        ParseRangeQueryRequest, &parsed, &bytes));
    totals->req_bytes.push_back(static_cast<double>(bytes));

    SIMJOIN_RETURN_NOT_OK(Timed(tracer, "registry.get", root, r, 1.0, [&] {
                            return server.registry().Get(in.index_name);
                          }).status());
    SIMJOIN_ASSIGN_OR_RETURN(
        PlannedRange planned,
        Timed(tracer, "registry.plan", root, r, 1.0, [&] {
          return replica.PlanRange(eps, 1.0, kWireBackendAuto,
                                   RangePlannerOptions{});
        }));

    std::vector<RangeQuerySpec> specs(q);
    for (size_t i = 0; i < q; ++i) {
      specs[i] = {parsed.queries.data() + i * d, eps};
    }
    RangeQueryResponse resp;
    std::vector<JoinStats> stats;
    SIMJOIN_RETURN_NOT_OK(
        Timed(tracer, "traversal.query", root, r, static_cast<double>(q), [&] {
          return planned.backend->RangeQueryBatch(specs.data(), q,
                                                  &resp.results, &stats);
        }));
    for (size_t i = 0; i < q; ++i) {
      // The server's answer ordering (ascending ids) is not a public call;
      // it runs untimed inside replay.request.
      std::sort(resp.results[i].begin(), resp.results[i].end());
      resp.stats.Merge(stats[i]);
      totals->ids += resp.results[i].size();
      if (!in.answers.empty()) {
        tally->Check(resp.results[i] == in.answers[(r * q + i) %
                                                   in.pool_size()]);
      }
      for (PointId id : resp.results[i]) {
        pairs.emplace_back(static_cast<PointId>(r * q + i), id);
      }
    }
    totals->stats.Merge(resp.stats);
    totals->queries += q;
    resp.has_planner = true;
    resp.backend_used = static_cast<uint8_t>(planned.plan.kind);
    resp.plan_cache_hit = planned.cache_hit;

    RangeQueryResponse echoed;
    SIMJOIN_RETURN_NOT_OK(RoundTrip(
        tracer, "protocol.resp_encode", "protocol.resp_parse", root, r, 1.0,
        FrameType::kRangeQueryResult,
        [&] { return EncodeRangeQueryResponse(resp); },
        ParseRangeQueryResponse, &echoed, &bytes));
    totals->resp_bytes.push_back(static_cast<double>(bytes));
    tally->Check(echoed.results == resp.results);

    const double candidates = static_cast<double>(q * kernel_rows);
    Timed(tracer, "kernel.filter", root, r, candidates, [&] {
      size_t hits = 0;
      for (size_t i = 0; i < q; ++i) {
        for (size_t t = 0; t < kernel_rows; t += kTile) {
          hits += kernel.FilterWithinEpsilonStrided(
              specs[i].query, in.data.Row(static_cast<PointId>(t)), d, kTile,
              mask);
        }
      }
      return hits;
    });
    tracer->Close(root);
    if (pairs.size() >= kChunkPairs) {
      SIMJOIN_RETURN_NOT_OK(chunk_roundtrip(r));
    }
  }
  if (!pairs.empty()) {
    SIMJOIN_RETURN_NOT_OK(chunk_roundtrip(in.replay_requests));
  }
  return Status::OK();
}

/// kDeltaSteps update steps (Remove, Insert, the step's queries) on an
/// updatable index, then Flush and the same queries again.  Churn replays
/// its own timeline; the other workloads remove and re-insert 1,024 rows of
/// their data per step.
Status ReplayDelta(const Inputs& in, const UpdatableIndex& index,
                   const Dataset& rows, Tracer* tracer, Tally* tally,
                   std::vector<double>* delta_points) {
  const size_t d = in.dims();
  const bool churn = in.kind == WorkloadKind::kChurn;
  const size_t per_step = churn ? in.timeline.steps[0].inserts(d)
                                : std::min<size_t>(1024, rows.size());
  const size_t queries = 32;
  PointId next_id = static_cast<PointId>(index.Stats().next_id);
  std::vector<std::vector<float>> step_queries;
  for (size_t s = 0; s < kDeltaSteps; ++s) {
    const uint32_t root = tracer->Open("replay.step", Tracer::kNoParent, s);
    RemoveRequest remove;
    remove.name = in.index_name;
    InsertRequest insert;
    insert.name = in.index_name;
    insert.dims = static_cast<uint32_t>(d);
    std::vector<float> qrows;
    if (churn) {
      const DriftStep& step = in.timeline.steps[s];
      remove.ids = step.remove_ids;
      insert.rows = step.insert_rows;
      qrows = step.query_rows;
    } else {
      // Ids [s * per_step, (s + 1) * per_step): the initial rows first,
      // then rows earlier steps inserted; each id is removed once.
      for (size_t i = 0; i < per_step; ++i) {
        remove.ids.push_back(static_cast<PointId>(s * per_step + i));
        const float* row = rows.Row(
            static_cast<PointId>((s * per_step + i) % rows.size()));
        insert.rows.insert(insert.rows.end(), row, row + d);
      }
      for (size_t i = 0; i < queries; ++i) {
        const float* row = in.pool_row(s * queries + i);
        qrows.insert(qrows.end(), row, row + d);
      }
    }
    size_t bytes = 0;
    RemoveRequest remove_parsed;
    SIMJOIN_RETURN_NOT_OK(RoundTrip(
        tracer, "protocol.update_encode", "protocol.update_parse", root, s,
        1.0, FrameType::kRemove, [&] { return EncodeRemoveRequest(remove); },
        ParseRemoveRequest, &remove_parsed, &bytes));
    uint32_t removed = 0;
    uint32_t missing = 0;
    Timed(tracer, "delta.remove", root, s,
          static_cast<double>(remove.ids.size()), [&] {
            index.RemoveBatch(remove_parsed.ids.data(),
                              remove_parsed.ids.size(), &removed, &missing);
            return removed;
          });
    tally->Check(removed == remove.ids.size() && missing == 0);

    InsertRequest insert_parsed;
    SIMJOIN_RETURN_NOT_OK(RoundTrip(
        tracer, "protocol.update_encode", "protocol.update_parse", root, s,
        1.0, FrameType::kInsert, [&] { return EncodeInsertRequest(insert); },
        ParseInsertRequest, &insert_parsed, &bytes));
    const size_t count = insert_parsed.rows.size() / d;
    auto first_id = Timed(tracer, "delta.insert", root, s,
                          static_cast<double>(count), [&] {
                            return index.InsertBatch(
                                insert_parsed.rows.data(), count);
                          });
    tally->Check(first_id.ok() && *first_id == next_id);
    SIMJOIN_RETURN_NOT_OK(first_id.status());
    next_id += static_cast<PointId>(count);
    delta_points->push_back(static_cast<double>(index.Stats().delta_points));

    const size_t nq = qrows.size() / d;
    std::vector<RangeQuerySpec> specs(nq);
    for (size_t i = 0; i < nq; ++i) {
      specs[i] = {qrows.data() + i * d, in.config.epsilon};
    }
    std::vector<std::vector<PointId>> results;
    SIMJOIN_RETURN_NOT_OK(
        Timed(tracer, "delta.query", root, s, static_cast<double>(nq), [&] {
          return index.RangeQueryBatch(specs.data(), nq, &results, nullptr,
                                       nullptr);
        }));
    step_queries.push_back(std::move(qrows));
    tracer->Close(root);
    // Let background compaction keep up, as it does at the server's pace
    // of one step per 100 ms; the wait is outside every span.
    while (index.compaction_inflight()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  auto flushed = Timed(tracer, "delta.flush", Tracer::kNoParent, 0, 1.0,
                       [&] { return index.Flush(); });
  tally->Check(flushed.ok());
  SIMJOIN_RETURN_NOT_OK(flushed.status());
  for (size_t s = 0; s < step_queries.size(); ++s) {
    const std::vector<float>& qrows = step_queries[s];
    const size_t nq = qrows.size() / d;
    std::vector<RangeQuerySpec> specs(nq);
    for (size_t i = 0; i < nq; ++i) {
      specs[i] = {qrows.data() + i * d, in.config.epsilon};
    }
    std::vector<std::vector<PointId>> results;
    SIMJOIN_RETURN_NOT_OK(Timed(tracer, "delta.query_flushed",
                                Tracer::kNoParent, s, static_cast<double>(nq),
                                [&] {
                                  return index.RangeQueryBatch(
                                      specs.data(), nq, &results, nullptr,
                                      nullptr);
                                }));
  }
  return Status::OK();
}

struct JoinTotals {
  double seq_s = 0.0;
  JoinStats stats;
};

/// Sequential and parallel IndexBackend::SelfJoin: the selfjoin workload's
/// own data (its sequential join is the oracle join), kProbeRows of the
/// others'.  Every parallel join must repeat the sequential pair sequence.
Status ReplayJoin(const Inputs& in, const IndexSnapshot& replica,
                  Tracer* tracer, Tally* tally, JoinTotals* totals) {
  const size_t threads = NumProcessors();
  const double eps = in.config.epsilon;
  std::shared_ptr<const IndexSnapshot> probe;
  const IndexSnapshot* snapshot = &replica;
  uint64_t expect_hash = in.join_hash;
  if (in.kind == WorkloadKind::kSelfJoin) {
    totals->seq_s = in.join_seq_s;
    totals->stats = in.join_seq_stats;
  } else {
    SIMJOIN_ASSIGN_OR_RETURN(Dataset rows, Prefix(in.data, kProbeRows));
    SIMJOIN_ASSIGN_OR_RETURN(
        probe, IndexSnapshot::Build("join-probe", std::move(rows), in.config,
                                    threads));
    snapshot = probe.get();
    SIMJOIN_ASSIGN_OR_RETURN(auto backend, snapshot->JoinBackend());
    HashSink sink;
    const int64_t start = tracer->Now();
    SIMJOIN_RETURN_NOT_OK(backend->SelfJoin(eps, 1, &sink, &totals->stats));
    const int64_t end = tracer->Now();
    tracer->Add("join.seq", start, end, Tracer::kNoParent, 0);
    totals->seq_s = static_cast<double>(end - start) * 1e-9;
    expect_hash = sink.hash();
  }
  SIMJOIN_ASSIGN_OR_RETURN(auto backend, snapshot->JoinBackend());
  for (uint64_t i = 0; i < 3; ++i) {
    HashSink sink;
    SIMJOIN_RETURN_NOT_OK(Timed(tracer, "join.par", Tracer::kNoParent, i, 1.0,
                                [&] {
                                  return backend->SelfJoin(eps, threads,
                                                           &sink, nullptr);
                                }));
    tally->Check(sink.hash() == expect_hash);
  }
  return Status::OK();
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

Status RunLedger(const Inputs& in, const Options& options, Server& server,
                 const PhaseResult& untraced, const PhaseResult& traced,
                 Tracer* tracer, Tally* tally, Report* report) {
  const size_t threads = NumProcessors();
  const double eps = in.config.epsilon;

  // Registry: a fresh snapshot of the same data, then its first plan.
  std::shared_ptr<const IndexSnapshot> replica;
  {
    const int64_t start = tracer->Now();
    SIMJOIN_ASSIGN_OR_RETURN(
        replica, IndexSnapshot::Build("replica", in.data, in.config, threads,
                                      in.backend));
    tracer->Add("registry.build", start, tracer->Now(), Tracer::kNoParent, 0);
  }
  SIMJOIN_RETURN_NOT_OK(
      Timed(tracer, "registry.plan_cold", Tracer::kNoParent, 0, 1.0, [&] {
        return replica->PlanRange(eps, 1.0, kWireBackendAuto,
                                  RangePlannerOptions{});
      }).status());

  RangeTotals range;
  SIMJOIN_RETURN_NOT_OK(
      ReplayRange(in, server, *replica, tracer, tally, &range));

  std::vector<double> delta_points;
  if (in.kind == WorkloadKind::kChurn) {
    SIMJOIN_RETURN_NOT_OK(ReplayDelta(in, *replica->updatable(), in.data,
                                      tracer, tally, &delta_points));
  } else {
    SIMJOIN_ASSIGN_OR_RETURN(Dataset rows, Prefix(in.data, kProbeRows));
    auto shared = std::make_shared<const Dataset>(std::move(rows));
    SIMJOIN_ASSIGN_OR_RETURN(auto index,
                             UpdatableIndex::Build(shared, in.config, threads));
    SIMJOIN_RETURN_NOT_OK(
        ReplayDelta(in, *index, *shared, tracer, tally, &delta_points));
  }

  JoinTotals join;
  SIMJOIN_RETURN_NOT_OK(ReplayJoin(in, *replica, tracer, tally, &join));

  // ---- metrics ---------------------------------------------------------
  auto self = [&](const char* span, double scale, const char* metric,
                  const char* unit) {
    const std::vector<double> v = tracer->SelfNsPerWork(span);
    const double median = Quantile(v, 0.5) * scale;
    report->Add(metric, median, unit, v.size(), Quantile(v, 0.99) * scale);
    return median;
  };
  auto count = [&](const char* metric, double value, const char* unit,
                   size_t samples) {
    report->Add(metric, value, unit, samples);
  };
  constexpr double kUs = 1e-3;
  constexpr double kMs = 1e-6;
  constexpr double kS = 1e-9;

  count("load.cpu_frac", Ratio(untraced.load_cpu_s, untraced.elapsed_s),
        "fraction", 1);
  count("load.send_lag_ms_p95", Quantile(untraced.send_lag_ms, 0.95), "ms",
        untraced.send_lag_ms.size());

  const double q = static_cast<double>(in.queries_per_request);
  double layer_us = 0.0;
  layer_us += self("protocol.req_encode", kUs, "protocol.req_encode_us", "us");
  layer_us += self("protocol.req_parse", kUs, "protocol.req_parse_us", "us");
  layer_us +=
      self("protocol.resp_encode", kUs, "protocol.resp_encode_us", "us");
  layer_us += self("protocol.resp_parse", kUs, "protocol.resp_parse_us", "us");
  count("protocol.req_bytes", Quantile(range.req_bytes, 0.5), "bytes",
        range.req_bytes.size());
  count("protocol.resp_bytes", Quantile(range.resp_bytes, 0.5), "bytes",
        range.resp_bytes.size());
  self("protocol.chunk_encode", 1.0, "protocol.chunk_encode_ns_per_pair", "ns");
  self("protocol.chunk_parse", 1.0, "protocol.chunk_parse_ns_per_pair", "ns");
  self("protocol.update_encode", kUs, "protocol.update_encode_us", "us");
  self("protocol.update_parse", kUs, "protocol.update_parse_us", "us");

  layer_us += self("registry.get", kUs, "registry.get_us", "us");
  layer_us += self("registry.plan", kUs, "registry.plan_us", "us");
  count("registry.plan_cache_hit_frac",
        Ratio(static_cast<double>(untraced.plan_hits),
              static_cast<double>(untraced.plan_responses)),
        "fraction", untraced.plan_responses);
  self("registry.plan_cold", kMs, "registry.plan_cold_ms", "ms");
  self("registry.build", kS, "registry.build_s", "s");
  count("registry.index_bytes", static_cast<double>(replica->memory_bytes()),
        "bytes", 1);

  const double per_query_us =
      self("traversal.query", kUs, "traversal.us_per_query", "us");
  layer_us += per_query_us * q;
  const double nq = static_cast<double>(range.queries);
  count("traversal.candidates_per_query",
        Ratio(static_cast<double>(range.stats.candidate_pairs), nq), "count",
        range.queries);
  count("traversal.nodes_per_query",
        Ratio(static_cast<double>(range.stats.node_pairs_visited), nq), "count",
        range.queries);
  count("traversal.ids_per_query", Ratio(static_cast<double>(range.ids), nq),
        "count", range.queries);
  count("traversal.useful_frac",
        Ratio(static_cast<double>(range.stats.pairs_emitted),
              static_cast<double>(range.stats.candidate_pairs)),
        "fraction", range.queries);

  self("kernel.filter", 1.0, "kernel.ns_per_candidate", "ns");
  count("kernel.scalar_fallback_frac",
        Ratio(static_cast<double>(range.stats.scalar_fallbacks),
              static_cast<double>(range.stats.candidate_pairs)),
        "fraction", range.queries);

  const std::vector<double> par = tracer->SelfNsPerWork("join.par");
  const double par_s = Quantile(par, 0.5) * kS;
  count("join.seq_s", join.seq_s, "s", 1);
  report->Add("join.par_s", par_s, "s", par.size(), Quantile(par, 0.99) * kS);
  count("join.speedup", Ratio(join.seq_s, par_s), "x", par.size());
  count("join.candidates", static_cast<double>(join.stats.candidate_pairs),
        "count", 1);
  count("join.pairs", static_cast<double>(join.stats.pairs_emitted), "count",
        1);
  count("join.useful_frac",
        Ratio(static_cast<double>(join.stats.pairs_emitted),
              static_cast<double>(join.stats.candidate_pairs)),
        "fraction", 1);

  self("delta.insert", kUs, "delta.insert_us_per_row", "us");
  self("delta.remove", kUs, "delta.remove_us_per_id", "us");
  self("delta.flush", kMs, "delta.flush_ms", "ms");
  const double with_delta =
      self("delta.query", kUs, "delta.query_us_per_query", "us");
  const double flushed =
      Quantile(tracer->SelfNsPerWork("delta.query_flushed"), 0.5) * kUs;
  count("delta.query_overhead_ratio", Ratio(with_delta, flushed), "x",
        delta_points.size());
  count("delta.points_mean",
        Ratio(std::accumulate(delta_points.begin(), delta_points.end(), 0.0),
              static_cast<double>(delta_points.size())),
        "count", delta_points.size());
  count("delta.compactions_per_s",
        Ratio(static_cast<double>(untraced.compactions), untraced.elapsed_s),
        "1/s", untraced.compactions);

  // Black box: what the replayed layers do not explain.  For selfjoin the
  // replayed work is the in-process parallel join, so the residual is the
  // cost of streaming its pairs over the wire.
  const double op_p50_us = Quantile(untraced.op_ms, 0.5) * 1e3;
  count("server.residual_us",
        in.kind == WorkloadKind::kSelfJoin ? op_p50_us - par_s * 1e6
                                           : op_p50_us - layer_us,
        "us", untraced.op_ms.size());
  count("server.cpu_us_per_op",
        Ratio((untraced.process_cpu_s - untraced.load_cpu_s) * 1e6,
              static_cast<double>(untraced.ops)),
        "us", untraced.ops);
  const ServerCounters& c = untraced.counters;
  count("server.fusion_mean_batch",
        Ratio(static_cast<double>(c.fusion_fused_queries),
              static_cast<double>(c.fusion_batches)),
        "count", c.fusion_batches);
  count("server.fusion_wait_flush_frac",
        Ratio(static_cast<double>(c.fusion_wait_expired),
              static_cast<double>(c.fusion_batches)),
        "fraction", c.fusion_batches);
  {
    // Over the whole process, so workloads whose window sends no range
    // query (selfjoin) still report the set-up queries' wait.
    const obs::MetricsSnapshot snap = obs::GlobalMetrics().Snapshot();
    const obs::HistogramSample* wait =
        snap.FindHistogram("service.fusion.wait_us");
    count("server.fusion_wait_us_mean", wait == nullptr ? 0.0 : wait->mean(),
          "us", wait == nullptr ? 0 : wait->count);
  }
  count("server.rejected_frac",
        Ratio(static_cast<double>(c.requests_rejected),
              static_cast<double>(c.requests_admitted + c.requests_rejected)),
        "fraction", c.requests_admitted + c.requests_rejected);

  count("trace.overhead_frac",
        1.0 - Ratio(static_cast<double>(traced.ops) / traced.elapsed_s,
                    static_cast<double>(untraced.ops) / untraced.elapsed_s),
        "fraction", 2);

  return tracer->WriteChromeTrace(options.trace_dir + "/trace-" +
                                      WorkloadName(in.kind) + ".json",
                                  2000);
}

}  // namespace simjoin::perf
