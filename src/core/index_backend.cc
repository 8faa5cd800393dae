#include "core/index_backend.h"

#include <algorithm>
#include <utility>

#include "common/simd_kernel.h"
#include "core/ekdb_flat_join.h"
#include "core/ekdb_tree.h"
#include "core/parallel_join.h"

namespace simjoin {
namespace {

// Streaming a row through the strided kernel skips the pointer gather and
// prefetches perfectly, so a brute-scan row is slightly cheaper than the
// tree's window rows the cost units are calibrated on.
constexpr double kBruteRowDiscount = 0.9;

}  // namespace

Result<BackendKind> BackendKindFromWire(uint8_t value) {
  switch (value) {
    case 0:
      return BackendKind::kEkdbFlat;
    case 1:
      return BackendKind::kEpsilonGrid;
    case 2:
      return BackendKind::kLsh;
    case 3:
      return BackendKind::kBruteSimd;
    case 5:
      return BackendKind::kUpdatable;
    default:
      return Status::InvalidArgument("unknown index backend byte " +
                                     std::to_string(value));
  }
}

const char* BackendKindName(BackendKind kind) {
  switch (kind) {
    case BackendKind::kEkdbFlat:
      return "ekdb-flat";
    case BackendKind::kEpsilonGrid:
      return "grid";
    case BackendKind::kLsh:
      return "lsh";
    case BackendKind::kBruteSimd:
      return "brute-simd";
    case BackendKind::kUpdatable:
      return "updatable";
  }
  return "unknown";
}

bool BackendKindBuildable(BackendKind kind) {
  return kind == BackendKind::kEkdbFlat || kind == BackendKind::kEpsilonGrid ||
         kind == BackendKind::kUpdatable;
}

Status IndexBackend::SelfJoin(double /*eps_query*/, size_t /*num_threads*/,
                              PairSink* /*sink*/, JoinStats* /*stats*/) const {
  return Status::Unimplemented(
      std::string("backend '") + BackendKindName(kind()) +
      "' does not implement SelfJoin; use an ekdb-flat backend");
}

// ---------------------------------------------------------------------------
// EkdbFlatBackend
// ---------------------------------------------------------------------------

Result<std::unique_ptr<EkdbFlatBackend>> EkdbFlatBackend::Build(
    const Dataset& dataset, const EkdbConfig& config, size_t num_threads) {
  SIMJOIN_ASSIGN_OR_RETURN(
      EkdbTree tree, num_threads == 1
                         ? EkdbTree::Build(dataset, config)
                         : EkdbTree::BuildParallel(dataset, config,
                                                   num_threads));
  // The pointer tree is build scaffolding; only the flat form is served.
  SIMJOIN_ASSIGN_OR_RETURN(FlatEkdbTree flat,
                           FlatEkdbTree::FromTree(tree, num_threads));
  return std::make_unique<EkdbFlatBackend>(std::move(flat));
}

Status EkdbFlatBackend::RangeQuery(const float* query, double eps_query,
                                   std::vector<PointId>* out, JoinStats* stats,
                                   double* recall_est) const {
  if (recall_est != nullptr) *recall_est = 1.0;
  return tree_.RangeQuery(query, eps_query, out, stats);
}

Status EkdbFlatBackend::RangeQueryBatch(const RangeQuerySpec* specs,
                                        size_t count,
                                        std::vector<std::vector<PointId>>* results,
                                        std::vector<JoinStats>* stats,
                                        std::vector<double>* recall_ests) const {
  if (recall_ests != nullptr) recall_ests->assign(count, 1.0);
  return tree_.RangeQueryBatch(specs, count, results, stats);
}

Status EkdbFlatBackend::SelfJoin(double eps_query, size_t num_threads,
                                 PairSink* sink, JoinStats* stats) const {
  SIMJOIN_RETURN_NOT_OK(ValidateQueryEpsilon(eps_query));
  const double build_eps = tree_.config().epsilon;
  // The parallel driver joins at build epsilon; narrower radii take the
  // sequential radius-override path.  Either way the emitted pair sequence
  // is the sequential sequence (the parallel engine's deterministic-merge
  // guarantee), so callers cannot tell the difference.
  if (num_threads > 1 && eps_query == build_eps) {
    ParallelJoinConfig pcfg;
    pcfg.num_threads = num_threads;
    return ParallelFlatEkdbSelfJoin(tree_, pcfg, sink, stats);
  }
  return eps_query == build_eps
             ? FlatEkdbSelfJoin(tree_, sink, stats)
             : FlatEkdbSelfJoinWithEpsilon(tree_, eps_query, sink, stats);
}

double EkdbFlatBackend::EstimatedQueryCost(double /*eps_query*/,
                                           double expected_neighbors) const {
  // Prior only (the planner probes this backend instead when it can):
  // candidate windows amplify the true neighbourhood a few times, plus a
  // leaf's worth of floor cost.
  const double n = static_cast<double>(tree_.dataset().size());
  return std::min(n, 64.0 + 8.0 * expected_neighbors);
}

// ---------------------------------------------------------------------------
// EpsilonGridBackend
// ---------------------------------------------------------------------------

Result<std::unique_ptr<EpsilonGridBackend>> EpsilonGridBackend::Build(
    const Dataset& dataset, const EkdbConfig& config) {
  SIMJOIN_ASSIGN_OR_RETURN(EpsilonGrid grid,
                           EpsilonGrid::Build(dataset, config));
  return std::unique_ptr<EpsilonGridBackend>(
      new EpsilonGridBackend(std::move(grid)));
}

Status EpsilonGridBackend::RangeQuery(const float* query, double eps_query,
                                      std::vector<PointId>* out,
                                      JoinStats* stats,
                                      double* recall_est) const {
  if (recall_est != nullptr) *recall_est = 1.0;
  return grid_.RangeQuery(query, eps_query, out, stats);
}

Status EpsilonGridBackend::RangeQueryBatch(
    const RangeQuerySpec* specs, size_t count,
    std::vector<std::vector<PointId>>* results, std::vector<JoinStats>* stats,
    std::vector<double>* recall_ests) const {
  if (recall_ests != nullptr) recall_ests->assign(count, 1.0);
  return grid_.RangeQueryBatch(specs, count, results, stats);
}

double EpsilonGridBackend::EstimatedQueryCost(double /*eps_query*/,
                                              double expected_neighbors) const {
  // Prior: the neighbour-cell window of a uniform grid holds about
  // 3^binned_dims cells of average occupancy.
  const double n = static_cast<double>(grid_.dataset().size());
  double window_cells = 1.0;
  for (size_t i = 0; i < grid_.binned_dims().size(); ++i) window_cells *= 3.0;
  const double per_cell = n / static_cast<double>(grid_.num_cells());
  return std::min(n, std::max(expected_neighbors, window_cells * per_cell));
}

// ---------------------------------------------------------------------------
// BruteSimdBackend
// ---------------------------------------------------------------------------

Result<std::unique_ptr<BruteSimdBackend>> BruteSimdBackend::Build(
    const Dataset& dataset, const EkdbConfig& config) {
  if (dataset.empty()) {
    return Status::InvalidArgument("dataset must not be empty");
  }
  SIMJOIN_RETURN_NOT_OK(config.Validate(dataset.dims()));
  return std::unique_ptr<BruteSimdBackend>(
      new BruteSimdBackend(dataset, config));
}

Status BruteSimdBackend::ValidateQueryEpsilon(double eps_query) const {
  // Same contract as the structured backends so the planner can swap them
  // freely (the scan itself would accept any radius).
  if (!(eps_query > 0.0) || eps_query > config_.epsilon) {
    return Status::InvalidArgument(
        "eps_query must be in (0, built epsilon]; the stripe grid only "
        "supports radii up to the build epsilon");
  }
  return Status::OK();
}

Status BruteSimdBackend::RangeQuery(const float* query, double eps_query,
                                    std::vector<PointId>* out,
                                    JoinStats* stats,
                                    double* recall_est) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  SIMJOIN_RETURN_NOT_OK(ValidateQueryEpsilon(eps_query));
  if (recall_est != nullptr) *recall_est = 1.0;
  const size_t n = dataset_->size();
  const size_t dims = dataset_->dims();
  const float* base = dataset_->Row(0);
  BatchDistanceKernel kernel(config_.metric, dims, eps_query);
  uint8_t mask[BatchDistanceKernel::kTileCapacity];
  const size_t emitted_before = out->size();
  for (size_t begin = 0; begin < n;
       begin += BatchDistanceKernel::kTileCapacity) {
    const size_t count =
        std::min(BatchDistanceKernel::kTileCapacity, n - begin);
    const float* tile = base + begin * dims;
    const float* prefetch =
        begin + count < n ? base + (begin + count) * dims : nullptr;
    kernel.FilterWithinEpsilonStrided(query, tile, dims, count, mask,
                                      prefetch);
    for (size_t i = 0; i < count; ++i) {
      if (mask[i]) out->push_back(static_cast<PointId>(begin + i));
    }
  }
  if (stats != nullptr) {
    stats->candidate_pairs += n;
    stats->distance_calls += n;
    stats->pairs_emitted += out->size() - emitted_before;
    stats->simd_batches += kernel.simd_batches();
    stats->scalar_fallbacks += kernel.scalar_fallbacks();
  }
  return Status::OK();
}

Status BruteSimdBackend::RangeQueryBatch(
    const RangeQuerySpec* specs, size_t count,
    std::vector<std::vector<PointId>>* results, std::vector<JoinStats>* stats,
    std::vector<double>* recall_ests) const {
  if (results == nullptr) {
    return Status::InvalidArgument("results must not be null");
  }
  if (count != 0 && specs == nullptr) {
    return Status::InvalidArgument("specs must not be null");
  }
  for (size_t i = 0; i < count; ++i) {
    if (specs[i].query == nullptr) {
      return Status::InvalidArgument("spec query must not be null");
    }
    SIMJOIN_RETURN_NOT_OK(ValidateQueryEpsilon(specs[i].epsilon));
  }
  results->assign(count, {});
  if (stats != nullptr) stats->assign(count, JoinStats{});
  if (recall_ests != nullptr) recall_ests->assign(count, 1.0);
  // The scan has no cross-query plan to fuse; per-query execution is the
  // batch semantics (bit-identical to solo by construction).
  for (size_t i = 0; i < count; ++i) {
    SIMJOIN_RETURN_NOT_OK(RangeQuery(specs[i].query, specs[i].epsilon,
                                     &(*results)[i],
                                     stats != nullptr ? &(*stats)[i] : nullptr,
                                     nullptr));
  }
  return Status::OK();
}

double BruteSimdBackend::EstimatedQueryCost(double /*eps_query*/,
                                            double /*expected_neighbors*/) const {
  return kBruteRowDiscount * static_cast<double>(dataset_->size());
}

}  // namespace simjoin
