#include "core/epsilon_grid.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/simd_kernel.h"
#include "obs/trace.h"

namespace simjoin {

Result<EpsilonGrid> EpsilonGrid::Build(const Dataset& dataset,
                                       const EkdbConfig& config) {
  SIMJOIN_RETURN_NOT_OK(config.Validate(dataset.dims()));
  if (dataset.empty()) {
    return Status::InvalidArgument(
        "cannot build epsilon grid on empty dataset");
  }
  if (!dataset.AllWithin(0.0f, 1.0f)) {
    return Status::InvalidArgument(
        "dataset coordinates must lie in [0, 1]; call NormalizeToUnitCube()");
  }
  SIMJOIN_TRACE_SPAN("grid.build");

  EpsilonGrid grid;
  grid.dataset_ = &dataset;
  grid.config_ = config;
  grid.dims_ = dataset.dims();
  grid.stripes_per_dim_ = config.NumStripes();
  grid.stripe_width_ = config.StripeWidth();

  // Binned dims: a prefix of the dim order, capped at kMaxBinnedDims and
  // shrunk until the cell table fits.  Large epsilon (few stripes) bins all
  // three dims; tiny epsilon in high d degrades towards fewer binned dims
  // rather than an enormous sparse table.
  const std::vector<uint32_t> order = config.ResolvedDimOrder(grid.dims_);
  size_t binned = std::min(kMaxBinnedDims, grid.dims_);
  auto table_size = [&grid](size_t g) {
    size_t cells = 1;
    for (size_t k = 0; k < g; ++k) {
      if (cells > kMaxCells / grid.stripes_per_dim_) return kMaxCells + 1;
      cells *= grid.stripes_per_dim_;
    }
    return cells;
  };
  while (binned > 0 && table_size(binned) > kMaxCells) --binned;
  grid.binned_dims_.assign(order.begin(), order.begin() + binned);
  const size_t cells = table_size(binned);

  // Counting sort into the cell-major arena; a second cursor pass keeps
  // dataset order within each cell (the documented intra-cell order).
  const size_t n = dataset.size();
  grid.cell_start_.assign(cells + 1, 0);
  std::vector<size_t> cell_of(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t c = grid.CellOf(dataset.Row(static_cast<PointId>(i)));
    cell_of[i] = c;
    ++grid.cell_start_[c + 1];
  }
  for (size_t c = 0; c < cells; ++c) {
    grid.cell_start_[c + 1] += grid.cell_start_[c];
  }
  grid.arena_.resize(n * grid.dims_);
  grid.ids_.resize(n);
  std::vector<uint32_t> cursor(grid.cell_start_.begin(),
                               grid.cell_start_.end() - 1);
  for (size_t i = 0; i < n; ++i) {
    const uint32_t pos = cursor[cell_of[i]]++;
    std::memcpy(grid.arena_.data() + static_cast<size_t>(pos) * grid.dims_,
                dataset.Row(static_cast<PointId>(i)),
                grid.dims_ * sizeof(float));
    grid.ids_[pos] = static_cast<PointId>(i);
  }
  return grid;
}

uint32_t EpsilonGrid::StripeIndex(float value) const {
  if (value <= 0.0f) return 0;
  const auto idx =
      static_cast<size_t>(static_cast<double>(value) / stripe_width_);
  return static_cast<uint32_t>(std::min(idx, stripes_per_dim_ - 1));
}

size_t EpsilonGrid::CellOf(const float* row) const {
  size_t cell = 0;
  for (const uint32_t dim : binned_dims_) {
    cell = cell * stripes_per_dim_ + StripeIndex(row[dim]);
  }
  return cell;
}

Status EpsilonGrid::ValidateQueryEpsilon(double eps_query) const {
  if (!(eps_query > 0.0) || eps_query > config_.epsilon) {
    return Status::InvalidArgument(
        "eps_query must be in (0, built epsilon]; the cell grid only "
        "supports radii up to the build epsilon");
  }
  return Status::OK();
}

void EpsilonGrid::CollectWindows(
    const float* query,
    std::vector<std::pair<uint32_t, uint32_t>>* windows) const {
  // Odometer over the +-1 stripe range of every binned dim, ascending
  // lexicographic — which is ascending cell id, so windows come out in
  // arena order and adjacent non-empty cells coalesce into one window.
  const size_t g = binned_dims_.size();
  uint32_t lo[kMaxBinnedDims], hi[kMaxBinnedDims], cur[kMaxBinnedDims];
  for (size_t k = 0; k < g; ++k) {
    const uint32_t s = StripeIndex(query[binned_dims_[k]]);
    lo[k] = s == 0 ? 0 : s - 1;
    hi[k] = std::min<uint32_t>(s + 1,
                               static_cast<uint32_t>(stripes_per_dim_ - 1));
    cur[k] = lo[k];
  }
  while (true) {
    size_t cell = 0;
    for (size_t k = 0; k < g; ++k) cell = cell * stripes_per_dim_ + cur[k];
    const uint32_t begin = cell_start_[cell];
    const uint32_t end = cell_start_[cell + 1];
    if (begin != end) {
      if (!windows->empty() && windows->back().second == begin) {
        windows->back().second = end;  // contiguous cells: one sweep window
      } else {
        windows->emplace_back(begin, end);
      }
    }
    size_t k = g;
    while (k > 0) {
      --k;
      if (cur[k] < hi[k]) {
        ++cur[k];
        for (size_t j = k + 1; j < g; ++j) cur[j] = lo[j];
        break;
      }
      if (k == 0) return;
    }
    if (g == 0) return;  // single-cell grid: one pass only
  }
}

Status EpsilonGrid::RangeQuery(const float* query, double eps_query,
                               std::vector<PointId>* out,
                               JoinStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  SIMJOIN_RETURN_NOT_OK(ValidateQueryEpsilon(eps_query));
  BatchDistanceKernel kernel(config_.metric, dims_, eps_query);
  uint8_t mask[BatchDistanceKernel::kTileCapacity];
  uint64_t candidates = 0;
  const size_t emitted_before = out->size();

  std::vector<std::pair<uint32_t, uint32_t>> windows;
  CollectWindows(query, &windows);
  for (const auto& [wb, we] : windows) {
    for (uint32_t pos = wb; pos < we;) {
      const auto count = std::min<uint32_t>(
          static_cast<uint32_t>(BatchDistanceKernel::kTileCapacity),
          we - pos);
      const float* row = arena_.data() + static_cast<size_t>(pos) * dims_;
      const float* next = pos + count < we ? row + count * dims_ : nullptr;
      kernel.FilterWithinEpsilonStrided(query, row, dims_, count, mask, next);
      for (uint32_t i = 0; i < count; ++i) {
        if (mask[i]) out->push_back(ids_[pos + i]);
      }
      candidates += count;
      pos += count;
    }
  }

  if (stats != nullptr) {
    stats->candidate_pairs += candidates;
    stats->distance_calls += candidates;
    // Structure-visit tally (coalesced neighbour-cell windows), the grid's
    // analogue of the tree's node visits — the planner's probe-cost signal.
    stats->node_pairs_visited += windows.size();
    stats->pairs_emitted += out->size() - emitted_before;
    stats->simd_batches += kernel.simd_batches();
    stats->scalar_fallbacks += kernel.scalar_fallbacks();
  }
  return Status::OK();
}

namespace {

struct GridSweepTask {
  uint32_t window_begin = 0;
  uint32_t window_end = 0;
  uint32_t spec = 0;
  uint32_t hits_begin = 0;
  uint32_t hits_end = 0;
};

}  // namespace

Status EpsilonGrid::RangeQueryBatch(const RangeQuerySpec* specs, size_t count,
                                    std::vector<std::vector<PointId>>* results,
                                    std::vector<JoinStats>* stats) const {
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
  if (count == 0) return Status::OK();
  SIMJOIN_TRACE_SPAN("grid.batch_range_query");

  // Plan: per query, exactly the solo window list.
  std::vector<GridSweepTask> tasks;
  std::vector<std::pair<uint32_t, uint32_t>> windows;
  for (uint32_t s = 0; s < count; ++s) {
    windows.clear();
    CollectWindows(specs[s].query, &windows);
    for (const auto& [wb, we] : windows) {
      tasks.push_back(GridSweepTask{wb, we, s, 0, 0});
    }
    // Same window tally RangeQuery makes (batch/single-query stat identity).
    if (stats != nullptr) (*stats)[s].node_pairs_visited += windows.size();
  }

  // Sweep in arena order with one kernel, counters snapshotted per task.
  std::vector<uint32_t> sweep_order(tasks.size());
  for (uint32_t t = 0; t < tasks.size(); ++t) sweep_order[t] = t;
  std::stable_sort(sweep_order.begin(), sweep_order.end(),
                   [&tasks](uint32_t a, uint32_t b) {
                     if (tasks[a].window_begin != tasks[b].window_begin) {
                       return tasks[a].window_begin < tasks[b].window_begin;
                     }
                     return tasks[a].window_end < tasks[b].window_end;
                   });
  BatchDistanceKernel kernel(config_.metric, dims_, specs[0].epsilon);
  double kernel_eps = specs[0].epsilon;
  uint8_t mask[BatchDistanceKernel::kTileCapacity];
  std::vector<PointId> hits;
  for (const uint32_t t : sweep_order) {
    GridSweepTask& task = tasks[t];
    const RangeQuerySpec& spec = specs[task.spec];
    if (spec.epsilon != kernel_eps) {
      kernel.SetEpsilon(spec.epsilon);
      kernel_eps = spec.epsilon;
    }
    const uint64_t batches_before = kernel.simd_batches();
    const uint64_t rescues_before = kernel.scalar_fallbacks();
    task.hits_begin = static_cast<uint32_t>(hits.size());
    const uint32_t we = task.window_end;
    for (uint32_t pos = task.window_begin; pos < we;) {
      const auto n = std::min<uint32_t>(
          static_cast<uint32_t>(BatchDistanceKernel::kTileCapacity), we - pos);
      const float* row = arena_.data() + static_cast<size_t>(pos) * dims_;
      const float* next = pos + n < we ? row + n * dims_ : nullptr;
      kernel.FilterWithinEpsilonStrided(spec.query, row, dims_, n, mask,
                                        next);
      for (uint32_t i = 0; i < n; ++i) {
        if (mask[i]) hits.push_back(ids_[pos + i]);
      }
      pos += n;
    }
    task.hits_end = static_cast<uint32_t>(hits.size());
    if (stats != nullptr) {
      JoinStats& st = (*stats)[task.spec];
      const uint64_t candidates = we - task.window_begin;
      st.candidate_pairs += candidates;
      st.distance_calls += candidates;
      st.simd_batches += kernel.simd_batches() - batches_before;
      st.scalar_fallbacks += kernel.scalar_fallbacks() - rescues_before;
    }
  }

  // Scatter: tasks are already (query, window) ordered.
  for (const GridSweepTask& task : tasks) {
    std::vector<PointId>& out = (*results)[task.spec];
    out.insert(out.end(), hits.begin() + task.hits_begin,
               hits.begin() + task.hits_end);
  }
  if (stats != nullptr) {
    for (size_t s = 0; s < count; ++s) {
      (*stats)[s].pairs_emitted += (*results)[s].size();
    }
  }
  return Status::OK();
}

}  // namespace simjoin
