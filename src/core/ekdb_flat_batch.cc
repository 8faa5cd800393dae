// Multi-query entry point over the flat arena (FlatEkdbTree
// ::RangeQueryBatch).
//
// The single-query RangeQuery walks the tree and sweeps each surviving leaf
// window as it finds it, constructing a fresh kernel per query.  For a batch
// of queries that repeats all the per-query fixed costs and visits the arena
// in per-query order, so tiles pulled into cache for one query are usually
// evicted before the next query re-reads them.  This driver restructures the
// same work into three passes:
//
//   plan:    every query runs the exact RangeQuery traversal (same pruning,
//            same binary searches, same leaf order), but instead of scoring
//            a window immediately it records a SweepTask.
//   sweep:   tasks from all queries are sorted by arena position and scored
//            front to back with ONE BatchDistanceKernel, so consecutive
//            tasks hit overlapping / adjacent leaf blocks while they are
//            still cache-resident.
//   scatter: each query's hits are concatenated in its recorded task order.
//
// Because a window's tiling, scoring arithmetic, and hit order are identical
// to the solo path, and tasks are scattered back in traversal order, every
// query's output id sequence — and its JoinStats delta, tracked per task by
// snapshotting the kernel counters — is bit-identical to an independent
// RangeQuery call.  The whole batch runs on the calling thread, so the
// result is also independent of any thread-pool configuration.

#include <algorithm>
#include <vector>

#include "common/bounding_box.h"
#include "common/simd_kernel.h"
#include "core/ekdb_flat.h"
#include "core/ekdb_flat_internal.h"
#include "obs/trace.h"

namespace simjoin {

namespace {

/// One leaf window of one query, in that query's traversal order.
struct SweepTask {
  uint32_t window_begin = 0;  ///< arena position range to score
  uint32_t window_end = 0;
  uint32_t leaf = 0;          ///< node index of the window's leaf
  uint32_t spec = 0;          ///< originating query
  uint32_t hits_begin = 0;    ///< range in the shared hit pool (sweep fills)
  uint32_t hits_end = 0;
};

}  // namespace

Status FlatEkdbTree::RangeQueryBatch(
    const RangeQuerySpec* specs, size_t count,
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
    if (Status st = ValidateQueryEpsilon(specs[i].epsilon); !st.ok()) {
      return st;
    }
  }
  results->assign(count, {});
  if (stats != nullptr) stats->assign(count, JoinStats{});
  if (count == 0) return Status::OK();
  SIMJOIN_TRACE_SPAN("tree.batch_range_query");

  // Plan: the solo traversal per query, windows recorded instead of swept.
  // Tasks land grouped by query in traversal order, which is the order the
  // scatter pass walks them in.
  std::vector<SweepTask> tasks;
  std::vector<uint32_t> stack;
  for (uint32_t s = 0; s < count; ++s) {
    const float* query = specs[s].query;
    const double eps_query = specs[s].epsilon;
    uint64_t nodes_visited = 0;
    stack.assign(1, kRoot);
    while (!stack.empty()) {
      const uint32_t idx = stack.back();
      stack.pop_back();
      ++nodes_visited;
      const FlatEkdbNode& node = nodes_[idx];
      if (node.arena_begin == node.arena_end) continue;
      if (BoxMinDistanceToPoint(bbox_lo(idx), bbox_hi(idx), query, dims_,
                                config_.metric) > eps_query) {
        continue;
      }
      if (node.is_leaf()) {
        const uint32_t size = node.subtree_points();
        const float* key =
            leaf_columns(node) + static_cast<size_t>(node.sort_dim) * size;
        const double q = static_cast<double>(query[node.sort_dim]);
        const uint32_t wb =
            flat_internal::LowerBoundRow(key, 0, size, q - eps_query);
        const uint32_t we =
            flat_internal::UpperBoundRow(key, wb, size, q + eps_query);
        if (wb != we) {
          tasks.push_back(SweepTask{node.arena_begin + wb,
                                    node.arena_begin + we, idx, s, 0, 0});
        }
        continue;
      }
      const uint32_t split_dim = dim_order_[node.depth];
      const uint32_t stripe = StripeIndex(query[split_dim]);
      const uint32_t slo = stripe == 0 ? 0 : stripe - 1;
      const uint32_t end = node.children_begin + node.children_count;
      for (uint32_t c = node.children_begin; c < end; ++c) {
        const uint32_t cs = nodes_[c].stripe;
        if (cs < slo) continue;
        if (cs > stripe + 1) break;
        stack.push_back(c);
      }
    }
    // Same traversal tally RangeQuery makes (keeps per-query stats
    // bit-identical between the batch and single-query entry points).
    if (stats != nullptr) (*stats)[s].node_pairs_visited += nodes_visited;
  }

  // Sweep: arena order, one kernel.  A stable sort keeps same-window tasks
  // in plan order, which makes the sweep deterministic (not that order could
  // change any task's own hits).
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
  std::vector<PointId> hits;
  for (const uint32_t t : sweep_order) {
    SweepTask& task = tasks[t];
    const RangeQuerySpec& spec = specs[task.spec];
    if (spec.epsilon != kernel_eps) {
      kernel.SetEpsilon(spec.epsilon);
      kernel_eps = spec.epsilon;
    }
    const uint64_t batches_before = kernel.simd_batches();
    const uint64_t rescues_before = kernel.scalar_fallbacks();
    task.hits_begin = static_cast<uint32_t>(hits.size());
    const FlatEkdbNode& leaf = nodes_[task.leaf];
    flat_internal::ScanWindow(kernel, spec.query, leaf_columns(leaf),
                              leaf.subtree_points(),
                              arena_ids_ + leaf.arena_begin,
                              task.window_begin - leaf.arena_begin,
                              task.window_end - leaf.arena_begin, &hits);
    task.hits_end = static_cast<uint32_t>(hits.size());
    if (stats != nullptr) {
      JoinStats& st = (*stats)[task.spec];
      const uint64_t candidates = task.window_end - task.window_begin;
      st.candidate_pairs += candidates;
      st.distance_calls += candidates;
      st.simd_batches += kernel.simd_batches() - batches_before;
      st.scalar_fallbacks += kernel.scalar_fallbacks() - rescues_before;
    }
  }

  // Scatter: tasks are already (query, traversal-seq) ordered.
  for (const SweepTask& task : tasks) {
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
