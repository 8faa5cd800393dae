#include "core/ekdb_flat.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/simd_kernel.h"
#include "common/thread_pool.h"
#include "core/ekdb_flat_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simjoin {

namespace {

/// Flatten (tree -> cache-conscious arena) phase timing.
obs::Histogram* FlattenHistogram() {
  static obs::Histogram* const hist =
      obs::GlobalMetrics().GetHistogram("join.phase.flatten_us");
  return hist;
}

using ArenaRange = std::pair<uint32_t, uint32_t>;

/// One leaf's slot in the arena: where its points land.
struct LeafRef {
  const EkdbNode* leaf = nullptr;
  uint32_t arena_begin = 0;
};

/// DFS sizing pass: assigns every node its arena range (each leaf's points
/// occupy [arena_begin, arena_begin + |points|) in DFS leaf order) without
/// touching any coordinate data.  DFS order makes every subtree's points a
/// contiguous arena run, which is what gives internal nodes O(1) subtree
/// size and lets the parallel driver split work by range; the actual copy
/// happens afterwards — per leaf, into disjoint ranges — so it can chunk
/// across workers.
void ComputeArenaRanges(
    const EkdbNode* node, uint32_t* offset, std::vector<LeafRef>* leaves,
    std::unordered_map<const EkdbNode*, ArenaRange>* ranges) {
  const uint32_t begin = *offset;
  if (node->is_leaf()) {
    leaves->push_back(LeafRef{node, begin});
    *offset += static_cast<uint32_t>(node->points.size());
  } else {
    for (const auto& [stripe, child] : node->children) {
      ComputeArenaRanges(child.get(), offset, leaves, ranges);
    }
  }
  ranges->emplace(node, ArenaRange{begin, *offset});
}

/// Point-count threshold below which the fill passes stay sequential.
constexpr size_t kParallelFillMin = size_t{1} << 15;

}  // namespace

Result<FlatEkdbTree> FlatEkdbTree::FromTree(const EkdbTree& tree,
                                            size_t num_threads) {
  if (tree.root() == nullptr) {
    return Status::InvalidArgument("cannot flatten a tree without a root");
  }
  SIMJOIN_TRACE_SPAN("tree.flatten");
  obs::ScopedLatencyTimer timer(FlattenHistogram());
  const Dataset& data = tree.dataset();

  FlatEkdbTree flat;
  flat.dataset_ = &data;
  flat.config_ = tree.config();
  flat.dim_order_ = tree.dim_order();
  flat.num_stripes_ = tree.num_stripes();
  flat.stripe_width_ = tree.stripe_width();
  flat.dims_ = data.dims();

  // Arena sizing pass (DFS, no data touched): every node's range and every
  // leaf's destination offset.
  std::unordered_map<const EkdbNode*, ArenaRange> ranges;
  std::vector<LeafRef> leaves;
  uint32_t total = 0;
  ComputeArenaRanges(tree.root(), &total, &leaves, &ranges);
  flat.owned_arena_.resize(static_cast<size_t>(total) * flat.dims_);
  flat.owned_arena_ids_.resize(total);

  // Node layout pass (BFS): when node i is visited, the children of nodes
  // 0..i-1 are already appended, so node i's children start at the current
  // tail and land contiguously, stripe-sorted (the pointer tree keeps its
  // child lists stripe-sorted).
  std::vector<std::pair<const EkdbNode*, uint32_t>> order;  // node, stripe
  std::vector<uint32_t> kid_begin;
  order.emplace_back(tree.root(), 0);
  for (size_t i = 0; i < order.size(); ++i) {
    const EkdbNode* pn = order[i].first;
    kid_begin.push_back(static_cast<uint32_t>(order.size()));
    for (const auto& [stripe, child] : pn->children) {
      order.emplace_back(child.get(), stripe);
    }
  }
  if (order.size() > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("tree has too many nodes to flatten");
  }
  const size_t n = order.size();
  flat.owned_nodes_.resize(n);
  flat.owned_bbox_lo_.resize(n * flat.dims_);
  flat.owned_bbox_hi_.resize(n * flat.dims_);

  // Fill passes.  Every chunk writes a disjoint slice of preallocated
  // arrays at offsets fixed by the passes above, so the parallel fill is
  // trivially identical to the sequential one.
  auto fill_nodes = [&flat, &order, &kid_begin, &ranges](size_t lo,
                                                         size_t hi) {
    for (size_t i = lo; i < hi; ++i) {
      const EkdbNode* pn = order[i].first;
      FlatEkdbNode& fn = flat.owned_nodes_[i];
      fn.children_begin = pn->is_leaf() ? 0 : kid_begin[i];
      fn.children_count = static_cast<uint32_t>(pn->children.size());
      const ArenaRange& range = ranges.at(pn);
      fn.arena_begin = range.first;
      fn.arena_end = range.second;
      fn.stripe = order[i].second;
      fn.depth = pn->depth;
      fn.sort_dim = pn->sort_dim;
      std::memcpy(flat.owned_bbox_lo_.data() + i * flat.dims_, pn->bbox.lo().data(),
                  flat.dims_ * sizeof(float));
      std::memcpy(flat.owned_bbox_hi_.data() + i * flat.dims_, pn->bbox.hi().data(),
                  flat.dims_ * sizeof(float));
    }
  };
  // Each leaf lands dims-major in its block: coordinate k of row r at
  // block[k * size + r] (see FlatEkdbTree::leaf_columns).
  auto fill_leaves = [&flat, &leaves, &data](size_t lo, size_t hi) {
    const size_t dims = flat.dims_;
    for (size_t l = lo; l < hi; ++l) {
      const std::vector<PointId>& points = leaves[l].leaf->points;
      const size_t begin = leaves[l].arena_begin;
      const size_t size = points.size();
      float* block = flat.owned_arena_.data() + begin * dims;
      for (size_t r = 0; r < size; ++r) {
        const float* row = data.Row(points[r]);
        for (size_t k = 0; k < dims; ++k) block[k * size + r] = row[k];
        flat.owned_arena_ids_[begin + r] = points[r];
      }
    }
  };

  const size_t threads =
      num_threads != 0
          ? num_threads
          : std::max<size_t>(1, std::thread::hardware_concurrency());
  if (threads <= 1 || total < kParallelFillMin) {
    fill_nodes(0, n);
    fill_leaves(0, leaves.size());
  } else {
    ThreadPool& pool = ThreadPool::Shared(threads);
    TaskGroup group(&pool);
    const size_t node_chunks =
        std::min(threads * 2, std::max<size_t>(1, n / 1024));
    for (size_t c = 0; c < node_chunks; ++c) {
      const size_t lo = n * c / node_chunks;
      const size_t hi = n * (c + 1) / node_chunks;
      group.Run([&fill_nodes, lo, hi] { fill_nodes(lo, hi); });
    }
    // Leaf chunks balanced by point count, since leaf sizes vary.
    const size_t target = std::max<size_t>(4096, total / (threads * 4));
    size_t start = 0;
    size_t acc = 0;
    for (size_t l = 0; l < leaves.size(); ++l) {
      acc += leaves[l].leaf->points.size();
      if (acc >= target || l + 1 == leaves.size()) {
        group.Run([&fill_leaves, start, l] { fill_leaves(start, l + 1); });
        start = l + 1;
        acc = 0;
      }
    }
    group.Wait();
  }
  flat.BindOwnedStorage();
  return flat;
}

void FlatEkdbTree::BindOwnedStorage() {
  nodes_ = owned_nodes_.data();
  num_nodes_ = owned_nodes_.size();
  bbox_lo_ = owned_bbox_lo_.data();
  bbox_hi_ = owned_bbox_hi_.data();
  arena_ = owned_arena_.data();
  arena_ids_ = owned_arena_ids_.data();
  arena_count_ = owned_arena_ids_.size();
}

Status FlatEkdbTree::ValidateStructure(const FlatEkdbStorageView& view,
                                       size_t dataset_size,
                                       size_t dataset_dims) {
  const size_t dims = dataset_dims;
  SIMJOIN_RETURN_NOT_OK(view.config.Validate(dims));
  if (view.num_nodes == 0 || view.nodes == nullptr) {
    return Status::InvalidArgument("flat tree storage has no nodes");
  }
  if (view.num_nodes > std::numeric_limits<uint32_t>::max() ||
      view.arena_count > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("flat tree storage exceeds 32-bit limits");
  }
  if (view.arena_count != dataset_size) {
    return Status::InvalidArgument(
        "flat tree arena holds " + std::to_string(view.arena_count) +
        " points but the dataset holds " + std::to_string(dataset_size));
  }
  if (view.dim_order.size() != dims) {
    return Status::InvalidArgument("dim_order length != dims");
  }
  std::vector<bool> seen(dims, false);
  for (const uint32_t d : view.dim_order) {
    if (d >= dims || seen[d]) {
      return Status::InvalidArgument("dim_order is not a permutation");
    }
    seen[d] = true;
  }
  if (view.num_stripes == 0 || view.num_stripes != view.config.NumStripes() ||
      view.stripe_width != view.config.StripeWidth()) {
    return Status::InvalidArgument(
        "stripe grid parameters do not match the stored epsilon");
  }
  const FlatEkdbNode& root = view.nodes[0];
  if (root.arena_begin != 0 || root.arena_end != view.arena_count) {
    return Status::InvalidArgument("root node does not cover the arena");
  }
  for (size_t i = 0; i < view.num_nodes; ++i) {
    const FlatEkdbNode& node = view.nodes[i];
    if (node.arena_begin > node.arena_end ||
        node.arena_end > view.arena_count) {
      return Status::InvalidArgument("node " + std::to_string(i) +
                                     " arena range out of bounds");
    }
    if (node.is_leaf()) {
      if (node.sort_dim >= dims) {
        return Status::InvalidArgument("leaf " + std::to_string(i) +
                                       " sort_dim out of range");
      }
      continue;
    }
    // BFS layout puts children strictly after their parent; enforcing it
    // here is what guarantees every traversal terminates on hostile input.
    const uint64_t kids_end = static_cast<uint64_t>(node.children_begin) +
                              node.children_count;
    if (node.children_begin <= i || kids_end > view.num_nodes) {
      return Status::InvalidArgument("node " + std::to_string(i) +
                                     " children range out of bounds");
    }
    if (node.depth >= dims) {
      return Status::InvalidArgument("internal node " + std::to_string(i) +
                                     " depth exceeds dimensionality");
    }
    for (uint64_t c = node.children_begin; c < kids_end; ++c) {
      if (view.nodes[c].stripe >= view.num_stripes) {
        return Status::InvalidArgument("node " + std::to_string(c) +
                                       " stripe index out of range");
      }
    }
  }
  return Status::OK();
}

Result<FlatEkdbTree> FlatEkdbTree::FromStorage(const Dataset& dataset,
                                               FlatEkdbStorage storage) {
  FlatEkdbStorageView view;
  view.config = storage.config;
  view.dim_order = storage.dim_order;
  view.num_stripes = storage.num_stripes;
  view.stripe_width = storage.stripe_width;
  view.nodes = storage.nodes.data();
  view.num_nodes = storage.nodes.size();
  view.bbox_lo = storage.bbox_lo.data();
  view.bbox_hi = storage.bbox_hi.data();
  view.arena = storage.arena.data();
  view.arena_ids = storage.arena_ids.data();
  view.arena_count = storage.arena_ids.size();
  SIMJOIN_RETURN_NOT_OK(
      ValidateStructure(view, dataset.size(), dataset.dims()));
  const size_t dims = dataset.dims();
  if (storage.bbox_lo.size() != storage.nodes.size() * dims ||
      storage.bbox_hi.size() != storage.nodes.size() * dims ||
      storage.arena.size() != storage.arena_ids.size() * dims) {
    return Status::InvalidArgument("flat tree storage array sizes disagree");
  }
  FlatEkdbTree flat;
  flat.dataset_ = &dataset;
  flat.config_ = std::move(storage.config);
  flat.dim_order_ = std::move(storage.dim_order);
  flat.num_stripes_ = storage.num_stripes;
  flat.stripe_width_ = storage.stripe_width;
  flat.dims_ = dims;
  flat.owned_nodes_ = std::move(storage.nodes);
  flat.owned_bbox_lo_ = std::move(storage.bbox_lo);
  flat.owned_bbox_hi_ = std::move(storage.bbox_hi);
  flat.owned_arena_ = std::move(storage.arena);
  flat.owned_arena_ids_ = std::move(storage.arena_ids);
  flat.BindOwnedStorage();
  return flat;
}

Result<FlatEkdbTree> FlatEkdbTree::FromView(
    const Dataset& dataset, const FlatEkdbStorageView& view,
    std::shared_ptr<const void> keepalive) {
  SIMJOIN_RETURN_NOT_OK(
      ValidateStructure(view, dataset.size(), dataset.dims()));
  if (view.bbox_lo == nullptr || view.bbox_hi == nullptr ||
      (view.arena_count != 0 &&
       (view.arena == nullptr || view.arena_ids == nullptr))) {
    return Status::InvalidArgument("flat tree view has null sections");
  }
  FlatEkdbTree flat;
  flat.dataset_ = &dataset;
  flat.config_ = view.config;
  flat.dim_order_ = view.dim_order;
  flat.num_stripes_ = view.num_stripes;
  flat.stripe_width_ = view.stripe_width;
  flat.dims_ = dataset.dims();
  flat.nodes_ = view.nodes;
  flat.num_nodes_ = view.num_nodes;
  flat.bbox_lo_ = view.bbox_lo;
  flat.bbox_hi_ = view.bbox_hi;
  flat.arena_ = view.arena;
  flat.arena_ids_ = view.arena_ids;
  flat.arena_count_ = view.arena_count;
  flat.keepalive_ = std::move(keepalive);
  return flat;
}

Result<FlatEkdbTree> FlatEkdbTree::Load(const Dataset& dataset,
                                        const std::string& path) {
  SIMJOIN_ASSIGN_OR_RETURN(EkdbTree tree, EkdbTree::Load(dataset, path));
  return FromTree(tree);
}

uint32_t FlatEkdbTree::StripeIndex(float value) const {
  if (value <= 0.0f) return 0;
  const auto idx =
      static_cast<size_t>(static_cast<double>(value) / stripe_width_);
  return static_cast<uint32_t>(std::min(idx, num_stripes_ - 1));
}

bool FlatEkdbTree::JoinCompatible(const FlatEkdbTree& a,
                                  const FlatEkdbTree& b) {
  return a.dims() == b.dims() && a.config().epsilon == b.config().epsilon &&
         a.config().metric == b.config().metric &&
         a.num_stripes() == b.num_stripes() && a.dim_order() == b.dim_order();
}

Status FlatEkdbTree::ValidateQueryEpsilon(double eps_query) const {
  if (!(eps_query > 0.0) || eps_query > config_.epsilon) {
    return Status::InvalidArgument(
        "eps_query must be in (0, built epsilon]; the stripe grid only "
        "supports radii up to the build epsilon");
  }
  return Status::OK();
}

Status FlatEkdbTree::RangeQuery(const float* query, double eps_query,
                                std::vector<PointId>* out,
                                JoinStats* stats) const {
  if (out == nullptr) return Status::InvalidArgument("out must not be null");
  if (Status st = ValidateQueryEpsilon(eps_query); !st.ok()) return st;
  BatchDistanceKernel kernel(config_.metric, dims_, eps_query);
  uint64_t candidates = 0;
  uint64_t nodes_visited = 0;
  const size_t emitted_before = out->size();

  std::vector<uint32_t> stack = {kRoot};
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
      // The leaf's rows are sorted on sort_dim: binary-search the window in
      // that column, then filter it as one run of every column.
      const uint32_t size = node.subtree_points();
      const float* cols = leaf_columns(node);
      const float* key = cols + static_cast<size_t>(node.sort_dim) * size;
      const double q = static_cast<double>(query[node.sort_dim]);
      const uint32_t wb =
          flat_internal::LowerBoundRow(key, 0, size, q - eps_query);
      const uint32_t we =
          flat_internal::UpperBoundRow(key, wb, size, q + eps_query);
      flat_internal::ScanWindow(kernel, query, cols, size,
                                arena_ids_ + node.arena_begin, wb, we, out);
      candidates += we - wb;
      continue;
    }
    // Only the query's stripe and its two neighbours can hold matches.
    const uint32_t split_dim = dim_order_[node.depth];
    const uint32_t stripe = StripeIndex(query[split_dim]);
    const uint32_t slo = stripe == 0 ? 0 : stripe - 1;
    const uint32_t end = node.children_begin + node.children_count;
    for (uint32_t c = node.children_begin; c < end; ++c) {
      const uint32_t s = nodes_[c].stripe;
      if (s < slo) continue;
      if (s > stripe + 1) break;
      stack.push_back(c);
    }
  }

  if (stats != nullptr) {
    stats->candidate_pairs += candidates;
    stats->distance_calls += candidates;
    // Traversal work, the planner's probe-cost signal: one tally per node
    // popped off the stack (the batch planner counts identically).
    stats->node_pairs_visited += nodes_visited;
    stats->pairs_emitted += out->size() - emitted_before;
    stats->simd_batches += kernel.simd_batches();
    stats->scalar_fallbacks += kernel.scalar_fallbacks();
  }
  return Status::OK();
}

void FlatEkdbTree::FillStats(EkdbTreeStats* stats) const {
  stats->flat_node_bytes = node_bytes();
  stats->flat_arena_bytes = arena_bytes();
  stats->flat_bytes_per_point =
      arena_count_ == 0 ? 0.0
                        : static_cast<double>(total_bytes()) /
                              static_cast<double>(arena_count_);
}

}  // namespace simjoin
