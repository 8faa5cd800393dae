#include "core/segment_builder.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <numeric>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "common/dataset.h"
#include "core/ekdb_flat.h"
#include "core/ekdb_tree.h"
#include "core/segment.h"
#include "core/segment_internal.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace simjoin {

namespace {

namespace si = segment_internal;

obs::Counter* ExternalBuildsCounter() {
  static obs::Counter* const counter =
      obs::GlobalMetrics().GetCounter("segment.external_builds");
  return counter;
}
obs::Histogram* ExternalBuildHistogram() {
  static obs::Histogram* const hist =
      obs::GlobalMetrics().GetHistogram("segment.external_build_us");
  return hist;
}

/// Removes a set of temp files on scope exit (success or failure).
class TempFileSweeper {
 public:
  ~TempFileSweeper() {
    for (const std::string& path : paths_) ::unlink(path.c_str());
  }
  const std::string& Track(std::string path) {
    paths_.push_back(std::move(path));
    return paths_.back();
  }

 private:
  std::vector<std::string> paths_;
};

std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Top-level stripe of a coordinate — must match FlatEkdbTree::StripeIndex /
/// EkdbTree::StripeIndex exactly (same clamp, same double arithmetic) or the
/// external partition diverges from the in-memory split.
uint32_t StripeIndexOf(float value, double stripe_width, size_t num_stripes) {
  if (value <= 0.0f) return 0;
  const auto idx =
      static_cast<size_t>(static_cast<double>(value) / stripe_width);
  return static_cast<uint32_t>(std::min(idx, num_stripes - 1));
}

/// One pass-1 record: (top-level stripe, original row id, coordinates).
/// Stored on disk exactly in this order, coords inline after the two ids.
struct RunRecordHeader {
  uint32_t stripe;
  uint32_t id;
};

/// Streaming reader over one sorted run file.
class RunCursor {
 public:
  Status Open(const std::string& path, size_t dims) {
    dims_ = dims;
    coords_.resize(dims);
    in_.open(path, std::ios::binary);
    if (!in_.is_open()) {
      return Status::IoError("cannot reopen run file '" + path + "'");
    }
    return Advance();
  }

  bool exhausted() const { return exhausted_; }
  uint32_t stripe() const { return header_.stripe; }
  uint32_t id() const { return header_.id; }
  const float* coords() const { return coords_.data(); }

  Status Advance() {
    in_.read(reinterpret_cast<char*>(&header_), sizeof(header_));
    if (in_.gcount() == 0 && in_.eof()) {
      exhausted_ = true;
      return Status::OK();
    }
    if (static_cast<size_t>(in_.gcount()) != sizeof(header_)) {
      return Status::IoError("short read from sorted run file");
    }
    in_.read(reinterpret_cast<char*>(coords_.data()),
             static_cast<std::streamsize>(dims_ * sizeof(float)));
    if (static_cast<size_t>(in_.gcount()) != dims_ * sizeof(float)) {
      return Status::IoError("short read from sorted run file");
    }
    return Status::OK();
  }

 private:
  std::ifstream in_;
  RunRecordHeader header_{0, 0};
  std::vector<float> coords_;
  size_t dims_ = 0;
  bool exhausted_ = false;
};

/// Node metadata of one flattened per-stripe subtree, kept in memory until
/// assembly.  Arena ranges are already rebased to global offsets and the
/// fragment root's stripe field is already patched; children_begin values
/// are still fragment-local node indices.
struct Fragment {
  uint32_t top_stripe = 0;
  std::vector<FlatEkdbNode> nodes;
  std::vector<float> bbox_lo;
  std::vector<float> bbox_hi;
  /// level_begin[d] = first node index whose depth is >= d (nodes are BFS
  /// ordered, so depth is non-decreasing); sized max_depth + 2 so
  /// level_begin[d + 1] closes level d.  Fragment roots sit at depth 1.
  std::vector<uint32_t> level_begin;

  uint32_t LevelBegin(uint32_t depth) const {
    return depth < level_begin.size()
               ? level_begin[depth]
               : static_cast<uint32_t>(nodes.size());
  }
  uint32_t LevelCount(uint32_t depth) const {
    return LevelBegin(depth + 1) - LevelBegin(depth);
  }
  uint32_t max_depth() const {
    return static_cast<uint32_t>(level_begin.size()) - 2;
  }
};

/// Buffered sequential writer with a streaming section checksum.
class ChecksummedWriter {
 public:
  Status Open(const std::string& path) {
    out_.open(path, std::ios::binary | std::ios::trunc);
    if (!out_.is_open()) {
      return Status::IoError("cannot create temp file '" + path + "'");
    }
    return Status::OK();
  }
  Status Write(const void* data, size_t len) {
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(len));
    if (!out_.good()) return Status::IoError("temp spill write failed");
    checksum_ = si::Fnv1a64(data, len, checksum_);
    bytes_ += len;
    return Status::OK();
  }
  Status Close() {
    out_.close();
    if (out_.fail()) return Status::IoError("temp spill close failed");
    return Status::OK();
  }
  uint64_t checksum() const { return checksum_; }
  uint64_t bytes() const { return bytes_; }

 private:
  std::ofstream out_;
  uint64_t checksum_ = si::kFnvSeed;
  uint64_t bytes_ = 0;
};

/// Appends `len` bytes to an output stream while threading the section
/// checksum (used for sections whose checksum was not precomputed).
Status StreamWrite(std::ofstream* out, const void* data, size_t len) {
  out->write(static_cast<const char*>(data),
             static_cast<std::streamsize>(len));
  if (!out->good()) return Status::IoError("segment write failed");
  return Status::OK();
}

Status PadTo(std::ofstream* out, uint64_t* written, uint64_t target) {
  static constexpr char kZeros[kSegmentPageBytes] = {};
  while (*written < target) {
    const uint64_t pad = std::min<uint64_t>(sizeof(kZeros), target - *written);
    SIMJOIN_RETURN_NOT_OK(StreamWrite(out, kZeros, pad));
    *written += pad;
  }
  return Status::OK();
}

/// Copies a whole temp spill file into the output stream.
Status CopyFileInto(const std::string& from, std::ofstream* out,
                    uint64_t expected_bytes) {
  std::ifstream in(from, std::ios::binary);
  if (!in.is_open()) {
    return Status::IoError("cannot reopen temp file '" + from + "'");
  }
  std::vector<char> buf(size_t{1} << 20);
  uint64_t copied = 0;
  while (copied < expected_bytes) {
    const uint64_t want =
        std::min<uint64_t>(buf.size(), expected_bytes - copied);
    in.read(buf.data(), static_cast<std::streamsize>(want));
    if (static_cast<uint64_t>(in.gcount()) != want) {
      return Status::IoError("temp file '" + from + "' shorter than expected");
    }
    SIMJOIN_RETURN_NOT_OK(StreamWrite(out, buf.data(), want));
    copied += want;
  }
  return Status::OK();
}

/// Degenerate shapes: build in memory and write the segment directly.
Result<ExternalBuildReport> BuildInMemoryFallback(
    const std::string& dataset_path, const std::string& segment_path,
    const EkdbConfig& config, ExternalBuildReport report) {
  SIMJOIN_ASSIGN_OR_RETURN(Dataset dataset, ReadBinaryDataset(dataset_path));
  SIMJOIN_ASSIGN_OR_RETURN(EkdbTree tree, EkdbTree::Build(dataset, config));
  SIMJOIN_ASSIGN_OR_RETURN(FlatEkdbTree flat, FlatEkdbTree::FromTree(tree));
  SIMJOIN_RETURN_NOT_OK(WriteSegment(flat, segment_path));
  SIMJOIN_ASSIGN_OR_RETURN(SegmentInfo info, ReadSegmentInfo(segment_path));
  report.fallback_in_memory = true;
  report.num_nodes = info.num_nodes;
  report.num_fragments = 0;
  report.peak_stripe_points = report.num_points;
  report.segment_bytes = info.file_bytes;
  return report;
}

}  // namespace

Result<ExternalBuildReport> BuildSegmentExternal(
    const std::string& dataset_path, const std::string& segment_path,
    const ExternalBuildConfig& config) {
  SIMJOIN_TRACE_SPAN("segment.external_build");
  obs::ScopedLatencyTimer timer(ExternalBuildHistogram());
  ExternalBuildsCounter()->Add(1);

  if (config.sort_run_points == 0 || config.io_batch_points == 0) {
    return Status::InvalidArgument(
        "sort_run_points and io_batch_points must be positive");
  }

  BinaryDatasetReader probe;
  SIMJOIN_RETURN_NOT_OK(probe.Open(dataset_path));
  const size_t dims = probe.dims();
  const uint64_t n = probe.total_points();
  if (n == 0) {
    return Status::InvalidArgument(
        "cannot build a segment over an empty dataset");
  }
  if (n > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument(
        "dataset exceeds the 32-bit point capacity of a segment");
  }
  SIMJOIN_RETURN_NOT_OK(config.ekdb.Validate(dims));

  const std::vector<uint32_t> dim_order = config.ekdb.ResolvedDimOrder(dims);
  const size_t num_stripes = config.ekdb.NumStripes();
  const double stripe_width = config.ekdb.StripeWidth();

  ExternalBuildReport report;
  report.num_points = n;
  report.dims = static_cast<uint32_t>(dims);

  // Shapes whose in-memory root would not split cannot be partitioned into
  // depth-1 subtrees; build them in RAM (they are small or degenerate).
  if (n <= config.ekdb.leaf_threshold || num_stripes < 2 || dims < 2) {
    return BuildInMemoryFallback(dataset_path, segment_path, config.ekdb,
                                 std::move(report));
  }

  const std::string temp_dir =
      config.temp_dir.empty() ? DirOf(segment_path) : config.temp_dir;
  const std::string temp_prefix = temp_dir + "/segbuild." +
                                  std::to_string(::getpid()) + "." +
                                  std::to_string(reinterpret_cast<uintptr_t>(
                                      &report) &
                                                 0xFFFF);
  TempFileSweeper sweeper;

  // ---- Pass 1: form stripe-sorted runs and checksum the dataset section.
  // The dataset section of the final file is the raw rows in original
  // order, which is exactly the stream order of this pass.
  const uint32_t split_dim = dim_order[0];
  uint64_t dataset_checksum = si::kFnvSeed;
  std::vector<std::string> run_paths;
  {
    BinaryDatasetReader reader;
    SIMJOIN_RETURN_NOT_OK(reader.Open(dataset_path));
    std::vector<RunRecordHeader> run_headers;
    std::vector<float> run_coords;
    run_headers.reserve(config.sort_run_points);
    run_coords.reserve(config.sort_run_points * dims);

    auto flush_run = [&]() -> Status {
      if (run_headers.empty()) return Status::OK();
      // Stable by stripe: within a stripe, original row order survives —
      // the same order the in-memory top-level bucketing preserves.
      std::vector<uint32_t> perm(run_headers.size());
      std::iota(perm.begin(), perm.end(), 0u);
      std::stable_sort(perm.begin(), perm.end(),
                       [&](uint32_t a, uint32_t b) {
                         return run_headers[a].stripe < run_headers[b].stripe;
                       });
      const std::string path =
          temp_prefix + ".run" + std::to_string(run_paths.size());
      sweeper.Track(path);
      ChecksummedWriter out;
      SIMJOIN_RETURN_NOT_OK(out.Open(path));
      for (const uint32_t idx : perm) {
        SIMJOIN_RETURN_NOT_OK(
            out.Write(&run_headers[idx], sizeof(RunRecordHeader)));
        SIMJOIN_RETURN_NOT_OK(out.Write(
            run_coords.data() + static_cast<size_t>(idx) * dims,
            dims * sizeof(float)));
      }
      SIMJOIN_RETURN_NOT_OK(out.Close());
      report.temp_bytes_written += out.bytes();
      run_paths.push_back(path);
      run_headers.clear();
      run_coords.clear();
      return Status::OK();
    };

    Dataset batch;
    PointId first_id = 0;
    while (!reader.AtEnd()) {
      SIMJOIN_RETURN_NOT_OK(
          reader.ReadBatch(config.io_batch_points, &batch, &first_id));
      dataset_checksum = si::Fnv1a64(
          batch.data(), batch.size() * dims * sizeof(float), dataset_checksum);
      for (size_t r = 0; r < batch.size(); ++r) {
        const float* row = batch.Row(static_cast<PointId>(r));
        for (size_t d = 0; d < dims; ++d) {
          if (!(row[d] >= 0.0f && row[d] <= 1.0f)) {
            return Status::InvalidArgument(
                "point " + std::to_string(first_id + r) +
                " has a coordinate outside [0, 1]; normalise the dataset "
                "before bulk loading");
          }
        }
        RunRecordHeader header;
        header.stripe = StripeIndexOf(row[split_dim], stripe_width,
                                      num_stripes);
        header.id = first_id + static_cast<PointId>(r);
        run_headers.push_back(header);
        run_coords.insert(run_coords.end(), row, row + dims);
        if (run_headers.size() >= config.sort_run_points) {
          SIMJOIN_RETURN_NOT_OK(flush_run());
        }
      }
    }
    SIMJOIN_RETURN_NOT_OK(flush_run());
  }
  report.num_runs = run_paths.size();

  // ---- Pass 2: k-way merge on (stripe, id); tile one stripe at a time.
  // The arena and id sections of the final file are plain concatenations of
  // the fragments' arenas in stripe order, so both stream straight to temp
  // spill files with running checksums; only node metadata stays in memory.
  // Concatenating arenas is exact for the dims-major layout too: a leaf's
  // block holds only that leaf's rows, with its column stride set by the
  // leaf's own size, so no byte of a block depends on where the block sits
  // in the arena.  Shifting a fragment's node ranges by arena_offset (below)
  // is all the relocation there is, which keeps the file byte-identical to
  // WriteSegment over the in-memory build.
  const std::string arena_path = sweeper.Track(temp_prefix + ".arena");
  const std::string ids_path = sweeper.Track(temp_prefix + ".ids");
  ChecksummedWriter arena_out;
  ChecksummedWriter ids_out;
  SIMJOIN_RETURN_NOT_OK(arena_out.Open(arena_path));
  SIMJOIN_RETURN_NOT_OK(ids_out.Open(ids_path));

  std::vector<Fragment> fragments;
  uint64_t arena_offset = 0;
  uint64_t total_nodes = 1;  // the synthesised root

  EkdbConfig subtree_config = config.ekdb;
  subtree_config.dim_order = dim_order;

  std::vector<float> stripe_coords;
  std::vector<PointId> stripe_ids;
  std::vector<PointId> translated_ids;

  auto process_stripe = [&](uint32_t stripe) -> Status {
    const size_t m = stripe_ids.size();
    if (m == 0) return Status::OK();
    report.peak_stripe_points =
        std::max<uint64_t>(report.peak_stripe_points, m);

    // Build the subtree the full build would hang under this stripe: local
    // rows are the stripe's points in original row order, so the recursion
    // sees the same sequence (and the same coordinate ties) as the
    // in-memory bucket, making the structure — and every std::sort
    // permutation inside it — identical.
    SIMJOIN_ASSIGN_OR_RETURN(
        Dataset local, Dataset::FromFlat(std::move(stripe_coords), dims));
    SIMJOIN_ASSIGN_OR_RETURN(
        EkdbTree subtree,
        EkdbTree::BuildSubtree(local, subtree_config, /*start_depth=*/1));
    SIMJOIN_ASSIGN_OR_RETURN(FlatEkdbTree flat,
                             FlatEkdbTree::FromTree(subtree));

    SIMJOIN_RETURN_NOT_OK(arena_out.Write(
        flat.arena_data(), static_cast<size_t>(m) * dims * sizeof(float)));
    translated_ids.resize(m);
    for (size_t pos = 0; pos < m; ++pos) {
      translated_ids[pos] = stripe_ids[flat.arena_id(
          static_cast<uint32_t>(pos))];
    }
    SIMJOIN_RETURN_NOT_OK(
        ids_out.Write(translated_ids.data(), m * sizeof(PointId)));

    Fragment frag;
    frag.top_stripe = stripe;
    const uint32_t frag_nodes = flat.num_nodes();
    frag.nodes.assign(flat.nodes_data(), flat.nodes_data() + frag_nodes);
    frag.bbox_lo.assign(flat.bbox_lo(0), flat.bbox_lo(0) + frag_nodes * dims);
    frag.bbox_hi.assign(flat.bbox_hi(0), flat.bbox_hi(0) + frag_nodes * dims);
    uint32_t max_depth = 1;
    for (FlatEkdbNode& node : frag.nodes) {
      node.arena_begin += static_cast<uint32_t>(arena_offset);
      node.arena_end += static_cast<uint32_t>(arena_offset);
      max_depth = std::max(max_depth, node.depth);
    }
    frag.nodes[0].stripe = stripe;  // FromTree zeroes the root's stripe
    frag.level_begin.assign(max_depth + 2, frag_nodes);
    for (uint32_t i = frag_nodes; i-- > 0;) {
      frag.level_begin[frag.nodes[i].depth] = i;
    }
    frag.level_begin[0] = 0;
    // Close gaps for any skipped depth (cannot happen in BFS order, but
    // keeps LevelBegin monotone even so).
    for (size_t d = frag.level_begin.size() - 1; d-- > 0;) {
      frag.level_begin[d] =
          std::min(frag.level_begin[d], frag.level_begin[d + 1]);
    }

    arena_offset += m;
    total_nodes += frag_nodes;
    fragments.push_back(std::move(frag));
    stripe_coords.clear();
    stripe_ids.clear();
    return Status::OK();
  };

  {
    std::vector<std::unique_ptr<RunCursor>> cursors;
    cursors.reserve(run_paths.size());
    for (const std::string& path : run_paths) {
      auto cursor = std::make_unique<RunCursor>();
      SIMJOIN_RETURN_NOT_OK(cursor->Open(path, dims));
      cursors.push_back(std::move(cursor));
    }
    // Min-heap of run indices on (stripe, id).
    auto heap_greater = [&](size_t a, size_t b) {
      const RunCursor& ca = *cursors[a];
      const RunCursor& cb = *cursors[b];
      if (ca.stripe() != cb.stripe()) return ca.stripe() > cb.stripe();
      return ca.id() > cb.id();
    };
    std::vector<size_t> heap;
    for (size_t i = 0; i < cursors.size(); ++i) {
      if (!cursors[i]->exhausted()) heap.push_back(i);
    }
    std::make_heap(heap.begin(), heap.end(), heap_greater);

    bool have_stripe = false;
    uint32_t current_stripe = 0;
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), heap_greater);
      const size_t r = heap.back();
      heap.pop_back();
      RunCursor& cursor = *cursors[r];
      if (!have_stripe || cursor.stripe() != current_stripe) {
        if (have_stripe) SIMJOIN_RETURN_NOT_OK(process_stripe(current_stripe));
        current_stripe = cursor.stripe();
        have_stripe = true;
      }
      stripe_ids.push_back(cursor.id());
      stripe_coords.insert(stripe_coords.end(), cursor.coords(),
                           cursor.coords() + dims);
      SIMJOIN_RETURN_NOT_OK(cursor.Advance());
      if (!cursor.exhausted()) {
        heap.push_back(r);
        std::push_heap(heap.begin(), heap.end(), heap_greater);
      }
    }
    if (have_stripe) SIMJOIN_RETURN_NOT_OK(process_stripe(current_stripe));
  }
  SIMJOIN_RETURN_NOT_OK(arena_out.Close());
  SIMJOIN_RETURN_NOT_OK(ids_out.Close());
  report.temp_bytes_written += arena_out.bytes() + ids_out.bytes();
  report.num_fragments = fragments.size();
  if (arena_offset != n) {
    return Status::Internal("external build lost points: merged " +
                            std::to_string(arena_offset) + " of " +
                            std::to_string(n));
  }
  if (total_nodes > std::numeric_limits<uint32_t>::max()) {
    return Status::InvalidArgument("tree has too many nodes to flatten");
  }

  // ---- Assembly: interleave fragment node arrays level by level into the
  // global BFS layout.  A node's depth equals its BFS level, and global
  // level L (>= 1) is the concatenation, in stripe order, of every
  // fragment's level-L nodes in fragment order — exactly the order the
  // in-memory BFS visits them.  children_begin therefore remaps
  // arithmetically: start of global level L+1, plus earlier fragments'
  // level-(L+1) node counts, plus the child's index within its fragment's
  // level L+1.
  uint32_t max_level = 0;
  for (const Fragment& frag : fragments) {
    max_level = std::max(max_level, frag.max_depth());
  }
  std::vector<uint64_t> level_offset(max_level + 2, 0);
  {
    std::vector<uint64_t> level_count(max_level + 2, 0);
    level_count[0] = 1;
    for (const Fragment& frag : fragments) {
      for (uint32_t d = 1; d <= frag.max_depth(); ++d) {
        level_count[d] += frag.LevelCount(d);
      }
    }
    uint64_t acc = 0;
    for (size_t d = 0; d < level_offset.size(); ++d) {
      level_offset[d] = acc;
      acc += d < level_count.size() ? level_count[d] : 0;
    }
  }

  std::vector<FlatEkdbNode> nodes;
  std::vector<float> bbox_lo;
  std::vector<float> bbox_hi;
  nodes.reserve(total_nodes);
  bbox_lo.reserve(total_nodes * dims);
  bbox_hi.reserve(total_nodes * dims);

  // Synthesised root: depth 0, whole arena, bbox = union of fragment roots
  // (float min/max is associative, so the union equals the in-memory root's
  // exact point bbox bit for bit).
  {
    FlatEkdbNode root;
    root.children_begin = 1;
    root.children_count = static_cast<uint32_t>(fragments.size());
    root.arena_begin = 0;
    root.arena_end = static_cast<uint32_t>(n);
    root.stripe = 0;
    root.depth = 0;
    root.sort_dim = 0;
    nodes.push_back(root);
    std::vector<float> lo(dims, std::numeric_limits<float>::infinity());
    std::vector<float> hi(dims, -std::numeric_limits<float>::infinity());
    for (const Fragment& frag : fragments) {
      for (size_t d = 0; d < dims; ++d) {
        lo[d] = std::min(lo[d], frag.bbox_lo[d]);
        hi[d] = std::max(hi[d], frag.bbox_hi[d]);
      }
    }
    bbox_lo.insert(bbox_lo.end(), lo.begin(), lo.end());
    bbox_hi.insert(bbox_hi.end(), hi.begin(), hi.end());
  }

  for (uint32_t level = 1; level <= max_level; ++level) {
    // Prefix counts of level+1 nodes over fragments, for the child remap.
    uint64_t prior_children = 0;
    for (const Fragment& frag : fragments) {
      const uint32_t begin = frag.LevelBegin(level);
      const uint32_t end = frag.LevelBegin(level + 1);
      for (uint32_t i = begin; i < end; ++i) {
        FlatEkdbNode node = frag.nodes[i];
        if (!node.is_leaf()) {
          const uint32_t local_child_index =
              node.children_begin - frag.LevelBegin(level + 1);
          node.children_begin = static_cast<uint32_t>(
              level_offset[level + 1] + prior_children + local_child_index);
        } else {
          node.children_begin = 0;
        }
        nodes.push_back(node);
        bbox_lo.insert(bbox_lo.end(),
                       frag.bbox_lo.begin() + static_cast<size_t>(i) * dims,
                       frag.bbox_lo.begin() + (static_cast<size_t>(i) + 1) *
                                                  dims);
        bbox_hi.insert(bbox_hi.end(),
                       frag.bbox_hi.begin() + static_cast<size_t>(i) * dims,
                       frag.bbox_hi.begin() + (static_cast<size_t>(i) + 1) *
                                                  dims);
      }
      prior_children += frag.LevelCount(level + 1);
    }
  }
  if (nodes.size() != total_nodes) {
    return Status::Internal("external build assembled " +
                            std::to_string(nodes.size()) + " nodes, expected " +
                            std::to_string(total_nodes));
  }

  // ---- Final write: identical layout, header, and padding bytes to
  // WriteSegment (shared helpers), so the differential tests can compare
  // whole files.
  SegmentInfo info;
  info.version = kSegmentVersion;
  info.dims = static_cast<uint32_t>(dims);
  info.num_nodes = static_cast<uint32_t>(total_nodes);
  info.num_points = n;
  info.num_stripes = num_stripes;
  info.stripe_width = stripe_width;
  info.config = config.ekdb;
  si::ComputeSectionLayout(&info);

  auto section = [&info](SegmentSection s) -> SegmentInfo::Section& {
    return info.sections[static_cast<size_t>(s)];
  };
  section(SegmentSection::kDimOrder).checksum = si::Fnv1a64(
      dim_order.data(), dim_order.size() * sizeof(uint32_t), si::kFnvSeed);
  section(SegmentSection::kNodes).checksum = si::Fnv1a64(
      nodes.data(), nodes.size() * sizeof(FlatEkdbNode), si::kFnvSeed);
  section(SegmentSection::kBboxLo).checksum = si::Fnv1a64(
      bbox_lo.data(), bbox_lo.size() * sizeof(float), si::kFnvSeed);
  section(SegmentSection::kBboxHi).checksum = si::Fnv1a64(
      bbox_hi.data(), bbox_hi.size() * sizeof(float), si::kFnvSeed);
  section(SegmentSection::kArena).checksum = arena_out.checksum();
  section(SegmentSection::kArenaIds).checksum = ids_out.checksum();
  section(SegmentSection::kDataset).checksum = dataset_checksum;

  uint8_t page[kSegmentPageBytes];
  si::SerializeHeaderPage(info, page);

  const std::string tmp = segment_path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      Status st = Status::IoError("cannot create segment file '" + tmp + "'");
      return st;
    }
    uint64_t written = 0;
    Status st = StreamWrite(&out, page, sizeof(page));
    written += sizeof(page);

    auto write_section = [&](SegmentSection s, const void* data) -> Status {
      SIMJOIN_RETURN_NOT_OK(PadTo(&out, &written, section(s).offset));
      SIMJOIN_RETURN_NOT_OK(StreamWrite(&out, data, section(s).bytes));
      written += section(s).bytes;
      return Status::OK();
    };
    auto copy_section = [&](SegmentSection s,
                            const std::string& from) -> Status {
      SIMJOIN_RETURN_NOT_OK(PadTo(&out, &written, section(s).offset));
      SIMJOIN_RETURN_NOT_OK(CopyFileInto(from, &out, section(s).bytes));
      written += section(s).bytes;
      return Status::OK();
    };

    if (st.ok()) st = write_section(SegmentSection::kDimOrder, dim_order.data());
    if (st.ok()) st = write_section(SegmentSection::kNodes, nodes.data());
    if (st.ok()) st = write_section(SegmentSection::kBboxLo, bbox_lo.data());
    if (st.ok()) st = write_section(SegmentSection::kBboxHi, bbox_hi.data());
    if (st.ok()) st = copy_section(SegmentSection::kArena, arena_path);
    if (st.ok()) st = copy_section(SegmentSection::kArenaIds, ids_path);
    if (st.ok()) {
      // The dataset section is the input rows in original order; re-stream
      // them from the source file (its checksum was taken in pass 1).
      st = PadTo(&out, &written,
                 section(SegmentSection::kDataset).offset);
      if (st.ok()) {
        BinaryDatasetReader reader;
        st = reader.Open(dataset_path);
        Dataset batch;
        PointId first_id = 0;
        while (st.ok() && !reader.AtEnd()) {
          st = reader.ReadBatch(config.io_batch_points, &batch, &first_id);
          if (st.ok()) {
            st = StreamWrite(&out, batch.data(),
                             batch.size() * dims * sizeof(float));
            written += batch.size() * dims * sizeof(float);
          }
        }
      }
    }
    if (st.ok()) st = PadTo(&out, &written, info.file_bytes);
    if (st.ok()) {
      out.flush();
      if (!out.good()) st = Status::IoError("segment flush failed");
    }
    if (!st.ok()) {
      out.close();
      ::unlink(tmp.c_str());
      return st;
    }
  }
  // Same durability contract as WriteSegment: the bytes must be on disk
  // before the rename publishes the file, or a crash can leave a complete-
  // looking name over torn content.
  {
    const int fd = ::open(tmp.c_str(), O_RDONLY | O_CLOEXEC);
    if (fd < 0 || ::fsync(fd) != 0) {
      if (fd >= 0) ::close(fd);
      ::unlink(tmp.c_str());
      return Status::IoError("segment fsync failed");
    }
    ::close(fd);
  }
  if (::rename(tmp.c_str(), segment_path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    return Status::IoError("cannot rename segment into place");
  }

  report.num_nodes = info.num_nodes;
  report.segment_bytes = info.file_bytes;
  return report;
}

}  // namespace simjoin
