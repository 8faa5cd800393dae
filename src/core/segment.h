// On-disk index segments: the out-of-core form of a FlatEkdbTree.
//
// A segment file is a versioned, checksummed container holding everything
// needed to serve an index with zero rebuild work: the flat tree's node
// array, bbox planes, leaf-packed (dims-major) coordinate arena and id
// remap, plus the original dataset rows (original row order) and the
// resolved dimension order.  Every section starts on a 4096-byte page boundary and the arrays
// are stored exactly as FlatEkdbTree lays them out in memory, so the file
// can be served two ways:
//
//  * mmap fault-in (MappedSegment + FlatEkdbTree::FromView): the registry's
//    cold tier.  Only the header page is read eagerly; node/arena pages
//    fault in on first touch and the OS page cache owns residency.
//  * full load (OpenSegment kInMemory): reads and checksum-verifies every
//    section into owned storage — the Load-compatible path differential
//    tests bit-compare against in-RAM builds.
//
// The format is host-endian (little-endian in practice — same assumption
// the wire protocol makes) and fixed-layout: FlatEkdbNode is a packed
// 28-byte POD, so the node section maps directly as the traversal's node
// array.  Integrity: an FNV-1a 64 checksum per section plus one over the
// header; mmap opens verify the header eagerly and may verify sections on
// demand (VerifyChecksums), full loads always verify everything.
//
// See docs/external.md for the format diagram and lifecycle.

#ifndef SIMJOIN_CORE_SEGMENT_H_
#define SIMJOIN_CORE_SEGMENT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/dataset.h"
#include "common/status.h"
#include "core/ekdb_config.h"
#include "core/ekdb_flat.h"

namespace simjoin {

/// Segment file magic ("SJSG") and current format version.  Version 2
/// stores each leaf of the arena dims-major; version 1 files (row-major
/// arena) are rejected and must be rebuilt.
inline constexpr uint32_t kSegmentMagic = 0x4753'4A53;
inline constexpr uint32_t kSegmentVersion = 2;
/// Every section offset is a multiple of this (mmap page granularity).
inline constexpr uint64_t kSegmentPageBytes = 4096;

/// Section order inside a segment file (also the section-table order).
enum class SegmentSection : uint32_t {
  kDimOrder = 0,  ///< dims x u32 resolved dimension order
  kNodes = 1,     ///< num_nodes x FlatEkdbNode (BFS order)
  kBboxLo = 2,    ///< num_nodes x dims floats
  kBboxHi = 3,    ///< num_nodes x dims floats
  kArena = 4,     ///< num_points x dims floats (DFS leaf order, each
                  ///< leaf block dims-major)
  kArenaIds = 5,  ///< num_points x u32 arena-position -> row id remap
  kDataset = 6,   ///< num_points x dims floats (original row order)
};
inline constexpr size_t kNumSegmentSections = 7;

/// Parsed, validated segment header.
struct SegmentInfo {
  uint32_t version = 0;
  uint32_t dims = 0;
  uint32_t num_nodes = 0;
  uint64_t num_points = 0;
  uint64_t num_stripes = 1;
  double stripe_width = 1.0;
  EkdbConfig config;  ///< dim_order filled from the kDimOrder section
  struct Section {
    uint64_t offset = 0;
    uint64_t bytes = 0;
    uint64_t checksum = 0;
  };
  Section sections[kNumSegmentSections];
  uint64_t file_bytes = 0;
};

/// Writes the flat tree (and the dataset it was built over) as a segment
/// file.  The file is written to a temporary sibling and renamed into
/// place, so readers never observe a half-written segment.
Status WriteSegment(const FlatEkdbTree& tree, const std::string& path);

/// A read-only memory mapping of a segment file.  Construction validates
/// the header (magic, version, section table bounds, header checksum) but
/// faults no data pages; accessors hand out typed pointers into the
/// mapping.  Safe for unsynchronised concurrent reads; unmapped on
/// destruction.  madvise: the node/bbox sections are marked WILLNEED (hot,
/// touched by every traversal), the arena and dataset sections RANDOM
/// (point queries touch scattered leaf windows).
class MappedSegment {
 public:
  static Result<std::shared_ptr<MappedSegment>> Open(const std::string& path);
  ~MappedSegment();

  const SegmentInfo& info() const { return info_; }
  const std::string& path() const { return path_; }

  const uint32_t* dim_order() const {
    return SectionAs<uint32_t>(SegmentSection::kDimOrder);
  }
  const FlatEkdbNode* nodes() const {
    return SectionAs<FlatEkdbNode>(SegmentSection::kNodes);
  }
  const float* bbox_lo() const {
    return SectionAs<float>(SegmentSection::kBboxLo);
  }
  const float* bbox_hi() const {
    return SectionAs<float>(SegmentSection::kBboxHi);
  }
  const float* arena() const {
    return SectionAs<float>(SegmentSection::kArena);
  }
  const PointId* arena_ids() const {
    return SectionAs<PointId>(SegmentSection::kArenaIds);
  }
  const float* dataset_rows() const {
    return SectionAs<float>(SegmentSection::kDataset);
  }

  /// Total bytes mapped (the whole file).
  uint64_t mapped_bytes() const { return info_.file_bytes; }

  /// Bytes of the mapping currently resident in physical memory (mincore
  /// sample; 0 if the kernel cannot answer).  This is the number the
  /// out-of-core bench gates its resident-set ceiling on.
  uint64_t ResidentBytes() const;

  /// Verifies every section checksum by reading the mapped bytes (faults
  /// the whole file in — meant for tests and explicit integrity checks,
  /// not the serving path).
  Status VerifyChecksums() const;

  /// Hints the kernel that this mapping is cold (MADV_DONTNEED), releasing
  /// resident pages; they fault back in on next access.
  void ReleaseResidentPages() const;

  MappedSegment(const MappedSegment&) = delete;
  MappedSegment& operator=(const MappedSegment&) = delete;

 private:
  MappedSegment() = default;

  template <typename T>
  const T* SectionAs(SegmentSection section) const {
    const SegmentInfo::Section& s =
        info_.sections[static_cast<size_t>(section)];
    return reinterpret_cast<const T*>(static_cast<const uint8_t*>(base_) +
                                      s.offset);
  }

  std::string path_;
  void* base_ = nullptr;
  uint64_t length_ = 0;
  SegmentInfo info_;
};

/// How OpenSegment materialises the index.
enum class SegmentOpenMode {
  kMmap,      ///< fault-in serving: views over a MappedSegment
  kInMemory,  ///< full checksum-verified read into owned storage
};

/// A segment opened for serving: the dataset (borrowed over the mapping or
/// an owned copy), the flat tree over it, and — for mapped opens — the
/// mapping that keeps both alive.  Movable; members are destroyed in
/// declaration order (tree first, then dataset, then mapping), which is the
/// safe teardown order.
struct SegmentIndex {
  std::shared_ptr<MappedSegment> segment;  ///< null for in-memory opens
  std::unique_ptr<Dataset> dataset;
  std::unique_ptr<FlatEkdbTree> tree;
};

/// Opens a segment file for serving.  kMmap validates the header and wraps
/// views (lazy fault-in); kInMemory reads and verifies every section into
/// owned storage.  Both modes produce trees that answer every query
/// bit-identically to the FlatEkdbTree the segment was written from.
Result<SegmentIndex> OpenSegment(const std::string& path,
                                 SegmentOpenMode mode);

/// Reads and validates only the header page (cheap existence / integrity /
/// shape probe — used by registry fault-in bookkeeping and tooling).
Result<SegmentInfo> ReadSegmentInfo(const std::string& path);

}  // namespace simjoin

#endif  // SIMJOIN_CORE_SEGMENT_H_
