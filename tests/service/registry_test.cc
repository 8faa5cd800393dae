#include "service/registry.h"

#include <atomic>
#include <filesystem>
#include <thread>
#include <vector>

#include "core/delta_index.h"
#include "core/segment_builder.h"
#include "common/binary_io.h"
#include "workload/generators.h"
#include "gtest/gtest.h"

namespace simjoin {
namespace {

EkdbConfig Config(double epsilon = 0.1) {
  EkdbConfig config;
  config.epsilon = epsilon;
  config.leaf_threshold = 16;
  return config;
}

std::shared_ptr<const IndexSnapshot> MustBuild(const std::string& name,
                                               size_t n, uint64_t seed,
                                               size_t threads = 1) {
  auto data = GenerateUniform({.n = n, .dims = 4, .seed = seed});
  EXPECT_TRUE(data.ok());
  auto snapshot =
      IndexSnapshot::Build(name, std::move(*data), Config(), threads);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return *snapshot;
}

TEST(RegistryTest, PutGetErase) {
  IndexRegistry registry(64 << 20);
  auto snap = MustBuild("alpha", 200, 1);
  ASSERT_TRUE(registry.Put(snap).ok());
  EXPECT_EQ(registry.size(), 1u);
  EXPECT_EQ(registry.bytes_in_use(), snap->memory_bytes());

  auto got = registry.Get("alpha");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->get(), snap.get());
  EXPECT_FALSE(registry.Get("beta").ok());

  EXPECT_TRUE(registry.Erase("alpha"));
  EXPECT_FALSE(registry.Erase("alpha"));
  EXPECT_EQ(registry.bytes_in_use(), 0u);
}

TEST(RegistryTest, PutReplacesSameName) {
  IndexRegistry registry(64 << 20);
  auto first = MustBuild("idx", 100, 1);
  auto second = MustBuild("idx", 300, 2);
  ASSERT_TRUE(registry.Put(first).ok());
  ASSERT_TRUE(registry.Put(second).ok());
  EXPECT_EQ(registry.size(), 1u);
  auto got = registry.Get("idx");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->dataset().size(), 300u);
  EXPECT_EQ(registry.bytes_in_use(), second->memory_bytes());
}

TEST(RegistryTest, LruEvictionUnderByteBudget) {
  auto a = MustBuild("a", 200, 1);
  auto b = MustBuild("b", 200, 2);
  auto c = MustBuild("c", 200, 3);
  // Budget fits roughly two of the three same-sized indexes.
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() +
                         c->memory_bytes() / 2);
  ASSERT_TRUE(registry.Put(a).ok());
  ASSERT_TRUE(registry.Put(b).ok());
  // Touch "a" so "b" is the LRU entry when "c" arrives.
  ASSERT_TRUE(registry.Get("a").ok());
  size_t evicted = 0;
  ASSERT_TRUE(registry.Put(c, &evicted).ok());
  EXPECT_EQ(evicted, 1u);
  EXPECT_EQ(registry.evictions(), 1u);
  EXPECT_TRUE(registry.Get("a").ok());
  EXPECT_FALSE(registry.Get("b").ok());
  EXPECT_TRUE(registry.Get("c").ok());
  EXPECT_LE(registry.bytes_in_use(), registry.byte_budget());
}

TEST(RegistryTest, NewestEntryNeverEvicted) {
  auto a = MustBuild("a", 200, 1);
  auto b = MustBuild("b", 200, 2);
  // Budget below one index would reject; budget between one and two must
  // keep exactly the new arrival.
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2);
  ASSERT_TRUE(registry.Put(a).ok());
  size_t evicted = 0;
  ASSERT_TRUE(registry.Put(b, &evicted).ok());
  EXPECT_EQ(evicted, 1u);
  EXPECT_FALSE(registry.Get("a").ok());
  EXPECT_TRUE(registry.Get("b").ok());
}

TEST(RegistryTest, OverBudgetSnapshotRejected) {
  auto a = MustBuild("a", 200, 1);
  IndexRegistry registry(a->memory_bytes() - 1);
  EXPECT_FALSE(registry.Put(a).ok());
  EXPECT_EQ(registry.size(), 0u);
  EXPECT_EQ(registry.bytes_in_use(), 0u);
}

TEST(RegistryTest, ListIsMruFirst) {
  IndexRegistry registry(256 << 20);
  ASSERT_TRUE(registry.Put(MustBuild("one", 100, 1)).ok());
  ASSERT_TRUE(registry.Put(MustBuild("two", 100, 2)).ok());
  ASSERT_TRUE(registry.Get("one").ok());
  const std::vector<RegistryEntryInfo> list = registry.List();
  ASSERT_EQ(list.size(), 2u);
  EXPECT_EQ(list[0].name, "one");
  EXPECT_EQ(list[1].name, "two");
  EXPECT_EQ(list[0].hits, 1u);
  EXPECT_EQ(list[0].num_points, 100u);
}

TEST(RegistryTest, EvictedSnapshotStaysQueryable) {
  auto a = MustBuild("a", 300, 1);
  auto b = MustBuild("b", 300, 2);
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2);
  ASSERT_TRUE(registry.Put(a).ok());
  auto held = registry.Get("a");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(registry.Put(b).ok());  // evicts "a" from the registry
  EXPECT_FALSE(registry.Get("a").ok());
  // The held reference is unaffected by eviction.
  std::vector<PointId> out;
  const float* q = (*held)->dataset().Row(0);
  EXPECT_TRUE((*held)->tree().RangeQuery(q, 0.05, &out).ok());
}

// -- updatable entries: dynamic byte accounting via RefreshCharge ------------

std::shared_ptr<const IndexSnapshot> MustBuildUpdatable(
    const std::string& name, size_t n, uint64_t seed) {
  auto data = GenerateUniform({.n = n, .dims = 4, .seed = seed});
  EXPECT_TRUE(data.ok());
  auto snapshot = IndexSnapshot::Build(name, std::move(*data), Config(), 1,
                                       BackendKind::kUpdatable);
  EXPECT_TRUE(snapshot.ok()) << snapshot.status().ToString();
  return *snapshot;
}

/// Grows the delta memtable by `count` points (valid in-domain rows).
void GrowDelta(const IndexSnapshot& snapshot, size_t count, uint64_t seed) {
  auto rows = GenerateUniform({.n = count, .dims = 4, .seed = seed});
  ASSERT_TRUE(rows.ok());
  auto first = snapshot.updatable()->InsertBatch(rows->flat().data(), count);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
}

TEST(RegistryUpdatableTest, RefreshChargeFollowsDeltaGrowthAndCompaction) {
  IndexRegistry registry(64 << 20);
  // A base large enough that the delta below stays under the snapshot's
  // auto-compaction thresholds — the footprint only moves when this test
  // says so.
  auto snap = MustBuildUpdatable("u", 2000, 5);
  ASSERT_TRUE(registry.Put(snap).ok());
  const uint64_t admitted = registry.bytes_in_use();
  EXPECT_EQ(admitted, snap->memory_bytes());

  // Mutations move memory_bytes() under the entry; the ledger only moves
  // when RefreshCharge folds the new reading in.
  GrowDelta(*snap, 400, 6);
  const uint64_t grown = snap->memory_bytes();
  EXPECT_GT(grown, admitted);
  EXPECT_EQ(registry.bytes_in_use(), admitted);
  registry.RefreshCharge("u");
  EXPECT_EQ(registry.bytes_in_use(), grown);

  // Compaction moves the footprint again (the delta estimate folds away;
  // the merged tier now owns its row storage); the next refresh trues the
  // ledger up to whatever memory_bytes() reads now.
  auto ran = snap->updatable()->Flush();
  ASSERT_TRUE(ran.ok());
  EXPECT_TRUE(*ran);
  EXPECT_NE(snap->memory_bytes(), grown);
  registry.RefreshCharge("u");
  EXPECT_EQ(registry.bytes_in_use(), snap->memory_bytes());

  // Erase returns exactly the refreshed charge: the ledger lands on zero
  // even though the footprint moved repeatedly since admission.
  EXPECT_TRUE(registry.Erase("u"));
  EXPECT_EQ(registry.bytes_in_use(), 0u);
}

TEST(RegistryUpdatableTest, RefreshChargeIsNoOpForUnknownName) {
  IndexRegistry registry(64 << 20);
  auto snap = MustBuildUpdatable("u", 100, 7);
  ASSERT_TRUE(registry.Put(snap).ok());
  const uint64_t before = registry.bytes_in_use();
  registry.RefreshCharge("ghost");
  EXPECT_EQ(registry.bytes_in_use(), before);
}

TEST(RegistryUpdatableTest, DeltaGrowthEvictsOthersNeverItself) {
  auto u = MustBuildUpdatable("u", 2000, 8);
  auto other = MustBuild("other", 200, 9);
  // Roomy enough for both at admission, but not for a grown delta.
  IndexRegistry registry(u->memory_bytes() + other->memory_bytes() +
                         (4 << 10));
  ASSERT_TRUE(registry.Put(u).ok());
  ASSERT_TRUE(registry.Put(other).ok());
  ASSERT_EQ(registry.size(), 2u);

  // ~84 bytes per delta point: 400 points blows the 4 KiB headroom while
  // staying under the snapshot's auto-compaction thresholds.
  GrowDelta(*u, 400, 10);
  registry.RefreshCharge("u");
  EXPECT_TRUE(registry.Get("u").ok())
      << "an index must not be evicted by its own growth";
  EXPECT_FALSE(registry.Get("other").ok());
  EXPECT_GE(registry.evictions(), 1u);
  EXPECT_EQ(registry.bytes_in_use(), u->memory_bytes());
}

// -- out-of-core tier (segment spill + mmap fault-in) ------------------------

class RegistrySegmentTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // One directory per test: ctest runs tests as parallel processes.
    spill_dir_ = ::testing::TempDir() + "/registry_spill_" +
                 ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(spill_dir_);
  }

  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(spill_dir_, ec);
  }

  size_t SpillFileCount() const {
    size_t n = 0;
    for (const auto& entry :
         std::filesystem::directory_iterator(spill_dir_)) {
      if (entry.path().extension() == ".seg") ++n;
    }
    return n;
  }

  std::string spill_dir_;
};

TEST_F(RegistrySegmentTest, EvictionDemotesToColdAndGetFaultsBackIn) {
  auto a = MustBuild("a", 400, 1);
  auto b = MustBuild("b", 400, 2);
  // Reference answers before "a" is ever evicted.
  std::vector<PointId> want;
  ASSERT_TRUE(a->tree().RangeQuery(a->dataset().Row(3), 0.08, &want).ok());

  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2,
                         spill_dir_);
  ASSERT_TRUE(registry.spill_enabled());
  ASSERT_TRUE(registry.Put(a).ok());
  ASSERT_TRUE(registry.Put(b).ok());  // evicts "a" -> cold tier
  EXPECT_EQ(registry.segment_writes(), 2u);
  EXPECT_EQ(registry.cold_evictions(), 1u);
  EXPECT_EQ(registry.cold_size(), 1u);
  EXPECT_EQ(SpillFileCount(), 2u);

  // The cold entry is still listed (zero resident bytes, cold flag set).
  bool saw_cold = false;
  for (const RegistryEntryInfo& info : registry.List()) {
    if (info.name != "a") continue;
    saw_cold = true;
    EXPECT_TRUE(info.cold);
    EXPECT_EQ(info.num_points, 400u);
  }
  EXPECT_TRUE(saw_cold);

  // Get faults it back in as a mapped snapshot — no rebuild — and the
  // answers are bit-identical to the heap build.
  auto got = registry.Get("a");
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE((*got)->mapped());
  EXPECT_EQ(registry.faults_in(), 1u);
  EXPECT_EQ(registry.cold_size(), 0u);
  std::vector<PointId> have;
  ASSERT_TRUE(
      (*got)->tree().RangeQuery((*got)->dataset().Row(3), 0.08, &have).ok());
  EXPECT_EQ(want, have);
  // Mapped snapshots charge only bookkeeping bytes, far below the heap
  // snapshot they replace.
  EXPECT_LT((*got)->memory_bytes(), a->memory_bytes() / 4);
}

TEST_F(RegistrySegmentTest, MappedSnapshotAdmittedBeyondHeapBudget) {
  // Build a segment externally and serve a dataset whose heap build would
  // blow the registry budget several times over.
  auto data = GenerateUniform({.n = 3000, .dims = 4, .seed = 9});
  ASSERT_TRUE(data.ok());
  const std::string input = spill_dir_ + "/big.sjdb";
  const std::string segment = spill_dir_ + "/big.seg";
  ASSERT_TRUE(WriteBinaryDataset(*data, input).ok());
  ExternalBuildConfig ext;
  ext.ekdb = Config();
  ext.temp_dir = spill_dir_;
  ASSERT_TRUE(BuildSegmentExternal(input, segment, ext).ok());

  auto heap = MustBuild("ref", 3000, 9);
  IndexRegistry registry(heap->memory_bytes() / 4, spill_dir_);
  EXPECT_FALSE(registry.Put(heap).ok());  // heap build: over budget

  auto mapped = IndexSnapshot::OpenMapped("big", segment);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(registry.Put(*mapped).ok());  // mapped: bookkeeping only
  auto got = registry.Get("big");
  ASSERT_TRUE(got.ok());
  EXPECT_TRUE((*got)->mapped());
  EXPECT_EQ((*got)->dataset().size(), 3000u);
}

TEST_F(RegistrySegmentTest, PlanCacheSurvivesEvictFaultCycle) {
  auto a = MustBuild("a", 400, 1);
  auto b = MustBuild("b", 400, 2);
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2,
                         spill_dir_);
  ASSERT_TRUE(registry.Put(a).ok());

  RangePlannerOptions options;
  auto first = a->PlanRange(0.05, 1.0, kWireBackendAuto, options);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  auto repeat = a->PlanRange(0.05, 1.0, kWireBackendAuto, options);
  ASSERT_TRUE(repeat.ok());
  EXPECT_TRUE(repeat->cache_hit);

  ASSERT_TRUE(registry.Put(b).ok());  // demotes "a" (plan cache exported)
  auto got = registry.Get("a");       // faults in (plan cache imported)
  ASSERT_TRUE(got.ok());
  auto after = (*got)->PlanRange(0.05, 1.0, kWireBackendAuto, options);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_TRUE(after->cache_hit)
      << "the (eps, recall) decision should survive the evict/fault cycle";
  EXPECT_EQ(after->plan.kind, first->plan.kind);
}

TEST_F(RegistrySegmentTest, EraseRemovesColdEntryAndSpillFile) {
  auto a = MustBuild("a", 300, 1);
  auto b = MustBuild("b", 300, 2);
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2,
                         spill_dir_);
  ASSERT_TRUE(registry.Put(a).ok());
  ASSERT_TRUE(registry.Put(b).ok());  // "a" goes cold
  ASSERT_EQ(registry.cold_size(), 1u);
  ASSERT_EQ(SpillFileCount(), 2u);

  EXPECT_TRUE(registry.Erase("a"));
  EXPECT_EQ(registry.cold_size(), 0u);
  EXPECT_EQ(SpillFileCount(), 1u);  // only "b"'s write-through file remains
  EXPECT_FALSE(registry.Get("a").ok());

  // Erasing the hot entry unlinks its write-through file too.
  EXPECT_TRUE(registry.Erase("b"));
  EXPECT_EQ(SpillFileCount(), 0u);
}

TEST_F(RegistrySegmentTest, ReplaceDropsStaleSpillFile) {
  IndexRegistry registry(64 << 20, spill_dir_);
  ASSERT_TRUE(registry.Put(MustBuild("idx", 200, 1)).ok());
  ASSERT_TRUE(registry.Put(MustBuild("idx", 300, 2)).ok());
  // The replaced build's segment must not linger on disk.
  EXPECT_EQ(SpillFileCount(), 1u);
  EXPECT_EQ(registry.segment_writes(), 2u);
}

TEST_F(RegistrySegmentTest, UnwritableSpillDirDegradesToDestroyOnEvict) {
  auto a = MustBuild("a", 300, 1);
  auto b = MustBuild("b", 300, 2);
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2,
                         spill_dir_ + "/does/not/exist");
  ASSERT_TRUE(registry.Put(a).ok());  // Put still succeeds...
  EXPECT_GE(registry.segment_write_errors(), 1u);
  ASSERT_TRUE(registry.Put(b).ok());
  // ...but the evicted entry has no segment to demote to: destroyed.
  EXPECT_EQ(registry.cold_size(), 0u);
  EXPECT_FALSE(registry.Get("a").ok());
}

TEST_F(RegistrySegmentTest, CorruptSpillFileFailsFaultInCleanly) {
  auto a = MustBuild("a", 300, 1);
  auto b = MustBuild("b", 300, 2);
  IndexRegistry registry(a->memory_bytes() + b->memory_bytes() / 2,
                         spill_dir_);
  ASSERT_TRUE(registry.Put(a).ok());
  ASSERT_TRUE(registry.Put(b).ok());  // "a" goes cold
  ASSERT_EQ(registry.cold_size(), 1u);
  // Truncate every spill file; the fault-in must surface a clean error.
  for (const auto& entry :
       std::filesystem::directory_iterator(spill_dir_)) {
    if (entry.path().extension() == ".seg") {
      std::filesystem::resize_file(entry.path(), 64);
    }
  }
  auto got = registry.Get("a");
  EXPECT_FALSE(got.ok());
  EXPECT_NE(got.status().message().find("faulted back"), std::string::npos)
      << got.status().ToString();
}

// -- concurrency (exercised under scripts/check_tsan.sh) --------------------

TEST(RegistryConcurrencyTest, SegmentFaultInWhileEvicting) {
  const std::string spill_dir =
      ::testing::TempDir() + "/registry_spill_race";
  std::filesystem::create_directories(spill_dir);
  auto first = MustBuild("cold-0", 300, 1);
  // Budget of ~1.5 indexes over 4 names: every Put demotes someone, and the
  // readers' Gets keep faulting cold entries back in concurrently.
  IndexRegistry registry(first->memory_bytes() + first->memory_bytes() / 2,
                         spill_dir);
  ASSERT_TRUE(registry.Put(first).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> served{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!done.load()) {
        for (int i = 0; i < 4; ++i) {
          auto snap = registry.Get("cold-" + std::to_string(i));
          if (!snap.ok()) continue;  // erased mid-race; fine
          std::vector<PointId> out;
          const float* q = (*snap)->dataset().Row(0);
          ASSERT_TRUE((*snap)->tree().RangeQuery(q, 0.05, &out).ok());
          served.fetch_add(1);
        }
      }
    });
  }
  for (int i = 1; i < 10; ++i) {
    ASSERT_TRUE(
        registry.Put(MustBuild("cold-" + std::to_string(i % 4), 300, 50 + i))
            .ok());
  }
  while (served.load() == 0) std::this_thread::yield();
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(registry.cold_evictions(), 0u);
  std::error_code ec;
  std::filesystem::remove_all(spill_dir, ec);
}


TEST(RegistryConcurrencyTest, BuildWhileQuerying) {
  IndexRegistry registry(512 << 20);
  ASSERT_TRUE(registry.Put(MustBuild("serve", 400, 7)).ok());

  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::thread reader([&]() {
    while (!done.load()) {
      auto snap = registry.Get("serve");
      ASSERT_TRUE(snap.ok());
      std::vector<PointId> out;
      const float* q = (*snap)->dataset().Row(0);
      ASSERT_TRUE((*snap)->tree().RangeQuery(q, 0.08, &out).ok());
      EXPECT_FALSE(out.empty());  // the query point itself is in range
      queries.fetch_add(1);
    }
  });
  // Keep replacing the snapshot the reader is querying.
  for (uint64_t i = 0; i < 8; ++i) {
    ASSERT_TRUE(registry.Put(MustBuild("serve", 400, 100 + i)).ok());
  }
  // On a loaded single-core host the reader may not have been scheduled at
  // all yet; hold the overlap window open until it ran at least once.
  while (queries.load() == 0) std::this_thread::yield();
  done.store(true);
  reader.join();
  EXPECT_GT(queries.load(), 0u);
  EXPECT_EQ(registry.size(), 1u);
}

TEST(RegistryConcurrencyTest, EvictionWhileQuerying) {
  auto first = MustBuild("hot-0", 300, 1);
  // Budget of ~2 indexes, with a writer cycling through 6 names: entries
  // are constantly evicted while readers hold and query them.
  IndexRegistry registry(2 * first->memory_bytes() +
                         first->memory_bytes() / 2);
  ASSERT_TRUE(registry.Put(first).ok());

  std::atomic<bool> done{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&]() {
      while (!done.load()) {
        for (int i = 0; i < 6; ++i) {
          auto snap = registry.Get("hot-" + std::to_string(i));
          if (!snap.ok()) continue;  // evicted; fine
          std::vector<PointId> out;
          const float* q = (*snap)->dataset().Row(0);
          ASSERT_TRUE((*snap)->tree().RangeQuery(q, 0.05, &out).ok());
        }
      }
    });
  }
  for (int i = 1; i < 12; ++i) {
    ASSERT_TRUE(
        registry.Put(MustBuild("hot-" + std::to_string(i % 6), 300, 40 + i))
            .ok());
  }
  done.store(true);
  for (std::thread& t : readers) t.join();
  EXPECT_GT(registry.evictions(), 0u);
  EXPECT_LE(registry.bytes_in_use(), registry.byte_budget());
}

TEST(RegistryConcurrencyTest, ReleaseOrderingFreesEvictedSnapshots) {
  auto probe = MustBuild("n0", 200, 1);
  std::weak_ptr<const IndexSnapshot> watch = probe;
  IndexRegistry registry(probe->memory_bytes() + probe->memory_bytes() / 2);
  ASSERT_TRUE(registry.Put(std::move(probe)).ok());

  // Hold the snapshot from another thread across its eviction, then drop
  // the reference; the snapshot must be destroyed exactly then.
  auto held = registry.Get("n0");
  ASSERT_TRUE(held.ok());
  ASSERT_TRUE(registry.Put(MustBuild("n1", 200, 2)).ok());  // evicts n0
  EXPECT_FALSE(watch.expired());
  std::thread releaser([held = std::move(*held)]() mutable { held.reset(); });
  releaser.join();
  EXPECT_TRUE(watch.expired());
}

}  // namespace
}  // namespace simjoin
