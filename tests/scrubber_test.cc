// The background scrubber's contract (ISSUE 10): under an injected fake
// clock, MaybeScrub fires exactly on the interval; a resident arena that
// stops hashing to its admitted checksum is invalidated (evicted, then
// rebuilt byte-identically on the next request) and never served; a
// persisted entry that fails VerifyArena is quarantined; a mid-save
// entry (payload committed, manifest not yet) is left for the commit
// protocol to finish; and the incremental cursors cover every entry
// across consecutive cycles. All ScrubStats counters are monotone.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "serve/arena_cache.h"
#include "serve/scrubber.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"
#include "sim/world_arena.h"
#include "store/arena_io.h"
#include "util/status.h"

namespace soldist {
namespace serve {
namespace {

namespace fs = std::filesystem;

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

SamplingOptions InlineSampling() {
  SamplingOptions options;
  options.chunk_size = 64;
  return options;
}

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/scrubber_" + name;
  fs::remove_all(dir);
  return dir;
}

store::ArenaManifest RrManifest(std::uint64_t capacity) {
  store::ArenaManifest manifest;
  manifest.kind = "rr";
  manifest.workload = "Karate/uc0.1";
  manifest.seed = 7;
  manifest.stream = "engine/64";
  manifest.capacity = capacity;
  return manifest;
}

/// A minimal WorldArena whose ContentChecksum reads an external cell —
/// the only way to make an (otherwise immutable) resident arena "rot"
/// on demand in a test.
class RotArena : public WorldArena {
 public:
  explicit RotArena(const std::uint64_t* cell) : cell_(cell) {
    num_vertices_ = 1;
    counters_.Append(TraversalCounters{});
  }
  ArenaKind kind() const override { return ArenaKind::kRr; }
  std::uint64_t MemoryBytes() const override { return 64; }
  std::uint64_t ContentChecksum() const override { return *cell_; }

 private:
  const std::uint64_t* cell_;
};

TEST(ScrubberTest, FakeClockDrivesMaybeScrubOnTheInterval) {
  ArenaCache cache(/*budget_bytes=*/0);
  std::uint64_t now_us = 0;
  Scrubber scrubber(&cache, "", /*interval_ms=*/10, [&] { return now_us; });

  // One interval must elapse after construction before the first cycle.
  now_us = 5'000;
  EXPECT_FALSE(scrubber.MaybeScrub());
  now_us = 10'000;
  EXPECT_TRUE(scrubber.MaybeScrub());
  EXPECT_FALSE(scrubber.MaybeScrub()) << "cycle already claimed this tick";
  now_us = 19'999;
  EXPECT_FALSE(scrubber.MaybeScrub());
  now_us = 20'000;
  EXPECT_TRUE(scrubber.MaybeScrub());
  EXPECT_EQ(scrubber.stats().cycles, 2u);
}

TEST(ScrubberTest, IntervalZeroDisablesTimeDrivenScrubbing) {
  ArenaCache cache(/*budget_bytes=*/0);
  std::uint64_t now_us = 0;
  Scrubber scrubber(&cache, "", /*interval_ms=*/0, [&] { return now_us; });
  now_us = 1'000'000'000;
  EXPECT_FALSE(scrubber.MaybeScrub());
  scrubber.RunCycle();  // explicit cycles still work
  EXPECT_EQ(scrubber.stats().cycles, 1u);
}

TEST(ScrubberTest, ResidentRotIsInvalidatedThenRebuiltOnNextRequest) {
  ArenaCache cache(/*budget_bytes=*/0);
  std::uint64_t cell = 0x1111;
  int builds = 0;
  const ArenaCache::Builder builder = [&](std::uint64_t) {
    ++builds;
    return std::make_shared<RotArena>(&cell);
  };
  ASSERT_NE(cache.GetOrBuild("rr/rot", 1, builder), nullptr);

  Scrubber scrubber(&cache, "", /*interval_ms=*/0);
  scrubber.ScrubAll();
  EXPECT_EQ(scrubber.stats().resident_checked, 1u);
  EXPECT_EQ(scrubber.stats().resident_corruptions, 0u);

  // The arena rots in RAM: its checksum no longer matches admission.
  cell = 0x2222;
  scrubber.ScrubAll();
  const ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.resident_checked, 2u);
  EXPECT_EQ(stats.resident_corruptions, 1u);
  EXPECT_EQ(stats.invalidations, 1u);
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().resident_arenas, 0u) << "rot must not stay cached";

  // The next request rebuilds from the key instead of serving the rot.
  ASSERT_NE(cache.GetOrBuild("rr/rot", 1, builder), nullptr);
  EXPECT_EQ(builds, 2);
  // The rebuild was admitted at the CURRENT checksum, so it is healthy.
  scrubber.ScrubAll();
  EXPECT_EQ(scrubber.stats().resident_corruptions, 1u);
}

TEST(ScrubberTest, HealthyRealArenaPassesTheResidentPass) {
  InfluenceGraph ig = KarateUc01();
  ArenaCache cache(/*budget_bytes=*/0);
  const ArenaCache::Builder builder = [&](std::uint64_t capacity) {
    return std::make_shared<RrArena>(
        RrArena::SampleIc(ig, 7, capacity, InlineSampling()));
  };
  ASSERT_NE(cache.GetOrBuild("rr/karate", 32, builder), nullptr);

  Scrubber scrubber(&cache, "", /*interval_ms=*/0);
  scrubber.ScrubAll();
  EXPECT_EQ(scrubber.stats().resident_checked, 1u);
  EXPECT_EQ(scrubber.stats().resident_corruptions, 0u);
  EXPECT_EQ(cache.stats().resident_arenas, 1u);
}

TEST(ScrubberTest, DiskCorruptionIsQuarantinedExactlyOnce) {
  InfluenceGraph ig = KarateUc01();
  const RrArena arena = RrArena::SampleIc(ig, 7, 32, InlineSampling());
  const std::string root = FreshDir("disk_corruption");
  ASSERT_TRUE(fs::create_directories(root));
  ASSERT_TRUE(store::SaveRrArena(arena, RrManifest(32), root + "/entry").ok());
  fs::resize_file(root + "/entry/payload.bin", 8);

  ArenaCache cache(/*budget_bytes=*/0);
  Scrubber scrubber(&cache, root, /*interval_ms=*/0);
  scrubber.ScrubAll();
  const ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.disk_checked, 1u);
  EXPECT_EQ(stats.disk_corruptions, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_FALSE(fs::exists(root + "/entry"));
  EXPECT_TRUE(fs::exists(root + "/quarantine/entry"));

  // A second rotation finds an empty (quarantine-only) tree: nothing
  // further is checked, counted, or double-quarantined.
  scrubber.ScrubAll();
  EXPECT_EQ(scrubber.stats().disk_checked, 1u);
  EXPECT_EQ(scrubber.stats().quarantined, 1u);
}

TEST(ScrubberTest, MidSaveEntryIsLeftForTheCommitProtocol) {
  const std::string root = FreshDir("mid_save");
  // Payload committed, manifest not yet: exactly the window between a
  // save's two renames. VerifyArena reports kNotFound, and the scrubber
  // must neither count it as corruption nor quarantine it.
  ASSERT_TRUE(fs::create_directories(root + "/entry"));
  std::ofstream(root + "/entry/payload.bin") << "committed-first-half";

  ArenaCache cache(/*budget_bytes=*/0);
  Scrubber scrubber(&cache, root, /*interval_ms=*/0);
  scrubber.ScrubAll();
  EXPECT_EQ(scrubber.stats().disk_corruptions, 0u);
  EXPECT_EQ(scrubber.stats().quarantined, 0u);
  EXPECT_TRUE(fs::exists(root + "/entry/payload.bin"));
}

TEST(ScrubberTest, IncrementalCursorCoversEveryDiskEntryAcrossCycles) {
  InfluenceGraph ig = KarateUc01();
  const RrArena arena = RrArena::SampleIc(ig, 7, 32, InlineSampling());
  const std::string root = FreshDir("round_robin");
  ASSERT_TRUE(fs::create_directories(root));
  for (const char* name : {"a_entry", "b_entry", "c_entry"}) {
    ASSERT_TRUE(
        store::SaveRrArena(arena, RrManifest(32), root + "/" + name).ok());
  }
  fs::resize_file(root + "/b_entry/payload.bin", 8);

  ArenaCache cache(/*budget_bytes=*/0);
  Scrubber scrubber(&cache, root, /*interval_ms=*/0);
  // Three incremental cycles = one full rotation of the disk cursor:
  // the corrupted middle entry is found without ever scanning the whole
  // tree in one cycle.
  scrubber.RunCycle();
  scrubber.RunCycle();
  scrubber.RunCycle();
  const ScrubStats stats = scrubber.stats();
  EXPECT_EQ(stats.cycles, 3u);
  EXPECT_EQ(stats.disk_checked, 3u);
  EXPECT_EQ(stats.disk_corruptions, 1u);
  EXPECT_EQ(stats.quarantined, 1u);
  EXPECT_FALSE(fs::exists(root + "/b_entry"));
  EXPECT_TRUE(fs::exists(root + "/a_entry"));
  EXPECT_TRUE(fs::exists(root + "/c_entry"));
}

}  // namespace
}  // namespace serve
}  // namespace soldist
