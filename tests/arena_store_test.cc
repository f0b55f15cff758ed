// The store/ subsystem's ctest contract: persisted arenas round-trip
// byte-identically (prefix cuts, worker counts 1/2/4), every
// corruption / identity-mismatch mode is a Status
// the caller falls back from (never an abort), and the compressed / mmap
// backends answer Solve / TopK / Spread byte-identically to flat. Plus
// the serve-layer regressions: ArenaCache charges backend-reported
// ResidentBytes with exact refunds, and QueryService reloads a persisted
// arena across sessions instead of resampling.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "serve/arena_cache.h"
#include "serve/query_service.h"
#include "sim/max_coverage.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_arena.h"
#include "store/arena_io.h"
#include "store/arena_storage.h"
#include "store/fault_injection.h"
#include "util/checksum.h"
#include "util/status.h"

namespace soldist {
namespace {

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size) {
  SamplingOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

void ExpectCountersEq(const TraversalCounters& a,
                      const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

/// A fresh (removed-if-present) directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/arena_store_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

store::ArenaManifest RrManifest(std::uint64_t seed, std::string stream,
                                std::uint64_t capacity) {
  store::ArenaManifest manifest;
  manifest.kind = "rr";
  manifest.workload = "Karate/uc0.1";
  manifest.seed = seed;
  manifest.stream = std::move(stream);
  manifest.capacity = capacity;
  return manifest;
}

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

/// Rewrites the `key=` line of `<dir>/manifest.txt` to `key=value`.
void SetManifestField(const std::string& dir, const std::string& key,
                      const std::string& value) {
  const std::string path = dir + "/manifest.txt";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::string text;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key + "=", 0) == 0) line = key + "=" + value;
    text += line;
    text += '\n';
  }
  in.close();
  WriteFileBytes(path, text);
}

/// Full byte-identity: shape, every set, every inverted list, and the
/// prefix counters at the cuts the ladder actually serves.
void ExpectRrArenasIdentical(const RrArena& a, const RrArena& b) {
  ASSERT_EQ(a.capacity(), b.capacity());
  ASSERT_EQ(a.num_vertices(), b.num_vertices());
  ASSERT_EQ(a.total_entries(), b.total_entries());
  for (std::uint64_t i = 0; i < a.capacity(); ++i) {
    std::span<const VertexId> sa = a.Set(i);
    std::span<const VertexId> sb = b.Set(i);
    ASSERT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()))
        << "set " << i;
  }
  for (VertexId v = 0; v < a.num_vertices(); ++v) {
    std::span<const std::uint32_t> la = a.InvertedAll(v);
    std::span<const std::uint32_t> lb = b.InvertedAll(v);
    ASSERT_TRUE(std::equal(la.begin(), la.end(), lb.begin(), lb.end()))
        << "inverted list of " << v;
  }
  for (std::uint64_t cut : {std::uint64_t{1}, a.capacity() / 2,
                            a.capacity()}) {
    ExpectCountersEq(a.PrefixCounters(cut), b.PrefixCounters(cut));
  }
}

// ---------------------------------------------------------------------
// Save/load round trips: workers 1/2/4.
// ---------------------------------------------------------------------

TEST(ArenaIoTest, RrRoundTripWorkers1To4) {
  InfluenceGraph ig = KarateUc01();
  std::vector<std::shared_ptr<RrArena>> reloaded;
  for (int workers : {1, 2, 4}) {
    RrArena arena = RrArena::SampleIc(ig, 7, 96, Threads(workers, 32));
    std::string dir = FreshDir("rr_w" + std::to_string(workers));
    ASSERT_TRUE(
        store::SaveRrArena(arena, RrManifest(7, "engine/32", 96), dir).ok());
    auto loaded = store::LoadRrArena(dir, RrManifest(7, "engine/32", 96));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    ExpectRrArenasIdentical(arena, *loaded.value());
    reloaded.push_back(loaded.value());
  }
  // Thread-count invariance survives persistence.
  ExpectRrArenasIdentical(*reloaded[0], *reloaded[1]);
  ExpectRrArenasIdentical(*reloaded[0], *reloaded[2]);
}

TEST(ArenaIoTest, LoadServesSmallerCapacityAsExactPrefix) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 9, 128, Threads(1, 64));
  std::string dir = FreshDir("rr_prefix");
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(9, "engine/64", 128), dir).ok());
  // Requesting LESS than the saved capacity is a hit; the loaded arena
  // keeps the full capacity and the prefix is byte-identical to a direct
  // sample at the smaller τ.
  auto loaded = store::LoadRrArena(dir, RrManifest(9, "engine/64", 64));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->capacity(), 128u);
  RrArena direct = RrArena::SampleIc(ig, 9, 64, Threads(1, 64));
  for (std::uint64_t cut : {std::uint64_t{1}, std::uint64_t{32},
                            std::uint64_t{64}}) {
    MaxCoverageResult a = GreedyMaxCoverage(loaded.value()->Prefix(cut), 3);
    MaxCoverageResult b = GreedyMaxCoverage(direct.Prefix(cut), 3);
    EXPECT_EQ(a.seeds, b.seeds);
    EXPECT_EQ(a.covered, b.covered);
  }
}

TEST(ArenaIoTest, SnapshotRoundTripWorkers1To4) {
  InfluenceGraph ig = KarateUc01();
  for (int workers : {1, 2, 4}) {
    SamplingOptions sampling = Threads(workers, 16);
    SnapshotArena arena = SnapshotArena::Sample(ig, 11, 48, sampling);
    store::ArenaManifest manifest;
    manifest.kind = "snapshot";
    manifest.workload = "Karate/uc0.1";
    manifest.seed = 11;
    manifest.stream = "engine/16";
    manifest.capacity = 48;
    std::string dir =
        FreshDir("snapshot_w" + std::to_string(workers));
    ASSERT_TRUE(store::SaveSnapshotArena(arena, manifest, dir).ok());
    auto loaded = store::LoadSnapshotArena(dir, manifest);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    const SnapshotArena& back = *loaded.value();
    ASSERT_EQ(back.capacity(), arena.capacity());
    ASSERT_EQ(back.num_vertices(), arena.num_vertices());
    EXPECT_EQ(back.max_components(), arena.max_components());
    for (std::uint64_t i = 0; i < arena.capacity(); ++i) {
      const CondensedSnapshot& w = arena.World(i);
      const CondensedSnapshot& r = back.World(i);
      EXPECT_EQ(w.comp_of, r.comp_of) << "world " << i;
      EXPECT_EQ(w.comp_size, r.comp_size) << "world " << i;
      EXPECT_EQ(w.dag.offsets, r.dag.offsets) << "world " << i;
      EXPECT_EQ(w.dag.targets, r.dag.targets) << "world " << i;
      EXPECT_EQ(w.rev.offsets, r.rev.offsets) << "world " << i;
      EXPECT_EQ(w.rev.targets, r.rev.targets) << "world " << i;
      EXPECT_EQ(arena.Warmth(i).bound, back.Warmth(i).bound) << i;
      EXPECT_EQ(arena.Warmth(i).is_exact, back.Warmth(i).is_exact) << i;
    }
    for (std::uint64_t cut : {std::uint64_t{1}, std::uint64_t{24},
                              std::uint64_t{48}}) {
      ExpectCountersEq(arena.PrefixCounters(cut), back.PrefixCounters(cut));
    }
  }
}

// ---------------------------------------------------------------------
// Every miss mode is a Status the caller falls back from — never an
// abort, and each mode gets the code the fallback logic dispatches on.
// ---------------------------------------------------------------------

TEST(ArenaIoTest, MissingDirectoryIsNotFound) {
  std::string dir = FreshDir("does_not_exist");
  auto loaded = store::LoadRrArena(dir, RrManifest(1, "engine/64", 8));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound);
}

TEST(ArenaIoTest, IdentityMismatchIsFailedPrecondition) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 32, Threads(1, 64));
  std::string dir = FreshDir("rr_identity");
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(7, "engine/64", 32), dir).ok());

  auto wrong_seed = store::LoadRrArena(dir, RrManifest(8, "engine/64", 32));
  ASSERT_FALSE(wrong_seed.ok());
  EXPECT_EQ(wrong_seed.status().code(), StatusCode::kFailedPrecondition);

  auto wrong_stream =
      store::LoadRrArena(dir, RrManifest(7, "engine/256", 32));
  ASSERT_FALSE(wrong_stream.ok());
  EXPECT_EQ(wrong_stream.status().code(), StatusCode::kFailedPrecondition);

  store::ArenaManifest wrong_workload = RrManifest(7, "engine/64", 32);
  wrong_workload.workload = "Karate/iwc";
  auto mismatch = store::LoadRrArena(dir, wrong_workload);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), StatusCode::kFailedPrecondition);

  // A saved arena SMALLER than the request cannot serve it as a prefix.
  auto too_small = store::LoadRrArena(dir, RrManifest(7, "engine/64", 64));
  ASSERT_FALSE(too_small.ok());
  EXPECT_EQ(too_small.status().code(), StatusCode::kFailedPrecondition);

  // Kind cross-load: a snapshot loader pointed at an RR directory.
  auto wrong_kind =
      store::LoadSnapshotArena(dir, RrManifest(7, "engine/64", 32));
  ASSERT_FALSE(wrong_kind.ok());
  EXPECT_EQ(wrong_kind.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ArenaIoTest, CorruptedPayloadIsStatusNotAbort) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 32, Threads(1, 64));
  std::string dir = FreshDir("rr_corrupt");
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(7, "engine/64", 32), dir).ok());
  const std::string payload = dir + "/payload.bin";
  const auto original_size = std::filesystem::file_size(payload);

  // Flip one byte past the header: the checksum must catch it.
  {
    std::fstream f(payload,
                   std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekg(static_cast<std::streamoff>(original_size / 2));
    char byte = 0;
    f.get(byte);
    f.seekp(static_cast<std::streamoff>(original_size / 2));
    f.put(static_cast<char>(byte ^ 0x5a));
  }
  auto flipped = store::LoadRrArena(dir, RrManifest(7, "engine/64", 32));
  ASSERT_FALSE(flipped.ok());
  EXPECT_EQ(flipped.status().code(), StatusCode::kIoError);

  // Re-save, then truncate: the size guard must catch it.
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(7, "engine/64", 32), dir).ok());
  std::filesystem::resize_file(payload, original_size - 8);
  auto truncated = store::LoadRrArena(dir, RrManifest(7, "engine/64", 32));
  ASSERT_FALSE(truncated.ok());
  EXPECT_EQ(truncated.status().code(), StatusCode::kIoError);
}

TEST(ArenaIoTest, WrongFormatVersionIsFailedPrecondition) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 32, Threads(1, 64));
  std::string dir = FreshDir("rr_version");
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(7, "engine/64", 32), dir).ok());
  // Rewrite the manifest claiming a future format version: the loader
  // must refuse BEFORE touching the payload (callers resample).
  SetManifestField(dir, "format_version", "99");
  auto loaded = store::LoadRrArena(dir, RrManifest(7, "engine/64", 32));
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kFailedPrecondition);
}

// A number past its field's range is a malformed manifest, never a
// wrapped value: format_version=2^32 + 2 must not read as version 2, nor
// seed=2^64 + 7 as seed 7.
TEST(ArenaIoTest, ManifestNumbersThatWrapAreMalformed) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 32, Threads(1, 64));
  const store::ArenaManifest manifest = RrManifest(7, "engine/64", 32);
  const std::string dir = FreshDir("rr_wrap");
  const std::pair<const char*, const char*> wrapping[] = {
      {"format_version", "4294967297"},
      {"format_version", "4294967298"},
      {"seed", "18446744073709551623"},
      {"capacity", "18446744073709551648"},
      {"checksum", "99999999999999999999999"},
  };
  for (const auto& [key, value] : wrapping) {
    ASSERT_TRUE(store::SaveRrArena(arena, manifest, dir).ok());
    SetManifestField(dir, key, value);
    const std::string what = std::string(key) + "=" + value;
    EXPECT_EQ(store::ReadArenaManifest(dir).status().code(),
              StatusCode::kIoError)
        << what;
    EXPECT_EQ(store::LoadRrArena(dir, manifest).status().code(),
              StatusCode::kIoError)
        << what;
    EXPECT_EQ(store::VerifyArena(dir).code(), StatusCode::kIoError) << what;
  }
  // The range ends are still numbers.
  ASSERT_TRUE(store::SaveRrArena(arena, manifest, dir).ok());
  SetManifestField(dir, "seed", "18446744073709551615");
  auto read = store::ReadArenaManifest(dir);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read.value().seed, ~std::uint64_t{0});
  SetManifestField(dir, "format_version", "4294967295");
  auto future = store::LoadRrArena(dir, manifest);
  EXPECT_EQ(future.status().code(), StatusCode::kFailedPrecondition);
}

/// Writes `capacity` into the payload header and the manifest, and
/// re-seals the payload with a matching checksum, so only the capacity
/// bound stands between the entry and a load.
void ForgeCapacity(const std::string& dir, std::uint64_t capacity) {
  std::string bytes = ReadFileBytes(dir + "/payload.bin");
  ASSERT_GE(bytes.size(), 32u);
  std::memcpy(&bytes[24], &capacity, sizeof(capacity));  // header field
  WriteFileBytes(dir + "/payload.bin", bytes);
  SetManifestField(dir, "capacity", std::to_string(capacity));
  SetManifestField(dir, "checksum", std::to_string(Checksum64::Of(
                                        bytes.data(), bytes.size())));
}

// A capacity the payload cannot hold is kIoError for the loaders and for
// VerifyArena, even under a matching checksum — never a wrapped
// capacity + 1, an allocation sized by it, or a clean verify.
TEST(ArenaIoTest, ImpossibleCapacityWithAMatchingChecksumIsStatus) {
  InfluenceGraph ig = KarateUc01();
  const RrArena rr = RrArena::SampleIc(ig, 7, 32, Threads(1, 64));
  const store::ArenaManifest rr_manifest = RrManifest(7, "engine/64", 32);
  const SnapshotArena snap = SnapshotArena::Sample(ig, 11, 8, Threads(1, 16));
  store::ArenaManifest snap_manifest;
  snap_manifest.kind = "snapshot";
  snap_manifest.workload = "Karate/uc0.1";
  snap_manifest.seed = 11;
  snap_manifest.stream = "engine/16";
  snap_manifest.capacity = 8;
  for (std::uint64_t capacity :
       {~std::uint64_t{0}, std::uint64_t{1000000000000},
        std::uint64_t{1} << 32, std::uint64_t{4096}}) {
    const std::string rr_dir = FreshDir("rr_capacity");
    ASSERT_TRUE(store::SaveRrArena(rr, rr_manifest, rr_dir).ok());
    ForgeCapacity(rr_dir, capacity);
    auto rr_loaded = store::LoadRrArena(rr_dir, rr_manifest);
    ASSERT_FALSE(rr_loaded.ok()) << capacity;
    EXPECT_EQ(rr_loaded.status().code(), StatusCode::kIoError) << capacity;
    EXPECT_EQ(store::VerifyArena(rr_dir).code(), StatusCode::kIoError)
        << capacity;

    const std::string snap_dir = FreshDir("snapshot_capacity");
    ASSERT_TRUE(store::SaveSnapshotArena(snap, snap_manifest, snap_dir).ok());
    ForgeCapacity(snap_dir, capacity);
    auto snap_loaded = store::LoadSnapshotArena(snap_dir, snap_manifest);
    ASSERT_FALSE(snap_loaded.ok()) << capacity;
    EXPECT_EQ(snap_loaded.status().code(), StatusCode::kIoError) << capacity;
    EXPECT_EQ(store::VerifyArena(snap_dir).code(), StatusCode::kIoError)
        << capacity;
  }
}

// ---------------------------------------------------------------------
// Backend identity: compressed and mmap answer Solve / TopK / Spread
// byte-identically to flat at every prefix cut.
// ---------------------------------------------------------------------

TEST(ArenaStorageTest, BackendsAnswerIdentically) {
  InfluenceGraph ig = KarateUc01();
  auto flat = std::make_shared<RrArena>(
      RrArena::SampleIc(ig, 3, 128, Threads(1, 64)));

  auto compressed = std::make_shared<RrArena>(*flat);
  store::StorageOptions compress_options;
  compress_options.backend = store::ArenaBackend::kCompressed;
  ASSERT_TRUE(compressed->ConvertStorage(compress_options).ok());
  EXPECT_FALSE(compressed->is_flat());

  auto mapped = std::make_shared<RrArena>(*flat);
  store::StorageOptions mmap_options;
  mmap_options.backend = store::ArenaBackend::kMmap;
  mmap_options.spill_dir = FreshDir("backend_spill");
  ASSERT_TRUE(mapped->ConvertStorage(mmap_options).ok());
  EXPECT_FALSE(mapped->is_flat());

  const VertexId n = flat->num_vertices();
  for (const auto& other : {compressed, mapped}) {
    // Membership identity: encoded sets come back sorted ascending, flat
    // in traversal order — same multiset either way.
    store::StorageScratch scratch;
    for (std::uint64_t i = 0; i < flat->capacity(); ++i) {
      std::span<const VertexId> raw = flat->Set(i);
      std::vector<VertexId> sorted(raw.begin(), raw.end());
      std::sort(sorted.begin(), sorted.end());
      std::span<const VertexId> enc = other->Set(i, &scratch);
      ASSERT_TRUE(
          std::equal(sorted.begin(), sorted.end(), enc.begin(), enc.end()))
          << "set " << i;
    }
    // Inverted lists decode to EXACTLY the flat index.
    for (VertexId v = 0; v < n; ++v) {
      std::span<const std::uint32_t> a = flat->InvertedAll(v);
      std::span<const std::uint32_t> b = other->InvertedAll(v, &scratch);
      ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
          << "inverted list of " << v;
    }
    // Solve (CELF greedy) at three cuts.
    for (std::uint64_t cut : {std::uint64_t{1}, std::uint64_t{64},
                              std::uint64_t{128}}) {
      MaxCoverageResult want = GreedyMaxCoverage(flat->Prefix(cut), 3);
      MaxCoverageResult got = GreedyMaxCoverage(other->Prefix(cut), 3);
      EXPECT_EQ(want.seeds, got.seeds) << "cut " << cut;
      EXPECT_EQ(want.covered, got.covered) << "cut " << cut;
    }
    // Point queries and TopK through the serving layer.
    for (std::uint64_t cut : {std::uint64_t{64}, std::uint64_t{128}}) {
      serve::QueryView want(flat, cut);
      serve::QueryView got(other, cut);
      for (VertexId v = 0; v < n; ++v) {
        EXPECT_EQ(want.Spread({&v, 1}), got.Spread({&v, 1}))
            << "spread of " << v << " at cut " << cut;
      }
      std::vector<VertexId> seeds{0, 5};
      EXPECT_EQ(want.Spread(seeds), got.Spread(seeds));
      EXPECT_EQ(want.MarginalGain(seeds, 33), got.MarginalGain(seeds, 33));
      serve::TopKResult tw = want.TopK(3);
      serve::TopKResult tg = got.TopK(3);
      EXPECT_EQ(tw.seeds, tg.seeds);
      EXPECT_EQ(tw.estimates, tg.estimates);
      EXPECT_EQ(tw.covered, tg.covered);
    }
  }
}

// ---------------------------------------------------------------------
// serve::ArenaCache charges backend-reported resident bytes.
// ---------------------------------------------------------------------

TEST(ArenaCacheTest, ChargesBackendResidentBytesWithExactRefund) {
  InfluenceGraph ig = KarateUc01();
  store::StorageOptions mmap_options;
  mmap_options.backend = store::ArenaBackend::kMmap;
  mmap_options.spill_dir = FreshDir("cache_spill");
  // Tiny chunk budget so most of the mapped payload stays non-resident:
  // the charge must be the RESIDENT number, not the logical one.
  mmap_options.resident_chunk_bytes = 256;
  mmap_options.resident_budget_bytes = 256;
  mmap_options.hot_list_bytes = 1 << 10;

  auto make_mmap_arena = [&](std::uint64_t seed) {
    auto arena = std::make_shared<RrArena>(
        RrArena::SampleIc(ig, seed, 2048, Threads(1, 64)));
    SOLDIST_CHECK(arena->ConvertStorage(mmap_options).ok());
    return arena;
  };

  auto arena1 = make_mmap_arena(1);
  const std::uint64_t charge1 = arena1->ResidentBytes();
  ASSERT_LT(charge1, arena1->MemoryBytes());

  serve::ArenaCache cache(charge1);  // exactly one arena1 fits
  cache.GetOrBuild("a", 2048, [&](std::uint64_t) { return arena1; });
  {
    serve::ArenaCache::Stats stats = cache.stats();
    EXPECT_EQ(stats.resident_arenas, 1u);
    EXPECT_EQ(stats.resident_bytes, charge1);
    EXPECT_EQ(stats.total_bytes, arena1->MemoryBytes());
    EXPECT_GT(stats.total_bytes, stats.resident_bytes);
  }

  // Drift arena1's residency upward (hot-list warmup + chunk churn): the
  // later eviction must refund the CHARGED bytes, not today's reading.
  serve::QueryView view(arena1, 2048);
  for (VertexId v = 0; v < arena1->num_vertices(); ++v) {
    view.Spread({&v, 1});
  }

  auto arena2 = make_mmap_arena(2);
  const std::uint64_t charge2 = arena2->ResidentBytes();
  cache.GetOrBuild("b", 2048, [&](std::uint64_t) { return arena2; });
  serve::ArenaCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.resident_arenas, 1u);
  EXPECT_EQ(stats.resident_bytes, charge2);
  EXPECT_EQ(stats.builds, 2u);
}

// ---------------------------------------------------------------------
// Flags and options surface.
// ---------------------------------------------------------------------

TEST(ArenaStorageTest, ParseArenaBackendRoundTrips) {
  for (store::ArenaBackend backend :
       {store::ArenaBackend::kFlat, store::ArenaBackend::kCompressed,
        store::ArenaBackend::kMmap}) {
    auto parsed = store::ParseArenaBackend(store::ArenaBackendName(backend));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), backend);
  }
  auto bogus = store::ParseArenaBackend("zstd");
  ASSERT_FALSE(bogus.ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kInvalidArgument);
}

TEST(ArenaStorageTest, MmapWithoutSpillDirFailsValidate) {
  store::StorageOptions options;
  options.backend = store::ArenaBackend::kMmap;
  EXPECT_FALSE(options.Validate().ok());
  options.spill_dir = "/tmp/somewhere";
  EXPECT_TRUE(options.Validate().ok());
  store::StorageOptions flat;
  EXPECT_TRUE(flat.Validate().ok());  // flat never needs a spill dir
}

// ---------------------------------------------------------------------
// Session-lifetime persistence through serve::QueryService.
// ---------------------------------------------------------------------

TEST(QueryServicePersistenceTest, ReloadsSavedArenaAcrossServices) {
  std::string dir = FreshDir("service");
  api::WorkloadSpec workload = api::WorkloadSpec::Dataset("Karate")
                                   .Probability(ProbabilityModel::kUc01);
  serve::QuerySpec query;
  query.sample_number = 512;
  query.seed = 17;

  serve::TopKResult first;
  {
    api::SessionOptions options;
    options.arena_dir = dir;
    api::Session session(options);
    serve::QueryService service(&session);
    auto view = service.View(workload, query);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    first = view.value().TopK(3);
  }
  const std::string arena_dir = dir + "/rr_Karate_uc0.1_seed_17_engine_256";
  auto manifest = store::ReadArenaManifest(arena_dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().capacity, 512u);
  EXPECT_EQ(manifest.value().kind, "rr");
  EXPECT_EQ(manifest.value().seed, 17u);
  EXPECT_EQ(manifest.value().stream, "engine/256");

  // A second process asking for a SMALLER τ must be served from the
  // saved arena, byte-identically to a fresh build at that τ.
  serve::QuerySpec smaller = query;
  smaller.sample_number = 256;
  serve::TopKResult persisted, fresh;
  {
    api::SessionOptions options;
    options.arena_dir = dir;
    api::Session session(options);
    serve::QueryService service(&session);
    auto view = service.View(workload, smaller);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    persisted = view.value().TopK(3);
    // Served from disk: the arena keeps the saved capacity.
    EXPECT_EQ(view.value().arena().capacity(), 512u);
  }
  {
    api::Session session{api::SessionOptions{}};  // no persistence
    serve::QueryService service(&session);
    auto view = service.View(workload, smaller);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    fresh = view.value().TopK(3);
  }
  EXPECT_EQ(persisted.seeds, fresh.seeds);
  EXPECT_EQ(persisted.estimates, fresh.estimates);
  EXPECT_EQ(persisted.spread, fresh.spread);

  // Still capacity 512 on disk: a load MISS would have resampled at 256
  // and re-saved, so the unchanged manifest proves the hit.
  auto after = store::ReadArenaManifest(arena_dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().capacity, 512u);
}

/// Rewrites a saved entry as arena format version 1 wrote it: the same
/// payload sections under header version 1, sealed with version 1's
/// byte-at-a-time FNV-1a 64 checksum.
void DowngradeToFormatV1(const std::string& dir) {
  std::string bytes = ReadFileBytes(dir + "/payload.bin");
  ASSERT_GE(bytes.size(), 32u);
  const std::uint32_t version = 1;
  std::memcpy(&bytes[8], &version, sizeof(version));  // header field
  WriteFileBytes(dir + "/payload.bin", bytes);
  std::uint64_t fnv = 0xcbf29ce484222325ull;
  for (unsigned char byte : bytes) {
    fnv ^= byte;
    fnv *= 0x100000001b3ull;
  }
  SetManifestField(dir, "format_version", "1");
  SetManifestField(dir, "checksum", std::to_string(fnv));
}

// What a directory saved by format version 1 meets: the load is a clean
// kFailedPrecondition miss, the service's startup sweep quarantines the
// entry, the first View rebuilds and saves it at the current version,
// and the next service reloads that save byte-identically.
TEST(QueryServicePersistenceTest, FormatV1EntryIsQuarantinedAndRebuilt) {
  namespace fs = std::filesystem;
  const std::string dir = FreshDir("service_v1");
  api::WorkloadSpec workload = api::WorkloadSpec::Dataset("Karate")
                                   .Probability(ProbabilityModel::kUc01);
  serve::QuerySpec query;
  query.sample_number = 512;
  query.seed = 17;
  api::SessionOptions options;
  options.arena_dir = dir;

  serve::TopKResult first;
  {
    api::Session session(options);
    serve::QueryService service(&session);
    auto view = service.View(workload, query);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    first = view.value().TopK(3);
  }
  const std::string arena_dir = dir + "/rr_Karate_uc0.1_seed_17_engine_256";
  DowngradeToFormatV1(arena_dir);
  auto v1 = store::ReadArenaManifest(arena_dir);
  ASSERT_TRUE(v1.ok()) << v1.status().ToString();
  EXPECT_EQ(v1.value().version, 1u);
  EXPECT_EQ(store::LoadRrArena(arena_dir, v1.value()).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(store::VerifyArena(arena_dir).code(),
            StatusCode::kFailedPrecondition);

  std::uint64_t rebuilt_checksum = 0;
  {
    api::Session session(options);
    serve::QueryService service(&session);
    EXPECT_EQ(service.recovery_report().quarantined_entries, 1u);
    EXPECT_FALSE(fs::exists(arena_dir));
    EXPECT_TRUE(fs::is_directory(dir + "/quarantine"));
    auto view = service.View(workload, query);
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    serve::TopKResult rebuilt = view.value().TopK(3);
    EXPECT_EQ(rebuilt.seeds, first.seeds);
    EXPECT_EQ(rebuilt.estimates, first.estimates);
    rebuilt_checksum = view.value().arena().ContentChecksum();
  }
  auto v2 = store::ReadArenaManifest(arena_dir);
  ASSERT_TRUE(v2.ok()) << v2.status().ToString();
  EXPECT_EQ(v2.value().version, store::kArenaFormatVersion);
  EXPECT_EQ(v2.value().capacity, 512u);
  EXPECT_TRUE(store::VerifyArena(arena_dir).ok());

  // A smaller τ proves the reload: a rebuild would sample only 256 sets.
  serve::QuerySpec smaller = query;
  smaller.sample_number = 256;
  api::Session session(options);
  serve::QueryService service(&session);
  EXPECT_EQ(service.recovery_report().quarantined_entries, 0u);
  EXPECT_EQ(service.recovery_report().healthy_entries, 1u);
  auto view = service.View(workload, smaller);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  EXPECT_EQ(view.value().arena().capacity(), 512u);
  EXPECT_EQ(view.value().arena().ContentChecksum(), rebuilt_checksum);
}

/// The same reload contract for sampled-world views: the snapshot arena
/// saved at τ=512 serves a later τ=256 SnapshotView from disk, and its
/// answers equal those of a service that never persisted anything.
TEST(QueryServicePersistenceTest, ReloadsSavedWorldArenaAcrossServices) {
  std::string dir = FreshDir("service_worlds");
  api::WorkloadSpec workload = api::WorkloadSpec::Dataset("Karate")
                                   .Probability(ProbabilityModel::kUc01);
  serve::QuerySpec query;
  query.sample_number = 512;
  query.seed = 17;
  {
    api::SessionOptions options;
    options.arena_dir = dir;
    api::Session session(options);
    serve::QueryService service(&session);
    ASSERT_TRUE(service.SnapshotView(workload, query).ok());
  }
  const std::string arena_dir =
      dir + "/snapshot_Karate_uc0.1_seed_17_engine_256";
  auto manifest = store::ReadArenaManifest(arena_dir);
  ASSERT_TRUE(manifest.ok()) << manifest.status().ToString();
  EXPECT_EQ(manifest.value().kind, "snapshot");
  EXPECT_EQ(manifest.value().capacity, 512u);

  serve::QuerySpec smaller = query;
  smaller.sample_number = 256;
  api::SessionOptions persisting;
  persisting.arena_dir = dir;
  api::Session persisted_session(persisting);
  serve::QueryService persisted_service(&persisted_session);
  auto persisted = persisted_service.SnapshotView(workload, smaller);
  ASSERT_TRUE(persisted.ok()) << persisted.status().ToString();
  // Served from disk: the arena keeps the saved capacity.
  EXPECT_EQ(persisted.value().arena().capacity(), 512u);
  EXPECT_EQ(persisted.value().served_tau(), 256u);

  api::Session fresh_session{api::SessionOptions{}};  // no persistence
  serve::QueryService fresh_service(&fresh_session);
  auto fresh = fresh_service.SnapshotView(workload, smaller);
  ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
  serve::TopKResult tp = persisted.value().TopK(3);
  serve::TopKResult tf = fresh.value().TopK(3);
  EXPECT_EQ(tp.seeds, tf.seeds);
  EXPECT_EQ(tp.estimates, tf.estimates);
  EXPECT_EQ(tp.spread, tf.spread);
  const VertexId n = fresh.value().num_vertices();
  for (VertexId src = 0; src < n; src += 3) {
    for (VertexId dst = 0; dst < n; dst += 5) {
      EXPECT_EQ(persisted.value().ReachProbability(src, dst),
                fresh.value().ReachProbability(src, dst))
          << src << " -> " << dst;
    }
  }

  // Still capacity 512 on disk: a load miss would have re-saved at 256.
  auto after = store::ReadArenaManifest(arena_dir);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().capacity, 512u);
}

TEST(QueryServicePersistenceTest, NonFlatServiceBackendMatchesFlat) {
  api::WorkloadSpec workload = api::WorkloadSpec::Dataset("Karate")
                                   .Probability(ProbabilityModel::kUc01);
  serve::QuerySpec query;
  query.sample_number = 256;
  query.seed = 23;

  api::Session flat_session{api::SessionOptions{}};
  serve::QueryService flat_service(&flat_session);
  auto want = flat_service.View(workload, query);
  ASSERT_TRUE(want.ok());

  for (store::ArenaBackend backend :
       {store::ArenaBackend::kCompressed, store::ArenaBackend::kMmap}) {
    api::SessionOptions options;
    options.arena_storage.backend = backend;
    options.arena_storage.spill_dir = FreshDir("service_spill");
    api::Session session(options);
    serve::QueryService service(&session);
    auto got = service.View(workload, query);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    EXPECT_EQ(got.value().arena().backend(), backend);
    serve::TopKResult tw = want.value().TopK(4);
    serve::TopKResult tg = got.value().TopK(4);
    EXPECT_EQ(tw.seeds, tg.seeds);
    EXPECT_EQ(tw.estimates, tg.estimates);
    for (VertexId v = 0; v < got.value().num_vertices(); ++v) {
      EXPECT_EQ(want.value().Spread({&v, 1}), got.value().Spread({&v, 1}));
    }
  }
}

// ---------------------------------------------------------------------
// Fault injection at the arena_io boundaries (ISSUE 9): every injected
// damage mode is a Status the caller falls back from — never an abort,
// never a silently wrong arena — and a clean retry after the fault
// round-trips byte-identically.
// ---------------------------------------------------------------------

/// Installs a fault spec for one test body and uninstalls on scope exit,
/// so a storm can never leak into later cases in this binary (or
/// override a CI SOLDIST_FAULT_SPEC preset for them).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const std::string& spec) {
    Status installed = store::InstallFaultInjector(spec);
    EXPECT_TRUE(installed.ok()) << installed.ToString();
  }
  ~ScopedFaultInjection() { store::UninstallFaultInjector(); }
};

TEST(ArenaIoResilienceTest, TornWriteReportsOkButLoadCatchesTheDamage) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 96, Threads(1, 64));
  std::string dir = FreshDir("resilience_torn");
  {
    ScopedFaultInjection faults("torn-write");
    // The torn write LIES: only a prefix hit disk, yet Save reports
    // success with the full size/checksum — exactly a power-cut between
    // write and the sector actually landing. The read-side guards are
    // the contract under test.
    Status saved =
        store::SaveRrArena(arena, RrManifest(7, "engine/64", 96), dir);
    ASSERT_TRUE(saved.ok()) << saved.ToString();
    auto loaded = store::LoadRrArena(dir, RrManifest(7, "engine/64", 96));
    EXPECT_FALSE(loaded.ok()) << "torn payload loaded as valid";
  }
  // Clean retry over the damaged directory: save again, load, identical.
  dir = FreshDir("resilience_torn");
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(7, "engine/64", 96), dir).ok());
  auto reloaded = store::LoadRrArena(dir, RrManifest(7, "engine/64", 96));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectRrArenasIdentical(*reloaded.value(), arena);
}

TEST(ArenaIoResilienceTest, ShortReadOfACleanPayloadIsStatusNotAbort) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 96, Threads(1, 64));
  std::string dir = FreshDir("resilience_short");
  ASSERT_TRUE(
      store::SaveRrArena(arena, RrManifest(7, "engine/64", 96), dir).ok());
  {
    ScopedFaultInjection faults("short-read");
    auto loaded = store::LoadRrArena(dir, RrManifest(7, "engine/64", 96));
    EXPECT_FALSE(loaded.ok()) << "truncated read loaded as valid";
  }
  auto reloaded = store::LoadRrArena(dir, RrManifest(7, "engine/64", 96));
  ASSERT_TRUE(reloaded.ok()) << reloaded.status().ToString();
  ExpectRrArenasIdentical(*reloaded.value(), arena);
}

TEST(ArenaIoResilienceTest, IoErrorStormSaveLoadIsOkOrStatusNeverAbort) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 96, Threads(1, 64));
  ScopedFaultInjection faults("error-rate=0.3,seed=9");
  int round_trips = 0;
  for (int i = 0; i < 20; ++i) {
    std::string dir = FreshDir("resilience_storm_" + std::to_string(i));
    Status saved =
        store::SaveRrArena(arena, RrManifest(7, "engine/64", 96), dir);
    auto loaded = store::LoadRrArena(dir, RrManifest(7, "engine/64", 96));
    // Every outcome is a Status; and a load that DOES succeed must be
    // the genuine arena — a fault may fail an op, never corrupt one.
    if (saved.ok() && loaded.ok()) {
      ExpectRrArenasIdentical(*loaded.value(), arena);
      ++round_trips;
    }
  }
  // rate 0.3 leaves plenty of clean (save, load) pairs in 20 rounds; if
  // every round failed the storm is hitting more than its spec says.
  EXPECT_GT(round_trips, 0);
}

TEST(ArenaIoResilienceTest, ErrorEveryNthOpFailsDeterministically) {
  InfluenceGraph ig = KarateUc01();
  RrArena arena = RrArena::SampleIc(ig, 7, 96, Threads(1, 64));
  // Two identical runs under the same every-Nth spec (fresh injector
  // each time resets the op counter) must fail the SAME rounds.
  auto run = [&]() -> std::vector<bool> {
    std::vector<bool> ok;
    ScopedFaultInjection faults("error-every=5");
    for (int i = 0; i < 6; ++i) {
      std::string dir = FreshDir("resilience_every_" + std::to_string(i));
      const store::ArenaManifest manifest = RrManifest(7, "engine/64", 96);
      Status saved = store::SaveRrArena(arena, manifest, dir);
      ok.push_back(saved.ok() && store::LoadRrArena(dir, manifest).ok());
    }
    return ok;
  };
  const std::vector<bool> first = run();
  const std::vector<bool> second = run();
  EXPECT_EQ(first, second);
  EXPECT_NE(std::count(first.begin(), first.end(), false), 0)
      << "every-5th-op spec injected nothing across 6 save/load rounds";
}

}  // namespace
}  // namespace soldist
