// The SnapshotArena acceptance contract: a condensed SnapshotEstimator
// borrowing an arena prefix at any τ <= capacity is BYTE-IDENTICAL to a
// fresh condensed SnapshotEstimator at that τ — greedy seeds, per-step
// estimates, and full traversal counters — at several prefix cuts, for
// IC and LT worlds, and byte-identical for any worker count, the default
// inline width 1 included — also where a build cuts its chunks into
// pieces that enter a chunk's stream mid-chunk, at the default and at a
// large chunk size, and where a cancel stops those pieces. Plus the
// serving contracts: capacity upgrades
// through the cache never change a prefix answer, a byte-budgeted cache
// rebuilds evicted snapshot arenas identically, and invalid requests
// (LT workloads, which the service serves for IC only; bad specs) are
// Status — never an abort.

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "core/factory.h"
#include "core/greedy.h"
#include "core/snapshot.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/lt.h"
#include "model/probability.h"
#include "serve/query_service.h"
#include "sim/lt_samplers.h"
#include "sim/snapshot_arena.h"

namespace soldist {
namespace {

constexpr std::uint64_t kSeed = 29;
constexpr std::uint64_t kCapacity = 64;

InfluenceGraph KarateIwc() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
}

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size = 32) {
  SamplingOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

void ExpectCountersEq(const TraversalCounters& a, const TraversalCounters& b,
                      const std::string& label) {
  EXPECT_EQ(a.vertices, b.vertices) << label;
  EXPECT_EQ(a.edges, b.edges) << label;
  EXPECT_EQ(a.sample_vertices, b.sample_vertices) << label;
  EXPECT_EQ(a.sample_edges, b.sample_edges) << label;
}

/// Borrowed-vs-fresh through full greedy runs at widths 1/2/4 and three
/// cuts: a tiny prefix, a non-power-of-two interior cut, and the full
/// arena.
void ExpectPrefixMatchesFreshAtEveryWidth(const ModelInstance& instance) {
  const VertexId n = instance.ig->num_vertices();
  std::uint64_t width1_checksum = 0;
  for (int threads : {1, 2, 4}) {
    const SamplingOptions sampling = Threads(threads);
    SnapshotArena arena =
        SnapshotArena::SampleFor(instance, kSeed, kCapacity, sampling);
    ASSERT_EQ(arena.capacity(), kCapacity);
    // Width 1 (the default inline engine) equals widths 2 and 4.
    if (threads == 1) width1_checksum = arena.ContentChecksum();
    EXPECT_EQ(arena.ContentChecksum(), width1_checksum)
        << "threads=" << threads;
    for (std::uint64_t tau : {std::uint64_t{7}, std::uint64_t{23},
                              kCapacity}) {
      const std::string label = DiffusionModelName(instance.model) +
                                " threads=" + std::to_string(threads) +
                                " tau=" + std::to_string(tau);
      SnapshotEstimator from_arena(&arena, tau);
      std::unique_ptr<InfluenceEstimator> fresh = MakeEstimator(
          instance, Approach::kSnapshot, tau, kSeed,
          SnapshotEstimator::Mode::kCondensed, sampling);
      // Full greedy runs with the same tie stream: identical warm state
      // and identical marginal gains force identical selections.
      Rng tie_a(11), tie_b(11);
      GreedyRunResult a = RunGreedy(&from_arena, n, 3, &tie_a);
      GreedyRunResult b = RunGreedy(fresh.get(), n, 3, &tie_b);
      EXPECT_EQ(a.seeds, b.seeds) << label;
      EXPECT_EQ(a.estimates, b.estimates) << label;
      ExpectCountersEq(from_arena.counters(), fresh->counters(), label);
    }
  }
}

TEST(SnapshotArenaTest, PrefixMatchesFreshEstimatorAtEveryWidth) {
  InfluenceGraph ig = KarateIwc();
  ExpectPrefixMatchesFreshAtEveryWidth(ModelInstance::Ic(&ig));
}

TEST(SnapshotArenaTest, LtPrefixMatchesFreshEstimatorAtEveryWidth) {
  InfluenceGraph ig = KarateIwc();
  LtWeights weights(&ig);
  ExpectPrefixMatchesFreshAtEveryWidth(ModelInstance::Lt(&weights));
}

/// Worlds, warmth, every prefix's counters and the content checksum.
void ExpectArenasEqual(const SnapshotArena& a, const SnapshotArena& b,
                       const std::string& label) {
  ASSERT_EQ(a.capacity(), b.capacity()) << label;
  EXPECT_EQ(a.max_components(), b.max_components()) << label;
  for (std::uint64_t i = 0; i < a.capacity(); ++i) {
    const CondensedSnapshot& wa = a.World(i);
    const CondensedSnapshot& wb = b.World(i);
    EXPECT_EQ(wa.comp_of, wb.comp_of) << label << " world " << i;
    EXPECT_EQ(wa.comp_size, wb.comp_size) << label << " world " << i;
    EXPECT_EQ(wa.dag.offsets, wb.dag.offsets) << label << " world " << i;
    EXPECT_EQ(wa.dag.targets, wb.dag.targets) << label << " world " << i;
    EXPECT_EQ(wa.rev.offsets, wb.rev.offsets) << label << " world " << i;
    EXPECT_EQ(wa.rev.targets, wb.rev.targets) << label << " world " << i;
    EXPECT_EQ(a.Warmth(i).bound, b.Warmth(i).bound) << label << " world " << i;
    EXPECT_EQ(a.Warmth(i).is_exact, b.Warmth(i).is_exact)
        << label << " world " << i;
  }
  for (std::uint64_t tau = 1; tau <= a.capacity(); ++tau) {
    ExpectCountersEq(a.PrefixCounters(tau), b.PrefixCounters(tau),
                     label + " prefix " + std::to_string(tau));
  }
  EXPECT_EQ(a.ContentChecksum(), b.ContentChecksum()) << label;
}

TEST(SnapshotArenaTest, BuildIsWorkerCountInvariant) {
  InfluenceGraph ig = KarateIwc();
  SnapshotArena a = SnapshotArena::Sample(ig, kSeed, kCapacity, Threads(1));
  for (int threads : {2, 4}) {
    ExpectArenasEqual(
        a, SnapshotArena::Sample(ig, kSeed, kCapacity, Threads(threads)),
        "threads=" + std::to_string(threads));
  }
}

// The build's cut: the chunks of a last round that does not fill every
// active worker (all of them, when a build has fewer chunks than
// workers) are sampled as pieces of one worker's share of their worlds,
// at least kSnapshotTileWorlds, that enter the chunk's stream mid-chunk.
// 300 worlds in chunks of 256 (a partial last chunk) or of 100 (pieces
// that do not divide a chunk) are 2 or 3 chunks, so widths 4 and 8 cut
// every chunk, width 2 cuts only the third chunk of 100, and the inline
// width 1 never cuts. In one chunk of 4096, widths 2, 4 and 8 cut it
// into 2, 4 and 8 pieces, the skip growing with the width, not with the
// chunk size.
constexpr std::uint64_t kCutCapacity = 300;

InfluenceGraph BaIwc() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::BaDense(3));
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
}

/// Anchors an arena to the raw snapshot sampler, which draws whole chunks
/// and skips nothing: world i is the condensation of raw snapshot i.
void ExpectWorldsAreCondensedRawSnapshots(const ModelInstance& instance,
                                          const SnapshotArena& arena,
                                          std::uint64_t chunk_size,
                                          const std::string& label) {
  SamplingEngine engine(Threads(1, chunk_size));
  const std::vector<SnapshotShard> shards = SampleSnapshotShardsFor(
      instance, kSeed, arena.capacity(), &engine);
  SnapshotCondenser condenser(instance.ig->num_vertices());
  std::uint64_t i = 0;
  for (const SnapshotShard& shard : shards) {
    for (const Snapshot& raw : shard.snapshots) {
      const CondensedSnapshot world = condenser.Condense(raw);
      EXPECT_EQ(world.comp_of, arena.World(i).comp_of)
          << label << " world " << i;
      EXPECT_EQ(world.dag.targets, arena.World(i).dag.targets)
          << label << " world " << i;
      ++i;
    }
  }
  EXPECT_EQ(i, arena.capacity()) << label;
}

/// What a fresh condensed estimator shows of its build: a greedy run,
/// its counters, every initial bound and its memory.
struct FreshBuild {
  GreedyRunResult greedy;
  TraversalCounters counters;
  std::vector<double> bounds;
  std::uint64_t memory_bytes = 0;
};

FreshBuild BuildFresh(const ModelInstance& instance, std::uint64_t tau,
                      const SamplingOptions& sampling) {
  SnapshotEstimator estimator(instance, tau, kSeed,
                              SnapshotEstimator::Mode::kCondensed, sampling);
  FreshBuild build;
  Rng tie(11);
  build.greedy = RunGreedy(&estimator, instance.ig->num_vertices(), 3, &tie);
  build.counters = estimator.counters();
  for (VertexId v = 0; v < instance.ig->num_vertices(); ++v) {
    build.bounds.push_back(estimator.InitialBound(v));
  }
  build.memory_bytes = estimator.MemoryBytes();
  return build;
}

/// Arenas and fresh condensed estimators at widths 2/4/8 against the
/// inline width 1, for each chunk size.
void ExpectWidthsEqualAcrossTheCut(const ModelInstance& instance,
                                   const std::string& name) {
  const VertexId n = instance.ig->num_vertices();
  for (std::uint64_t chunk_size :
       {std::uint64_t{256}, std::uint64_t{100}, std::uint64_t{4096}}) {
    const SnapshotArena reference = SnapshotArena::SampleFor(
        instance, kSeed, kCutCapacity, Threads(1, chunk_size));
    ASSERT_EQ(reference.capacity(), kCutCapacity);
    ExpectWorldsAreCondensedRawSnapshots(
        instance, reference, chunk_size,
        name + " chunk=" + std::to_string(chunk_size));
    for (int threads : {2, 4, 8}) {
      ExpectArenasEqual(
          reference,
          SnapshotArena::SampleFor(instance, kSeed, kCutCapacity,
                                   Threads(threads, chunk_size)),
          name + " chunk=" + std::to_string(chunk_size) +
              " threads=" + std::to_string(threads));
    }
    for (std::uint64_t tau : {std::uint64_t{1}, std::uint64_t{33},
                              kCutCapacity}) {
      const FreshBuild inline_build =
          BuildFresh(instance, tau, Threads(1, chunk_size));
      // Every extra worker adds one round slot's scratch (per-vertex
      // deltas, and a visited marker and queue of the largest DAG);
      // nothing else in a fresh build may depend on the width.
      const std::uint64_t slot_bytes =
          n * sizeof(std::uint64_t) +
          2 * sizeof(std::uint32_t) *
              SnapshotArena::SampleFor(instance, kSeed, tau,
                                       Threads(1, chunk_size))
                  .max_components();
      for (int threads : {2, 4, 8}) {
        const std::string label =
            name + " chunk=" + std::to_string(chunk_size) +
            " threads=" + std::to_string(threads) +
            " tau=" + std::to_string(tau);
        const FreshBuild build =
            BuildFresh(instance, tau, Threads(threads, chunk_size));
        EXPECT_EQ(build.greedy.seeds, inline_build.greedy.seeds) << label;
        EXPECT_EQ(build.greedy.estimates, inline_build.greedy.estimates)
            << label;
        ExpectCountersEq(build.counters, inline_build.counters, label);
        EXPECT_EQ(build.bounds, inline_build.bounds) << label;
        EXPECT_EQ(build.memory_bytes,
                  inline_build.memory_bytes + (threads - 1) * slot_bytes)
            << label;
      }
    }
  }
}

TEST(SnapshotArenaTest, CutBuildEqualsWholeChunksAtEveryWidth) {
  InfluenceGraph karate = KarateIwc();
  ExpectWidthsEqualAcrossTheCut(ModelInstance::Ic(&karate), "IC Karate");
  InfluenceGraph ba = BaIwc();
  ExpectWidthsEqualAcrossTheCut(ModelInstance::Ic(&ba), "IC BA_d");
}

TEST(SnapshotArenaTest, LtCutBuildEqualsWholeChunksAtEveryWidth) {
  InfluenceGraph karate = KarateIwc();
  LtWeights karate_weights(&karate);
  ExpectWidthsEqualAcrossTheCut(ModelInstance::Lt(&karate_weights),
                                "LT Karate");
  InfluenceGraph ba = BaIwc();
  LtWeights ba_weights(&ba);
  ExpectWidthsEqualAcrossTheCut(ModelInstance::Lt(&ba_weights), "LT BA_d");
}

TEST(SnapshotArenaTest, CancelledCutBuildAtWidth4KeepsItsCompletedPrefix) {
  // 300 worlds in chunks of 256 at width 4 take the cut. A token that
  // fires on its n-th poll stops the pieces wherever they are, skipping
  // or sampling; whatever the cut (schedule-dependent), the arena keeps
  // world 0 and equals a direct build at its capacity, whole chunks
  // (width 1) or cut.
  InfluenceGraph ig = BaIwc();
  for (int fire_after : {1, 10, 40, 150}) {
    std::atomic<int> polls{0};
    CancelToken token([&polls, fire_after] {
      return polls.fetch_add(1) + 1 >= fire_after;
    });
    SamplingOptions sampling = Threads(4, 256);
    sampling.cancel = &token;
    const SnapshotArena partial =
        SnapshotArena::Sample(ig, kSeed, kCutCapacity, sampling);
    const std::string label = "fire_after=" + std::to_string(fire_after);
    ASSERT_GE(partial.capacity(), 1u) << label;
    ASSERT_LT(partial.capacity(), kCutCapacity) << label;
    for (int threads : {1, 4}) {
      const SnapshotArena direct = SnapshotArena::Sample(
          ig, kSeed, partial.capacity(), Threads(threads, 256));
      EXPECT_EQ(partial.ContentChecksum(), direct.ContentChecksum())
          << label << " threads=" << threads;
      ExpectCountersEq(partial.PrefixCounters(partial.capacity()),
                       direct.PrefixCounters(direct.capacity()),
                       label + " threads=" + std::to_string(threads));
    }
  }
}

TEST(SnapshotArenaTest, ServiceUpgradeKeepsPrefixAnswersAndKindsApart) {
  api::Session session;
  serve::QueryService service(&session);
  const api::WorkloadSpec workload =
      api::WorkloadSpec::Dataset("Karate").Probability(
          ProbabilityModel::kIwc);
  serve::QuerySpec spec;
  spec.seed = kSeed;

  spec.sample_number = 64;
  auto first = service.SnapshotView(workload, spec);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(service.cache_stats().builds, 1u);
  const double reach_before = first.value().ReachProbability(0, 33);
  const double comp_before = first.value().ExpectedReach(0);

  // Smaller τ: prefix hit, no build.
  spec.sample_number = 32;
  ASSERT_TRUE(service.SnapshotView(workload, spec).ok());
  EXPECT_EQ(service.cache_stats().builds, 1u);
  EXPECT_EQ(service.cache_stats().hits, 1u);

  // Larger τ: capacity upgrade — exactly one rebuild, and the τ=64
  // answers are unchanged (prefix-closed streams).
  spec.sample_number = 128;
  auto upgraded = service.SnapshotView(workload, spec);
  ASSERT_TRUE(upgraded.ok());
  EXPECT_EQ(service.cache_stats().builds, 2u);
  spec.sample_number = 64;
  auto again = service.SnapshotView(workload, spec);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(service.cache_stats().builds, 2u);
  EXPECT_DOUBLE_EQ(again.value().ReachProbability(0, 33), reach_before);
  EXPECT_DOUBLE_EQ(again.value().ExpectedReach(0), comp_before);
  // The pre-upgrade view stays alive through its shared arena.
  EXPECT_DOUBLE_EQ(first.value().ReachProbability(0, 33), reach_before);

  // The kind prefix keeps arena families apart: an RR view of the SAME
  // workload/seed is a separate build, and the snapshot arena still
  // serves as a hit afterwards.
  ASSERT_TRUE(service.View(workload, spec).ok());
  EXPECT_EQ(service.cache_stats().builds, 3u);
  ASSERT_TRUE(service.SnapshotView(workload, spec).ok());
  EXPECT_EQ(service.cache_stats().builds, 3u);
}

TEST(SnapshotArenaTest, CappedCacheEvictsAndRebuildsIdentically) {
  // A 1-byte budget holds nothing: each new key evicts the previous
  // arena; a rebuild must answer identically (arena content is a pure
  // function of its key).
  api::SessionOptions options;
  options.arena_budget_bytes = 1;
  api::Session session(options);
  serve::QueryService service(&session);
  const api::WorkloadSpec iwc =
      api::WorkloadSpec::Dataset("Karate").Probability(
          ProbabilityModel::kIwc);
  const api::WorkloadSpec uc =
      api::WorkloadSpec::Dataset("Karate").Probability(
          ProbabilityModel::kUc01);
  serve::QuerySpec spec;
  spec.seed = kSeed;
  spec.sample_number = 64;

  auto a1 = service.SnapshotView(iwc, spec);
  ASSERT_TRUE(a1.ok());
  const double a_reach = a1.value().ReachProbability(2, 30);
  const double a_comp = a1.value().ExpectedReach(2);

  auto b1 = service.SnapshotView(uc, spec);
  ASSERT_TRUE(b1.ok());
  EXPECT_GE(service.cache_stats().evictions, 1u);

  // The first workload was evicted: this is a rebuild, with answers
  // byte-identical to the evicted original.
  auto a2 = service.SnapshotView(iwc, spec);
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(service.cache_stats().builds, 3u);
  EXPECT_DOUBLE_EQ(a2.value().ReachProbability(2, 30), a_reach);
  EXPECT_DOUBLE_EQ(a2.value().ExpectedReach(2), a_comp);
  // The evicted view's arena is still alive through its shared_ptr.
  EXPECT_DOUBLE_EQ(a1.value().ReachProbability(2, 30), a_reach);
}

TEST(SnapshotArenaTest, InvalidRequestsReturnStatusNotAbort) {
  api::Session session;
  serve::QueryService service(&session);
  serve::QuerySpec spec;
  spec.sample_number = 16;

  // The service serves sampled-world views for IC only: an LT workload
  // is a Status, never a CHECK.
  auto lt = service.SnapshotView(
      api::WorkloadSpec::Dataset("Karate")
          .Probability(ProbabilityModel::kIwc)
          .Diffusion(DiffusionModel::kLt),
      spec);
  EXPECT_FALSE(lt.ok());

  auto unknown = service.SnapshotView(
      api::WorkloadSpec::Dataset("NoSuchNetwork")
          .Probability(ProbabilityModel::kIwc),
      spec);
  EXPECT_FALSE(unknown.ok());

  serve::QuerySpec bad;
  bad.sample_number = 0;
  auto zero = service.SnapshotView(
      api::WorkloadSpec::Dataset("Karate").Probability(
          ProbabilityModel::kIwc),
      bad);
  EXPECT_FALSE(zero.ok());
}

}  // namespace
}  // namespace soldist
