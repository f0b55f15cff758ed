// The serving layer's correctness contract: QueryView point queries are
// EXACTLY the estimates a fresh RIS build at the same (seed, τ, stream
// family) produces — Spread/MarginalGain against RisEstimator's
// Estimate/Update protocol, TopK against GreedyMaxCoverage on a freshly
// sampled and merged RR payload — plus the concurrency and cache contracts: a
// 4-thread mixed-query hammer is byte-identical to the single-threaded
// reference, and a byte-budgeted cache rebuilds evicted arenas with
// identical answers (arena content is a pure function of its key).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "api/session.h"
#include "api/spec.h"
#include "core/ris.h"
#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "random/splitmix64.h"
#include "serve/query_service.h"
#include "sim/max_coverage.h"
#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"
#include "store/fault_injection.h"

namespace soldist {
namespace {

constexpr std::uint64_t kSeed = 17;
constexpr std::uint64_t kTau = 600;

api::WorkloadSpec KarateUc01() {
  return api::WorkloadSpec::Dataset("Karate").Probability(
      ProbabilityModel::kUc01);
}

serve::QuerySpec SpecAt(std::uint64_t tau) {
  serve::QuerySpec spec;
  spec.sample_number = tau;
  spec.seed = kSeed;
  return spec;
}

/// The RR sets a fresh RIS build at `tau` draws with the default
/// sampling options (RisEstimator::Build's streams — what the default
/// QuerySpec's arena must prefix-match), merged into a payload of their
/// own, apart from any arena the service holds.
store::RrFlatPayload DirectPayload(const InfluenceGraph& ig,
                                   std::uint64_t tau) {
  SamplingEngine engine;
  return MergeRrShards(ig.num_vertices(),
                       SampleRrShards(ig, kSeed, tau, &engine), &engine);
}

TEST(QueryServiceTest, SpreadMatchesFreshRisEstimator) {
  api::Session session;
  serve::QueryService service(&session);
  auto view = service.View(KarateUc01(), SpecAt(kTau));
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  auto instance = session.ResolveWorkload(KarateUc01());
  ASSERT_TRUE(instance.ok());
  RisEstimator estimator(instance.value(), kTau, kSeed);
  estimator.Build();
  for (VertexId v = 0; v < view.value().num_vertices(); ++v) {
    const VertexId seeds[] = {v};
    EXPECT_DOUBLE_EQ(view.value().Spread(seeds), estimator.Estimate(v))
        << "vertex " << v;
  }
}

TEST(QueryServiceTest, MultiSeedSpreadMatchesBruteForceCount) {
  api::Session session;
  serve::QueryService service(&session);
  auto view = service.View(KarateUc01(), SpecAt(kTau));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto instance = session.ResolveWorkload(KarateUc01());
  ASSERT_TRUE(instance.ok());
  const InfluenceGraph& ig = *instance.value().ig;
  const store::RrFlatPayload payload = DirectPayload(ig, kTau);

  SplitMix64 rng(7);
  serve::QueryScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<VertexId> seeds(1 + trial % 6);
    for (VertexId& v : seeds) {
      v = static_cast<VertexId>(rng.Next() % ig.num_vertices());
    }
    EXPECT_EQ(view.value().CoveredCount(seeds, &scratch),
              CountCovered(payload, seeds));
    EXPECT_DOUBLE_EQ(view.value().Spread(seeds, &scratch),
                     static_cast<double>(ig.num_vertices()) *
                         static_cast<double>(CountCovered(payload, seeds)) /
                         static_cast<double>(kTau));
  }
}

TEST(QueryServiceTest, MarginalGainMatchesEstimatorUpdateProtocol) {
  api::Session session;
  serve::QueryService service(&session);
  auto view = service.View(KarateUc01(), SpecAt(kTau));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto instance = session.ResolveWorkload(KarateUc01());
  ASSERT_TRUE(instance.ok());

  RisEstimator estimator(instance.value(), kTau, kSeed);
  estimator.Build();
  std::vector<VertexId> committed;
  for (VertexId next : {VertexId{0}, VertexId{33}, VertexId{5}}) {
    // Estimate(v) after Update(s in committed) IS the marginal gain of v
    // on top of `committed` — QueryView must agree for every candidate
    // (chosen seeds included: their gain is 0 both ways).
    for (VertexId v = 0; v < view.value().num_vertices(); ++v) {
      EXPECT_DOUBLE_EQ(view.value().MarginalGain(committed, v),
                       estimator.Estimate(v))
          << "|S|=" << committed.size() << " v=" << v;
    }
    estimator.Update(next);
    committed.push_back(next);
  }
}

TEST(QueryServiceTest, TopKMatchesFreshGreedyMaxCoverageSolve) {
  api::Session session;
  serve::QueryService service(&session);
  auto view = service.View(KarateUc01(), SpecAt(kTau));
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  auto instance = session.ResolveWorkload(KarateUc01());
  ASSERT_TRUE(instance.ok());
  const store::RrFlatPayload payload =
      DirectPayload(*instance.value().ig, kTau);

  for (int k : {1, 4, 8}) {
    serve::TopKResult topk = view.value().TopK(k);
    MaxCoverageResult fresh = GreedyMaxCoverage(payload, k);
    EXPECT_EQ(topk.seeds, fresh.seeds) << "k=" << k;
    EXPECT_EQ(topk.covered, fresh.covered) << "k=" << k;

    // The estimates column is the marginal at selection time: replay the
    // seed order through a fresh estimator's Estimate/Update protocol.
    RisEstimator estimator(instance.value(), kTau, kSeed);
    estimator.Build();
    ASSERT_EQ(topk.estimates.size(), topk.seeds.size());
    for (std::size_t i = 0; i < topk.seeds.size(); ++i) {
      EXPECT_DOUBLE_EQ(topk.estimates[i], estimator.Estimate(topk.seeds[i]))
          << "k=" << k << " step " << i;
      estimator.Update(topk.seeds[i]);
    }
  }
}

TEST(QueryServiceTest, DeadlineCancelledTopKIsAByteIdenticalPrefix) {
  api::Session session;
  serve::QueryService service(&session);
  auto view = service.View(KarateUc01(), SpecAt(kTau));
  ASSERT_TRUE(view.ok()) << view.status().ToString();

  // A token that fires after r cancelled() draws stops CELF at round r;
  // the served prefix must equal the direct k = r answer in every
  // column (seeds, estimates, covered) — degraded means SHORTER, never
  // DIFFERENT.
  for (int fire_after : {1, 3}) {
    int checks = 0;
    CancelToken cancel([&] { return ++checks >= fire_after; });
    serve::TopKResult degraded = view.value().TopK(8, &cancel);
    EXPECT_FALSE(degraded.completed);
    ASSERT_EQ(degraded.seeds.size(), static_cast<std::size_t>(fire_after));
    serve::TopKResult direct = view.value().TopK(fire_after);
    EXPECT_TRUE(direct.completed);
    EXPECT_EQ(degraded.seeds, direct.seeds);
    EXPECT_EQ(degraded.estimates, direct.estimates);
    EXPECT_EQ(degraded.covered, direct.covered);
  }

  // An unfired token is invisible.
  CancelToken idle;
  serve::TopKResult with = view.value().TopK(5, &idle);
  serve::TopKResult without = view.value().TopK(5);
  EXPECT_TRUE(with.completed);
  EXPECT_EQ(with.seeds, without.seeds);
}

TEST(QueryServiceTest, ConcurrentHammerIsIdenticalToSingleThreaded) {
  api::Session session;
  serve::QueryService service(&session);
  auto view_or = service.View(KarateUc01(), SpecAt(kTau));
  ASSERT_TRUE(view_or.ok()) << view_or.status().ToString();
  const serve::QueryView view = view_or.value();
  const VertexId n = view.num_vertices();

  // Deterministic mixed workload: spreads of 1..5 seeds and marginal
  // gains against 2-seed bases.
  const std::uint64_t kQueries = 4000;
  struct Query {
    bool gain = false;
    std::vector<VertexId> seeds;
    VertexId vertex = 0;
  };
  std::vector<Query> queries(kQueries);
  SplitMix64 rng(99);
  for (Query& q : queries) {
    q.gain = rng.Next() % 3 == 0;
    q.seeds.resize(1 + rng.Next() % (q.gain ? 2 : 5));
    for (VertexId& v : q.seeds) v = static_cast<VertexId>(rng.Next() % n);
    q.vertex = static_cast<VertexId>(rng.Next() % n);
  }
  auto answer = [&](const Query& q, serve::QueryScratch* scratch) {
    return q.gain ? view.MarginalGain(q.seeds, q.vertex, scratch)
                  : view.Spread(q.seeds, scratch);
  };

  std::vector<double> reference(kQueries);
  serve::QueryScratch scratch;
  for (std::uint64_t i = 0; i < kQueries; ++i) {
    reference[i] = answer(queries[i], &scratch);
  }

  const int kThreads = 4;
  std::vector<double> concurrent(kQueries);
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      serve::QueryScratch local;
      // Strided assignment: all threads interleave over the whole range.
      for (std::uint64_t i = static_cast<std::uint64_t>(t); i < kQueries;
           i += kThreads) {
        concurrent[i] = answer(queries[i], &local);
      }
    });
  }
  for (std::thread& w : workers) w.join();
  EXPECT_EQ(concurrent, reference);
}

TEST(QueryServiceTest, CacheHitsPrefixesAndCapacityUpgrades) {
  api::Session session;
  serve::QueryService service(&session);

  auto small = service.View(KarateUc01(), SpecAt(200));
  ASSERT_TRUE(small.ok());
  EXPECT_EQ(service.cache_stats().builds, 1u);

  // Same τ again: pure hit. Smaller τ: still a hit (prefix serving).
  ASSERT_TRUE(service.View(KarateUc01(), SpecAt(200)).ok());
  ASSERT_TRUE(service.View(KarateUc01(), SpecAt(64)).ok());
  EXPECT_EQ(service.cache_stats().builds, 1u);
  EXPECT_EQ(service.cache_stats().hits, 2u);

  const VertexId probe[] = {VertexId{0}};
  const double before = small.value().Spread(probe);

  // Larger τ: capacity upgrade (one rebuild), after which the small τ is
  // again served as a prefix of the NEW arena with unchanged answers.
  auto big = service.View(KarateUc01(), SpecAt(500));
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(service.cache_stats().builds, 2u);
  auto small_again = service.View(KarateUc01(), SpecAt(200));
  ASSERT_TRUE(small_again.ok());
  EXPECT_EQ(service.cache_stats().builds, 2u);
  EXPECT_DOUBLE_EQ(small_again.value().Spread(probe), before);
  // The pre-upgrade view stays alive and valid through its shared arena.
  EXPECT_DOUBLE_EQ(small.value().Spread(probe), before);
}

TEST(QueryServiceTest, SampleThreadsAreNotPartOfTheCacheKey) {
  // Every width builds the same arena, so a View at sample_threads 1 and
  // then 0 (shared pool) for the same seed is one build plus one hit.
  api::SessionOptions options;
  options.threads = 2;
  api::Session session(options);
  serve::QueryService service(&session);
  serve::QuerySpec spec = SpecAt(kTau);
  spec.sample_threads = 1;
  auto inline_view = service.View(KarateUc01(), spec);
  ASSERT_TRUE(inline_view.ok());
  spec.sample_threads = 0;
  auto pooled_view = service.View(KarateUc01(), spec);
  ASSERT_TRUE(pooled_view.ok());
  EXPECT_EQ(service.cache_stats().builds, 1u);
  EXPECT_EQ(service.cache_stats().hits, 1u);
  EXPECT_EQ(&inline_view.value().arena(), &pooled_view.value().arena());
}

TEST(QueryServiceTest, CappedCacheEvictsAndRebuildsIdentically) {
  // A 1-byte budget can hold nothing: every new key evicts the previous
  // arena (always-admit keeps exactly the most recent one resident).
  api::SessionOptions options;
  options.arena_budget_bytes = 1;
  api::Session session(options);
  serve::QueryService service(&session);

  api::WorkloadSpec workload_a = KarateUc01();
  api::WorkloadSpec workload_b =
      api::WorkloadSpec::Dataset("Karate").Probability(ProbabilityModel::kIwc);

  auto a1 = service.View(workload_a, SpecAt(256));
  ASSERT_TRUE(a1.ok());
  const VertexId probe[] = {VertexId{2}};
  const double a_spread = a1.value().Spread(probe);
  EXPECT_EQ(service.cache_stats().resident_arenas, 1u);

  auto b = service.View(workload_b, SpecAt(256));
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(service.cache_stats().evictions, 1u);
  EXPECT_EQ(service.cache_stats().resident_arenas, 1u);

  // The evicted arena must be rebuilt byte-identically on re-request...
  auto a2 = service.View(workload_a, SpecAt(256));
  ASSERT_TRUE(a2.ok());
  EXPECT_EQ(service.cache_stats().builds, 3u);
  EXPECT_DOUBLE_EQ(a2.value().Spread(probe), a_spread);
  for (VertexId v = 0; v < a1.value().num_vertices(); ++v) {
    ASSERT_EQ(a2.value().arena().InvertedAll(v).size(),
              a1.value().arena().InvertedAll(v).size());
  }
  // ...and the evicted view itself stays queryable (shared ownership).
  EXPECT_DOUBLE_EQ(a1.value().Spread(probe), a_spread);
}

// ---------------------------------------------------------------------
// Resilient serving (ISSUE 9). Service-level outcomes depend on real
// timing (how far a build got before its deadline), so these tests are
// INVARIANT-style: every legal outcome is accepted, and each outcome's
// contract is checked exactly — a degraded answer must be byte-identical
// to a direct build at its served τ (prefix-closed streams make it an
// exact smaller answer, not an approximation), and nothing may abort.
// ---------------------------------------------------------------------

/// Installs a fault spec for one test body, uninstalling on scope exit
/// so a storm never leaks into later cases (or overrides a CI
/// SOLDIST_FAULT_SPEC preset for them).
class ScopedFaultInjection {
 public:
  explicit ScopedFaultInjection(const std::string& spec) {
    Status installed = store::InstallFaultInjector(spec);
    EXPECT_TRUE(installed.ok()) << installed.ToString();
  }
  ~ScopedFaultInjection() { store::UninstallFaultInjector(); }
};

std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/query_resilience_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(QueryServiceResilienceTest, IoErrorStormAnswersMatchFaultFreeExactly) {
  // Fault-free reference (no persistence, no injector).
  std::vector<double> reference;
  {
    api::Session session;
    serve::QueryService service(&session);
    auto view = service.View(KarateUc01(), SpecAt(kTau));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    for (VertexId v = 0; v < view.value().num_vertices(); ++v) {
      const VertexId seeds[] = {v};
      reference.push_back(view.value().Spread(seeds));
    }
  }
  // A 10% IO-error storm over a persisting service: loads fail and fall
  // back to sampling, saves fail and serve unpersisted, retries fire —
  // and every answer is STILL byte-identical to fault-free, because no
  // deadline is set so no build is ever truncated.
  ScopedFaultInjection faults("error-rate=0.1,seed=7");
  for (int round = 0; round < 3; ++round) {
    api::SessionOptions options;
    options.arena_dir = FreshDir("storm");
    api::Session session(options);
    serve::QueryService service(&session);
    auto view = service.View(KarateUc01(), SpecAt(kTau));
    ASSERT_TRUE(view.ok()) << view.status().ToString();
    EXPECT_FALSE(view.value().degraded());
    EXPECT_EQ(view.value().served_tau(), kTau);
    for (VertexId v = 0; v < view.value().num_vertices(); ++v) {
      const VertexId seeds[] = {v};
      EXPECT_DOUBLE_EQ(view.value().Spread(seeds), reference[v])
          << "round " << round << " vertex " << v;
    }
  }
}

TEST(QueryServiceResilienceTest, DeadlineMissServesExactPrefixAnswer) {
  api::Session session;
  serve::QueryService service(&session);
  auto instance = session.ResolveWorkload(KarateUc01());
  ASSERT_TRUE(instance.ok());
  const InfluenceGraph& ig = *instance.value().ig;

  // Pre-populate a small prefix so SOME resident arena always exists.
  ASSERT_TRUE(service.View(KarateUc01(), SpecAt(100)).ok());

  // A τ far beyond what 1 ms of sampling completes: the build is
  // cancelled cooperatively and the view degrades to the completed
  // prefix. (On an absurdly fast machine the build may finish — then
  // the full-answer contract applies instead.)
  constexpr std::uint64_t kHugeTau = 200000;
  serve::QuerySpec spec = SpecAt(kHugeTau);
  spec.deadline_ms = 1;
  auto view = service.View(KarateUc01(), spec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::uint64_t served = view.value().served_tau();
  EXPECT_EQ(view.value().requested_tau(), kHugeTau);
  ASSERT_GE(served, 1u);
  ASSERT_LE(served, kHugeTau);
  EXPECT_EQ(view.value().degraded(), served < kHugeTau);
  if (view.value().degraded()) {
    serve::ResilienceStats stats = service.resilience_stats();
    EXPECT_GE(stats.degraded_answers, 1u);
    EXPECT_GE(stats.deadline_misses, 1u);
  }

  // The degraded answer is EXACT at its served τ: identical to a fresh
  // direct build of `served` sets from the same prefix-closed streams.
  const store::RrFlatPayload direct = DirectPayload(ig, served);
  serve::QueryScratch scratch;
  SplitMix64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<VertexId> seeds(1 + trial % 4);
    for (VertexId& v : seeds) {
      v = static_cast<VertexId>(rng.Next() % ig.num_vertices());
    }
    EXPECT_EQ(view.value().CoveredCount(seeds, &scratch),
              CountCovered(direct, seeds));
  }
}

/// The same deadline contract for sampled-world views: a truncated
/// SnapshotView answers Spread and ReachProbability exactly as a view
/// over a direct SnapshotArena build at its served τ.
TEST(QueryServiceResilienceTest, DeadlineMissServesExactPrefixWorldAnswer) {
  api::Session session;
  serve::QueryService service(&session);
  auto instance = session.ResolveWorkload(KarateUc01());
  ASSERT_TRUE(instance.ok());
  const InfluenceGraph& ig = *instance.value().ig;
  ASSERT_TRUE(service.SnapshotView(KarateUc01(), SpecAt(100)).ok());

  constexpr std::uint64_t kHugeTau = 200000;
  serve::QuerySpec spec = SpecAt(kHugeTau);
  spec.deadline_ms = 1;
  auto view = service.SnapshotView(KarateUc01(), spec);
  ASSERT_TRUE(view.ok()) << view.status().ToString();
  const std::uint64_t served = view.value().served_tau();
  EXPECT_EQ(view.value().requested_tau(), kHugeTau);
  ASSERT_GE(served, 1u);
  ASSERT_LE(served, kHugeTau);
  EXPECT_EQ(view.value().degraded(), served < kHugeTau);
  if (view.value().degraded()) {
    serve::ResilienceStats stats = service.resilience_stats();
    EXPECT_GE(stats.degraded_answers, 1u);
    EXPECT_GE(stats.deadline_misses, 1u);
  }

  // The default QuerySpec's sampling: inline, 256-sample chunks.
  SamplingOptions sampling;
  sampling.num_threads = 1;
  sampling.chunk_size = spec.chunk_size;
  serve::SnapshotQueryView direct(
      std::make_shared<const SnapshotArena>(
          SnapshotArena::Sample(ig, kSeed, served, sampling)),
      served);
  SplitMix64 rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<VertexId> seeds(1 + trial % 4);
    for (VertexId& v : seeds) {
      v = static_cast<VertexId>(rng.Next() % ig.num_vertices());
    }
    EXPECT_EQ(view.value().Spread(seeds), direct.Spread(seeds));
    EXPECT_EQ(view.value().ReachProbability(seeds[0], seeds.back()),
              direct.ReachProbability(seeds[0], seeds.back()));
  }
}

TEST(QueryServiceResilienceTest, OverloadShedsOrDegradesNeverBlocksQueries) {
  api::SessionOptions options;
  options.max_inflight_builds = 1;  // one build slot, no queue
  api::Session session(options);
  serve::QueryService service(&session);

  // Resident prefix for degraded answers while the slot is busy.
  ASSERT_TRUE(service.View(KarateUc01(), SpecAt(100)).ok());

  std::atomic<bool> done{false};
  std::thread background([&] {
    // The background request can itself lose the slot race against a
    // foreground caller and get shed — retry until admitted.
    for (;;) {
      auto big = service.View(KarateUc01(), SpecAt(120000));
      if (big.ok()) break;
      EXPECT_EQ(big.status().code(), StatusCode::kUnavailable)
          << big.status().ToString();
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    done.store(true);
  });
  // Foreground requests racing the background build land in exactly one
  // of three legal states: shed (kUnavailable, nothing resident),
  // degraded from a resident prefix, or full (the build finished / this
  // caller won the slot). Anything else — a crash, a silently short
  // non-degraded answer — fails here.
  while (!done.load()) {
    auto view = service.View(KarateUc01(), SpecAt(80000));
    if (view.ok()) {
      EXPECT_LE(view.value().served_tau(), 80000u);
      EXPECT_EQ(view.value().degraded(),
                view.value().served_tau() < 80000u);
    } else {
      EXPECT_EQ(view.status().code(), StatusCode::kUnavailable)
          << view.status().ToString();
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  background.join();

  // After the dust settles the full arena is resident: the same request
  // is now a plain hit, full and undegraded.
  auto settled = service.View(KarateUc01(), SpecAt(80000));
  ASSERT_TRUE(settled.ok()) << settled.status().ToString();
  EXPECT_FALSE(settled.value().degraded());
}

TEST(QueryServiceResilienceTest, ResilienceCountersStartZeroAndAreMonotone) {
  api::Session session;
  serve::QueryService service(&session);
  serve::ResilienceStats before = service.resilience_stats();
  EXPECT_EQ(before.degraded_answers, 0u);
  EXPECT_EQ(before.shed_requests, 0u);
  EXPECT_EQ(before.retries, 0u);
  EXPECT_EQ(before.deadline_misses, 0u);
  ASSERT_TRUE(service.View(KarateUc01(), SpecAt(64)).ok());
  serve::ResilienceStats after = service.resilience_stats();
  EXPECT_GE(after.degraded_answers, before.degraded_answers);
  EXPECT_GE(after.retries, before.retries);
}

TEST(QueryServiceTest, InvalidInputIsStatusNotAbort) {
  api::Session session;
  serve::QueryService service(&session);
  EXPECT_FALSE(
      service.View(api::WorkloadSpec::Dataset("NoSuchNetwork")).ok());
  serve::QuerySpec zero;
  zero.sample_number = 0;
  EXPECT_FALSE(service.View(KarateUc01(), zero).ok());
}

}  // namespace
}  // namespace soldist
