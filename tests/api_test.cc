// Tests for the api/ facade: spec validation surfaces Status (never a
// CHECK-abort), Solve is byte-identical to the legacy MakeEstimator +
// RunGreedy path, and SolveBatch is byte-identical to sequential Solve
// for every sampling width.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>

#include "api/session.h"
#include "core/factory.h"
#include "core/greedy.h"
#include "exp/experiment.h"
#include "exp/trial_runner.h"
#include "graph/io.h"
#include "random/splitmix64.h"

namespace soldist {
namespace {

TEST(ParseApproachTest, NamesAndErrors) {
  auto ris = api::ParseApproach("ris");
  ASSERT_TRUE(ris.ok());
  EXPECT_EQ(ris.value(), Approach::kRis);
  EXPECT_EQ(api::ParseApproach("Oneshot").value(), Approach::kOneshot);
  EXPECT_EQ(api::ParseApproach("SNAPSHOT").value(), Approach::kSnapshot);
  auto bad = api::ParseApproach("greedy");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
}

TEST(WorkloadSpecTest, ValidationErrors) {
  api::WorkloadSpec empty_name = api::WorkloadSpec::Dataset("");
  EXPECT_EQ(empty_name.Validate().code(), StatusCode::kInvalidArgument);

  api::WorkloadSpec no_path;
  no_path.source = api::WorkloadSpec::Source::kFile;
  EXPECT_EQ(no_path.Validate().code(), StatusCode::kInvalidArgument);

  EdgeList out_of_range;
  out_of_range.num_vertices = 2;
  out_of_range.Add(0, 5);  // endpoint beyond num_vertices
  api::WorkloadSpec bad_edges =
      api::WorkloadSpec::Edges("bad", std::move(out_of_range));
  EXPECT_EQ(bad_edges.Validate().code(), StatusCode::kInvalidArgument);

  EXPECT_TRUE(api::WorkloadSpec::Dataset("Karate").Validate().ok());
}

TEST(WorkloadSpecTest, LabelKeysModel) {
  api::WorkloadSpec ic = api::WorkloadSpec::Dataset("Karate").Probability(
      ProbabilityModel::kIwc);
  EXPECT_EQ(ic.Label(), "Karate/iwc");
  api::WorkloadSpec lt = ic;
  lt.Diffusion(DiffusionModel::kLt);
  EXPECT_EQ(lt.Label(), "Karate/iwc/lt");
}

TEST(SolveSpecTest, ValidationErrors) {
  EXPECT_EQ(api::SolveSpec{}.WithSampleNumber(0).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(api::SolveSpec{}.WithK(0).Validate().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(api::SolveSpec{}.WithSampleThreads(-1).Validate().code(),
            StatusCode::kInvalidArgument);
  api::SolveSpec bad_chunk;
  bad_chunk.sampling.chunk_size = 0;
  EXPECT_EQ(bad_chunk.Validate().code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(api::SolveSpec{}.Validate().ok());
}

// RR set ids are 32-bit. Both bounds are checked at Validate, before any
// sampling: past them a build would sample every set and then abort.
constexpr std::uint64_t kMaxSetIds = std::numeric_limits<std::uint32_t>::max();

TEST(SolveSpecTest, RisSampleNumberFitsThirtyTwoBitSetIds) {
  Status too_many =
      api::SolveSpec{}.WithSampleNumber(kMaxSetIds + 1).Validate();
  EXPECT_EQ(too_many.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_many.message().find("32-bit set ids"), std::string::npos)
      << too_many.ToString();
  EXPECT_TRUE(api::SolveSpec{}.WithSampleNumber(kMaxSetIds).Validate().ok());
  // Oneshot and Snapshot keep no RR set ids.
  for (Approach approach : {Approach::kOneshot, Approach::kSnapshot}) {
    EXPECT_TRUE(api::SolveSpec{}
                    .WithApproach(approach)
                    .WithSampleNumber(kMaxSetIds + 1)
                    .Validate()
                    .ok())
        << ApproachName(approach);
  }
}

TEST(SessionOptionsTest, OracleRrFitsThirtyTwoBitSetIds) {
  api::SessionOptions options;
  options.oracle_rr = kMaxSetIds + 1;
  Status too_many = options.Validate();
  EXPECT_EQ(too_many.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(too_many.message().find("32-bit set ids"), std::string::npos)
      << too_many.ToString();
  options.oracle_rr = kMaxSetIds;
  EXPECT_TRUE(options.Validate().ok());
}

TEST(SessionTest, UnknownNetworkIsStatusNotCrash) {
  api::Session session;
  auto result = session.Solve(api::WorkloadSpec::Dataset("NoSuchNetwork"),
                              api::SolveSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kNotFound);
}

TEST(SessionTest, LtInvalidProbabilityIsStatusNotCrash) {
  // uc0.1 on Karate sums some vertex's in-weights past 1: the LT validity
  // violation that used to CHECK-abort from the CLI.
  api::Session session;
  auto workload = api::WorkloadSpec::Dataset("Karate")
                      .Probability(ProbabilityModel::kUc01)
                      .Diffusion(DiffusionModel::kLt);
  auto result = session.Solve(workload, api::SolveSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("LT"), std::string::npos);
}

TEST(SessionTest, SnapshotModeIsAPureSpeedKnob) {
  // The facade contract for --snapshot-mode: every backend returns
  // byte-identical seeds, estimates, AND oracle influence for the same
  // spec (the backend is a cost profile, not a parameter of the result).
  api::Session session;
  auto workload = api::WorkloadSpec::Dataset("Karate");
  auto base = api::SolveSpec{}
                  .WithApproach(Approach::kSnapshot)
                  .WithSampleNumber(64)
                  .WithK(3)
                  .WithSeed(9);
  auto residual = session.Solve(
      workload, base.WithSnapshotMode(SnapshotEstimator::Mode::kResidual));
  ASSERT_TRUE(residual.ok()) << residual.status().ToString();
  for (SnapshotEstimator::Mode mode :
       {SnapshotEstimator::Mode::kNaive,
        SnapshotEstimator::Mode::kCondensed}) {
    auto other = session.Solve(workload, base.WithSnapshotMode(mode));
    ASSERT_TRUE(other.ok()) << other.status().ToString();
    EXPECT_EQ(other.value().seeds, residual.value().seeds)
        << SnapshotModeName(mode);
    EXPECT_EQ(other.value().estimates, residual.value().estimates)
        << SnapshotModeName(mode);
    EXPECT_EQ(other.value().influence, residual.value().influence)
        << SnapshotModeName(mode);
  }
}

TEST(SessionTest, SolveSecondsSplitIntoBuildAndSelect) {
  api::Session session;
  auto result = session.Solve(
      api::WorkloadSpec::Dataset("Karate"),
      api::SolveSpec{}
          .WithApproach(Approach::kSnapshot)
          .WithSnapshotMode(SnapshotEstimator::Mode::kCondensed)
          .WithSampleNumber(256)
          .WithK(3)
          .WithSampleThreads(0));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result.value().build_seconds, 0.0);
  EXPECT_GT(result.value().select_seconds, 0.0);
  EXPECT_EQ(result.value().build_seconds + result.value().select_seconds,
            result.value().solve_seconds);
}

TEST(SessionTest, KLargerThanNetworkIsStatus) {
  api::Session session;
  auto result = session.Solve(api::WorkloadSpec::Dataset("Karate"),
                              api::SolveSpec{}.WithK(35));  // karate n=34
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, TinyStarNOverrideIsStatus) {
  // --star-n below the ⋆ generators' minimum used to CHECK-abort inside
  // Datasets::ComYoutube.
  api::SessionOptions options;
  options.star_n = 3;
  options.oracle_rr = 100;
  api::Session session(options);
  auto result = session.Solve(api::WorkloadSpec::Dataset("com-Youtube"),
                              api::SolveSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, InvalidSessionOptionsSurfaceOnFirstUse) {
  api::SessionOptions options;
  options.oracle_rr = 0;  // a zero-RR-set oracle would divide by zero
  api::Session session(options);
  auto result =
      session.Solve(api::WorkloadSpec::Dataset("Karate"), api::SolveSpec{});
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, EdgesNameCollidingWithDatasetIsStatus) {
  // Registering over a resolved catalog name would free the cached
  // influence graph under the live oracle.
  api::Session session;
  auto dataset = api::WorkloadSpec::Dataset("Karate");
  ASSERT_TRUE(session.ResolveWorkload(dataset).ok());
  EdgeList tiny;
  tiny.num_vertices = 2;
  tiny.Add(0, 1);
  auto collision = session.ResolveWorkload(
      api::WorkloadSpec::Edges("Karate", std::move(tiny)));
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(collision.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, DatasetNameCollidingWithEdgesIsStatus) {
  // The reverse order: a dataset workload must not silently resolve to a
  // previously registered file/edges graph of the same name.
  api::Session session;
  EdgeList tiny;
  tiny.num_vertices = 2;
  tiny.Add(0, 1);
  ASSERT_TRUE(session
                  .ResolveWorkload(
                      api::WorkloadSpec::Edges("Karate", std::move(tiny)))
                  .ok());
  auto dataset = session.ResolveWorkload(api::WorkloadSpec::Dataset("Karate"));
  ASSERT_FALSE(dataset.ok());
  EXPECT_EQ(dataset.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, OracleCacheHitStillValidatesWorkload) {
  // A label-colliding workload must hit the collision rejection, not
  // silently receive the cached oracle of the other workload.
  api::Session session;
  auto dataset = api::WorkloadSpec::Dataset("Karate").Probability(
      ProbabilityModel::kUc01);
  ASSERT_TRUE(session.ResolveOracle(dataset).ok());
  EdgeList tiny;
  tiny.num_vertices = 2;
  tiny.Add(0, 1);
  auto collision = session.ResolveOracle(
      api::WorkloadSpec::Edges("Karate", std::move(tiny))
          .Probability(ProbabilityModel::kUc01));
  ASSERT_FALSE(collision.ok());
  EXPECT_EQ(collision.status().code(), StatusCode::kInvalidArgument);
}

TEST(SessionTest, NegativeSamplingWidthFallsBackToSequential) {
  api::Session session;
  SamplingOptions sampling = session.SamplingFor(-1);
  EXPECT_EQ(sampling.num_threads, 1);
  EXPECT_EQ(sampling.pool, nullptr);
  EXPECT_FALSE(sampling.SampleParallel());
}

TEST(SessionTest, MissingFileIsStatus) {
  api::Session session;
  auto result = session.Solve(
      api::WorkloadSpec::File("/nonexistent/edges.txt"), api::SolveSpec{});
  ASSERT_FALSE(result.ok());
}

TEST(SessionTest, ResolvesAndCachesWorkloads) {
  api::Session session;
  auto workload = api::WorkloadSpec::Dataset("Karate").Probability(
      ProbabilityModel::kUc01);
  auto a = session.ResolveWorkload(workload);
  auto b = session.ResolveWorkload(workload);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().ig, b.value().ig);  // same cached instance
  auto oracle_a = session.ResolveOracle(workload);
  auto oracle_b = session.ResolveOracle(workload);
  ASSERT_TRUE(oracle_a.ok() && oracle_b.ok());
  EXPECT_EQ(oracle_a.value(), oracle_b.value());
}

TEST(SessionTest, FileWorkloadSolves) {
  std::string path = ::testing::TempDir() + "/api_test_edges.txt";
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(1, 2);
  edges.Add(2, 3);
  edges.Add(3, 0);
  ASSERT_TRUE(GraphIo::SaveEdgeList(edges, path).ok());
  api::Session session;
  auto result =
      session.Solve(api::WorkloadSpec::File(path).Probability(
                        ProbabilityModel::kUc01),
                    api::SolveSpec{}.WithSampleNumber(64).WithK(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().seed_set.size(), 1u);
  std::remove(path.c_str());
}

/// Solve must be byte-identical to the legacy surface: the estimator
/// seeded with DeriveSeed(seed, 0), the tie shuffle with
/// DeriveSeed(seed, 1) — i.e. trial 0 of RunTrials(master_seed = seed).
TEST(SessionTest, SolveMatchesLegacyMakeEstimatorIc) {
  api::Session session;
  auto workload = api::WorkloadSpec::Dataset("Karate").Probability(
      ProbabilityModel::kUc01);
  const std::uint64_t seed = 77;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    auto spec = api::SolveSpec{}
                    .WithApproach(approach)
                    .WithSampleNumber(64)
                    .WithK(2)
                    .WithSeed(seed);
    auto result = session.Solve(workload, spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto instance = session.ResolveWorkload(workload);
    ASSERT_TRUE(instance.ok());
    auto estimator = MakeEstimator(instance.value(), approach, 64,
                                   DeriveSeed(seed, 0));
    Rng tie_rng(DeriveSeed(seed, 1));
    GreedyRunResult legacy = RunGreedy(
        estimator.get(), instance.value().ig->num_vertices(), 2, &tie_rng);
    EXPECT_EQ(result.value().seeds, legacy.seeds);
    EXPECT_EQ(result.value().estimates, legacy.estimates);
    EXPECT_EQ(result.value().seed_set, legacy.SortedSeedSet());

    TrialConfig config;
    config.approach = approach;
    config.sample_number = 64;
    config.k = 2;
    config.trials = 1;
    config.master_seed = seed;
    TrialResult trials = RunTrials(instance.value(), config, nullptr);
    EXPECT_EQ(result.value().seed_set, trials.seed_sets[0]);
  }
}

TEST(SessionTest, SolveMatchesLegacyMakeEstimatorLt) {
  api::Session session;
  auto workload = api::WorkloadSpec::Dataset("Karate")
                      .Probability(ProbabilityModel::kIwc)
                      .Diffusion(DiffusionModel::kLt);
  const std::uint64_t seed = 91;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    auto spec = api::SolveSpec{}
                    .WithApproach(approach)
                    .WithSampleNumber(32)
                    .WithK(2)
                    .WithSeed(seed);
    auto result = session.Solve(workload, spec);
    ASSERT_TRUE(result.ok()) << result.status().ToString();

    auto instance = session.ResolveWorkload(workload);
    ASSERT_TRUE(instance.ok());
    ASSERT_EQ(instance.value().model, DiffusionModel::kLt);
    auto estimator = MakeEstimator(instance.value(), approach, 32,
                                   DeriveSeed(seed, 0));
    Rng tie_rng(DeriveSeed(seed, 1));
    GreedyRunResult legacy = RunGreedy(
        estimator.get(), instance.value().ig->num_vertices(), 2, &tie_rng);
    EXPECT_EQ(result.value().seeds, legacy.seeds);
    EXPECT_EQ(result.value().seed_set, legacy.SortedSeedSet());
  }
}

/// The batch acceptance contract: SolveBatch results (seed sets AND
/// influence estimates) are byte-identical to issuing the same specs
/// sequentially through Solve, for sample_threads 1, 2, and 4 — and
/// width 1 (batch fan-out, inline sampling) equals widths 2 and 4.
TEST(SessionTest, SolveBatchMatchesSequentialAcrossSampleThreads) {
  api::SessionOptions options;
  options.threads = 4;  // make the batch fan-out path real
  options.oracle_rr = 20000;
  std::vector<api::SolveResult> width1;
  for (std::int64_t sample_threads : {1, 2, 4}) {
    api::Session session(options);
    auto workload = api::WorkloadSpec::Dataset("Karate").Probability(
        ProbabilityModel::kUc01);
    std::vector<api::SolveSpec> specs;
    for (Approach approach :
         {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
      for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
        specs.push_back(api::SolveSpec{}
                            .WithApproach(approach)
                            .WithSampleNumber(32)
                            .WithK(2)
                            .WithSeed(seed)
                            .WithSampleThreads(
                                static_cast<int>(sample_threads)));
      }
    }
    auto batch = session.SolveBatch(workload, specs);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch.value().size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
      auto sequential = session.Solve(workload, specs[i]);
      ASSERT_TRUE(sequential.ok());
      EXPECT_EQ(batch.value()[i].seed_set, sequential.value().seed_set)
          << "spec " << i << " sample_threads " << sample_threads;
      EXPECT_EQ(batch.value()[i].influence, sequential.value().influence)
          << "spec " << i << " sample_threads " << sample_threads;
      EXPECT_EQ(batch.value()[i].counters.vertices,
                sequential.value().counters.vertices);
      EXPECT_EQ(batch.value()[i].counters.edges,
                sequential.value().counters.edges);
    }
    if (sample_threads == 1) width1 = batch.value();
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const api::SolveResult& got = batch.value()[i];
      EXPECT_EQ(got.seeds, width1[i].seeds)
          << "spec " << i << " sample_threads " << sample_threads;
      EXPECT_EQ(got.estimates, width1[i].estimates);
      EXPECT_EQ(got.influence, width1[i].influence);
      EXPECT_EQ(got.counters.vertices, width1[i].counters.vertices);
      EXPECT_EQ(got.counters.edges, width1[i].counters.edges);
      EXPECT_EQ(got.counters.sample_vertices,
                width1[i].counters.sample_vertices);
      EXPECT_EQ(got.counters.sample_edges, width1[i].counters.sample_edges);
    }
  }
}

/// A sample-number ladder in one batch: RIS specs differing only in
/// sample_number, and every result — seeds, estimates, influence,
/// counters — equals a sequential Solve, for IC and LT and for
/// sample_threads 1, 2, 4 — which all agree.
TEST(SessionTest, SolveBatchLadderMatchesSequentialSolve) {
  for (DiffusionModel model : {DiffusionModel::kIc, DiffusionModel::kLt}) {
    std::vector<api::SolveResult> width1;
    for (std::int64_t sample_threads : {1, 2, 4}) {
      api::SessionOptions options;
      options.threads = 4;
      options.oracle_rr = 10000;
      api::Session session(options);
      auto workload = api::WorkloadSpec::Dataset("Karate")
                          .Probability(ProbabilityModel::kIwc)
                          .Diffusion(model);
      // A sweep ladder: one seed, ascending sample numbers (plus a
      // duplicate τ), constant everything else.
      std::vector<api::SolveSpec> specs;
      for (std::uint64_t tau : {8ULL, 32ULL, 32ULL, 128ULL, 512ULL}) {
        specs.push_back(api::SolveSpec{}
                            .WithApproach(Approach::kRis)
                            .WithSampleNumber(tau)
                            .WithK(3)
                            .WithSeed(17)
                            .WithSampleThreads(
                                static_cast<int>(sample_threads)));
      }
      auto batch = session.SolveBatch(workload, specs);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch.value().size(), specs.size());
      for (std::size_t i = 0; i < specs.size(); ++i) {
        auto sequential = session.Solve(workload, specs[i]);
        ASSERT_TRUE(sequential.ok());
        const api::SolveResult& batched = batch.value()[i];
        EXPECT_EQ(batched.seeds, sequential.value().seeds)
            << "spec " << i << " threads " << sample_threads;
        EXPECT_EQ(batched.estimates, sequential.value().estimates);
        EXPECT_EQ(batched.influence, sequential.value().influence);
        EXPECT_EQ(batched.counters.vertices,
                  sequential.value().counters.vertices);
        EXPECT_EQ(batched.counters.edges, sequential.value().counters.edges);
        EXPECT_EQ(batched.counters.sample_vertices,
                  sequential.value().counters.sample_vertices);
      }
      if (sample_threads == 1) width1 = batch.value();
      for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_EQ(batch.value()[i].seeds, width1[i].seeds)
            << "spec " << i << " threads " << sample_threads;
        EXPECT_EQ(batch.value()[i].estimates, width1[i].estimates);
        EXPECT_EQ(batch.value()[i].counters.sample_vertices,
                  width1[i].counters.sample_vertices);
      }
    }
  }
}

/// LT batches are identical ACROSS sample-thread widths too.
TEST(SessionTest, LtBatchIdenticalAcrossWidths) {
  api::SessionOptions options;
  options.threads = 4;
  options.oracle_rr = 5000;
  api::Session session(options);
  auto workload = api::WorkloadSpec::Dataset("Karate")
                      .Probability(ProbabilityModel::kIwc)
                      .Diffusion(DiffusionModel::kLt);
  std::vector<std::vector<VertexId>> reference;
  std::vector<double> reference_influence;
  for (std::int64_t width : {1, 2, 4}) {
    std::vector<api::SolveSpec> specs;
    for (std::uint64_t seed : {5ULL, 6ULL}) {
      specs.push_back(api::SolveSpec{}
                          .WithApproach(Approach::kRis)
                          .WithSampleNumber(64)
                          .WithK(2)
                          .WithSeed(seed)
                          .WithSampleThreads(static_cast<int>(width)));
    }
    auto batch = session.SolveBatch(workload, specs);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    if (reference.empty()) {
      for (const auto& result : batch.value()) {
        reference.push_back(result.seed_set);
        reference_influence.push_back(result.influence);
      }
      continue;
    }
    for (std::size_t i = 0; i < batch.value().size(); ++i) {
      EXPECT_EQ(batch.value()[i].seed_set, reference[i]) << "width " << width;
      EXPECT_EQ(batch.value()[i].influence, reference_influence[i]);
    }
  }
}

/// ResolveOracle waits on the session pool while it holds the session
/// mutex. One thread resolving a fresh workload's oracle while another
/// thread's SolveBatch fans out on the same pool must not deadlock, and
/// both must answer what a one-thread session answers.
TEST(SessionTest, OracleBuildOverlapsBatchFanOut) {
  const auto batch_workload = api::WorkloadSpec::Dataset("Karate").Probability(
      ProbabilityModel::kUc01);
  const auto oracle_workload =
      api::WorkloadSpec::Dataset("Physicians").Probability(
          ProbabilityModel::kIwc);
  std::vector<api::SolveSpec> specs;
  for (Approach approach :
       {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      specs.push_back(api::SolveSpec{}
                          .WithApproach(approach)
                          .WithSampleNumber(64)
                          .WithK(2)
                          .WithSeed(seed)
                          .WithSampleThreads(1));
    }
  }
  const std::vector<std::vector<VertexId>> catalog = {
      {0}, {1, 2}, {10, 20, 30}, {100, 200, 240}};
  struct Answers {
    std::vector<api::SolveResult> batch;
    std::vector<double> influence;
    std::vector<VertexId> greedy;
  };
  auto run = [&](std::int64_t threads) {
    api::SessionOptions options;
    options.threads = threads;
    options.oracle_rr = 20000;
    api::Session session(options);
    // The batch workload's own oracle first: the race is between the
    // batch fan-out and the other workload's oracle build.
    EXPECT_TRUE(session.ResolveOracle(batch_workload).ok());
    Answers answers;
    std::atomic<bool> go{false};
    std::thread solver([&] {
      while (!go.load()) std::this_thread::yield();
      auto batch = session.SolveBatch(batch_workload, specs);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      answers.batch = std::move(batch).value();
    });
    std::thread resolver([&] {
      while (!go.load()) std::this_thread::yield();
      auto oracle = session.ResolveOracle(oracle_workload);
      ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
      for (const std::vector<VertexId>& seeds : catalog) {
        answers.influence.push_back(oracle.value()->EstimateInfluence(seeds));
      }
      answers.greedy = oracle.value()->OracleGreedySeeds(3);
    });
    go.store(true);
    solver.join();
    resolver.join();
    return answers;
  };
  const Answers reference = run(1);
  const Answers pooled = run(4);
  ASSERT_EQ(pooled.batch.size(), specs.size());
  ASSERT_EQ(reference.batch.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    EXPECT_EQ(pooled.batch[i].seeds, reference.batch[i].seeds) << "spec " << i;
    EXPECT_EQ(pooled.batch[i].estimates, reference.batch[i].estimates);
    EXPECT_EQ(pooled.batch[i].influence, reference.batch[i].influence);
  }
  EXPECT_EQ(pooled.influence, reference.influence);
  EXPECT_EQ(pooled.greedy, reference.greedy);
}

TEST(SessionTest, BatchFailsFastOnInvalidSpec) {
  api::Session session;
  std::vector<api::SolveSpec> specs = {api::SolveSpec{},
                                       api::SolveSpec{}.WithK(0)};
  auto batch =
      session.SolveBatch(api::WorkloadSpec::Dataset("Karate"), specs);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument);
  // The message names the offending spec.
  EXPECT_NE(batch.status().message().find("spec 1"), std::string::npos);
}

TEST(SessionTest, CancelTokenIsStatusNotCrash) {
  // A solve always runs to completion: a fired token would truncate the
  // sampled prefix under an estimator sized for the full sample number
  // (a CHECK-abort for RIS, an answer from fewer worlds than τ for
  // condensed Snapshot). Validate rejects it on both entry points.
  CancelToken cancel;
  cancel.Cancel();
  api::Session session;
  const auto workload = api::WorkloadSpec::Dataset("Karate");
  auto base = api::SolveSpec{}.WithSampleNumber(512).WithK(2);
  base.sampling.cancel = &cancel;
  const api::SolveSpec specs[] = {
      api::SolveSpec(base).WithApproach(Approach::kRis),
      api::SolveSpec(base)
          .WithApproach(Approach::kSnapshot)
          .WithSnapshotMode(SnapshotEstimator::Mode::kCondensed)};
  for (const api::SolveSpec& spec : specs) {
    const std::string label = ApproachName(spec.approach);
    EXPECT_EQ(spec.Validate().code(), StatusCode::kInvalidArgument) << label;
    auto solved = session.Solve(workload, spec);
    ASSERT_FALSE(solved.ok()) << label;
    EXPECT_EQ(solved.status().code(), StatusCode::kInvalidArgument) << label;
    auto batch = session.SolveBatch(workload, {spec});
    ASSERT_FALSE(batch.ok()) << label;
    EXPECT_EQ(batch.status().code(), StatusCode::kInvalidArgument) << label;
  }
}

TEST(SessionTest, SkippingInfluenceSkipsOracle) {
  api::Session session;
  api::SolveSpec spec;
  spec.evaluate_influence = false;
  auto result =
      session.Solve(api::WorkloadSpec::Dataset("Karate"), spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().influence, 0.0);
  EXPECT_EQ(result.value().oracle_ci99, 0.0);
  EXPECT_FALSE(result.value().seed_set.empty());
}

TEST(ExperimentContextTest, StatusPathsSurfaceUserErrors) {
  ExperimentOptions options;
  options.trials = 2;
  options.oracle_rr = 500;
  options.model = DiffusionModel::kLt;
  ExperimentContext context(options);
  // The pre-facade surface CHECK-aborted on both of these.
  auto unknown = context.TryModel("NoSuchNetwork", ProbabilityModel::kIwc);
  ASSERT_FALSE(unknown.ok());
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  auto invalid = context.TryModel("Karate", ProbabilityModel::kUc01);
  ASSERT_FALSE(invalid.ok());
  EXPECT_EQ(invalid.status().code(), StatusCode::kInvalidArgument);
  auto oracle = context.TryOracle("Karate", ProbabilityModel::kUc01);
  ASSERT_FALSE(oracle.ok());
  auto ok = context.TryModel("Karate", ProbabilityModel::kIwc);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().model, DiffusionModel::kLt);
}

}  // namespace
}  // namespace soldist
