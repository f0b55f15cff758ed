#include "exp/trial_runner.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "core/greedy.h"
#include "random/splitmix64.h"
#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"
#include "util/timer.h"

namespace soldist {
namespace {

/// Calls run_trial(t, sampling) for every trial t < `trials`. One shared
/// pool serves both parallelism levels, never simultaneously:
/// sample-level parallelism (`config_sampling.SampleParallel()`) runs the
/// trials in order and hands `pool` to each trial's SamplingEngine
/// through `sampling`; otherwise the trials themselves fan out across
/// `pool` and each trial samples inline. With no pool at all, one is
/// created here for the whole call — never a private pool per trial.
template <typename RunTrial>
void ForEachTrial(const SamplingOptions& config_sampling,
                  std::uint64_t trials, ThreadPool* pool,
                  const RunTrial& run_trial) {
  const bool sample_parallel = config_sampling.SampleParallel();
  SamplingOptions sampling = config_sampling;
  std::unique_ptr<ThreadPool> owned_pool;
  if (sample_parallel && sampling.pool == nullptr) {
    if (pool == nullptr) {
      owned_pool = std::make_unique<ThreadPool>(
          static_cast<std::size_t>(sampling.num_threads));
      pool = owned_pool.get();
    }
    sampling.pool = pool;
  }
  auto run_one = [&](std::uint64_t t) { run_trial(t, sampling); };
  if (!sample_parallel && pool != nullptr && pool->num_threads() > 1 &&
      trials > 1) {
    ParallelFor(pool, trials, run_one);
  } else {
    for (std::uint64_t t = 0; t < trials; ++t) run_one(t);
  }
}

}  // namespace

TrialResult RunTrials(const ModelInstance& instance,
                      const TrialConfig& config, ThreadPool* pool) {
  SOLDIST_CHECK(instance.ig != nullptr);
  SOLDIST_CHECK(config.trials >= 1);
  TrialResult result;
  result.seed_sets.resize(config.trials);
  std::vector<TraversalCounters> counters(config.trials);
  std::vector<double> seconds(config.trials, 0.0);
  auto run_trial = [&](std::uint64_t t, const SamplingOptions& sampling) {
    // Two independent streams per trial: the estimator's randomness and
    // the greedy tie-breaking shuffle (paper Section 4.1: fresh PRNG
    // state per run).
    WallTimer timer;
    std::uint64_t estimator_seed =
        DeriveSeed(config.master_seed, 2 * t);
    std::uint64_t shuffle_seed =
        DeriveSeed(config.master_seed, 2 * t + 1);
    auto estimator =
        MakeEstimator(instance, config.approach, config.sample_number,
                      estimator_seed, config.snapshot_mode, sampling);
    Rng tie_rng(shuffle_seed);
    GreedyRunResult run = RunGreedy(estimator.get(),
                                    instance.ig->num_vertices(), config.k,
                                    &tie_rng);
    result.seed_sets[t] = run.SortedSeedSet();
    counters[t] = estimator->counters();
    seconds[t] = timer.Seconds();
  };
  ForEachTrial(config.sampling, config.trials, pool, run_trial);

  for (std::uint64_t t = 0; t < config.trials; ++t) {
    result.distribution.Add(result.seed_sets[t]);
    result.total_counters += counters[t];
    result.seconds += seconds[t];
  }
  return result;
}

TrialResult RunTrials(const InfluenceGraph& ig, const TrialConfig& config,
                      ThreadPool* pool) {
  return RunTrials(ModelInstance::Ic(&ig), config, pool);
}

void EvaluateInfluence(const RrOracle& oracle, TrialResult* result) {
  for (const auto& seeds : result->seed_sets) {
    result->influence.Add(oracle.EstimateInfluence(seeds));
  }
}

StatusOr<SweepReuse> ParseSweepReuse(const std::string& name) {
  if (name == "on") return SweepReuse::kOn;
  if (name == "off") return SweepReuse::kOff;
  return Status::InvalidArgument("unknown --sweep-reuse value '" + name +
                                 "' (expected on | off)");
}

std::string SweepReuseName(SweepReuse reuse) {
  return reuse == SweepReuse::kOn ? "on" : "off";
}

std::vector<TrialResult> RunTrialLadder(const ModelInstance& instance,
                                        const TrialLadderConfig& config,
                                        ThreadPool* pool) {
  SOLDIST_CHECK(instance.ig != nullptr);
  SOLDIST_CHECK(config.trials >= 1);
  SOLDIST_CHECK(!config.sample_numbers.empty());
  for (std::size_t l = 0; l < config.sample_numbers.size(); ++l) {
    SOLDIST_CHECK(config.sample_numbers[l] >= 1);
    SOLDIST_CHECK(l == 0 ||
                  config.sample_numbers[l] > config.sample_numbers[l - 1])
        << "ladder sample numbers must be strictly ascending";
  }
  // An arena exists for RIS (RR sets) and condensed-mode Snapshot
  // (condensed worlds), under either model; other configurations run the
  // same trial-major streams with fresh per-cell sampling.
  const bool use_arena =
      config.reuse &&
      (config.approach == Approach::kRis ||
       (config.approach == Approach::kSnapshot &&
        config.snapshot_mode == SnapshotEstimator::Mode::kCondensed));

  const std::size_t num_cells = config.sample_numbers.size();
  const std::uint64_t capacity = config.sample_numbers.back();

  std::vector<TrialResult> results(num_cells);
  // [cell][trial] scratch, aggregated once all trials are in.
  std::vector<std::vector<std::vector<VertexId>>> seed_sets(num_cells);
  std::vector<std::vector<TraversalCounters>> counters(num_cells);
  std::vector<std::vector<double>> seconds(num_cells);
  for (std::size_t l = 0; l < num_cells; ++l) {
    seed_sets[l].resize(config.trials);
    counters[l].resize(config.trials);
    seconds[l].assign(config.trials, 0.0);
  }

  std::vector<double> arena_seconds(config.trials, 0.0);
  auto run_trial = [&](std::uint64_t t, const SamplingOptions& sampling) {
    const std::uint64_t trial_master = DeriveSeed(config.master_seed, t);
    const std::uint64_t sample_seed = DeriveSeed(trial_master, 0);
    const std::uint64_t shuffle_master = DeriveSeed(trial_master, 1);
    std::unique_ptr<RrArena> rr_arena;
    std::unique_ptr<SnapshotArena> snap_arena;
    if (use_arena) {
      WallTimer timer;
      if (config.approach == Approach::kRis) {
        rr_arena = std::make_unique<RrArena>(
            RrArena::SampleFor(instance, sample_seed, capacity, sampling));
      } else {
        snap_arena = std::make_unique<SnapshotArena>(SnapshotArena::SampleFor(
            instance, sample_seed, capacity, sampling));
      }
      arena_seconds[t] = timer.Seconds();
      if (t == 0 && config.arena_bytes_out != nullptr) {
        *config.arena_bytes_out = rr_arena != nullptr
                                      ? rr_arena->MemoryBytes()
                                      : snap_arena->MemoryBytes();
      }
    }
    for (std::size_t l = 0; l < num_cells; ++l) {
      const std::uint64_t tau = config.sample_numbers[l];
      WallTimer timer;
      std::unique_ptr<InfluenceEstimator> estimator;
      if (rr_arena != nullptr) {
        estimator = std::make_unique<RisEstimator>(rr_arena.get(), tau);
      } else if (snap_arena != nullptr) {
        estimator =
            std::make_unique<SnapshotEstimator>(snap_arena.get(), tau);
      } else {
        estimator =
            MakeEstimator(instance, config.approach, tau, sample_seed,
                          config.snapshot_mode, sampling);
      }
      Rng tie_rng(DeriveSeed(shuffle_master, tau));
      GreedyRunResult run = RunGreedy(
          estimator.get(), instance.ig->num_vertices(), config.k, &tie_rng);
      seed_sets[l][t] = run.SortedSeedSet();
      counters[l][t] = estimator->counters();
      seconds[l][t] = timer.Seconds();
    }
    // The arena build is deliberately NOT folded into any cell's seconds:
    // cell figures are pure serving cost, the one-off build is reported
    // separately through arena_seconds_out.
  };
  ForEachTrial(config.sampling, config.trials, pool, run_trial);

  for (std::size_t l = 0; l < num_cells; ++l) {
    TrialResult& cell = results[l];
    cell.seed_sets = std::move(seed_sets[l]);
    for (std::uint64_t t = 0; t < config.trials; ++t) {
      cell.distribution.Add(cell.seed_sets[t]);
      cell.total_counters += counters[l][t];
      cell.seconds += seconds[l][t];
    }
  }
  if (config.arena_seconds_out != nullptr) {
    double total = 0.0;
    for (double s : arena_seconds) total += s;
    *config.arena_seconds_out = total;
  }
  return results;
}

}  // namespace soldist
