#include "exp/sweep.h"

#include "random/splitmix64.h"

namespace soldist {

namespace {

/// Oracle evaluation + curve summaries shared by both sweep paths.
SweepCell SummarizeCell(const RrOracle& oracle, std::uint64_t sample_number,
                        std::uint64_t trials, TrialResult&& result) {
  SweepCell cell;
  cell.sample_number = sample_number;
  cell.result = std::move(result);
  EvaluateInfluence(oracle, &cell.result);
  cell.entropy = cell.result.distribution.Entropy();
  cell.summary.sample_number = cell.sample_number;
  cell.summary.mean_influence = cell.result.influence.Mean();
  cell.summary.mean_sample_size = cell.result.MeanSampleSize(trials);
  return cell;
}

}  // namespace

std::vector<SweepCell> RunSweep(const ModelInstance& instance,
                                const RrOracle& oracle,
                                const SweepConfig& config, ThreadPool* pool) {
  SOLDIST_CHECK(config.min_exponent >= 0);
  SOLDIST_CHECK(config.max_exponent >= config.min_exponent);
  SOLDIST_CHECK(config.max_exponent < 63);
  std::vector<SweepCell> cells;
  cells.reserve(config.max_exponent - config.min_exponent + 1);

  // The ladder path (RIS and Snapshot): one trial-major run over all
  // exponents (and, with reuse on, one arena per trial — RrArena for
  // RIS, SnapshotArena for Snapshot — serving every exponent as a
  // prefix) instead of an independent RunTrials per cell.
  if (config.approach == Approach::kRis ||
      config.approach == Approach::kSnapshot) {
    TrialLadderConfig ladder;
    ladder.approach = config.approach;
    for (int exp = config.min_exponent; exp <= config.max_exponent; ++exp) {
      ladder.sample_numbers.push_back(1ULL << exp);
    }
    ladder.k = config.k;
    ladder.trials = config.trials;
    ladder.master_seed = config.master_seed;
    ladder.snapshot_mode = config.snapshot_mode;
    ladder.sampling = config.sampling;
    ladder.reuse = config.reuse == SweepReuse::kOn;
    std::vector<TrialResult> results =
        RunTrialLadder(instance, ladder, pool);
    for (std::size_t l = 0; l < results.size(); ++l) {
      cells.push_back(SummarizeCell(oracle, ladder.sample_numbers[l],
                                    config.trials, std::move(results[l])));
    }
    return cells;
  }

  // Oneshot samples nothing up front: one independent RunTrials per cell.
  for (int exp = config.min_exponent; exp <= config.max_exponent; ++exp) {
    TrialConfig cell_config;
    cell_config.approach = config.approach;
    cell_config.sample_number = 1ULL << exp;
    cell_config.k = config.k;
    cell_config.trials = config.trials;
    cell_config.master_seed =
        DeriveSeed(config.master_seed, static_cast<std::uint64_t>(exp));
    cell_config.snapshot_mode = config.snapshot_mode;
    cell_config.sampling = config.sampling;

    cells.push_back(SummarizeCell(oracle, cell_config.sample_number,
                                  config.trials,
                                  RunTrials(instance, cell_config, pool)));
  }
  return cells;
}

std::vector<SweepCell> RunSweep(const InfluenceGraph& ig,
                                const RrOracle& oracle,
                                const SweepConfig& config, ThreadPool* pool) {
  return RunSweep(ModelInstance::Ic(&ig), oracle, config, pool);
}

std::vector<SweepPoint> CurveOf(const std::vector<SweepCell>& cells) {
  std::vector<SweepPoint> curve;
  curve.reserve(cells.size());
  for (const auto& cell : cells) curve.push_back(cell.summary);
  return curve;
}

int FindLeastSufficientCell(const std::vector<SweepCell>& cells,
                            double threshold, double probability) {
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (cells[i].result.influence.FractionAtLeast(threshold) >= probability) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

}  // namespace soldist
