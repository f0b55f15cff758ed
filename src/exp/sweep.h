// Sample-number sweeps: run the trial methodology for sample numbers
// 2^min_exp .. 2^max_exp (the paper's powers-of-two grids) and summarize
// each point (entropy, influence statistics, per-trial costs).

#ifndef SOLDIST_EXP_SWEEP_H_
#define SOLDIST_EXP_SWEEP_H_

#include <vector>

#include "exp/trial_runner.h"
#include "stats/comparable_ratio.h"

namespace soldist {

/// Configuration of one algorithm's sweep on one instance.
struct SweepConfig {
  Approach approach = Approach::kOneshot;
  int k = 1;
  std::uint64_t trials = 100;
  std::uint64_t master_seed = 1;
  int min_exponent = 0;  ///< first sample number 2^min_exponent
  int max_exponent = 8;  ///< last sample number 2^max_exponent
  SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kCondensed;
  /// Sample-level parallelism, forwarded to every cell's TrialConfig.
  SamplingOptions sampling;
  /// Ladder policy (exp/trial_runner.h) for RIS and Snapshot sweeps,
  /// which run trial-major prefix-closed streams: kOn serves every cell
  /// of a trial as a prefix of one per-trial arena (RrArena for RIS,
  /// SnapshotArena for condensed-mode Snapshot, under either model),
  /// kOff samples every cell afresh (byte-identical to kOn). The
  /// residual Snapshot mode has no arena, so kOn runs kOff mechanics
  /// there. Oneshot samples nothing up front, so it ignores
  /// the policy and runs independent per-cell trials.
  SweepReuse reuse = SweepReuse::kOn;
};

/// One sweep point: the cell's full results plus curve summaries.
struct SweepCell {
  std::uint64_t sample_number = 0;
  TrialResult result;
  double entropy = 0.0;
  /// Curve point for comparable-ratio analysis (mean influence from the
  /// shared oracle, mean stored sample size per trial).
  SweepPoint summary;
};

/// Runs the sweep under `instance`'s diffusion model; every cell's
/// influence is evaluated with `oracle` (which must be built for the same
/// model — ExperimentContext::Oracle keys oracles by model). RIS and
/// Snapshot run one trial-major ladder (RunTrialLadder); Oneshot cells
/// use master seeds derived from (config.master_seed, exponent), so the
/// whole sweep is reproducible either way.
std::vector<SweepCell> RunSweep(const ModelInstance& instance,
                                const RrOracle& oracle,
                                const SweepConfig& config, ThreadPool* pool);

/// IC convenience overload (the pre-LT signature).
std::vector<SweepCell> RunSweep(const InfluenceGraph& ig,
                                const RrOracle& oracle,
                                const SweepConfig& config, ThreadPool* pool);

/// Extracts the SweepPoint curve from sweep cells (for comparable ratios).
std::vector<SweepPoint> CurveOf(const std::vector<SweepCell>& cells);

/// \brief The paper's near-optimality criterion (Table 5).
///
/// Finds the least sample number whose influence distribution puts at
/// least `probability` mass on values >= `threshold` (0.95 × reference in
/// the paper). Returns the cell index, or -1 when no cell qualifies.
int FindLeastSufficientCell(const std::vector<SweepCell>& cells,
                            double threshold, double probability);

}  // namespace soldist

#endif  // SOLDIST_EXP_SWEEP_H_
