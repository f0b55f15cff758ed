// TrialRunner: the paper's core methodology (Section 4) — run algorithm
// `alg` with sample number `s` T times with fresh PRNG states, record
// every seed set, and evaluate each against the shared influence oracle.

#ifndef SOLDIST_EXP_TRIAL_RUNNER_H_
#define SOLDIST_EXP_TRIAL_RUNNER_H_

#include <memory>
#include <vector>

#include "core/estimator.h"
#include "core/factory.h"
#include "core/oneshot.h"
#include "core/ris.h"
#include "core/snapshot.h"
#include "model/diffusion.h"
#include "oracle/rr_oracle.h"
#include "sim/sampling_engine.h"
#include "stats/influence_distribution.h"
#include "stats/seed_set_distribution.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace soldist {

/// Configuration of one (algorithm, sample number, k, T) cell.
struct TrialConfig {
  Approach approach = Approach::kOneshot;
  std::uint64_t sample_number = 1;
  int k = 1;
  std::uint64_t trials = 1;
  /// Master seed; trial t uses streams derived from (master_seed, t).
  std::uint64_t master_seed = 1;
  SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kCondensed;
  /// Sample-level parallelism for each trial's estimator. The default
  /// (one inline worker) lets RunTrials parallelize at the *trial* level
  /// instead; when SampleParallel(), trials run sequentially and the
  /// estimators fan their sampling chunks out onto the one shared pool —
  /// never both levels at once, and never a private per-trial pool.
  SamplingOptions sampling;
};

/// Everything recorded across the T trials of one cell.
struct TrialResult {
  /// Raw seed sets, one per trial (sorted).
  std::vector<std::vector<VertexId>> seed_sets;
  /// The empirical seed-set distribution S(s).
  SeedSetDistribution distribution;
  /// The influence distribution I(s) (filled by EvaluateInfluence).
  InfluenceDistribution influence;
  /// Work summed over all trials.
  TraversalCounters total_counters;
  /// Wall-clock seconds summed over the cell's trials (estimator build +
  /// greedy selection; excludes oracle evaluation). Timing only — never
  /// part of any byte-identity contract.
  double seconds = 0.0;

  double MeanVertexCost(std::uint64_t trials) const {
    return static_cast<double>(total_counters.vertices) /
           static_cast<double>(trials);
  }
  double MeanEdgeCost(std::uint64_t trials) const {
    return static_cast<double>(total_counters.edges) /
           static_cast<double>(trials);
  }
  double MeanSampleSize(std::uint64_t trials) const {
    return static_cast<double>(total_counters.TotalSampleSize()) /
           static_cast<double>(trials);
  }
};

/// Runs the T trials and collects seed sets + counters. `pool` (optional)
/// is the one shared worker pool: with single-threaded `config.sampling`
/// the trials fan out across it; with SampleParallel() sampling the
/// trials run in order and the pool serves each trial's sampling chunks.
/// Every estimator draws the same chunked streams either way, so results
/// are byte-identical across ALL sampling configurations with the same
/// chunk_size, for both diffusion models. Influence is NOT evaluated
/// here — call EvaluateInfluence with the instance's shared oracle.
TrialResult RunTrials(const ModelInstance& instance,
                      const TrialConfig& config, ThreadPool* pool);

/// IC convenience overload (the pre-LT signature).
TrialResult RunTrials(const InfluenceGraph& ig, const TrialConfig& config,
                      ThreadPool* pool);

/// Evaluates every recorded seed set against `oracle`, filling
/// result->influence. The same oracle must be reused for all algorithms
/// and sample numbers of an instance (paper Section 5.2).
void EvaluateInfluence(const RrOracle& oracle, TrialResult* result);

/// \brief Reuse policy for a sample-number ladder (a sweep's geometric
/// grid of sample numbers run trial-by-trial).
///
/// Both values run trial-major, prefix-closed streams (one sampling
/// stream per TRIAL, shared by every cell): kOff samples each cell from
/// scratch, kOn samples once per trial at the ladder maximum into an
/// arena (RIS, condensed Snapshot; either model) and serves every cell
/// as a prefix view. kOff and kOn are
/// byte-identical in every recorded quantity (seeds, counters,
/// distributions) — that is the A/B the sweep-reuse bench CHECKs before
/// recording a speedup.
enum class SweepReuse { kOff, kOn };

/// Flag-value parsing/naming for --sweep-reuse ("on" | "off").
StatusOr<SweepReuse> ParseSweepReuse(const std::string& name);
std::string SweepReuseName(SweepReuse reuse);

/// Configuration of one algorithm's ladder on one instance: the T-trials
/// methodology over an ascending list of sample numbers with trial-major
/// streams.
struct TrialLadderConfig {
  Approach approach = Approach::kRis;
  /// Strictly ascending sample numbers; the last is the arena capacity.
  std::vector<std::uint64_t> sample_numbers;
  int k = 1;
  std::uint64_t trials = 1;
  std::uint64_t master_seed = 1;
  SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kCondensed;
  SamplingOptions sampling;
  /// Serve cells from a per-trial arena (kOn mechanics) where one
  /// exists, under either diffusion model: an RrArena for kRis, a
  /// SnapshotArena for kSnapshot in Mode::kCondensed (the arena stores
  /// condensed worlds with precomputed warmth, which only the condensed
  /// backend consumes). Oneshot and residual-mode Snapshot have no arena
  /// and run kOff mechanics either way. false = kOff mechanics
  /// (same trial-major streams, fresh per-cell sampling).
  bool reuse = true;
  /// Optional observability: when non-null and an arena is used, trial 0
  /// writes its arena's MemoryBytes here (one representative figure —
  /// trial arenas differ only in content, not materially in size). Never
  /// affects results.
  std::uint64_t* arena_bytes_out = nullptr;
  /// Optional observability: when non-null and an arena is used, receives
  /// the wall-clock seconds of the per-trial arena builds summed over all
  /// trials (0 without one). The build is NOT attributed to any cell's
  /// `seconds` — cell figures are pure serving cost; report the one-off
  /// build separately (bench_sweep_reuse's arena_build_seconds field).
  /// Never affects results.
  double* arena_seconds_out = nullptr;
};

/// Runs the ladder: for each trial t, every sample number in order, with
/// the trial-major stream derivation
///
///   trial_master    = DeriveSeed(config.master_seed, t)
///   sampling stream = DeriveSeed(trial_master, 0)   (all cells of t)
///   shuffle stream  = DeriveSeed(DeriveSeed(trial_master, 1), τ)
///
/// so the RR samples of cell τ₁ are a prefix of cell τ₂'s within a trial
/// (that is what reuse exploits) while trials stay fully independent.
/// Returns one TrialResult per sample number, aligned with
/// config.sample_numbers. Trial-level parallelism follows RunTrials'
/// rule: single-threaded sampling configs fan trials out across `pool`,
/// SampleParallel() configs run trials in order and parallelize sampling.
/// The result is a pure function of the config (chunk_size included) —
/// the worker count and `reuse` never change it.
std::vector<TrialResult> RunTrialLadder(const ModelInstance& instance,
                                        const TrialLadderConfig& config,
                                        ThreadPool* pool);

}  // namespace soldist

#endif  // SOLDIST_EXP_TRIAL_RUNNER_H_
