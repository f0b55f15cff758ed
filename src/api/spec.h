// The public request/response types of the soldist query facade (api/):
// WorkloadSpec names ONE problem instance (network source, probability
// setting, diffusion model), SolveSpec one solver run on it, SolveResult
// everything the run produced. All specs are plain builder-style structs
// validated with Status — invalid user input never CHECK-aborts on this
// surface (util/status.h: CHECK is for programmer errors only).

#ifndef SOLDIST_API_SPEC_H_
#define SOLDIST_API_SPEC_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.h"
#include "core/snapshot.h"
#include "graph/edge_list.h"
#include "model/diffusion.h"
#include "model/probability.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"
#include "util/status.h"

namespace soldist {
namespace api {

/// \brief One problem instance: where the network comes from plus the
/// probability setting and diffusion model to run on it.
///
/// Three network sources:
///  * kDataset — a bundled Table-3 network by canonical name;
///  * kFile    — a SNAP/KONECT-style edge-list file on disk;
///  * kEdges   — an in-memory edge list (e.g. generator output).
///
/// \code
///   auto spec = WorkloadSpec::Dataset("Karate")
///                   .Probability(ProbabilityModel::kIwc)
///                   .Diffusion(DiffusionModel::kLt);
/// \endcode
struct WorkloadSpec {
  enum class Source { kDataset, kFile, kEdges };

  Source source = Source::kDataset;
  /// Dataset name for kDataset; cache identity for kFile/kEdges (defaults
  /// to the path for files). Two specs with the same name share the
  /// session's cached graph, so give distinct edge lists distinct names.
  std::string network = "Karate";
  std::string path;  ///< edge-list file (kFile only)
  /// Shared so specs stay cheap to copy into batches (kEdges only).
  std::shared_ptr<const EdgeList> edges;

  ProbabilityModel prob = ProbabilityModel::kIwc;
  DiffusionModel model = DiffusionModel::kIc;

  static WorkloadSpec Dataset(std::string name);
  /// \param name cache identity; empty = use the path itself.
  static WorkloadSpec File(std::string path, std::string name = "");
  static WorkloadSpec Edges(std::string name, EdgeList edges);

  WorkloadSpec& Probability(ProbabilityModel p) {
    prob = p;
    return *this;
  }
  WorkloadSpec& Diffusion(DiffusionModel m) {
    model = m;
    return *this;
  }

  /// Field-level validation (source/name/path consistency). Instance-level
  /// errors (unknown dataset, unreadable file, LT-invalid probability) are
  /// reported by Session when the workload is resolved.
  Status Validate() const;

  /// "network/prob[/lt]" — the session cache key and display label.
  std::string Label() const;
};

/// \brief One solver run: approach, sample number, seed-set size, seed,
/// and the sampling-parallelism knobs.
///
/// Determinism contract: the result is a pure function of this spec and
/// the resolved workload. The estimator stream is seeded with
/// DeriveSeed(seed, 0) and the greedy tie-break shuffle with
/// DeriveSeed(seed, 1) — exactly trial 0 of the exp-layer RunTrials with
/// master_seed = seed, so facade results are byte-comparable with the
/// exp-layer harness. Of the sampling knobs only chunk_size can change
/// the result; num_threads and pool never do (see sim/sampling_engine.h).
/// Every run samples its own estimator through MakeEstimator; shared
/// arenas and their storage backends belong to serve/ (QueryService).
struct SolveSpec {
  Approach approach = Approach::kRis;
  std::uint64_t sample_number = 1024;  ///< β, τ, or θ (θ < 2^32)
  int k = 1;                           ///< seed-set size
  std::uint64_t seed = 1;              ///< master seed for this run
  SnapshotEstimator::Mode snapshot_mode = SnapshotEstimator::Mode::kCondensed;
  /// Sampling parallelism. Leave pool null: the session attaches its
  /// shared pool (num_threads == 0) or a cached dedicated pool
  /// (num_threads >= 2). A condensed Snapshot run also scores its greedy
  /// rounds on that pool (world tiles; core/snapshot.h) — like sampling,
  /// with byte-identical results at every width. Leave cancel null too:
  /// Validate rejects a cancel token, since a Solve or SolveBatch run is
  /// never cancelled (deadlines belong to serve::QueryService).
  SamplingOptions sampling;
  /// Evaluate the chosen seeds on the session's shared RR oracle
  /// (SolveResult::influence). Off: skip the oracle entirely — no oracle
  /// is built for the instance.
  bool evaluate_influence = true;

  SolveSpec& WithApproach(Approach a) {
    approach = a;
    return *this;
  }
  SolveSpec& WithSampleNumber(std::uint64_t s) {
    sample_number = s;
    return *this;
  }
  SolveSpec& WithK(int seeds) {
    k = seeds;
    return *this;
  }
  SolveSpec& WithSeed(std::uint64_t s) {
    seed = s;
    return *this;
  }
  SolveSpec& WithSampleThreads(int threads) {
    sampling.num_threads = threads;
    return *this;
  }
  /// Snapshot reachability backend (residual | condensed, the default).
  /// Backends are byte-identical in seeds and estimates; condensed is the
  /// fast, SCC-condensed one, and residual is the paper's Section 3.4.3
  /// reference (core/snapshot.h). No effect on other approaches.
  SolveSpec& WithSnapshotMode(SnapshotEstimator::Mode mode) {
    snapshot_mode = mode;
    return *this;
  }
  /// Field-level validation (sample_number/k/sampling ranges, no cancel
  /// token). k against the network size is checked by Session once the
  /// workload is resolved.
  Status Validate() const;
};

/// \brief Everything one Solve produced.
struct SolveResult {
  /// Seeds in greedy selection order (v_1, ..., v_k).
  std::vector<VertexId> seeds;
  /// Estimator score of each seed at selection time (absolute influence
  /// for Oneshot, marginal gain for Snapshot/RIS).
  std::vector<double> estimates;
  /// Seeds sorted ascending: the canonical seed-*set* identity.
  std::vector<VertexId> seed_set;
  /// Shared-oracle influence estimate of seed_set; 0 when
  /// SolveSpec::evaluate_influence was off.
  double influence = 0.0;
  /// Half-width of the oracle's 99% confidence interval (0 when the
  /// oracle was skipped).
  double oracle_ci99 = 0.0;
  /// Work counters accumulated across the estimator's lifetime.
  TraversalCounters counters;
  /// Wall-clock seconds of the estimator's Build: sampling plus its
  /// index (condensation and warmth, or the RR inverted index; 0-ish for
  /// Oneshot).
  double build_seconds = 0.0;
  /// Wall-clock seconds of the k greedy rounds after Build.
  double select_seconds = 0.0;
  /// build_seconds + select_seconds: the whole greedy run.
  double solve_seconds = 0.0;
  /// Wall-clock seconds of the oracle evaluation (0 when skipped).
  double evaluate_seconds = 0.0;
};

/// Inverse of ApproachName: accepts "Oneshot"/"Snapshot"/"RIS"
/// case-insensitively ("ris", "ONESHOT", ...).
StatusOr<Approach> ParseApproach(const std::string& name);

}  // namespace api
}  // namespace soldist

#endif  // SOLDIST_API_SPEC_H_
