// Snapshot (paper Algorithm 3.3): τ live-edge random graphs sampled in
// Build and shared across the greedy selection. The estimator is monotone
// and submodular because the snapshots are fixed (Section 3.4.1).
//
// Three reachability backends with *identical* seed sets and estimates:
//  * kNaive     — BFS from S ∪ {v} on the full snapshot each call
//                 (Algorithm 3.3 verbatim);
//  * kResidual  — the graph-reduction technique of Section 3.4.3
//                 (Kimura et al. / PMC): Update(v) deletes the vertices
//                 reachable from v, so marginals are plain reachability on
//                 the shrinking residual graphs; r_G(S+v) − r_G(S) = r_H(v).
//  * kCondensed — each snapshot is collapsed once at Build to its SCC DAG
//                 (sim/condensed_snapshot.h; condensation preserves
//                 reachability exactly), and greedy rounds run
//                 component-granular on the residual DAG with
//                 incrementally maintained marginal gains: Update marks
//                 the seed's reachable components removed and invalidates
//                 cached gains only for their live DAG ancestors, so
//                 Estimate is a cache hit for every candidate whose reach
//                 set the last Update did not touch. Bottom-k sketches
//                 over each DAG (graph/reach_sketch.h) order CELF's first
//                 iteration through InitialBound — sound upper bounds
//                 (exact where the sketch saturates below k), so
//                 selection is unchanged while the lazy queue touches the
//                 fewest candidates.
//
// Because all three backends consume the SAME engine-chunked sampler
// streams, the choice of backend — like the worker count — can never
// change the experiment, only its cost. ctest
// (snapshot_condensed_test) asserts byte-identical RunGreedy and
// RunCelfGreedy outputs across backends and thread counts.

#ifndef SOLDIST_CORE_SNAPSHOT_H_
#define SOLDIST_CORE_SNAPSHOT_H_

#include <memory>
#include <vector>

#include "core/estimator.h"
#include "model/influence_graph.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_sampler.h"
#include "util/status.h"

namespace soldist {

/// \brief The Snapshot estimator.
class SnapshotEstimator : public InfluenceEstimator {
 public:
  enum class Mode { kNaive, kResidual, kCondensed };

  /// \param tau number of snapshots (must be >= 1)
  SnapshotEstimator(const InfluenceGraph* ig, std::uint64_t tau,
                    std::uint64_t seed, Mode mode = Mode::kResidual,
                    const SamplingOptions& sampling = {});
  ~SnapshotEstimator() override;

  /// Samples the τ snapshots through SamplingEngine's deterministic
  /// chunked streams (byte-identical at any worker count). In kCondensed
  /// mode each snapshot is condensed as it is sampled and the raw
  /// live-edge CSR is discarded immediately.
  void Build() override;

  /// Estimated marginal gain: (1/τ) Σ_i [r_i(S+v) − r_i(S)].
  double Estimate(VertexId v) override;

  void Update(VertexId v) override;

  bool EstimatesAreMarginal() const override { return true; }
  bool ProvidesInitialBounds() const override {
    return mode_ == Mode::kCondensed;
  }
  /// kCondensed only: (1/τ) Σ_i bound_i(v), each bound_i sound for
  /// snapshot i (exact when the DAG sketch saturated; otherwise the
  /// topologically capped successor-sum). Precomputed by Build's sketch
  /// pass — the same pass that pre-seeds the gain cache — so this is an
  /// O(1) lookup.
  double InitialBound(VertexId v) override;

  std::uint64_t sample_number() const override { return tau_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "Snapshot"; }

  Mode mode() const { return mode_; }

  /// Heap bytes of estimator-owned state after Build: sample storage plus
  /// per-mode residual bookkeeping and scratch. The condensed backend's
  /// memory win (no raw CSR, component-granular state) is measured here
  /// by ablation_memory.
  std::uint64_t MemoryBytes() const;

  /// Per-mode reachability backend (an implementation detail defined in
  /// the .cc; public only so the backends can subclass it).
  class Backend;

 private:
  const InfluenceGraph* ig_;
  std::uint64_t tau_;
  std::uint64_t seed_;
  Mode mode_;
  SamplingOptions sampling_;
  std::unique_ptr<Backend> backend_;
  TraversalCounters counters_;
  bool built_ = false;
};

class SnapshotArena;

/// \brief The Snapshot estimator served zero-copy from a SnapshotArena
/// prefix (sim/snapshot_arena.h) instead of sampling its own worlds.
///
/// Byte-identical contract: for an arena sampled with (ig, seed,
/// capacity, sampling), ArenaSnapshotEstimator(arena, τ) with τ <=
/// capacity produces the same Estimate/Update/InitialBound sequence —
/// and the same counters() — as a fresh condensed
/// SnapshotEstimator(ig, τ, seed, Mode::kCondensed, sampling), because
/// the streams are prefix-closed and the precomputed warmth is a pure
/// function of each world (ctest snapshot_arena_test). Build costs one
/// warm-state init over the first τ worlds; sampling cost is charged to
/// counters() via the arena's prefix counter table.
class ArenaSnapshotEstimator : public InfluenceEstimator {
 public:
  ArenaSnapshotEstimator(const SnapshotArena* arena, std::uint64_t tau);
  ~ArenaSnapshotEstimator() override;

  void Build() override;
  double Estimate(VertexId v) override;
  void Update(VertexId v) override;
  bool EstimatesAreMarginal() const override { return true; }
  bool ProvidesInitialBounds() const override { return true; }
  double InitialBound(VertexId v) override;
  std::uint64_t sample_number() const override { return tau_; }
  const TraversalCounters& counters() const override { return counters_; }
  std::string name() const override { return "Snapshot"; }

  /// Heap bytes of estimator-owned residual bookkeeping (the worlds
  /// belong to the arena and are not counted here).
  std::uint64_t MemoryBytes() const;

 private:
  class Core;  // wraps the shared condensed gain core (snapshot.cc)

  const SnapshotArena* arena_;
  std::uint64_t tau_;
  std::unique_ptr<Core> core_;
  TraversalCounters counters_;
  bool built_ = false;
};

/// Canonical display name: "naive" / "residual" / "condensed".
std::string SnapshotModeName(SnapshotEstimator::Mode mode);

/// Inverse of SnapshotModeName, case-insensitive; flag parsing for
/// --snapshot-mode.
StatusOr<SnapshotEstimator::Mode> ParseSnapshotMode(const std::string& name);

}  // namespace soldist

#endif  // SOLDIST_CORE_SNAPSHOT_H_
