// Snapshot (paper Algorithm 3.3): τ live-edge random graphs sampled in
// Build and shared across the greedy selection. The estimator is monotone
// and submodular because the snapshots are fixed (Section 3.4.1). The
// diffusion model only picks the live-edge sampler (IC: every edge kept
// with its probability; LT: at most one live in-edge per vertex); every
// backend below serves both models.
//
// Two reachability backends with *identical* seed sets and estimates:
//  * kResidual  — the reference: the graph-reduction technique of
//                 Section 3.4.3 (Kimura et al. / PMC) on full snapshots
//                 in CSR form. Update(v) deletes the vertices reachable
//                 from v, so marginals are plain reachability on the
//                 shrinking residual graphs; r_G(S+v) − r_G(S) = r_H(v).
//                 Its vertex and edge counters are the cost model of the
//                 paper's Tables 8 and 9.
//  * kCondensed — the default: each snapshot is collapsed once at Build
//                 to its SCC DAG (sim/condensed_snapshot.h; condensation
//                 preserves reachability exactly), and greedy rounds run
//                 component-granular on the residual DAG with
//                 incrementally maintained marginal gains: Update marks
//                 the seed's reachable components removed and marks
//                 stale only the cached gains of their live DAG
//                 ancestors (every live gain of the snapshot, in one
//                 O(C) pass, when the removal is large), so Estimate is
//                 a cache hit for every candidate whose reach set the
//                 last Update did not touch. Each gain is a 4-byte word
//                 per (snapshot, component), and each vertex keeps a
//                 running total of its components' cached gains over
//                 all snapshots, moved only where a gain changes.
//                 Bottom-k sketches over each DAG (graph/reach_sketch.h)
//                 order CELF's first iteration through InitialBound —
//                 sound upper bounds (exact where the sketch saturates
//                 below k), so selection is unchanged while the lazy
//                 queue touches the fewest candidates. A greedy round
//                 (EstimateAll) cuts the τ worlds into fixed tiles and,
//                 tile by tile on the sampling pool, refreshes only the
//                 stale gains that belong to a candidate (each snapshot
//                 lists its stale components in a few dirty slots, or
//                 is flagged for a full scan), then reads every score
//                 from the running totals: it costs the walks it
//                 counts plus O(n), and seeds, estimates and counters
//                 are byte-identical at every width. Its traversal
//                 counters count DAG components and arcs, not vertices
//                 and edges.
//
// Because both backends consume the SAME engine-chunked sampler
// streams, the choice of backend — like the worker count — can never
// change the experiment, only its cost. ctest
// (snapshot_condensed_test, lt_sampling_engine_test) asserts
// byte-identical RunGreedy and RunCelfGreedy outputs across backends and
// thread counts; estimators_test holds both backends to Algorithm 3.3
// verbatim (BFS from S ∪ {v} on every raw snapshot).
//
// Condensed worlds always come from a SnapshotArena (sim/snapshot_arena.h),
// the one sampler of condensed worlds and their warmth. A fresh condensed
// build samples a private arena of exactly τ worlds, builds its state from
// it, then keeps only the worlds — each world's comp_of freed once
// transposed, the arena's warmth and counter table freed with the arena.
// A borrowing estimator serves the first τ worlds of a shared arena
// instead, with the same Estimate/Update/InitialBound sequence and
// counters as a fresh condensed build at τ with the arena's seed (ctest
// snapshot_arena_test).

#ifndef SOLDIST_CORE_SNAPSHOT_H_
#define SOLDIST_CORE_SNAPSHOT_H_

#include <memory>
#include <vector>

#include "core/estimator.h"
#include "model/diffusion.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_sampler.h"
#include "util/status.h"

namespace soldist {

class SnapshotArena;

/// \brief The Snapshot estimator.
class SnapshotEstimator : public InfluenceEstimator {
 public:
  enum class Mode { kResidual, kCondensed };

  /// Fresh build: Build samples τ live-edge graphs of `instance`'s model
  /// (LT requires lt_weights). \param tau number of snapshots (>= 1)
  /// In kCondensed mode `sampling` also drives the warm-state init and
  /// the greedy rounds: its pool (or, without one, a private pool of its
  /// width kept for the estimator's lifetime) runs them on world tiles. A
  /// build always runs to completion: sampling.cancel must be null.
  SnapshotEstimator(const ModelInstance& instance, std::uint64_t tau,
                    std::uint64_t seed, Mode mode = Mode::kCondensed,
                    const SamplingOptions& sampling = {});

  /// Borrowing build, always kCondensed: serves the first τ worlds of
  /// `arena` (1 <= τ <= arena->capacity(); `arena` must outlive the
  /// estimator). Build samples nothing — it costs one warm-state init
  /// over the τ worlds — and charges the prefix's exact sampling cost to
  /// counters() through the arena's prefix counter table.
  SnapshotEstimator(const SnapshotArena* arena, std::uint64_t tau);
  ~SnapshotEstimator() override;

  /// Samples the τ snapshots through SamplingEngine's deterministic
  /// chunked streams (byte-identical at any worker count). In kCondensed
  /// mode a fresh build samples them as SnapshotArena::SampleFor(instance,
  /// seed, τ, sampling), which condenses and warms each snapshot as it is
  /// sampled and discards the raw live-edge CSR immediately.
  void Build() override;

  /// Estimated marginal gain: (1/τ) Σ_i [r_i(S+v) − r_i(S)].
  double Estimate(VertexId v) override;

  /// kCondensed: one world-tiled sweep that refreshes the stale gains
  /// held by a candidate, run as SamplingEngine chunks on this
  /// estimator's SamplingOptions (the build's pool; inline without a
  /// pool, on a pool worker, or for a borrowing build), then one read of
  /// each candidate's running total. Values and counters equal the
  /// per-vertex loop's at every width. kResidual: the per-vertex loop
  /// itself.
  void EstimateAll(std::span<const VertexId> candidates,
                   std::span<double> out) override;

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

  /// Heap bytes of estimator-owned state after Build: sample storage
  /// plus per-mode residual bookkeeping and scratch. For kCondensed that
  /// includes the state words, member references, dirty slots, running
  /// totals and each sweep worker slot's scratch; a borrowing build owns
  /// no worlds. ablation_memory measures the condensed backend's memory
  /// win (no raw CSR, component-granular state) here.
  std::uint64_t MemoryBytes() const;

  /// Per-mode reachability backend (an implementation detail defined in
  /// the .cc; public only so the backends can subclass it).
  class Backend;

 private:
  ModelInstance instance_;  // fresh build only
  const SnapshotArena* arena_ = nullptr;  // borrowing build only
  std::uint64_t tau_;
  std::uint64_t seed_ = 0;
  Mode mode_;
  SamplingOptions sampling_;
  /// A fresh condensed build's pool for a width without one; declared
  /// before backend_ so the backend's round engine dies first.
  std::unique_ptr<ThreadPool> owned_pool_;
  std::unique_ptr<Backend> backend_;
  TraversalCounters counters_;
  bool built_ = false;
};

/// Canonical display name: "residual" / "condensed".
std::string SnapshotModeName(SnapshotEstimator::Mode mode);

/// Inverse of SnapshotModeName, case-insensitive; flag parsing for
/// --snapshot-mode.
StatusOr<SnapshotEstimator::Mode> ParseSnapshotMode(const std::string& name);

}  // namespace soldist

#endif  // SOLDIST_CORE_SNAPSHOT_H_
