// Forward Monte-Carlo simulation of the independent cascade model (paper
// Section 2.2): the sampling primitive behind Oneshot.

#ifndef SOLDIST_SIM_FORWARD_SIM_H_
#define SOLDIST_SIM_FORWARD_SIM_H_

#include <memory>
#include <span>
#include <vector>

#include "graph/traversal.h"
#include "model/influence_graph.h"
#include "random/rng.h"
#include "sim/counters.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// \brief Simulates IC diffusions on one influence graph.
///
/// Reusable across simulations (epoch-marked visited array, persistent
/// queue); not thread-safe — use one simulator per thread.
///
/// Each activated vertex's out-arcs are scanned in two passes, as in
/// RrSampler, so the coins drawn and the activated sequence are those of
/// a one-pass loop that tests activity before every coin
/// (forward_sim_test keeps it as the reference).
class ForwardSimulator {
 public:
  /// CHECKs that the graph's largest out-degree fits in 32 bits.
  explicit ForwardSimulator(const InfluenceGraph* ig);

  /// Runs one diffusion from `seeds`; returns |A_<=n|, the number of
  /// activated vertices (seeds included).
  ///
  /// Traversal accounting (paper Appendix): every activated vertex is
  /// scanned once (+1 vertex); scanning examines all its out-edges
  /// (+d+(u) edges), including edges to already-active targets.
  std::uint32_t Simulate(std::span<const VertexId> seeds, Rng* rng,
                         TraversalCounters* counters);

  /// Like Simulate but also returns the activated set (visit order).
  std::vector<VertexId> SimulateSet(std::span<const VertexId> seeds, Rng* rng,
                                    TraversalCounters* counters);

  /// Mean activated count over `runs` simulations: the Oneshot estimator's
  /// core loop (Algorithm 3.2).
  double EstimateInfluence(std::span<const VertexId> seeds,
                           std::uint64_t runs, Rng* rng,
                           TraversalCounters* counters);

  const InfluenceGraph& influence_graph() const { return *ig_; }

 private:
  const InfluenceGraph* ig_;
  VisitedMarker active_;
  std::vector<VertexId> queue_;
  /// First-pass output: offsets, from the vertex's first out-arc, of the
  /// arcs with an inactive target. Sized to the largest out-degree.
  std::vector<std::uint32_t> inactive_;
};

/// Per-worker-slot simulator cache for EstimateInfluenceSharded: pass the
/// same cache across calls (Oneshot calls once per candidate vertex per
/// greedy round) so each slot's O(n) simulator is built once, not per
/// chunk. Scratch reuse never affects results — all randomness comes from
/// the per-chunk streams.
using ForwardSimulatorCache = std::vector<std::unique_ptr<ForwardSimulator>>;

/// Mean activated count over `runs` diffusions from `seeds`, fanned out
/// through `engine` with per-chunk PRNG streams (chunk c draws from
/// DeriveSeed(DeriveSeed(master_seed, c), 1)). Activated counts are
/// integers accumulated per chunk and merged in chunk order, so the result
/// is byte-identical for any worker count. `cache` (optional) amortizes
/// simulator construction across calls; it must not be shared between
/// concurrently running calls.
double EstimateInfluenceSharded(const InfluenceGraph& ig,
                                std::span<const VertexId> seeds,
                                std::uint64_t runs, std::uint64_t master_seed,
                                SamplingEngine* engine,
                                TraversalCounters* counters,
                                ForwardSimulatorCache* cache = nullptr);

}  // namespace soldist

#endif  // SOLDIST_SIM_FORWARD_SIM_H_
