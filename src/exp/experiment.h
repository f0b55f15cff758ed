// Shared bench scaffolding: common flags, the per-instance oracle cache,
// and the scaled-down default sweep grids (the paper's full grids — T =
// 1,000 trials, β,τ up to 2^16, θ up to 2^24, 10^7-RR-set oracle — ran for
// weeks on a 500 GB server; see DESIGN.md Section 5).
//
// Since the api/ facade landed, ExperimentContext is a thin adapter over
// api::Session: the session owns the registry, the thread pools, and the
// model-keyed oracle cache; the context adds the bench conveniences
// (CHECK-style accessors for static instance lists, per-network trial
// counts, the --sample-threads/--chunk-size wiring).

#ifndef SOLDIST_EXP_EXPERIMENT_H_
#define SOLDIST_EXP_EXPERIMENT_H_

#include <string>

#include "api/session.h"
#include "exp/sweep.h"
#include "oracle/rr_oracle.h"
#include "sim/sampling_engine.h"
#include "store/arena_storage.h"
#include "util/args.h"
#include "util/thread_pool.h"

namespace soldist {

/// Options common to every table/figure bench.
struct ExperimentOptions {
  std::uint64_t trials = 200;       ///< T for normal instances
  std::uint64_t star_trials = 20;   ///< T for ⋆ instances (paper: 20)
  std::uint64_t seed = 42;          ///< master seed
  std::uint64_t oracle_rr = 100000; ///< RR sets per instance oracle
  VertexId star_n = 0;              ///< ⋆ vertex-count override (0=default)
  bool full = false;                ///< paper-scale grids (slow!)
  std::string out_csv;              ///< optional CSV output path
  std::int64_t threads = 0;         ///< worker threads (0 = hardware)
  /// Diffusion model (--model ic|lt). Model-aware binaries resolve their
  /// workloads through ExperimentContext::Model; IC-only benches must
  /// call RequireIcModel so --model lt fails loudly instead of silently
  /// running IC.
  DiffusionModel model = DiffusionModel::kIc;
  /// Sample-level parallelism: 1 = each trial samples inline, trials fan
  /// out (default); 0 / N>1 = sampling chunks on the shared pool, trials
  /// sequential. Never changes a result.
  std::int64_t sample_threads = 1;
  std::int64_t chunk_size = 256;    ///< samples per deterministic chunk
  /// Sample-number-ladder reuse (--sweep-reuse on|off, default on): on
  /// serves every RIS (and condensed Snapshot) sweep cell from one
  /// per-trial arena under either model, off runs the same prefix-closed
  /// streams with fresh per-cell sampling (byte-identical to on).
  SweepReuse sweep_reuse = SweepReuse::kOn;
  /// Byte budget for the serving layer's arena cache (0 = unlimited);
  /// see api::SessionOptions::arena_budget_bytes. Set by binaries that
  /// mint a serve::QueryService (e.g. soldist_experiment --query).
  std::uint64_t arena_budget_bytes = 0;
  /// Arena storage backend (--arena-backend flat|compressed|mmap); see
  /// api::SessionOptions::arena_storage. Answers are byte-identical
  /// across backends — the flag trades decode latency for memory.
  store::ArenaBackend arena_backend = store::ArenaBackend::kFlat;
  /// Arena persistence root (--arena-dir). Non-empty: session arenas
  /// save under it and reload across processes; also the default mmap
  /// spill directory. Empty: no persistence (mmap spills under
  /// /tmp/soldist-arena).
  std::string arena_dir;
  /// Per-request deadline in ms (--deadline-ms; 0 = unlimited, and an
  /// EXPLICIT --deadline-ms 0 is rejected — omit the flag instead).
  /// Requests whose arena build outruns it get degraded τ-prefix
  /// answers (serve/resilience.h).
  std::uint64_t deadline_ms = 0;
  /// Max concurrent serve-layer arena builds (--max-inflight-builds;
  /// 0 = unlimited). Excess builds shed with UNAVAILABLE.
  std::int64_t max_inflight_builds = 0;
  /// Background scrubber cadence in ms (--scrub-interval-ms; 0 = off).
  /// Each cycle re-verifies one resident arena checksum and one
  /// persisted --arena-dir entry (serve/scrubber.h).
  std::uint64_t scrub_interval_ms = 0;
  /// Deterministic IO fault injection (--fault-spec; see
  /// store/fault_injection.h for the grammar). Installed process-wide
  /// by ParseExperimentFlags; empty = off.
  std::string fault_spec;

  /// The api::Session configuration these options imply.
  api::SessionOptions SessionConfig() const;
};

/// Registers the shared flags on `args`.
void AddExperimentFlags(ArgParser* args);

/// Reads the shared flags back after Parse(), validating values: a bad
/// --model/--trials/... combination is user input and comes back as an
/// InvalidArgument Status with an actionable message (never a CHECK).
StatusOr<ExperimentOptions> ParseExperimentFlags(const ArgParser& args);

/// Per-network sweep caps: max sample-number exponents per approach,
/// scaled to this harness's budget (or the paper's grid with --full).
struct GridCaps {
  int oneshot_max_exp = 8;
  int snapshot_max_exp = 8;
  int ris_max_exp = 12;

  int MaxExp(Approach approach) const {
    switch (approach) {
      case Approach::kOneshot:
        return oneshot_max_exp;
      case Approach::kSnapshot:
        return snapshot_max_exp;
      case Approach::kRis:
        return ris_max_exp;
    }
    return 0;
  }
};

/// Default caps for `network` ("--full" restores the paper's 16/16/24).
GridCaps ScaledGridCaps(const std::string& network, bool full);

/// \brief Bench adapter over api::Session: registry, thread pool, and
/// per-instance oracles for one bench run.
class ExperimentContext {
 public:
  explicit ExperimentContext(const ExperimentOptions& options);

  /// The api workload of (network, prob) under options().model.
  api::WorkloadSpec Workload(const std::string& network,
                             ProbabilityModel prob) const;

  /// Status-returning resolution for user-supplied (network, prob): the
  /// (graph, model) workload with LtWeights resolved and cached for LT.
  /// Fails with an explanatory status on an unknown network or an
  /// LT-invalid probability setting (in-weights must sum to <= 1; iwc
  /// always qualifies).
  StatusOr<ModelInstance> TryModel(const std::string& network,
                                   ProbabilityModel prob);

  /// Status-returning resolution of the instance's shared oracle (built
  /// on first use, then reused across all algorithms and sample numbers —
  /// paper Section 5.2). Oracles are keyed by (network, prob, model): an
  /// LT oracle draws backward-walk RR sets so LT seed sets are scored
  /// under LT influence.
  StatusOr<const RrOracle*> TryOracle(const std::string& network,
                                      ProbabilityModel prob);

  /// Influence graph of (network, prob); CHECK-fails on unknown names
  /// (bench instance lists are static, so failure is a programmer error —
  /// anything flag-driven must go through TryModel/TryOracle instead).
  const InfluenceGraph& Instance(const std::string& network,
                                 ProbabilityModel prob);

  /// CHECK-style counterpart of TryModel for static bench instance lists.
  ModelInstance Model(const std::string& network, ProbabilityModel prob);

  /// CHECK-style counterpart of TryOracle for static bench instance lists.
  const RrOracle& Oracle(const std::string& network, ProbabilityModel prob);

  /// T for this network: options.star_trials for ⋆ networks.
  std::uint64_t TrialsFor(const std::string& network) const;

  /// SamplingOptions for TrialConfig/SweepConfig. --sample-threads 0
  /// attaches the context's shared pool (sample- and trial-level
  /// parallelism share one set of workers); --sample-threads N >= 2
  /// attaches a dedicated lazily-created N-worker pool, so the requested
  /// width is honored even when --threads sized the main pool differently.
  SamplingOptions sampling() { return SamplingFor(options_.sample_threads); }

  /// sampling() for an explicit width instead of --sample-threads: lets a
  /// determinism verifier sweep widths against ONE context (same
  /// instances and oracles) instead of rebuilding them per width.
  /// Dedicated pools are cached per width.
  SamplingOptions SamplingFor(std::int64_t sample_threads);

  ThreadPool* pool() { return session_.pool(); }
  const ExperimentOptions& options() const { return options_; }
  InstanceRegistry* registry() { return session_.registry(); }
  api::Session* session() { return &session_; }

 private:
  ExperimentOptions options_;
  api::Session session_;
};

}  // namespace soldist

#endif  // SOLDIST_EXP_EXPERIMENT_H_
