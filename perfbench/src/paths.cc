#include "paths.h"

#include <chrono>
#include <memory>
#include <utility>

#include "bench.h"
#include "core/factory.h"
#include "core/greedy.h"
#include "random/splitmix64.h"
#include "trace.h"

namespace perfbench {
namespace {

using soldist::Approach;

std::string Suffix(Approach a) {
  switch (a) {
    case Approach::kOneshot:
      return "oneshot";
    case Approach::kSnapshot:
      return "snapshot";
    case Approach::kRis:
      return "ris";
  }
  return "ris";
}

/// An estimator whose Build already ran: RunGreedy calls Build itself, so
/// the decomposed solve builds first (under its own span) and hands the
/// greedy loop this forwarding wrapper.
class PrebuiltEstimator : public soldist::InfluenceEstimator {
 public:
  explicit PrebuiltEstimator(soldist::InfluenceEstimator* inner)
      : inner_(inner) {}
  void Build() override {}
  double Estimate(soldist::VertexId v) override { return inner_->Estimate(v); }
  void Update(soldist::VertexId v) override { inner_->Update(v); }
  bool EstimatesAreMarginal() const override {
    return inner_->EstimatesAreMarginal();
  }
  bool ProvidesInitialBounds() const override {
    return inner_->ProvidesInitialBounds();
  }
  double InitialBound(soldist::VertexId v) override {
    return inner_->InitialBound(v);
  }
  std::uint64_t sample_number() const override {
    return inner_->sample_number();
  }
  const soldist::TraversalCounters& counters() const override {
    return inner_->counters();
  }
  std::string name() const override { return inner_->name(); }

 private:
  soldist::InfluenceEstimator* inner_;
};

}  // namespace

LadderOutcome RunLadder(const soldist::ModelInstance& instance,
                        const soldist::RrOracle& oracle,
                        const LadderSpec& spec, soldist::ThreadPool* pool,
                        bool decomposed) {
  const auto start = std::chrono::steady_clock::now();
  LadderOutcome out;
  if (!decomposed) {
    soldist::SweepConfig config;
    config.approach = spec.approach;
    config.k = spec.k;
    config.trials = spec.trials;
    config.master_seed = spec.master_seed;
    config.min_exponent = 0;
    config.max_exponent = spec.max_exponent;
    config.snapshot_mode = soldist::SnapshotEstimator::Mode::kCondensed;
    config.reuse = soldist::SweepReuse::kOn;
    out.cells = soldist::RunSweep(instance, oracle, config, pool);
  } else {
    // Exactly RunSweep's reuse-on path: a trial-major ladder for RIS and
    // condensed Snapshot, independent per-cell trials for Oneshot.
    const std::size_t num_cells = spec.max_exponent + 1;
    std::vector<soldist::TrialResult> results;
    double arena_s = 0.0;
    const auto exp_start = std::chrono::steady_clock::now();
    {
      ScopedSpan span(
          spec.approach == Approach::kOneshot ? "exp.trials" : "exp.ladder",
          0, spec.trials * num_cells);
      if (spec.approach == Approach::kOneshot) {
        for (int e = 0; e <= spec.max_exponent; ++e) {
          soldist::TrialConfig cell;
          cell.approach = spec.approach;
          cell.sample_number = 1ULL << e;
          cell.k = spec.k;
          cell.trials = spec.trials;
          cell.master_seed = soldist::DeriveSeed(spec.master_seed, e);
          results.push_back(soldist::RunTrials(instance, cell, pool));
        }
      } else {
        soldist::TrialLadderConfig ladder;
        ladder.approach = spec.approach;
        for (int e = 0; e <= spec.max_exponent; ++e) {
          ladder.sample_numbers.push_back(1ULL << e);
        }
        ladder.k = spec.k;
        ladder.trials = spec.trials;
        ladder.master_seed = spec.master_seed;
        ladder.snapshot_mode = soldist::SnapshotEstimator::Mode::kCondensed;
        ladder.reuse = true;
        ladder.arena_seconds_out = &arena_s;
        results = soldist::RunTrialLadder(instance, ladder, pool);
      }
    }
    const double exp_wall = SecondsSince(exp_start);
    double busy = arena_s;
    for (const auto& r : results) busy += r.seconds;
    const double width = pool != nullptr ? pool->num_threads() : 1.0;
    if (Tracer::enabled()) {
      Tracer::Note("exp.pool_efficiency." + Suffix(spec.approach),
                   busy / (exp_wall * width));
      if (spec.approach != Approach::kOneshot) {
        Tracer::Note("exp.arena_build_s." + Suffix(spec.approach), arena_s);
      }
    }
    for (std::size_t l = 0; l < results.size(); ++l) {
      soldist::SweepCell cell;
      cell.sample_number = 1ULL << l;
      cell.result = std::move(results[l]);
      {
        ScopedSpan span("oracle.eval", 0, spec.trials);
        soldist::EvaluateInfluence(oracle, &cell.result);
      }
      {
        ScopedSpan span("stats.summarize");
        cell.entropy = cell.result.distribution.Entropy();
        cell.summary.sample_number = cell.sample_number;
        cell.summary.mean_influence = cell.result.influence.Mean();
        cell.summary.mean_sample_size =
            cell.result.MeanSampleSize(spec.trials);
      }
      out.cells.push_back(std::move(cell));
    }
  }
  out.wall_s = SecondsSince(start);
  out.digest = 0xcbf29ce484222325ull;
  for (const auto& cell : out.cells) {
    for (const auto& seeds : cell.result.seed_sets) {
      out.digest = HashSeeds(seeds, out.digest);
    }
  }
  return out;
}

soldist::StatusOr<soldist::api::SolveResult> DecomposedSolve(
    soldist::api::Session* session,
    const soldist::api::WorkloadSpec& workload,
    const soldist::api::SolveSpec& spec, const SolveSpans& spans) {
  soldist::StatusOr<soldist::ModelInstance> instance =
      soldist::Status::Internal("unresolved");
  const soldist::RrOracle* oracle = nullptr;
  {
    ScopedSpan span("api.lookup");
    instance = session->ResolveWorkload(workload);
    if (!instance.ok()) return instance.status();
    if (spec.evaluate_influence) {
      auto resolved = session->ResolveOracle(workload);
      if (!resolved.ok()) return resolved.status();
      oracle = resolved.value();
    }
  }
  const soldist::SamplingOptions sampling = session->SamplingFor(
      spec.sampling.num_threads, spec.sampling.chunk_size);
  std::unique_ptr<soldist::InfluenceEstimator> estimator;
  {
    ScopedSpan span("core.make");
    estimator = soldist::MakeEstimator(
        instance.value(), spec.approach, spec.sample_number,
        soldist::DeriveSeed(spec.seed, 0), spec.snapshot_mode, sampling);
  }
  {
    ScopedSpan span(spans.build);
    estimator->Build();
  }
  PrebuiltEstimator prebuilt(estimator.get());
  soldist::Rng tie_rng(soldist::DeriveSeed(spec.seed, 1));
  soldist::GreedyRunResult run;
  {
    ScopedSpan span(spans.select);
    run = soldist::RunGreedy(&prebuilt, instance.value().ig->num_vertices(),
                             spec.k, &tie_rng);
  }
  soldist::api::SolveResult result;
  result.seeds = run.seeds;
  result.estimates = run.estimates;
  result.seed_set = run.SortedSeedSet();
  result.counters = estimator->counters();
  if (Tracer::enabled()) {
    const std::string tag =
        std::string(spans.select).substr(std::string("core.select.").size());
    Tracer::Note("core.vertices." + tag,
                 static_cast<double>(result.counters.vertices));
    Tracer::Note("core.edges." + tag,
                 static_cast<double>(result.counters.edges));
  }
  if (oracle != nullptr) {
    ScopedSpan span("oracle.eval");
    result.influence = oracle->EstimateInfluence(result.seed_set);
  }
  return result;
}

}  // namespace perfbench
