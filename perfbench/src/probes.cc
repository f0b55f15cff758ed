// The per-layer half of the benchmark: layer probes (direct calls into
// each layer's public functions, for layers the workload's own path does
// not reach), the per-layer metric table, and the ledger.

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>

#include "bench.h"
#include "paths.h"
#include "random/splitmix64.h"
#include "serve/query_service.h"
#include "sim/max_coverage.h"
#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"
#include "store/arena_io.h"
#include "trace.h"

namespace perfbench {
namespace {

using soldist::Approach;

bool HasSpan(const std::vector<Span>& spans, const char* name) {
  return !Named(spans, name).empty();
}

/// Seeds for point-query probes: a fixed, seed-derived vertex stream.
std::vector<soldist::VertexId> Draw(soldist::SplitMix64* rng, int count,
                                    soldist::VertexId n) {
  std::vector<soldist::VertexId> out;
  for (int i = 0; i < count; ++i) {
    out.push_back(static_cast<soldist::VertexId>(rng->Next() % n));
  }
  return out;
}

void ProbeCore(const Options& options, soldist::api::Session* session,
               const soldist::api::WorkloadSpec& workload,
               const std::vector<Span>& spans) {
  struct Probe {
    SolveSpans spans;
    Approach approach;
    std::uint64_t full, smoke;
  };
  // Oneshot keeps beta=1 for the same reason as in ProbeExp.
  const Probe probes[3] = {
      {{"core.build.oneshot", "core.select.oneshot"}, Approach::kOneshot, 1,
       1},
      {{"core.build.snapshot", "core.select.snapshot"}, Approach::kSnapshot,
       1u << 6, 1u << 3},
      {{"core.build.ris", "core.select.ris"}, Approach::kRis, 1u << 12,
       1u << 8}};
  ScopedSpan root("probe.core");
  for (const Probe& p : probes) {
    if (HasSpan(spans, p.spans.select)) continue;
    (void)DecomposedSolve(
        session, workload,
        soldist::api::SolveSpec{}
            .WithApproach(p.approach)
            .WithSampleNumber(options.smoke ? p.smoke : p.full)
            .WithK(2)
            .WithSeed(soldist::DeriveSeed(options.seed, 50))
            .WithSnapshotMode(soldist::SnapshotEstimator::Mode::kCondensed)
            .WithSampleThreads(0),
        p.spans);
  }
}

void ProbeExp(const Options& options, soldist::api::Session* session,
              const soldist::api::WorkloadSpec& workload) {
  const soldist::ModelInstance instance =
      session->ResolveWorkload(workload).value();
  const soldist::RrOracle* oracle = session->ResolveOracle(workload).value();
  ScopedSpan root("probe.exp");
  for (Approach a : {Approach::kOneshot, Approach::kSnapshot, Approach::kRis}) {
    LadderSpec spec;
    spec.approach = a;
    // Oneshot stays at beta=1: on a supercritical cascade (ca-GrQc uc0.1)
    // each forward-simulated candidate is expensive.
    const int full[3] = {0, 5, 10};
    const int smoke[3] = {0, 3, 6};
    spec.max_exponent = (options.smoke ? smoke : full)[static_cast<int>(a)];
    spec.k = 2;
    spec.trials = 8;
    spec.master_seed = soldist::DeriveSeed(options.seed, 60);
    (void)RunLadder(instance, *oracle, spec, session->pool(), true);
  }
}

/// sim/ and store/: RR and snapshot sampling at one and all workers,
/// max coverage on a prefix view, and the arena's save/verify/load.
void ProbeSimAndStore(const Options& options, soldist::api::Session* session,
                      const soldist::api::WorkloadSpec& workload,
                      Report* report) {
  const soldist::InfluenceGraph& ig =
      *session->ResolveWorkload(workload).value().ig;
  const std::uint64_t theta = options.smoke ? 1u << 10 : 1u << 16;
  const std::uint64_t tau = options.smoke ? 1u << 4 : 1u << 9;
  const std::uint64_t seed = soldist::DeriveSeed(options.seed, 70);
  const soldist::SamplingOptions sequential;
  const soldist::SamplingOptions pooled = session->SamplingFor(0);
  std::unique_ptr<soldist::RrArena> arena;
  {
    ScopedSpan root("probe.sim");
    {
      ScopedSpan span("sim.rr_sample.t1");
      (void)soldist::RrArena::SampleIc(ig, seed, theta, sequential);
    }
    const auto start = std::chrono::steady_clock::now();
    {
      ScopedSpan span("sim.rr_sample.t4");
      arena = std::make_unique<soldist::RrArena>(
          soldist::RrArena::SampleIc(ig, seed, theta, pooled));
    }
    Tracer::Note("sim.rr_sets_per_s",
                 static_cast<double>(theta) / SecondsSince(start));
    Tracer::Note("sim.rr_entries",
                 static_cast<double>(arena->total_entries()));
    {
      ScopedSpan span("sim.snapshot_sample.t1");
      (void)soldist::SnapshotArena::Sample(ig, seed, tau, sequential);
    }
    {
      ScopedSpan span("sim.snapshot_sample.t4");
      (void)soldist::SnapshotArena::Sample(ig, seed, tau, pooled);
    }
    const soldist::RrPrefixView prefix = arena->Prefix(theta / 2);
    const int k = std::min<int>(50, static_cast<int>(ig.num_vertices()));
    ScopedSpan span("sim.max_coverage");
    (void)soldist::GreedyMaxCoverage(prefix, k);
  }

  ScopedSpan root("probe.store");
  const std::string dir = options.work_dir + "/probe-store-" +
                          std::to_string(::getpid());
  soldist::store::ArenaManifest manifest;
  manifest.workload = workload.Label();
  manifest.seed = seed;
  manifest.stream = "engine/256";
  manifest.capacity = arena->capacity();
  bool ok = true;
  for (int rep = 0; rep < 3; ++rep) {
    std::filesystem::remove_all(dir);
    {
      ScopedSpan span("store.save");
      ok = ok && soldist::store::SaveRrArena(*arena, manifest, dir).ok();
    }
    {
      ScopedSpan span("store.verify");
      ok = ok && soldist::store::VerifyArena(dir).ok();
    }
    ScopedSpan span("store.load");
    auto loaded = soldist::store::LoadRrArena(dir, manifest);
    ok = ok && loaded.ok() &&
         loaded.value()->ContentChecksum() == arena->ContentChecksum();
  }
  auto saved = soldist::store::ReadArenaManifest(dir);
  if (saved.ok()) {
    Tracer::Note("store.payload_bytes",
                 static_cast<double>(saved.value().payload_bytes));
  }
  std::filesystem::remove_all(dir);
  report->Check(ok && saved.ok(),
                "store probe: saved arena verifies and reloads identical");
}

/// serve/: View hit, reload and build on a one-arena cache, plus the
/// query kernels when the workload's own path did not time them.
void ProbeServe(const Options& options,
                const soldist::api::WorkloadSpec& workload,
                const std::vector<Span>& spans, Report* report) {
  namespace serve = soldist::serve;
  const std::string dir = options.work_dir + "/probe-serve-" +
                          std::to_string(::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  ScopedSpan root("probe.serve");
  {
    soldist::api::SessionOptions session_options;
    session_options.threads = options.threads;
    session_options.arena_dir = dir;
    session_options.arena_budget_bytes = 1;  // keeps only the newest arena
    soldist::api::Session session(session_options);
    serve::QueryService service(&session);
    auto spec = [&](std::uint64_t key) {
      serve::QuerySpec s;
      s.sample_number = options.smoke ? 1u << 10 : 1u << 16;
      s.seed = soldist::DeriveSeed(options.seed, 80 + key);
      s.sample_threads = 0;
      return s;
    };
    const int hits = 200;
    bool ok = true;
    {
      ScopedSpan span("serve.view_build");
      ok = ok && service.View(workload, spec(0)).ok();
    }
    for (int i = 0; i < hits; ++i) {
      ScopedSpan span("serve.view_hit");
      ok = ok && service.View(workload, spec(0)).ok();
    }
    {
      ScopedSpan span("serve.view_build");
      ok = ok && service.View(workload, spec(1)).ok();
    }
    for (int i = 0; i < 6; ++i) {
      ScopedSpan span("serve.view_reload");
      ok = ok && service.View(workload, spec(i % 2)).ok();
    }
    const auto stats = service.cache_stats();
    report->Check(ok && stats.hits == hits && stats.builds == 8 &&
                      stats.evictions >= 7,
                  "serve probe: " + std::to_string(stats.hits) + " hits, " +
                      std::to_string(stats.builds) + " builds/reloads, " +
                      std::to_string(stats.evictions) + " evictions");
    if (Tracer::Notes("serve.cache_hit_ratio").empty()) {
      Tracer::Note("serve.cache_hit_ratio",
                   static_cast<double>(stats.hits) / (hits + 8));
      Tracer::Note("serve.evictions", static_cast<double>(stats.evictions));
    }

    if (!HasSpan(spans, "serve.spread1")) {
      const serve::QueryView view = service.View(workload, spec(1)).value();
      const soldist::VertexId n = view.num_vertices();
      soldist::SplitMix64 rng(soldist::DeriveSeed(options.seed, 90));
      serve::QueryScratch scratch;
      const int queries = 2000;
      std::vector<std::vector<soldist::VertexId>> ones, eights;
      for (int i = 0; i < queries; ++i) {
        ones.push_back(Draw(&rng, 1, n));
        eights.push_back(Draw(&rng, 8, n));
      }
      double sink = 0.0;
      {
        ScopedSpan span("serve.spread1", 0, queries);
        for (const auto& q : ones) sink += view.Spread(q, &scratch);
      }
      {
        ScopedSpan span("serve.spread8", 0, queries);
        for (const auto& q : eights) sink += view.Spread(q, &scratch);
      }
      {
        ScopedSpan span("serve.gain", 0, queries);
        for (int i = 0; i < queries; ++i) {
          sink += view.MarginalGain(eights[i], ones[i][0], &scratch);
        }
      }
      for (int i = 0; i < 3; ++i) {
        ScopedSpan span("serve.topk");
        sink += view.TopK(10).spread;
      }
      serve::QuerySpec worlds_spec = spec(2);
      worlds_spec.sample_number = options.smoke ? 64 : 1024;
      const serve::SnapshotQueryView worlds =
          service.SnapshotView(workload, worlds_spec).value();
      serve::WorldScratch world_scratch;
      const int world_queries = options.smoke ? 100 : 1000;
      {
        ScopedSpan span("serve.reach", 0, world_queries);
        for (int i = 0; i < world_queries; ++i) {
          sink += worlds.ReachProbability(ones[i][0], eights[i][0],
                                          &world_scratch);
        }
      }
      {
        ScopedSpan span("serve.compsize", 0, world_queries);
        for (int i = 0; i < world_queries; ++i) {
          sink += worlds.ExpectedReach(ones[i][0], &world_scratch);
        }
      }
      report->Check(sink > 0.0, "serve probe: query answers are positive");
    }
  }
  std::filesystem::remove_all(dir);
}

/// One per-layer metric: its name, unit, and how the spans give it.
struct LayerMetric {
  std::string name;
  std::string unit;
  std::function<double(const std::vector<Span>&)> value;
};

std::vector<LayerMetric> LayerMetrics() {
  auto median_s = [](std::string span, double scale) {
    return [=](const std::vector<Span>& s) {
      return scale * MedianSeconds(s, span);
    };
  };
  auto per_item = [](std::string span, double scale) {
    return [=](const std::vector<Span>& s) {
      return scale * SecondsPerItem(s, span);
    };
  };
  auto note = [](std::string name) {
    return [=](const std::vector<Span>&) { return Median(Tracer::Notes(name)); };
  };
  std::vector<LayerMetric> m = {
      {"api.resolve_s", "s", median_s("api.resolve", 1)},
      {"oracle.build_s", "s", median_s("oracle.build", 1)},
      {"oracle.eval_us", "us", per_item("oracle.eval", 1e6)},
      {"exp.arena_build_s.snapshot", "s", note("exp.arena_build_s.snapshot")},
      {"exp.arena_build_s.ris", "s", note("exp.arena_build_s.ris")},
      {"exp.trials", "count",
       [](const std::vector<Span>& s) {
         double trials = 0;
         for (const char* name : {"exp.ladder", "exp.trials"}) {
           for (const Span* x : Named(s, name)) trials += x->count;
         }
         return trials;
       }},
      {"stats.summarize_s", "s", median_s("stats.summarize", 1)},
      {"core.build_s.ris", "s", median_s("core.build.ris", 1)},
      {"core.build_s.snapshot", "s", median_s("core.build.snapshot", 1)},
      {"sim.rr_sample_s.t1", "s", median_s("sim.rr_sample.t1", 1)},
      {"sim.rr_sample_s.t4", "s", median_s("sim.rr_sample.t4", 1)},
      {"sim.rr_sets_per_s", "1/s", note("sim.rr_sets_per_s")},
      {"sim.rr_entries", "count", note("sim.rr_entries")},
      {"sim.snapshot_sample_s.t1", "s", median_s("sim.snapshot_sample.t1", 1)},
      {"sim.snapshot_sample_s.t4", "s", median_s("sim.snapshot_sample.t4", 1)},
      {"sim.max_coverage_s", "s", median_s("sim.max_coverage", 1)},
      {"serve.spread1_us", "us", per_item("serve.spread1", 1e6)},
      {"serve.spread8_us", "us", per_item("serve.spread8", 1e6)},
      {"serve.gain_us", "us", per_item("serve.gain", 1e6)},
      {"serve.reach_us", "us", per_item("serve.reach", 1e6)},
      {"serve.compsize_us", "us", per_item("serve.compsize", 1e6)},
      {"serve.view_hit_us", "us", per_item("serve.view_hit", 1e6)},
      {"serve.view_reload_ms", "ms", median_s("serve.view_reload", 1e3)},
      {"serve.view_build_ms", "ms", median_s("serve.view_build", 1e3)},
      {"serve.topk_ms", "ms", per_item("serve.topk", 1e3)},
      {"serve.cache_hit_ratio", "frac", note("serve.cache_hit_ratio")},
      {"serve.evictions", "count", note("serve.evictions")},
      {"store.load_ms", "ms", median_s("store.load", 1e3)},
      {"store.save_ms", "ms", median_s("store.save", 1e3)},
      {"store.verify_ms", "ms", median_s("store.verify", 1e3)},
      {"store.payload_bytes", "bytes", note("store.payload_bytes")},
      {"trace.overhead_frac", "frac", note("trace.overhead_frac")},
  };
  for (const char* a : {"oneshot", "snapshot", "ris"}) {
    const std::string s = a;
    m.push_back({"exp.pool_efficiency." + s, "frac",
                 note("exp.pool_efficiency." + s)});
    m.push_back({"core.select_s." + s, "s", median_s("core.select." + s, 1)});
    m.push_back({"core.vertices." + s, "count", note("core.vertices." + s)});
    m.push_back({"core.edges." + s, "count", note("core.edges." + s)});
  }
  return m;
}

}  // namespace

void RunLayerProbes(const Options& options, soldist::api::Session* session,
                    const soldist::api::WorkloadSpec& workload,
                    Report* report) {
  const std::vector<Span> spans = Tracer::Collect();
  ProbeCore(options, session, workload, spans);
  if (!HasSpan(spans, "exp.ladder")) ProbeExp(options, session, workload);
  ProbeSimAndStore(options, session, workload, report);
  ProbeServe(options, workload, spans, report);
}

void FinishTrace(const Options& options, double untraced_round_s,
                 double traced_round_s, Report* report) {
  Tracer::Note("trace.overhead_frac", traced_round_s / untraced_round_s - 1.0);
  const std::vector<Span> spans = Tracer::Collect();
  const std::vector<LedgerRow> ledger = Ledger(spans, "bench.");
  std::printf("ledger (%s, self time of the workload's own span trees):\n",
              options.workload.c_str());
  std::printf("  %-8s %12s %8s %10s\n", "layer", "self_s", "share", "spans");
  for (const LedgerRow& row : ledger) {
    std::printf("  %-8s %12.6f %7.2f%% %10llu\n", row.layer.c_str(),
                row.self_s, 100.0 * row.share,
                static_cast<unsigned long long>(row.spans));
  }
  const std::string path = options.work_dir + "/trace-" + options.workload +
                           "-seed" + std::to_string(options.seed) + ".jsonl";
  report->Check(WriteSpans(spans, path),
                "wrote " + std::to_string(spans.size()) + " spans to " + path);

  std::string missing;
  for (const LayerMetric& metric : LayerMetrics()) {
    const double value = metric.value(spans);
    if (value == 0.0) missing += " " + metric.name;
    report->Set(metric.name, value, metric.unit);
  }
  report->Check(missing.empty(), "every per-layer metric measured" +
                                     (missing.empty() ? "" : ":" + missing));
}

}  // namespace perfbench
