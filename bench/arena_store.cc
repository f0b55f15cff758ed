// Arena storage-backend bench: one flat RR arena is persisted
// (store/arena_io.h), reloaded cold and warm, and then served through
// every storage backend (flat / compressed / mmap-spill) under the same
// deterministic point-query workload — recording compression ratio,
// save/load times and per-backend p50/p99 latencies into
// BENCH_store.json (ISSUE 8's out-of-core storage subsystem, measured).
//
// Refusal discipline: every backend's per-query answers and TopK seed
// set are CHECKed identical to the flat reference — and the flat
// reference itself runs on the RELOADED arena, so the artifact also
// proves a saved arena serves without resampling. The --check-ratio
// gate fails the run (exit 1) when the compressed backend's storage
// bytes are not at least that factor below flat's.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "random/splitmix64.h"
#include "serve/query_service.h"
#include "store/arena_io.h"
#include "store/arena_storage.h"
#include "store/recovery.h"
#include "util/cli.h"
#include "util/json.h"
#include "util/string_util.h"

namespace soldist {
namespace {

bool SameCounters(const TraversalCounters& a, const TraversalCounters& b) {
  return a.vertices == b.vertices && a.edges == b.edges &&
         a.sample_vertices == b.sample_vertices &&
         a.sample_edges == b.sample_edges;
}

struct Query {
  std::vector<VertexId> seeds;
  VertexId gain_vertex = 0;  ///< 0-seed queries become MarginalGain
  bool is_gain = false;
};

/// Deterministic mixed point-query workload (same shape as
/// bench/query_service.cc): single-vertex spread, 4-seed spread,
/// 3-seed marginal gain.
std::vector<Query> MakeWorkload(std::uint64_t count, VertexId n,
                                std::uint64_t seed) {
  SplitMix64 rng(DeriveSeed(seed, 0x57a7e));
  auto vertex = [&] { return static_cast<VertexId>(rng.Next() % n); };
  std::vector<Query> queries(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    Query& q = queries[i];
    switch (i % 3) {
      case 0:
        q.seeds = {vertex()};
        break;
      case 1:
        q.seeds = {vertex(), vertex(), vertex(), vertex()};
        break;
      default:
        q.is_gain = true;
        q.seeds = {vertex(), vertex(), vertex()};
        q.gain_vertex = vertex();
        break;
    }
  }
  return queries;
}

struct BackendRecord {
  const char* name = "";
  std::uint64_t storage_bytes = 0;   ///< backend-owned payload bytes
  std::uint64_t memory_bytes = 0;    ///< whole arena (incl. counters)
  std::uint64_t resident_bytes = 0;  ///< after the query run
  double p50_us = 0.0;
  double p99_us = 0.0;
  double hot_hit_rate = 0.0;
  std::uint64_t chunk_loads = 0;
};

/// Runs the workload once on `view`, CHECKing answers against
/// `reference` when non-empty (filling it when empty), and returns
/// latency percentiles.
void RunQueries(const serve::QueryView& view,
                const std::vector<Query>& queries,
                std::vector<double>* reference, BackendRecord* record) {
  serve::QueryScratch scratch;
  std::vector<double> results(queries.size());
  std::vector<std::uint64_t> latency_ns(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const Query& q = queries[i];
    const auto start = std::chrono::steady_clock::now();
    results[i] = q.is_gain
                     ? view.MarginalGain(q.seeds, q.gain_vertex, &scratch)
                     : view.Spread(q.seeds, &scratch);
    latency_ns[i] = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count());
  }
  if (reference->empty()) {
    *reference = results;
  } else {
    // Exact equality: answers are integer counts scaled by constants, so
    // a backend that changes any byte fails loudly, never silently.
    SOLDIST_CHECK(results == *reference)
        << record->name
        << ": backend query answers differ from the flat reference — "
           "refusing to record";
  }
  std::sort(latency_ns.begin(), latency_ns.end());
  record->p50_us =
      static_cast<double>(latency_ns[latency_ns.size() / 2]) / 1000.0;
  record->p99_us =
      static_cast<double>(latency_ns[latency_ns.size() * 99 / 100]) / 1000.0;
}

int Run(int argc, const char* const* argv) {
  ArgParser args("bench_arena_store",
                 "Persist one flat RR arena, reload it (cold + warm), and "
                 "serve the same point-query workload through the flat / "
                 "compressed / mmap storage backends; emits "
                 "BENCH_store.json. All backend answers are CHECKed "
                 "identical to the flat reference, which itself runs on "
                 "the RELOADED arena.");
  AddExperimentFlags(&args);
  args.AddString("network", "ca-GrQc", "network to sample");
  args.AddString("prob", "uc0.1", "probability setting (uc0.1|owc|iwc|tri)");
  args.AddInt64("tau", 8192, "RR sets in the arena");
  args.AddInt64("queries", 30000, "point queries per backend run");
  args.AddInt64("topk", 10, "k for the per-backend TopK identity check");
  args.AddString("store-dir", "/tmp/soldist-bench-arena",
                 "scratch directory for the persisted arena and the mmap "
                 "spill file");
  args.AddString("json-out", "BENCH_store.json",
                 "write the JSON record here (empty = stdout only)");
  args.AddString("check-ratio", "",
                 "fail (exit 1) unless flat storage bytes / compressed "
                 "storage bytes >= this (e.g. 1.5)");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "bench_arena_store");
  StatusOr<ProbabilityModel> prob =
      ParseProbabilityModel(args.GetString("prob"));
  if (!prob.ok()) return ExitWithError(prob.status());
  double check_ratio = 0.0;
  if (!args.GetString("check-ratio").empty() &&
      !ParseDouble(args.GetString("check-ratio"), &check_ratio)) {
    return ExitWithError(Status::InvalidArgument(
        "bad --check-ratio value: '" + args.GetString("check-ratio") + "'"));
  }
  const auto tau = static_cast<std::uint64_t>(args.GetInt64("tau"));
  const auto num_queries =
      static_cast<std::uint64_t>(args.GetInt64("queries"));
  const int topk = static_cast<int>(args.GetInt64("topk"));
  const std::string store_dir = args.GetString("store-dir");

  PrintBanner("Arena storage backends: persistence + flat/compressed/mmap "
              "point-query service",
              options);
  ExperimentContext context(options);
  const std::string network = args.GetString("network");
  StatusOr<ModelInstance> instance = context.TryModel(network, prob.value());
  if (!instance.ok()) return ExitWithError(instance.status());
  const SamplingOptions sampling = context.sampling();

  // Sample the flat source arena, persist it, and reload — the reloaded
  // copy (not the original) becomes the serving reference.
  WallTimer timer;
  RrArena sampled = RrArena::SampleFor(instance.value(), options.seed, tau,
                                       sampling);
  const double sample_seconds = timer.Seconds();
  store::ArenaManifest manifest;
  manifest.kind = "rr";
  manifest.workload = context.Workload(network, prob.value()).Label();
  manifest.seed = options.seed;
  manifest.stream = "engine/" + std::to_string(sampling.chunk_size);
  manifest.capacity = tau;
  timer.Restart();
  Status saved = store::SaveRrArena(sampled, manifest, store_dir);
  if (!saved.ok()) return ExitWithError(saved);
  const double save_seconds = timer.Seconds();
  timer.Restart();
  StatusOr<std::shared_ptr<RrArena>> cold =
      store::LoadRrArena(store_dir, manifest);
  const double cold_load_seconds = timer.Seconds();
  if (!cold.ok()) return ExitWithError(cold.status());
  timer.Restart();
  StatusOr<std::shared_ptr<RrArena>> warm =
      store::LoadRrArena(store_dir, manifest);
  const double warm_load_seconds = timer.Seconds();
  if (!warm.ok()) return ExitWithError(warm.status());
  std::shared_ptr<RrArena> flat_arena = cold.value();

  // Integrity-layer costs (ISSUE 10): VerifyArena is the per-entry price
  // of the scrubber's disk pass; the startup sweep is what QueryService
  // pays once per boot. The sweep runs over its own scratch root (one
  // saved entry + seeded tmp debris) so its work — and the CHECK that it
  // cleans exactly the debris — is independent of the serving copy.
  timer.Restart();
  Status verified = store::VerifyArena(store_dir);
  const double verify_seconds = timer.Seconds();
  if (!verified.ok()) return ExitWithError(verified);
  const std::string sweep_root = store_dir + "_recovery_root";
  std::filesystem::remove_all(sweep_root);
  Status sweep_saved =
      store::SaveRrArena(sampled, manifest, sweep_root + "/entry");
  if (!sweep_saved.ok()) return ExitWithError(sweep_saved);
  std::ofstream(sweep_root + "/payload.bin.tmp") << "debris";
  timer.Restart();
  StatusOr<store::RecoveryReport> swept = store::RecoverArenaDir(sweep_root);
  const double sweep_seconds = timer.Seconds();
  if (!swept.ok()) return ExitWithError(swept.status());
  SOLDIST_CHECK(swept.value().cleaned_tmp_files == 1 &&
                swept.value().healthy_entries == 1 &&
                swept.value().quarantined_entries == 0)
      << "recovery sweep misclassified the scratch tree: "
      << swept.value().ToJson();

  // Byte-identity of the round trip: every set, every inverted list,
  // every prefix counter.
  SOLDIST_CHECK(flat_arena->capacity() == sampled.capacity());
  SOLDIST_CHECK(flat_arena->total_entries() == sampled.total_entries());
  for (std::uint64_t i = 0; i < tau; ++i) {
    const auto a = sampled.Set(i);
    const auto b = flat_arena->Set(i);
    SOLDIST_CHECK(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "reloaded set " << i << " differs";
  }
  const VertexId n = flat_arena->num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const auto a = sampled.InvertedAll(v);
    const auto b = flat_arena->InvertedAll(v);
    SOLDIST_CHECK(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "reloaded inverted list of vertex " << v << " differs";
  }
  for (std::uint64_t cut : {std::uint64_t{1}, tau / 2, tau}) {
    SOLDIST_CHECK(SameCounters(sampled.PrefixCounters(cut),
                               flat_arena->PrefixCounters(cut)));
  }
  std::printf("# arena: n=%u tau=%llu sample=%.3fs save=%.3fs "
              "cold_load=%.3fs warm_load=%.3fs verify=%.3fs sweep=%.3fs\n",
              n, static_cast<unsigned long long>(tau), sample_seconds,
              save_seconds, cold_load_seconds, warm_load_seconds,
              verify_seconds, sweep_seconds);

  const std::vector<Query> queries =
      MakeWorkload(num_queries, n, options.seed);
  std::vector<double> reference;
  std::vector<VertexId> topk_reference;
  std::vector<BackendRecord> records;
  std::string backends_json;
  TextTable table({"backend", "storage bytes", "arena bytes",
                   "resident bytes", "ratio vs flat", "p50 µs", "p99 µs"});
  const store::ArenaBackend backends[] = {store::ArenaBackend::kFlat,
                                          store::ArenaBackend::kCompressed,
                                          store::ArenaBackend::kMmap};
  std::uint64_t flat_storage_bytes = 0;
  for (store::ArenaBackend backend : backends) {
    // Each backend serves its own copy of the reloaded arena, converted
    // in place; the flat pass serves the reloaded arena as-is.
    auto arena = std::make_shared<RrArena>(*flat_arena);
    if (backend != store::ArenaBackend::kFlat) {
      store::StorageOptions storage;
      storage.backend = backend;
      storage.spill_dir = store_dir;
      Status converted = arena->ConvertStorage(storage);
      if (!converted.ok()) return ExitWithError(converted);
    }
    BackendRecord record;
    record.name = store::ArenaBackendName(backend);
    record.storage_bytes = arena->storage().MemoryBytes();
    record.memory_bytes = arena->MemoryBytes();
    serve::QueryView view(arena, tau);
    RunQueries(view, queries, &reference, &record);
    if (topk > 0) {
      serve::TopKResult top = view.TopK(topk);
      if (topk_reference.empty()) {
        topk_reference = top.seeds;
      } else {
        SOLDIST_CHECK(top.seeds == topk_reference)
            << record.name << ": TopK seeds differ from the flat reference";
      }
    }
    record.resident_bytes = arena->ResidentBytes();
    const store::StorageStats stats = arena->storage_stats();
    const std::uint64_t probes = stats.hot_hits + stats.hot_misses;
    record.hot_hit_rate =
        probes == 0 ? 0.0
                    : static_cast<double>(stats.hot_hits) /
                          static_cast<double>(probes);
    record.chunk_loads = stats.chunk_loads;
    if (backend == store::ArenaBackend::kFlat) {
      flat_storage_bytes = record.storage_bytes;
    }
    records.push_back(record);
    table.AddRow({record.name, WithThousands(record.storage_bytes),
                  WithThousands(record.memory_bytes),
                  WithThousands(record.resident_bytes),
                  FormatDouble(static_cast<double>(flat_storage_bytes) /
                                   static_cast<double>(std::max<std::uint64_t>(
                                       1, record.storage_bytes)),
                               2),
                  FormatDouble(record.p50_us, 2),
                  FormatDouble(record.p99_us, 2)});
    JsonObject entry;
    entry.Str("backend", record.name)
        .UInt("storage_bytes", record.storage_bytes)
        .UInt("arena_bytes", record.memory_bytes)
        .UInt("resident_bytes", record.resident_bytes)
        .Real("p50_us", record.p50_us)
        .Real("p99_us", record.p99_us)
        .Real("hot_hit_rate", record.hot_hit_rate)
        .UInt("chunk_loads", record.chunk_loads)
        .Bool("identical_to_reference", true);
    if (!backends_json.empty()) backends_json += ",";
    backends_json += entry.ToString();
  }
  PrintTable("storage backends over one reloaded arena (" +
                 WithThousands(num_queries) +
                 " point queries each; answers + TopK CHECKed identical)",
             table);

  const double ratio =
      static_cast<double>(records[0].storage_bytes) /
      static_cast<double>(std::max<std::uint64_t>(1, records[1].storage_bytes));
  JsonObject summary;
  summary.Str("bench", "arena_store")
      .Str("network", network)
      .Str("prob", ProbabilityModelName(prob.value()))
      .UInt("seed", options.seed)
      .UInt("tau", tau)
      .UInt("n", n)
      .UInt("queries", num_queries)
      .Real("sample_seconds", sample_seconds)
      .Real("save_seconds", save_seconds)
      .Real("cold_load_seconds", cold_load_seconds)
      .Real("warm_load_seconds", warm_load_seconds)
      .Real("verify_seconds", verify_seconds)
      .Real("recovery_sweep_seconds", sweep_seconds)
      .Real("compression_ratio", ratio)
      .Bool("reload_byte_identical", true)
      .UIntArray("topk_seeds", topk_reference)
      .UInt("peak_rss_kb", PeakRssKb())
      .Raw("backends", "[" + backends_json + "]");
  const std::string json = summary.ToString();
  std::printf("%s\n", json.c_str());
  const std::string json_out = args.GetString("json-out");
  if (!json_out.empty()) {
    std::FILE* f = std::fopen(json_out.c_str(), "w");
    if (f == nullptr) {
      return ExitWithError(
          Status::Internal("cannot write --json-out " + json_out));
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
    std::fprintf(stderr, "wrote %s\n", json_out.c_str());
  }
  if (check_ratio > 0.0 && ratio < check_ratio) {
    std::fprintf(stderr,
                 "FAIL: compressed storage ratio %.2fx is below the "
                 "required %.2fx\n",
                 ratio, check_ratio);
    return 1;
  }
  if (check_ratio > 0.0) {
    std::fprintf(stderr, "ratio gate passed: %.2fx >= %.2fx\n", ratio,
                 check_ratio);
  }
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
