// Memory ablation: RR-set compression (paper Section 7's space-reduction
// direction). Samples θ RR sets per instance into an RrArena and compares
// its flat layout against the same arena re-homed into the delta+varint
// compressed storage backend, verifying query equivalence as it goes.

#include <algorithm>

#include "bench_common.h"
#include "core/snapshot.h"
#include "sim/rr_arena.h"
#include "store/arena_storage.h"
#include "util/csv.h"
#include "util/string_util.h"

namespace soldist {
namespace {

int Run(int argc, const char* const* argv) {
  ArgParser args("ablation_memory",
                 "RR-set compression ablation: plain vs delta+varint "
                 "storage (paper Section 7 future-work direction).");
  AddExperimentFlags(&args);
  args.AddInt64("theta", 1 << 16, "RR sets per instance");
  args.AddInt64("snapshot-tau", 512,
                "snapshots per estimator in the Snapshot-storage section");
  args.AddInt64("arena-theta", 2048,
                "RR sets per arena in the storage-backend section (kept "
                "below --theta: uc0.1 percolates the denser networks)");
  args.AddString("networks", "Karate,Physicians,ca-GrQc,Wiki-Vote,BA_d",
                 "networks to run");
  int exit_code = 0;
  ExperimentOptions options;
  if (ShouldExitAfterParse(&args, argc, argv, &exit_code, &options)) {
    return exit_code;
  }
  RequireIcModel(options, "ablation_memory");
  PrintBanner("RR-set compression ablation", options);

  ExperimentContext context(options);
  auto theta = static_cast<std::uint64_t>(args.GetInt64("theta"));
  TextTable table({"network", "setting", "θ", "entries", "plain bytes",
                   "compressed bytes", "ratio", "bytes/entry"});
  CsvWriter csv({"network", "setting", "theta", "entries", "plain_bytes",
                 "compressed_bytes"});

  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc001, ProbabilityModel::kIwc}) {
      const InfluenceGraph& ig = context.Instance(network, model);
      const RrArena plain =
          RrArena::SampleIc(ig, options.seed, theta, context.sampling());
      RrArena compressed = plain;
      store::StorageOptions compress_options;
      compress_options.backend = store::ArenaBackend::kCompressed;
      SOLDIST_CHECK(compressed.ConvertStorage(compress_options).ok());

      // Query equivalence spot check: this ablation must not trade
      // correctness for bytes. A vertex's inverted list is exactly the
      // RR sets its singleton seed set covers.
      Rng query_rng(options.seed + 2);
      store::StorageScratch scratch;
      for (int q = 0; q < 50; ++q) {
        const auto v =
            static_cast<VertexId>(query_rng.UniformInt(ig.num_vertices()));
        const std::span<const std::uint32_t> want = plain.InvertedAll(v);
        const std::span<const std::uint32_t> got =
            compressed.InvertedAll(v, &scratch);
        SOLDIST_CHECK(std::equal(want.begin(), want.end(), got.begin(),
                                 got.end()));
      }

      const std::uint64_t entries = plain.total_entries();
      const std::uint64_t plain_bytes = plain.storage().MemoryBytes();
      const std::uint64_t compressed_bytes =
          compressed.storage().MemoryBytes();
      table.AddRow(
          {network, ProbabilityModelName(model), FormatPowerOfTwo(theta),
           WithThousands(entries), WithThousands(plain_bytes),
           WithThousands(compressed_bytes),
           FormatDouble(static_cast<double>(compressed_bytes) /
                            static_cast<double>(plain_bytes),
                        3),
           FormatDouble(static_cast<double>(compressed_bytes) /
                            std::max<std::uint64_t>(1, entries),
                        2)});
      csv.Row()
          .Str(network)
          .Str(ProbabilityModelName(model))
          .UInt(theta)
          .UInt(entries)
          .UInt(plain_bytes)
          .UInt(compressed_bytes)
          .Done();
    }
  }
  PrintTable("RR-set storage: flat arena (4 B/set entry + 4 B/index entry) "
             "vs delta+varint compressed backend",
             table);

  // Snapshot estimator storage: full live-edge CSRs + O(n·τ) removal
  // bitmap (residual) vs SCC DAGs with component-granular state
  // (condensed). Scratch is sized per mode, so the condensed column is
  // the real resident footprint of a greedy run.
  auto snapshot_tau =
      static_cast<std::uint64_t>(args.GetInt64("snapshot-tau"));
  TextTable snap_table({"network", "setting", "τ", "residual bytes",
                        "condensed bytes", "ratio"});
  // uc0.1 percolates the denser networks (BA_d): large live components
  // are the regime where dropping the CSRs beats paying the component
  // maps — the ratio column is the honest, regime-dependent answer.
  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc01, ProbabilityModel::kIwc}) {
      const InfluenceGraph& ig = context.Instance(network, model);
      std::uint64_t bytes[2] = {0, 0};
      const SnapshotEstimator::Mode modes[2] = {
          SnapshotEstimator::Mode::kResidual,
          SnapshotEstimator::Mode::kCondensed};
      for (int i = 0; i < 2; ++i) {
        SnapshotEstimator estimator(ModelInstance::Ic(&ig), snapshot_tau,
                                    options.seed, modes[i]);
        estimator.Build();
        bytes[i] = estimator.MemoryBytes();
      }
      snap_table.AddRow(
          {network, ProbabilityModelName(model),
           FormatPowerOfTwo(snapshot_tau), WithThousands(bytes[0]),
           WithThousands(bytes[1]),
           FormatDouble(static_cast<double>(bytes[1]) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, bytes[0])),
                        3)});
    }
  }
  PrintTable("Snapshot estimator storage: residual (live-edge CSRs + n·τ "
             "removal bitmap) vs condensed (SCC DAGs, component-granular "
             "state)",
             snap_table);

  // Arena storage backends (store/): ONE sampled RrArena held through
  // each backend. The flat column is today's zero-copy layout; the
  // compressed column is the section-1 backend; the mmap column reports
  // RESIDENT
  // bytes (offsets + hot chunks), the number the serve-layer cache
  // budget actually charges. Every backend answers byte-identically, so
  // the columns are a pure memory trade.
  auto arena_theta =
      static_cast<std::uint64_t>(args.GetInt64("arena-theta"));
  TextTable backend_table({"network", "setting", "θ", "flat bytes",
                           "compressed bytes", "ratio", "mmap resident"});
  for (const std::string& network : Split(args.GetString("networks"), ',')) {
    for (ProbabilityModel model :
         {ProbabilityModel::kUc01, ProbabilityModel::kIwc}) {
      ModelInstance instance = context.Model(network, model);
      RrArena flat = RrArena::SampleFor(instance, options.seed, arena_theta,
                                        context.sampling());
      const std::uint64_t flat_bytes = flat.storage().MemoryBytes();
      RrArena compressed = flat;
      store::StorageOptions compress_options;
      compress_options.backend = store::ArenaBackend::kCompressed;
      SOLDIST_CHECK(compressed.ConvertStorage(compress_options).ok());
      RrArena mapped = flat;
      store::StorageOptions mmap_options;
      mmap_options.backend = store::ArenaBackend::kMmap;
      mmap_options.spill_dir = "/tmp/soldist-ablation-arena";
      SOLDIST_CHECK(mapped.ConvertStorage(mmap_options).ok());
      const std::uint64_t compressed_bytes =
          compressed.storage().MemoryBytes();
      backend_table.AddRow(
          {network, ProbabilityModelName(model),
           FormatPowerOfTwo(arena_theta),
           WithThousands(flat_bytes), WithThousands(compressed_bytes),
           FormatDouble(static_cast<double>(flat_bytes) /
                            static_cast<double>(std::max<std::uint64_t>(
                                1, compressed_bytes)),
                        3),
           WithThousands(mapped.ResidentBytes())});
    }
  }
  PrintTable("Arena storage backends (store/): flat vs delta+varint "
             "compressed vs mmap-spill resident footprint, byte-identical "
             "answers",
             backend_table);
  MaybeWriteCsv(csv, options.out_csv);
  ReportPeakRss();
  return 0;
}

}  // namespace
}  // namespace soldist

int main(int argc, char** argv) { return soldist::Run(argc, argv); }
