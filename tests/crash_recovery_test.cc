// Crash consistency of the arena store: a fork-based crash
// matrix proves that killing the saving process at EVERY injected crash
// point (`crash-at=<boundary>:<n>`, store/fault_injection.h) leaves a
// directory from which the startup sweep (store/recovery.h) recovers to
// exactly one of two states — a byte-identical reload or a clean
// NotFound miss. Never a wrong answer, never an abort, never leftover
// debris. Plus the sweep's classification contract on hand-built trees
// (tmp debris, orphan payloads, corrupt entries, foreign dirs) and its
// idempotence.

#include <gtest/gtest.h>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_arena.h"
#include "store/arena_io.h"
#include "store/fault_injection.h"
#include "store/recovery.h"
#include "util/status.h"

namespace soldist {
namespace {

namespace fs = std::filesystem;

InfluenceGraph KarateUc01() {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Karate());
  return MakeInfluenceGraph(std::move(g), ProbabilityModel::kUc01);
}

SamplingOptions Threads(int num_threads, std::uint64_t chunk_size) {
  SamplingOptions options;
  options.num_threads = num_threads;
  options.chunk_size = chunk_size;
  return options;
}

/// A fresh (removed-if-present) directory under the test temp root.
std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/crash_recovery_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

store::ArenaManifest Manifest(std::string kind, std::uint64_t seed,
                              std::string stream, std::uint64_t capacity) {
  store::ArenaManifest manifest;
  manifest.kind = std::move(kind);
  manifest.workload = "Karate/uc0.1";
  manifest.seed = seed;
  manifest.stream = std::move(stream);
  manifest.capacity = capacity;
  return manifest;
}

bool TreeHasTmpFiles(const std::string& root) {
  std::error_code ec;
  for (auto it = fs::recursive_directory_iterator(root, ec);
       it != fs::recursive_directory_iterator(); ++it) {
    if (it->path().filename().string().ends_with(".tmp")) return true;
  }
  return false;
}

/// The crash points a SaveArena can hit. n runs past the real occurrence
/// count on purpose: an unreached crash point must mean a completed,
/// reloadable save.
struct CrashPoint {
  const char* boundary;
  int n;
};

std::vector<CrashPoint> CrashMatrix() {
  std::vector<CrashPoint> points;
  for (const char* boundary : {"open", "write", "sync", "rename"}) {
    for (int n = 1; n <= 4; ++n) points.push_back({boundary, n});
  }
  return points;
}

/// Child exit codes besides store::kCrashExitCode (42 = intended crash).
constexpr int kChildSavedOk = 0;
constexpr int kChildSaveFailed = 3;

/// Forks, crashes the child at `point` mid-save via `save`, and checks
/// the invariant in the parent: after the recovery sweep the entry
/// either reloads byte-identically (checksum + shape via `load`) or
/// misses with a clean kNotFound — and the sweep is idempotent.
template <typename SaveFn, typename LoadCheckFn>
void RunCrashCase(const std::string& label, const CrashPoint& point,
                  SaveFn save, LoadCheckFn load_check) {
  SCOPED_TRACE(label + " crash-at=" + point.boundary + ":" +
               std::to_string(point.n));
  const std::string root = FreshDir(label + "_" + point.boundary + "_" +
                                    std::to_string(point.n));
  const std::string entry = root + "/entry";
  ASSERT_TRUE(fs::create_directories(root));

  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    // Child: arm the crash point and save. No gtest machinery, no
    // stdio, no return — _exit only, so a non-crashing path cannot
    // flush duplicated parent buffers or run atexit handlers.
    const std::string spec = std::string("crash-at=") + point.boundary +
                             ":" + std::to_string(point.n);
    if (!store::InstallFaultInjector(spec).ok()) ::_exit(kChildSaveFailed);
    const Status saved = save(entry);
    ::_exit(saved.ok() ? kChildSavedOk : kChildSaveFailed);
  }

  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus)) << "child died abnormally";
  const int code = WEXITSTATUS(wstatus);
  ASSERT_TRUE(code == kChildSavedOk || code == store::kCrashExitCode)
      << "child exit code " << code
      << " — with only a crash point armed, SaveArena must either "
         "complete or die at the injected _exit";

  // Startup sweep over the crash site, then the only-two-outcomes check.
  StatusOr<store::RecoveryReport> swept = store::RecoverArenaDir(root);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_FALSE(TreeHasTmpFiles(root)) << "sweep left tmp debris";
  const bool reloadable = load_check(entry);
  if (code == kChildSavedOk) {
    EXPECT_TRUE(reloadable)
        << "save reported success but the entry does not reload";
  }

  // Idempotence: a second sweep finds nothing left to do.
  StatusOr<store::RecoveryReport> again = store::RecoverArenaDir(root);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again.value().cleaned_tmp_files, 0u);
  EXPECT_EQ(again.value().orphaned_payloads, 0u);
  EXPECT_EQ(again.value().quarantined_entries, 0u);
  EXPECT_EQ(again.value().sweep_errors, 0u);
}

TEST(CrashMatrixTest, RrArenaEveryCrashPoint) {
  InfluenceGraph ig = KarateUc01();
  // The engine pool is private to Sample and its threads are joined
  // before any fork below.
  const RrArena arena = RrArena::SampleIc(ig, 7, 48, Threads(2, 16));
  const std::uint64_t want_checksum = arena.ContentChecksum();
  const store::ArenaManifest manifest = Manifest("rr", 7, "engine/16", 48);
  for (const CrashPoint& point : CrashMatrix()) {
    RunCrashCase(
        "rr", point,
        [&](const std::string& dir) {
          return store::SaveRrArena(arena, manifest, dir);
        },
        [&](const std::string& dir) {
          auto loaded = store::LoadRrArena(dir, manifest);
          if (!loaded.ok()) {
            EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
                << loaded.status().ToString()
                << " — a crashed save must be a clean miss, not a "
                   "corrupt read";
            return false;
          }
          EXPECT_EQ(loaded.value()->ContentChecksum(), want_checksum);
          EXPECT_EQ(loaded.value()->capacity(), arena.capacity());
          EXPECT_EQ(loaded.value()->total_entries(), arena.total_entries());
          return true;
        });
  }
}

TEST(CrashMatrixTest, SnapshotArenaEveryCrashPoint) {
  InfluenceGraph ig = KarateUc01();
  const SnapshotArena arena =
      SnapshotArena::Sample(ig, 11, 24, Threads(2, 16));
  const std::uint64_t want_checksum = arena.ContentChecksum();
  const store::ArenaManifest manifest =
      Manifest("snapshot", 11, "engine/16", 24);
  for (const CrashPoint& point : CrashMatrix()) {
    RunCrashCase(
        "snap", point,
        [&](const std::string& dir) {
          return store::SaveSnapshotArena(arena, manifest, dir);
        },
        [&](const std::string& dir) {
          auto loaded = store::LoadSnapshotArena(dir, manifest);
          if (!loaded.ok()) {
            EXPECT_EQ(loaded.status().code(), StatusCode::kNotFound)
                << loaded.status().ToString();
            return false;
          }
          EXPECT_EQ(loaded.value()->ContentChecksum(), want_checksum);
          EXPECT_EQ(loaded.value()->capacity(), arena.capacity());
          return true;
        });
  }
}

// ---------------------------------------------------------------------
// The crash-at clause itself: grammar, per-boundary counting, exit path.
// ---------------------------------------------------------------------

TEST(CrashSpecTest, ParsesAndRoundTrips) {
  auto spec = store::FaultSpec::Parse("crash-at=rename:2");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_EQ(spec.value().crash_at_op, store::FaultOp::kRename);
  EXPECT_EQ(spec.value().crash_at_n, 2u);
  EXPECT_TRUE(spec.value().Enabled());
  auto round = store::FaultSpec::Parse(spec.value().ToString());
  ASSERT_TRUE(round.ok()) << round.status().ToString();
  EXPECT_EQ(round.value().crash_at_op, store::FaultOp::kRename);
  EXPECT_EQ(round.value().crash_at_n, 2u);
}

TEST(CrashSpecTest, RejectsBadBoundaryAndBadCount) {
  EXPECT_FALSE(store::FaultSpec::Parse("crash-at=flush:1").ok());
  EXPECT_FALSE(store::FaultSpec::Parse("crash-at=write:0").ok());
  EXPECT_FALSE(store::FaultSpec::Parse("crash-at=write").ok());
}

TEST(CrashSpecTest, CountsOccurrencesPerBoundaryNotGlobally) {
  // sync:1 must survive any number of preceding writes; only the fork
  // child actually reaches the _exit.
  const pid_t pid = fork();
  ASSERT_GE(pid, 0);
  if (pid == 0) {
    if (!store::InstallFaultInjector("crash-at=sync:1").ok()) ::_exit(3);
    store::FaultInjector* injector = store::fault_injector();
    for (int i = 0; i < 5; ++i) {
      if (!injector->Check(store::FaultOp::kWrite, "payload").ok()) {
        ::_exit(4);
      }
    }
    (void)injector->Check(store::FaultOp::kSync, "payload");
    ::_exit(5);  // unreachable: the sync check must have killed us
  }
  int wstatus = 0;
  ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
  ASSERT_TRUE(WIFEXITED(wstatus));
  EXPECT_EQ(WEXITSTATUS(wstatus), store::kCrashExitCode);
}

// ---------------------------------------------------------------------
// Recovery sweep classification on hand-built trees.
// ---------------------------------------------------------------------

TEST(RecoverySweepTest, ClassifiesDebrisOrphansCorruptionAndForeign) {
  InfluenceGraph ig = KarateUc01();
  const RrArena arena = RrArena::SampleIc(ig, 7, 32, Threads(1, 64));
  const store::ArenaManifest manifest = Manifest("rr", 7, "engine/64", 32);
  const std::string root = FreshDir("classify");
  ASSERT_TRUE(fs::create_directories(root));

  // healthy: a real committed entry.
  ASSERT_TRUE(store::SaveRrArena(arena, manifest, root + "/healthy").ok());
  // corrupt: committed, then the payload is truncated behind its back.
  ASSERT_TRUE(store::SaveRrArena(arena, manifest, root + "/corrupt").ok());
  fs::resize_file(root + "/corrupt/payload.bin", 8);
  // orphan: a payload without a manifest (crash between the two commits).
  ASSERT_TRUE(fs::create_directories(root + "/orphan"));
  std::ofstream(root + "/orphan/payload.bin") << "stale";
  // tmp debris at the root and inside an entry.
  std::ofstream(root + "/payload.bin.tmp") << "partial";
  std::ofstream(root + "/healthy/manifest.json.tmp") << "partial";
  // foreign: a directory that is not an arena entry at all.
  ASSERT_TRUE(fs::create_directories(root + "/foreign"));
  std::ofstream(root + "/foreign/notes.txt") << "hands off";

  StatusOr<store::RecoveryReport> swept = store::RecoverArenaDir(root);
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  const store::RecoveryReport& report = swept.value();
  EXPECT_EQ(report.cleaned_tmp_files, 2u);
  EXPECT_EQ(report.orphaned_payloads, 1u);
  EXPECT_EQ(report.quarantined_entries, 1u);
  EXPECT_EQ(report.sweep_errors, 0u);
  EXPECT_FALSE(report.Clean());

  // The healthy entry still loads; the corrupt one is a clean miss in
  // quarantine; the foreign dir was not touched.
  auto loaded = store::LoadRrArena(root + "/healthy", manifest);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value()->ContentChecksum(), arena.ContentChecksum());
  EXPECT_EQ(store::LoadRrArena(root + "/corrupt", manifest).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(fs::exists(root + "/quarantine"));
  EXPECT_TRUE(fs::exists(root + "/foreign/notes.txt"));
  EXPECT_FALSE(TreeHasTmpFiles(root + "/healthy"));

  // Second sweep: nothing left to do (the report is clean).
  StatusOr<store::RecoveryReport> again = store::RecoverArenaDir(root);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_TRUE(again.value().Clean());
}

TEST(RecoverySweepTest, MissingRootIsCleanNoop) {
  StatusOr<store::RecoveryReport> swept =
      store::RecoverArenaDir(FreshDir("never_created"));
  ASSERT_TRUE(swept.ok()) << swept.status().ToString();
  EXPECT_TRUE(swept.value().Clean());
  EXPECT_EQ(swept.value().scanned_entries, 0u);
}

}  // namespace
}  // namespace soldist
