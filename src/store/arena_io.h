// Session-lifetime arena persistence: a versioned on-disk format so
// api::Session, the shared oracle, benches and the --query REPL reuse ONE
// sampled arena across processes instead of resampling 10^5-10^7 RR sets
// each (ISSUE 8).
//
// Layout of an arena directory:
//
//   <dir>/manifest.txt   key=value identity + integrity record:
//                        format_version, kind (rr|snapshot), workload
//                        label, seed, stream ("engine/<chunk>": the
//                        chunk size of the sampling streams), capacity,
//                        num_vertices, payload_bytes, checksum
//                        (util/checksum.h's Checksum64 over the payload
//                        file).
//   <dir>/payload.bin    binary payload. Starts with a u64 magic that
//                        reads back wrong on an opposite-endian machine
//                        (endianness guard), then version/kind/shape,
//                        then the kind-specific sections. RR arenas
//                        persist the flat set array + per-set offsets +
//                        per-set counter deltas (the inverted index is
//                        rebuilt deterministically on load, halving the
//                        file); Snapshot arenas persist each condensed
//                        world, its warmth (saved, not recomputed — the
//                        loader has no InfluenceGraph) and the deltas.
//
// A load reads the payload once: each section lands straight in the
// vector it fills (small fields through one fixed block) and is hashed
// as it lands. Parsing may run ahead of the digest only because no
// length read from the file can size anything past the bytes left in
// it; the verdicts keep one order — payload size against the manifest,
// digest, header (magic, version, kind, shape, a capacity the file can
// hold), structure — so each kind of damage fails with one status code.
//
// Crash consistency: both files are written through a `*.tmp` +
// atomic-rename protocol (write tmp, fsync, rename, fsync dir), payload
// committed before manifest — the manifest rename is the commit point
// of the whole save. A process killed at ANY point mid-save therefore
// leaves either (a) `*.tmp` debris and/or a payload without a manifest
// (both cleaned unambiguously by store/recovery) reading as kNotFound,
// or (b) the complete entry — never a half-entry under final names.
// ctest crash_recovery_test forks a child per crash-at boundary and
// proves the reload is byte-identical or a clean miss.
//
// Everything fallible returns Status: a corrupted, truncated,
// wrong-version, wrong-endian or identity-mismatched file is a load
// MISS the caller falls back from (resample + save), never an abort —
// ctest arena_store_test drives each failure mode.
//
// Determinism contract: Save(Load(x)) == x and Load(Save(arena)) serves
// byte-identical queries to `arena` at every prefix cut, because the
// payload IS the sampled bytes (no re-encoding) and the index rebuild is
// the same counting sort as the original build.

#ifndef SOLDIST_STORE_ARENA_IO_H_
#define SOLDIST_STORE_ARENA_IO_H_

#include <cstdint>
#include <memory>
#include <string>

#include "sim/rr_arena.h"
#include "sim/snapshot_arena.h"
#include "util/status.h"

namespace soldist {
namespace store {

/// Bump when the payload layout or its checksum changes; older files
/// load as kFailedPrecondition (callers resample). Version 2 replaced
/// version 1's byte-at-a-time FNV-1a checksum with Checksum64; the
/// payload bytes are unchanged.
inline constexpr std::uint32_t kArenaFormatVersion = 2;

/// \brief The identity + integrity record of a persisted arena. The
/// identity fields (kind, workload, seed, stream) say WHAT was sampled;
/// a load only proceeds when they match the request exactly and the
/// saved capacity covers the requested one.
struct ArenaManifest {
  std::uint32_t version = kArenaFormatVersion;
  std::string kind;      // "rr" | "snapshot"
  std::string workload;  // workload label (network/prob/model key)
  std::uint64_t seed = 0;
  std::string stream;    // "engine/<chunk_size>"
  std::uint64_t capacity = 0;
  std::uint64_t num_vertices = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t checksum = 0;  // Checksum64 of payload.bin
};

/// Parses `<dir>/manifest.txt`; kNotFound when absent.
StatusOr<ArenaManifest> ReadArenaManifest(const std::string& dir);

/// Integrity check of a persisted arena entry WITHOUT materializing it:
/// manifest present and well-formed, format version current, kind
/// known, payload present with the manifest's exact size, whole-file
/// Checksum64 (hashed in fixed-size blocks, never holding the file),
/// and a consistent binary header whose capacity the file can hold —
/// the checks a load makes before it looks at structure. kNotFound when the
/// directory holds no manifest (debris, not corruption); any other
/// non-OK Status names what is broken. Used by the startup recovery
/// sweep, the background scrubber, and soldist_fsck.
Status VerifyArena(const std::string& dir);

/// Persists a FLAT RR arena (kFailedPrecondition otherwise — save before
/// ConvertStorage). `manifest` supplies the identity fields (workload,
/// seed, stream); shape, checksum and version are filled in here. The
/// payload is written before the manifest, so a crash mid-save leaves a
/// directory that reads as kNotFound, not as a corrupt hit.
Status SaveRrArena(const RrArena& arena, ArenaManifest manifest,
                   const std::string& dir);

/// Loads an RR arena whose manifest matches `expected`'s identity fields
/// and has capacity >= expected.capacity. Always returns a flat arena
/// (convert afterwards); byte-identical to the arena that was saved.
StatusOr<std::shared_ptr<RrArena>> LoadRrArena(const std::string& dir,
                                               const ArenaManifest& expected);

Status SaveSnapshotArena(const SnapshotArena& arena, ArenaManifest manifest,
                         const std::string& dir);

StatusOr<std::shared_ptr<SnapshotArena>> LoadSnapshotArena(
    const std::string& dir, const ArenaManifest& expected);

}  // namespace store
}  // namespace soldist

#endif  // SOLDIST_STORE_ARENA_IO_H_
