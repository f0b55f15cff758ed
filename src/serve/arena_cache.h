// Byte-budgeted world-arena cache: the serving layer's answer to the
// paper's Section 7 concern that sample storage is the binding
// constraint at scale. The cache keeps at most `budget_bytes` of
// WorldArena::ResidentBytes resident (LRU eviction above it) — backends
// that spill or compress (store/arena_storage.h) are charged what they
// actually hold in RAM, not their logical footprint, so a spilled arena
// never evicts live flat arenas prematurely. RR-set arenas and
// condensed-snapshot arenas share the one budget, keyed by
// strings that carry the arena kind — and rebuilds evicted arenas on
// demand: a correct trade because arena content is a PURE FUNCTION of
// its cache key: the prefix-closed sampling streams (sim/rr_arena.h,
// sim/snapshot_arena.h) make a rebuild byte-identical to the evicted
// original, so eviction costs latency, never answers.
//
// Concurrency: slot lookup/insert and byte accounting run under one
// mutex; the arena build itself runs OUTSIDE it, serialized per key by
// std::call_once on the entry's Slot — concurrent requests for the same
// key build once and share, concurrent requests for different keys
// build in parallel. Returned shared_ptrs keep an arena alive for as
// long as any view holds it, so eviction never invalidates an in-flight
// query.

#ifndef SOLDIST_SERVE_ARENA_CACHE_H_
#define SOLDIST_SERVE_ARENA_CACHE_H_

#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "sim/world_arena.h"

namespace soldist {
namespace serve {

/// \brief LRU arena cache with a byte budget and always-admit policy.
///
/// Admission always succeeds (the freshly requested arena is never the
/// eviction victim), so a single arena larger than the whole budget
/// still serves — the cache degrades to hold-one instead of failing.
///
/// The cache stores arenas through the WorldArena base: the KEY decides
/// what concrete arena a builder produces (QueryService prefixes every
/// key with ArenaKindName), so a caller that minted a key knows the
/// concrete type behind it and may static-cast the returned pointer.
class ArenaCache {
 public:
  /// \param budget_bytes total WorldArena::ResidentBytes the cache may
  /// keep resident; 0 = unlimited (never evicts).
  explicit ArenaCache(std::uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  ArenaCache(const ArenaCache&) = delete;
  ArenaCache& operator=(const ArenaCache&) = delete;

  /// A cached arena, co-owned by every view minted from it.
  using ArenaPtr = std::shared_ptr<const WorldArena>;

  /// Builds the arena for one key; receives the capacity to sample at.
  /// Must return non-null with capacity() >= 1. A builder MAY come back
  /// short (capacity() < requested) when its build was cancelled at a
  /// deadline — the cache then admits the arena at its ACTUAL capacity
  /// and marks the entry partial, so later requests at the full τ see a
  /// miss (upgrade) rather than a silent short answer.
  using Builder = std::function<ArenaPtr(std::uint64_t capacity)>;

  /// Returns the cached arena for `key` with capacity >= `min_capacity`,
  /// invoking `build(capacity)` on a miss. A cached arena with a SMALLER
  /// capacity is upgraded: it is retired (in-flight views keep it alive)
  /// and a fresh arena is built at `min_capacity` — byte-identical on
  /// the shared prefix, so answers never change across the upgrade.
  /// NOTE: the returned arena can be SMALLER than `min_capacity` when
  /// the builder was cancelled (see Builder) — callers that care must
  /// check capacity() and degrade explicitly.
  ArenaPtr GetOrBuild(const std::string& key, std::uint64_t min_capacity,
                      const Builder& build);

  /// Hit-only lookup: the resident arena for `key` iff it is fully
  /// built, accounted, and has capacity >= `min_capacity`. Never builds,
  /// never blocks on another thread's build. Counts as a hit when it
  /// serves; a miss leaves every counter untouched.
  ArenaPtr TryGet(const std::string& key, std::uint64_t min_capacity);

  /// The largest already-resident arena for `key` at ANY capacity
  /// (including a partial prefix admitted by a cancelled build), or null.
  /// This is the degraded-answer source: when a deadline or shed stops a
  /// fresh build, the service answers from whatever τ prefix is already
  /// resident. Touches the LRU but no hit/build counters.
  ArenaPtr LookupResident(const std::string& key);

  /// One fully-built resident entry as the scrubber sees it: the arena
  /// plus the ContentChecksum recorded when the build was admitted.
  struct ResidentEntry {
    std::string key;
    ArenaPtr arena;
    std::uint64_t admitted_checksum = 0;
  };

  /// Snapshot of every accounted entry in key order. Touches no LRU
  /// state and no counters — a scrub pass must not perturb eviction.
  std::vector<ResidentEntry> ResidentEntries() const;

  /// Forcibly drops `key` (scrubber: the resident arena no longer
  /// hashes to its admitted checksum — it rotted in RAM and must never
  /// be served again). Charged bytes are refunded exactly; in-flight
  /// views keep the arena alive but the next request rebuilds from the
  /// key, byte-identically to the original. Returns false when the key
  /// is not resident (already evicted/upgraded — not an error).
  bool Invalidate(const std::string& key);

  /// Counters for tests/benches and the CLI's `stats` query.
  struct Stats {
    std::uint64_t hits = 0;        ///< served from a resident arena
    std::uint64_t builds = 0;      ///< arena builds (misses + upgrades)
    std::uint64_t evictions = 0;   ///< budget-driven LRU removals
    std::uint64_t resident_arenas = 0;
    /// Charged ResidentBytes (what counts against the budget).
    std::uint64_t resident_bytes = 0;
    /// Logical MemoryBytes of the same arenas — the gap to
    /// resident_bytes is what compression/spilling saved.
    std::uint64_t total_bytes = 0;
    std::uint64_t budget_bytes = 0;
    /// Resident entries admitted below their requested τ (cancelled
    /// builds serving as degraded prefixes).
    std::uint64_t partial_arenas = 0;
    /// Entries force-dropped by Invalidate (scrubber-detected rot).
    std::uint64_t invalidations = 0;
  };
  Stats stats() const;

 private:
  /// One cache entry's build state: capacity is fixed at slot creation,
  /// the arena materializes exactly once via `once`.
  struct Slot {
    std::once_flag once;
    ArenaPtr arena;
    std::uint64_t capacity = 0;
    /// ContentChecksum taken right after the build, inside the
    /// once-section (outside mu_) — the scrubber's reference value.
    std::uint64_t checksum = 0;
    /// ResidentBytes snapshotted BEFORE the checksum walk: hashing a
    /// spilling backend faults chunks and warms hot lists, so charging
    /// must use the as-built residency, not the post-walk one.
    std::uint64_t admitted_resident_bytes = 0;
  };

  struct Entry {
    std::shared_ptr<Slot> slot;
    std::list<std::string>::iterator lru_pos;
    /// Bytes are only known after the build completes; `accounted`
    /// guards double-counting and marks the entry evictable.
    bool accounted = false;
    /// The ResidentBytes value charged at accounting time. Residency can
    /// drift afterwards (mmap chunk churn, hot-list warmup), so eviction
    /// refunds exactly what was charged to keep the ledger consistent.
    std::uint64_t charged_bytes = 0;
    /// True when the build came back short of its requested capacity
    /// (deadline-cancelled). Eviction under pressure prefers FULL
    /// arenas: a full arena rebuilds from its key byte-identically and
    /// eviction genuinely frees its RAM, while a partial prefix is
    /// typically freshly admitted with live degraded views still
    /// pointing at it — evicting it refunds the ledger but frees
    /// nothing until those views drain, and the next degraded request
    /// would find no prefix to serve from.
    bool partial = false;
  };

  /// Drops accounted LRU-tail entries (never `keep`) while over budget,
  /// preferring full (non-partial) victims; partial prefixes go only
  /// when no full victim remains.
  void EvictOverBudgetLocked(const std::string& keep);

  const std::uint64_t budget_bytes_;
  mutable std::mutex mu_;
  std::list<std::string> lru_;  ///< front = most recently used
  std::map<std::string, Entry> entries_;
  std::uint64_t hits_ = 0;
  std::uint64_t builds_ = 0;
  std::uint64_t evictions_ = 0;
  std::uint64_t invalidations_ = 0;
  std::uint64_t resident_bytes_ = 0;
};

}  // namespace serve
}  // namespace soldist

#endif  // SOLDIST_SERVE_ARENA_CACHE_H_
