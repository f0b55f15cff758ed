// The shared arena substrate: the prefix-closed sampled-store contract
// that RrArena (RR sets) and SnapshotArena (condensed sampled worlds)
// both implement.
//
// An arena samples ONCE at the largest sample number of a ladder under a
// prefix-closed stream discipline, so the first τ of its capacity are
// byte-identical to a direct τ-sized build. Everything after the build is
// const: any number of threads may serve prefix views concurrently, a
// byte-budgeted cache (serve/ArenaCache) can hold arenas of either kind
// behind one key space, and per-prefix sampling cost is exactly
// attributable through a cumulative counter table.
//
// The base keeps the hot accessors (capacity / num_vertices /
// PrefixCounters) non-virtual over protected data; only identity
// (kind) and accounting (MemoryBytes / ResidentBytes) dispatch virtually.

#ifndef SOLDIST_SIM_WORLD_ARENA_H_
#define SOLDIST_SIM_WORLD_ARENA_H_

#include <cstdint>
#include <vector>

#include "graph/types.h"
#include "sim/counters.h"
#include "util/logging.h"

namespace soldist {

/// \brief What a WorldArena stores — RR sets or sampled snapshot worlds.
/// Carried in cache keys so the two kinds never alias.
enum class ArenaKind { kRr, kSnapshot };

const char* ArenaKindName(ArenaKind kind);

/// \brief Cumulative per-sample traversal counters: Prefix(i) is exactly
/// the cost a direct build of the first i samples would have accumulated,
/// making reuse-on sweeps report the same per-cell counters as reuse-off.
class PrefixCounterTable {
 public:
  PrefixCounterTable() { cum_.push_back(TraversalCounters{}); }

  void Reserve(std::uint64_t capacity) { cum_.reserve(capacity + 1); }

  /// Appends one sample's counter delta (running total stored).
  void Append(const TraversalCounters& delta) {
    TraversalCounters next = cum_.back();
    next += delta;
    cum_.push_back(next);
  }

  /// Number of samples recorded.
  std::uint64_t size() const {
    return static_cast<std::uint64_t>(cum_.size()) - 1;
  }

  /// Exact counters of the first `count` samples.
  TraversalCounters Prefix(std::uint64_t count) const {
    SOLDIST_DCHECK(count < cum_.size());
    return cum_[count];
  }

  std::uint64_t MemoryBytes() const {
    return cum_.size() * sizeof(TraversalCounters);
  }

 private:
  std::vector<TraversalCounters> cum_;  // size() + 1 running totals
};

/// \brief Abstract immutable sampled-store: `capacity()` prefix-closed
/// samples over `num_vertices()` vertices with exact prefix cost
/// attribution. Derived classes add their payload (flat RR sets +
/// inverted index, or condensed per-world DAGs) and their own sampling
/// constructors.
class WorldArena {
 public:
  virtual ~WorldArena() = default;

  virtual ArenaKind kind() const = 0;

  /// Logical heap bytes of all arena payloads.
  virtual std::uint64_t MemoryBytes() const = 0;

  /// Bytes actually occupying RAM right now — what serve/ArenaCache
  /// budgets against, so a spilled (store::MmapSpillStorage) arena is
  /// charged its resident chunks, not its logical footprint. Defaults to
  /// MemoryBytes() for fully-resident arenas.
  virtual std::uint64_t ResidentBytes() const { return MemoryBytes(); }

  /// Checksum of the LOGICAL content (the answers the arena can give),
  /// not the physical representation: the same sampled data hashes
  /// identically across storage backends (flat / compressed / mmap) and
  /// across save/load round-trips. The background scrubber records it
  /// at admission and recomputes it later — a mismatch means the
  /// resident arena rotted and must be evicted, never served. Computed
  /// with util/checksum.h's Checksum64, the store/ payload checksum, over
  /// length-prefixed content vectors.
  virtual std::uint64_t ContentChecksum() const = 0;

  std::uint64_t capacity() const { return counters_.size(); }
  VertexId num_vertices() const { return num_vertices_; }

  /// Exact traversal/sample counters of the first `count` samples — equal
  /// to the counters a direct build at `count` would have accumulated.
  TraversalCounters PrefixCounters(std::uint64_t count) const {
    return counters_.Prefix(count);
  }

 protected:
  WorldArena() = default;
  // The virtual destructor suppresses implicit moves; restore them so
  // derived arenas stay cheap value types.
  WorldArena(const WorldArena&) = default;
  WorldArena(WorldArena&&) = default;
  WorldArena& operator=(const WorldArena&) = default;
  WorldArena& operator=(WorldArena&&) = default;

  VertexId num_vertices_ = 0;
  PrefixCounterTable counters_;
};

}  // namespace soldist

#endif  // SOLDIST_SIM_WORLD_ARENA_H_
