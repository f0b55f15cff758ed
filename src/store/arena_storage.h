// Pluggable storage backends for RR-set arenas (ISSUE 8 / ROADMAP
// "out-of-core arenas").
//
// An RrStorage owns the arena payload — the flat set array, the per-set
// offsets and the vertex-major inverted index — behind a uniform
// decode-into-scratch query API, so the arena's prefix-closed sampling
// contract is completely independent of how the bytes are held:
//
//   FlatStorage        today's word-packed layout, zero behavior change;
//                      queries return zero-copy spans into the payload.
//   CompressedStorage  the delta+varint encoding (the paper's Section 7
//                      RR-set compression question): sets are sorted, gap
//                      coded and LEB128 packed (~1-2 B/entry vs 8), the
//                      inverted index likewise; per-vertex lists decode on
//                      demand through a byte-budgeted hot-list LRU.
//   MmapSpillStorage   the same encoding spilled to a file under
//                      StorageOptions::spill_dir and mapped read-only;
//                      chunk-granular residency tracking with LRU
//                      madvise(MADV_DONTNEED) eviction keeps ResidentBytes
//                      bounded by resident_budget_bytes regardless of the
//                      logical MemoryBytes — the enabling layer for
//                      θ=2^24 grids and beyond-RAM networks.
//
// Two invariants every backend keeps:
//   * Inverted lists decode to EXACTLY the flat index (ascending set ids),
//     so prefix cuts, cover counts, CELF seeds and all query answers are
//     identical across backends (ctest arena_store_test proves it through
//     Solve/TopK/Spread).
//   * Sets decode with the same MEMBERSHIP as the flat layout; the
//     encoded backends return them sorted ascending (gap coding needs
//     monotone entries) while flat preserves traversal order. No query
//     path depends on intra-set order — coverage marks and cover-count
//     decrements are order-free — and the raw zero-copy accessors remain
//     flat-only.
//
// ResidentBytes() vs MemoryBytes(): MemoryBytes is the logical payload
// footprint (what a cache would charge if everything were in RAM);
// ResidentBytes is what actually occupies RAM right now (flat: equal;
// compressed: payload + hot-list cache; mmap: offsets + resident chunks +
// hot-list cache). serve::ArenaCache budgets against ResidentBytes so a
// spilled arena does not evict live flat arenas prematurely.

#ifndef SOLDIST_STORE_ARENA_STORAGE_H_
#define SOLDIST_STORE_ARENA_STORAGE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "graph/types.h"
#include "util/status.h"

namespace soldist {
namespace store {

/// \brief Which backend holds an arena's payload.
enum class ArenaBackend { kFlat, kCompressed, kMmap };

const char* ArenaBackendName(ArenaBackend backend);

/// Parses "flat" | "compressed" | "mmap" (the --arena-backend values).
StatusOr<ArenaBackend> ParseArenaBackend(const std::string& name);

/// \brief Backend selection plus the residency knobs of the out-of-core
/// backends. Copyable value type carried through SessionOptions.
struct StorageOptions {
  ArenaBackend backend = ArenaBackend::kFlat;

  /// Directory for spill files; REQUIRED for kMmap (Validate rejects an
  /// empty spill_dir rather than silently writing somewhere implicit).
  std::string spill_dir;

  /// Byte budget of the decoded per-vertex hot-list LRU shared by the
  /// compressed and mmap backends.
  std::uint64_t hot_list_bytes = 4ull << 20;

  /// Residency-tracking granule of the mmap backend: byte ranges are
  /// touched, accounted and evicted in chunks of this size.
  std::uint64_t resident_chunk_bytes = 256ull << 10;

  /// Mapped-chunk budget of the mmap backend; chunks above it are evicted
  /// LRU via madvise(MADV_DONTNEED).
  std::uint64_t resident_budget_bytes = 8ull << 20;

  Status Validate() const;
};

/// \brief Monotone query-path counters a backend exposes (REPL `stats`,
/// bench_arena_store). Flat reports all zeros.
struct StorageStats {
  std::uint64_t hot_hits = 0;        // inverted lists served from the LRU
  std::uint64_t hot_misses = 0;      // inverted lists decoded from bytes
  std::uint64_t chunk_loads = 0;     // mmap chunks faulted resident
  std::uint64_t chunk_evictions = 0; // mmap chunks madvise'd away
};

/// \brief Caller-owned decode buffers. The encoded backends decode into
/// the scratch and return spans over it, so one scratch per thread makes
/// every backend safe for concurrent const queries — the same discipline
/// as serve::QueryService's per-thread QueryScratch. A span returned
/// from Set/InvertedAll is valid only until the NEXT call on the same
/// scratch. FlatStorage ignores the scratch entirely (zero-copy spans
/// into the payload).
class StorageScratch {
 public:
  StorageScratch() = default;
  StorageScratch(const StorageScratch&) = delete;
  StorageScratch& operator=(const StorageScratch&) = delete;

 private:
  friend class CompressedStorage;
  friend class MmapSpillStorage;
  std::vector<VertexId> set_;
  std::vector<std::uint32_t> ids_;
};

/// \brief Today's word-packed arena layout (see sim/rr_arena.h): one flat
/// vertex array in set order, uint64 per-set offsets, and the ascending
/// vertex-major inverted index with uint32 ids and offsets.
struct RrFlatPayload {
  std::vector<VertexId> flat;
  std::vector<std::uint64_t> set_offsets;    // num_sets + 1
  std::vector<std::uint32_t> index_ids;      // ascending per vertex
  std::vector<std::uint32_t> index_offsets;  // num_vertices + 1

  // Zero-copy reads of an indexed payload: the coverage view that
  // GreedyMaxCoverage and CountCovered take (sim/max_coverage.h).
  std::uint64_t size() const { return set_offsets.size() - 1; }
  VertexId num_vertices() const {
    return static_cast<VertexId>(index_offsets.size() - 1);
  }
  std::span<const VertexId> Set(std::uint64_t i) const {
    return {flat.data() + set_offsets[i], flat.data() + set_offsets[i + 1]};
  }
  std::span<const std::uint32_t> InvertedList(VertexId v) const {
    return {index_ids.data() + index_offsets[v],
            index_ids.data() + index_offsets[v + 1]};
  }
};

/// \brief Abstract immutable RR payload store. All queries are const and
/// thread-safe given one StorageScratch per thread.
class RrStorage {
 public:
  virtual ~RrStorage() = default;

  virtual ArenaBackend backend() const = 0;

  /// Logical payload bytes (offsets + stored set/index bytes).
  virtual std::uint64_t MemoryBytes() const = 0;

  /// Bytes actually occupying RAM right now; <= or >= MemoryBytes only by
  /// cache overhead (see file header). Flat: == MemoryBytes.
  virtual std::uint64_t ResidentBytes() const { return MemoryBytes(); }

  virtual StorageStats stats() const { return {}; }

  /// Members of set i. Flat: traversal order; encoded: sorted ascending.
  virtual std::span<const VertexId> Set(std::uint64_t i,
                                        StorageScratch* scratch) const = 0;

  /// Ascending ids of all sets containing v — identical across backends.
  virtual std::span<const std::uint32_t> InvertedAll(
      VertexId v, StorageScratch* scratch) const = 0;

  /// Non-null iff the raw flat arrays are resident (zero-copy fast path).
  virtual const RrFlatPayload* flat_payload() const { return nullptr; }

  VertexId num_vertices() const { return num_vertices_; }
  std::uint64_t num_sets() const { return num_sets_; }
  std::uint64_t total_entries() const { return total_entries_; }

 protected:
  RrStorage(VertexId num_vertices, std::uint64_t num_sets,
            std::uint64_t total_entries)
      : num_vertices_(num_vertices),
        num_sets_(num_sets),
        total_entries_(total_entries) {}

  VertexId num_vertices_;
  std::uint64_t num_sets_;
  std::uint64_t total_entries_;
};

/// \brief Zero-copy backend over the uncompressed payload.
class FlatStorage final : public RrStorage {
 public:
  FlatStorage(RrFlatPayload&& payload, VertexId num_vertices);

  ArenaBackend backend() const override { return ArenaBackend::kFlat; }
  std::uint64_t MemoryBytes() const override;
  std::span<const VertexId> Set(std::uint64_t i,
                                StorageScratch* scratch) const override;
  std::span<const std::uint32_t> InvertedAll(
      VertexId v, StorageScratch* scratch) const override;
  const RrFlatPayload* flat_payload() const override { return &payload_; }

 private:
  RrFlatPayload payload_;
};

/// \brief The shared delta+varint encoding of a flat payload: each set is
/// sorted and gap coded with a count prefix; each vertex's inverted list
/// is gap coded the same way (already ascending, so decode reproduces the
/// flat index byte-for-byte). Built once by EncodeRrPayload, then either
/// kept in RAM (CompressedStorage) or spilled (MmapSpillStorage).
struct EncodedArena {
  std::vector<std::uint8_t> set_bytes;
  std::vector<std::uint64_t> set_offsets;    // num_sets + 1, into set_bytes
  std::vector<std::uint8_t> index_bytes;
  std::vector<std::uint64_t> index_offsets;  // num_vertices + 1
};

EncodedArena EncodeRrPayload(const RrFlatPayload& payload,
                             VertexId num_vertices);

/// \brief Byte-budgeted LRU of decoded per-vertex inverted lists, shared
/// by the encoded backends. Thread-safe; Get copies the hit into the
/// caller's buffer so eviction never invalidates a served span.
class HotListCache {
 public:
  explicit HotListCache(std::uint64_t budget_bytes)
      : budget_bytes_(budget_bytes) {}

  /// On hit copies v's list into *out and returns true.
  bool Get(VertexId v, std::vector<std::uint32_t>* out) const;

  /// Admits v's decoded list (copy), evicting LRU entries over budget.
  void Put(VertexId v, std::span<const std::uint32_t> ids) const;

  std::uint64_t bytes() const;
  std::uint64_t hits() const;
  std::uint64_t misses() const;

 private:
  struct Entry {
    VertexId vertex;
    std::vector<std::uint32_t> ids;
  };
  // Logically const from the backend's point of view (a query-path
  // cache), hence the mutable members behind the mutex.
  mutable std::mutex mu_;
  mutable std::list<Entry> lru_;  // front = most recent
  mutable std::unordered_map<VertexId, std::list<Entry>::iterator> map_;
  mutable std::uint64_t bytes_ = 0;
  mutable std::uint64_t hits_ = 0;
  mutable std::uint64_t misses_ = 0;
  std::uint64_t budget_bytes_;
};

/// \brief In-RAM encoded backend: ~4-8x smaller than flat on the paper's
/// networks, every query decodes on demand (sets per call, inverted lists
/// through the hot-list LRU).
class CompressedStorage final : public RrStorage {
 public:
  CompressedStorage(EncodedArena&& encoded, VertexId num_vertices,
                    std::uint64_t num_sets, std::uint64_t total_entries,
                    std::uint64_t hot_list_bytes);

  ArenaBackend backend() const override {
    return ArenaBackend::kCompressed;
  }
  std::uint64_t MemoryBytes() const override;
  std::uint64_t ResidentBytes() const override;
  StorageStats stats() const override;
  std::span<const VertexId> Set(std::uint64_t i,
                                StorageScratch* scratch) const override;
  std::span<const std::uint32_t> InvertedAll(
      VertexId v, StorageScratch* scratch) const override;

 private:
  EncodedArena encoded_;
  HotListCache hot_;
};

/// \brief Spilled encoded backend: the set/index byte streams live in a
/// read-only mapping of a spill file (removed on destruction); only the
/// offset arrays stay unconditionally resident. Residency is tracked in
/// chunks of resident_chunk_bytes — touching a byte range faults its
/// chunks in (chunk_loads), and chunks beyond resident_budget_bytes are
/// evicted LRU via madvise(MADV_DONTNEED) (chunk_evictions).
class MmapSpillStorage final : public RrStorage {
 public:
  /// Writes the encoded payload to a fresh spill file under
  /// options.spill_dir and maps it. IO failures return Status.
  static StatusOr<std::shared_ptr<MmapSpillStorage>> Create(
      EncodedArena&& encoded, VertexId num_vertices, std::uint64_t num_sets,
      std::uint64_t total_entries, const StorageOptions& options);

  ~MmapSpillStorage() override;
  MmapSpillStorage(const MmapSpillStorage&) = delete;
  MmapSpillStorage& operator=(const MmapSpillStorage&) = delete;

  ArenaBackend backend() const override { return ArenaBackend::kMmap; }
  std::uint64_t MemoryBytes() const override;
  std::uint64_t ResidentBytes() const override;
  StorageStats stats() const override;
  std::span<const VertexId> Set(std::uint64_t i,
                                StorageScratch* scratch) const override;
  std::span<const std::uint32_t> InvertedAll(
      VertexId v, StorageScratch* scratch) const override;

  const std::string& spill_path() const { return path_; }

 private:
  MmapSpillStorage(VertexId num_vertices, std::uint64_t num_sets,
                   std::uint64_t total_entries,
                   const StorageOptions& options);

  /// Marks the chunks covering [begin, end) resident (LRU-refreshing),
  /// evicting over budget. Returns a pointer to mapped byte `begin`.
  const std::uint8_t* TouchRange(std::uint64_t begin,
                                 std::uint64_t end) const;

  std::vector<std::uint64_t> set_offsets_;    // resident, into mapped bytes
  std::vector<std::uint64_t> index_offsets_;  // resident
  std::uint64_t index_base_ = 0;  // index_bytes start inside the mapping
  std::string path_;
  int fd_ = -1;
  const std::uint8_t* mapped_ = nullptr;
  std::uint64_t mapped_bytes_ = 0;
  std::uint64_t chunk_bytes_;
  std::uint64_t chunk_budget_;  // max resident chunks

  mutable std::mutex chunk_mu_;
  mutable std::list<std::uint64_t> chunk_lru_;  // front = most recent
  mutable std::unordered_map<std::uint64_t,
                             std::list<std::uint64_t>::iterator>
      chunk_map_;
  mutable std::uint64_t chunk_loads_ = 0;
  mutable std::uint64_t chunk_evictions_ = 0;

  HotListCache hot_;
};

/// \brief Builds the storage `options.backend` asks for from a flat
/// payload (encoding it for the non-flat backends).
StatusOr<std::shared_ptr<const RrStorage>> MakeRrStorage(
    RrFlatPayload&& payload, VertexId num_vertices,
    const StorageOptions& options);

}  // namespace store
}  // namespace soldist

#endif  // SOLDIST_STORE_ARENA_STORAGE_H_
