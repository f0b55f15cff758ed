#include "store/arena_storage.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <utility>

#include "store/fault_injection.h"
#include "util/logging.h"

namespace soldist {
namespace store {
namespace {

// LEB128 varint codec of the compressed and mmap-spill backends.
void PutVarint(std::uint64_t v, std::vector<std::uint8_t>* out) {
  while (v >= 0x80) {
    out->push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t GetVarint(const std::uint8_t* data, std::size_t* pos) {
  std::uint64_t v = 0;
  int shift = 0;
  while (true) {
    std::uint8_t byte = data[(*pos)++];
    v |= static_cast<std::uint64_t>(byte & 0x7F) << shift;
    if ((byte & 0x80) == 0) break;
    shift += 7;
    SOLDIST_DCHECK(shift < 64);
  }
  return v;
}

/// Decodes a count-prefixed gap stream (first entry absolute) starting at
/// data[begin] into *out.
template <typename T>
void DecodeGapList(const std::uint8_t* data, std::uint64_t begin,
                   std::vector<T>* out) {
  out->clear();
  std::size_t pos = begin;
  const std::uint64_t count = GetVarint(data, &pos);
  std::uint64_t value = 0;
  for (std::uint64_t j = 0; j < count; ++j) {
    value += GetVarint(data, &pos);
    out->push_back(static_cast<T>(value));
  }
}

std::uint64_t VectorBytes(const std::vector<std::uint8_t>& v) {
  return v.size();
}
template <typename T>
std::uint64_t VectorBytes(const std::vector<T>& v) {
  return v.size() * sizeof(T);
}

}  // namespace

const char* ArenaBackendName(ArenaBackend backend) {
  switch (backend) {
    case ArenaBackend::kFlat:
      return "flat";
    case ArenaBackend::kCompressed:
      return "compressed";
    case ArenaBackend::kMmap:
      return "mmap";
  }
  return "unknown";
}

StatusOr<ArenaBackend> ParseArenaBackend(const std::string& name) {
  if (name == "flat") return ArenaBackend::kFlat;
  if (name == "compressed") return ArenaBackend::kCompressed;
  if (name == "mmap") return ArenaBackend::kMmap;
  return Status::InvalidArgument("unknown arena backend '" + name +
                                 "' (expected flat|compressed|mmap)");
}

Status StorageOptions::Validate() const {
  if (backend == ArenaBackend::kMmap && spill_dir.empty()) {
    return Status::InvalidArgument(
        "arena backend 'mmap' requires a spill directory (--arena-dir)");
  }
  if (resident_chunk_bytes == 0) {
    return Status::InvalidArgument("resident_chunk_bytes must be >= 1");
  }
  return Status::OK();
}

// ---------------------------------------------------------------------
// FlatStorage
// ---------------------------------------------------------------------

FlatStorage::FlatStorage(RrFlatPayload&& payload, VertexId num_vertices)
    : RrStorage(num_vertices,
                static_cast<std::uint64_t>(payload.set_offsets.size()) - 1,
                static_cast<std::uint64_t>(payload.flat.size())),
      payload_(std::move(payload)) {
  SOLDIST_CHECK(!payload_.set_offsets.empty());
  SOLDIST_CHECK(payload_.index_offsets.size() ==
                static_cast<std::size_t>(num_vertices) + 1);
}

std::uint64_t FlatStorage::MemoryBytes() const {
  return VectorBytes(payload_.flat) + VectorBytes(payload_.set_offsets) +
         VectorBytes(payload_.index_ids) +
         VectorBytes(payload_.index_offsets);
}

std::span<const VertexId> FlatStorage::Set(std::uint64_t i,
                                           StorageScratch*) const {
  SOLDIST_DCHECK(i < num_sets_);
  return payload_.Set(i);
}

std::span<const std::uint32_t> FlatStorage::InvertedAll(
    VertexId v, StorageScratch*) const {
  SOLDIST_DCHECK(v < num_vertices_);
  return payload_.InvertedList(v);
}

// ---------------------------------------------------------------------
// EncodeRrPayload
// ---------------------------------------------------------------------

EncodedArena EncodeRrPayload(const RrFlatPayload& payload,
                             VertexId num_vertices) {
  EncodedArena enc;
  const std::uint64_t num_sets =
      static_cast<std::uint64_t>(payload.set_offsets.size()) - 1;
  enc.set_offsets.reserve(num_sets + 1);
  enc.set_offsets.push_back(0);
  std::vector<VertexId> sorted;
  for (std::uint64_t i = 0; i < num_sets; ++i) {
    sorted.assign(payload.flat.begin() + payload.set_offsets[i],
                  payload.flat.begin() + payload.set_offsets[i + 1]);
    std::sort(sorted.begin(), sorted.end());
    PutVarint(sorted.size(), &enc.set_bytes);
    VertexId prev = 0;
    for (std::size_t j = 0; j < sorted.size(); ++j) {
      // First entry absolute, rest gaps (>= 1: RR-set members are
      // distinct).
      PutVarint(j == 0 ? sorted[0] : sorted[j] - prev, &enc.set_bytes);
      prev = sorted[j];
    }
    enc.set_offsets.push_back(
        static_cast<std::uint64_t>(enc.set_bytes.size()));
  }
  enc.index_offsets.reserve(static_cast<std::size_t>(num_vertices) + 2);
  enc.index_offsets.push_back(0);
  for (VertexId v = 0; v < num_vertices; ++v) {
    const std::uint32_t* begin =
        payload.index_ids.data() + payload.index_offsets[v];
    const std::uint32_t* end =
        payload.index_ids.data() + payload.index_offsets[v + 1];
    PutVarint(static_cast<std::uint64_t>(end - begin), &enc.index_bytes);
    std::uint32_t prev = 0;
    for (const std::uint32_t* p = begin; p != end; ++p) {
      PutVarint(p == begin ? *p : *p - prev, &enc.index_bytes);
      prev = *p;
    }
    enc.index_offsets.push_back(
        static_cast<std::uint64_t>(enc.index_bytes.size()));
  }
  return enc;
}

// ---------------------------------------------------------------------
// HotListCache
// ---------------------------------------------------------------------

bool HotListCache::Get(VertexId v, std::vector<std::uint32_t>* out) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(v);
  if (it == map_.end()) {
    ++misses_;
    return false;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  ++hits_;
  *out = it->second->ids;
  return true;
}

void HotListCache::Put(VertexId v, std::span<const std::uint32_t> ids) const {
  const std::uint64_t cost =
      sizeof(Entry) + ids.size() * sizeof(std::uint32_t);
  if (cost > budget_bytes_) return;  // never admit beyond the whole budget
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(v);
  if (it != map_.end()) {  // racing decoder already admitted it
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(
      Entry{v, std::vector<std::uint32_t>(ids.begin(), ids.end())});
  map_.emplace(v, lru_.begin());
  bytes_ += cost;
  while (bytes_ > budget_bytes_ && lru_.size() > 1) {
    const Entry& victim = lru_.back();
    bytes_ -= sizeof(Entry) + victim.ids.size() * sizeof(std::uint32_t);
    map_.erase(victim.vertex);
    lru_.pop_back();
  }
}

std::uint64_t HotListCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t HotListCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t HotListCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

// ---------------------------------------------------------------------
// CompressedStorage
// ---------------------------------------------------------------------

CompressedStorage::CompressedStorage(EncodedArena&& encoded,
                                     VertexId num_vertices,
                                     std::uint64_t num_sets,
                                     std::uint64_t total_entries,
                                     std::uint64_t hot_list_bytes)
    : RrStorage(num_vertices, num_sets, total_entries),
      encoded_(std::move(encoded)),
      hot_(hot_list_bytes) {
  SOLDIST_CHECK(encoded_.set_offsets.size() ==
                static_cast<std::size_t>(num_sets) + 1);
  SOLDIST_CHECK(encoded_.index_offsets.size() ==
                static_cast<std::size_t>(num_vertices) + 1);
}

std::uint64_t CompressedStorage::MemoryBytes() const {
  return VectorBytes(encoded_.set_bytes) + VectorBytes(encoded_.set_offsets) +
         VectorBytes(encoded_.index_bytes) +
         VectorBytes(encoded_.index_offsets);
}

std::uint64_t CompressedStorage::ResidentBytes() const {
  return MemoryBytes() + hot_.bytes();
}

StorageStats CompressedStorage::stats() const {
  StorageStats stats;
  stats.hot_hits = hot_.hits();
  stats.hot_misses = hot_.misses();
  return stats;
}

std::span<const VertexId> CompressedStorage::Set(
    std::uint64_t i, StorageScratch* scratch) const {
  SOLDIST_DCHECK(i < num_sets_);
  DecodeGapList(encoded_.set_bytes.data(), encoded_.set_offsets[i],
                &scratch->set_);
  return scratch->set_;
}

std::span<const std::uint32_t> CompressedStorage::InvertedAll(
    VertexId v, StorageScratch* scratch) const {
  SOLDIST_DCHECK(v < num_vertices_);
  if (hot_.Get(v, &scratch->ids_)) return scratch->ids_;
  DecodeGapList(encoded_.index_bytes.data(), encoded_.index_offsets[v],
                &scratch->ids_);
  hot_.Put(v, scratch->ids_);
  return scratch->ids_;
}

// ---------------------------------------------------------------------
// MmapSpillStorage
// ---------------------------------------------------------------------

MmapSpillStorage::MmapSpillStorage(VertexId num_vertices,
                                   std::uint64_t num_sets,
                                   std::uint64_t total_entries,
                                   const StorageOptions& options)
    : RrStorage(num_vertices, num_sets, total_entries),
      chunk_bytes_(options.resident_chunk_bytes),
      chunk_budget_(std::max<std::uint64_t>(
          1, options.resident_budget_bytes / options.resident_chunk_bytes)),
      hot_(options.hot_list_bytes) {}

StatusOr<std::shared_ptr<MmapSpillStorage>> MmapSpillStorage::Create(
    EncodedArena&& encoded, VertexId num_vertices, std::uint64_t num_sets,
    std::uint64_t total_entries, const StorageOptions& options) {
  SOLDIST_RETURN_IF_ERROR(options.Validate());
  if (options.spill_dir.empty()) {
    return Status::InvalidArgument("mmap backend requires a spill dir");
  }
  std::error_code ec;
  std::filesystem::create_directories(options.spill_dir, ec);
  if (ec) {
    return Status::IoError("cannot create spill dir '" + options.spill_dir +
                           "': " + ec.message());
  }
  static std::atomic<std::uint64_t> sequence{0};
  std::shared_ptr<MmapSpillStorage> storage(new MmapSpillStorage(
      num_vertices, num_sets, total_entries, options));
  storage->set_offsets_ = std::move(encoded.set_offsets);
  storage->index_offsets_ = std::move(encoded.index_offsets);
  storage->index_base_ = encoded.set_bytes.size();
  storage->path_ = options.spill_dir + "/soldist-spill-" +
                   std::to_string(static_cast<long>(::getpid())) + "-" +
                   std::to_string(sequence.fetch_add(1)) + ".bin";
  // Fault hooks: spill bytes carry no checksum (the mmap serves them
  // raw), so only hard errors are injected here — never torn/short
  // mutilation, which would silently change answers.
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, storage->path_));
  }
  const int fd =
      ::open(storage->path_.c_str(), O_CREAT | O_TRUNC | O_RDWR, 0644);
  if (fd < 0) {
    return Status::IoError("cannot create spill file '" + storage->path_ +
                           "'");
  }
  storage->fd_ = fd;
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kWrite, storage->path_));
  }
  auto write_all = [fd](const std::uint8_t* data, std::size_t size) {
    std::size_t done = 0;
    while (done < size) {
      const ssize_t w = ::write(fd, data + done, size - done);
      if (w <= 0) return false;
      done += static_cast<std::size_t>(w);
    }
    return true;
  };
  if (!write_all(encoded.set_bytes.data(), encoded.set_bytes.size()) ||
      !write_all(encoded.index_bytes.data(), encoded.index_bytes.size())) {
    return Status::IoError("short write to spill file '" + storage->path_ +
                           "'");
  }
  storage->mapped_bytes_ =
      encoded.set_bytes.size() + encoded.index_bytes.size();
  if (storage->mapped_bytes_ > 0) {
    void* mapped = ::mmap(nullptr, storage->mapped_bytes_, PROT_READ,
                          MAP_SHARED, fd, 0);
    if (mapped == MAP_FAILED) {
      return Status::IoError("mmap failed for spill file '" +
                             storage->path_ + "'");
    }
    storage->mapped_ = static_cast<const std::uint8_t*>(mapped);
  }
  return storage;
}

MmapSpillStorage::~MmapSpillStorage() {
  if (mapped_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(mapped_), mapped_bytes_);
  }
  if (fd_ >= 0) ::close(fd_);
  if (!path_.empty()) ::unlink(path_.c_str());
}

std::uint64_t MmapSpillStorage::MemoryBytes() const {
  // Logical footprint: the spilled encoded streams plus the resident
  // offset arrays. This is what the arena would occupy fully loaded.
  return mapped_bytes_ + VectorBytes(set_offsets_) +
         VectorBytes(index_offsets_);
}

std::uint64_t MmapSpillStorage::ResidentBytes() const {
  std::uint64_t resident_chunk_bytes;
  {
    std::lock_guard<std::mutex> lock(chunk_mu_);
    resident_chunk_bytes = chunk_map_.size() * chunk_bytes_;
  }
  return VectorBytes(set_offsets_) + VectorBytes(index_offsets_) +
         std::min(resident_chunk_bytes, mapped_bytes_) + hot_.bytes();
}

StorageStats MmapSpillStorage::stats() const {
  StorageStats stats;
  stats.hot_hits = hot_.hits();
  stats.hot_misses = hot_.misses();
  std::lock_guard<std::mutex> lock(chunk_mu_);
  stats.chunk_loads = chunk_loads_;
  stats.chunk_evictions = chunk_evictions_;
  return stats;
}

const std::uint8_t* MmapSpillStorage::TouchRange(std::uint64_t begin,
                                                 std::uint64_t end) const {
  SOLDIST_DCHECK(end <= mapped_bytes_);
  if (end <= begin) return mapped_ + begin;
  const std::uint64_t first = begin / chunk_bytes_;
  const std::uint64_t last = (end - 1) / chunk_bytes_;
  std::lock_guard<std::mutex> lock(chunk_mu_);
  for (std::uint64_t c = first; c <= last; ++c) {
    auto it = chunk_map_.find(c);
    if (it != chunk_map_.end()) {
      chunk_lru_.splice(chunk_lru_.begin(), chunk_lru_, it->second);
      continue;
    }
    chunk_lru_.push_front(c);
    chunk_map_.emplace(c, chunk_lru_.begin());
    ++chunk_loads_;
    // Chunk fault-in is the mmap backend's read boundary; it cannot
    // surface a Status (the kernel serves the page either way), so the
    // injector contributes latency only — enough to drive deadline and
    // degraded-answer paths under --fault-spec slow-read-us=N.
    if (FaultInjector* inject = fault_injector()) {
      inject->DelaySlowRead();
    }
  }
  while (chunk_map_.size() > chunk_budget_) {
    const std::uint64_t victim = chunk_lru_.back();
    // Never evict a chunk of the range being served (it sits at the LRU
    // front, so this only triggers when the touch itself overflows the
    // budget).
    if (victim >= first && victim <= last) break;
    chunk_lru_.pop_back();
    chunk_map_.erase(victim);
    ++chunk_evictions_;
    const std::uint64_t off = victim * chunk_bytes_;
    const std::uint64_t len = std::min(chunk_bytes_, mapped_bytes_ - off);
    ::madvise(const_cast<std::uint8_t*>(mapped_) + off,
              static_cast<std::size_t>(len), MADV_DONTNEED);
  }
  return mapped_ + begin;
}

std::span<const VertexId> MmapSpillStorage::Set(
    std::uint64_t i, StorageScratch* scratch) const {
  SOLDIST_DCHECK(i < num_sets_);
  const std::uint8_t* data = TouchRange(set_offsets_[i], set_offsets_[i + 1]);
  DecodeGapList(data, 0, &scratch->set_);
  return scratch->set_;
}

std::span<const std::uint32_t> MmapSpillStorage::InvertedAll(
    VertexId v, StorageScratch* scratch) const {
  SOLDIST_DCHECK(v < num_vertices_);
  if (hot_.Get(v, &scratch->ids_)) return scratch->ids_;
  const std::uint8_t* data = TouchRange(index_base_ + index_offsets_[v],
                                        index_base_ + index_offsets_[v + 1]);
  DecodeGapList(data, 0, &scratch->ids_);
  hot_.Put(v, scratch->ids_);
  return scratch->ids_;
}

// ---------------------------------------------------------------------
// MakeRrStorage
// ---------------------------------------------------------------------

StatusOr<std::shared_ptr<const RrStorage>> MakeRrStorage(
    RrFlatPayload&& payload, VertexId num_vertices,
    const StorageOptions& options) {
  SOLDIST_RETURN_IF_ERROR(options.Validate());
  const std::uint64_t num_sets =
      static_cast<std::uint64_t>(payload.set_offsets.size()) - 1;
  const std::uint64_t total_entries =
      static_cast<std::uint64_t>(payload.flat.size());
  switch (options.backend) {
    case ArenaBackend::kFlat:
      return std::shared_ptr<const RrStorage>(
          std::make_shared<FlatStorage>(std::move(payload), num_vertices));
    case ArenaBackend::kCompressed:
      return std::shared_ptr<const RrStorage>(
          std::make_shared<CompressedStorage>(
              EncodeRrPayload(payload, num_vertices), num_vertices, num_sets,
              total_entries, options.hot_list_bytes));
    case ArenaBackend::kMmap: {
      StatusOr<std::shared_ptr<MmapSpillStorage>> spill =
          MmapSpillStorage::Create(EncodeRrPayload(payload, num_vertices),
                                   num_vertices, num_sets, total_entries,
                                   options);
      if (!spill.ok()) return spill.status();
      return std::shared_ptr<const RrStorage>(std::move(spill).value());
    }
  }
  return Status::Internal("unhandled arena backend");
}

}  // namespace store
}  // namespace soldist
