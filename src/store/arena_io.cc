#include "store/arena_io.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "store/fault_injection.h"
#include "util/checksum.h"
#include "util/logging.h"

namespace soldist {
namespace store {
namespace {

// "SOLDARNA" as a native u64: written in host byte order, so a file
// produced on an opposite-endian machine reads back as a different value
// and the load fails cleanly instead of deserializing garbage.
constexpr std::uint64_t kPayloadMagic = 0x534F4C4441524E41ull;
constexpr std::uint32_t kKindRr = 0;
constexpr std::uint32_t kKindSnapshot = 1;

constexpr char kManifestFile[] = "/manifest.txt";
constexpr char kPayloadFile[] = "/payload.bin";

// The counter-delta sections are stored as raw TraversalCounters: four
// u64 fields in declaration order, no padding.
static_assert(sizeof(TraversalCounters) == 4 * sizeof(std::uint64_t));
static_assert(std::is_trivially_copyable_v<TraversalCounters>);

/// The first 32 bytes of every payload.
struct PayloadHeader {
  std::uint64_t magic = kPayloadMagic;
  std::uint32_t version = kArenaFormatVersion;
  std::uint32_t kind = 0;
  std::uint32_t num_vertices = 0;
  std::uint32_t reserved = 0;
  std::uint64_t capacity = 0;
};
static_assert(sizeof(PayloadHeader) == 32);

/// fsyncs the directory containing `path` so a just-committed rename
/// survives a crash (the rename updates the directory entry; without
/// this the entry itself can be lost even though the inode is durable).
Status SyncParentDir(const std::string& path) {
  const std::size_t slash = path.find_last_of('/');
  const std::string dir = slash == std::string::npos ? "." : path.substr(0, slash);
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) {
    return Status::IoError("cannot open dir '" + dir +
                           "' for fsync: " + std::strerror(errno));
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fsync of dir '" + dir + "' failed: " + err);
  }
  ::close(fd);
  return Status::OK();
}

/// Atomically publishes `tmp` as `path` (the COMMIT POINT of every
/// store/ file write) and makes the directory entry durable. A crash
/// before the rename leaves only `*.tmp` debris; after it, the complete
/// file — never a half-written file under its final name.
Status CommitFile(const std::string& tmp, const std::string& path) {
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kRename, path));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::IoError("rename '" + tmp + "' -> '" + path +
                           "' failed: " + std::strerror(errno));
  }
  return SyncParentDir(path);
}

/// Durably writes `size` bytes through the tmp + atomic-rename protocol:
/// open/write/fsync `path + ".tmp"` (each an injectable fault boundary;
/// a torn write persists a prefix of the TMP file and still commits it —
/// the read-side checksum guards are what must catch the damage), then
/// CommitFile renames it over `path`.
Status WriteFileDurably(const std::string& path, const std::uint8_t* data,
                        std::size_t size) {
  const std::string tmp = path + ".tmp";
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, tmp));
  }
  const int fd = ::open(tmp.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) {
    return Status::IoError("cannot open '" + tmp + "' for writing: " +
                           std::strerror(errno));
  }
  std::size_t write_size = size;
  if (inject != nullptr) {
    Status faulted = inject->Check(FaultOp::kWrite, tmp);
    if (!faulted.ok()) {
      ::close(fd);
      return faulted;
    }
    write_size = inject->MutilateWriteSize(write_size);
  }
  std::size_t written = 0;
  while (written < write_size) {
    const ssize_t n = ::write(fd, data + written, write_size - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string err = std::strerror(errno);
      ::close(fd);
      return Status::IoError("write to '" + tmp + "' failed: " + err);
    }
    written += static_cast<std::size_t>(n);
  }
  if (inject != nullptr) {
    Status faulted = inject->Check(FaultOp::kSync, tmp);
    if (!faulted.ok()) {
      ::close(fd);
      return faulted;
    }
  }
  if (::fsync(fd) != 0) {
    const std::string err = std::strerror(errno);
    ::close(fd);
    return Status::IoError("fsync of '" + tmp + "' failed: " + err);
  }
  if (::close(fd) != 0) {
    return Status::IoError("close of '" + tmp +
                           "' failed: " + std::strerror(errno));
  }
  return CommitFile(tmp, path);
}

/// Append-only payload writer: accumulates the byte stream in memory,
/// then flushes it with its checksum in one pass. Arenas at the recorded
/// bench scales are tens of MB, so the staging buffer is acceptable; a
/// streaming writer can replace this without a format change.
class PayloadWriter {
 public:
  template <typename T>
  void Put(const T& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutRaw(&v, sizeof(v));
  }

  template <typename T>
  void PutVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (!v.empty()) PutRaw(v.data(), v.size() * sizeof(T));
  }

  /// Durable tmp+rename write with an fsync BEFORE the caller writes
  /// the manifest: the "payload before manifest" crash ordering is only
  /// real once the payload bytes are durable (and committed under their
  /// final name) when the manifest names them. A torn write persists
  /// only a prefix but still REPORTS success (bytes/checksum below
  /// describe the full buffer): the read-side size/checksum guards are
  /// what must catch the damage.
  Status Flush(const std::string& path, std::uint64_t* bytes,
               std::uint64_t* checksum) const {
    SOLDIST_RETURN_IF_ERROR(
        WriteFileDurably(path, buffer_.data(), buffer_.size()));
    *bytes = buffer_.size();
    *checksum = Checksum64::Of(buffer_.data(), buffer_.size());
    return Status::OK();
  }

 private:
  void PutRaw(const void* data, std::size_t size) {
    const auto* bytes = static_cast<const std::uint8_t*>(data);
    buffer_.insert(buffer_.end(), bytes, bytes + size);
  }

  std::vector<std::uint8_t> buffer_;
};

/// OK when a payload of `payload_bytes` can hold `capacity` samples of
/// `kind`: 32 B of counter deltas per sample after the header and, for
/// RR, capacity + 1 set offsets of 8 B, with set ids that fit 32 bits.
/// Loaders check it before sizing anything by the capacity.
Status CheckCapacity(std::uint32_t kind, std::uint64_t capacity,
                     std::uint64_t payload_bytes) {
  const bool rr = kind == kKindRr;
  const std::uint64_t per_sample =
      sizeof(TraversalCounters) + (rr ? sizeof(std::uint64_t) : 0);
  const std::uint64_t once =
      sizeof(PayloadHeader) + (rr ? sizeof(std::uint64_t) : 0);
  const bool fits =
      payload_bytes >= once &&
      capacity <= (payload_bytes - once) / per_sample &&
      (!rr || capacity <= std::numeric_limits<std::uint32_t>::max());
  if (fits) return Status::OK();
  return Status::IoError("arena payload of " + std::to_string(payload_bytes) +
                         " bytes cannot hold capacity " +
                         std::to_string(capacity));
}

/// Single-copy payload reader. Every byte of payload.bin is read from
/// the file once, straight into its destination vector (through one
/// fixed block for fields shorter than a block), and hashed as it lands,
/// so a load holds no staging copy of the file. Every Get returns false
/// once the unread bytes cannot hold it: a corrupt length can neither
/// over-read nor size an allocation past the file, which is what lets
/// the loaders parse before the digest is known. Verify() then gives
/// the digest and header verdicts (ReadPayload below orders them all).
class PayloadReader {
 public:
  /// Opens payload.bin and reads its header. The file's size must be
  /// the manifest's; the payload's kOpen and kRead fault boundaries fire
  /// once each. The digest and header verdicts are Verify()'s.
  static StatusOr<std::unique_ptr<PayloadReader>> Open(
      const std::string& dir, const ArenaManifest& manifest) {
    const std::string path = dir + kPayloadFile;
    FaultInjector* inject = fault_injector();
    if (inject != nullptr) {
      SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, path));
    }
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0) return Status::NotFound("no arena payload at '" + path + "'");
    std::unique_ptr<PayloadReader> reader(new PayloadReader(fd, path));
    struct stat st;
    if (::fstat(fd, &st) != 0) {
      return Status::IoError("cannot stat '" + path +
                             "': " + std::strerror(errno));
    }
    reader->size_ = static_cast<std::uint64_t>(st.st_size);
    if (reader->size_ != manifest.payload_bytes) {
      return Status::IoError(
          "arena payload '" + path + "' is " + std::to_string(reader->size_) +
          " bytes, manifest says " + std::to_string(manifest.payload_bytes) +
          " (truncated?)");
    }
    if (inject != nullptr) {
      SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kRead, path));
      if (inject->MutilateReadSize(reader->size_) < reader->size_) {
        return Status::IoError("short read from '" + path + "' (injected)");
      }
    }
    reader->header_read_ = reader->Get(&reader->header_);
    return reader;
  }

  ~PayloadReader() { ::close(fd_); }
  PayloadReader(const PayloadReader&) = delete;
  PayloadReader& operator=(const PayloadReader&) = delete;

  std::uint64_t size() const { return size_; }

  template <typename T>
  bool Get(T* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    return GetRaw(v, sizeof(*v));
  }

  template <typename T>
  bool GetVector(std::uint64_t count, std::vector<T>* v) {
    static_assert(std::is_trivially_copyable_v<T>);
    // Reject counts the remaining bytes cannot possibly hold BEFORE
    // resizing, so a corrupt length cannot trigger a huge allocation.
    if (count > (size_ - consumed_) / sizeof(T)) return false;
    v->resize(count);
    return count == 0 || GetRaw(v->data(), count * sizeof(T));
  }

  bool exhausted() const { return consumed_ == size_; }

  /// Reads and hashes what the parse left unread, then judges the file:
  /// a failed read, the digest against the manifest, then the header
  /// (magic, version, kind and shape against the manifest).
  Status Verify(const ArenaManifest& manifest, std::uint32_t expected_kind) {
    consumed_ += block_len_ - block_pos_;
    block_pos_ = block_len_;
    while (read_error_.ok() && consumed_ < size_) {
      const std::size_t fill = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBlockBytes, size_ - consumed_));
      if (Land(block_.data(), fill)) consumed_ += fill;
    }
    SOLDIST_RETURN_IF_ERROR(read_error_);
    if (sum_.Digest() != manifest.checksum) {
      return Status::IoError("arena payload '" + path_ +
                             "' fails its checksum (corrupted)");
    }
    if (!header_read_) {
      return Status::IoError("arena payload '" + path_ +
                             "' header truncated");
    }
    if (header_.magic != kPayloadMagic) {
      return Status::FailedPrecondition(
          "arena payload '" + path_ +
          "' has a wrong magic (different endianness or not an arena file)");
    }
    if (header_.version != kArenaFormatVersion) {
      return Status::FailedPrecondition(
          "arena payload version " + std::to_string(header_.version) +
          " != " + std::to_string(kArenaFormatVersion));
    }
    if (header_.kind != expected_kind ||
        header_.num_vertices != manifest.num_vertices ||
        header_.capacity != manifest.capacity) {
      return Status::IoError("arena payload '" + path_ +
                             "' header disagrees with its manifest");
    }
    return Status::OK();
  }

 private:
  // Large enough that a section's read(2) calls cost little next to the
  // copy, small enough that each piece is still in cache when hashed.
  static constexpr std::size_t kBlockBytes = std::size_t{1} << 16;

  PayloadReader(int fd, std::string path)
      : fd_(fd), path_(std::move(path)), block_(kBlockBytes) {}

  bool GetRaw(void* out, std::size_t size) {
    if (size > size_ - consumed_ || !read_error_.ok()) return false;
    auto* dst = static_cast<std::uint8_t*>(out);
    const std::size_t buffered = std::min(size, block_len_ - block_pos_);
    std::memcpy(dst, block_.data() + block_pos_, buffered);
    block_pos_ += buffered;
    consumed_ += buffered;
    dst += buffered;
    size -= buffered;
    if (size == 0) return true;
    if (size >= kBlockBytes) {
      if (!Land(dst, size)) return false;
    } else {
      const std::size_t fill = static_cast<std::size_t>(
          std::min<std::uint64_t>(kBlockBytes, size_ - consumed_));
      if (!Land(block_.data(), fill)) return false;
      std::memcpy(dst, block_.data(), size);
      block_pos_ = size;
      block_len_ = fill;
    }
    consumed_ += size;
    return true;
  }

  /// Reads exactly `size` bytes into `dst`, hashing each block-sized
  /// piece right after it lands; a failed or short read(2) is recorded
  /// and fails every later Get.
  bool Land(std::uint8_t* dst, std::size_t size) {
    while (size > 0) {
      const ssize_t n = ::read(fd_, dst, std::min(size, kBlockBytes));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        read_error_ = Status::IoError(
            "short read from '" + path_ + "'" +
            (n < 0 ? std::string(": ") + std::strerror(errno) : ""));
        return false;
      }
      sum_.Update(dst, static_cast<std::size_t>(n));
      dst += n;
      size -= static_cast<std::size_t>(n);
    }
    return true;
  }

  const int fd_;
  const std::string path_;
  std::uint64_t size_ = 0;
  std::uint64_t consumed_ = 0;  // bytes handed to the parser
  Checksum64 sum_;              // over every byte read so far
  Status read_error_;
  std::vector<std::uint8_t> block_;
  std::size_t block_pos_ = 0;
  std::size_t block_len_ = 0;
  PayloadHeader header_;
  bool header_read_ = false;
};

Status WriteManifest(const ArenaManifest& manifest, const std::string& dir) {
  const std::string path = dir + kManifestFile;
  std::string text;
  text += "format_version=" + std::to_string(manifest.version) + "\n";
  text += "kind=" + manifest.kind + "\n";
  text += "workload=" + manifest.workload + "\n";
  text += "seed=" + std::to_string(manifest.seed) + "\n";
  text += "stream=" + manifest.stream + "\n";
  text += "capacity=" + std::to_string(manifest.capacity) + "\n";
  text += "num_vertices=" + std::to_string(manifest.num_vertices) + "\n";
  text += "payload_bytes=" + std::to_string(manifest.payload_bytes) + "\n";
  text += "checksum=" + std::to_string(manifest.checksum) + "\n";
  // Same tmp+rename protocol as the payload: the manifest rename is the
  // commit point of the WHOLE save (a directory becomes a loadable hit
  // at exactly this instant and never before).
  return WriteFileDurably(path,
                          reinterpret_cast<const std::uint8_t*>(text.data()),
                          text.size());
}

bool ParseU64(const std::string& text, std::uint64_t* out) {
  if (text.empty()) return false;
  std::uint64_t value = 0;
  for (char ch : text) {
    if (ch < '0' || ch > '9') return false;
    const auto digit = static_cast<std::uint64_t>(ch - '0');
    // A digit string past 2^64 - 1 is malformed, not a wrapped number.
    if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10) {
      return false;
    }
    value = value * 10 + digit;
  }
  *out = value;
  return true;
}

/// Checks the identity fields of a read manifest against the request.
/// Capacity is a >= check: a bigger saved arena serves any smaller τ as
/// a byte-identical prefix.
Status MatchManifest(const ArenaManifest& found,
                     const ArenaManifest& expected) {
  if (found.version != kArenaFormatVersion) {
    return Status::FailedPrecondition(
        "arena format version " + std::to_string(found.version) +
        " != " + std::to_string(kArenaFormatVersion));
  }
  if (found.kind != expected.kind || found.workload != expected.workload ||
      found.seed != expected.seed || found.stream != expected.stream) {
    return Status::FailedPrecondition(
        "arena identity mismatch: saved (" + found.kind + ", " +
        found.workload + ", seed=" + std::to_string(found.seed) + ", " +
        found.stream + ") vs requested (" + expected.kind + ", " +
        expected.workload + ", seed=" + std::to_string(expected.seed) +
        ", " + expected.stream + ")");
  }
  if (found.capacity < expected.capacity) {
    return Status::FailedPrecondition(
        "saved arena capacity " + std::to_string(found.capacity) +
        " < requested " + std::to_string(expected.capacity));
  }
  if (expected.num_vertices != 0 &&
      found.num_vertices != expected.num_vertices) {
    return Status::FailedPrecondition(
        "saved arena has " + std::to_string(found.num_vertices) +
        " vertices, requested " + std::to_string(expected.num_vertices));
  }
  return Status::OK();
}

std::vector<TraversalCounters> PrefixDeltas(const WorldArena& arena) {
  std::vector<TraversalCounters> deltas;
  deltas.reserve(arena.capacity());
  for (std::uint64_t i = 1; i <= arena.capacity(); ++i) {
    deltas.push_back(arena.PrefixCounters(i) - arena.PrefixCounters(i - 1));
  }
  return deltas;
}

/// The RR sections with their structural checks, in load order; returns
/// the first failure. It runs before Verify() has checked the digest, so
/// it trusts no value it reads: only the reader's guard sizes anything.
Status ParseRr(PayloadReader* reader, std::uint64_t capacity,
               VertexId num_vertices, std::vector<std::uint64_t>* set_offsets,
               std::vector<VertexId>* flat,
               std::vector<TraversalCounters>* per_set) {
  if (!reader->GetVector(capacity + 1, set_offsets)) {
    return Status::IoError("arena payload truncated in set offsets");
  }
  if (set_offsets->front() != 0) {
    return Status::IoError("arena payload has corrupt set offsets");
  }
  for (std::uint64_t i = 0; i < capacity; ++i) {
    if ((*set_offsets)[i] > (*set_offsets)[i + 1]) {
      return Status::IoError("arena payload has non-monotone set offsets");
    }
  }
  if (!reader->GetVector(set_offsets->back(), flat)) {
    return Status::IoError("arena payload truncated in the flat set array");
  }
  for (VertexId v : *flat) {
    if (v >= num_vertices) {
      return Status::IoError("arena payload has out-of-range vertex ids");
    }
  }
  if (!reader->GetVector(capacity, per_set)) {
    return Status::IoError("arena payload truncated in counter deltas");
  }
  if (!reader->exhausted()) {
    return Status::IoError("arena payload has trailing bytes");
  }
  return Status::OK();
}

/// The Snapshot sections with their structural checks, like ParseRr.
Status ParseSnapshot(PayloadReader* reader, std::uint64_t capacity,
                     VertexId num_vertices,
                     std::vector<CondensedSnapshot>* snaps,
                     std::vector<SnapshotWarmth>* warmth,
                     std::vector<TraversalCounters>* per_snapshot) {
  snaps->resize(capacity);
  warmth->resize(capacity);
  auto read_dag = [&](CondensationDag* dag, std::uint32_t num_components) {
    if (!reader->GetVector(static_cast<std::uint64_t>(num_components) + 1,
                           &dag->offsets)) {
      return false;
    }
    if (dag->offsets.front() != 0) return false;
    for (std::uint32_t c = 0; c < num_components; ++c) {
      if (dag->offsets[c] > dag->offsets[c + 1]) return false;
    }
    if (!reader->GetVector(dag->offsets.back(), &dag->targets)) return false;
    for (std::uint32_t t : dag->targets) {
      if (t >= num_components) return false;
    }
    return true;
  };
  for (std::uint64_t i = 0; i < capacity; ++i) {
    std::uint32_t num_components = 0;
    CondensedSnapshot& snap = (*snaps)[i];
    const bool ok =
        reader->Get(&num_components) && num_components >= 1 &&
        num_components <= num_vertices &&
        reader->GetVector(num_vertices, &snap.comp_of) &&
        reader->GetVector(num_components, &snap.comp_size) &&
        read_dag(&snap.dag, num_components) &&
        read_dag(&snap.rev, num_components) &&
        reader->GetVector(num_components, &(*warmth)[i].bound) &&
        reader->GetVector(num_components, &(*warmth)[i].is_exact);
    if (!ok) {
      return Status::IoError("arena payload truncated or corrupt in world " +
                             std::to_string(i));
    }
    for (std::uint32_t c : snap.comp_of) {
      if (c >= num_components) {
        return Status::IoError("arena payload has out-of-range components");
      }
    }
  }
  if (!reader->GetVector(capacity, per_snapshot)) {
    return Status::IoError("arena payload truncated in counter deltas");
  }
  if (!reader->exhausted()) {
    return Status::IoError("arena payload has trailing bytes");
  }
  return Status::OK();
}

/// Reads a payload of `kind` once, running `parse` on the reader as the
/// bytes land if the manifest's capacity fits the file, and returns the
/// verdicts in their one order: size (Open), digest and header
/// (Verify), a capacity the file can hold (the header's, which Verify
/// has matched to the manifest's), then the structure `parse` found.
/// VerifyArena passes a parse that reads nothing.
template <typename Parse>
Status ReadPayload(const std::string& dir, const ArenaManifest& manifest,
                   std::uint32_t kind, Parse parse) {
  StatusOr<std::unique_ptr<PayloadReader>> opened =
      PayloadReader::Open(dir, manifest);
  if (!opened.ok()) return opened.status();
  PayloadReader& reader = *opened.value();
  Status parsed = CheckCapacity(kind, manifest.capacity, reader.size());
  if (parsed.ok()) parsed = parse(&reader);
  SOLDIST_RETURN_IF_ERROR(reader.Verify(manifest, kind));
  return parsed;
}

Status FinishSave(PayloadWriter* writer, ArenaManifest* manifest,
                  const std::string& dir) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::IoError("cannot create arena dir '" + dir +
                           "': " + ec.message());
  }
  manifest->version = kArenaFormatVersion;
  SOLDIST_RETURN_IF_ERROR(writer->Flush(dir + kPayloadFile,
                                        &manifest->payload_bytes,
                                        &manifest->checksum));
  // Manifest last: a crash mid-save leaves a manifest-less directory
  // that reads as kNotFound, not as a corrupt hit.
  return WriteManifest(*manifest, dir);
}

}  // namespace

StatusOr<ArenaManifest> ReadArenaManifest(const std::string& dir) {
  const std::string path = dir + kManifestFile;
  FaultInjector* inject = fault_injector();
  if (inject != nullptr) {
    SOLDIST_RETURN_IF_ERROR(inject->Check(FaultOp::kOpen, path));
  }
  std::ifstream in(path);
  if (!in) return Status::NotFound("no arena manifest at '" + path + "'");
  ArenaManifest manifest;
  manifest.version = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::size_t eq = line.find('=');
    if (eq == std::string::npos) {
      return Status::IoError("malformed manifest line '" + line + "' in '" +
                             path + "'");
    }
    const std::string key = line.substr(0, eq);
    const std::string value = line.substr(eq + 1);
    std::uint64_t number = 0;
    if (key == "kind") {
      manifest.kind = value;
    } else if (key == "workload") {
      manifest.workload = value;
    } else if (key == "stream") {
      manifest.stream = value;
    } else if (ParseU64(value, &number) &&
               (key != "format_version" ||
                number <= std::numeric_limits<std::uint32_t>::max())) {
      if (key == "format_version") {
        manifest.version = static_cast<std::uint32_t>(number);
      } else if (key == "seed") {
        manifest.seed = number;
      } else if (key == "capacity") {
        manifest.capacity = number;
      } else if (key == "num_vertices") {
        manifest.num_vertices = number;
      } else if (key == "payload_bytes") {
        manifest.payload_bytes = number;
      } else if (key == "checksum") {
        manifest.checksum = number;
      }  // unknown numeric keys: forward-compatible skip
    } else {
      return Status::IoError("malformed manifest value '" + line +
                             "' in '" + path + "'");
    }
  }
  if (manifest.kind.empty() || manifest.capacity == 0) {
    return Status::IoError("incomplete arena manifest at '" + path + "'");
  }
  return manifest;
}

Status VerifyArena(const std::string& dir) {
  StatusOr<ArenaManifest> manifest = ReadArenaManifest(dir);
  if (!manifest.ok()) return manifest.status();
  if (manifest.value().version != kArenaFormatVersion) {
    return Status::FailedPrecondition(
        "arena format version " + std::to_string(manifest.value().version) +
        " != " + std::to_string(kArenaFormatVersion));
  }
  std::uint32_t expected_kind = 0;
  if (manifest.value().kind == "rr") {
    expected_kind = kKindRr;
  } else if (manifest.value().kind == "snapshot") {
    expected_kind = kKindSnapshot;
  } else {
    return Status::FailedPrecondition("unknown arena kind '" +
                                      manifest.value().kind + "'");
  }
  // Size, whole-file checksum, and the binary header (magic / version /
  // kind / shape vs manifest), hashing the file one block at a time.
  // Deeper structural damage inside the sections is impossible past the
  // checksum unless the save itself was buggy — LoadArena still
  // validates structure at load time.
  return ReadPayload(dir, manifest.value(), expected_kind,
                     [](PayloadReader*) { return Status::OK(); });
}

Status SaveRrArena(const RrArena& arena, ArenaManifest manifest,
                   const std::string& dir) {
  if (!arena.is_flat()) {
    return Status::FailedPrecondition(
        "SaveRrArena requires a flat arena (save before ConvertStorage)");
  }
  const store::RrFlatPayload* payload = arena.storage().flat_payload();
  SOLDIST_CHECK(payload != nullptr);
  manifest.kind = "rr";
  manifest.capacity = arena.capacity();
  manifest.num_vertices = arena.num_vertices();
  PayloadWriter writer;
  writer.Put(PayloadHeader{.kind = kKindRr,
                           .num_vertices = arena.num_vertices(),
                           .capacity = arena.capacity()});
  writer.PutVector(payload->set_offsets);
  writer.PutVector(payload->flat);
  // The inverted index is NOT persisted — the load rebuilds it with the
  // same counting sort, byte-identically, at half the file size.
  writer.PutVector(PrefixDeltas(arena));
  return FinishSave(&writer, &manifest, dir);
}

StatusOr<std::shared_ptr<RrArena>> LoadRrArena(
    const std::string& dir, const ArenaManifest& expected) {
  StatusOr<ArenaManifest> manifest = ReadArenaManifest(dir);
  if (!manifest.ok()) return manifest.status();
  ArenaManifest want = expected;
  want.kind = "rr";
  SOLDIST_RETURN_IF_ERROR(MatchManifest(manifest.value(), want));
  const std::uint64_t capacity = manifest.value().capacity;
  const auto num_vertices =
      static_cast<VertexId>(manifest.value().num_vertices);
  std::vector<std::uint64_t> set_offsets;
  std::vector<VertexId> flat;
  std::vector<TraversalCounters> per_set;
  SOLDIST_RETURN_IF_ERROR(ReadPayload(
      dir, manifest.value(), kKindRr, [&](PayloadReader* reader) {
        return ParseRr(reader, capacity, num_vertices, &set_offsets, &flat,
                       &per_set);
      }));
  return std::make_shared<RrArena>(RrArena::FromParts(
      num_vertices, std::move(flat), std::move(set_offsets), per_set));
}

Status SaveSnapshotArena(const SnapshotArena& arena, ArenaManifest manifest,
                         const std::string& dir) {
  manifest.kind = "snapshot";
  manifest.capacity = arena.capacity();
  manifest.num_vertices = arena.num_vertices();
  PayloadWriter writer;
  writer.Put(PayloadHeader{.kind = kKindSnapshot,
                           .num_vertices = arena.num_vertices(),
                           .capacity = arena.capacity()});
  for (std::uint64_t i = 0; i < arena.capacity(); ++i) {
    const CondensedSnapshot& snap = arena.World(i);
    const SnapshotWarmth& warmth = arena.Warmth(i);
    const std::uint32_t num_components = snap.num_components();
    SOLDIST_CHECK(warmth.bound.size() == num_components);
    writer.Put(num_components);
    writer.PutVector(snap.comp_of);
    writer.PutVector(snap.comp_size);
    writer.PutVector(snap.dag.offsets);
    writer.PutVector(snap.dag.targets);
    writer.PutVector(snap.rev.offsets);
    writer.PutVector(snap.rev.targets);
    writer.PutVector(warmth.bound);
    writer.PutVector(warmth.is_exact);
  }
  writer.PutVector(PrefixDeltas(arena));
  return FinishSave(&writer, &manifest, dir);
}

StatusOr<std::shared_ptr<SnapshotArena>> LoadSnapshotArena(
    const std::string& dir, const ArenaManifest& expected) {
  StatusOr<ArenaManifest> manifest = ReadArenaManifest(dir);
  if (!manifest.ok()) return manifest.status();
  ArenaManifest want = expected;
  want.kind = "snapshot";
  SOLDIST_RETURN_IF_ERROR(MatchManifest(manifest.value(), want));
  const std::uint64_t capacity = manifest.value().capacity;
  const auto num_vertices =
      static_cast<VertexId>(manifest.value().num_vertices);
  std::vector<CondensedSnapshot> snaps;
  std::vector<SnapshotWarmth> warmth;
  std::vector<TraversalCounters> per_snapshot;
  SOLDIST_RETURN_IF_ERROR(ReadPayload(
      dir, manifest.value(), kKindSnapshot, [&](PayloadReader* reader) {
        return ParseSnapshot(reader, capacity, num_vertices, &snaps, &warmth,
                             &per_snapshot);
      }));
  return std::make_shared<SnapshotArena>(SnapshotArena::Restore(
      num_vertices, std::move(snaps), std::move(warmth), per_snapshot));
}

}  // namespace store
}  // namespace soldist
