// SamplingEngine: deterministic chunked sampling — the one stream family
// every sampler in this repo draws from.
//
// The paper's methodology runs every estimator T times with fresh PRNG
// states and compares the resulting solution distributions, so a parallel
// sampler must not silently change the experiment (cf. Lu et al.,
// "Refutations on 'Debunking the Myths of Influence Maximization'"). The
// engine therefore decouples the *randomness schedule* from the *thread
// schedule*:
//
//   * Work of `count` samples is split into fixed-size chunks;
//     chunk c covers sample indices [c*chunk_size, min((c+1)*chunk_size,
//     count)).
//   * Chunk c always draws from PRNG streams seeded with
//     DeriveSeed(master, c) — regardless of which worker executes it or
//     how many workers exist.
//   * Per-chunk outputs land in shards concatenated in chunk order. A run
//     that executes inline (one worker) appends every chunk to a single
//     shard — its chunks already run in index order — so it skips the
//     merge copy without changing a byte of the concatenation.
//
// Consequently the output of any build is a pure function of (master
// seed, count, chunk_size): byte-identical for 1 or N threads, including
// the default single-threaded options. Chunk results are accumulated per
// chunk and merged in chunk-index order, so even floating-point
// reductions stay bit-reproducible.
//
// The engine either borrows a shared ThreadPool (SamplingOptions::pool —
// the experiment harness passes its trial pool), owns a private one, or
// runs inline on the calling thread. Completion uses a per-Run latch
// rather than ThreadPool::Wait(), keeping the pool's single-waiter
// contract available to the caller.

#ifndef SOLDIST_SIM_SAMPLING_ENGINE_H_
#define SOLDIST_SIM_SAMPLING_ENGINE_H_

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "util/thread_pool.h"

namespace soldist {

/// \brief Cooperative cancellation flag for in-flight sampling builds.
///
/// Samplers poll `cancelled()` at chunk boundaries (and optionally per
/// set) and stop producing further work once it flips. Because every
/// sampling stream is prefix-closed, a cancelled build is not garbage:
/// the contiguous prefix of chunks that completed before the flip is
/// byte-identical to a direct build at that smaller capacity, which is
/// exactly what the serving layer hands out as a degraded answer.
///
/// A token may carry an optional deadline predicate (e.g. a
/// serve::Deadline) so builds self-cancel when a request budget runs
/// out without the caller having to watch from another thread. The
/// predicate must be thread-safe; once it fires the token latches.
class CancelToken {
 public:
  CancelToken() = default;
  explicit CancelToken(std::function<bool()> expired)
      : expired_(std::move(expired)) {}

  /// Latches the token; all future cancelled() calls return true.
  void Cancel() { flag_.store(true, std::memory_order_relaxed); }

  /// True once Cancel() was called or the deadline predicate fired.
  /// Relaxed ordering: samplers only use it to stop producing work, and
  /// the result is made deterministic downstream by truncating to the
  /// contiguous completed prefix.
  bool cancelled() const {
    if (flag_.load(std::memory_order_relaxed)) return true;
    if (expired_ && expired_()) {
      flag_.store(true, std::memory_order_relaxed);
      return true;
    }
    return false;
  }

 private:
  mutable std::atomic<bool> flag_{false};
  std::function<bool()> expired_;
};

/// \brief Sampling parallelism knob threaded through the estimator factory.
/// No field but chunk_size ever changes a sampled byte. A condensed
/// Snapshot build whose chunks would leave workers idle cuts them into
/// pieces that enter their chunk's stream mid-chunk, so it too spreads
/// over every worker (sim/snapshot_arena.h).
/// The work that follows a build runs on the same workers with the same
/// byte-identity at every width: every RR inverted index
/// (sim/inverted_index.h), and the condensed Snapshot backend's Init and
/// greedy rounds (world tiles of a fixed size, not chunk_size).
struct SamplingOptions {
  /// Worker count: 1 (default) runs the chunks inline on the calling
  /// thread, 0 = hardware concurrency, N >= 2 = N workers. A non-null
  /// `pool` overrides it (the pool's width then caps parallelism).
  int num_threads = 1;

  /// Samples per deterministic chunk. Smaller chunks balance load better;
  /// larger chunks amortize per-chunk sampler setup. The *value* changes
  /// which PRNG stream produces which sample, so hold it fixed when
  /// comparing runs (the thread count never matters).
  std::uint64_t chunk_size = 256;

  /// Optional shared pool (not owned). When null and num_threads != 1,
  /// each SamplingEngine owns a private pool of `num_threads`.
  ThreadPool* pool = nullptr;

  /// Optional cooperative cancel token (not owned). Samplers that honor
  /// it skip their remaining tasks once it fires — whole chunks, or the
  /// worlds of a SnapshotArena build task — but never sample 0, so at
  /// least one set or world always lands; the build then finalizes at the
  /// contiguous completed prefix. Null = never cancelled.
  CancelToken* cancel = nullptr;

  /// True when sampling asks for worker threads (a pool, or a width other
  /// than 1). Callers that could instead parallelize a coarser level —
  /// trials, batch specs — use it to pick one level; it never changes a
  /// sampled byte.
  bool SampleParallel() const { return num_threads != 1 || pool != nullptr; }
};

/// \brief Fans chunked sampling work out across a thread pool.
class SamplingEngine {
 public:
  /// One deterministic unit of work: sample indices [begin, end) driven by
  /// PRNG streams derived from `seed` = DeriveSeed(master, index).
  struct Chunk {
    std::uint64_t index;
    std::uint64_t begin;
    std::uint64_t end;
    std::uint64_t seed;
    /// Output shard this chunk appends to (< NumShards(count)): the chunk
    /// index when chunks may run concurrently, 0 for every chunk of an
    /// inline run, whose chunks execute in index order.
    std::uint64_t shard;
    /// Samples that shard holds once every chunk ran (reserve hint).
    std::uint64_t shard_size;
  };

  /// Chunk callback. `worker_slot` < num_workers() identifies a slot held
  /// exclusively for the duration of the call: chunks running concurrently
  /// always see distinct slots, so callers may keep per-slot scratch
  /// (samplers, visited markers) and reuse it across chunks without locks.
  /// Slot assignment is schedule-dependent — results must never depend on
  /// it; all determinism flows from the Chunk alone.
  using ChunkFn = std::function<void(const Chunk&, std::size_t worker_slot)>;

  /// Task callback of RunTasks: `task` < num_tasks, `worker_slot` as for
  /// ChunkFn.
  using TaskFn = std::function<void(std::uint64_t task,
                                    std::size_t worker_slot)>;

  explicit SamplingEngine(const SamplingOptions& options = {});

  SamplingEngine(const SamplingEngine&) = delete;
  SamplingEngine& operator=(const SamplingEngine&) = delete;

  /// Invokes fn once per chunk of [0, count), possibly concurrently, and
  /// blocks until all chunks are done. fn must write only to state owned
  /// by its chunk (e.g. shards[chunk.shard]) or its worker slot. Chunk
  /// seeds depend only on `master_seed` and the chunk index, never on the
  /// worker count.
  void Run(std::uint64_t master_seed, std::uint64_t count,
           const ChunkFn& fn);

  /// Invokes fn once per task of [0, num_tasks) on the workers Run would
  /// use (inline where Run would run inline) and blocks until all are
  /// done. For work its caller cuts — into ActiveWorkers() blocks, say —
  /// so its result must not depend on how many tasks there are: work
  /// that draws no randomness, or that draws from chunk streams it
  /// enters itself (SnapshotArena's build pieces).
  void RunTasks(std::uint64_t num_tasks, const TaskFn& fn);

  /// Number of chunks Run() will produce for `count` samples.
  std::uint64_t NumChunks(std::uint64_t count) const;

  /// Number of output shards a Run() over `count` samples from this thread
  /// fills: 1 when it runs inline, NumChunks(count) otherwise. Shard
  /// contents concatenated in order are the same either way.
  std::uint64_t NumShards(std::uint64_t count) const;

  std::uint64_t chunk_size() const { return chunk_size_; }

  /// Cuts the shards of a cancelled Run over `count` samples to their
  /// longest contiguous completed prefix and returns the samples kept.
  /// An empty shard (skipped chunk) or a short one (stopped mid-chunk)
  /// marks the cut; a short shard keeps what it produced, and a single
  /// inline shard already holds exactly the completed prefix.
  /// `size(shard)` counts a shard's samples. Because chunk c draws only
  /// from its own streams, the survivors equal a direct build at the
  /// returned count.
  template <typename Shard, typename SizeFn>
  std::uint64_t TruncateToCompletedPrefix(std::vector<Shard>* shards,
                                          std::uint64_t count,
                                          SizeFn size) const {
    std::uint64_t kept = 0;
    std::size_t s = 0;
    while (s < shards->size()) {
      const std::uint64_t produced = size((*shards)[s]);
      if (produced == 0) break;
      const std::uint64_t begin = s * chunk_size_;
      kept += produced;
      ++s;
      if (produced < std::min(begin + chunk_size_, count) - begin) break;
    }
    shards->resize(s);
    return kept;
  }

  /// The cancel token carried in from SamplingOptions (may be null).
  /// Chunk fns poll it to skip work once a request budget expires.
  const CancelToken* cancel() const { return cancel_; }

  /// Worker count of the underlying pool (1 when running inline).
  std::size_t num_workers() const {
    return pool_ != nullptr ? pool_->num_threads() : 1;
  }

  /// Workers a Run or RunTasks of two or more tasks from this thread
  /// keeps busy at once: num_workers(), or 1 when it runs inline (no
  /// pool, a one-worker pool, or a call from a pool worker).
  std::size_t ActiveWorkers() const {
    return RunsInline(2) ? 1 : num_workers();
  }

 private:
  /// Whether a Run over `num_chunks` chunks from this thread executes on
  /// the calling thread (nothing to fan out, or already on a pool worker).
  bool RunsInline(std::uint64_t num_chunks) const;
  Chunk MakeChunk(std::uint64_t master_seed, std::uint64_t index,
                  std::uint64_t count, bool inline_run) const;

  std::uint64_t chunk_size_;
  std::unique_ptr<ThreadPool> owned_pool_;
  ThreadPool* pool_;  // borrowed or owned_pool_.get(); null = inline
  const CancelToken* cancel_ = nullptr;  // borrowed, may be null
};

}  // namespace soldist

#endif  // SOLDIST_SIM_SAMPLING_ENGINE_H_
