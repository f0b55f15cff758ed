#include "sim/sampling_engine.h"

#include <algorithm>
#include <condition_variable>
#include <mutex>

#include "random/splitmix64.h"
#include "util/logging.h"

namespace soldist {

SamplingEngine::SamplingEngine(const SamplingOptions& options)
    : chunk_size_(options.chunk_size), cancel_(options.cancel) {
  SOLDIST_CHECK(chunk_size_ >= 1);
  SOLDIST_CHECK(options.num_threads >= 0);
  if (options.pool != nullptr) {
    pool_ = options.pool;
  } else if (options.num_threads == 1) {
    pool_ = nullptr;  // inline execution on the calling thread
  } else {
    owned_pool_ = std::make_unique<ThreadPool>(
        static_cast<std::size_t>(options.num_threads));
    pool_ = owned_pool_.get();
  }
}

std::uint64_t SamplingEngine::NumChunks(std::uint64_t count) const {
  return (count + chunk_size_ - 1) / chunk_size_;
}

bool SamplingEngine::RunsInline(std::uint64_t num_chunks) const {
  // Submitting and latching from a pool worker would idle that worker.
  return pool_ == nullptr || pool_->num_threads() <= 1 || num_chunks <= 1 ||
         pool_->InWorkerThread();
}

std::uint64_t SamplingEngine::NumShards(std::uint64_t count) const {
  const std::uint64_t num_chunks = NumChunks(count);
  return RunsInline(num_chunks) ? std::min<std::uint64_t>(num_chunks, 1)
                                : num_chunks;
}

SamplingEngine::Chunk SamplingEngine::MakeChunk(std::uint64_t master_seed,
                                                std::uint64_t index,
                                                std::uint64_t count,
                                                bool inline_run) const {
  Chunk chunk;
  chunk.index = index;
  chunk.begin = index * chunk_size_;
  chunk.end = std::min(chunk.begin + chunk_size_, count);
  chunk.seed = DeriveSeed(master_seed, index);
  chunk.shard = inline_run ? 0 : index;
  chunk.shard_size = inline_run ? count : chunk.end - chunk.begin;
  return chunk;
}

void SamplingEngine::Run(std::uint64_t master_seed, std::uint64_t count,
                         const ChunkFn& fn) {
  const std::uint64_t num_chunks = NumChunks(count);
  const bool inline_run = RunsInline(num_chunks);
  RunTasks(num_chunks, [&](std::uint64_t c, std::size_t slot) {
    fn(MakeChunk(master_seed, c, count, inline_run), slot);
  });
}

void SamplingEngine::RunTasks(std::uint64_t num_tasks, const TaskFn& fn) {
  if (num_tasks == 0) return;
  if (RunsInline(num_tasks)) {
    for (std::uint64_t t = 0; t < num_tasks; ++t) fn(t, /*worker_slot=*/0);
    return;
  }
  // Per-call completion latch: the pool's Wait() drains *all* in-flight
  // work and allows only a single waiter, whereas this call must be able
  // to coexist with other users of a shared pool. The same mutex guards
  // the worker-slot freelist: at most pool-width tasks run concurrently,
  // so a slot popped before fn and pushed after is exclusive for the call.
  std::mutex mutex;
  std::condition_variable done;
  std::uint64_t remaining = num_tasks;
  std::vector<std::size_t> free_slots(pool_->num_threads());
  for (std::size_t s = 0; s < free_slots.size(); ++s) free_slots[s] = s;
  for (std::uint64_t t = 0; t < num_tasks; ++t) {
    pool_->Submit([&, t] {
      std::size_t slot;
      {
        std::unique_lock<std::mutex> lock(mutex);
        SOLDIST_CHECK(!free_slots.empty());
        slot = free_slots.back();
        free_slots.pop_back();
      }
      fn(t, slot);
      std::unique_lock<std::mutex> lock(mutex);
      free_slots.push_back(slot);
      if (--remaining == 0) done.notify_one();
    });
  }
  std::unique_lock<std::mutex> lock(mutex);
  done.wait(lock, [&] { return remaining == 0; });
}

}  // namespace soldist
