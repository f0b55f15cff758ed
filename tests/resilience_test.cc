// The resilience primitives' contracts (serve/resilience.h) and the
// fault-injection grammar (store/fault_injection.h), all with injected
// clocks/sleeps so nothing here waits on the wall clock:
//  * Deadline: unlimited never expires; armed deadlines expire exactly
//    at their instant on the injected clock.
//  * RetryWithBackoff: retries ONLY kIoError, replays a deterministic
//    jittered schedule, and never sleeps past the deadline.
//  * AdmissionController: bounded in-flight tickets, immediate shedding
//    beyond the queue watermark, RAII release.
//  * FaultSpec::Parse round-trips valid specs and rejects bad input
//    with a Status, never an abort.
//  * Cooperative cancel — before the build or partway through, inline
//    or on a pool — truncates a sampled RR or snapshot arena to a
//    contiguous prefix that is byte-identical to a direct smaller build.
//  * ArenaCache admits cancelled (partial) builds at their actual τ,
//    upgrades them on the next full-τ request, prefers FULL arenas as
//    eviction victims, and refunds charged bytes exactly when a partial
//    entry that live views still pin is evicted.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/probability.h"
#include "serve/arena_cache.h"
#include "serve/resilience.h"
#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"
#include "sim/snapshot_arena.h"
#include "store/fault_injection.h"
#include "util/status.h"

namespace soldist {
namespace {

using serve::AdmissionController;
using serve::Deadline;
using serve::RetryPolicy;
using serve::RetryWithBackoff;

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

/// A hand-cranked clock: microseconds advance only when the test says.
struct FakeClock {
  std::uint64_t now_us = 0;
  serve::ClockMicrosFn Fn() {
    return [this] { return now_us; };
  }
};

TEST(DeadlineTest, UnlimitedNeverExpires) {
  Deadline deadline;
  EXPECT_TRUE(deadline.unlimited());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_micros(),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(DeadlineTest, ExpiresExactlyAtItsInstantOnInjectedClock) {
  FakeClock clock;
  Deadline deadline = Deadline::AfterMillis(5, clock.Fn());
  EXPECT_FALSE(deadline.unlimited());
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_micros(), 5000u);
  clock.now_us = 4999;
  EXPECT_FALSE(deadline.expired());
  EXPECT_EQ(deadline.remaining_micros(), 1u);
  clock.now_us = 5000;
  EXPECT_TRUE(deadline.expired());
  EXPECT_EQ(deadline.remaining_micros(), 0u);
}

TEST(RetryTest, BackoffScheduleIsDeterministicJitteredAndCapped) {
  RetryPolicy policy;
  policy.initial_backoff_us = 1000;
  policy.multiplier = 2.0;
  policy.max_backoff_us = 3000;
  // Same policy, same attempt → same sleep; jitter stays in [0.5, 1.0)
  // of the exponential envelope, capped at max_backoff_us.
  for (int attempt = 0; attempt < 4; ++attempt) {
    const std::uint64_t a = policy.BackoffMicros(attempt);
    const std::uint64_t b = policy.BackoffMicros(attempt);
    EXPECT_EQ(a, b) << "attempt " << attempt;
    const double envelope =
        std::min(1000.0 * (1 << attempt), 3000.0);
    EXPECT_GE(a, static_cast<std::uint64_t>(envelope * 0.5));
    EXPECT_LT(a, static_cast<std::uint64_t>(envelope));
  }
}

TEST(RetryTest, RetriesOnlyIoErrorAndCountsRetries) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  std::atomic<std::uint64_t> retries{0};
  std::vector<std::uint64_t> sleeps;
  auto sleep = [&](std::uint64_t us) { sleeps.push_back(us); };

  // Transient: fails twice with kIoError, then succeeds.
  int calls = 0;
  Status ok = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++calls;
        return calls < 3 ? Status::IoError("flaky") : Status::OK();
      },
      &retries, sleep);
  EXPECT_TRUE(ok.ok());
  EXPECT_EQ(calls, 3);
  EXPECT_EQ(retries.load(), 2u);
  EXPECT_EQ(sleeps.size(), 2u);

  // Permanent: a non-IO failure returns immediately, no retries.
  calls = 0;
  Status bad = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++calls;
        return Status::InvalidArgument("permanent");
      },
      &retries, sleep);
  EXPECT_EQ(bad.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(retries.load(), 2u);  // unchanged

  // Exhaustion: kIoError every time burns exactly max_attempts.
  calls = 0;
  Status exhausted = RetryWithBackoff(
      policy, Deadline(), [&] {
        ++calls;
        return Status::IoError("always");
      });
  EXPECT_EQ(exhausted.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, policy.max_attempts);
}

TEST(RetryTest, NeverSleepsPastTheDeadline) {
  RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_us = 4000;
  policy.multiplier = 1.0;
  FakeClock clock;
  Deadline deadline = Deadline::AfterMillis(10, clock.Fn());
  int calls = 0;
  std::uint64_t slept = 0;
  // The fake sleep advances the clock, so the third-or-so backoff runs
  // out the 10ms budget and the loop stops with the last error instead
  // of burning all 10 attempts.
  Status status = RetryWithBackoff(
      policy, deadline,
      [&] {
        ++calls;
        return Status::IoError("down");
      },
      nullptr, [&](std::uint64_t us) {
        slept += us;
        clock.now_us += us;
      });
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_LT(calls, policy.max_attempts);
  EXPECT_LE(slept, 10000u);  // each sleep was clipped to remaining time
}

// ---------------------------------------------------------------------
// RetryBudget (ISSUE 10): one attempt pool shared across every
// retryable IO op of a request, so a request whose load burned its
// retries cannot burn them all AGAIN on its save.
// ---------------------------------------------------------------------

TEST(RetryBudgetTest, SharedPoolCapsAttemptsAcrossAnOpPair) {
  RetryPolicy policy;
  policy.max_attempts = 3;
  auto no_sleep = [](std::uint64_t) {};
  serve::RetryBudget budget(policy.request_budget);  // default: 3 + 1

  // First op of the request: down hard, burns its full 3 attempts.
  int first_calls = 0;
  Status first = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++first_calls;
        return Status::IoError("load path down");
      },
      nullptr, no_sleep, &budget);
  EXPECT_EQ(first.code(), StatusCode::kIoError);
  EXPECT_EQ(first_calls, 3);
  EXPECT_EQ(budget.remaining(), 1);

  // Second op of the SAME request: the pool guarantees exactly one
  // attempt — it runs (and here succeeds) but cannot retry.
  int second_calls = 0;
  Status second = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++second_calls;
        return Status::OK();
      },
      nullptr, no_sleep, &budget);
  EXPECT_TRUE(second.ok());
  EXPECT_EQ(second_calls, 1);
  EXPECT_EQ(budget.remaining(), 0);

  // A third op finds the pool empty before its first attempt: an
  // explicit Unavailable, never a silent zero-attempt "success".
  int third_calls = 0;
  Status third = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++third_calls;
        return Status::OK();
      },
      nullptr, no_sleep, &budget);
  EXPECT_EQ(third.code(), StatusCode::kUnavailable);
  EXPECT_EQ(third_calls, 0);
}

TEST(RetryBudgetTest, ExhaustionMidOpReturnsTheLastRealError) {
  RetryPolicy policy;
  policy.max_attempts = 5;
  auto no_sleep = [](std::uint64_t) {};
  serve::RetryBudget budget(2);
  int calls = 0;
  // Fails forever; the budget (not max_attempts) stops the loop, and
  // the caller sees the op's own error, not a budget artifact.
  Status status = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++calls;
        return Status::IoError("still down");
      },
      nullptr, no_sleep, &budget);
  EXPECT_EQ(status.code(), StatusCode::kIoError);
  EXPECT_EQ(calls, 2);
}

TEST(RetryBudgetTest, NullBudgetLeavesRetryBehaviorUnchanged) {
  RetryPolicy policy;
  policy.max_attempts = 4;
  auto no_sleep = [](std::uint64_t) {};
  int calls = 0;
  Status status = RetryWithBackoff(
      policy, Deadline(),
      [&] {
        ++calls;
        return calls < 3 ? Status::IoError("flaky") : Status::OK();
      },
      nullptr, no_sleep, /*budget=*/nullptr);
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(calls, 3);
}

TEST(AdmissionTest, BoundsInflightShedsBeyondQueueAndReleasesOnDrop) {
  AdmissionController admission(/*max_inflight=*/2, /*max_queue=*/0);
  auto t1 = admission.Admit(Deadline());
  auto t2 = admission.Admit(Deadline());
  ASSERT_TRUE(t1.ok());
  ASSERT_TRUE(t2.ok());
  EXPECT_EQ(admission.inflight(), 2);
  // No queue: the third caller is shed immediately with kUnavailable
  // (even with an unlimited deadline — shedding is load, not time).
  auto shed = admission.Admit(Deadline());
  EXPECT_EQ(shed.status().code(), StatusCode::kUnavailable);
  {
    AdmissionController::Ticket dropped = std::move(t1).value();
  }
  EXPECT_EQ(admission.inflight(), 1);
  auto t3 = admission.Admit(Deadline());
  EXPECT_TRUE(t3.ok());
}

TEST(AdmissionTest, QueuedCallerGetsTheSlotWhenItFrees) {
  AdmissionController admission(/*max_inflight=*/1, /*max_queue=*/1);
  auto held = admission.Admit(Deadline());
  ASSERT_TRUE(held.ok());
  std::atomic<bool> admitted{false};
  std::thread waiter([&] {
    auto ticket = admission.Admit(Deadline::AfterMillis(30000));
    admitted.store(ticket.ok());
  });
  // Give the waiter time to queue, then free the slot; the queued
  // caller must be admitted (not shed, not timed out).
  while (admission.queued() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  { AdmissionController::Ticket dropped = std::move(held).value(); }
  waiter.join();
  EXPECT_TRUE(admitted.load());
}

TEST(AdmissionTest, ZeroInflightDisablesAdmissionEntirely) {
  AdmissionController admission(/*max_inflight=*/0, /*max_queue=*/0);
  std::vector<AdmissionController::Ticket> tickets;
  for (int i = 0; i < 64; ++i) {
    auto ticket = admission.Admit(Deadline());
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(ticket).value());
  }
}

TEST(FaultSpecTest, ParsesAndRoundTripsValidSpecs) {
  auto spec = store::FaultSpec::Parse(
      "error-rate=0.1,seed=7,torn-write,slow-read-us=250");
  ASSERT_TRUE(spec.ok()) << spec.status().ToString();
  EXPECT_DOUBLE_EQ(spec.value().error_rate, 0.1);
  EXPECT_EQ(spec.value().seed, 7u);
  EXPECT_TRUE(spec.value().torn_write);
  EXPECT_FALSE(spec.value().short_read);
  EXPECT_EQ(spec.value().slow_read_us, 250u);
  EXPECT_TRUE(spec.value().Enabled());
  // Canonical form re-parses to the same spec.
  auto again = store::FaultSpec::Parse(spec.value().ToString());
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().ToString(), spec.value().ToString());
}

TEST(FaultSpecTest, RejectsBadInputWithStatusNotAbort) {
  for (const char* bad :
       {"", "error-rate=1.5", "error-rate=x", "error-every=0",
        "error-every=-3", "torn-write=yes", "short-read=1", "seed=",
        "frequency=0.1", "slow-read-us=abc", "error-rate"}) {
    auto spec = store::FaultSpec::Parse(bad);
    EXPECT_FALSE(spec.ok()) << "accepted '" << bad << "'";
    EXPECT_EQ(spec.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FaultSpecTest, ErrorEveryIsDeterministicAndRateIsSeedStable) {
  store::FaultSpec spec;
  spec.error_every = 3;
  store::FaultInjector every(spec);
  int failures = 0;
  for (int i = 0; i < 9; ++i) {
    if (!every.Check(store::FaultOp::kRead, "x").ok()) ++failures;
  }
  EXPECT_EQ(failures, 3);  // ops 3, 6, 9 exactly
  // Same seed → same decision sequence; the draw stream is pure.
  store::FaultSpec rate;
  rate.error_rate = 0.5;
  rate.seed = 11;
  store::FaultInjector a(rate), b(rate);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(a.Check(store::FaultOp::kWrite, "x").ok(),
              b.Check(store::FaultOp::kWrite, "x").ok())
        << "op " << i;
  }
}

void ExpectCountersEq(const TraversalCounters& a,
                      const TraversalCounters& b) {
  EXPECT_EQ(a.vertices, b.vertices);
  EXPECT_EQ(a.edges, b.edges);
  EXPECT_EQ(a.sample_vertices, b.sample_vertices);
  EXPECT_EQ(a.sample_edges, b.sample_edges);
}

TEST(ResilienceCancelTest, CancelledEngineBuildIsAPrefixOfTheFullBuild) {
  InfluenceGraph ig = KarateUc01();
  // A pre-fired token: every chunk after the global first set skips, so
  // the build truncates to set 0 — and that one set must be
  // byte-identical to the full build's set 0 (prefix-closed streams).
  CancelToken cancelled;
  cancelled.Cancel();
  SamplingOptions sampling = Threads(1, 16);
  sampling.cancel = &cancelled;
  RrArena partial = RrArena::SampleIc(ig, 7, 96, sampling);
  ASSERT_GE(partial.capacity(), 1u);
  ASSERT_LT(partial.capacity(), 96u);

  RrArena full = RrArena::SampleIc(ig, 7, 96, Threads(1, 16));
  ASSERT_EQ(full.capacity(), 96u);
  for (std::uint64_t i = 0; i < partial.capacity(); ++i) {
    std::span<const VertexId> p = partial.Set(i);
    std::span<const VertexId> f = full.Set(i);
    EXPECT_TRUE(std::equal(p.begin(), p.end(), f.begin(), f.end()))
        << "set " << i;
  }

  // A token that fires on its n-th poll cancels partway through a chunk.
  // Whatever the cut (schedule-dependent at width 2), the partial arena
  // must be byte-identical to a direct build at its capacity — at width
  // 1 that is the single-shard inline path.
  for (int threads : {1, 2}) {
    for (int n : {5, 20, 50}) {
      std::atomic<int> polls{0};
      CancelToken token([&polls, n] { return polls.fetch_add(1) + 1 >= n; });
      SamplingOptions partway = Threads(threads, 16);
      partway.cancel = &token;
      RrArena rr = RrArena::SampleIc(ig, 7, 96, partway);
      ASSERT_GE(rr.capacity(), 1u);
      ASSERT_LT(rr.capacity(), 96u) << "threads=" << threads << " n=" << n;
      RrArena direct =
          RrArena::SampleIc(ig, 7, rr.capacity(), Threads(threads, 16));
      EXPECT_EQ(rr.ContentChecksum(), direct.ContentChecksum())
          << "threads=" << threads << " n=" << n;
      ExpectCountersEq(rr.PrefixCounters(rr.capacity()),
                       direct.PrefixCounters(direct.capacity()));

      polls = 0;
      CancelToken snap_token(
          [&polls, n] { return polls.fetch_add(1) + 1 >= n; });
      partway.cancel = &snap_token;
      SnapshotArena snap = SnapshotArena::Sample(ig, 7, 96, partway);
      ASSERT_GE(snap.capacity(), 1u);
      ASSERT_LT(snap.capacity(), 96u) << "threads=" << threads << " n=" << n;
      SnapshotArena snap_direct =
          SnapshotArena::Sample(ig, 7, snap.capacity(), Threads(threads, 16));
      EXPECT_EQ(snap.ContentChecksum(), snap_direct.ContentChecksum())
          << "threads=" << threads << " n=" << n;
      ExpectCountersEq(snap.PrefixCounters(snap.capacity()),
                       snap_direct.PrefixCounters(snap_direct.capacity()));
    }
  }
}

TEST(ResilienceCancelTest, UncancelledTokenChangesNothing) {
  InfluenceGraph ig = KarateUc01();
  CancelToken idle;
  SamplingOptions sampling = Threads(2, 16);
  sampling.cancel = &idle;
  RrArena with_token = RrArena::SampleIc(ig, 7, 96, sampling);
  RrArena without = RrArena::SampleIc(ig, 7, 96, Threads(2, 16));
  ASSERT_EQ(with_token.capacity(), 96u);
  ASSERT_EQ(with_token.capacity(), without.capacity());
  for (std::uint64_t i = 0; i < 96; ++i) {
    std::span<const VertexId> a = with_token.Set(i);
    std::span<const VertexId> b = without.Set(i);
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()));
  }
}

// ---------------------------------------------------------------------
// ArenaCache under partial (deadline-cancelled) builds.
// ---------------------------------------------------------------------

serve::ArenaCache::ArenaPtr MakeArena(const InfluenceGraph& ig,
                                      std::uint64_t capacity) {
  return std::make_shared<RrArena>(
      RrArena::SampleIc(ig, 7, capacity, Threads(1, 64)));
}

TEST(ResilienceCacheTest, PartialBuildAdmitsAtActualTauAndUpgrades) {
  InfluenceGraph ig = KarateUc01();
  serve::ArenaCache cache(/*budget_bytes=*/0);
  // Builder "cancelled" at 8 of 64 sets.
  auto partial = cache.GetOrBuild(
      "k", 64, [&](std::uint64_t) { return MakeArena(ig, 8); });
  EXPECT_EQ(partial->capacity(), 8u);
  EXPECT_EQ(cache.stats().partial_arenas, 1u);
  // A full-τ probe misses (no silent short answers) but the prefix IS
  // resident for degraded serving.
  EXPECT_EQ(cache.TryGet("k", 64), nullptr);
  EXPECT_EQ(cache.TryGet("k", 8), partial);
  EXPECT_EQ(cache.LookupResident("k"), partial);
  // The next full request upgrades: fresh build at 64, partial retired.
  auto full = cache.GetOrBuild(
      "k", 64, [&](std::uint64_t capacity) { return MakeArena(ig, capacity); });
  EXPECT_EQ(full->capacity(), 64u);
  EXPECT_EQ(cache.stats().partial_arenas, 0u);
  EXPECT_EQ(cache.TryGet("k", 64), full);
}

TEST(ResilienceCacheTest, EvictionPrefersFullArenasOverPartialPrefixes) {
  InfluenceGraph ig = KarateUc01();
  const std::uint64_t unit = MakeArena(ig, 32)->ResidentBytes();
  // Budget holds ~2 arenas. Admit the partial FIRST so it sits at the
  // LRU tail (the default victim position), then two full arenas.
  serve::ArenaCache cache(2 * unit + unit / 2);
  auto partial = cache.GetOrBuild(
      "degraded", 64, [&](std::uint64_t) { return MakeArena(ig, 32); });
  ASSERT_EQ(cache.stats().partial_arenas, 1u);
  (void)cache.GetOrBuild(
      "full-a", 32, [&](std::uint64_t c) { return MakeArena(ig, c); });
  (void)cache.GetOrBuild(
      "full-b", 32, [&](std::uint64_t c) { return MakeArena(ig, c); });
  serve::ArenaCache::Stats stats = cache.stats();
  EXPECT_GE(stats.evictions, 1u);
  // The LRU-tail partial was skipped in favor of the older FULL victim:
  // the degraded prefix is still resident.
  EXPECT_EQ(cache.stats().partial_arenas, 1u);
  EXPECT_EQ(cache.LookupResident("degraded"), partial);
}

TEST(ResilienceCacheTest, ChargedBytesRefundExactWhenDegradedViewOutlives) {
  InfluenceGraph ig = KarateUc01();
  const std::uint64_t unit = MakeArena(ig, 32)->ResidentBytes();
  serve::ArenaCache cache(unit + unit / 2);  // holds one arena + slack
  // A degraded "view" (this shared_ptr) pins the partial arena.
  auto degraded_view = cache.GetOrBuild(
      "degraded", 64, [&](std::uint64_t) { return MakeArena(ig, 32); });
  const std::uint64_t charged = cache.stats().resident_bytes;
  EXPECT_EQ(charged, degraded_view->ResidentBytes());
  // Two more full arenas blow the budget; the partial is the only other
  // victim (full ones protect the freshly served key), so it eventually
  // goes — while degraded_view still holds the arena alive.
  (void)cache.GetOrBuild(
      "full-a", 32, [&](std::uint64_t c) { return MakeArena(ig, c); });
  (void)cache.GetOrBuild(
      "full-b", 32, [&](std::uint64_t c) { return MakeArena(ig, c); });
  serve::ArenaCache::Stats stats = cache.stats();
  // The ledger must hold exactly the charges of the entries still
  // mapped — each eviction refunded exactly what it charged, even
  // though the degraded view keeps its arena's memory genuinely alive.
  EXPECT_EQ(stats.resident_arenas, 1u);
  EXPECT_EQ(stats.resident_bytes, unit);
  EXPECT_EQ(stats.partial_arenas, 0u);
  // The pinned arena is unchanged and still answers.
  EXPECT_EQ(degraded_view->capacity(), 32u);
}

}  // namespace
}  // namespace soldist
