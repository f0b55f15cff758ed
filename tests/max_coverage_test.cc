// Tests for the lazy-greedy max-coverage solver, including a
// differential check of the word-packed engine against the heap engine it
// replaced (kept below as ReferenceGreedyMaxCoverage).

#include <gtest/gtest.h>

#include <algorithm>
#include <queue>
#include <string>
#include <vector>

#include "random/rng.h"
#include "sim/max_coverage.h"
#include "sim/rr_sampler.h"

namespace soldist {
namespace {

/// The heap implementation the word-packed engine replaced, kept here
/// verbatim as the differential-test baseline: same seeds, covered
/// counts, smaller-id tie-breaking, smallest-id zero-gain fill and
/// round-boundary cancel.
MaxCoverageResult ReferenceGreedyMaxCoverage(
    const store::RrFlatPayload& collection, int k,
    const CancelToken* cancel) {
  SOLDIST_CHECK(k >= 1);
  const VertexId n = collection.num_vertices();
  SOLDIST_CHECK(static_cast<VertexId>(k) <= n);

  std::vector<std::uint32_t> cover_count(n, 0);
  for (std::uint64_t set_id = 0; set_id < collection.size(); ++set_id) {
    for (VertexId v : collection.Set(set_id)) ++cover_count[v];
  }
  std::vector<std::uint8_t> set_active(collection.size(), 1);

  struct Entry {
    std::uint32_t gain;
    VertexId vertex;
    int round;
    bool operator<(const Entry& other) const {
      if (gain != other.gain) return gain < other.gain;
      return vertex > other.vertex;  // smaller id wins ties
    }
  };
  std::priority_queue<Entry> heap;
  for (VertexId v = 0; v < n; ++v) {
    if (cover_count[v] > 0) heap.push({cover_count[v], v, 0});
  }

  MaxCoverageResult result;
  result.seeds.reserve(k);
  std::vector<std::uint8_t> chosen(n, 0);
  VertexId fill_cursor = 0;
  bool exhausted = false;  // every remaining gain is 0 for good
  for (int round = 0; round < k; ++round) {
    // Same round-boundary cancel as the packed engine, so the
    // differential tests stay valid under a firing token.
    if (cancel != nullptr && round > 0 && cancel->cancelled()) {
      result.completed = false;
      break;
    }
    bool selected = false;
    while (!exhausted && !heap.empty()) {
      Entry top = heap.top();
      heap.pop();
      if (top.round != round) {
        top.gain = cover_count[top.vertex];
        if (top.gain == 0) continue;  // gains never grow: drop for good
        top.round = round;
        heap.push(top);
        continue;
      }
      for (std::uint64_t set_id : collection.InvertedList(top.vertex)) {
        if (!set_active[set_id]) continue;
        set_active[set_id] = 0;
        ++result.covered;
        for (VertexId w : collection.Set(set_id)) --cover_count[w];
      }
      result.seeds.push_back(top.vertex);
      chosen[top.vertex] = 1;
      selected = true;
      break;
    }
    if (selected) continue;
    exhausted = true;
    while (chosen[fill_cursor]) ++fill_cursor;
    result.seeds.push_back(fill_cursor);
    chosen[fill_cursor] = 1;
  }
  return result;
}

/// Both engines behind one signature, for the differential tests.
using Engine = MaxCoverageResult (*)(const store::RrFlatPayload&, int,
                                     const CancelToken*);

MaxCoverageResult PackedEngine(const store::RrFlatPayload& collection, int k,
                               const CancelToken* cancel) {
  return GreedyMaxCoverage(collection, k, cancel);
}

/// An indexed payload of `sets` in order, merged from one shard.
store::RrFlatPayload MakeCollection(
    VertexId n, const std::vector<std::vector<VertexId>>& sets) {
  std::vector<RrShard> shards(1);
  shards[0].offsets.push_back(0);
  for (const auto& set : sets) {
    shards[0].flat.insert(shards[0].flat.end(), set.begin(), set.end());
    shards[0].offsets.push_back(shards[0].flat.size());
  }
  return MergeRrShards(n, std::move(shards), /*engine=*/nullptr);
}

TEST(MaxCoverageTest, SingleBestVertex) {
  auto collection = MakeCollection(4, {{0, 1}, {0, 2}, {0, 3}, {1}});
  auto result = GreedyMaxCoverage(collection, 1);
  EXPECT_EQ(result.seeds, (std::vector<VertexId>{0}));
  EXPECT_EQ(result.covered, 3u);
  EXPECT_DOUBLE_EQ(result.Fraction(collection.size()), 0.75);
}

TEST(MaxCoverageTest, GreedyTakesComplementarySecond) {
  // Vertex 0 covers {A,B}; vertex 1 covers {B,C}; vertex 2 covers {D}.
  // After 0, the best marginal is 2 (covers D) vs 1 (only C)... both 1;
  // tie goes to smaller id = 1.
  auto collection = MakeCollection(3, {{0}, {0, 1}, {1}, {2}});
  auto result = GreedyMaxCoverage(collection, 2);
  ASSERT_EQ(result.seeds.size(), 2u);
  EXPECT_EQ(result.seeds[0], 0u);   // covers sets 0,1 (2 sets)
  EXPECT_EQ(result.seeds[1], 1u);   // marginal 1 (set 2), ties with 2
  EXPECT_EQ(result.covered, 3u);
}

TEST(MaxCoverageTest, FullCoverageStopsGaining) {
  auto collection = MakeCollection(3, {{0}, {0}});
  auto result = GreedyMaxCoverage(collection, 3);
  EXPECT_EQ(result.covered, 2u);
  EXPECT_EQ(result.seeds.size(), 3u);  // still returns k seeds
  EXPECT_EQ(result.seeds[0], 0u);
}

TEST(MaxCoverageTest, DeterministicTieBreakSmallerId) {
  auto collection = MakeCollection(5, {{2}, {4}});
  auto result = GreedyMaxCoverage(collection, 1);
  EXPECT_EQ(result.seeds[0], 2u);  // 2 and 4 tie at gain 1
}

TEST(MaxCoverageTest, EmptyCollection) {
  auto collection = MakeCollection(3, {});
  auto result = GreedyMaxCoverage(collection, 2);
  EXPECT_EQ(result.covered, 0u);
  EXPECT_EQ(result.seeds.size(), 2u);
  EXPECT_DOUBLE_EQ(result.Fraction(0), 0.0);
}

TEST(MaxCoverageTest, MatchesBruteForceOnSmallInstances) {
  // Greedy is (1−1/e)-optimal; on this instance it is exactly optimal.
  auto collection =
      MakeCollection(4, {{0, 1}, {1, 2}, {2, 3}, {3, 0}, {1}, {3}});
  auto result = GreedyMaxCoverage(collection, 2);
  EXPECT_EQ(result.covered, 6u);  // {1,3} covers all six sets
  std::vector<VertexId> sorted = result.seeds;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, (std::vector<VertexId>{1, 3}));
}

void ExpectImplsAgree(const store::RrFlatPayload& collection, int k,
                      const std::string& label) {
  MaxCoverageResult packed = GreedyMaxCoverage(collection, k);
  MaxCoverageResult reference =
      ReferenceGreedyMaxCoverage(collection, k, nullptr);
  EXPECT_EQ(packed.seeds, reference.seeds) << label << " k=" << k;
  EXPECT_EQ(packed.covered, reference.covered) << label << " k=" << k;
}

TEST(MaxCoverageTest, WordPackedMatchesReferenceOnEdgeCases) {
  // All-empty sets: every gain is zero from the start, so all k rounds
  // are the smallest-id zero-gain fill.
  auto all_empty = MakeCollection(5, {{}, {}, {}});
  for (int k : {1, 3, 5}) ExpectImplsAgree(all_empty, k, "all-empty");

  // Duplicate RR sets: covering one copy must cover (and count) all of
  // them, and the duplicates' members tie exactly.
  auto duplicates =
      MakeCollection(6, {{1, 2}, {1, 2}, {1, 2}, {4}, {4}, {}, {2, 4}});
  for (int k : {1, 2, 4, 6}) ExpectImplsAgree(duplicates, k, "duplicates");

  // Exactly 64 and 65 sets: the bitmap's word boundary.
  std::vector<std::vector<VertexId>> word_sets;
  for (int i = 0; i < 65; ++i) {
    word_sets.push_back({static_cast<VertexId>(i % 7)});
  }
  auto word_edge = MakeCollection(7, word_sets);
  for (int k : {1, 4, 7}) ExpectImplsAgree(word_edge, k, "word-boundary");
}

TEST(MaxCoverageTest, WordPackedMatchesReferenceOnRandomCollections) {
  // Randomized differential sweep, biased toward the nasty shapes: small
  // vertex ranges force ties, empty sets appear with probability ~1/4,
  // and every third set duplicates the previous one.
  Rng rng(20260731);
  for (int trial = 0; trial < 60; ++trial) {
    const VertexId n =
        static_cast<VertexId>(2 + rng.UniformInt(20));  // 2..21
    const int num_sets = static_cast<int>(rng.UniformInt(80));
    std::vector<std::vector<VertexId>> sets;
    std::vector<VertexId> prev;
    for (int s = 0; s < num_sets; ++s) {
      std::vector<VertexId> set;
      if (s % 3 == 2 && !prev.empty()) {
        set = prev;  // exact duplicate of the previous set
      } else if (rng.UniformInt(4) != 0) {
        const int len = 1 + static_cast<int>(rng.UniformInt(6));
        std::vector<std::uint8_t> used(n, 0);
        for (int j = 0; j < len; ++j) {
          auto v = static_cast<VertexId>(rng.UniformInt(n));
          if (!used[v]) {
            used[v] = 1;
            set.push_back(v);
          }
        }
      }  // else: empty set
      sets.push_back(set);
      prev = set;
    }
    const store::RrFlatPayload collection = MakeCollection(n, sets);
    for (int k : {1, 2, static_cast<int>(n)}) {
      ExpectImplsAgree(collection, k,
                       "trial " + std::to_string(trial) + " n=" +
                           std::to_string(n) + " sets=" +
                           std::to_string(num_sets));
    }
  }
}

// ---------------------------------------------------------------------
// Deadline-aware CELF (ISSUE 10): a CancelToken stops selection BETWEEN
// rounds; the completed r-round prefix is byte-identical to a direct
// k = r solve because greedy selection is prefix-consistent.
// ---------------------------------------------------------------------

store::RrFlatPayload CancelFixture() {
  Rng rng(99);
  std::vector<std::vector<VertexId>> sets;
  for (int i = 0; i < 40; ++i) {
    std::vector<VertexId> set;
    for (VertexId v = 0; v < 16; ++v) {
      if (rng.UniformInt(10) < 3) set.push_back(v);
    }
    if (set.empty()) set.push_back(static_cast<VertexId>(rng.UniformInt(16)));
    sets.push_back(set);
  }
  return MakeCollection(16, sets);
}

TEST(MaxCoverageCancelTest, CancelBetweenRoundsIsAByteIdenticalPrefix) {
  const store::RrFlatPayload collection = CancelFixture();
  for (int fire_after : {1, 2, 4}) {
    for (Engine engine : {PackedEngine, ReferenceGreedyMaxCoverage}) {
      int checks = 0;
      CancelToken cancel([&] { return ++checks >= fire_after; });
      MaxCoverageResult cancelled = engine(collection, 8, &cancel);
      EXPECT_FALSE(cancelled.completed);
      ASSERT_EQ(cancelled.seeds.size(),
                static_cast<std::size_t>(fire_after));
      MaxCoverageResult direct = engine(collection, fire_after, nullptr);
      EXPECT_TRUE(direct.completed);
      EXPECT_EQ(cancelled.seeds, direct.seeds)
          << "fire_after=" << fire_after;
      EXPECT_EQ(cancelled.covered, direct.covered)
          << "fire_after=" << fire_after;
    }
  }
}

TEST(MaxCoverageCancelTest, PreFiredTokenStillSelectsTheFirstSeed) {
  const store::RrFlatPayload collection = CancelFixture();
  CancelToken cancel;
  cancel.Cancel();
  MaxCoverageResult result = GreedyMaxCoverage(collection, 5, &cancel);
  EXPECT_FALSE(result.completed);
  ASSERT_EQ(result.seeds.size(), 1u) << "round 0 always lands";
  MaxCoverageResult direct = GreedyMaxCoverage(collection, 1);
  EXPECT_EQ(result.seeds, direct.seeds);
  EXPECT_EQ(result.covered, direct.covered);
}

TEST(MaxCoverageCancelTest, UnfiredTokenChangesNothing) {
  const store::RrFlatPayload collection = CancelFixture();
  CancelToken cancel;
  MaxCoverageResult with = GreedyMaxCoverage(collection, 6, &cancel);
  MaxCoverageResult without = GreedyMaxCoverage(collection, 6);
  EXPECT_TRUE(with.completed);
  EXPECT_EQ(with.seeds, without.seeds);
  EXPECT_EQ(with.covered, without.covered);
}

}  // namespace
}  // namespace soldist
