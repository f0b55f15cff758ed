#include "sim/max_coverage.h"

namespace soldist {
namespace {

/// Branch-free SWAR popcount. std::popcount compiles to a call into
/// libgcc's __popcountdi2 unless the build targets a CPU with POPCNT,
/// which no build here does; this inlines as shifts, masks and one
/// multiply.
inline std::uint32_t Popcount64(std::uint64_t x) {
  x -= (x >> 1) & 0x5555555555555555ull;
  x = (x & 0x3333333333333333ull) + ((x >> 2) & 0x3333333333333333ull);
  x = (x + (x >> 4)) & 0x0F0F0F0F0F0F0F0Full;
  return static_cast<std::uint32_t>((x * 0x0101010101010101ull) >> 56);
}

/// Counts the ids in `list` whose bit is still set in `words` — the true
/// current gain of the vertex owning `list`. Ids arrive ascending, so
/// runs that share a word are accumulated into one mask and resolved with
/// a single AND+popcount.
std::uint32_t CountUncovered(std::span<const std::uint32_t> list,
                             const std::vector<std::uint64_t>& words) {
  std::uint32_t count = 0;
  std::size_t i = 0;
  const std::size_t len = list.size();
  while (i < len) {
    const std::uint64_t word_index = list[i] >> 6;
    std::uint64_t mask = 0;
    do {
      mask |= std::uint64_t{1} << (list[i] & 63);
      ++i;
    } while (i < len && (list[i] >> 6) == word_index);
    count += Popcount64(words[word_index] & mask);
  }
  return count;
}

/// Clears the bits of `list` in `words`, returning how many were set —
/// the coverage gained by committing the vertex. Word-at-a-time like
/// CountUncovered.
std::uint64_t ClearCovered(std::span<const std::uint32_t> list,
                           std::vector<std::uint64_t>* words) {
  std::uint64_t cleared = 0;
  std::size_t i = 0;
  const std::size_t len = list.size();
  while (i < len) {
    const std::uint64_t word_index = list[i] >> 6;
    std::uint64_t mask = 0;
    do {
      mask |= std::uint64_t{1} << (list[i] & 63);
      ++i;
    } while (i < len && (list[i] >> 6) == word_index);
    std::uint64_t& word = (*words)[word_index];
    cleared += Popcount64(word & mask);
    word &= ~mask;
  }
  return cleared;
}

/// The word-packed bucket-CELF engine, generic over the two index-backed
/// views (store::RrFlatPayload and RrPrefixView expose num_vertices /
/// size / InvertedList with ascending 32-bit ids).
///
/// Selection invariant (matches the reference heap engine in
/// tests/max_coverage_test.cc): each round commits
/// the vertex maximizing (current gain, smaller id); gains only shrink,
/// so a cached gain is an upper bound and a vertex re-evaluated at the
/// bucket cursor either confirms the level or demotes. Once the cursor
/// hits zero every remaining gain is zero for good ("exhausted") and the
/// remaining rounds fill with the smallest unselected ids.
template <typename View>
MaxCoverageResult PackedGreedyMaxCoverage(const View& view, int k,
                                          const CancelToken* cancel) {
  SOLDIST_CHECK(k >= 1);
  const VertexId n = view.num_vertices();
  SOLDIST_CHECK(static_cast<VertexId>(k) <= n);
  const std::uint64_t num_sets = view.size();

  std::vector<std::uint64_t> uncovered((num_sets + 63) / 64, ~std::uint64_t{0});
  if (num_sets % 64 != 0 && !uncovered.empty()) {
    uncovered.back() = (std::uint64_t{1} << (num_sets % 64)) - 1;
  }

  // All sets are active initially, so the starting gain of v is just its
  // inverted-list length — no counting pass over the collection needed.
  // After this block, bucket membership IS the cached gain.
  std::uint32_t max_gain = 0;
  for (VertexId v = 0; v < n; ++v) {
    max_gain = std::max(
        max_gain, static_cast<std::uint32_t>(view.InvertedList(v).size()));
  }
  std::vector<std::vector<VertexId>> buckets(
      static_cast<std::size_t>(max_gain) + 1);
  for (VertexId v = 0; v < n; ++v) {
    const auto gain =
        static_cast<std::uint32_t>(view.InvertedList(v).size());
    if (gain > 0) buckets[gain].push_back(v);
  }
  // fresh[v] == round means cached_gain[v] is exact for the current
  // coverage state; initial gains are exact, so the stamp starts at
  // round 0.
  std::vector<std::int32_t> fresh(n, 0);

  MaxCoverageResult result;
  result.seeds.reserve(k);
  std::vector<std::uint8_t> chosen(n, 0);
  VertexId fill_cursor = 0;
  bool exhausted = false;
  std::uint32_t cur = max_gain;
  for (int round = 0; round < k; ++round) {
    // Deadline-aware CELF: stop at a round boundary so the seeds picked
    // so far ARE a direct smaller-k solve. Round 0 always runs — the
    // most degraded answer is still one seed, never zero.
    if (cancel != nullptr && round > 0 && cancel->cancelled()) {
      result.completed = false;
      break;
    }
    VertexId pick = kInvalidVertex;
    while (!exhausted) {
      while (cur > 0 && buckets[cur].empty()) --cur;
      if (cur == 0) {
        exhausted = true;
        break;
      }
      std::vector<VertexId>& bucket = buckets[cur];
      // Refresh every stale entry at the cursor level; a confirmed entry
      // stays, a shrunk one demotes to its true bucket.
      std::size_t i = 0;
      while (i < bucket.size()) {
        const VertexId v = bucket[i];
        if (fresh[v] == round) {
          ++i;
          continue;
        }
        const std::uint32_t gain =
            CountUncovered(view.InvertedList(v), uncovered);
        SOLDIST_DCHECK(gain <= cur) << "gain grew on a shrinking cover";
        fresh[v] = round;
        if (gain == cur) {
          ++i;
          continue;
        }
        bucket[i] = bucket.back();
        bucket.pop_back();
        if (gain > 0) buckets[gain].push_back(v);
      }
      if (bucket.empty()) continue;  // everything demoted: descend
      // All survivors are exact maxima; smaller id wins the tie.
      std::size_t best = 0;
      for (std::size_t j = 1; j < bucket.size(); ++j) {
        if (bucket[j] < bucket[best]) best = j;
      }
      pick = bucket[best];
      bucket[best] = bucket.back();
      bucket.pop_back();
      break;
    }
    if (pick != kInvalidVertex) {
      result.covered += ClearCovered(view.InvertedList(pick), &uncovered);
      chosen[pick] = 1;
      result.seeds.push_back(pick);
      continue;
    }
    // Zero-gain fill: smallest unselected ids, exactly what the old
    // all-vertices heap selected once every gain hit zero.
    while (chosen[fill_cursor]) ++fill_cursor;
    result.seeds.push_back(fill_cursor);
    chosen[fill_cursor] = 1;
  }
  return result;
}

}  // namespace

MaxCoverageResult GreedyMaxCoverage(const store::RrFlatPayload& payload,
                                    int k, const CancelToken* cancel) {
  return PackedGreedyMaxCoverage(payload, k, cancel);
}

MaxCoverageResult GreedyMaxCoverage(const RrPrefixView& view, int k,
                                    const CancelToken* cancel) {
  return PackedGreedyMaxCoverage(view, k, cancel);
}

std::uint64_t CountCovered(const store::RrFlatPayload& payload,
                           std::span<const VertexId> seeds) {
  std::vector<std::uint64_t> covered((payload.size() + 63) / 64, 0);
  std::uint64_t count = 0;
  for (VertexId v : seeds) {
    SOLDIST_DCHECK(v < payload.num_vertices());
    // Per-entry bit test, as in QueryView::MarkAndCount: CountUncovered's
    // run-grouped mask+popcount read 4x slower here (Physicians iwc
    // oracle of 10^5 sets, k = 4).
    for (std::uint32_t id : payload.InvertedList(v)) {
      std::uint64_t& word = covered[id >> 6];
      const std::uint64_t bit = std::uint64_t{1} << (id & 63);
      count += static_cast<std::uint64_t>((word & bit) == 0);
      word |= bit;
    }
  }
  return count;
}

}  // namespace soldist
