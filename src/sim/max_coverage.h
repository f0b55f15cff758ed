// Coverage over indexed RR sets: the common core of RIS seed selection
// (paper Section 3.5.1 — "influence maximization is therefore equivalent
// to a maximum coverage problem"), the shared oracle's estimates and its
// oracle-greedy reference. It runs on both index-backed views: an arena
// prefix (RrPrefixView) and a whole payload (store::RrFlatPayload, which
// is what the oracle keeps).
//
// The greedy engine is word-packed: covered/uncovered state lives in
// packed uint64 bitmap words (gain recomputation and set deactivation
// mask whole words at a time and popcount), the CELF lazy queue is a
// gain-indexed bucket array instead of a binary heap (gains are integers
// that only shrink, so a descending cursor over buckets replaces every
// log-n heap operation), and set ids flow through the 32-bit vertex-major
// inverted index. Output is byte-identical to the earlier heap
// implementation — same seeds, covered counts, smaller-id tie-breaking,
// and smallest-id zero-gain fill — which tests/max_coverage_test.cc keeps
// as its reference engine and differentially tests against on randomized
// payloads.

#ifndef SOLDIST_SIM_MAX_COVERAGE_H_
#define SOLDIST_SIM_MAX_COVERAGE_H_

#include <span>
#include <vector>

#include "sim/rr_arena.h"
#include "sim/sampling_engine.h"
#include "store/arena_storage.h"

namespace soldist {

/// Result of a max-coverage run.
struct MaxCoverageResult {
  /// Selected vertices in greedy order.
  std::vector<VertexId> seeds;
  /// Number of RR sets covered by the full selection.
  std::uint64_t covered = 0;
  /// False when a CancelToken stopped the run between rounds: seeds
  /// holds the completed r-round prefix (r >= 1) — byte-identical to a
  /// direct k = r solve, because greedy selection is prefix-consistent
  /// (round i depends only on rounds < i).
  bool completed = true;

  /// Fraction of the collection covered: F_R(seeds).
  double Fraction(std::uint64_t collection_size) const {
    return collection_size == 0
               ? 0.0
               : static_cast<double>(covered) /
                     static_cast<double>(collection_size);
  }
};

/// \brief Greedy max coverage with CELF-style lazy evaluation.
///
/// Deterministic: ties break toward the smaller vertex id; once every
/// remaining gain is zero the rest of the seed set is filled with the
/// smallest unselected ids. Runs over every set of an indexed payload
/// (MergeRrShards builds them).
///
/// `cancel` (deadline-aware CELF — serve/resilience.h): the token is
/// checked BETWEEN rounds, so a fired deadline stops selection at a
/// round boundary with the completed prefix (at least round 0 always
/// lands) and MaxCoverageResult::completed = false.
MaxCoverageResult GreedyMaxCoverage(const store::RrFlatPayload& payload,
                                    int k, const CancelToken* cancel = nullptr);

/// Same greedy over a zero-copy arena prefix view (the sweep-reuse path):
/// byte-identical to running it on a payload of the same sets.
MaxCoverageResult GreedyMaxCoverage(const RrPrefixView& view, int k,
                                    const CancelToken* cancel = nullptr);

/// Number of the payload's sets that contain a vertex of `seeds`
/// (repeats allowed). Marks the sets in a word bitmap of its own, one
/// bit per set, so concurrent calls on one payload are safe.
std::uint64_t CountCovered(const store::RrFlatPayload& payload,
                           std::span<const VertexId> seeds);

}  // namespace soldist

#endif  // SOLDIST_SIM_MAX_COVERAGE_H_
