// The vertex-major inverted index of flat RR sets: the one counting sort
// behind every RR payload (MergeRrShards, RrArena::FromParts), so behind
// RrArena and the shared influence oracle alike.
//
// Sets are stored flat — set i is flat[set_offsets[i], set_offsets[i+1])
// — and the index lists, per vertex v, the ids of the sets containing v:
// ids[offsets[v], offsets[v+1]), ascending. A list in ascending set-id
// order is unique, so the index is a pure function of the sets: the
// same bytes at every worker count and after a save/load round trip.

#ifndef SOLDIST_SIM_INVERTED_INDEX_H_
#define SOLDIST_SIM_INVERTED_INDEX_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/types.h"
#include "sim/sampling_engine.h"

namespace soldist {

/// Builds the inverted index (*ids, *offsets) of every set of (flat,
/// set_offsets); the old contents are discarded. *offsets ends with
/// num_vertices + 1 entries. Set ids and offsets are 32-bit: CHECKs that
/// the sets and entries fit.
///
/// One counting sort cut into contiguous blocks of sets, one per
/// engine->ActiveWorkers(): a per-block vertex histogram, a (vertex,
/// block) prefix sum, then every block scatters its ids in parallel.
/// Block b's ids of v land after those of blocks < b, so every list stays
/// ascending at any width. Extra memory: one histogram of num_vertices
/// counters (plus a cache line) per block. A null engine runs inline.
void BuildInvertedIndex(VertexId num_vertices,
                        std::span<const VertexId> flat,
                        std::span<const std::uint64_t> set_offsets,
                        SamplingEngine* engine,
                        std::vector<std::uint32_t>* ids,
                        std::vector<std::uint32_t>* offsets);

}  // namespace soldist

#endif  // SOLDIST_SIM_INVERTED_INDEX_H_
