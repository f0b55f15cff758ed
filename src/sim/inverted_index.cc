#include "sim/inverted_index.h"

#include <algorithm>
#include <limits>

#include "util/logging.h"

namespace soldist {

void BuildInvertedIndex(VertexId num_vertices,
                        std::span<const VertexId> flat,
                        std::span<const std::uint64_t> set_offsets,
                        SamplingEngine* engine,
                        std::vector<std::uint32_t>* ids,
                        std::vector<std::uint32_t>* offsets) {
  SOLDIST_CHECK(!set_offsets.empty());
  const std::uint64_t num_sets = set_offsets.size() - 1;
  SOLDIST_CHECK(num_sets <= std::numeric_limits<std::uint32_t>::max())
      << "32-bit set ids overflow: " << num_sets << " RR sets";
  SOLDIST_CHECK(flat.size() <= std::numeric_limits<std::uint32_t>::max())
      << "32-bit index offsets overflow: " << flat.size() << " entries";
  SOLDIST_DCHECK(set_offsets.back() == flat.size());
  const std::uint64_t n = num_vertices;
  SamplingEngine inline_engine;
  if (engine == nullptr) engine = &inline_engine;

  // Cut the sets into blocks of equal set counts (RR sets are i.i.d., so
  // their entries even out). The cut only spreads work: the lists come
  // out the same for any cut.
  const std::uint64_t num_blocks = std::max<std::uint64_t>(
      1, std::min<std::uint64_t>(engine->ActiveWorkers(), num_sets));
  std::vector<std::uint64_t> block_sets(num_blocks + 1);
  for (std::uint64_t b = 0; b <= num_blocks; ++b) {
    block_sets[b] = num_sets * b / num_blocks;
  }

  // cursor[b·stride + v]: first the number of v's entries in block b,
  // then, after the prefix sum, where block b writes v's next id. The
  // 64-byte gap keeps blocks from sharing a cache line.
  const std::uint64_t stride = n + 16;
  std::vector<std::uint32_t> cursor(num_blocks * stride, 0);
  engine->RunTasks(num_blocks, [&](std::uint64_t b, std::size_t) {
    std::uint32_t* count = cursor.data() + b * stride;
    for (std::uint64_t k = set_offsets[block_sets[b]];
         k < set_offsets[block_sets[b + 1]]; ++k) {
      ++count[flat[k]];
    }
  });
  // v's list: block 0's ids, then block 1's, ...
  std::vector<std::uint32_t> new_offsets(n + 1);
  std::uint32_t next = 0;
  for (std::uint64_t v = 0; v < n; ++v) {
    new_offsets[v] = next;
    for (std::uint64_t b = 0; b < num_blocks; ++b) {
      const std::uint32_t count = cursor[b * stride + v];
      cursor[b * stride + v] = next;
      next += count;
    }
  }
  new_offsets[n] = next;

  std::vector<std::uint32_t> new_ids(flat.size());
  engine->RunTasks(num_blocks, [&](std::uint64_t b, std::size_t) {
    std::uint32_t* at = cursor.data() + b * stride;
    for (std::uint64_t set = block_sets[b]; set < block_sets[b + 1]; ++set) {
      for (std::uint64_t k = set_offsets[set]; k < set_offsets[set + 1];
           ++k) {
        new_ids[at[flat[k]]++] = static_cast<std::uint32_t>(set);
      }
    }
  });
  *ids = std::move(new_ids);
  *offsets = std::move(new_offsets);
}

}  // namespace soldist
