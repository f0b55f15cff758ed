#include "sim/condensed_snapshot.h"

namespace soldist {

std::uint64_t CondensedSnapshot::MemoryBytes() const {
  auto vec_bytes = [](const auto& v) {
    return static_cast<std::uint64_t>(v.capacity() * sizeof(v[0]));
  };
  return vec_bytes(comp_of) + vec_bytes(comp_size) + vec_bytes(dag.offsets) +
         vec_bytes(dag.targets) + vec_bytes(rev.offsets) +
         vec_bytes(rev.targets);
}

SnapshotCondenser::SnapshotCondenser(VertexId num_vertices)
    : num_vertices_(num_vertices), solver_(num_vertices) {}

CondensedSnapshot SnapshotCondenser::Condense(const Snapshot& snapshot) {
  solver_.Solve(num_vertices_, snapshot.out_offsets, snapshot.out_targets,
                &scc_);
  CondensedSnapshot out;
  CondenseCsrInto(scc_, num_vertices_, snapshot.out_offsets,
                  snapshot.out_targets, &scratch_, &out.dag);

  // Reverse DAG (counting sort by target) straight into the output.
  const std::uint32_t num_components = scc_.num_components();
  const auto num_dag_edges =
      static_cast<std::uint32_t>(out.dag.targets.size());
  out.rev.offsets.assign(static_cast<std::size_t>(num_components) + 1, 0);
  for (std::uint32_t i = 0; i < num_dag_edges; ++i) {
    ++out.rev.offsets[out.dag.targets[i] + 1];
  }
  for (std::uint32_t c = 0; c < num_components; ++c) {
    out.rev.offsets[c + 1] += out.rev.offsets[c];
  }
  out.rev.targets.resize(num_dag_edges);
  rev_cursor_.assign(out.rev.offsets.begin(), out.rev.offsets.end() - 1);
  for (std::uint32_t c = 0; c < num_components; ++c) {
    for (std::uint32_t target : out.dag.Successors(c)) {
      out.rev.targets[rev_cursor_[target]++] = c;
    }
  }

  out.comp_of = scc_.component;  // copy: scc_ scratch persists
  out.comp_size = scc_.size;
  return out;
}

}  // namespace soldist
