#include "api/spec.h"

#include <algorithm>
#include <cctype>
#include <limits>

namespace soldist {
namespace api {

WorkloadSpec WorkloadSpec::Dataset(std::string name) {
  WorkloadSpec spec;
  spec.source = Source::kDataset;
  spec.network = std::move(name);
  return spec;
}

WorkloadSpec WorkloadSpec::File(std::string path, std::string name) {
  WorkloadSpec spec;
  spec.source = Source::kFile;
  spec.network = name.empty() ? path : std::move(name);
  spec.path = std::move(path);
  return spec;
}

WorkloadSpec WorkloadSpec::Edges(std::string name, EdgeList edges) {
  WorkloadSpec spec;
  spec.source = Source::kEdges;
  spec.network = std::move(name);
  spec.edges = std::make_shared<const EdgeList>(std::move(edges));
  return spec;
}

Status WorkloadSpec::Validate() const {
  if (network.empty()) {
    return Status::InvalidArgument("WorkloadSpec: network name is empty");
  }
  switch (source) {
    case Source::kDataset:
      break;
    case Source::kFile:
      if (path.empty()) {
        return Status::InvalidArgument(
            "WorkloadSpec: file source without a path");
      }
      break;
    case Source::kEdges:
      if (edges == nullptr) {
        return Status::InvalidArgument(
            "WorkloadSpec: edges source without an edge list");
      }
      if (!edges->Validate()) {
        return Status::InvalidArgument(
            "WorkloadSpec: edge list '" + network +
            "' has endpoints outside [0, num_vertices)");
      }
      break;
  }
  return Status::OK();
}

std::string WorkloadSpec::Label() const {
  // Appends to one named string: `const char* + std::string&&` draws a
  // spurious GCC 12 -Wrestrict from the inlined insert.
  std::string label = network;
  label += '/';
  label += ProbabilityModelName(prob);
  if (model == DiffusionModel::kLt) {
    label += '/';
    label += DiffusionModelName(model);
  }
  return label;
}

Status SolveSpec::Validate() const {
  if (sample_number < 1) {
    return Status::InvalidArgument(
        "SolveSpec: sample_number must be >= 1 (the sample-number grid is "
        "2^0 and up)");
  }
  if (approach == Approach::kRis &&
      sample_number > std::numeric_limits<std::uint32_t>::max()) {
    return Status::InvalidArgument(
        "SolveSpec: RIS sample_number exceeds the arena's 32-bit set ids");
  }
  if (k < 1) {
    return Status::InvalidArgument("SolveSpec: k must be >= 1, got " +
                                   std::to_string(k));
  }
  if (sampling.num_threads < 0) {
    return Status::InvalidArgument(
        "SolveSpec: sampling.num_threads must be >= 0 (0 = hardware "
        "concurrency)");
  }
  if (sampling.chunk_size < 1) {
    return Status::InvalidArgument(
        "SolveSpec: sampling.chunk_size must be >= 1");
  }
  if (sampling.cancel != nullptr) {
    return Status::InvalidArgument(
        "SolveSpec: sampling.cancel must be null (a solve always runs to "
        "completion; deadlines belong to serve::QueryService)");
  }
  return Status::OK();
}

StatusOr<Approach> ParseApproach(const std::string& name) {
  std::string lower = name;
  std::transform(lower.begin(), lower.end(), lower.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (lower == "oneshot") return Approach::kOneshot;
  if (lower == "snapshot") return Approach::kSnapshot;
  if (lower == "ris") return Approach::kRis;
  return Status::InvalidArgument("unknown approach: '" + name +
                                 "' (expected Oneshot, Snapshot, or RIS)");
}

}  // namespace api
}  // namespace soldist
