// Unit tests for the IC-model layer: influence graphs and the
// edge-probability settings of paper Section 4.3.

#include <gtest/gtest.h>

#include "gen/datasets.h"
#include "graph/builder.h"
#include "model/influence_graph.h"
#include "model/probability.h"

namespace soldist {
namespace {

Graph Diamond() {
  EdgeList edges;
  edges.num_vertices = 4;
  edges.Add(0, 1);
  edges.Add(0, 2);
  edges.Add(1, 3);
  edges.Add(2, 3);
  return GraphBuilder::FromEdgeList(edges);
}

TEST(ProbabilityTest, UniformSettings) {
  Graph g = Diamond();
  auto p01 = AssignProbabilities(g, ProbabilityModel::kUc01, nullptr);
  auto p001 = AssignProbabilities(g, ProbabilityModel::kUc001, nullptr);
  for (double p : p01) EXPECT_DOUBLE_EQ(p, 0.1);
  for (double p : p001) EXPECT_DOUBLE_EQ(p, 0.01);
}

TEST(ProbabilityTest, IwcInProbabilitiesSumToOne) {
  // The defining property: Σ_{u ∈ Γ−(v)} p(u,v) = 1 for every v with
  // in-degree > 0 (paper Section 4.3).
  Graph g = GraphBuilder::FromEdgeList(Datasets::Physicians(3));
  InfluenceGraph ig = MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
  const Graph& graph = ig.graph();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    if (graph.InDegree(v) == 0) continue;
    double sum = 0.0;
    for (EdgeId pos = graph.in_offsets()[v]; pos < graph.in_offsets()[v + 1];
         ++pos) {
      sum += ig.InProbability(pos);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "vertex " << v;
  }
}

TEST(ProbabilityTest, OwcOutProbabilitiesSumToOne) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Physicians(3));
  InfluenceGraph ig = MakeInfluenceGraph(std::move(g), ProbabilityModel::kOwc);
  const Graph& graph = ig.graph();
  for (VertexId u = 0; u < graph.num_vertices(); ++u) {
    if (graph.OutDegree(u) == 0) continue;
    double sum = 0.0;
    for (EdgeId e = graph.out_offsets()[u]; e < graph.out_offsets()[u + 1];
         ++e) {
      sum += ig.OutProbability(e);
    }
    EXPECT_NEAR(sum, 1.0, 1e-9) << "vertex " << u;
  }
}

TEST(ProbabilityTest, TrivalencyDrawsFromThreeLevels) {
  Graph g = GraphBuilder::FromEdgeList(Datasets::Physicians(3));
  Rng rng(5);
  auto probs = AssignProbabilities(g, ProbabilityModel::kTrivalency, &rng);
  int counts[3] = {0, 0, 0};
  for (double p : probs) {
    if (p == 0.1) {
      ++counts[0];
    } else if (p == 0.01) {
      ++counts[1];
    } else if (p == 0.001) {
      ++counts[2];
    } else {
      FAIL() << "unexpected probability " << p;
    }
  }
  EXPECT_GT(counts[0], 0);
  EXPECT_GT(counts[1], 0);
  EXPECT_GT(counts[2], 0);
}

TEST(ProbabilityTest, NamesRoundTrip) {
  for (ProbabilityModel model : PaperProbabilityModels()) {
    auto parsed = ParseProbabilityModel(ProbabilityModelName(model));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.value(), model);
  }
  EXPECT_TRUE(ParseProbabilityModel("tv").ok());
  EXPECT_FALSE(ParseProbabilityModel("wc").ok());
}

TEST(ProbabilityTest, PaperModelsAreTheFour) {
  auto models = PaperProbabilityModels();
  ASSERT_EQ(models.size(), 4u);
  EXPECT_EQ(ProbabilityModelName(models[0]), "uc0.1");
  EXPECT_EQ(ProbabilityModelName(models[1]), "uc0.01");
  EXPECT_EQ(ProbabilityModelName(models[2]), "iwc");
  EXPECT_EQ(ProbabilityModelName(models[3]), "owc");
}

TEST(InfluenceGraphTest, InProbabilityMirrorsOutProbability) {
  Graph g = Diamond();
  // Distinct probabilities per edge expose any misalignment.
  std::vector<double> probs = {0.1, 0.2, 0.3, 0.4};
  InfluenceGraph ig(std::move(g), probs);
  const Graph& graph = ig.graph();
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    for (EdgeId pos = graph.in_offsets()[v]; pos < graph.in_offsets()[v + 1];
         ++pos) {
      EdgeId out_edge = graph.in_to_out_edge()[pos];
      EXPECT_DOUBLE_EQ(ig.InProbability(pos), ig.OutProbability(out_edge));
    }
  }
}

TEST(InfluenceGraphTest, SumProbabilitiesIsMTilde) {
  InfluenceGraph ig(Diamond(), {0.1, 0.2, 0.3, 0.4});
  EXPECT_NEAR(ig.SumProbabilities(), 1.0, 1e-12);
}

TEST(InfluenceGraphTest, MTildeForIwcIsN) {
  // Under iwc, m̃ = Σ_e 1/d−(dst) = Σ_v with in-degree>0 of 1 — on graphs
  // where every vertex has in-degree > 0 this is exactly n (paper §5.3.1).
  EdgeList edges = Datasets::Karate();
  Graph g = GraphBuilder::FromEdgeList(edges);
  InfluenceGraph ig = MakeInfluenceGraph(std::move(g), ProbabilityModel::kIwc);
  EXPECT_NEAR(ig.SumProbabilities(), 34.0, 1e-9);
}

}  // namespace
}  // namespace soldist
