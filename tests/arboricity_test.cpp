// Tests for core decomposition, orientations, Dinic max-flow,
// pseudoarboricity, and the Barenboim–Elkin distributed orientation.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "arboricity/barenboim_elkin.hpp"
#include "arboricity/core_decomposition.hpp"
#include "arboricity/dinic.hpp"
#include "arboricity/orientation.hpp"
#include "arboricity/pseudoarboricity.hpp"
#include "common/check.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "graph/stats.hpp"
#include "protocol/phase.hpp"

namespace arbods {
namespace {

// ---------------------------------------------------------------- peeling

TEST(CoreDecomposition, KnownDegeneracies) {
  EXPECT_EQ(core_decomposition(gen::path(10)).degeneracy, 1u);
  EXPECT_EQ(core_decomposition(gen::cycle(10)).degeneracy, 2u);
  EXPECT_EQ(core_decomposition(gen::clique(7)).degeneracy, 6u);
  EXPECT_EQ(core_decomposition(gen::grid(6, 6)).degeneracy, 2u);
  EXPECT_EQ(core_decomposition(Graph(4)).degeneracy, 0u);
}

TEST(CoreDecomposition, OrderIsAPermutation) {
  Rng rng(1);
  Graph g = gen::k_tree_union(100, 2, rng);
  auto cd = core_decomposition(g);
  std::vector<bool> seen(g.num_nodes(), false);
  for (NodeId v : cd.order) {
    EXPECT_FALSE(seen[v]);
    seen[v] = true;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_TRUE(seen[v]);
    EXPECT_EQ(cd.order[cd.position[v]], v);
  }
}

TEST(CoreDecomposition, CoreNumbersMonotoneAlongOrder) {
  Rng rng(2);
  Graph g = gen::barabasi_albert(200, 3, rng);
  auto cd = core_decomposition(g);
  for (std::size_t i = 1; i < cd.order.size(); ++i)
    EXPECT_LE(cd.core[cd.order[i - 1]], cd.core[cd.order[i]]);
}

TEST(CoreDecomposition, CliqueCoreNumbers) {
  auto cd = core_decomposition(gen::clique(5));
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(cd.core[v], 4u);
}

TEST(ArboricityBounds, BracketsTruth) {
  // Trees: exactly 1; cycles: 1 <= alpha=... cycle arboricity is 2 but
  // density bound gives ceil(n/(n-1)) = 2 only for small n; accept bracket.
  auto tb = arboricity_bounds(gen::path(50));
  EXPECT_EQ(tb.lower, 1u);
  EXPECT_EQ(tb.upper, 1u);
  auto kb = arboricity_bounds(gen::clique(8));  // arboricity = 4
  EXPECT_LE(kb.lower, 4u);
  EXPECT_GE(kb.upper, 4u);
  EXPECT_EQ(kb.lower, 4u);  // density bound is tight on cliques
}

// ------------------------------------------------------------- orientation

TEST(Orientation, DegeneracyOrientationIsValidAndBounded) {
  Rng rng(3);
  Graph g = gen::k_tree_union(150, 3, rng);
  Orientation o = degeneracy_orientation(g);
  o.validate();
  EXPECT_LE(o.max_out_degree(), core_decomposition(g).degeneracy);
}

TEST(Orientation, ValidateCatchesDoubleOrientation) {
  Graph g = gen::path(2);
  std::vector<std::vector<NodeId>> out{{1}, {0}};
  Orientation o(g, std::move(out));
  EXPECT_THROW(o.validate(), CheckError);
}

TEST(Orientation, ValidateCatchesMissingEdge) {
  Graph g = gen::path(3);
  std::vector<std::vector<NodeId>> out{{1}, {}, {}};
  Orientation o(g, std::move(out));
  EXPECT_THROW(o.validate(), CheckError);
}

TEST(Orientation, InNeighborsAreConsistent) {
  Graph g = gen::cycle(6);
  Orientation o = degeneracy_orientation(g);
  auto in = o.in_neighbors();
  std::size_t arcs = 0;
  for (NodeId v = 0; v < 6; ++v) arcs += in[v].size();
  EXPECT_EQ(arcs, g.num_edges());
}

TEST(Orientation, PseudoforestLayersPartitionEdges) {
  Rng rng(4);
  Graph g = gen::k_tree_union(80, 3, rng);
  Orientation o = optimal_orientation(g);
  auto layers = o.pseudoforest_layers();
  std::size_t total = 0;
  for (const auto& layer : layers) {
    total += layer.size();
    // Out-degree <= 1 within a layer: tails are distinct.
    std::vector<NodeId> tails;
    for (const Edge& e : layer) tails.push_back(e.u);
    std::sort(tails.begin(), tails.end());
    EXPECT_TRUE(std::adjacent_find(tails.begin(), tails.end()) == tails.end());
  }
  EXPECT_EQ(total, g.num_edges());
}

// ------------------------------------------------------------------- dinic

TEST(Dinic, UnitPath) {
  Dinic d(3);
  d.add_edge(0, 1, 1);
  d.add_edge(1, 2, 1);
  EXPECT_EQ(d.max_flow(0, 2), 1);
}

TEST(Dinic, ParallelPathsSumCapacity) {
  Dinic d(4);
  d.add_edge(0, 1, 3);
  d.add_edge(1, 3, 3);
  d.add_edge(0, 2, 2);
  d.add_edge(2, 3, 2);
  EXPECT_EQ(d.max_flow(0, 3), 5);
}

TEST(Dinic, BottleneckRespected) {
  Dinic d(4);
  d.add_edge(0, 1, 10);
  d.add_edge(1, 2, 1);
  d.add_edge(2, 3, 10);
  EXPECT_EQ(d.max_flow(0, 3), 1);
}

TEST(Dinic, ClassicCrossNetwork) {
  // The classic 4-node diamond with a cross edge.
  Dinic d(4);
  d.add_edge(0, 1, 10);
  d.add_edge(0, 2, 10);
  d.add_edge(1, 2, 1);
  d.add_edge(1, 3, 10);
  d.add_edge(2, 3, 10);
  EXPECT_EQ(d.max_flow(0, 3), 20);
}

TEST(Dinic, FlowOnReportsPerEdgeFlow) {
  Dinic d(3);
  int e01 = d.add_edge(0, 1, 5);
  int e12 = d.add_edge(1, 2, 3);
  EXPECT_EQ(d.max_flow(0, 2), 3);
  EXPECT_EQ(d.flow_on(e01), 3);
  EXPECT_EQ(d.flow_on(e12), 3);
}

TEST(Dinic, BipartiteMatchingViaFlow) {
  // K_{3,3} minus a perfect matching still has a perfect matching.
  Dinic d(8);  // 0 = s, 1..3 left, 4..6 right, 7 = t
  for (int l = 1; l <= 3; ++l) d.add_edge(0, l, 1);
  for (int r = 4; r <= 6; ++r) d.add_edge(r, 7, 1);
  for (int l = 1; l <= 3; ++l)
    for (int r = 4; r <= 6; ++r)
      if (r - 3 != l) d.add_edge(l, r, 1);
  EXPECT_EQ(d.max_flow(0, 7), 3);
}

// --------------------------------------------------------- pseudoarboricity

TEST(Pseudoarboricity, KnownValues) {
  EXPECT_EQ(pseudoarboricity(gen::path(20)), 1u);
  EXPECT_EQ(pseudoarboricity(gen::cycle(20)), 1u);  // one cycle: out-deg 1
  EXPECT_EQ(pseudoarboricity(gen::grid(5, 5)), 2u);
  EXPECT_EQ(pseudoarboricity(Graph(5)), 0u);
  // K5: m/n = 10/5 = 2.
  EXPECT_EQ(pseudoarboricity(gen::clique(5)), 2u);
  // K4: ceil(6/4) = 2.
  EXPECT_EQ(pseudoarboricity(gen::clique(4)), 2u);
}

TEST(Pseudoarboricity, OrientationAchievesOptimum) {
  Rng rng(5);
  Graph g = gen::k_tree_union(60, 3, rng);
  NodeId p = pseudoarboricity(g);
  Orientation o = min_out_degree_orientation(g, p);
  o.validate();
  EXPECT_LE(o.max_out_degree(), p);
  EXPECT_FALSE(orientable_with_out_degree(g, p - 1));
}

TEST(Pseudoarboricity, MatchesDensityOnCliques) {
  for (NodeId n : {3u, 4u, 5u, 6u, 7u, 8u}) {
    const NodeId m = n * (n - 1) / 2;
    EXPECT_EQ(pseudoarboricity(gen::clique(n)), (m + n - 1) / n) << "n=" << n;
  }
}

// --------------------------------------------------------- barenboim-elkin

class BeTest : public ::testing::TestWithParam<std::pair<NodeId, double>> {};

TEST_P(BeTest, OrientationWithinBound) {
  auto [alpha, eps] = GetParam();
  Rng rng(6 + alpha);
  Graph g = gen::k_tree_union(300, alpha, rng);
  auto res = barenboim_elkin_orient(g, alpha, eps);
  res.orientation.validate();
  EXPECT_LE(res.orientation.max_out_degree(),
            static_cast<NodeId>(std::floor((2.0 + eps) * alpha)));
  // Round bound: O(log n / log((2+eps)/2)) phases.
  const double phases_bound =
      2.0 + std::log(301.0) / std::log((2.0 + eps) / 2.0);
  EXPECT_LE(static_cast<double>(res.rounds), phases_bound + 2.0);
}

INSTANTIATE_TEST_SUITE_P(
    AlphaEps, BeTest,
    ::testing::Values(std::pair<NodeId, double>{1, 0.5},
                      std::pair<NodeId, double>{2, 0.5},
                      std::pair<NodeId, double>{3, 1.0},
                      std::pair<NodeId, double>{2, 0.25}));

TEST(BarenboimElkin, LevelsAreSet) {
  Rng rng(7);
  Graph g = gen::random_tree_prufer(50, rng);
  auto res = barenboim_elkin_orient(g, 1, 1.0);
  for (auto level : res.levels) EXPECT_GE(level, 0);
}

TEST(BarenboimElkin, UnknownAlphaDoublingConverges) {
  Rng rng(8);
  Graph g = gen::k_tree_union(200, 4, rng);
  WeightedGraph wg = WeightedGraph::uniform(Graph(g));
  Network net(wg);
  auto algo = BarenboimElkinOrientation::with_unknown_alpha(1.0);
  RunStats stats = net.run(algo, 100000);
  EXPECT_FALSE(stats.hit_round_limit);
  Orientation o = algo.extract_orientation(g);
  o.validate();
  // Final guess <= 2*alpha => out-degree <= (2+eps)*2*alpha = 24.
  EXPECT_LE(algo.final_guess(), 8u);
  EXPECT_LE(o.max_out_degree(), 24u);
}

TEST(BarenboimElkin, StarRetiresInOnePhaseWithLargePromise) {
  Graph g = gen::star(100);
  auto res = barenboim_elkin_orient(g, 50, 1.0);
  // Threshold 150 >= every degree: everyone retires in phase 1.
  EXPECT_EQ(res.rounds, 1);
}

TEST(BarenboimElkin, LocalOutDegreeEstimates) {
  Rng rng(9);
  Graph g = gen::k_tree_union(100, 2, rng);
  WeightedGraph wg = WeightedGraph::uniform(Graph(g));
  Network net(wg);
  BarenboimElkinOrientation algo(2, 0.5);
  net.run(algo, 100000);
  auto est = algo.local_out_degree(g);
  Orientation o = algo.extract_orientation(g);
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    EXPECT_GE(est[v], o.out_degree(v));
}

// Barenboim–Elkin on the worker pool: the instances the benchmark solves
// (ba3, forest2) plus a grid, small enough for the sanitizer jobs.
struct BeInstance {
  const char* name;
  Graph g;
  NodeId alpha;  // a valid arboricity promise for the known-alpha variant
};

std::vector<BeInstance> be_instances() {
  Rng rng(41);
  std::vector<BeInstance> out;
  out.push_back({"ba3", gen::barabasi_albert(2000, 3, rng), 3});
  out.push_back({"forest2", gen::k_tree_union(2000, 2, rng), 2});
  out.push_back({"grid", gen::grid(40, 40), 2});
  return out;
}

// Sequential reference peeling, written from the algorithm's definition:
// in phase p every unretired node with at most floor((2+eps)*guess)
// neighbors unretired before phase p retires at level p. The unknown-alpha
// variant (alpha == 0) starts at guess 1 and doubles it whenever a budget
// of 1 + ceil(log(n+1) / log((2+eps)/2)) phases leaves the graph nonempty.
struct ReferencePeel {
  std::vector<std::int64_t> levels;
  NodeId final_guess = 0;
  std::int64_t rounds = 0;
};

ReferencePeel reference_peel(const Graph& g, NodeId alpha, double eps) {
  const NodeId n = g.num_nodes();
  ReferencePeel ref;
  ref.levels.assign(n, -1);
  NodeId guess = alpha == 0 ? 1 : alpha;
  const std::int64_t budget_per_guess =
      1 + static_cast<std::int64_t>(
              std::ceil(std::log(static_cast<double>(n) + 1.0) /
                        std::log((2.0 + eps) / 2.0)));
  std::int64_t budget = budget_per_guess;
  std::vector<NodeId> degree(n);
  for (NodeId v = 0; v < n; ++v) degree[v] = g.degree(v);
  NodeId remaining = n;
  std::vector<NodeId> retiring;
  for (std::int64_t phase = 1; remaining > 0; ++phase) {
    const auto threshold = static_cast<NodeId>(std::floor((2.0 + eps) * guess));
    retiring.clear();
    for (NodeId v = 0; v < n; ++v)
      if (ref.levels[v] < 0 && degree[v] <= threshold) retiring.push_back(v);
    for (const NodeId v : retiring) {
      ref.levels[v] = phase;
      for (const NodeId u : g.neighbors(v)) --degree[u];
    }
    remaining -= static_cast<NodeId>(retiring.size());
    ref.rounds = phase;
    if (alpha == 0 && remaining > 0 && --budget <= 0) {
      guess *= 2;
      budget = budget_per_guess;
    }
  }
  ref.final_guess = guess;
  return ref;
}

TEST(BarenboimElkin, MatchesSequentialPeelingAtEveryPoolWidth) {
  for (const BeInstance& inst : be_instances()) {
    const WeightedGraph wg = WeightedGraph::uniform(Graph(inst.g));
    for (const NodeId alpha : {NodeId{0}, inst.alpha}) {
      for (const double eps : {0.5, 1.0}) {
        const ReferencePeel ref = reference_peel(inst.g, alpha, eps);
        for (const int threads : {1, 4, 8}) {
          CongestConfig cfg;
          cfg.threads = threads;
          Network net(wg, cfg);
          auto algo = alpha == 0
                          ? BarenboimElkinOrientation::with_unknown_alpha(eps)
                          : BarenboimElkinOrientation(alpha, eps);
          const RunStats stats = net.run(algo, 100000);
          SCOPED_TRACE(::testing::Message()
                       << inst.name << " alpha " << alpha << " eps " << eps
                       << " threads " << threads);
          ASSERT_FALSE(stats.hit_round_limit);
          EXPECT_EQ(algo.levels(), ref.levels);
          EXPECT_EQ(algo.final_guess(), ref.final_guess);
          EXPECT_EQ(stats.rounds, ref.rounds);
        }
      }
    }
  }
}

// publish() counts out-degrees straight off the CSR; they must be the
// out-degrees of the orientation extract_orientation builds.
TEST(BarenboimElkin, HandoffOutDegreesMatchExtractedOrientation) {
  for (const BeInstance& inst : be_instances()) {
    const WeightedGraph wg = WeightedGraph::uniform(Graph(inst.g));
    Network net(wg);
    auto algo = BarenboimElkinOrientation::with_unknown_alpha(0.5);
    ASSERT_FALSE(net.run(algo, 100000).hit_round_limit);
    protocol::PhaseContext ctx;
    algo.publish(net, ctx);
    const auto& handoff = ctx.get<OrientationHandoff>();
    const Orientation o = algo.extract_orientation(wg.graph());
    ASSERT_EQ(handoff.out_degree.size(), wg.num_nodes()) << inst.name;
    for (NodeId v = 0; v < wg.num_nodes(); ++v)
      ASSERT_EQ(handoff.out_degree[v], o.out_degree(v)) << inst.name << " " << v;
    EXPECT_EQ(handoff.final_guess, algo.final_guess());
  }
}

}  // namespace
}  // namespace arbods
