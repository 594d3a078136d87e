// Unit tests for src/graph: CSR graph, builder, verifiers, stats, I/O,
// transforms.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "gen/classic.hpp"
#include "gen/trees.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/io.hpp"
#include "graph/stats.hpp"
#include "graph/transform.hpp"
#include "graph/verify.hpp"
#include "graph/weighted_graph.hpp"

namespace arbods {
namespace {

Graph triangle() { return Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}}); }

// ------------------------------------------------------------------- graph

TEST(Graph, EmptyGraph) {
  Graph g(0);
  EXPECT_EQ(g.num_nodes(), 0u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(g.max_degree(), 0u);
}

TEST(Graph, IsolatedNodes) {
  Graph g(5);
  EXPECT_EQ(g.num_edges(), 0u);
  for (NodeId v = 0; v < 5; ++v) EXPECT_TRUE(g.is_isolated(v));
}

TEST(Graph, BasicAdjacency) {
  Graph g = triangle();
  EXPECT_EQ(g.num_edges(), 3u);
  EXPECT_EQ(g.degree(0), 2u);
  EXPECT_TRUE(g.has_edge(0, 1));
  EXPECT_TRUE(g.has_edge(1, 0));
  EXPECT_TRUE(g.has_edge(2, 0));
}

TEST(Graph, NeighborsAreSorted) {
  Graph g = Graph::from_edges(5, {{3, 1}, {3, 4}, {3, 0}, {3, 2}});
  auto nb = g.neighbors(3);
  EXPECT_TRUE(std::is_sorted(nb.begin(), nb.end()));
  EXPECT_EQ(nb.size(), 4u);
}

TEST(Graph, DuplicateEdgesCollapse) {
  Graph g = Graph::from_edges(3, {{0, 1}, {1, 0}, {0, 1}});
  EXPECT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(g.degree(0), 1u);
}

TEST(Graph, SelfLoopRejected) {
  EXPECT_THROW(Graph::from_edges(2, {{1, 1}}), CheckError);
}

TEST(Graph, OutOfRangeEdgeRejected) {
  EXPECT_THROW(Graph::from_edges(2, {{0, 2}}), CheckError);
}

TEST(Graph, EdgesCanonicalForm) {
  Graph g = triangle();
  auto es = g.edges();
  ASSERT_EQ(es.size(), 3u);
  for (const Edge& e : es) EXPECT_LT(e.u, e.v);
}

TEST(Graph, BuilderAddNode) {
  GraphBuilder b(2);
  NodeId c = b.add_node();
  EXPECT_EQ(c, 2u);
  b.add_edge(0, c);
  Graph g = std::move(b).build();
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Graph, MaxDegreeStar) {
  Graph g = gen::star(10);
  EXPECT_EQ(g.max_degree(), 9u);
}

// ---------------------------------------------------------------- weighted

TEST(WeightedGraph, RejectsNonPositiveWeights) {
  EXPECT_THROW(WeightedGraph(Graph(2), {1, 0}), CheckError);
  EXPECT_THROW(WeightedGraph(Graph(2), {1, -5}), CheckError);
}

TEST(WeightedGraph, RejectsSizeMismatch) {
  EXPECT_THROW(WeightedGraph(Graph(3), {1, 1}), CheckError);
}

TEST(WeightedGraph, UniformIsAllOnes) {
  auto wg = WeightedGraph::uniform(gen::path(4));
  EXPECT_TRUE(wg.is_uniform());
  EXPECT_EQ(wg.max_weight(), 1);
  EXPECT_EQ(wg.weight_bits(), 1);
}

TEST(WeightedGraph, TauIsClosedNeighborhoodMin) {
  // path 0-1-2 with weights 5, 1, 9.
  WeightedGraph wg(gen::path(3), {5, 1, 9});
  EXPECT_EQ(wg.tau(0), 1);  // neighbor 1
  EXPECT_EQ(wg.tau(1), 1);  // itself
  EXPECT_EQ(wg.tau(2), 1);  // neighbor 1
  auto taus = wg.all_tau();
  EXPECT_EQ(taus, (std::vector<Weight>{1, 1, 1}));
}

TEST(WeightedGraph, TauOfIsolatedNodeIsOwnWeight) {
  WeightedGraph wg(Graph(2), {7, 3});
  EXPECT_EQ(wg.tau(0), 7);
  EXPECT_EQ(wg.tau(1), 3);
}

TEST(WeightedGraph, TotalWeight) {
  WeightedGraph wg(gen::path(3), {5, 1, 9});
  NodeSet s{0, 2};
  EXPECT_EQ(wg.total_weight(s), 14);
}

// ------------------------------------------------------------------ verify

TEST(Verify, DominatingSetOnPath) {
  Graph g = gen::path(5);
  EXPECT_TRUE(is_dominating_set(g, std::vector<NodeId>{1, 3}));
  EXPECT_FALSE(is_dominating_set(g, std::vector<NodeId>{0, 4}));
  EXPECT_FALSE(is_dominating_set(g, std::vector<NodeId>{}));
}

TEST(Verify, EmptyGraphIsDominatedByEmptySet) {
  Graph g(0);
  EXPECT_TRUE(is_dominating_set(g, std::vector<NodeId>{}));
}

TEST(Verify, UndominatedNodes) {
  Graph g = gen::path(5);
  auto un = undominated_nodes(g, std::vector<NodeId>{0});
  EXPECT_EQ(un, (std::vector<NodeId>{2, 3, 4}));
}

TEST(Verify, VertexCover) {
  Graph g = triangle();
  EXPECT_TRUE(is_vertex_cover(g, std::vector<NodeId>{0, 1}));
  EXPECT_FALSE(is_vertex_cover(g, std::vector<NodeId>{0}));
}

TEST(Verify, ValidNodeSetRejectsDuplicatesAndRange) {
  Graph g(3);
  EXPECT_TRUE(is_valid_node_set(g, std::vector<NodeId>{0, 2}));
  EXPECT_FALSE(is_valid_node_set(g, std::vector<NodeId>{0, 0}));
  EXPECT_FALSE(is_valid_node_set(g, std::vector<NodeId>{3}));
}

TEST(Verify, FeasiblePacking) {
  auto wg = WeightedGraph::uniform(gen::path(3));
  std::vector<double> ok{0.3, 0.3, 0.3};
  std::vector<double> bad{0.6, 0.6, 0.6};  // X_1 = 1.8 > 1
  EXPECT_TRUE(is_feasible_packing(wg, ok));
  EXPECT_FALSE(is_feasible_packing(wg, bad));
  EXPECT_DOUBLE_EQ(packing_lower_bound(ok), 0.9);
}

// ------------------------------------------------------------------- stats

TEST(Stats, ComponentsOfForest) {
  Graph g = Graph::from_edges(5, {{0, 1}, {2, 3}});
  NodeId count = 0;
  auto comp = connected_components(g, &count);
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(comp[0], comp[1]);
  EXPECT_EQ(comp[2], comp[3]);
  EXPECT_NE(comp[0], comp[2]);
  EXPECT_NE(comp[4], comp[0]);
}

TEST(Stats, ForestAndTreePredicates) {
  EXPECT_TRUE(is_forest(gen::path(6)));
  EXPECT_TRUE(is_tree(gen::path(6)));
  EXPECT_TRUE(is_forest(Graph(3)));
  EXPECT_FALSE(is_tree(Graph(3)));  // disconnected
  EXPECT_FALSE(is_forest(gen::cycle(4)));
  EXPECT_FALSE(is_tree(gen::cycle(4)));
}

TEST(Stats, BfsDistancesOnPath) {
  Graph g = gen::path(4);
  auto d = bfs_distances(g, 0);
  EXPECT_EQ(d, (std::vector<NodeId>{0, 1, 2, 3}));
}

TEST(Stats, BfsUnreachableMarkedN) {
  Graph g(3);
  auto d = bfs_distances(g, 1);
  EXPECT_EQ(d[0], 3u);
  EXPECT_EQ(d[1], 0u);
}

TEST(Stats, DegeneracyKnownValues) {
  EXPECT_EQ(compute_stats(gen::path(10)).degeneracy, 1u);
  EXPECT_EQ(compute_stats(gen::cycle(10)).degeneracy, 2u);
  EXPECT_EQ(compute_stats(gen::clique(6)).degeneracy, 5u);
  EXPECT_EQ(compute_stats(gen::grid(5, 5)).degeneracy, 2u);
  EXPECT_EQ(compute_stats(gen::star(50)).degeneracy, 1u);
}

TEST(Stats, DegreeHistogram) {
  auto h = degree_histogram(gen::star(5));
  // 4 leaves of degree 1, one hub of degree 4.
  EXPECT_EQ(h[1], 4u);
  EXPECT_EQ(h[4], 1u);
}

TEST(Stats, FullStatsOnGrid) {
  auto s = compute_stats(gen::grid(4, 4));
  EXPECT_EQ(s.n, 16u);
  EXPECT_EQ(s.m, 24u);
  EXPECT_EQ(s.max_degree, 4u);
  EXPECT_EQ(s.num_components, 1u);
  EXPECT_EQ(s.num_isolated, 0u);
}

// ---------------------------------------------------------------------- io

TEST(Io, GraphRoundTrip) {
  Graph g = gen::grid(3, 4);
  std::stringstream ss;
  write_graph(ss, g);
  Graph back = read_graph(ss);
  EXPECT_EQ(back, g);
}

TEST(Io, WeightedRoundTrip) {
  WeightedGraph wg(gen::path(4), {4, 3, 2, 1});
  std::stringstream ss;
  write_weighted_graph(ss, wg);
  WeightedGraph back = read_weighted_graph(ss);
  EXPECT_EQ(back.graph(), wg.graph());
  for (NodeId v = 0; v < 4; ++v) EXPECT_EQ(back.weight(v), wg.weight(v));
}

TEST(Io, CommentsSkipped) {
  std::stringstream ss("# a comment\n3 1\n# another\n0 2\n");
  Graph g = read_graph(ss);
  EXPECT_EQ(g.num_nodes(), 3u);
  EXPECT_TRUE(g.has_edge(0, 2));
}

TEST(Io, TruncatedInputThrows) {
  std::stringstream ss("3 2\n0 1\n");
  EXPECT_THROW(read_graph(ss), CheckError);
}

// Seeded malformed-input table: each case mutates the text of a valid
// random tree and pins the error read_graph reports. No value may be
// narrowed into NodeId (2^32+3 must not read as 3) and no token may be
// read by prefix ("1x" must not read as 1).
TEST(Io, MalformedInputTableRejectsEachCaseWithItsMessage) {
  Rng rng(0x10ba5eULL);
  const Graph tree = gen::random_tree_prufer(12, rng);
  std::ostringstream valid_os;
  write_graph(valid_os, tree);
  const std::string valid = valid_os.str();
  std::istringstream valid_in(valid);
  ASSERT_EQ(read_graph(valid_in), tree);

  // The i-th line of `text` (0 = header) replaced by `line`.
  auto with_line = [&](std::size_t i, const std::string& line) {
    std::istringstream in(valid);
    std::ostringstream out;
    std::string cur;
    for (std::size_t k = 0; std::getline(in, cur); ++k)
      out << (k == i ? line : cur) << "\n";
    return out.str();
  };
  const std::string n_str = std::to_string(tree.num_nodes());
  const std::string m_str = std::to_string(tree.num_edges());
  const Edge last = tree.edges().back();
  const std::string without_last_line =
      valid.substr(0, valid.rfind('\n', valid.size() - 2) + 1);

  struct Case {
    const char* name;
    std::string text;
    const char* message;
  };
  const std::vector<Case> cases = {
      {"truncated edge list", without_last_line,
       "unexpected EOF reading edge endpoint"},
      {"truncated mid-edge", valid.substr(0, valid.size() - 3),
       "unexpected EOF reading edge endpoint"},
      {"endpoint = n", with_line(1, "0 " + n_str), "out of range n=12"},
      {"endpoint past NodeId", with_line(1, "0 4294967298"),
       "'4294967298' is out of range"},
      {"self-loop", with_line(1, "5 5"), "self-loop at node 5"},
      {"m larger than the edge list", with_line(0, n_str + " 12"),
       "unexpected EOF reading edge endpoint"},
      {"m smaller than the edge list", with_line(0, n_str + " 10"),
       "unexpected token"},
      {"n = 2^32+3", with_line(0, "4294967299 " + m_str),
       "node count '4294967299' is out of range"},
      {"n = 10^12", with_line(0, "1000000000000 " + m_str),
       "node count '1000000000000' is out of range"},
      {"n fits NodeId but exceeds kMaxNodes", with_line(0, "4000000000 0"),
       "node count '4000000000' is out of range (max 100000000)"},
      {"trailing junk in an id", with_line(1, "0 1x"),
       "edge endpoint '1x' is not an integer"},
      {"negative id", with_line(1, "-1 2"), "edge endpoint '-1' is negative"},
      {"negative edge count", with_line(0, n_str + " -1"),
       "edge count '-1' is negative"},
      {"u64 overflow", with_line(0, n_str + " 99999999999999999999999"),
       "edge count '99999999999999999999999' is out of range"},
  };
  for (const Case& c : cases) {
    std::istringstream in(c.text);
    try {
      read_graph(in);
      ADD_FAILURE() << c.name << ": accepted";
    } catch (const CheckError& e) {
      EXPECT_NE(std::string(e.what()).find(c.message), std::string::npos)
          << c.name << ": got '" << e.what() << "'";
    }
  }

  // Duplicate edge lines are accepted today and collapse into one edge
  // (the header's m counts lines, not distinct edges).
  const std::string dup = with_line(1, std::to_string(last.u) + " " +
                                           std::to_string(last.v));
  std::istringstream dup_in(dup);
  const Graph collapsed = read_graph(dup_in);
  EXPECT_EQ(collapsed.num_edges(), tree.num_edges() - 1);
  EXPECT_TRUE(collapsed.has_edge(last.u, last.v));
}

// --------------------------------------------------------------- transform

TEST(Transform, InducedSubgraph) {
  Graph g = gen::cycle(5);
  std::vector<NodeId> keep{0, 1, 2};
  auto sub = induced_subgraph(g, keep);
  EXPECT_EQ(sub.graph.num_nodes(), 3u);
  EXPECT_EQ(sub.graph.num_edges(), 2u);  // 0-1, 1-2 survive; 0-4,2-3 cut
  EXPECT_EQ(sub.to_original, keep);
}

TEST(Transform, InducedSubgraphRejectsDuplicates) {
  Graph g = gen::path(3);
  EXPECT_THROW(induced_subgraph(g, std::vector<NodeId>{0, 0}), CheckError);
}

TEST(Transform, DisjointUnionShiftsIds) {
  Graph u = disjoint_union(gen::path(2), gen::path(3));
  EXPECT_EQ(u.num_nodes(), 5u);
  EXPECT_TRUE(u.has_edge(0, 1));
  EXPECT_TRUE(u.has_edge(2, 3));
  EXPECT_TRUE(u.has_edge(3, 4));
  EXPECT_FALSE(u.has_edge(1, 2));
}

TEST(Transform, DisjointCopies) {
  Graph c = disjoint_copies(gen::path(3), 4);
  EXPECT_EQ(c.num_nodes(), 12u);
  EXPECT_EQ(c.num_edges(), 8u);
  NodeId comp_count = 0;
  connected_components(c, &comp_count);
  EXPECT_EQ(comp_count, 4u);
}

TEST(Transform, SubdivideEdges) {
  Graph s = subdivide_edges(triangle());
  EXPECT_EQ(s.num_nodes(), 6u);
  EXPECT_EQ(s.num_edges(), 6u);
  // Original nodes are pairwise non-adjacent after subdivision.
  EXPECT_FALSE(s.has_edge(0, 1));
  // Middle nodes have degree exactly 2.
  for (NodeId v = 3; v < 6; ++v) EXPECT_EQ(s.degree(v), 2u);
}

TEST(Transform, SubdividedCycleIsLongerCycle) {
  Graph s = subdivide_edges(gen::cycle(4));
  EXPECT_EQ(s.num_nodes(), 8u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(s.degree(v), 2u);
  NodeId comp = 0;
  connected_components(s, &comp);
  EXPECT_EQ(comp, 1u);
}

TEST(Transform, Overlay) {
  Graph a = Graph::from_edges(3, {{0, 1}});
  Graph b = Graph::from_edges(3, {{1, 2}, {0, 1}});
  Graph o = overlay(a, b);
  EXPECT_EQ(o.num_edges(), 2u);
}

TEST(Transform, Complement) {
  Graph c = complement(gen::path(3));  // path 0-1-2 -> single edge 0-2
  EXPECT_EQ(c.num_edges(), 1u);
  EXPECT_TRUE(c.has_edge(0, 2));
}

}  // namespace
}  // namespace arbods
