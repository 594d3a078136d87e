#include "graph/io.hpp"

#include <algorithm>
#include <charconv>
#include <fstream>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/check.hpp"
#include "graph/builder.hpp"

namespace arbods {

namespace {
// Reads the next non-comment token.
std::string next_token(std::istream& is) {
  std::string tok;
  while (is >> tok) {
    if (tok[0] == '#') {
      std::string rest;
      std::getline(is, rest);
      continue;
    }
    return tok;
  }
  return {};
}

// Parses the next token as an integer in [0, max]. EOF, a sign, any
// non-digit (e.g. "1x"), and values past `max` throw CheckError naming
// `what` — never a silent narrowing to a smaller id or count.
std::uint64_t next_uint(std::istream& is, const char* what,
                        std::uint64_t max) {
  const std::string tok = next_token(is);
  ARBODS_CHECK_MSG(!tok.empty(), "unexpected EOF reading " << what);
  ARBODS_CHECK_MSG(tok[0] != '-', what << " '" << tok << "' is negative");
  std::uint64_t value = 0;
  const char* end = tok.data() + tok.size();
  const auto [ptr, ec] = std::from_chars(tok.data(), end, value);
  ARBODS_CHECK_MSG(ec != std::errc::invalid_argument && ptr == end,
                   what << " '" << tok << "' is not an integer");
  ARBODS_CHECK_MSG(ec != std::errc::result_out_of_range && value <= max,
                   what << " '" << tok << "' is out of range (max " << max
                        << ")");
  return value;
}

// The "n m" header and m edge lines; the callers decide what may follow.
Graph read_edge_list(std::istream& is) {
  constexpr std::uint64_t kMaxId = std::numeric_limits<NodeId>::max();
  // Checked before anything O(n) is allocated.
  const auto n = static_cast<NodeId>(next_uint(is, "node count", kMaxNodes));
  const std::uint64_t m =
      next_uint(is, "edge count", std::numeric_limits<std::uint64_t>::max());
  GraphBuilder b(n);
  // The header is untrusted: a huge m must fail at EOF, not in reserve.
  b.reserve_edges(static_cast<std::size_t>(std::min<std::uint64_t>(m, 1 << 20)));
  for (std::uint64_t i = 0; i < m; ++i) {
    const auto u = static_cast<NodeId>(next_uint(is, "edge endpoint", kMaxId));
    const auto v = static_cast<NodeId>(next_uint(is, "edge endpoint", kMaxId));
    b.add_edge(u, v);  // rejects endpoints >= n and self-loops
  }
  return std::move(b).build();
}

void expect_end(std::istream& is, const char* after) {
  const std::string tok = next_token(is);
  ARBODS_CHECK_MSG(tok.empty(), "unexpected token '" << tok << "' after "
                                                     << after);
}
}  // namespace

void write_graph(std::ostream& os, const Graph& g) {
  os << g.num_nodes() << " " << g.num_edges() << "\n";
  for (const Edge& e : g.edges()) os << e.u << " " << e.v << "\n";
}

Graph read_graph(std::istream& is) {
  Graph g = read_edge_list(is);
  expect_end(is, "the last edge (the header's edge count is too small)");
  return g;
}

void write_weighted_graph(std::ostream& os, const WeightedGraph& wg) {
  write_graph(os, wg.graph());
  os << "weights\n";
  for (NodeId v = 0; v < wg.num_nodes(); ++v) os << wg.weight(v) << "\n";
}

WeightedGraph read_weighted_graph(std::istream& is) {
  Graph g = read_edge_list(is);
  std::string marker = next_token(is);
  ARBODS_CHECK_MSG(marker == "weights", "expected 'weights' marker, got '"
                                            << marker << "'");
  std::vector<Weight> w(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v)
    w[v] = static_cast<Weight>(
        next_uint(is, "weight", std::numeric_limits<Weight>::max()));
  expect_end(is, "the last weight");
  return WeightedGraph(std::move(g), std::move(w));
}

void save_graph(const std::string& path, const Graph& g) {
  std::ofstream os(path);
  ARBODS_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_graph(os, g);
  ARBODS_CHECK_MSG(os.good(), "write to " << path << " failed");
}

Graph load_graph(const std::string& path) {
  std::ifstream is(path);
  ARBODS_CHECK_MSG(is.good(), "cannot open " << path);
  return read_graph(is);
}

}  // namespace arbods
