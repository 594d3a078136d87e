// Plain-text edge-list I/O.
//
// Format (whitespace separated, '#' comments allowed):
//   n m
//   u v          (m lines, 0-based endpoints)
// Weighted variant appends a line "weights" followed by n integers.
//
// The readers consume the whole stream and throw CheckError with the
// offending token on malformed input: a negative or non-integer token
// ("-1", "1x"), a node count above kMaxNodes, an endpoint >= n, a self-loop,
// fewer or more edge lines than the header's m, or trailing tokens.
// Duplicate edge lines are accepted and collapse into one edge.
#pragma once

#include <iosfwd>
#include <string>

#include "graph/graph.hpp"
#include "graph/weighted_graph.hpp"

namespace arbods {

/// Largest node count the readers accept. A header above it is rejected
/// before anything is allocated: "4000000000 0" fits NodeId, but building
/// it would only end in an allocation failure. The CLI bounds --n by the
/// same limit.
inline constexpr NodeId kMaxNodes = 100'000'000;

void write_graph(std::ostream& os, const Graph& g);
Graph read_graph(std::istream& is);

void write_weighted_graph(std::ostream& os, const WeightedGraph& wg);
WeightedGraph read_weighted_graph(std::istream& is);

/// Convenience file wrappers (throw CheckError on I/O failure).
void save_graph(const std::string& path, const Graph& g);
Graph load_graph(const std::string& path);

}  // namespace arbods
