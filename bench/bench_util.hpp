// Shared helpers for the experiment binaries. Each binary prints
// GitHub-flavoured markdown tables so results can be pasted into
// EXPERIMENTS.md verbatim.
//
// Instances come from the shared harness corpus (src/harness/corpus.hpp)
// and solvers are enumerated through the registry
// (src/harness/registry.hpp) — no per-binary instance or solver lists.
#pragma once

#include <charconv>
#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <system_error>
#include <vector>

#include "baselines/simplex.hpp"
#include "common/random.hpp"
#include "common/table.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "graph/weighted_graph.hpp"
#include "fault/fault_spec.hpp"
#include "harness/corpus.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"

namespace arbods::bench {

using NamedInstance = harness::CorpusInstance;

/// The standard experiment families (kept small enough for laptop runs).
inline std::vector<NamedInstance> standard_instances(bool weighted,
                                                     std::uint64_t seed) {
  return harness::standard_corpus(weighted, seed);
}

/// Best available lower bound on OPT: exact LP for small instances, else
/// the instance's own dual certificate (caller-provided packing bound).
inline double lp_or_packing_bound(const WeightedGraph& wg,
                                  double packing_bound,
                                  NodeId lp_limit = 600) {
  if (wg.num_nodes() <= lp_limit)
    return baselines::solve_fractional_mds(wg).objective;
  return packing_bound;
}

inline std::string fmt_ratio(double num, double den) {
  return den > 0 ? Table::fmt(num / den, 3) : "n/a";
}

// ----------------------------------------------------- command-line parsing
// Strict parsers for the scenario binaries' flags. Every error throws
// std::invalid_argument naming the flag; each main catches
// std::exception at top level and exits 2, so a typo never aborts with
// an uncaught exception or runs with a silently clamped value.

/// The value after flag argv[i], advancing i past it.
inline std::string flag_value(int argc, char** argv, int& i) {
  if (i + 1 >= argc)
    throw std::invalid_argument(std::string("missing value for ") + argv[i]);
  return argv[++i];
}

/// The whole of `text` as one integer in [lo, hi].
template <typename T>
T parse_number(const std::string& flag, const std::string& text, T lo, T hi) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc() || ptr != end || value < lo ||
      value > hi)
    throw std::invalid_argument(flag + " expects an integer in [" +
                                std::to_string(lo) + ", " +
                                std::to_string(hi) + "], got '" + text + "'");
  return value;
}

/// The comma-separated items of `csv`; an empty list or item is an error.
inline std::vector<std::string> parse_list(const std::string& flag,
                                           const std::string& csv) {
  std::vector<std::string> out;
  for (std::size_t begin = 0;;) {
    const std::size_t comma = csv.find(',', begin);
    out.push_back(csv.substr(begin, comma - begin));
    if (out.back().empty())
      throw std::invalid_argument(
          flag + " expects a comma-separated list, got '" + csv + "'");
    if (comma == std::string::npos) return out;
    begin = comma + 1;
  }
}

/// parse_list, then parse_number on every item.
template <typename T>
std::vector<T> parse_numbers(const std::string& flag, const std::string& csv,
                             T lo, T hi) {
  std::vector<T> out;
  for (const std::string& item : parse_list(flag, csv))
    out.push_back(parse_number<T>(flag, item, lo, hi));
  return out;
}

/// The named fault-escalation ladder exp13 and exp14 share, so both
/// experiments measure the same adversary. Levels are cumulative in
/// spirit (heavier levels raise every dial), so an envelope reads as one
/// curve per solver.
inline harness::ScenarioFault named_fault_level(const std::string& name) {
  harness::ScenarioFault level;
  level.label = name;
  fault::FaultSpec& s = level.spec;
  if (name == "none") return level;
  if (name == "light") {
    s.drop_prob = 0.01;
    s.duplicate_prob = 0.01;
    s.delay_prob = 0.05;
    s.max_delay_rounds = 2;
    return level;
  }
  if (name == "moderate") {
    s.drop_prob = 0.05;
    s.duplicate_prob = 0.05;
    s.delay_prob = 0.2;
    s.max_delay_rounds = 3;
    s.reorder_prob = 0.1;
    return level;
  }
  if (name == "heavy") {
    s.drop_prob = 0.15;
    s.duplicate_prob = 0.1;
    s.delay_prob = 0.3;
    s.max_delay_rounds = 4;
    s.reorder_prob = 0.2;
    s.kill_prob = 0.05;
    s.kill_round = 3;
    return level;
  }
  throw std::invalid_argument("unknown fault level '" + name +
                              "' (known: none, light, moderate, heavy)");
}

}  // namespace arbods::bench
