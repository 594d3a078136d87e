// Experiment 13: robustness envelopes — solver quality and round cost
// under escalating adversarial fault levels.
//
// A thin shell over the scenario batch runner's fault axis
// (src/harness/scenario.hpp + src/fault/): the selected corpus x solvers
// x named fault levels expand into one ScenarioSpec whose rows carry the
// four fault counters (dropped / duplicated / delayed / killed), and the
// sweep doubles as a determinism audit — a faulty run promises
// bit-identical results across every thread width, which the runner
// re-checks per cell.
//
//   exp13_robustness [--solvers name1,...] [--levels none,light,...]
//                    [--threads W1,...] [--seeds S1,...] [--repeats N]
//                    [--round-limit R] [--smoke] [--trace-out PATH]
//
// stdout: one JSON object per row (schema v4 — seed, fault label, fault
// counters, failed flag), ready for CI artifact upload and the
// tools/compare_bench.py gate. stderr: the per-(solver, level) envelope
// table — average weight inflation and extra rounds versus that solver's
// clean ("none") cells, the summed fault counters, and the number of
// cells whose solver died under the fault load (tolerate_failures keeps
// the sweep alive and marks them failed=true instead of aborting).
// Exits 1 on a determinism violation, 2 on a malformed flag.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "harness/corpus.hpp"
#include "harness/scenario.hpp"

using namespace arbods;

namespace {

[[noreturn]] void usage() {
  std::cerr << "usage: exp13_robustness [--solvers name1,name2,...]\n"
               "                        [--levels none,light,moderate,heavy]\n"
               "                        [--threads W1,W2,...] [--seeds "
               "S1,S2,...] [--repeats N]\n"
               "                        [--round-limit R] [--smoke] "
               "[--trace-out PATH]\n";
  std::exit(2);
}

int run(int argc, char** argv) {
  std::vector<std::string> solvers = {"det", "randomized", "greedy-threshold"};
  std::vector<std::string> level_names = {"none", "light", "moderate",
                                          "heavy"};
  std::vector<int> threads = {1, 4};
  std::vector<std::uint64_t> seeds = {12345};
  int repeats = 1;
  std::int64_t round_limit = 2000;
  bool smoke = false;
  std::string trace_out;

  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto need = [&] { return bench::flag_value(argc, argv, i); };
    if (flag == "--solvers") solvers = bench::parse_list(flag, need());
    else if (flag == "--levels") level_names = bench::parse_list(flag, need());
    else if (flag == "--threads") threads = bench::parse_numbers(flag, need(), 0, kMaxThreads);
    else if (flag == "--seeds") seeds = bench::parse_numbers<std::uint64_t>(flag, need(), 0, std::numeric_limits<std::uint64_t>::max());
    else if (flag == "--repeats") repeats = bench::parse_number(flag, need(), 1, 10'000);
    else if (flag == "--round-limit") round_limit = bench::parse_number<std::int64_t>(flag, need(), 1, std::numeric_limits<std::int64_t>::max());
    else if (flag == "--smoke") smoke = true;
    else if (flag == "--trace-out") trace_out = need();
    else usage();
  }
  if (smoke) {
    // CI preset: small corpus, two solvers, the full level ladder, one
    // seed — enough to exercise every counter in seconds.
    solvers = {"det", "greedy-threshold"};
    threads = {1, 4};
  }

  harness::ScenarioSpec spec;
  for (const std::string& name : solvers)
    spec.solvers.push_back({name, std::nullopt, name});
  spec.fault_levels.clear();
  for (const std::string& name : level_names)
    spec.fault_levels.push_back(bench::named_fault_level(name));
  spec.thread_widths = threads;
  spec.seeds = seeds;
  spec.repeats = repeats;
  // A starved solver must terminate (via PhaseStats::hit_round_limit)
  // rather than spin, and may die on a violated invariant — both are
  // data points of the envelope, not sweep aborts.
  spec.base_config.round_limit = round_limit;
  spec.tolerate_failures = true;
  spec.keep_certificates = false;
  spec.trace_out = trace_out;

  std::vector<harness::CorpusInstance> corpus;
  if (smoke) {
    auto small = harness::small_corpus(seeds.front());
    for (std::size_t i = 0; i < small.size() && corpus.size() < 4; i += 3)
      corpus.push_back(std::move(small[i]));
  } else {
    corpus = harness::standard_corpus(/*weighted=*/true, seeds.front());
  }

  const auto rows = harness::run_scenario(spec, corpus);
  harness::write_scenario_json(std::cout, rows);

  // Clean-twin lookup: the "none" weight/rounds of the same
  // (instance, solver, seed, threads) cell.
  std::map<std::string, std::pair<double, double>> clean;
  auto cell_key = [](const harness::ScenarioRow& row) {
    std::ostringstream key;
    key << row.instance << '\x1f' << row.solver << '\x1f' << row.seed
        << '\x1f' << row.threads;
    return key.str();
  };
  for (const auto& row : rows)
    if (row.fault == "none" && !row.failed)
      clean[cell_key(row)] = {row.result.weight,
                              static_cast<double>(row.result.stats.rounds)};

  // One envelope row per (solver, fault level), aggregated over
  // instances, seeds, and widths.
  struct Envelope {
    double weight_ratio_sum = 0.0;
    double extra_rounds_sum = 0.0;
    int compared = 0;
    obs::Counters counters;  // only the fault tallies are reported
    int cells = 0, failed = 0, limited = 0;
  };
  std::map<std::pair<std::string, std::string>, Envelope> envelopes;
  for (const auto& row : rows) {
    Envelope& env = envelopes[{row.solver, row.fault}];
    ++env.cells;
    if (row.failed) {
      ++env.failed;
      continue;
    }
    env.counters += row.result.stats;
    if (row.result.stats.hit_round_limit) ++env.limited;
    const auto it = clean.find(cell_key(row));
    if (it != clean.end() && it->second.first > 0.0) {
      env.weight_ratio_sum += row.result.weight / it->second.first;
      env.extra_rounds_sum +=
          static_cast<double>(row.result.stats.rounds) - it->second.second;
      ++env.compared;
    }
  }

  Table table({"solver", "fault", "cells", "weight_vs_clean", "extra_rounds",
               "dropped", "duplicated", "delayed", "killed", "limited",
               "failed"});
  for (const auto& [key, env] : envelopes) {
    const double ratio =
        env.compared > 0 ? env.weight_ratio_sum / env.compared : 0.0;
    const double extra =
        env.compared > 0 ? env.extra_rounds_sum / env.compared : 0.0;
    table.add_row({key.first, key.second, Table::fmt_int(env.cells), Table::fmt(ratio, 4),
                   Table::fmt(extra, 1), Table::fmt_int(env.counters.dropped),
                   Table::fmt_int(env.counters.duplicated),
                   Table::fmt_int(env.counters.delayed),
                   Table::fmt_int(env.counters.killed),
                   Table::fmt_int(env.limited),
                   Table::fmt_int(env.failed)});
  }
  std::cerr << "\nExperiment 13: robustness envelopes (weight_vs_clean = "
               "avg faulty/clean weight of the same cell)\n";
  table.print(std::cerr);

  for (const auto& row : rows) {
    if (row.identical) continue;
    std::cerr << "DETERMINISM VIOLATION: " << row.instance << " / "
              << row.solver << " / " << row.fault
              << " at threads=" << row.threads << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "exp13_robustness: error: " << e.what() << "\n";
    return 2;
  }
}
