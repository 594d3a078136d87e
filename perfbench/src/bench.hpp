// The repository benchmark: three workloads of the paper's solvers, each
// a closed loop with one client, certified request by request from
// outside the library. See perfbench/README.md for what each workload
// stresses and how every metric is defined.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 10;
  /// false: end-to-end metrics; true: per-layer metrics from a traced run.
  bool trace = false;
  /// Chrome-trace output path of a traced run; empty = no file.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  // sample count, percentile, or how it was derived
};

struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // one line per failed request
  std::vector<Metric> metrics;
};

/// The workload names, in the order BENCHMARK.json lists them.
const std::vector<std::string_view>& workload_names();

/// Runs one workload for opt.seconds (whole passes over its request set).
Report run_workload(const Options& opt);

}  // namespace perfbench
