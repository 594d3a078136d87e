// perfbench: the repository benchmark program.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out PATH]
//
// Prints one line per metric (name, value, unit, note), then one JSON
// object as the last line of stdout: {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics of an untraced
// run; --trace 1 reports the per-layer metrics of a traced run and, with
// --trace-out, writes its spans as a Chrome trace. Exit codes: 0 when
// every request is certified, 1 when one fails or the run errors, 2 on a
// bad command line.
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <limits>
#include <stdexcept>
#include <string>

#include "bench.hpp"

namespace {

struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

void print_usage(std::ostream& os) {
  os << "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 "
        "[--trace-out PATH]\n  workloads:";
  for (const std::string_view w : perfbench::workload_names()) os << " " << w;
  os << "\n";
}

// A whole number written in decimal digits only: no sign, no blanks.
std::uint64_t parse_count(const std::string& flag, const std::string& text,
                          std::uint64_t max) {
  if (text.empty() || text.size() > 20 ||
      text.find_first_not_of("0123456789") != std::string::npos)
    throw UsageError(flag + " must be a non-negative whole number, got '" +
                     text + "'");
  std::uint64_t v = 0;
  for (const char c : text) {
    const std::uint64_t d = static_cast<std::uint64_t>(c - '0');
    if (v > (std::numeric_limits<std::uint64_t>::max() - d) / 10)
      throw UsageError(flag + " is out of range: '" + text + "'");
    v = v * 10 + d;
  }
  if (v > max)
    throw UsageError(flag + " must be at most " + std::to_string(max) +
                     ", got " + text);
  return v;
}

perfbench::Options parse(int argc, char** argv) {
  perfbench::Options opt;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "-h" || flag == "--help") {
      print_usage(std::cout);
      std::exit(0);
    }
    if (i + 1 >= argc) throw UsageError("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      bool known = false;
      for (const std::string_view w : perfbench::workload_names())
        known = known || w == value;
      if (!known) throw UsageError("unknown workload '" + value + "'");
      opt.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      opt.seed = parse_count(flag, value, std::numeric_limits<std::uint64_t>::max());
    } else if (flag == "--seconds") {
      opt.seconds = static_cast<int>(parse_count(flag, value, 3600));
      if (opt.seconds < 1) throw UsageError("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1")
        throw UsageError("--trace must be 0 or 1, got '" + value + "'");
      opt.trace = value == "1";
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else {
      throw UsageError("unknown option '" + flag + "'");
    }
  }
  if (!have_workload) throw UsageError("--workload is required");
  return opt;
}

void print_number(std::ostream& os, double v) {
  if (!std::isfinite(v)) {
    os << "null";
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  os << buf;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  try {
    opt = parse(argc, argv);
  } catch (const UsageError& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    print_usage(std::cerr);
    return 2;
  }
  try {
    const perfbench::Report rep = perfbench::run_workload(opt);
    for (const std::string& line : rep.failures)
      std::cerr << "FAILED " << line << "\n";
    for (const perfbench::Metric& m : rep.metrics) {
      std::cout << m.name << " ";
      print_number(std::cout, m.value);
      std::cout << " " << m.unit << "  (" << m.note << ")\n";
    }
    std::cout << "{\"correct\": " << (rep.failed == 0 ? "true" : "false")
              << ", \"attempted\": " << rep.attempted
              << ", \"failed\": " << rep.failed << ", \"metrics\": {";
    for (std::size_t i = 0; i < rep.metrics.size(); ++i) {
      const perfbench::Metric& m = rep.metrics[i];
      std::cout << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": ";
      print_number(std::cout, m.value);
      std::cout << ", \"unit\": \"" << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return rep.failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: error: " << e.what() << "\n";
    return 1;
  }
}
