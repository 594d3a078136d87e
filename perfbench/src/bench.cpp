#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>

#include "common/random.hpp"
#include "fault/faulty_network.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/random_graphs.hpp"
#include "gen/trees.hpp"
#include "gen/weights.hpp"
#include "graph/verify.hpp"
#include "harness/registry.hpp"
#include "calibrate.hpp"
#include "spans.hpp"

namespace perfbench {
namespace {

using arbods::CongestConfig;
using arbods::MdsResult;
using arbods::Network;
using arbods::NodeId;
using arbods::Rng;
using arbods::WeightedGraph;
using Clock = std::chrono::steady_clock;

constexpr std::string_view kPaperSolvers[] = {"det", "randomized",
                                              "unknown-alpha", "general"};
constexpr const char* kWeightSchemes[] = {"uniform", "powerlaw", "degree"};
// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;
// The tail percentile needs this many requests beyond it.
constexpr std::size_t kTailBeyond = 10;
// The calibration loop's median time at widths 1 and 4 on the reference
// host (4-core Xeon, 300 MiB LLC). End-to-end timings are reported at
// that host's speed: the raw time times this, over the loop's median in
// the run.
double reference_calibration_s(int width) { return width == 1 ? 0.0055 : 0.030; }

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// User + system CPU of the whole process, worker-pool threads included.
double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double median(std::vector<double> v) {
  if (v.empty()) throw std::logic_error("median of no samples");
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

double geomean(const std::vector<double>& v) {
  if (v.empty()) throw std::logic_error("geomean of no samples");
  double logs = 0.0;
  for (const double x : v) logs += std::log(x);
  return std::exp(logs / static_cast<double>(v.size()));
}

// ---------------------------------------------------------------- workloads

struct InstanceSpec {
  std::string family;  // tree | forest2 | forest5 | ba3 | grid
  NodeId n;
  std::string weights;  // a gen::with_weights scheme
};

struct Cell {
  std::size_t instance;
  std::string solver;
};

struct Workload {
  // Sets only threads, seed, fault, reliable_transport and round_limit;
  // the probes of the traced run add trace. Shard count, pinning and
  // auto-replan stay at their defaults on purpose (see README.md).
  CongestConfig config;
  bool pooled = true;  // one Network per instance, built in set-up
  // Seconds one pass takes on the reference host (4-core Xeon). A run
  // times ceil(--seconds / this) whole passes, so every run of a
  // workload times the same requests however fast the host is today.
  double nominal_pass_s = 1.0;
  std::vector<InstanceSpec> instances;
  std::vector<Cell> cells;  // one pass = every cell once, in this order
};

NodeId family_alpha(const std::string& family) {
  if (family == "tree") return 1;
  if (family == "forest2" || family == "grid") return 2;
  if (family == "ba3") return 3;
  if (family == "forest5") return 5;
  throw std::logic_error("unknown family " + family);
}

arbods::Graph build_graph(const InstanceSpec& spec, Rng& rng) {
  namespace gen = arbods::gen;
  if (spec.family == "tree") return gen::random_tree_prufer(spec.n, rng);
  if (spec.family == "forest2") return gen::k_tree_union(spec.n, 2, rng);
  if (spec.family == "forest5") return gen::k_tree_union(spec.n, 5, rng);
  if (spec.family == "ba3") return gen::barabasi_albert(spec.n, 3, rng);
  if (spec.family == "grid") {
    const auto side = static_cast<NodeId>(
        std::lround(std::sqrt(static_cast<double>(spec.n))));
    return gen::grid(side, side);
  }
  throw std::logic_error("unknown family " + spec.family);
}

Workload make_workload(std::string_view name, std::uint64_t seed) {
  Workload w;
  w.config.seed = arbods::mix64(seed ^ 0x51'3a'7e'0dULL);
  if (name == "scale-clean") {
    w.config.threads = 4;
    w.nominal_pass_s = 11.0;
    w.instances = {{"ba3", 100'000, "powerlaw"},
                   {"forest2", 100'000, "powerlaw"},
                   {"forest2", 500'000, "powerlaw"}};
    for (const std::size_t i : {0, 1})
      for (const std::string_view s : kPaperSolvers)
        w.cells.push_back({i, std::string(s)});
    w.cells.push_back({2, "det"});
  } else if (name == "many-small") {
    w.config.threads = 1;
    w.pooled = false;
    w.nominal_pass_s = 8.0;
    // Twelve fresh instances per family, four per weight scheme, each
    // solved by all four solvers (one request per solver, each on its
    // own Network), so every request is certified against the best
    // packing bound of four. A family's twelve sizes are stratified over
    // [2000, 8000) — one draw per equal stratum, strata in seeded order —
    // so a seed changes which instance is how large but barely moves the
    // work of a pass.
    Rng rng(arbods::mix64(seed ^ 0x5a'11ULL));
    constexpr int kStrata = 12;
    for (const char* family : {"tree", "forest2", "forest5", "ba3", "grid"}) {
      std::vector<int> order(kStrata);
      std::iota(order.begin(), order.end(), 0);
      rng.shuffle(order);
      for (int j = 0; j < kStrata; ++j) {
        const auto n = static_cast<NodeId>(
            2000.0 + 6000.0 * (order[j] + rng.next_double()) / kStrata);
        w.instances.push_back({family, n, kWeightSchemes[j % 3]});
        for (const std::string_view s : kPaperSolvers)
          w.cells.push_back({w.instances.size() - 1, std::string(s)});
      }
    }
  } else if (name == "reliable-lossy") {
    w.config.threads = 4;
    w.config.fault.drop_prob = 0.01;
    w.config.fault.delay_prob = 0.01;
    w.config.fault.max_delay_rounds = 2;
    w.config.fault.fault_seed = arbods::mix64(seed ^ 0xfa'17ULL);
    w.config.reliable_transport = true;
    w.config.round_limit = 20'000;
    w.nominal_pass_s = 7.0;
    w.instances = {{"forest2", 10'000, "powerlaw"}, {"ba3", 10'000, "powerlaw"}};
    for (const std::size_t i : {0, 1})
      for (const char* s : {"det", "general"}) w.cells.push_back({i, s});
  } else {
    throw std::invalid_argument("unknown workload " + std::string(name));
  }
  return w;
}

// ---------------------------------------------------------------- the run

struct Setup {
  std::vector<WeightedGraph> graphs;
  std::vector<std::unique_ptr<Network>> nets;  // pooled workloads only
  double seconds = 0.0;
  double build_s = 0.0;
  double construct_s = 0.0;
};

struct Sample {
  std::size_t cell = 0;
  int pass = 0;
  bool traced = false;
  bool ok = true;
  double wall = 0.0;       // the whole request: construct (if any) + solve
  double call = 0.0;       // the run_solver_on call alone
  double cpu = 0.0;
  double certify = 0.0;
  arbods::obs::TimingStats timing;
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
};

class Bench {
 public:
  explicit Bench(const Options& opt)
      : opt_(opt), w_(make_workload(opt.workload, opt.seed)),
        calibration_(w_.config.threads) {}

  Report run();

 private:
  CongestConfig clean_config() const {
    CongestConfig c;
    c.threads = w_.config.threads;
    c.seed = w_.config.seed;
    return c;
  }
  const std::string& family(const Cell& c) const {
    return w_.instances[c.instance].family;
  }
  arbods::harness::SolverParams params(const Cell& c) const {
    arbods::harness::SolverParams p;
    if (arbods::harness::solver(c.solver).schema.alpha)
      p.alpha = family_alpha(family(c));
    return p;
  }
  std::string describe(const Cell& c, std::string_view what) const {
    std::ostringstream os;
    const InstanceSpec& spec = w_.instances[c.instance];
    os << what << " " << c.solver << " on " << spec.family << " n="
       << setup_.graphs[c.instance].num_nodes() << " " << spec.weights;
    return os.str();
  }

  Setup set_up(Spans* spans) const;
  void clean_runs();
  void warm_up();
  Sample request(std::size_t ci, int pass, Spans* spans);
  void certify(Sample& smp, const std::optional<MdsResult>& res,
               const std::string& error);
  bool check_solve(const Cell& c, const std::optional<MdsResult>& res,
                   const std::string& error, std::string_view what,
                   const MdsResult* same_set_as);
  void check_ratios();

  std::optional<MdsResult> timed_solve(const Cell& c, Network& net,
                                       double& wall, std::string& error);
  void layer_probes();
  std::vector<Metric> end_to_end() const;
  std::vector<Metric> per_layer() const;

  const Options& opt_;
  const Workload w_;
  Setup setup_;
  Spans spans_;
  Calibration calibration_;
  std::vector<double> calib_seconds_;
  std::vector<double> setup_seconds_, build_seconds_, construct_seconds_;
  std::vector<Sample> samples_;
  std::vector<std::optional<MdsResult>> reference_;  // first repeat per cell
  std::vector<MdsResult> clean_;                      // reliable-lossy only
  std::vector<double> best_lb_;                       // per instance
  std::vector<double> ratio_;                         // per cell
  Report report_;

  // Traced-run probe results (per_layer()).
  std::map<std::string, std::pair<double, std::int64_t>> extra_core_;
  double speedup_w4_ = 0.0, trace_ratio_ = 0.0, flight_ratio_ = 0.0,
         decorator_ratio_ = 0.0, clean_ratio_ = 0.0;
  double probe_retransmit_s_ = 0.0, probe_msgs_ratio_ = 0.0,
         probe_rounds_ratio_ = 0.0;
};

Setup Bench::set_up(Spans* spans) const {
  ScopedSpan setup_span(spans, "setup");
  const auto t0 = Clock::now();
  Setup s;
  const Rng base(arbods::mix64(opt_.seed ^ 0x9e'ed'5e'edULL));
  s.graphs.reserve(w_.instances.size());
  for (std::size_t i = 0; i < w_.instances.size(); ++i) {
    ScopedSpan span(spans, "build");
    const auto tb = Clock::now();
    Rng rng = base.split(i);
    s.graphs.push_back(arbods::gen::with_weights(
        build_graph(w_.instances[i], rng), w_.instances[i].weights, rng));
    s.build_s += since(tb);
  }
  if (w_.pooled) {
    for (const WeightedGraph& wg : s.graphs) {
      ScopedSpan span(spans, "construct");
      const auto tc = Clock::now();
      s.nets.push_back(arbods::fault::make_network(wg, w_.config));
      s.construct_s += since(tc);
    }
  }
  s.seconds = since(t0);
  return s;
}

// The fault-free run of every cell, which a reliable run must reproduce.
void Bench::clean_runs() {
  clean_.resize(w_.cells.size());
  for (std::size_t i = 0; i < setup_.graphs.size(); ++i) {
    const auto net = arbods::fault::make_network(setup_.graphs[i], clean_config());
    for (std::size_t ci = 0; ci < w_.cells.size(); ++ci)
      if (w_.cells[ci].instance == i)
        clean_[ci] = arbods::harness::run_solver_on(w_.cells[ci].solver, *net,
                                                    params(w_.cells[ci]));
  }
}

// The first solves of a process run slower; pay that before timing.
void Bench::warm_up() {
  if (w_.config.reliable_transport) return;  // clean_runs() warmed up
  if (w_.pooled) {
    for (const auto& net : setup_.nets)
      arbods::harness::run_solver_on("general", *net);
    return;
  }
  for (std::size_t i = 0; i < std::min<std::size_t>(8, setup_.graphs.size()); ++i) {
    const auto net = arbods::fault::make_network(setup_.graphs[i], w_.config);
    arbods::harness::run_solver_on("general", *net);
  }
}

Sample Bench::request(std::size_t ci, int pass, Spans* spans) {
  const Cell& c = w_.cells[ci];
  Sample smp;
  smp.cell = ci;
  smp.pass = pass;
  smp.traced = spans != nullptr;
  ScopedSpan request_span(spans, "request");
  std::optional<MdsResult> res;
  std::string error;
  const double cpu0 = cpu_seconds();
  const auto t0 = Clock::now();
  {
    std::unique_ptr<Network> own;
    if (!w_.pooled) {
      ScopedSpan span(spans, "construct");
      const auto tc = Clock::now();
      own = arbods::fault::make_network(setup_.graphs[c.instance], w_.config);
      construct_seconds_.push_back(since(tc));
    }
    Network& net = w_.pooled ? *setup_.nets[c.instance] : *own;
    ScopedSpan span(spans, "solve");
    const auto ts = Clock::now();
    try {
      res = arbods::harness::run_solver_on(c.solver, net, params(c));
    } catch (const std::exception& e) {
      error = e.what();
    }
    smp.call = since(ts);
  }
  smp.wall = since(t0);
  smp.cpu = cpu_seconds() - cpu0;
  if (res) {
    smp.timing = res->stats.timing;
    smp.rounds = res->stats.rounds;
    smp.messages = res->stats.messages;
  }
  ScopedSpan span(spans, "certify");
  const auto tc = Clock::now();
  certify(smp, res, error);
  smp.certify = since(tc);
  return smp;
}

// Checks one solve from outside the library; records a failure line and
// returns false when it is not a certified dominating set. With
// `same_set_as`, the set and weight must also equal that result's.
bool Bench::check_solve(const Cell& c, const std::optional<MdsResult>& res,
                        const std::string& error, std::string_view what,
                        const MdsResult* same_set_as) {
  std::vector<std::string> why;
  if (!res) {
    why.push_back("threw: " + error);
  } else {
    const WeightedGraph& wg = setup_.graphs[c.instance];
    const arbods::NodeSet& set = res->dominating_set;
    if (res->stats.hit_round_limit) why.push_back("hit the round limit");
    if (!arbods::is_valid_node_set(wg.graph(), set))
      why.push_back("invalid node set");
    else if (!arbods::is_dominating_set(wg.graph(), set))
      why.push_back("not a dominating set");
    arbods::Weight weight = 0;
    for (const NodeId v : set)
      if (v < wg.num_nodes()) weight += wg.weight(v);
    if (weight != res->weight) why.push_back("reported weight is not the set's");
    if (res->packing.empty() || !arbods::is_feasible_packing(wg, res->packing))
      why.push_back("infeasible packing");
    if (same_set_as && (res->dominating_set != same_set_as->dominating_set ||
                        res->weight != same_set_as->weight))
      why.push_back("set or weight differs from the fault-free run");
  }
  if (why.empty()) return true;
  std::string line = describe(c, what) + ":";
  for (const std::string& s : why) line += " " + s + ";";
  report_.failures.push_back(line);
  ++report_.failed;
  return false;
}

void Bench::certify(Sample& smp, const std::optional<MdsResult>& res,
                    const std::string& error) {
  const Cell& c = w_.cells[smp.cell];
  const std::string what = "pass " + std::to_string(smp.pass) + ":";
  const MdsResult* clean = w_.config.reliable_transport ? &clean_[smp.cell] : nullptr;
  smp.ok = check_solve(c, res, error, what, clean);
  std::optional<MdsResult>& ref = reference_[smp.cell];
  if (res && !ref) {
    ref = *res;
  } else if (res && !(*res == *ref) && smp.ok) {
    smp.ok = false;
    report_.failures.push_back(describe(c, what) +
                               ": not bit-identical to the cell's first repeat;");
    ++report_.failed;
  }
  if (smp.ok)
    best_lb_[c.instance] = std::max(best_lb_[c.instance],
                                    arbods::packing_lower_bound(res->packing));
}

// weight / (best feasible packing bound any request produced for the
// instance), against the solver's analytic bound. Fails every request of
// a cell above its bound.
void Bench::check_ratios() {
  ratio_.assign(w_.cells.size(), 0.0);
  for (std::size_t ci = 0; ci < w_.cells.size(); ++ci) {
    const Cell& c = w_.cells[ci];
    if (!reference_[ci]) continue;
    const double lb = best_lb_[c.instance];
    ratio_[ci] = lb > 0.0 ? static_cast<double>(reference_[ci]->weight) / lb
                          : INFINITY;
    const double bound = arbods::harness::solver(c.solver).approx_bound(
        setup_.graphs[c.instance], params(c));
    if (ratio_[ci] <= bound) continue;
    for (Sample& smp : samples_) {
      if (smp.cell != ci || !smp.ok) continue;
      smp.ok = false;
      std::ostringstream line;
      line << describe(c, "pass " + std::to_string(smp.pass) + ":")
           << ": certified ratio " << ratio_[ci] << " above the bound " << bound
           << ";";
      report_.failures.push_back(line.str());
      ++report_.failed;
    }
  }
}

std::optional<MdsResult> Bench::timed_solve(const Cell& c, Network& net,
                                            double& wall, std::string& error) {
  ScopedSpan span(&spans_, "solve");
  ++report_.attempted;
  const auto t0 = Clock::now();
  std::optional<MdsResult> res;
  try {
    res = arbods::harness::run_solver_on(c.solver, net, params(c));
  } catch (const std::exception& e) {
    error = e.what();
  }
  wall = since(t0);
  return res;
}

// One config's probe solves: their wall times and the last result.
struct ConfigRuns {
  std::vector<double> walls;
  std::optional<MdsResult> last;
};

void Bench::layer_probes() {
  ScopedSpan probe_span(&spans_, "probe");
  namespace harness = arbods::harness;
  const Cell& pc = *std::find_if(w_.cells.begin(), w_.cells.end(), [&](const Cell& c) {
    return c.solver == "det" && family(c) == "forest2";
  });
  const WeightedGraph& pwg = setup_.graphs[pc.instance];

  // Alternates rounds of probe-cell solves over one Network per config:
  // at least `min_reps` rounds, then more until `budget_s` seconds or
  // `max_reps` rounds. Every solve is certified and must give the first
  // config's set and weight.
  auto alternate = [&](const std::vector<CongestConfig>& cfgs, int min_reps,
                       int max_reps, double budget_s) {
    std::vector<std::unique_ptr<Network>> nets;
    for (const CongestConfig& cfg : cfgs) {
      ScopedSpan span(&spans_, "construct");
      nets.push_back(arbods::fault::make_network(pwg, cfg));
    }
    std::vector<ConfigRuns> runs(cfgs.size());
    const auto t0 = Clock::now();
    for (int r = 0; r < min_reps || (r < max_reps && since(t0) < budget_s); ++r) {
      for (std::size_t k = 0; k < cfgs.size(); ++k) {
        double wall = 0.0;
        std::string error;
        runs[k].last = timed_solve(pc, *nets[k], wall, error);
        runs[k].walls.push_back(wall);
        check_solve(pc, runs[k].last, error, "probe:",
                    k > 0 && runs[0].last ? &*runs[0].last : nullptr);
      }
    }
    return runs;
  };
  auto ratio = [](const ConfigRuns& num, const ConfigRuns& den) {
    return median(num.walls) / median(den.walls);
  };

  // Cost of each decorator over the plain engine, on the probe cell.
  const CongestConfig plain = clean_config();
  CongestConfig traced = plain, flight = plain, faulty = plain, reliable = plain;
  traced.trace.enabled = true;
  flight.trace.flight_rounds = 8;
  faulty.fault.drop_prob = 1e-12;  // the decorator, with no fault expected
  faulty.fault.fault_seed = w_.config.seed;
  reliable.reliable_transport = true;
  const auto dec = alternate({plain, traced, flight, faulty}, 5, 25, 4.0);
  trace_ratio_ = ratio(dec[1], dec[0]);
  flight_ratio_ = ratio(dec[2], dec[0]);
  decorator_ratio_ = ratio(dec[3], dec[0]);
  const auto rel = alternate({plain, reliable}, 1, 5, 5.0);
  clean_ratio_ = ratio(rel[1], rel[0]);
  if (rel[0].last && rel[1].last) {
    probe_retransmit_s_ = rel[1].last->stats.timing.retransmit_seconds;
    probe_msgs_ratio_ = static_cast<double>(rel[1].last->stats.messages) /
                        static_cast<double>(rel[0].last->stats.messages);
    probe_rounds_ratio_ = static_cast<double>(rel[1].last->stats.rounds) /
                          static_cast<double>(rel[0].last->stats.rounds);
  }

  // Width 1 against width 4 on every cell: the other width's solve must
  // be bit-identical to the cell's first repeat.
  const int other = w_.config.threads == 4 ? 1 : 4;
  std::vector<double> speedups;
  for (std::size_t i = 0; i < setup_.graphs.size(); ++i) {
    CongestConfig cfg = w_.config;
    cfg.threads = other;
    std::unique_ptr<Network> net;
    {
      ScopedSpan span(&spans_, "construct");
      net = arbods::fault::make_network(setup_.graphs[i], cfg);
    }
    for (std::size_t ci = 0; ci < w_.cells.size(); ++ci) {
      const Cell& c = w_.cells[ci];
      if (c.instance != i) continue;
      double wall = 0.0;
      std::string error;
      const auto res = timed_solve(c, *net, wall, error);
      if (check_solve(c, res, error, "width probe:", nullptr) && reference_[ci] &&
          !(*res == *reference_[ci])) {
        report_.failures.push_back(describe(c, "width probe:") +
                                   ": differs from the other width's result;");
        ++report_.failed;
      }
      std::vector<double> walls;
      for (const Sample& smp : samples_)
        if (smp.cell == ci) walls.push_back(smp.call);
      const double own = median(walls);
      speedups.push_back(other == 1 ? wall / own : own / wall);
    }
  }
  speedup_w4_ = geomean(speedups);

  // Paper solvers the workload does not run: one solve each on the probe
  // cell's instance under the workload's own config.
  for (const std::string_view s : kPaperSolvers) {
    const bool ran = std::any_of(w_.cells.begin(), w_.cells.end(),
                                 [&](const Cell& c) { return c.solver == s; });
    if (ran) continue;
    const Cell c{pc.instance, std::string(s)};
    const auto clean_net = arbods::fault::make_network(pwg, clean_config());
    const MdsResult clean = harness::run_solver_on(c.solver, *clean_net, params(c));
    const auto net = arbods::fault::make_network(pwg, w_.config);
    double wall = 0.0;
    std::string error;
    const auto res = timed_solve(c, *net, wall, error);
    check_solve(c, res, error, "solver probe:",
                w_.config.reliable_transport ? &clean : nullptr);
    extra_core_[c.solver] = {wall, res ? res->stats.rounds : 0};
  }
}

Report Bench::run() {
  Spans* spans = opt_.trace ? &spans_ : nullptr;
  for (int k = 0; k < kSetups; ++k) {
    calib_seconds_.push_back(calibration_.run());
    // Free the previous set-up, Networks before the graphs they reference.
    setup_.nets.clear();
    setup_.graphs.clear();
    setup_ = set_up(spans);
    setup_seconds_.push_back(setup_.seconds);
    build_seconds_.push_back(setup_.build_s);
    if (w_.pooled) construct_seconds_.push_back(setup_.construct_s);
  }
  if (w_.config.reliable_transport) clean_runs();
  warm_up();

  reference_.assign(w_.cells.size(), std::nullopt);
  best_lb_.assign(w_.instances.size(), 0.0);
  // Whole passes, so every run times the same request mix: at least
  // enough for the tail percentile and, in a traced run, two (spans on
  // every other pass).
  const auto min_passes = static_cast<int>(std::max<std::size_t>(
      opt_.trace ? 2 : 1, (kTailBeyond + w_.cells.size()) / w_.cells.size()));
  const int passes = std::max(
      min_passes, static_cast<int>(std::ceil(opt_.seconds / w_.nominal_pass_s)));
  // The calibration loop also runs before the first request, after the
  // last, and between requests once a second has passed since it last
  // ran, so its median sees the host as the requests saw it.
  Clock::time_point last_calibration;
  auto calibrate = [&] {
    calib_seconds_.push_back(calibration_.run());
    last_calibration = Clock::now();
  };
  calibrate();
  for (int pass = 0; pass < passes; ++pass) {
    Spans* pass_spans = spans && pass % 2 == 0 ? spans : nullptr;
    for (std::size_t ci = 0; ci < w_.cells.size(); ++ci) {
      samples_.push_back(request(ci, pass, pass_spans));
      if (since(last_calibration) >= 1.0) calibrate();
    }
  }
  calibrate();
  report_.attempted += static_cast<std::int64_t>(samples_.size());
  check_ratios();

  if (opt_.trace) {
    layer_probes();
    if (!opt_.trace_out.empty()) {
      std::ofstream os(opt_.trace_out);
      spans_.write_chrome_json(os);
      if (!os) throw std::runtime_error("cannot write " + opt_.trace_out);
    }
    report_.metrics = per_layer();
  } else {
    report_.metrics = end_to_end();
  }
  return report_;
}

// ---------------------------------------------------------------- metrics

// The geometric mean over cells of each cell's median `field`: the
// typical request of a mix whose cells differ by orders of magnitude. A
// plain median of the mix would follow only the cells ranked near the
// middle, and miss a change to the fastest or slowest ones.
double cell_geomean(const std::vector<Sample>& samples, std::size_t cells,
                    double Sample::*field) {
  std::vector<std::vector<double>> per_cell(cells);
  for (const Sample& smp : samples) per_cell[smp.cell].push_back(smp.*field);
  std::vector<double> medians;
  for (const std::vector<double>& v : per_cell) medians.push_back(median(v));
  return geomean(medians);
}

std::vector<Metric> Bench::end_to_end() const {
  double sum_wall = 0.0, sum_msgs = 0.0;
  std::int64_t ok = 0;
  for (const Sample& smp : samples_) {
    sum_wall += smp.wall;
    sum_msgs += static_cast<double>(smp.messages);
    ok += smp.ok;
  }
  std::int64_t rounds = 0, messages = 0, bits = 0;
  for (const auto& ref : reference_) {
    if (!ref) continue;
    rounds += ref->stats.rounds;
    messages += ref->stats.messages;
    bits += ref->stats.total_bits;
  }
  std::vector<double> ratios;
  for (const double r : ratio_)
    if (r > 0.0) ratios.push_back(r);

  // The tail, as a slowdown: each request's wall time over its cell's
  // median, at the highest percentile with kTailBeyond samples beyond
  // it, times solve_s. Raw times would rank cells, not requests: with
  // few requests per run the percentile falls between cells whose order
  // changes with the seed.
  std::vector<std::vector<double>> per_cell(w_.cells.size());
  for (const Sample& smp : samples_) per_cell[smp.cell].push_back(smp.wall);
  std::vector<double> slowdown;
  for (const Sample& smp : samples_)
    slowdown.push_back(smp.wall / median(per_cell[smp.cell]));
  std::sort(slowdown.begin(), slowdown.end());
  const std::size_t n = slowdown.size();
  const std::size_t k = n > kTailBeyond ? n - kTailBeyond - 1 : 0;
  const double solve_s = cell_geomean(samples_, w_.cells.size(), &Sample::wall);
  std::ostringstream tail;
  tail << "solve_s x p" << 100.0 * static_cast<double>(k + 1) / static_cast<double>(n)
       << " slowdown " << slowdown[k] << ", " << n << " requests";
  const double setup_s = median(setup_seconds_);
  const double cpu_s = cell_geomean(samples_, w_.cells.size(), &Sample::cpu);
  const double msgs_per_s = sum_msgs / sum_wall;
  const double host = reference_calibration_s(w_.config.threads) /
                      median(calib_seconds_);
  auto raw = [&](double value) {
    std::ostringstream os;
    os << "; raw " << value << ", host factor " << host;
    return os.str();
  };
  const std::string n_req = std::to_string(n) + " requests";
  const std::string typical = "geomean over " + std::to_string(w_.cells.size()) +
                              " cells of the cell median, " + n_req;
  const std::string n_cells = "sum over the " + std::to_string(w_.cells.size()) +
                              "-request set";
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);

  return {
      {"setup_s", host * setup_s, "s",
       "median of " + std::to_string(kSetups) + " set-ups" + raw(setup_s)},
      {"solve_s", host * solve_s, "s", typical + raw(solve_s)},
      {"solve_s_tail", host * solve_s * slowdown[k], "s",
       tail.str() + raw(solve_s * slowdown[k])},
      {"solve_cpu_s", host * cpu_s, "s", typical + raw(cpu_s)},
      {"sim_msgs_per_s", msgs_per_s / host, "1/s", "over " + n_req + raw(msgs_per_s)},
      {"rounds", static_cast<double>(rounds), "count", n_cells},
      {"messages", static_cast<double>(messages), "count", n_cells},
      {"total_bits", static_cast<double>(bits), "bit", n_cells},
      {"certified_ratio", ratios.empty() ? 0.0 : geomean(ratios), "ratio",
       "geomean over the request set"},
      {"certified_frac", static_cast<double>(ok) / static_cast<double>(n), "frac",
       std::to_string(n - static_cast<std::size_t>(ok)) + " of " + n_req +
           " failed"},
      {"peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB",
       "getrusage ru_maxrss"},
  };
}

std::vector<Metric> Bench::per_layer() const {
  std::vector<double> call, compute, flip, unattributed, certify, retransmit;
  double sum_call = 0.0, sum_cpu = 0.0, sum_wall = 0.0, msgs = 0.0, rounds = 0.0;
  std::map<std::size_t, std::pair<std::vector<double>, std::vector<double>>>
      per_cell;  // traced / untraced pass walls
  for (const Sample& smp : samples_) {
    call.push_back(smp.call);
    compute.push_back(smp.timing.compute_seconds);
    flip.push_back(smp.timing.flip_seconds);
    retransmit.push_back(smp.timing.retransmit_seconds);
    unattributed.push_back(smp.call - smp.timing.compute_seconds -
                           smp.timing.flip_seconds - smp.timing.merge_seconds -
                           smp.timing.retransmit_seconds);
    certify.push_back(smp.certify);
    sum_call += smp.call;
    sum_cpu += smp.cpu;
    sum_wall += smp.wall;
    msgs += static_cast<double>(smp.messages);
    rounds += static_cast<double>(smp.rounds);
    (smp.traced ? per_cell[smp.cell].first : per_cell[smp.cell].second)
        .push_back(smp.wall);
  }
  std::vector<double> overhead;
  for (const auto& [cell, walls] : per_cell)
    overhead.push_back(median(walls.first) / median(walls.second));

  std::int64_t phases = 0, dropped = 0, delayed = 0, ref_msgs = 0, ref_rounds = 0;
  std::int64_t clean_msgs = 0, clean_rounds = 0;
  for (std::size_t ci = 0; ci < reference_.size(); ++ci) {
    if (!reference_[ci]) continue;
    const arbods::RunStats& st = reference_[ci]->stats;
    phases += static_cast<std::int64_t>(st.phases.size());
    dropped += st.dropped;
    delayed += st.delayed;
    ref_msgs += st.messages;
    ref_rounds += st.rounds;
    if (!clean_.empty()) {
      clean_msgs += clean_[ci].stats.messages;
      clean_rounds += clean_[ci].stats.rounds;
    }
  }
  const bool rel = w_.config.reliable_transport;
  const std::string probe = "probe cell (det on forest2)";

  std::vector<Metric> m = {
      {"gen.build_s", median(build_seconds_), "s", "median over set-ups"},
      {"congest.construct_s", median(construct_seconds_), "s",
       w_.pooled ? "median over set-ups of their make_network calls"
                 : "median per request"},
      {"congest.ns_per_msg", 1e9 * sum_call / msgs, "ns", "solve call / message"},
      {"congest.us_per_round", 1e6 * sum_call / rounds, "us", "solve call / round"},
      {"congest.compute_s", median(compute), "s", "median RunStats::timing"},
      {"congest.flip_s", median(flip), "s", "median RunStats::timing"},
      {"congest.unattributed_s", median(unattributed), "s",
       "median: call - compute - flip - merge - retransmit"},
      {"worker_pool.cpu_per_wall", sum_cpu / sum_wall, "ratio", "over requests"},
      {"worker_pool.speedup_w4", speedup_w4_, "ratio",
       "width 1 / width 4, geomean over the request set"},
      {"protocol.phases", static_cast<double>(phases), "count",
       "sum over the request set"},
  };
  for (const std::string_view s : kPaperSolvers) {
    std::vector<double> walls;
    std::int64_t solver_rounds = 0;
    for (const Sample& smp : samples_)
      if (w_.cells[smp.cell].solver == s) walls.push_back(smp.call);
    for (std::size_t ci = 0; ci < reference_.size(); ++ci)
      if (w_.cells[ci].solver == s && reference_[ci])
        solver_rounds += reference_[ci]->stats.rounds;
    const std::string name = "core." + std::string(s);
    if (walls.empty()) {
      const auto& [wall, r] = extra_core_.at(std::string(s));
      m.push_back({name + ".solve_s", wall, "s", "one solve on the " + probe});
      m.push_back({name + ".rounds", static_cast<double>(r), "count",
                   "one solve on the " + probe});
    } else {
      m.push_back({name + ".solve_s", median(walls), "s", "median solve call"});
      m.push_back({name + ".rounds", static_cast<double>(solver_rounds), "count",
                   "sum over the request set"});
    }
  }
  m.insert(m.end(), {
      {"fault.dropped", static_cast<double>(dropped), "count",
       "sum over the request set"},
      {"fault.delayed", static_cast<double>(delayed), "count",
       "sum over the request set"},
      {"fault.decorator_ratio", decorator_ratio_, "ratio",
       "drop 1e-12 / plain, " + probe},
      {"resilience.retransmit_s", rel ? median(retransmit) : probe_retransmit_s_,
       "s", rel ? "median RunStats::timing" : "zero-fault reliable " + probe},
      {"resilience.msgs_per_useful",
       rel ? static_cast<double>(ref_msgs) / static_cast<double>(clean_msgs)
           : probe_msgs_ratio_,
       "ratio", rel ? "physical / fault-free messages" : "zero-fault reliable " + probe},
      {"resilience.rounds_per_virtual",
       rel ? static_cast<double>(ref_rounds) / static_cast<double>(clean_rounds)
           : probe_rounds_ratio_,
       "ratio", rel ? "physical / fault-free rounds" : "zero-fault reliable " + probe},
      {"resilience.clean_ratio", clean_ratio_, "ratio",
       "zero-fault reliable / plain, " + probe},
      {"obs.trace_ratio", trace_ratio_, "ratio", "trace on / off, " + probe},
      {"obs.flight_ratio", flight_ratio_, "ratio",
       "flight recorder (8 rounds) / off, " + probe},
      {"harness.certify_s", median(certify), "s", "median per request"},
      {"bench.calib_s", median(calib_seconds_), "s",
       "median calibration loop time, " + std::to_string(calib_seconds_.size()) +
           " runs"},
      {"bench.span_overhead", geomean(overhead), "ratio",
       "traced / untraced passes, geomean over the request set"},
  });
  for (const auto& [name, self] : spans_.self_seconds())
    m.push_back({"bench.self." + name + "_s", self, "s",
                 "span self time, summed"});
  return m;
}

}  // namespace

const std::vector<std::string_view>& workload_names() {
  static const std::vector<std::string_view> names = {"scale-clean", "many-small",
                                                      "reliable-lossy"};
  return names;
}

Report run_workload(const Options& opt) { return Bench(opt).run(); }

}  // namespace perfbench
