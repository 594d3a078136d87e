#include "arboricity/barenboim_elkin.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/check.hpp"

namespace arbods {

namespace {

// Edge {u, v} points from lower to higher level, ties broken by id.
bool oriented_out(const std::vector<std::int64_t>& level, NodeId u, NodeId v) {
  return level[u] < level[v] || (level[u] == level[v] && u < v);
}

}  // namespace

BarenboimElkinOrientation::BarenboimElkinOrientation(NodeId alpha, double eps)
    : alpha_(alpha), eps_(eps), alpha_known_(true), guess_(alpha) {
  ARBODS_CHECK(alpha >= 1);
  ARBODS_CHECK(eps > 0.0 && eps <= 2.0);
  set_threshold_from_guess();
}

BarenboimElkinOrientation BarenboimElkinOrientation::with_unknown_alpha(
    double eps) {
  BarenboimElkinOrientation algo(1, eps);
  algo.alpha_ = 0;
  algo.alpha_known_ = false;
  algo.guess_ = 1;
  algo.set_threshold_from_guess();
  return algo;
}

void BarenboimElkinOrientation::set_threshold_from_guess() {
  threshold_ = static_cast<NodeId>(std::floor((2.0 + eps_) * guess_));
}

void BarenboimElkinOrientation::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  active_.assign(n, 1);
  active_degree_.resize(n);
  retired_seen_.reset(net.graph());
  level_.assign(n, -1);
  num_active_ = n;
  full_sweep_ = true;
  retired_.assign(static_cast<std::size_t>(net.num_workers()), WorkerCounter{});
  net.for_nodes([&](NodeId v) { active_degree_[v] = net.degree(v); });
  // Phases needed once the guess reaches the true arboricity: the active
  // set shrinks by the factor 2/(2+eps) per phase.
  budget_per_guess_ =
      1 + static_cast<std::int64_t>(std::ceil(
              std::log(static_cast<double>(n) + 1.0) /
              std::log((2.0 + eps_) / 2.0)));
  phase_budget_ = alpha_known_ ? std::numeric_limits<std::int64_t>::max()
                               : budget_per_guess_;
}

void BarenboimElkinOrientation::process_round(Network& net) {
  const std::int64_t phase = net.current_round();
  // Each node first absorbs last round's retirement announcements, then
  // decides from the updated local active degree, then broadcasts one
  // 1-bit flag. With the threshold unchanged, only a received flag can
  // change a node's decision, so every round but round 1 and the one after
  // a doubling visits just the nodes a flag reached. Each neighbor retires
  // once, so only its first flag counts.
  const Graph& g = net.graph();
  auto step = [&](NodeId v) {
    for (const MessageView m : net.inbox(v)) {
      if (m.tag() == 0 && m.flag_at(1) &&
          retired_seen_.set_once(g, v, m.sender())) {
        ARBODS_CHECK(active_degree_[v] > 0);
        --active_degree_[v];
      }
    }
    if (active_[v] && active_degree_[v] <= threshold_) {
      active_[v] = 0;
      level_[v] = phase;
      ++retired_[static_cast<std::size_t>(net.worker_index())].value;
      net.broadcast(v, Message::tagged(0).add_flag(true));
    }
  };
  if (full_sweep_) {
    net.for_nodes(step);
    full_sweep_ = false;
  } else {
    net.for_active_nodes(step);
  }
  for (WorkerCounter& r : retired_) {
    num_active_ -= static_cast<NodeId>(r.value);
    r.value = 0;
  }
  // Unknown alpha: when a guess exhausts its phase budget without emptying
  // the graph, the guess was too small — double it. (Every node detects
  // this locally from the globally known n and phase counter.)
  if (!alpha_known_ && num_active_ > 0 && --phase_budget_ <= 0) {
    guess_ *= 2;
    set_threshold_from_guess();
    phase_budget_ = budget_per_guess_;
    full_sweep_ = true;
  }
}

bool BarenboimElkinOrientation::finished(const Network& net) const {
  (void)net;
  return num_active_ == 0;
}

void BarenboimElkinOrientation::publish(Network& net,
                                        protocol::PhaseContext& ctx) {
  // Out-degrees straight off the CSR: no per-node adjacency vectors.
  const Graph& g = net.graph();
  ARBODS_CHECK(level_.size() == g.num_nodes());
  OrientationHandoff handoff;
  handoff.out_degree.assign(g.num_nodes(), 0);
  for (NodeId u = 0; u < g.num_nodes(); ++u)
    for (const NodeId v : g.neighbors(u))
      handoff.out_degree[u] += oriented_out(level_, u, v) ? 1 : 0;
  handoff.final_guess = guess_;
  ctx.put(std::move(handoff));
}

Orientation BarenboimElkinOrientation::extract_orientation(
    const Graph& g) const {
  ARBODS_CHECK(level_.size() == g.num_nodes());
  std::vector<std::vector<NodeId>> out(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v : g.neighbors(u))
      if (oriented_out(level_, u, v)) out[u].push_back(v);
  }
  return Orientation(g, std::move(out));
}

std::vector<NodeId> BarenboimElkinOrientation::local_out_degree(
    const Graph& g) const {
  Orientation o = extract_orientation(g);
  std::vector<NodeId> est(g.num_nodes());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    NodeId m = o.out_degree(v);
    for (NodeId u : g.neighbors(v)) m = std::max(m, o.out_degree(u));
    est[v] = m;
  }
  return est;
}

BeOrientationResult barenboim_elkin_orient(const Graph& g, NodeId alpha,
                                           double eps) {
  WeightedGraph wg = WeightedGraph::uniform(Graph(g));
  Network net(wg);
  BarenboimElkinOrientation algo(alpha, eps);
  RunStats stats = net.run(algo, 10 * static_cast<std::int64_t>(g.num_nodes()) + 64);
  ARBODS_CHECK_MSG(!stats.hit_round_limit,
                   "Barenboim-Elkin did not converge; alpha promise too low?");
  // Build the orientation against the caller's graph (not the local copy
  // the simulation ran on) so the returned view outlives this function.
  Orientation o = algo.extract_orientation(g);
  return {std::move(o), stats.rounds, algo.levels()};
}

}  // namespace arbods
