#include "baselines/distributed_greedy.hpp"

#include <algorithm>
#include <cmath>

#include "common/check.hpp"
#include "common/math_util.hpp"

namespace arbods::baselines {

// Both baselines are event-driven and run on the simulator's active set:
// a node is visited only when a message arrives or when it re-armed
// itself. An *unresolved* node (one that may still have to join) re-arms
// every round it runs, so it stays on the worklist without receiving
// anything; once resolved it stops arming and drops off — from then on it
// is only woken by neighbors' messages. A round therefore costs
// O(unresolved + deliveries), not O(n), and the tail of a mostly-converged
// instance is processed in time proportional to the remaining frontier.
//
// The global uncovered counter is maintained through per-worker
// WorkerCounter deltas reduced after each parallel section (never a shared
// counter, never an O(n) recount), which keeps the termination check exact
// and bit-identical at every pool width.

// ---------------------------------------------------------------- threshold

void ThresholdGreedyMds::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  in_set_.assign(n, false);
  covered_.assign(n, false);
  uncovered_degree_.resize(n);
  left_seen_.reset(net.graph());
  covered_delta_.assign(static_cast<std::size_t>(net.num_workers()),
                        WorkerCounter{});
  num_uncovered_ = n;
  phase_ = 0;
  delta_plus_1_ = net.graph().max_degree() + 1;
  max_phase_ = 2 + ceil_log2(static_cast<std::uint64_t>(delta_plus_1_));
  stage_ = n == 0 ? Stage::kDone : Stage::kJoin;
  // Every node sleeps until the phase where the halving threshold first
  // reaches its current uncovered degree — not one round earlier.
  net.for_nodes([&](NodeId v) {
    uncovered_degree_[v] = net.degree(v) + 1;
    net.arm_at(v, join_round_for(uncovered_degree_[v]));
  });
}

// The kJoin round of the first phase p with theta(p) = (Delta+1)/2^p <=
// ucd, i.e. p = ceil(log2(ceil((Delta+1)/ucd))); kJoin of phase p runs at
// round 2p+1. Exact in integers, and theta(p) is exact in doubles too
// (power-of-two division), so the wake round and the float comparison in
// process_round can never disagree.
std::int64_t ThresholdGreedyMds::join_round_for(NodeId ucd) const {
  const std::uint64_t ratio =
      (static_cast<std::uint64_t>(delta_plus_1_) + ucd - 1) / ucd;
  return 2 * ceil_log2(ratio) + 1;
}

void ThresholdGreedyMds::reduce_covered() {
  for (WorkerCounter& d : covered_delta_) {
    ARBODS_CHECK(static_cast<std::int64_t>(num_uncovered_) >= d.value);
    num_uncovered_ -= static_cast<NodeId>(d.value);
    d.value = 0;
  }
}

void ThresholdGreedyMds::process_round(Network& net) {
  switch (stage_) {
    case Stage::kJoin: {
      const double theta = static_cast<double>(delta_plus_1_) /
                           std::pow(2.0, static_cast<double>(phase_));
      const bool last_call = theta <= 1.0;
      net.for_active_nodes([&](NodeId v) {
        // Absorb "became covered" notices from the previous phase.
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() == kTagCovered &&
              left_seen_.set_once(net.graph(), v, m.sender())) {
            ARBODS_CHECK(uncovered_degree_[v] > 0);
            --uncovered_degree_[v];
          }
        }
        if (in_set_[v] || uncovered_degree_[v] == 0) return;
        if (static_cast<double>(uncovered_degree_[v]) >= theta ||
            (last_call && uncovered_degree_[v] >= 1)) {
          in_set_[v] = true;
          bool was_uncovered = !covered_[v];
          if (was_uncovered) {
            covered_[v] = true;
            --uncovered_degree_[v];
            ++covered_delta_[net.worker_index()].value;
          }
          // One message per edge per round: the join flag also tells
          // neighbors whether v just left the uncovered set.
          net.broadcast(v, Message::tagged(kTagJoin).add_flag(was_uncovered));
        }
        // A still-unresolved node sleeps until the phase where the halved
        // threshold reaches its (possibly just-reduced) uncovered degree;
        // a covered-notice arriving earlier wakes it and it re-schedules.
        if (!in_set_[v] && uncovered_degree_[v] > 0)
          net.arm_at(v, join_round_for(uncovered_degree_[v]));
      });
      reduce_covered();
      ++phase_;
      stage_ = Stage::kCoverUpdate;
      break;
    }

    case Stage::kCoverUpdate: {
      net.for_active_nodes([&](NodeId v) {
        bool newly_covered = false;
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() != kTagJoin) continue;
          if (!covered_[v]) {
            covered_[v] = true;
            --uncovered_degree_[v];
            ++covered_delta_[net.worker_index()].value;
            newly_covered = true;
          }
          // The joiner itself left the uncovered set.
          if (m.flag_at(1) && left_seen_.set_once(net.graph(), v, m.sender())) {
            ARBODS_CHECK(uncovered_degree_[v] > 0);
            --uncovered_degree_[v];
          }
        }
        if (newly_covered) net.broadcast(v, Message::tagged(kTagCovered));
        if (!in_set_[v] && uncovered_degree_[v] > 0)
          net.arm_at(v, join_round_for(uncovered_degree_[v]));
      });
      reduce_covered();
      stage_ = (num_uncovered_ == 0 || phase_ > max_phase_) ? Stage::kDone
                                                            : Stage::kJoin;
      ARBODS_CHECK_MSG(num_uncovered_ == 0 || phase_ <= max_phase_,
                       "threshold greedy did not cover everything in "
                           << max_phase_ << " phases");
      break;
    }

    case Stage::kDone:
      break;
  }
}

bool ThresholdGreedyMds::finished(const Network& net) const {
  (void)net;
  return stage_ == Stage::kDone;
}

MdsResult ThresholdGreedyMds::result(const Network& net) const {
  ARBODS_CHECK(stage_ == Stage::kDone);
  MdsResult res;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    if (in_set_[v]) res.dominating_set.push_back(v);
  res.weight = net.weighted_graph().total_weight(res.dominating_set);
  res.iterations = phase_;
  res.stats = net.stats();
  return res;
}

// ----------------------------------------------------------------- election

void ElectionGreedyMds::initialize(Network& net) {
  const NodeId n = net.num_nodes();
  in_set_.assign(n, false);
  covered_.assign(n, false);
  self_nominated_.assign(n, false);
  uncovered_degree_.assign(n, 0);
  covered_delta_.assign(static_cast<std::size_t>(net.num_workers()),
                        WorkerCounter{});
  num_uncovered_ = n;
  stage_ = n == 0 ? Stage::kDone : Stage::kUncov;
  net.for_nodes([&](NodeId v) { net.arm(v); });
}

void ElectionGreedyMds::reduce_covered() {
  for (WorkerCounter& d : covered_delta_) {
    ARBODS_CHECK(static_cast<std::int64_t>(num_uncovered_) >= d.value);
    num_uncovered_ -= static_cast<NodeId>(d.value);
    d.value = 0;
  }
}

void ElectionGreedyMds::process_round(Network& net) {
  switch (stage_) {
    case Stage::kUncov: {
      // (Later phases:) absorb joins, then still-uncovered nodes
      // re-announce and stay on the worklist.
      net.for_active_nodes([&](NodeId v) {
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() == kTagJoin && !covered_[v]) {
            covered_[v] = true;
            ++covered_delta_[net.worker_index()].value;
          }
        }
        if (!covered_[v]) {
          net.broadcast(v, Message::tagged(kTagUncov));
          net.arm(v);
        }
      });
      reduce_covered();
      if (num_uncovered_ == 0) {
        stage_ = Stage::kDone;
        break;
      }
      stage_ = Stage::kCount;
      break;
    }

    case Stage::kCount: {
      // Active nodes are the closed neighborhoods of uncovered nodes —
      // exactly the nodes with a positive uncovered count. A count-0 node
      // can never win an election (every uncovered node counts at least
      // itself), so unlike the all-nodes sweep this stage replaces, such
      // nodes stay silent instead of broadcasting a useless zero.
      net.for_active_nodes([&](NodeId v) {
        NodeId count = covered_[v] ? 0 : 1;
        for (const MessageView m : net.inbox(v))
          if (m.tag() == kTagUncov) ++count;
        uncovered_degree_[v] = count;
        if (count > 0)
          net.broadcast(v, Message::tagged(kTagCount).add_level(count));
        if (!covered_[v]) net.arm(v);
      });
      stage_ = Stage::kNominate;
      break;
    }

    case Stage::kNominate: {
      net.for_active_nodes([&](NodeId v) {
        if (covered_[v]) return;
        net.arm(v);
        self_nominated_[v] = false;
        NodeId best = v;
        NodeId best_count = uncovered_degree_[v];
        for (const MessageView m : net.inbox(v)) {
          if (m.tag() != kTagCount) continue;
          const NodeId c = static_cast<NodeId>(m.level_at(1));
          if (c > best_count || (c == best_count && m.sender() < best)) {
            best = m.sender();
            best_count = c;
          }
        }
        if (best == v)
          self_nominated_[v] = true;
        else
          net.send(v, best, Message::tagged(kTagNominate));
      });
      stage_ = Stage::kJoin;
      break;
    }

    case Stage::kJoin: {
      net.for_active_nodes([&](NodeId u) {
        bool nominated = self_nominated_[u] != 0;
        self_nominated_[u] = false;
        for (const MessageView m : net.inbox(u))
          if (m.tag() == kTagNominate) nominated = true;
        if (nominated && !in_set_[u]) {
          in_set_[u] = true;
          if (!covered_[u]) {
            covered_[u] = true;
            ++covered_delta_[net.worker_index()].value;
          }
          net.broadcast(u, Message::tagged(kTagJoin));
        }
        if (!covered_[u]) net.arm(u);
      });
      reduce_covered();
      stage_ = Stage::kUncov;
      break;
    }

    case Stage::kDone:
      break;
  }
}

bool ElectionGreedyMds::finished(const Network& net) const {
  (void)net;
  return stage_ == Stage::kDone;
}

MdsResult ElectionGreedyMds::result(const Network& net) const {
  ARBODS_CHECK(stage_ == Stage::kDone);
  MdsResult res;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    if (in_set_[v]) res.dominating_set.push_back(v);
  res.weight = net.weighted_graph().total_weight(res.dominating_set);
  res.stats = net.stats();
  return res;
}

}  // namespace arbods::baselines
