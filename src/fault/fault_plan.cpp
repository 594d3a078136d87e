#include "fault/fault_plan.hpp"

#include <sstream>

#include "common/check.hpp"

namespace arbods::fault {

namespace {

void check_prob(double p, const char* name) {
  ARBODS_CHECK_MSG(p >= 0.0 && p <= 1.0,
                   "fault probability " << name << " = " << p
                                        << " outside [0, 1]");
}

}  // namespace

void validate_fault_spec(const FaultSpec& spec) {
  check_prob(spec.drop_prob, "drop_prob");
  check_prob(spec.duplicate_prob, "duplicate_prob");
  check_prob(spec.delay_prob, "delay_prob");
  check_prob(spec.reorder_prob, "reorder_prob");
  check_prob(spec.kill_prob, "kill_prob");
  ARBODS_CHECK_MSG(spec.max_delay_rounds >= 0,
                   "max_delay_rounds must be >= 0, got "
                       << spec.max_delay_rounds);
  ARBODS_CHECK_MSG(spec.kill_round >= 1,
                   "kill_round must be >= 1 (a node can die no earlier than "
                   "the first process_round), got "
                       << spec.kill_round);
}

FaultPlan make_fault_plan(const Graph& g, const FaultSpec& spec) {
  validate_fault_spec(spec);
  FaultPlan plan;
  plan.seed = spec.fault_seed;
  plan.drop_prob = spec.drop_prob;
  plan.duplicate_prob = spec.duplicate_prob;
  plan.delay_prob = spec.delay_prob;
  plan.max_delay_rounds = spec.max_delay_rounds;
  plan.reorder_prob = spec.reorder_prob;
  if (spec.kill_prob > 0.0) {
    const NodeId n = g.num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      // Pure hash per node (arc slot 0 is never a node decision: the kill
      // domain is separated from the record domain by the ~seed flip).
      const std::uint64_t h = detail::fault_hash(~plan.seed, v, 0, 0);
      if (detail::unit_real(h) < spec.kill_prob)
        plan.kills.push_back({v, spec.kill_round});
    }
  }
  return plan;
}

void validate_fault_plan(const Graph& g, const FaultPlan& plan) {
  check_prob(plan.drop_prob, "drop_prob");
  check_prob(plan.duplicate_prob, "duplicate_prob");
  check_prob(plan.delay_prob, "delay_prob");
  check_prob(plan.reorder_prob, "reorder_prob");
  ARBODS_CHECK_MSG(plan.max_delay_rounds >= 0,
                   "max_delay_rounds must be >= 0, got "
                       << plan.max_delay_rounds);
  const std::size_t arcs = static_cast<std::size_t>(2) * g.num_edges();
  ARBODS_CHECK_MSG(plan.arc_drop.empty() || plan.arc_drop.size() == arcs,
                   "arc_drop has " << plan.arc_drop.size()
                                   << " entries; graph has " << arcs
                                   << " arcs");
  ARBODS_CHECK_MSG(
      plan.arc_duplicate.empty() || plan.arc_duplicate.size() == arcs,
      "arc_duplicate has " << plan.arc_duplicate.size()
                           << " entries; graph has " << arcs << " arcs");
  for (const double p : plan.arc_drop) check_prob(p, "arc_drop[]");
  for (const double p : plan.arc_duplicate) check_prob(p, "arc_duplicate[]");
  for (const KillEvent& k : plan.kills) {
    ARBODS_CHECK_MSG(k.node < g.num_nodes(),
                     "kill targets node " << k.node << " of an "
                                          << g.num_nodes() << "-node graph");
    ARBODS_CHECK_MSG(k.round >= 1,
                     "kill of node " << k.node << " scheduled for round "
                                     << k.round << "; kills start at round 1");
  }
}

std::vector<std::uint8_t> alive_mask(const Graph& g, const FaultSpec& spec) {
  std::vector<std::uint8_t> alive(g.num_nodes(), 1);
  const FaultPlan plan = make_fault_plan(g, spec);
  for (const KillEvent& k : plan.kills) alive[k.node] = 0;
  return alive;
}

std::string fault_label(const FaultSpec& spec) {
  if (!spec.enabled()) return "none";
  std::ostringstream os;
  const char* sep = "";
  if (spec.drop_prob > 0.0) {
    os << sep << "drop=" << spec.drop_prob;
    sep = ",";
  }
  if (spec.duplicate_prob > 0.0) {
    os << sep << "dup=" << spec.duplicate_prob;
    sep = ",";
  }
  if (spec.delay_prob > 0.0 && spec.max_delay_rounds > 0) {
    os << sep << "delay=" << spec.delay_prob << "x" << spec.max_delay_rounds;
    sep = ",";
  }
  if (spec.reorder_prob > 0.0) {
    os << sep << "reorder=" << spec.reorder_prob;
    sep = ",";
  }
  if (spec.kill_prob > 0.0) {
    os << sep << "kill=" << spec.kill_prob << "@" << spec.kill_round;
    sep = ",";
  }
  return os.str();
}

}  // namespace arbods::fault
