#include "protocol/runner.hpp"

#include <algorithm>
#include <optional>

#include "resilience/reliable_channel.hpp"
#include "shard/partition.hpp"
#include "shard/sharded_network.hpp"

namespace arbods::protocol {

namespace {

// Phase-boundary auto-replanning (CongestConfig::auto_replan): refine
// the shard plan against the traffic measured so far and adopt it when
// the win clears the hysteresis threshold. Runs between phases only —
// the facade returns to the fresh-construction observable state, which
// is exactly what the next run_phase expects — and is deterministic at
// every width and shard count because the profile is (the determinism
// suite pins replanned runs bit-identical). Plain Networks have no
// sharded core and skip out here.
void maybe_replan(Network& net) {
  shard::ShardedNetwork* sharded = net.sharded_core();
  if (sharded == nullptr) return;
  // Evaluation span (driver thread, between phases); an adoption
  // additionally records its own "replan:adopt" span inside adopt_plan.
  obs::ScopedSpan span(net.tracer(), 0, "replan:eval");
  shard::ShardPlan refined = sharded->measured_plan();
  if (refined == sharded->plan()) return;
  const auto profile = sharded->traffic_profile();
  const std::int64_t current =
      shard::cut_volume(net.graph(), sharded->plan(), profile);
  const std::int64_t next =
      shard::cut_volume(net.graph(), refined, profile);
  const double hysteresis = std::max(0.0, net.config().replan_hysteresis);
  if (static_cast<double>(next) >=
      (1.0 - hysteresis) * static_cast<double>(current))
    return;
  sharded->adopt_plan(std::move(refined));
}

}  // namespace

RunStats ProtocolRunner::run(std::span<Phase* const> phases,
                             std::int64_t max_rounds_per_phase) {
  net_->reset_for_reuse();
  ctx_.clear();
  // Auto-replanning needs the per-arc traffic profile from phase one on;
  // reset_for_reuse just zeroed any previous run's, so (re)enabling here
  // is idempotent. A pooled facade keeps the plan the previous run
  // converged to — repeated runs start from the refined placement.
  // Single-phase protocols have no boundary to replan at, so they skip
  // the profile entirely — its one-add-per-message cost would buy
  // nothing.
  const bool auto_replan = net_->config().auto_replan && phases.size() > 1;
  if (auto_replan)
    if (shard::ShardedNetwork* sharded = net_->sharded_core())
      sharded->enable_traffic_profile();
  // With reliable_transport set, every phase runs behind the
  // reliable-delivery adapter: the wrapped phase executes on a clean
  // virtual network while ReliablePhase speaks the seq/ack/retransmit
  // protocol on this (possibly faulty) one. Solvers opt in through
  // config alone — no phase list changes anywhere. One adapter serves
  // every phase, so its virtual network is built once per run.
  const bool rel = net_->config().reliable_transport;
  std::optional<resilience::ReliablePhase> wrapped;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    Phase* phase = phases[i];
    ARBODS_CHECK(phase != nullptr);
    if (rel) {
      if (wrapped) {
        wrapped->wrap(*phase);
      } else {
        wrapped.emplace(*phase);
      }
      wrapped->bind(ctx_);
      const PhaseStats& ps =
          net_->run_phase(*wrapped, wrapped->name(), max_rounds_per_phase);
      if (ps.hit_round_limit) break;
      wrapped->publish(*net_, ctx_);
    } else {
      phase->bind(ctx_);
      const PhaseStats& ps =
          net_->run_phase(*phase, phase->name(), max_rounds_per_phase);
      if (ps.hit_round_limit) break;  // callers check RunStats::hit_round_limit
      phase->publish(*net_, ctx_);
    }
    if (auto_replan && i + 1 < phases.size()) maybe_replan(*net_);
  }
  return net_->stats();
}

RunStats ProtocolRunner::run(std::initializer_list<Phase*> phases,
                             std::int64_t max_rounds_per_phase) {
  return run(std::span<Phase* const>(phases.begin(), phases.size()),
             max_rounds_per_phase);
}

RunStats run_protocol(Network& net, std::initializer_list<Phase*> phases,
                      std::int64_t max_rounds_per_phase) {
  ProtocolRunner runner(net);
  return runner.run(phases, max_rounds_per_phase);
}

}  // namespace arbods::protocol
