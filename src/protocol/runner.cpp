#include "protocol/runner.hpp"

#include <optional>

#include "resilience/reliable_channel.hpp"

namespace arbods::protocol {

RunStats ProtocolRunner::run(std::span<Phase* const> phases,
                             std::int64_t max_rounds_per_phase) {
  net_->reset_for_reuse();
  ctx_.clear();
  // With reliable_transport set, every phase runs behind the
  // reliable-delivery adapter: the wrapped phase executes on a clean
  // virtual network while ReliablePhase speaks the seq/ack/retransmit
  // protocol on this (possibly faulty) one. Solvers opt in through
  // config alone — no phase list changes anywhere. One adapter serves
  // every phase, so its virtual network is built once per run.
  const bool rel = net_->config().reliable_transport;
  std::optional<resilience::ReliablePhase> wrapped;
  for (Phase* phase : phases) {
    ARBODS_CHECK(phase != nullptr);
    Phase* driven = phase;
    if (rel) {
      if (wrapped) {
        wrapped->wrap(*phase);
      } else {
        wrapped.emplace(*phase);
      }
      driven = &*wrapped;
    }
    driven->bind(ctx_);
    const PhaseStats& ps =
        net_->run_phase(*driven, driven->name(), max_rounds_per_phase);
    if (ps.hit_round_limit) break;  // callers check RunStats::hit_round_limit
    driven->publish(*net_, ctx_);
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
