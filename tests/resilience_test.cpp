// Self-healing layer (src/resilience/): the reliable-delivery channel's
// core contract — every registry solver's OUTPUT is bit-identical to its
// fault-free run when driven over a drop/duplicate/delay/reorder
// adversary with config.reliable_transport set, at every worker-pool
// width — plus the deterministic retransmission
// schedule, the kill_round=1 boundary semantics repair relies on, the
// post-kill repair protocol on a hand-built casualty, the
// "<solver>+repair" registry variants under a kill-only scenario sweep
// (cross-width determinism + the surviving-subgraph oracle),
// and FaultSpec/FaultPlan validation.
//
// The wide width honors ARBODS_TEST_THREADS (CI: 8) like the other
// determinism suites.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "common/check.hpp"
#include "common/random.hpp"
#include "fault/fault_plan.hpp"
#include "fault/faulty_network.hpp"
#include "gen/arboricity_families.hpp"
#include "gen/classic.hpp"
#include "gen/weights.hpp"
#include "harness/corpus.hpp"
#include "harness/oracle.hpp"
#include "harness/registry.hpp"
#include "harness/scenario.hpp"
#include "protocol/phase.hpp"
#include "protocol/runner.hpp"
#include "resilience/reliable_channel.hpp"
#include "resilience/repair.hpp"

namespace arbods::resilience {
namespace {

int test_thread_width() {
  if (const char* env = std::getenv("ARBODS_TEST_THREADS")) {
    const int w = std::atoi(env);
    if (w >= 1) return w;
  }
  return 8;
}

// The transport promises identical solver OUTPUT, not identical
// statistics — the physical frames are the honest price of reliability.
::testing::AssertionResult outputs_identical(const MdsResult& a,
                                             const MdsResult& b) {
  if (a.dominating_set != b.dominating_set)
    return ::testing::AssertionFailure() << "dominating sets differ";
  if (a.weight != b.weight)
    return ::testing::AssertionFailure()
           << "weights differ: " << a.weight << " vs " << b.weight;
  if (a.packing != b.packing)  // exact double comparison, intentionally
    return ::testing::AssertionFailure() << "packing values differ";
  if (a.iterations != b.iterations)
    return ::testing::AssertionFailure()
           << "iterations differ: " << a.iterations << " vs " << b.iterations;
  return ::testing::AssertionSuccess();
}

// Physical counters of PhysicalCountersArePinnedOnForest2, recorded with
// the Message-based framing the word-level frames replaced: any change
// in how frames are built or counted shows up here.
constexpr std::string_view kPinnedDet =
    "run rounds=80 messages=156010 bits=9081482 max=103 dropped=2964 "
    "duplicated=2999 delayed=7750 killed=0\n"
    "partial_ds+rel rounds=62 messages=121388 bits=7301204 max=103 "
    "dropped=2318 duplicated=2346 delayed=6062 killed=0\n"
    "completion+rel rounds=18 messages=34622 bits=1780278 max=71 "
    "dropped=646 duplicated=653 delayed=1688 killed=0\n";
constexpr std::string_view kPinnedGeneral =
    "run rounds=232 messages=433462 bits=23146615 max=104 dropped=8589 "
    "duplicated=8616 delayed=21657 killed=0\n"
    "extension+rel rounds=232 messages=433462 bits=23146615 max=104 "
    "dropped=8589 duplicated=8616 delayed=21657 killed=0\n";

// ------------------------------------------------ retransmit schedule

TEST(ReliableChannel, RetransmitGapIsPureAndBounded) {
  // Pure function: same inputs, same gap, across repeated evaluation.
  for (std::uint32_t arc : {0u, 7u, 100000u})
    for (std::uint32_t seq : {0u, 1u, 65535u})
      for (int attempt = 0; attempt < 10; ++attempt)
        EXPECT_EQ(retransmit_gap(arc, seq, static_cast<std::uint8_t>(attempt)),
                  retransmit_gap(arc, seq, static_cast<std::uint8_t>(attempt)));
  // Attempt 0: RTT guard + 2^0 + jitter % 1 == exactly 3.
  EXPECT_EQ(retransmit_gap(3, 5, 0), 3);
  // Bounded exponential envelope: 2 + 2^min(a,5) <= gap < 2 + 2^(min(a,5)+1).
  for (std::uint32_t arc : {1u, 42u})
    for (int attempt = 0; attempt < 12; ++attempt) {
      const int a = attempt < 5 ? attempt : 5;
      const std::int64_t base = std::int64_t{1} << a;
      const std::int64_t gap =
          retransmit_gap(arc, 9, static_cast<std::uint8_t>(attempt));
      EXPECT_GE(gap, 2 + base) << "arc " << arc << " attempt " << attempt;
      EXPECT_LT(gap, 2 + 2 * base) << "arc " << arc << " attempt " << attempt;
    }
}

// ----------------------------------- output bit-identity under faults

TEST(ReliableChannel, EverySolverMatchesItsCleanOutputAcrossWidths) {
  const int wide = test_thread_width();
  const auto corpus = harness::small_corpus(21);
  ASSERT_GE(corpus.size(), 3u);
  CongestConfig lossy;
  lossy.seed = 0x5e11ab1eULL;
  lossy.reliable_transport = true;
  lossy.fault.drop_prob = 0.1;
  lossy.fault.duplicate_prob = 0.1;
  lossy.fault.delay_prob = 0.2;
  lossy.fault.max_delay_rounds = 2;
  lossy.fault.reorder_prob = 0.2;
  for (std::size_t i = 0; i < 3; ++i) {
    const auto& inst = corpus[i];
    for (const harness::SolverInfo& info : harness::all_solvers()) {
      if (!harness::solver_applicable(info, inst)) continue;
      harness::SolverParams params = harness::params_for(info, inst);
      params.threads = -1;

      CongestConfig clean_cfg;
      clean_cfg.seed = lossy.seed;
      Network clean(inst.wg, clean_cfg);
      const MdsResult reference = info.run_on(clean, params);

      for (const int threads : {1, wide}) {
        CongestConfig cfg = lossy;
        cfg.threads = threads;
        const std::unique_ptr<Network> net = fault::make_network(inst.wg, cfg);
        const MdsResult res = info.run_on(*net, params);
        EXPECT_TRUE(outputs_identical(reference, res))
            << info.name << " on " << inst.name << " at threads=" << threads;
        // The transport cannot be free: reliability costs physical
        // rounds (markers, acks, retransmissions).
        EXPECT_GT(res.stats.rounds, reference.stats.rounds)
            << info.name << " on " << inst.name;
        EXPECT_FALSE(res.stats.hit_round_limit)
            << info.name << " on " << inst.name;
      }
    }
  }
}

// One round of per-node RNG draws: every node records its next two
// draws, in initialize and in its single process_round.
class RngDrawPhase final : public protocol::Phase {
 public:
  std::vector<std::uint64_t> draws_;

  std::string_view name() const override { return "draw"; }
  void initialize(Network& net) override {
    draws_.assign(2 * static_cast<std::size_t>(net.num_nodes()), 0);
    net.for_nodes([&](NodeId v) { draws_[2 * v] = net.rng(v).next_u64(); });
  }
  void process_round(Network& net) override {
    net.for_nodes([&](NodeId v) {
      draws_[2 * v + 1] = net.rng(v).next_u64();
    });
  }
  bool finished(const Network& net) const override {
    return net.current_round() >= 1;
  }
};

TEST(ReliableChannel, EveryWrappedPhaseStartsFromFreshRngStreams) {
  // Every phase starts from freshly seeded RNG streams (run_phase's
  // contract). The reliable adapter reuses one virtual network across
  // the phases it wraps, so its reset must restore the streams the
  // previous wrapped phase consumed.
  const auto wg = WeightedGraph::uniform(gen::grid(6, 6));
  CongestConfig cfg;
  cfg.seed = 0x5eed5ULL;
  Network clean(wg, cfg);
  RngDrawPhase clean_a, clean_b;
  protocol::run_protocol(clean, {&clean_a, &clean_b});
  ASSERT_EQ(clean_a.draws_, clean_b.draws_);

  for (const int threads : {1, test_thread_width()}) {
    cfg.threads = threads;
    cfg.reliable_transport = true;
    Network net(wg, cfg);
    RngDrawPhase a, b;
    const RunStats stats = protocol::run_protocol(net, {&a, &b});
    EXPECT_FALSE(stats.hit_round_limit);
    EXPECT_EQ(a.draws_, clean_a.draws_) << "threads=" << threads;
    EXPECT_EQ(b.draws_, clean_b.draws_) << "threads=" << threads;
  }
}

TEST(ReliableChannel, ZeroFaultReliableRunStillMatchesCleanOutput) {
  // reliable_transport over a clean wire: the adapter alone (markers,
  // acks, virtual-round pacing) must not perturb the algorithm.
  const auto corpus = harness::small_corpus(4);
  const auto& inst = corpus.front();
  const harness::SolverInfo& info = harness::solver("det");
  harness::SolverParams params = harness::params_for(info, inst);
  params.threads = -1;
  CongestConfig cfg;
  cfg.seed = 0xc0feULL;
  Network clean(inst.wg, cfg);
  const MdsResult reference = info.run_on(clean, params);
  cfg.reliable_transport = true;
  Network wrapped(inst.wg, cfg);
  const MdsResult res = info.run_on(wrapped, params);
  EXPECT_TRUE(outputs_identical(reference, res));
}

// ------------------------------------------------------- frame layout

std::vector<std::uint64_t> wire_record(const Message& m, NodeId sender,
                                       const MessageSizeModel& model,
                                       bool quantized, int* bits = nullptr) {
  std::vector<std::uint64_t> out(wire_words(m, model, quantized));
  wire_encode(m, sender, model, quantized, out.data(), bits);
  return out;
}

TEST(ReliableChannel, WireFramesMatchTheMessageEncoder) {
  // The transmit pass shifts a stored payload record behind the transport
  // header instead of building a Message. The result must be, word for
  // word and bit count for bit count, what wire_encode writes for the
  // same fields, and the receive pass must read the header back and shift
  // the payload record out again. At level_bits = 31 the header is 67
  // bits, so the marker bit and the payload's first bits sit in the
  // second payload word.
  const NodeId sender = 1234;
  const int cap = congest_message_cap(CongestConfig{}, 1'000'000);
  for (const int level_bits : {5, 31}) {
    for (const bool quantized : {true, false}) {
      MessageSizeModel model;
      model.id_bits = 20;
      model.weight_bits = 11;
      model.level_bits = level_bits;
      model.real_bits = default_value_codec().bit_width();
      std::vector<Message> payloads(5);  // [0]: zero fields
      payloads[1] = Message::tagged(3);  // every kind
      payloads[1].add_id(777).add_weight(2000).add_level(17).add_flag(true)
          .add_real(0.3);
      for (int i = 0; i < 13; ++i)  // 17 frame fields: two kind words
        payloads[2].add_flag(i % 3 == 0);
      payloads[3] = Message::tagged(9);  // 30 fields: two kind words each
      for (int i = 0; i < 29; ++i) {
        if (i % 2 == 0) {
          payloads[3].add_level(i);
        } else {
          payloads[3].add_real(i / 7.0);
        }
      }
      while (payloads[4].bit_size(model) + model.id_bits <= cap)  // cap-sized
        payloads[4].add_id(static_cast<NodeId>(payloads[4].num_fields()));
      while (payloads[4].bit_size(model) < cap) payloads[4].add_flag(true);
      ASSERT_EQ(payloads[4].bit_size(model), cap);

      const FrameCodec frames(model, quantized);
      const std::uint32_t top = (std::uint32_t{1} << level_bits) - 1;
      const std::uint32_t headers[][3] = {
          {0, 0, 0}, {1, 0, 1}, {top, top - 1, 1}, {top - 2, top, 0}};
      for (std::size_t p = 0; p <= payloads.size(); ++p) {
        // p == payloads.size(): a bare marker frame, no payload record.
        const bool bare = p == payloads.size();
        const std::vector<std::uint64_t> record =
            bare ? std::vector<std::uint64_t>{}
                 : wire_record(payloads[p], sender, model, quantized);
        for (const auto& [seq, ack, marker] : headers) {
          Message m = Message::tagged(kTransportDataTag);
          m.add_level(seq).add_level(ack).add_flag(bare || marker != 0);
          if (!bare)
            m.append_fields(MessageView(record.data(), &model, quantized));
          int want_bits = 0;
          const std::vector<std::uint64_t> want =
              wire_record(m, sender, model, quantized, &want_bits);

          std::vector<std::uint64_t> got(
              frames.data_words_bound(record.size()));
          int bits = 0;
          got.resize(frames.data(sender, seq, ack, bare || marker != 0,
                                 bare ? nullptr : record.data(), got.data(),
                                 &bits));
          const std::string where =
              "level_bits=" + std::to_string(level_bits) +
              " quantized=" + std::to_string(quantized) +
              " payload=" + std::to_string(p) + " seq=" + std::to_string(seq);
          EXPECT_EQ(got, want) << where;
          EXPECT_EQ(bits, want_bits) << where;
          const FrameCodec::DataHeader h = frames.data_header(want.data());
          EXPECT_EQ(h.seq, seq) << where;
          EXPECT_EQ(h.ack, ack) << where;
          EXPECT_EQ(h.marker, bare || marker != 0) << where;
          if (bare) continue;
          // And the receive side recovers the stored payload record.
          std::vector<std::uint64_t> stripped(want.size());
          stripped.resize(frames.strip(want.data(), stripped.data()));
          EXPECT_EQ(stripped, record) << where;
        }
      }
      for (const std::uint32_t ack : {0u, 1u, top}) {
        int want_bits = 0;
        const std::vector<std::uint64_t> want = wire_record(
            Message::tagged(kTransportAckTag).add_level(ack), sender, model,
            quantized, &want_bits);
        std::vector<std::uint64_t> got(frames.ack_words());
        int bits = 0;
        EXPECT_EQ(frames.ack(sender, ack, got.data(), &bits), got.size());
        EXPECT_EQ(bits, want_bits);
        EXPECT_EQ(got, want) << "ack=" << ack << " level_bits=" << level_bits;
        EXPECT_EQ(frames.ack_of(want.data()), ack);
      }
    }
  }
}

// Records, per virtual round and node, a running digest of the inbox:
// every record's sender, field count and level field, in inbox order.
// Each round node v sends every neighbor the records its Mix names —
// tagged ones carrying (v, level) and/or a zero-field one — so the
// digests of two runs agree iff every record arrived exactly once, in
// the same round, in the same order.
class EchoProbe final : public protocol::Phase {
 public:
  enum class Mix {
    kTagged,           // one tagged record per arc per round
    kTwoTagged,        // two tagged records per arc per round
    kTaggedThenEmpty,  // tagged then zero-field (zero-field only if r even)
  };
  EchoProbe(Mix mix, int rounds) : mix_(mix), rounds_(rounds) {}

  std::vector<std::vector<std::uint64_t>> digest_;  // [round][node]

  std::string_view name() const override { return "echo"; }

  void initialize(Network& net) override {
    digest_.assign(static_cast<std::size_t>(rounds_) + 1,
                   std::vector<std::uint64_t>(net.num_nodes(), 0));
    send_all(net);
  }

  void process_round(Network& net) override {
    const auto r = static_cast<std::size_t>(net.current_round());
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      std::uint64_t h = 0;
      for (const MessageView mv : net.inbox(v)) {
        const std::uint64_t level =
            mv.num_fields() > 1 ? static_cast<std::uint64_t>(mv.level_at(2))
                                : 0;
        h = mix64(h ^ (static_cast<std::uint64_t>(mv.sender()) << 32) ^
                  (static_cast<std::uint64_t>(mv.num_fields()) << 24) ^ level);
      }
      digest_[r][v] = h;
    }
    send_all(net);
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

  /// Records one arc carries in virtual round r.
  int records_per_arc(std::int64_t r) const {
    if (mix_ == Mix::kTagged) return 1;
    if (mix_ == Mix::kTwoTagged) return 2;
    return r % 2 == 0 ? 1 : 2;
  }

 private:
  void send_all(Network& net) {
    const std::int64_t r = net.current_round();
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      if (mix_ != Mix::kTaggedThenEmpty || r % 2 == 1)
        net.broadcast(v, Message::tagged(1).add_id(v).add_level(2 * r));
      if (mix_ == Mix::kTwoTagged)
        net.broadcast(v, Message::tagged(1).add_id(v).add_level(2 * r + 1));
      if (mix_ == Mix::kTaggedThenEmpty) net.broadcast(v, Message{});
    }
  }

  Mix mix_;
  int rounds_;
};

TEST(ReliableChannel, ZeroFaultFloodSendsOneFramePerArcPerVirtualRound) {
  // The marker and the ack both ride on DATA: at zero faults every arc
  // moves exactly one frame per virtual round, and every virtual round
  // takes exactly one physical round.
  const auto wg = WeightedGraph::uniform(gen::grid(8, 8));
  const auto arcs = static_cast<std::int64_t>(2 * wg.graph().num_edges());
  constexpr int kRounds = 12;
  EchoProbe clean_probe(EchoProbe::Mix::kTagged, kRounds);
  Network clean(wg);
  clean.run(clean_probe);

  CongestConfig cfg;
  cfg.reliable_transport = true;
  Network net(wg, cfg);
  EchoProbe probe(EchoProbe::Mix::kTagged, kRounds);
  resilience::ReliablePhase wrapped = reliable(probe);
  const RunStats stats = net.run(wrapped);
  EXPECT_EQ(probe.digest_, clean_probe.digest_);
  EXPECT_EQ(stats.rounds, kRounds);
  // Virtual rounds 0..kRounds-1 are transmitted; the final round's sends
  // die with the phase, as a clean run's undelivered records do.
  EXPECT_EQ(stats.messages, kRounds * arcs);
}

TEST(ReliableChannel, ReorderedOrDuplicatedMarkerFrameDeliversItsPayloadFirst) {
  // Each arc carries two payloads per round, the second with the round's
  // marker riding on it. When that frame is duplicated, delayed or
  // lane-diverted ahead of the first, the receiver must hold it, deliver
  // both payloads exactly once and in order, and only then close the
  // round.
  const auto wg = WeightedGraph::uniform(gen::grid(8, 8));
  constexpr int kRounds = 16;
  EchoProbe clean_probe(EchoProbe::Mix::kTwoTagged, kRounds);
  Network clean(wg);
  clean.run(clean_probe);

  for (const int threads : {1, test_thread_width()}) {
    CongestConfig cfg;
    cfg.threads = threads;
    cfg.reliable_transport = true;
    cfg.fault.duplicate_prob = 0.3;
    cfg.fault.reorder_prob = 0.3;
    cfg.fault.delay_prob = 0.2;
    cfg.fault.max_delay_rounds = 2;
    const std::unique_ptr<Network> net = fault::make_network(wg, cfg);
    EchoProbe probe(EchoProbe::Mix::kTwoTagged, kRounds);
    resilience::ReliablePhase wrapped = reliable(probe);
    const RunStats stats = net->run(wrapped, 10'000);
    EXPECT_FALSE(stats.hit_round_limit);
    EXPECT_GT(stats.duplicated, 0);
    EXPECT_EQ(probe.digest_, clean_probe.digest_) << "threads=" << threads;
  }
}

TEST(ReliableChannel, ZeroFieldSendBeforeRoundEndIsNotAMarker) {
  // A zero-field record is a bare 4-field DATA frame, which with the
  // marker flag set would read as a pure marker. So when a round's last
  // send is zero-field the marker travels on its own frame, and the
  // empty record still arrives.
  const auto wg = WeightedGraph::uniform(gen::grid(6, 6));
  const auto arcs = static_cast<std::int64_t>(2 * wg.graph().num_edges());
  constexpr int kRounds = 10;
  EchoProbe clean_probe(EchoProbe::Mix::kTaggedThenEmpty, kRounds);
  Network clean(wg);
  clean.run(clean_probe);

  CongestConfig cfg;
  cfg.reliable_transport = true;
  {
    Network net(wg, cfg);
    EchoProbe probe(EchoProbe::Mix::kTaggedThenEmpty, kRounds);
    resilience::ReliablePhase wrapped = reliable(probe);
    const RunStats stats = net.run(wrapped);
    EXPECT_EQ(probe.digest_, clean_probe.digest_);
    EXPECT_EQ(stats.rounds, kRounds);
    std::int64_t frames = 0;
    for (std::int64_t r = 0; r < kRounds; ++r)
      frames += (probe.records_per_arc(r) + 1) * arcs;  // + the marker
    EXPECT_EQ(stats.messages, frames);
  }
  cfg.fault.drop_prob = 0.1;
  cfg.fault.duplicate_prob = 0.2;
  cfg.fault.reorder_prob = 0.2;
  const std::unique_ptr<Network> net = fault::make_network(wg, cfg);
  EchoProbe probe(EchoProbe::Mix::kTaggedThenEmpty, kRounds);
  resilience::ReliablePhase wrapped = reliable(probe);
  const RunStats stats = net->run(wrapped, 10'000);
  EXPECT_FALSE(stats.hit_round_limit);
  EXPECT_EQ(probe.digest_, clean_probe.digest_);
}

TEST(ReliableChannel, PhysicalStatsAreBitIdenticalAcrossWidths) {
  // The transport's own traffic is deterministic too: frames, rounds,
  // bits and fault counters match at every pool width.
  // The grid is large enough for the receive/transmit passes to run both
  // inline (quiet waiting rounds) and on the pool (dense rounds).
  const auto wg = WeightedGraph::uniform(gen::grid(40, 40));
  constexpr int kRounds = 16;
  EchoProbe clean_probe(EchoProbe::Mix::kTagged, kRounds);
  Network clean(wg);
  clean.run(clean_probe);

  CongestConfig lossy;
  lossy.reliable_transport = true;
  lossy.fault.drop_prob = 0.05;
  lossy.fault.duplicate_prob = 0.1;
  lossy.fault.reorder_prob = 0.1;
  lossy.fault.delay_prob = 0.1;
  lossy.fault.max_delay_rounds = 2;
  std::optional<RunStats> reference;
  for (const int threads : {1, 2, test_thread_width()}) {
    CongestConfig cfg = lossy;
    cfg.threads = threads;
    const std::unique_ptr<Network> net = fault::make_network(wg, cfg);
    EchoProbe probe(EchoProbe::Mix::kTagged, kRounds);
    resilience::ReliablePhase wrapped = reliable(probe);
    const RunStats stats = net->run(wrapped, 10'000);
    EXPECT_FALSE(stats.hit_round_limit);
    EXPECT_EQ(probe.digest_, clean_probe.digest_) << "threads=" << threads;
    if (!reference) reference = stats;
    EXPECT_EQ(stats, *reference) << "threads=" << threads;
  }
  EXPECT_GT(reference->dropped, 0);
  EXPECT_GT(reference->rounds, kRounds);

  // And so is every registry solver's physical RunStats.
  const auto corpus = harness::small_corpus(21);
  const auto& inst = corpus.front();
  for (const harness::SolverInfo& info : harness::all_solvers()) {
    if (!harness::solver_applicable(info, inst)) continue;
    harness::SolverParams params = harness::params_for(info, inst);
    params.threads = -1;
    std::optional<RunStats> first;
    for (const int threads : {1, test_thread_width()}) {
      CongestConfig cfg = lossy;
      cfg.threads = threads;
      const std::unique_ptr<Network> net = fault::make_network(inst.wg, cfg);
      const MdsResult res = info.run_on(*net, params);
      if (!first) first = res.stats;
      EXPECT_EQ(res.stats, *first) << info.name << " at threads=" << threads;
    }
  }
}

TEST(ReliableChannel, ReorderDivertedFramesResolveToTheirLink) {
  // With reorder_prob 1 nearly every frame lands on another lane of its
  // receiver, so the receive pass must find the frame's link from the
  // sender id the record carries, not from the lane it arrived on.
  const int wide = test_thread_width();
  const auto corpus = harness::small_corpus(21);
  ASSERT_GE(corpus.size(), 2u);
  CongestConfig lossy;
  lossy.seed = 0xd1feULL;
  lossy.reliable_transport = true;
  lossy.fault.reorder_prob = 1.0;
  lossy.fault.drop_prob = 0.05;
  // A frame filed under the wrong link stalls its virtual round; the cap
  // turns that into a failed run instead of a million idle rounds.
  lossy.round_limit = 20'000;
  for (std::size_t i = 0; i < 2; ++i) {
    const auto& inst = corpus[i];
    for (const harness::SolverInfo& info : harness::all_solvers()) {
      if (!harness::solver_applicable(info, inst)) continue;
      harness::SolverParams params = harness::params_for(info, inst);
      params.threads = -1;
      CongestConfig clean_cfg;
      clean_cfg.seed = lossy.seed;
      Network clean(inst.wg, clean_cfg);
      const MdsResult reference = info.run_on(clean, params);
      for (const int threads : {1, wide}) {
        CongestConfig cfg = lossy;
        cfg.threads = threads;
        const std::unique_ptr<Network> net = fault::make_network(inst.wg, cfg);
        const MdsResult res = info.run_on(*net, params);
        EXPECT_FALSE(res.stats.hit_round_limit)
            << info.name << " on " << inst.name << " at threads=" << threads;
        EXPECT_TRUE(outputs_identical(reference, res))
            << info.name << " on " << inst.name << " at threads=" << threads;
      }
    }
  }
}

// One line of physical counters per run and per phase, for the pins below.
std::string physical_counters(const RunStats& s) {
  std::ostringstream os;
  auto line = [&os](std::string_view name, std::int64_t rounds,
                    const obs::Counters& c) {
    os << name << " rounds=" << rounds << " messages=" << c.messages
       << " bits=" << c.total_bits << " max=" << c.max_message_bits
       << " dropped=" << c.dropped << " duplicated=" << c.duplicated
       << " delayed=" << c.delayed << " killed=" << c.killed << "\n";
  };
  line("run", s.rounds, s);
  for (const PhaseStats& p : s.phases) line(p.name, p.rounds, p);
  return os.str();
}

TEST(ReliableChannel, PhysicalCountersArePinnedOnForest2) {
  // The transport's frames and the fault decorator's draws, pinned on a
  // weighted forest2 instance whose 31-bit levels make the DATA header
  // 67 bits wide: a change to either may reorganize how frames are built
  // or counted, but not one frame, bit or fault decision.
  Rng rng(2000);
  Graph g = gen::k_tree_union(2000, 2, rng);
  std::vector<Weight> w = gen::uniform_weights(2000, 1000, rng);
  const harness::CorpusInstance inst{"forest2_n2000",
                                     WeightedGraph(std::move(g), std::move(w)),
                                     2, false, false, "forest2"};
  CongestConfig cfg;
  cfg.seed = 0x5eedULL;
  cfg.reliable_transport = true;
  cfg.fault.drop_prob = 0.02;
  cfg.fault.duplicate_prob = 0.02;
  cfg.fault.delay_prob = 0.05;
  cfg.fault.max_delay_rounds = 3;
  cfg.fault.reorder_prob = 0.05;
  ASSERT_EQ(Network(inst.wg, cfg).size_model().level_bits, 31);
  const std::pair<std::string_view, std::string_view> pins[] = {
      {"det", kPinnedDet},
      {"general", kPinnedGeneral},
  };
  for (const auto& [name, want] : pins) {
    const harness::SolverInfo& info = harness::solver(name);
    harness::SolverParams params = harness::params_for(info, inst);
    params.threads = -1;
    for (const int threads : {1, test_thread_width()}) {
      cfg.threads = threads;
      const std::unique_ptr<Network> net = fault::make_network(inst.wg, cfg);
      const MdsResult res = info.run_on(*net, params);
      EXPECT_EQ(physical_counters(res.stats), want)
          << name << " at threads=" << threads;
    }
  }
}

// ----------------------------------------- kill_round = 1 boundary pin

// Minimal probe for the kill boundary: ids flood at initialize and at
// every process_round; per-round arrival counts are recorded.
class KillProbe final : public DistributedAlgorithm {
 public:
  explicit KillProbe(int rounds) : rounds_(rounds) {}

  std::vector<std::vector<int>> heard_;  // heard_[round][node] = records

  void initialize(Network& net) override {
    heard_.assign(static_cast<std::size_t>(rounds_) + 1,
                  std::vector<int>(net.num_nodes(), 0));
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      net.broadcast(v, Message::tagged(0).add_id(v));
  }

  void process_round(Network& net) override {
    const std::int64_t r = net.current_round();
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      int count = 0;
      for (const MessageView mv : net.inbox(v)) {
        (void)mv;
        ++count;
      }
      heard_[static_cast<std::size_t>(r)][v] = count;
      net.broadcast(v, Message::tagged(0).add_id(v));
    }
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  int rounds_;
};

TEST(Repair, KillRoundOneDeliversInitializeSendsThenSilences) {
  // kill_round = 1 is the earliest legal kill: the node completes
  // initialize (round 0) and its round-0 broadcasts DELIVER at round 1,
  // but it is dead before its first process_round send and never
  // receives anything.
  const auto wg = WeightedGraph::uniform(gen::cycle(6));
  fault::FaultPlan plan;
  plan.kills = {{0, 1}};
  fault::FaultyNetwork net(wg, {}, plan);
  EXPECT_FALSE(net.alive(0));
  EXPECT_TRUE(net.alive(1));
  EXPECT_EQ(net.killed_nodes(), NodeSet{0});
  KillProbe probe(3);
  net.run(probe, 10);
  // Round 1: every node hears both neighbors — node 0's initialize
  // sends made it out before the kill took effect.
  for (NodeId v = 1; v < 6; ++v) EXPECT_EQ(probe.heard_[1][v], 2);
  // From round 2 on, node 0's neighbors hear only their live neighbor.
  EXPECT_EQ(probe.heard_[2][1], 1);
  EXPECT_EQ(probe.heard_[2][5], 1);
  EXPECT_EQ(probe.heard_[3][1], 1);
  // The dead node itself hears nothing at any round >= 1.
  for (std::size_t r = 1; r < probe.heard_.size(); ++r)
    EXPECT_EQ(probe.heard_[r][0], 0) << "dead node heard at round " << r;
}

// -------------------------------------------------- repair semantics

TEST(Repair, UncoveredSurvivorsRecoverWhenTheirUniqueDominatorDies) {
  // Path 0-1-2 dominated by {1} alone; node 1 is killed, leaving both
  // leaves uncovered with no live neighbor at all — each must elect
  // itself. The repaired set is exactly the two survivors.
  const auto wg =
      WeightedGraph::uniform(Graph::from_edges(3, {{0, 1}, {1, 2}}));
  fault::FaultPlan plan;
  plan.kills = {{1, 1}};
  fault::FaultyNetwork net(wg, {}, plan);
  const RepairOutcome out = run_repair(net, {1});
  EXPECT_EQ(out.repaired_set, (NodeSet{0, 2}));
  EXPECT_EQ(out.repaired_nodes, 2);
  EXPECT_EQ(out.post_weight, 2);
  EXPECT_GT(out.repair_rounds, 0);
  EXPECT_LE(out.repair_rounds, 6);  // the protocol is O(1): 5 stages

  // The surviving-subgraph oracle agrees: {0, 2} dominates the alive
  // subgraph (and is optimal on it), while the dead original set does
  // not.
  const harness::CorpusInstance inst{"path3", wg, /*alpha=*/1,
                                     /*forest=*/true, /*unit_weights=*/true,
                                     /*family=*/""};
  const std::vector<std::uint8_t> alive = {1, 0, 1};
  const harness::SolverInfo& info = harness::solver("det+repair");
  harness::OracleOptions opts;
  opts.alive = &alive;

  MdsResult repaired;
  repaired.dominating_set = out.repaired_set;
  repaired.weight = out.post_weight;
  const auto ok = harness::check_solver_result(info, {}, inst, repaired, opts);
  EXPECT_TRUE(ok.ok) << ok.failure;
  EXPECT_DOUBLE_EQ(ok.opt, 2.0);
  EXPECT_DOUBLE_EQ(ok.ratio, 1.0);

  MdsResult dead;
  dead.dominating_set = {1};
  dead.weight = wg.weight(1);
  const auto bad = harness::check_solver_result(info, {}, inst, dead, opts);
  EXPECT_FALSE(bad.ok);
  EXPECT_NE(bad.failure.find("undominated"), std::string::npos)
      << bad.failure;
}

TEST(Repair, RegistryListsOneRepairVariantPerSolver) {
  const auto base = harness::all_solvers();
  const auto repair = harness::repair_solvers();
  ASSERT_EQ(base.size(), repair.size());
  for (std::size_t i = 0; i < base.size(); ++i) {
    const std::string expect = std::string(base[i].name) + "+repair";
    EXPECT_EQ(repair[i].name, expect);
    EXPECT_EQ(harness::find_solver(expect), &repair[i]);
    // Everything but the name, guarantee text and driver mirrors the base.
    EXPECT_EQ(repair[i].theorem, base[i].theorem);
    EXPECT_EQ(repair[i].guarantee,
              std::string(base[i].guarantee) + ", then post-kill repair");
    EXPECT_EQ(repair[i].schema, base[i].schema);
    EXPECT_EQ(repair[i].randomized, base[i].randomized);
    EXPECT_EQ(repair[i].forests_only, base[i].forests_only);
    EXPECT_EQ(repair[i].bound_needs_unit_weights,
              base[i].bound_needs_unit_weights);
    EXPECT_EQ(repair[i].check_params, base[i].check_params);
    EXPECT_EQ(repair[i].approx_bound, base[i].approx_bound);
    EXPECT_NE(repair[i].run_on, base[i].run_on);
    // The base list stays pure: exhaustive clean sweeps must not pick
    // up the variants implicitly.
    EXPECT_EQ(base[i].name.find('+'), std::string_view::npos);
  }
  EXPECT_EQ(harness::find_solver("det+repair"), &repair.front());
  EXPECT_EQ(harness::find_solver("nope+repair"), nullptr);
}

// --------------------------------------- repair under the scenario axis

TEST(Repair, ScenarioRowsAreDeterministicAndPassTheSurvivingOracle) {
  const int wide = test_thread_width();
  const auto corpus = harness::small_corpus(13);
  const auto& inst = corpus.front();

  harness::ScenarioFault kills;
  kills.label = "kills";
  kills.spec.kill_prob = 0.3;
  kills.spec.kill_round = 2;
  const std::vector<std::uint8_t> alive =
      fault::alive_mask(inst.wg.graph(), kills.spec);
  std::size_t dead = 0;
  for (const std::uint8_t a : alive) dead += (a == 0);
  ASSERT_GT(dead, 0u) << "kill_prob too low for this corpus seed — the "
                         "sweep would test nothing";
  ASSERT_LT(dead, alive.size());

  harness::ScenarioSpec spec;
  spec.solvers = {{"det+repair", std::nullopt, ""},
                  {"greedy-threshold+repair", std::nullopt, ""}};
  spec.thread_widths = {1, wide};
  spec.fault_levels = {kills};
  spec.tolerate_failures = true;
  spec.base_config.round_limit = 400;
  const std::vector<const harness::CorpusInstance*> one = {&inst};
  const auto rows = harness::run_scenario(spec, one);
  ASSERT_EQ(rows.size(), 4u);  // 2 solvers x 2 widths
  EXPECT_TRUE(harness::all_identical(rows));

  harness::OracleOptions opts;
  opts.alive = &alive;
  for (const auto& row : rows) {
    // The whole point of the variant: the repaired result survives the
    // kill schedule instead of dying with it.
    EXPECT_FALSE(row.failed) << row.solver;
    EXPECT_GT(row.result.repair_rounds, 0) << row.solver;
    EXPECT_LE(row.result.repair_rounds, 6) << row.solver;
    EXPECT_EQ(row.result.post_repair_weight, row.result.weight) << row.solver;
    const harness::SolverInfo& info = harness::solver(row.solver);
    const auto rep = harness::check_solver_result(
        info, harness::params_for(info, inst), inst, row.result, opts);
    EXPECT_TRUE(rep.ok) << row.solver << " at threads=" << row.threads
                        << ": " << rep.failure;
  }

  // The v5 repair columns and round-limit flag ride in the JSON rows.
  std::ostringstream os;
  harness::write_scenario_json(os, rows);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"schema_version\": 8"), std::string::npos);
  EXPECT_NE(json.find("\"hit_round_limit\": "), std::string::npos);
  EXPECT_NE(json.find("\"repair_rounds\": "), std::string::npos);
  EXPECT_NE(json.find("\"repaired_nodes\": "), std::string::npos);
  EXPECT_NE(json.find("\"post_repair_weight\": "), std::string::npos);
}

// ------------------------------------------------- spec/plan validation

TEST(FaultValidation, RejectsOutOfRangeSpecsAndPlans) {
  const auto g = gen::cycle(6);
  {
    fault::FaultSpec bad;
    bad.drop_prob = -0.1;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    fault::FaultSpec bad;
    bad.duplicate_prob = 1.5;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    fault::FaultSpec bad;
    bad.delay_prob = 0.5;
    bad.max_delay_rounds = -1;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    // kill_round 0 would let a node die before its initialize sends
    // leave — a state no clean run can reach; rejected up front.
    fault::FaultSpec bad;
    bad.kill_prob = 0.1;
    bad.kill_round = 0;
    EXPECT_THROW(fault::make_fault_plan(g, bad), CheckError);
  }
  {
    fault::FaultPlan plan;
    plan.kills = {{0, 0}};
    EXPECT_THROW(fault::validate_fault_plan(g, plan), CheckError);
  }
  {
    fault::FaultPlan plan;
    plan.kills = {{99, 2}};
    EXPECT_THROW(fault::validate_fault_plan(g, plan), CheckError);
  }
}

}  // namespace
}  // namespace arbods::resilience
