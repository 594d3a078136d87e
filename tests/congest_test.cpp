// Tests for the CONGEST simulator: message encoding and bit accounting,
// the packed wire format, delivery semantics, lane spill/regrowth, cap
// enforcement, active-set scheduling, per-node randomness, statistics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "common/check.hpp"
#include "congest/message.hpp"
#include "congest/network.hpp"
#include "fault/faulty_network.hpp"
#include "gen/classic.hpp"

namespace arbods {

// Test-only access to the lane epoch counter (a friend of Network), so the
// wrap test can start a Network a few epochs short of 2^32.
struct NetworkTestPeer {
  static std::uint32_t epoch(const Network& net) { return net.epoch_; }
  /// The next epoch handed out is epoch + 1. Only between runs, and only
  /// forward: no lane may already carry a stamp above `epoch`.
  static void set_epoch(Network& net, std::uint32_t epoch) {
    net.epoch_ = epoch;
  }
};

namespace {

// ---------------------------------------------------------------- messages

TEST(Message, TagAndFields) {
  Message m = Message::tagged(3);
  m.add_id(7).add_weight(100).add_level(5).add_flag(true).add_real(0.25);
  EXPECT_EQ(m.tag(), 3);
  EXPECT_EQ(m.id_at(1), 7u);
  EXPECT_EQ(m.weight_at(2), 100);
  EXPECT_EQ(m.level_at(3), 5);
  EXPECT_TRUE(m.flag_at(4));
  EXPECT_DOUBLE_EQ(m.real_at(5), 0.25);
}

TEST(Message, UntaggedTagIsMinusOne) {
  Message m;
  m.add_flag(false);
  EXPECT_EQ(m.tag(), -1);
}

TEST(Message, KindMismatchThrows) {
  Message m = Message::tagged(0);
  m.add_flag(true);
  EXPECT_THROW(m.id_at(1), CheckError);
  EXPECT_THROW(m.flag_at(5), CheckError);
}

TEST(Message, BitSizeUsesModelWidths) {
  MessageSizeModel model;
  model.id_bits = 10;
  model.weight_bits = 7;
  model.level_bits = 5;
  model.flag_bits = 1;
  model.real_bits = 32;
  model.tag_bits = 4;
  Message m = Message::tagged(1);
  m.add_id(3).add_weight(2).add_level(1).add_flag(true).add_real(1.0);
  EXPECT_EQ(m.bit_size(model), 4 + 10 + 7 + 5 + 1 + 32);
}

TEST(Message, QuantizeRealsRoundsThroughCodec) {
  Message m = Message::tagged(0);
  const double v = 0.1;  // not representable exactly in 25 mantissa bits
  m.add_real(v);
  m.quantize_reals(default_value_codec());
  const double q = m.real_at(1);
  EXPECT_NE(q, 0.0);
  EXPECT_NEAR(q, v, v * default_value_codec().relative_error_bound() * 1.01);
}

TEST(Message, InlineStorageOverflowKeepsFieldsAddressable) {
  Message m = Message::tagged(2);
  for (int i = 0; i < 20; ++i) m.add_level(i * 100);  // beyond kInlineFields
  EXPECT_EQ(m.num_fields(), 21u);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(m.level_at(1 + i), i * 100);
}

// ------------------------------------------------------ packed wire format

TEST(Wire, EncodeDecodeRoundTripsEveryKind) {
  MessageSizeModel model;
  model.id_bits = 17;
  model.weight_bits = 23;
  model.level_bits = 29;
  model.flag_bits = 1;
  model.real_bits = default_value_codec().bit_width();
  model.tag_bits = 4;
  Message m = Message::tagged(9);
  m.add_id(12345).add_weight(4'000'000).add_level(123456789).add_flag(true)
      .add_real(0.375).add_flag(false).add_id(3);
  std::vector<std::uint64_t> buf(wire_words(m, model, true));
  EXPECT_EQ(wire_encode(m, 777, model, true, buf.data()), buf.size());
  EXPECT_EQ(wire_payload_bits(m, model), m.bit_size(model));

  MessageView view(buf.data(), &model, true);
  EXPECT_EQ(view.sender(), 777u);
  EXPECT_EQ(view.num_fields(), 8u);
  EXPECT_EQ(view.words(), buf.size());
  EXPECT_EQ(view.tag(), 9);
  EXPECT_EQ(view.id_at(1), 12345u);
  EXPECT_EQ(view.weight_at(2), 4'000'000);
  EXPECT_EQ(view.level_at(3), 123456789);
  EXPECT_TRUE(view.flag_at(4));
  const auto& codec = default_value_codec();
  EXPECT_EQ(view.real_at(5), codec.decode(codec.encode(0.375)));
  EXPECT_FALSE(view.flag_at(6));
  EXPECT_EQ(view.id_at(7), 3u);
  EXPECT_THROW(view.id_at(2), CheckError);    // kind mismatch
  EXPECT_THROW(view.flag_at(8), CheckError);  // out of range
}

TEST(Wire, RawDoublesWhenQuantizationDisabled) {
  MessageSizeModel model;
  Message m = Message::tagged(1);
  m.add_real(0.1);  // not representable in the codec
  std::vector<std::uint64_t> buf(wire_words(m, model, false));
  wire_encode(m, 5, model, false, buf.data());
  MessageView view(buf.data(), &model, false);
  EXPECT_EQ(view.real_at(1), 0.1);  // exact 64-bit round trip
}

TEST(Wire, ManyFieldRecordsSpanKindWords) {
  MessageSizeModel model;
  model.flag_bits = 1;
  Message m;  // untagged: 40 flags forces three kind words
  for (int i = 0; i < 40; ++i) m.add_flag(i % 3 == 0);
  std::vector<std::uint64_t> buf(wire_words(m, model, true));
  wire_encode(m, 1, model, true, buf.data());
  MessageView view(buf.data(), &model, true);
  EXPECT_EQ(view.tag(), -1);
  EXPECT_EQ(view.num_fields(), 40u);
  for (int i = 0; i < 40; ++i) EXPECT_EQ(view.flag_at(i), i % 3 == 0);
}

TEST(Wire, AppendFieldsMatchesACleanEncode) {
  // A payload decoded from its wire record (append_fields) behind other
  // fields must encode to exactly the record those fields written directly
  // produce — including payloads whose kinds span several kind words and
  // raw (unquantized) reals. The reliable transport's word-level frames
  // are tested against records built this way.
  MessageSizeModel model;
  model.id_bits = 13;
  model.level_bits = 27;
  model.real_bits = default_value_codec().bit_width();
  for (const bool quantized : {true, false}) {
    for (const int extra_flags : {0, 3, 20}) {
      Message direct = Message::tagged(14);
      direct.add_level(7).add_level(5).add_flag(true);
      Message payload;
      for (Message* m : {&payload, &direct}) {
        m->add_weight(300).add_id(4321).add_real(0.3).add_level(99);
        for (int i = 0; i < extra_flags; ++i) m->add_flag(i % 2 == 0);
      }
      std::vector<std::uint64_t> clean(wire_words(payload, model, quantized));
      wire_encode(payload, 42, model, quantized, clean.data());

      Message frame = Message::tagged(14);
      frame.add_level(7).add_level(5).add_flag(true);
      frame.append_fields(MessageView(clean.data(), &model, quantized));
      ASSERT_EQ(frame.num_fields(), 4 + payload.num_fields());
      std::vector<std::uint64_t> framed(wire_words(frame, model, quantized));
      wire_encode(frame, 42, model, quantized, framed.data());
      std::vector<std::uint64_t> want(wire_words(direct, model, quantized));
      wire_encode(direct, 42, model, quantized, want.data());
      EXPECT_EQ(framed, want)
          << "quantized=" << quantized << " extra_flags=" << extra_flags;
      // Appending from a later field drops the fields before it.
      Message tail;
      tail.append_fields(MessageView(framed.data(), &model, quantized), 4);
      std::vector<std::uint64_t> stripped(wire_words(tail, model, quantized));
      wire_encode(tail, 42, model, quantized, stripped.data());
      EXPECT_EQ(stripped, clean)
          << "quantized=" << quantized << " extra_flags=" << extra_flags;
    }
  }
}

// ----------------------------------------------------------------- network

// Two-round protocol: round 1 every node broadcasts its id; round 2 every
// node records the sum of received ids.
class EchoAlgorithm final : public DistributedAlgorithm {
 public:
  std::vector<std::int64_t> sums;

  void initialize(Network& net) override {
    sums.assign(net.num_nodes(), -1);
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      net.broadcast(v, Message::tagged(0).add_id(v));
    round_ = 0;
  }

  void process_round(Network& net) override {
    ++round_;
    if (round_ != 1) return;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      std::int64_t sum = 0;
      for (const MessageView m : net.inbox(v)) {
        sum += m.id_at(1);
        EXPECT_EQ(m.sender(), m.id_at(1));  // sender metadata is faithful
      }
      sums[v] = sum;
    }
  }

  bool finished(const Network& net) const override {
    (void)net;
    return round_ >= 1;
  }

 private:
  int round_ = 0;
};

TEST(Network, BroadcastDeliversToAllNeighborsNextRound) {
  auto wg = WeightedGraph::uniform(gen::cycle(5));
  Network net(wg);
  EchoAlgorithm algo;
  RunStats stats = net.run(algo, 10);
  EXPECT_EQ(stats.rounds, 1);
  for (NodeId v = 0; v < 5; ++v) {
    const std::int64_t left = (v + 4) % 5, right = (v + 1) % 5;
    EXPECT_EQ(algo.sums[v], left + right);
  }
}

TEST(Network, MessageAndBitAccounting) {
  auto wg = WeightedGraph::uniform(gen::cycle(5));
  Network net(wg);
  EchoAlgorithm algo;
  RunStats stats = net.run(algo, 10);
  EXPECT_EQ(stats.messages, 10);  // 5 broadcasts x degree 2
  const int per_msg = net.size_model().tag_bits + net.size_model().id_bits;
  EXPECT_EQ(stats.total_bits, 10 * per_msg);
  EXPECT_EQ(stats.max_message_bits, per_msg);
}

TEST(Network, SendRejectsNonEdges) {
  auto wg = WeightedGraph::uniform(gen::path(3));
  Network net(wg);
  EXPECT_THROW(net.send(0, 2, Message::tagged(0)), CheckError);
}

// An algorithm that sends one oversized message.
class OversizeAlgorithm final : public DistributedAlgorithm {
 public:
  void initialize(Network& net) override {
    Message m = Message::tagged(0);
    for (int i = 0; i < 100; ++i) m.add_id(0);
    net.broadcast(0, std::move(m));
  }
  void process_round(Network&) override {}
  bool finished(const Network&) const override { return true; }
};

TEST(Network, EnforcesMessageCap) {
  auto wg = WeightedGraph::uniform(gen::path(2));
  Network net(wg);
  OversizeAlgorithm algo;
  EXPECT_THROW(net.run(algo, 10), CheckError);
}

TEST(Network, CapCanBeLifted) {
  auto wg = WeightedGraph::uniform(gen::path(2));
  CongestConfig cfg;
  cfg.enforce_message_size = false;
  Network net(wg, cfg);
  OversizeAlgorithm algo;
  RunStats stats = net.run(algo, 10);
  EXPECT_GT(stats.max_message_bits, net.max_message_bits());
}

TEST(Network, CapOverride) {
  auto wg = WeightedGraph::uniform(gen::path(2));
  CongestConfig cfg;
  cfg.max_message_bits_override = 123;
  Network net(wg, cfg);
  EXPECT_EQ(net.max_message_bits(), 123);
}

TEST(Network, DefaultCapScalesWithLogN) {
  auto small = WeightedGraph::uniform(Graph(4));
  auto big = WeightedGraph::uniform(Graph(1 << 20));
  Network net_small(small);
  Network net_big(big);
  EXPECT_GE(net_big.max_message_bits(), net_small.max_message_bits());
  EXPECT_LE(net_big.max_message_bits(), 4 * 21);
}

TEST(Network, ValidateConfigRejectsEachOutOfRangeField) {
  const NodeId n = 100;
  EXPECT_NO_THROW(validate_config(CongestConfig{}, n));
  auto rejects = [n](auto mutate, const char* what) {
    CongestConfig cfg;
    mutate(cfg);
    EXPECT_THROW(validate_config(cfg, n), CheckError) << what;
  };
  rejects([](CongestConfig& c) { c.threads = -2; }, "negative threads");
  rejects([](CongestConfig& c) { c.threads = kMaxThreads + 1; }, "threads");
  rejects([](CongestConfig& c) { c.log_factor = 0; }, "log_factor 0");
  rejects([](CongestConfig& c) { c.log_factor = 65; }, "log_factor 65");
  rejects([](CongestConfig& c) { c.max_message_bits_override = -1; },
          "negative cap override");
  rejects([](CongestConfig& c) {
    c.max_message_bits_override = kMaxMessageBits + 1;
  }, "huge cap override");
  rejects([](CongestConfig& c) { c.fault.drop_prob = -0.1; }, "drop_prob");
  rejects([](CongestConfig& c) { c.fault.reorder_prob = 2.0; }, "reorder");
  rejects([](CongestConfig& c) { c.fault.max_delay_rounds = -1; }, "delay");
  rejects([](CongestConfig& c) { c.round_limit = -5; }, "round_limit");
  CongestConfig edge;
  edge.threads = 0;  // all hardware threads
  edge.max_message_bits_override = kMaxMessageBits;
  edge.fault.drop_prob = 1.0;
  EXPECT_NO_THROW(validate_config(edge, n));
}

// Never-finishing algorithm to test the round limit.
class ForeverAlgorithm final : public DistributedAlgorithm {
 public:
  void initialize(Network&) override {}
  void process_round(Network&) override {}
  bool finished(const Network&) const override { return false; }
};

TEST(Network, RoundLimitReported) {
  auto wg = WeightedGraph::uniform(gen::path(3));
  Network net(wg);
  ForeverAlgorithm algo;
  RunStats stats = net.run(algo, 7);
  EXPECT_TRUE(stats.hit_round_limit);
  EXPECT_EQ(stats.rounds, 7);
}

TEST(Network, PerNodeRngIsDeterministicAcrossNetworks) {
  auto wg = WeightedGraph::uniform(gen::path(4));
  CongestConfig cfg;
  cfg.seed = 777;
  Network a(wg, cfg), b(wg, cfg);
  for (NodeId v = 0; v < 4; ++v)
    EXPECT_EQ(a.rng(v).next_u64(), b.rng(v).next_u64());
}

TEST(Network, PerNodeRngStreamsDiffer) {
  auto wg = WeightedGraph::uniform(gen::path(4));
  Network net(wg);
  EXPECT_NE(net.rng(0).next_u64(), net.rng(1).next_u64());
}

TEST(Network, QuantizationAppliedOnSend) {
  auto wg = WeightedGraph::uniform(gen::path(2));

  class Probe final : public DistributedAlgorithm {
   public:
    double received = -1;
    void initialize(Network& net) override {
      net.send(0, 1, Message::tagged(0).add_real(0.1));
    }
    void process_round(Network& net) override {
      for (const MessageView m : net.inbox(1)) received = m.real_at(1);
    }
    bool finished(const Network&) const override { return received >= 0; }
  };

  Probe p;
  Network net(wg);
  net.run(p, 5);
  const auto& codec = default_value_codec();
  EXPECT_EQ(p.received, codec.decode(codec.encode(0.1)));
}

TEST(Network, WeightBitsReflectMaxWeight) {
  WeightedGraph wg(gen::path(3), {1, 100, 7});
  Network net(wg);
  EXPECT_EQ(net.size_model().weight_bits, 7);  // 100 needs 7 bits
}

// ------------------------------------------------- worker pool / for_nodes

TEST(Network, ForNodesVisitsEveryNodeExactlyOnce) {
  auto wg = WeightedGraph::uniform(gen::grid(13, 11));
  CongestConfig cfg;
  cfg.threads = 8;
  Network net(wg, cfg);
  EXPECT_EQ(net.num_workers(), 8);
  NodeFlags visits(wg.num_nodes(), 0);
  net.for_nodes([&](NodeId v) { ++visits[v]; });
  for (NodeId v = 0; v < wg.num_nodes(); ++v) EXPECT_EQ(visits[v], 1u);
}

TEST(Network, WorkerCountClampsToNodesAndHardware) {
  auto tiny = WeightedGraph::uniform(gen::path(3));
  CongestConfig cfg;
  cfg.threads = 64;
  Network net(tiny, cfg);
  EXPECT_EQ(net.num_workers(), 3);  // never more workers than nodes
  cfg.threads = 0;                  // hardware_concurrency, at least 1
  Network hw(tiny, cfg);
  EXPECT_GE(hw.num_workers(), 1);
}

// Every node broadcasts for a fixed number of rounds; the exact expected
// message/bit counts catch torn or dropped statistics when the counters
// are accumulated from the worker pool.
class BroadcastStorm final : public DistributedAlgorithm {
 public:
  static constexpr std::int64_t kRounds = 8;

  void initialize(Network&) override {}

  void process_round(Network& net) override {
    if (net.current_round() > kRounds) return;
    net.for_nodes([&](NodeId v) {
      net.broadcast(v, Message::tagged(1).add_id(v));
    });
  }

  bool finished(const Network& net) const override {
    return net.current_round() > kRounds;
  }
};

TEST(Network, ParallelStatsAccountingIsExactAndRaceFree) {
  auto wg = WeightedGraph::uniform(gen::grid(32, 32));  // m = 1984
  const std::int64_t directed = 2 * static_cast<std::int64_t>(
      wg.graph().num_edges());

  CongestConfig serial_cfg;
  serial_cfg.threads = 1;
  Network serial_net(wg, serial_cfg);
  BroadcastStorm serial_algo;
  const RunStats serial = serial_net.run(serial_algo, 100);

  CongestConfig wide_cfg;
  wide_cfg.threads = 8;
  Network wide_net(wg, wide_cfg);
  BroadcastStorm wide_algo;
  const RunStats wide = wide_net.run(wide_algo, 100);

  const int per_msg =
      serial_net.size_model().tag_bits + serial_net.size_model().id_bits;
  EXPECT_EQ(serial.messages, BroadcastStorm::kRounds * directed);
  EXPECT_EQ(serial.total_bits, serial.messages * per_msg);
  EXPECT_EQ(serial.max_message_bits, per_msg);
  EXPECT_TRUE(wide == serial);  // identical counters at any pool width
}

TEST(Network, CapViolationInsideWorkerPoolPropagates) {
  auto wg = WeightedGraph::uniform(gen::path(8));
  CongestConfig cfg;
  cfg.threads = 4;
  cfg.max_message_bits_override = 1;

  class OversizeEverywhere final : public DistributedAlgorithm {
   public:
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        net.broadcast(v, Message::tagged(0).add_id(v));
      });
    }
    void process_round(Network&) override {}
    bool finished(const Network&) const override { return true; }
  };

  Network net(wg, cfg);
  OversizeEverywhere algo;
  EXPECT_THROW(net.run(algo, 10), CheckError);
}

// Every node broadcasts in initialize and in each round; in round
// `throw_at` node 0 throws mid-round, when at width > 1 the other workers
// may already have sent (partial accounting that must not leak).
class ThrowsAtRound final : public DistributedAlgorithm {
 public:
  ThrowsAtRound(std::int64_t rounds, std::int64_t throw_at)
      : rounds_(rounds), throw_at_(throw_at) {}

  void initialize(Network& net) override { send_all(net); }
  void process_round(Network& net) override { send_all(net); }
  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  void send_all(Network& net) {
    net.for_nodes([&](NodeId v) {
      ARBODS_CHECK_MSG(v != 0 || net.current_round() != throw_at_,
                       "planned failure");
      net.broadcast(v, Message::tagged(0).add_id(v));
    });
  }
  std::int64_t rounds_;
  std::int64_t throw_at_;
};

// The run_with_repair shape: a phase that throws keeps its completed
// rounds in the run totals but appends no phases entry, and the next
// phase appends its own. `rounds` counts the k-1 completed rounds, not
// the aborted one, so it covers exactly what the counters hold: the
// phase's initialize and its k-1 completed rounds.
TEST(Network, ThrowingPhaseKeepsCompletedRoundsInRunTotals) {
  const auto wg = WeightedGraph::uniform(gen::grid(8, 8));
  const std::int64_t directed =
      2 * static_cast<std::int64_t>(wg.graph().num_edges());
  constexpr std::int64_t k = 4;
  std::vector<RunStats> per_width;
  for (const int width : {1, 4}) {
    CongestConfig cfg;
    cfg.threads = width;
    Network net(wg, cfg);
    net.reset_for_reuse();
    ThrowsAtRound before(3, -1);
    net.run_phase(before, "before");
    const RunStats after_first = net.stats();
    ASSERT_EQ(after_first.messages, 4 * directed);

    ThrowsAtRound doomed(10, k);
    EXPECT_THROW(net.run_phase(doomed, "doomed"), CheckError);
    const RunStats& s = net.stats();
    ASSERT_EQ(s.phases.size(), 1u) << "a thrown phase appends no entry";
    EXPECT_EQ(s.rounds, after_first.rounds + (k - 1));
    EXPECT_EQ(s.messages, after_first.messages + k * directed);
    EXPECT_EQ(s.total_bits, after_first.total_bits * (4 + k) / 4);
    EXPECT_EQ(s.max_message_bits, after_first.max_message_bits);

    ThrowsAtRound repair(2, -1);
    const PhaseStats& ps = net.run_phase(repair, "repair");
    EXPECT_EQ(ps.name, "repair");
    EXPECT_EQ(ps.rounds, 2);
    EXPECT_EQ(ps.messages, 3 * directed);
    ASSERT_EQ(net.stats().phases.size(), 2u);
    EXPECT_EQ(net.stats().messages,
              after_first.messages + k * directed + ps.messages);
    per_width.push_back(net.stats());
  }
  EXPECT_TRUE(per_width[0] == per_width[1])
      << "the aborted round's partial accounting leaked at width 4";
}

// Two sends on the same edge in the same round land in one lane with the
// send order preserved, after all broadcast deliveries of lower-id
// senders (inbox order is sender-major).
TEST(Network, InboxOrderIsSenderMajorWithinRound) {
  auto wg = WeightedGraph::uniform(gen::star(4));  // hub 0, leaves 1..3

  class TwoSends final : public DistributedAlgorithm {
   public:
    std::vector<int> hub_tags;
    void initialize(Network& net) override {
      net.send(2, 0, Message::tagged(5));
      net.send(2, 0, Message::tagged(6));
      net.send(1, 0, Message::tagged(7));
    }
    void process_round(Network& net) override {
      for (const MessageView m : net.inbox(0)) hub_tags.push_back(m.tag());
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 1;
    }
  };

  Network net(wg);
  TwoSends algo;
  const RunStats stats = net.run(algo, 5);
  EXPECT_EQ(stats.messages, 3);
  EXPECT_EQ(algo.hub_tags, (std::vector<int>{7, 5, 6}));
  EXPECT_EQ(net.inbox(0).size(), 3u);
  EXPECT_EQ(net.inbox(0).front().tag(), 7);
  EXPECT_TRUE(net.inbox(1).empty());
}

// ------------------------------------------------- lane spill and regrowth

// Tiny lane regions force the overflow path: records spill to per-worker
// side buffers mid-round, the next flip merges them back in send order and
// permanently regrows the lanes, after which delivery is spill-free and
// indistinguishable from the resident path.
TEST(Network, LaneOverflowSpillsAndRegrowsPreservingOrder) {
  auto wg = WeightedGraph::uniform(gen::star(4));  // hub 0, leaves 1..3

  class Chatty final : public DistributedAlgorithm {
   public:
    int checked_rounds = 0;
    void initialize(Network& net) override { burst(net); }
    void process_round(Network& net) override {
      std::vector<std::pair<NodeId, int>> got;
      for (const MessageView m : net.inbox(0))
        got.push_back({m.sender(), m.tag()});
      std::vector<std::pair<NodeId, int>> want;
      for (NodeId s = 1; s <= 3; ++s)
        for (int t = 0; t < 3; ++t) want.push_back({s, t});
      EXPECT_EQ(got, want);
      ++checked_rounds;
      if (net.current_round() < 3) burst(net);
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 3;
    }

   private:
    static void burst(Network& net) {
      for (NodeId s = 1; s <= 3; ++s)
        for (int t = 0; t < 3; ++t)
          net.send(s, 0, Message::tagged(t).add_id(s));
    }
  };

  for (const int threads : {1, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    cfg.lane_capacity_words_hint = 1;  // no record fits its lane resident
    Network net(wg, cfg);
    Chatty algo;
    const RunStats stats = net.run(algo, 10);
    EXPECT_EQ(algo.checked_rounds, 3);
    EXPECT_EQ(stats.messages, 27);
  }
}

// ------------------------------------------------------------ lane epochs

// Every node sends to each neighbor on a pseudo-random schedule: in round
// s, 0, 1 or 2 records carrying s on arc v->u, so every lane mixes traffic
// with silent rounds on both double-buffer parities, and the last round's
// records are still in flight when the run ends. On the same kind of
// schedule a node also broadcasts, before its sends (its first send of the
// round: the record goes to its broadcast slot) or after them (the lane
// path), so slots too are written, silent and live across every flip.
// Each receiver checks that its inbox holds exactly the records sent to it
// last round, and the inboxes fold into one digest per round. `salt`
// picks another schedule.
class LanePattern final : public DistributedAlgorithm {
 public:
  explicit LanePattern(std::int64_t rounds, std::uint64_t salt = 0)
      : rounds_(rounds), salt_(salt) {}

  std::vector<std::uint64_t> digests;  // one per round
  std::int64_t bad_nodes = 0;          // inboxes that differed from the sends

  int copies(NodeId from, NodeId to, std::int64_t round) const {
    std::uint64_t x = (std::uint64_t{from} << 40) ^ (std::uint64_t{to} << 16) ^
                      static_cast<std::uint64_t>(round) ^ (salt_ << 56);
    x *= 0x9e3779b97f4a7c15ULL;
    x ^= x >> 29;
    return static_cast<int>(x % 3);
  }

  // 0: no broadcast in `round`, 1: broadcast before the sends, 2: after.
  int broadcast_mode(NodeId v, std::int64_t round) const {
    std::uint64_t x = (std::uint64_t{v} << 24) ^
                      (static_cast<std::uint64_t>(round) << 4) ^
                      (salt_ << 56) ^ 0x5bd1e995ULL;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 31;
    return static_cast<int>(x % 3);
  }

  void initialize(Network& net) override {
    digests.clear();
    bad_nodes = 0;
    node_digest_.assign(net.num_nodes(), 0);
    node_bad_.assign(net.num_nodes(), 0);
    net.for_nodes([&](NodeId v) { send_all(net, v, 0); });
  }

  void process_round(Network& net) override {
    const std::int64_t r = net.current_round();
    net.for_nodes([&](NodeId v) {
      std::uint64_t h = 0;
      std::int64_t got = 0;
      for (const MessageView m : net.inbox(v)) {
        if (m.level_at(1) != r - 1) node_bad_[v] = 1;
        h = h * 1000003 + std::uint64_t{m.sender()} * 31 +
            static_cast<std::uint64_t>(m.tag());
        ++got;
      }
      std::int64_t want = 0;
      for (const NodeId u : net.neighbors(v))
        want += copies(u, v, r - 1) + (broadcast_mode(u, r - 1) != 0 ? 1 : 0);
      if (got != want) node_bad_[v] = 1;
      node_digest_[v] = h;
      send_all(net, v, r);
    });
    std::uint64_t d = 0xcbf29ce484222325ULL;
    for (NodeId v = 0; v < net.num_nodes(); ++v) {
      d = (d ^ node_digest_[v]) * 0x100000001b3ULL;
      bad_nodes += node_bad_[v];
      node_bad_[v] = 0;
    }
    digests.push_back(d);
  }

  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  void send_all(Network& net, NodeId v, std::int64_t round) const {
    const int mode = broadcast_mode(v, round);
    const Message b = Message::tagged(3).add_level(round);
    if (mode == 1) net.broadcast(v, b);
    for (const NodeId u : net.neighbors(v))
      for (int c = 0; c < copies(v, u, round); ++c)
        net.send(v, u, Message::tagged(c).add_level(round));
    if (mode == 2) net.broadcast(v, b);
  }

  std::int64_t rounds_;
  std::uint64_t salt_;
  std::vector<std::uint64_t> node_digest_;
  std::vector<std::uint8_t> node_bad_;
};

// Sends nothing; counts every record and active node it sees (rounds 1 and
// 2 read one arena each).
class SilentProbe final : public DistributedAlgorithm {
 public:
  explicit SilentProbe(std::int64_t rounds = 2) : rounds_(rounds) {}
  std::int64_t seen = 0;
  void initialize(Network& net) override {
    (void)net;
    seen = 0;
  }
  void process_round(Network& net) override {
    seen += static_cast<std::int64_t>(net.active_nodes().size());
    for (NodeId v = 0; v < net.num_nodes(); ++v)
      seen += static_cast<std::int64_t>(net.inbox(v).size());
  }
  bool finished(const Network& net) const override {
    return net.current_round() >= rounds_;
  }

 private:
  std::int64_t rounds_;
};

std::int64_t records_visible(const Network& net) {
  std::int64_t n = 0;
  for (NodeId v = 0; v < net.num_nodes(); ++v)
    n += static_cast<std::int64_t>(net.inbox(v).size());
  return n;
}

// The double-buffer aliasing case: a lane written in round r and silent in
// round r+1 must read empty in round r+2, although the arena read in r+2
// still holds whatever that lane carried in round r-1. LanePattern checks
// every inbox against exactly last round's sends.
TEST(Network, LaneSilentForARoundReadsEmpty) {
  auto wg = WeightedGraph::uniform(gen::grid(7, 6));
  for (const int threads : {1, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    Network net(wg, cfg);
    LanePattern algo(12);
    const RunStats stats = net.run(algo, 20);
    EXPECT_EQ(stats.rounds, 12);
    EXPECT_EQ(algo.bad_nodes, 0) << "threads " << threads;
  }

  // The minimal case on one edge: records sent in rounds 0 and 3 only.
  class OnOff final : public DistributedAlgorithm {
   public:
    std::vector<std::size_t> sizes;
    void initialize(Network& net) override {
      net.send(0, 1, Message::tagged(1));
    }
    void process_round(Network& net) override {
      sizes.push_back(net.inbox(1).size());
      if (net.current_round() == 3) net.send(0, 1, Message::tagged(2));
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 6;
    }
  };
  auto edge = WeightedGraph::uniform(gen::path(2));
  Network net(edge);
  OnOff algo;
  net.run(algo, 10);
  EXPECT_EQ(algo.sizes, (std::vector<std::size_t>{1, 0, 0, 1, 0, 0}));
}

// reset_for_reuse and a run_phase boundary leave no record of the previous
// run or phase visible in either arena — also when that run ended right
// after a spill regrow or with spilled records never merged.
TEST(Network, NoRecordSurvivesResetOrPhaseBoundary) {
  auto wg = WeightedGraph::uniform(gen::grid(7, 6));
  for (const int threads : {1, 4}) {
    for (const int hint : {0, 1}) {
      // rounds = 1: the run ends right after the first flip's regrow (hint
      // 1 spills every record); longer runs end with records in flight.
      for (const std::int64_t rounds : {1, 2, 5}) {
        CongestConfig cfg;
        cfg.threads = threads;
        cfg.lane_capacity_words_hint = hint;
        Network net(wg, cfg);
        const std::size_t initial_words = net.arena_words();
        LanePattern pattern(rounds);
        net.run(pattern, 20);
        ASSERT_EQ(pattern.bad_nodes, 0);
        ASSERT_GT(records_visible(net), 0);
        if (hint == 1) {
          ASSERT_GT(net.arena_words(), initial_words) << "lanes regrew";
        }
        net.reset_for_reuse();
        EXPECT_EQ(records_visible(net), 0) << "after reset_for_reuse";
        SilentProbe probe;
        net.run_phase(probe, "after-reset");
        EXPECT_EQ(probe.seen, 0);

        net.reset_for_reuse();
        net.run_phase(pattern, "pattern");
        ASSERT_EQ(pattern.bad_nodes, 0);
        SilentProbe next;
        net.run_phase(next, "next");
        EXPECT_EQ(next.seen, 0) << "across the phase boundary";
        EXPECT_EQ(net.stats().phases.back().messages, 0);
      }
    }
  }
}

// Broadcast slots are a plain-Network detail: a FaultyNetwork with a
// zero-fault plan overrides broadcast per arc and never writes a slot,
// yet must deliver the same inboxes in the same order, with the same
// RunStats and flight-record counters, at every pool width.
TEST(Network, BroadcastSlotsMatchZeroPlanFaultyNetwork) {
  auto wg = WeightedGraph::uniform(gen::grid(9, 8));
  std::vector<std::uint64_t> reference_digests;
  for (const int threads : {1, 4}) {
    CongestConfig cfg;
    cfg.threads = threads;
    cfg.trace.flight_rounds = 16;
    Network plain(wg, cfg);
    fault::FaultyNetwork faulty(wg, cfg, fault::FaultPlan{});
    LanePattern on_plain(12);
    LanePattern on_faulty(12);
    const RunStats plain_stats = plain.run(on_plain, 50);
    const RunStats faulty_stats = faulty.run(on_faulty, 50);
    EXPECT_EQ(on_plain.bad_nodes, 0) << "threads " << threads;
    EXPECT_EQ(on_faulty.bad_nodes, 0) << "threads " << threads;
    EXPECT_EQ(on_plain.digests, on_faulty.digests) << "threads " << threads;
    EXPECT_EQ(plain_stats, faulty_stats) << "threads " << threads;
    if (reference_digests.empty()) reference_digests = on_plain.digests;
    EXPECT_EQ(on_plain.digests, reference_digests) << "threads " << threads;

    const auto plain_flight = plain.flight_records();
    const auto faulty_flight = faulty.flight_records();
    ASSERT_EQ(plain_flight.size(), faulty_flight.size());
    std::int64_t slotted = 0;
    for (std::size_t i = 0; i < plain_flight.size(); ++i) {
      EXPECT_EQ(plain_flight[i], faulty_flight[i]) << "round " << i + 1;
      EXPECT_EQ(faulty_flight[i].slotted, 0);
      slotted += plain_flight[i].slotted;
    }
    EXPECT_GT(slotted, 0) << "the plain run used no slot";
  }
}

// The 32-bit epoch counter wraps without a visible trace: a Network whose
// counter starts k epochs short of 2^32 (with stale headers of an earlier
// run on another schedule in both arenas) restarts it during reset, at a
// phase start, or
// between rounds with records in flight, and produces the same inboxes and
// RunStats as a fresh Network — on the run that wraps and the run after.
TEST(Network, LaneEpochWrapIsInvisible) {
  auto wg = WeightedGraph::uniform(gen::grid(7, 6));
  constexpr std::uint32_t kMax = std::numeric_limits<std::uint32_t>::max();
  for (const int threads : {1, 4}) {
    for (const int hint : {0, 1}) {
      CongestConfig cfg;
      cfg.threads = threads;
      cfg.lane_capacity_words_hint = hint;
      Network fresh(wg, cfg);
      LanePattern ref(40);
      const RunStats ref_stats = fresh.run(ref, 50);
      ASSERT_EQ(ref.bad_nodes, 0);

      // run() takes two epochs in reset_for_reuse, two at the phase start,
      // then one per flip: k = 0..3 wrap before round 1, k >= 4 mid-run.
      for (const std::uint32_t k : {0u, 1u, 2u, 3u, 4u, 5u, 8u}) {
        // A silent run across the restart: its epochs climb back through
        // the warm-up's stale stamps, which the restart must have erased.
        {
          Network net(wg, cfg);
          LanePattern warm(30, /*salt=*/1);
          net.run(warm, 50);
          NetworkTestPeer::set_epoch(net, kMax - k);
          SilentProbe quiet(40);
          net.run(quiet, 50);
          EXPECT_LT(NetworkTestPeer::epoch(net), kMax - k) << "k " << k;
          EXPECT_EQ(quiet.seen, 0) << "k " << k;
        }

        Network net(wg, cfg);
        LanePattern warm(30, /*salt=*/1);
        net.run(warm, 50);
        NetworkTestPeer::set_epoch(net, kMax - k);
        LanePattern algo(40);
        const RunStats stats = net.run(algo, 50);
        EXPECT_LT(NetworkTestPeer::epoch(net), kMax - k) << "k " << k;
        EXPECT_EQ(algo.bad_nodes, 0) << "k " << k;
        EXPECT_EQ(algo.digests, ref.digests) << "k " << k;
        EXPECT_EQ(stats, ref_stats) << "k " << k;

        LanePattern again(40);
        EXPECT_EQ(net.run(again, 50), ref_stats) << "k " << k;
        EXPECT_EQ(again.digests, ref.digests) << "k " << k;
      }
    }
  }
}

// --------------------------------------------------- active-set scheduling

// for_active_nodes visits exactly (message receivers ∪ armed nodes) of the
// round, each exactly once, regardless of duplicate deliveries or arms.
TEST(Network, ActiveSetIsReceiversPlusArmedDeduplicated) {
  auto wg = WeightedGraph::uniform(gen::path(6));

  class Probe final : public DistributedAlgorithm {
   public:
    std::vector<NodeId> round1, round2;
    void initialize(Network& net) override {
      net.send(0, 1, Message::tagged(1));
      net.send(2, 1, Message::tagged(2));  // node 1 receives twice
      net.arm(4);
      net.arm(4);  // duplicate arm
      net.arm(1);  // armed and receiving
    }
    void process_round(Network& net) override {
      if (net.current_round() == 1) {
        net.for_active_nodes([&](NodeId v) {
          round1.push_back(v);
          if (v == 4) net.arm(v);  // 4 re-arms, 1 resolves
        });
      } else {
        net.for_active_nodes([&](NodeId v) { round2.push_back(v); });
      }
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 2;
    }
  };

  Network net(wg);
  Probe p;
  net.run(p, 5);
  std::sort(p.round1.begin(), p.round1.end());
  EXPECT_EQ(p.round1, (std::vector<NodeId>{1, 4}));
  EXPECT_EQ(p.round2, (std::vector<NodeId>{4}));  // only the re-armed node
}

// An arm_at wake whose target round never consults the active set (a
// for_nodes-only stage) is not dropped: it carries forward at each flip and
// fires in the first round that does look.
TEST(Network, ArmAtWakeCarriesAcrossActiveSetFreeRounds) {
  auto wg = WeightedGraph::uniform(gen::path(4));

  class Sleeper final : public DistributedAlgorithm {
   public:
    std::vector<std::pair<std::int64_t, NodeId>> wakes;
    void initialize(Network& net) override { net.arm_at(2, 1); }
    void process_round(Network& net) override {
      if (net.current_round() <= 2) {
        net.for_nodes([](NodeId) {});  // the due wake must survive these
        return;
      }
      net.for_active_nodes(
          [&](NodeId v) { wakes.push_back({net.current_round(), v}); });
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 4;
    }
  };

  Network net(wg);
  Sleeper s;
  net.run(s, 10);
  // Armed for round 1, deferred through rounds 1-2, delivered in round 3
  // exactly once, and not redelivered in round 4.
  EXPECT_EQ(s.wakes,
            (std::vector<std::pair<std::int64_t, NodeId>>{{3, 2}}));
}

// The active set is a pure function of the algorithm, not the pool width:
// contents match between a serial and a wide network at every round.
TEST(Network, ActiveSetContentsIndependentOfThreadWidth) {
  auto wg = WeightedGraph::uniform(gen::grid(9, 7));

  class Recorder final : public DistributedAlgorithm {
   public:
    std::vector<std::vector<NodeId>> per_round;
    void initialize(Network& net) override {
      net.for_nodes([&](NodeId v) {
        if (v % 3 == 0) net.broadcast(v, Message::tagged(0).add_id(v));
      });
    }
    void process_round(Network& net) override {
      auto active = net.active_nodes();
      per_round.emplace_back(active.begin(), active.end());
      std::sort(per_round.back().begin(), per_round.back().end());
      net.for_active_nodes([&](NodeId v) {
        if (v % 2 == 0 && net.current_round() < 3)
          net.broadcast(v, Message::tagged(1).add_id(v));
      });
    }
    bool finished(const Network& net) const override {
      return net.current_round() >= 4;
    }
  };

  CongestConfig serial_cfg;
  serial_cfg.threads = 1;
  Network serial_net(wg, serial_cfg);
  Recorder serial;
  serial_net.run(serial, 10);

  CongestConfig wide_cfg;
  wide_cfg.threads = 8;
  Network wide_net(wg, wide_cfg);
  Recorder wide;
  wide_net.run(wide, 10);

  ASSERT_EQ(serial.per_round.size(), wide.per_round.size());
  for (std::size_t r = 0; r < serial.per_round.size(); ++r)
    EXPECT_EQ(serial.per_round[r], wide.per_round[r]) << "round " << r;
}

}  // namespace
}  // namespace arbods
