// ReliableChannel: exactly-once, sender-ordered delivery over a faulty
// CONGEST simulator, packaged as a Phase adapter.
//
// The problem: a FaultyNetwork drops, duplicates, delays, and reorders
// records, so a registry solver run on one either diverges or starves.
// The classic fix (sequence numbers + cumulative acknowledgments +
// bounded retransmission, as in accountable-delivery designs) turns the
// lossy channel back into the reliable one the paper's protocols assume
// — at the price of extra physical rounds and transport traffic.
//
// Architecture — two cooperating objects per wrapped phase:
//
//   * ReliableNetwork: the *virtual* network the wrapped algorithm runs
//     on. It is a full Network (like FaultyNetwork) whose arenas hold
//     exactly the messages of the current VIRTUAL round; it overrides
//     only send/broadcast, so the algorithm's sends are wire-encoded
//     once, at capture, into per-link unit rings instead of hitting the
//     wire, while inbox/rng/arm are the plain engine's. It enforces the
//     ORIGINAL message cap and exposes the original round counter, so
//     the algorithm's observable world is bit-identical to a clean run.
//
//   * ReliablePhase: the Phase wrapper (`reliable(phase)`) driven by the
//     OUTER (physical, possibly faulty) network. Each physical round it
//     (1) receives transport frames from the outer inbox — dedup by
//     per-link sequence number, buffer out-of-order arrivals, apply
//     cumulative acks; every payload consumed in order is stripped of
//     its transport header and deposited straight into the virtual
//     network's out-arena (a copy of exactly the record a clean send
//     writes), and every consumed round marker bumps the
//     ready-link count; (2) when every link has closed the current
//     virtual round, flips the virtual network and runs the wrapped
//     algorithm's next process_round; (3) transmits due units plus
//     standalone ACK frames where a delivery consumed something but no
//     reverse DATA is flying.
//
// Storage: one Link per (node, neighbor) pair, indexed by the node's CSR
// arc, holds both directions' state. The sender side is a flat word ring
// of unit records — a control word (retransmit deadline, attempt,
// marker/payload flags) followed by the payload's wire record — popped
// by cumulative acks and compacted in place, so its capacity survives
// across rounds; ReliablePhase keeps one ReliableNetwork for every phase
// it wraps over the same outer network, so capacity survives phases too.
// The rings hold payloads, not frames: a frame is built from its unit at
// each (re)transmission, into the worker's scratch, and is never stored.
//
// Frame layout (tags 14/15, header widths paid for by the cap headroom):
//
//   DATA  (tag, seq, cumulative ack, marker flag, payload fields...)
//   ACK   (tag, cumulative ack)
//
// Both are ordinary wire records (congest/message.hpp), built and read
// as words by FrameCodec without a Message: a DATA frame's kind words
// are the four header nibbles followed by the payload's nibbles shifted
// by four, and its bit stream is tag, seq, ack and marker followed by
// the payload's bits shifted by the header width (67 bits at
// level_bits = 31, so the header spans two words). A frame goes onto the
// outer network through the private word-level seam Network::send_wire,
// which FaultyNetwork overrides like send. On receipt the link is the
// one of the inbox lane the frame arrived on, unless its sender id says
// a reorder diverted it from another lane; seq, ack and marker are read
// at fixed bit offsets, and the payload record is shifted back out into
// the virtual lane.
//
// The end-of-round marker rides on the last unit an arc carries in a
// virtual round when that unit has at least one payload field; only an
// arc that carried nothing that round (or whose last send was a
// zero-field message, which a bare 4-field frame could not tell apart
// from a marker) gets a standalone marker frame (4 fields, flag set).
// At zero faults every link therefore moves one frame per virtual round
// and each virtual round takes one physical round; acks ride the next
// round's reverse DATA.
//
// Sparse passes: a physical round that does not close a virtual round
// visits only the outer active set — nodes with inbox frames (and so
// possibly acks to send) plus nodes whose earliest retransmit deadline
// fell due, which the transmit pass arms through outer.arm_at. A round
// that closes a virtual round re-visits every node, since each link
// then carries new units or a marker. Receive-side deposits run on the
// worker that owns the node in the uniform for_nodes split, so every
// virtual lane keeps a single writer across the physical rounds of a
// virtual round.
//
// Retransmission: each unit carries its own deadline; a link-level
// `next_due` minimum lets the transmit scan skip quiet links. The
// backoff schedule is the pure function
//
//   gap(arc, seq, attempt) = 2 + 2^min(attempt,5)
//                              + mix64(arc, seq, attempt) % 2^min(attempt,5)
//
// (an RTT guard of 2 rounds, bounded exponential growth, deterministic
// jitter) — no RNG state anywhere in the transport, so a run is
// bit-identical at every worker-pool width, and composes with
// FaultyNetwork unchanged.
//
// Determinism contract (tested in tests/resilience_test.cpp): for every
// registry solver, `reliable(phase)` over a drop/duplicate/reorder/delay
// FaultSpec produces bit-identical solver OUTPUT (set, weight, packing,
// iterations) to the fault-free run — the statistics differ, since the
// physical transport traffic is the honest cost of reliability.
// Crash-stop kills are out of scope: a dead endpoint acks nothing, the
// wrapped algorithm starves, and the phase ends via the round limit
// (pair with RepairPhase for that failure mode).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "congest/network.hpp"
#include "protocol/phase.hpp"

namespace arbods::resilience {

class ReliablePhase;

/// Deterministic retransmission schedule: rounds to wait before attempt
/// `attempt`+1 of unit `seq` on receiver-side arc `arc`. Pure function,
/// exposed for tests.
std::int64_t retransmit_gap(std::uint32_t arc, std::uint32_t seq,
                            std::uint8_t attempt);

/// The transport's physical frames, built and read as words. A DATA
/// frame is exactly the wire record wire_encode writes for
///
///   Message::tagged(kTransportDataTag).add_level(seq).add_level(ack)
///       .add_flag(marker).append_fields(payload)
///
/// and an ACK frame the one for Message::tagged(kTransportAckTag)
/// .add_level(ack) — but no Message is built: data() shifts the stored
/// payload record behind the header (see "Frame layout" above). Exposed
/// for tests.
class FrameCodec {
 public:
  FrameCodec(const MessageSizeModel& model, bool quantized_reals);

  /// Words data() may write for a payload record of `payload_words` words
  /// (0 = a bare marker).
  std::size_t data_words_bound(std::size_t payload_words) const {
    return payload_words + 2 + header_words_;
  }
  /// Words every ack() frame takes.
  std::size_t ack_words() const { return ack_words_; }

  /// Writes the DATA frame of `payload` (a wire record sent by `sender`,
  /// or nullptr for a bare marker) into dst; returns its words and stores
  /// its CONGEST-accounted bits in *bits.
  std::size_t data(NodeId sender, std::uint32_t seq, std::uint32_t ack,
                   bool marker, const std::uint64_t* payload,
                   std::uint64_t* dst, int* bits) const;
  /// Writes the ACK frame into dst; returns its words (ack_words()) and
  /// stores its CONGEST-accounted bits in *bits.
  std::size_t ack(NodeId sender, std::uint32_t ack, std::uint64_t* dst,
                  int* bits) const;

  /// The transport header of a received DATA frame, read at fixed bit
  /// offsets.
  struct DataHeader {
    std::uint32_t seq = 0;
    std::uint32_t ack = 0;
    bool marker = false;
  };
  DataHeader data_header(const std::uint64_t* frame) const;
  /// Writes the payload record a received DATA frame carries into dst (at
  /// most the frame's words); returns its words.
  std::size_t strip(const std::uint64_t* frame, std::uint64_t* dst) const;
  /// The cumulative ack of a received ACK frame.
  std::uint32_t ack_of(const std::uint64_t* frame) const;

 private:
  /// Wire bits of the nf fields whose kind nibbles start at `kinds`; the
  /// accounted bits go to *model_bits when it is non-null.
  std::size_t wire_bits(const std::uint64_t* kinds, std::size_t nf,
                        int* model_bits) const;

  // Wire and accounted bits per FieldKind nibble.
  std::uint8_t wire_bits_[16] = {};
  std::uint8_t model_bits_[16] = {};
  int tag_bits_;
  int level_bits_;
  int flag_bits_;
  int header_bits_;  // tag + seq + ack + marker
  std::size_t header_words_;
  std::size_t ack_words_;
};

/// The virtual network a reliable()-wrapped algorithm runs on. Public
/// surface is the unchanged Network API. ReliablePhase::initialize
/// builds one over the outer network and resets it for every later
/// phase it wraps over the same network.
class ReliableNetwork final : public Network {
 public:
  explicit ReliableNetwork(const Network& outer);

  // --- Network seams the wrapped algorithm drives ---
  void send(NodeId from, NodeId to, const Message& m) override;
  void broadcast(NodeId from, const Message& m) override;
  /// Back to the fresh-construction state for the next wrapped phase.
  void reset_for_reuse() override;

 private:
  friend class ReliablePhase;

  /// Both directions of one (node v, neighbor u) pair, indexed by v's
  /// CSR arc to u. The sender half (v -> u) is written only by v; the
  /// receiver half (u -> v) only by v as well, so every pass touching a
  /// node's links is race-free.
  struct Link {
    // Sender side. `ring` holds the unacked units, oldest first from
    // word `head`: a control word (see the kUnit* constants in the .cpp)
    // followed by the payload's wire record (absent for a standalone
    // marker).
    std::vector<std::uint64_t> ring;
    std::uint32_t head = 0;       // word offset of unit base_seq
    std::uint32_t last = 0;       // word offset of the newest unit
    std::uint32_t base_seq = 0;   // seq of the oldest unacked unit
    std::uint32_t next_seq = 0;   // seq of the next captured unit
    std::uint32_t round_seq = 0;  // first seq of the open virtual round
    std::int64_t next_due = 0;    // min deadline over the unacked units
    std::int64_t last_data_tx = -1;  // physical round of the last DATA send
    // Receiver side: next expected seq (== the cumulative ack), and the
    // out-of-order arrivals — per record a control word (seq + flags)
    // followed by the stripped payload record.
    std::uint32_t next = 0;
    bool ack_due = false;
    std::vector<std::uint64_t> held;

    /// Pops every unit below the cumulative ack `ack`.
    void pop_acked(std::int64_t ack);
  };

  /// Appends a unit to link q's ring: a captured payload (already
  /// wire-encoded) or, with nwords == 0, a standalone marker.
  void push_unit(std::size_t q, std::uint64_t ctl,
                 const std::uint64_t* payload, std::size_t nwords);
  /// True when every link has closed virtual round current_round().
  bool virtual_round_complete() const;
  /// Flips the arenas (the out-arena already holds the completed virtual
  /// round's payloads) and advances the virtual round.
  void deliver_and_flip();

  /// Runs fn(v, w) for every listed node (ascending), where w is the
  /// worker owning v in the uniform for_nodes split, one block per
  /// worker on the pool.
  void for_listed_nodes(std::span<const NodeId> nodes,
                        FunctionRef<void(NodeId, std::size_t)> fn);
  /// Physical receive over the nodes with inbox frames.
  void receive_pass(Network& outer);
  /// Physical transmit. `close_round`: the wrapped algorithm just ended a
  /// virtual round, so every node closes its links (marker on the last
  /// unit, or a standalone one) and transmits; otherwise only the outer
  /// active set is visited.
  void transmit_pass(Network& outer, bool close_round);

  /// The calling worker's frame scratch, at least `words` long.
  std::uint64_t* frame_buffer(std::size_t words);
  void receive_node(Network& outer, NodeId v, std::size_t w);
  /// Takes the in-order arrival `ctl` (+ stripped payload) on link q:
  /// the payload goes into the virtual lane, a marker closes the link.
  void consume(std::size_t q, std::size_t w, std::uint64_t ctl,
               const std::uint64_t* payload, std::size_t nwords);
  /// Consumes the held arrivals on link q that are now in order.
  void drain_held(std::size_t q, std::size_t w);
  void close_links(NodeId v);
  void transmit_node(Network& outer, NodeId v, std::int64_t now);
  /// Sends the DATA frame of `unit` (seq on v's link q) and advances its
  /// attempt; returns its next retransmit deadline.
  std::int64_t send_data(Network& outer, NodeId v, std::size_t q,
                         std::uint32_t seq, std::uint64_t* unit,
                         std::int64_t now);

  FrameCodec frames_;
  std::vector<Link> links_;
  /// Per-worker count of links whose marker for the open virtual round
  /// was consumed; they sum to the link count when the round is closed.
  std::vector<WorkerCounter> ready_links_;
  std::int64_t seq_limit_ = 0;  // 2^level_bits, the transport seq ceiling
};

/// Phase adapter: wraps `inner` so it runs with exactly-once,
/// sender-ordered delivery on any (plain or faulty) Network. Appears in
/// per-phase statistics as "<inner>+rel". ProtocolRunner applies it
/// automatically when CongestConfig::reliable_transport is set.
class ReliablePhase final : public protocol::Phase {
 public:
  explicit ReliablePhase(protocol::Phase& inner);
  ~ReliablePhase() override;

  /// Re-targets the adapter at another phase. The virtual network (and
  /// the capacity its rings and arenas grew) is kept for the next
  /// initialize over the same outer network.
  void wrap(protocol::Phase& inner);

  std::string_view name() const override { return name_; }
  void bind(protocol::PhaseContext& ctx) override { inner_->bind(ctx); }
  void publish(Network& net, protocol::PhaseContext& ctx) override;

  void initialize(Network& outer) override;
  void process_round(Network& outer) override;
  bool finished(const Network& outer) const override;

 private:
  protocol::Phase* inner_ = nullptr;
  std::string name_;
  std::unique_ptr<ReliableNetwork> vnet_;
  bool inner_finished_ = false;
};

/// The wrapper spelled as a combinator: reliable(phase).
inline ReliablePhase reliable(protocol::Phase& phase) {
  return ReliablePhase(phase);
}

}  // namespace arbods::resilience
