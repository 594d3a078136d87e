#include "resilience/reliable_channel.hpp"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.hpp"
#include "common/random.hpp"
#include "fault/fault_spec.hpp"

namespace arbods::resilience {

std::int64_t retransmit_gap(std::uint32_t arc, std::uint32_t seq,
                            std::uint8_t attempt) {
  // 2 rounds of RTT guard (send + ack each take one physical round), then
  // bounded exponential growth with deterministic jitter so retransmit
  // storms of co-created units spread out without any RNG state.
  const int a = attempt < 5 ? attempt : 5;
  const std::int64_t base = std::int64_t{1} << a;
  const std::uint64_t h =
      mix64((static_cast<std::uint64_t>(arc) << 32) ^
            (static_cast<std::uint64_t>(seq) << 8) ^ attempt);
  // h % base, as a mask: base is a power of two, and this runs per frame.
  return 2 + base + static_cast<std::int64_t>(
                        h & static_cast<std::uint64_t>(base - 1));
}

namespace {

/// The config the wrapped algorithm's world is built from: the outer
/// config with the adversary and the transport stripped (the virtual
/// network is clean by construction, and reliable_transport=false keeps
/// the ORIGINAL message cap — the headroom belongs to the physical
/// frames only). The worker width is pinned to the outer pool's
/// resolved width so chunk assignment matches a clean run exactly.
CongestConfig algo_config(const Network& outer) {
  CongestConfig cfg = outer.config();
  cfg.fault = fault::FaultSpec{};
  cfg.reliable_transport = false;
  cfg.threads = outer.num_workers();
  // One recorder per run, owned by the outer stack — the virtual network
  // must not construct its own.
  cfg.trace = obs::TraceOptions{};
  return cfg;
}

// Control word of a unit in a Link's sender ring: the retransmit
// deadline (physical round; 0 = due now), the attempt count, and the
// marker/payload flags. A held (out-of-order) arrival uses the same two
// flags over its sequence number in the low 32 bits.
constexpr std::uint64_t kUnitDueMask = (std::uint64_t{1} << 48) - 1;
constexpr int kUnitAttemptShift = 48;
constexpr std::uint64_t kUnitAttemptMask = std::uint64_t{0xff}
                                           << kUnitAttemptShift;
constexpr std::uint64_t kUnitMarker = std::uint64_t{1} << 56;
constexpr std::uint64_t kUnitPayload = std::uint64_t{1} << 57;
constexpr std::uint64_t kHeldSeqMask = 0xffffffffu;

/// Transport header fields in front of a DATA frame's payload, and their
/// kind nibbles (tag, seq, ack, marker); an ACK frame's (tag, ack).
constexpr std::size_t kDataHeaderFields = 4;
constexpr std::uint64_t kDataKinds =
    static_cast<std::uint64_t>(FieldKind::kTag) |
    static_cast<std::uint64_t>(FieldKind::kLevel) << 4 |
    static_cast<std::uint64_t>(FieldKind::kLevel) << 8 |
    static_cast<std::uint64_t>(FieldKind::kFlag) << 12;
constexpr std::uint64_t kAckKinds =
    static_cast<std::uint64_t>(FieldKind::kTag) |
    static_cast<std::uint64_t>(FieldKind::kLevel) << 4;

constexpr std::int64_t kNever = std::numeric_limits<std::int64_t>::max();

/// Total words of the wire record starting at rec (header word field).
std::size_t record_words(const std::uint64_t* rec) {
  return static_cast<std::size_t>((rec[0] >> 48) & 0xffffu);
}

std::size_t record_fields(const std::uint64_t* rec) {
  return static_cast<std::size_t>((rec[0] >> 32) & 0xffffu);
}

/// Word 0 of a wire record (see congest/message.hpp).
std::uint64_t record_header(NodeId sender, std::size_t fields,
                            std::size_t words) {
  return static_cast<std::uint64_t>(sender) |
         (static_cast<std::uint64_t>(fields) << 32) |
         (static_cast<std::uint64_t>(words) << 48);
}

/// ORs the bit stream src[0 .. src_words) into dst from bit `at` on,
/// dropping whatever would land at or past word dst_words (zero bits in a
/// well-formed record).
void or_shifted(std::uint64_t* dst, std::size_t dst_words,
                const std::uint64_t* src, std::size_t src_words,
                std::size_t at) {
  const std::size_t k = at / 64;
  const int s = static_cast<int>(at % 64);
  for (std::size_t i = 0; i < src_words && k + i < dst_words; ++i) {
    dst[k + i] |= src[i] << s;
    if (s != 0 && k + i + 1 < dst_words) dst[k + i + 1] |= src[i] >> (64 - s);
  }
}

/// Writes bits [at, at + 64 * dst_words) of the bit stream
/// src[0 .. src_words) to dst; bits past the stream's end read as zero.
void copy_shifted_down(std::uint64_t* dst, std::size_t dst_words,
                       const std::uint64_t* src, std::size_t src_words,
                       std::size_t at) {
  const std::size_t k = at / 64;
  const int s = static_cast<int>(at % 64);
  for (std::size_t i = 0; i < dst_words; ++i) {
    std::uint64_t w = k + i < src_words ? src[k + i] >> s : 0;
    if (s != 0 && k + i + 1 < src_words) w |= src[k + i + 1] << (64 - s);
    dst[i] = w;
  }
}

/// Words of the ring/held entry starting at ctl (control word + payload).
std::size_t entry_words(const std::uint64_t* ctl) {
  return 1 + ((ctl[0] & kUnitPayload) != 0 ? record_words(ctl + 1) : 0);
}

void check_seq(std::uint32_t next_seq, std::int64_t limit, std::size_t q) {
  ARBODS_CHECK_MSG(
      static_cast<std::int64_t>(next_seq) < limit,
      "reliable-transport sequence number overflow on arc "
          << q << " (limit " << limit
          << "): the phase outlived the level-field width of this instance");
}

}  // namespace

FrameCodec::FrameCodec(const MessageSizeModel& model, bool quantized_reals)
    : tag_bits_(model.tag_bits),
      level_bits_(model.level_bits),
      flag_bits_(model.flag_bits),
      header_bits_(reliable_transport_header_bits(model)),
      header_words_((static_cast<std::size_t>(header_bits_) + 63) / 64),
      ack_words_(2 + (static_cast<std::size_t>(tag_bits_ + level_bits_) +
                      63) / 64) {
  for (const FieldKind kind :
       {FieldKind::kNodeId, FieldKind::kWeight, FieldKind::kLevel,
        FieldKind::kFlag, FieldKind::kReal, FieldKind::kTag}) {
    const auto k = static_cast<std::size_t>(kind);
    wire_bits_[k] = static_cast<std::uint8_t>(
        wire_field_bits(kind, model, quantized_reals));
    model_bits_[k] = static_cast<std::uint8_t>(model.width_of(kind));
  }
}

std::size_t FrameCodec::wire_bits(const std::uint64_t* kinds,
                                  std::size_t nf, int* model_bits) const {
  std::size_t bits = 0;
  int model = 0;
  for (std::size_t i = 0; i < nf; ++i) {
    const std::size_t kind = (kinds[i / detail::kKindsPerWord] >>
                              (4 * (i % detail::kKindsPerWord))) & 0xf;
    bits += wire_bits_[kind];
    model += model_bits_[kind];
  }
  if (model_bits != nullptr) *model_bits = model;
  return bits;
}

std::size_t FrameCodec::data(NodeId sender, std::uint32_t seq,
                             std::uint32_t ack, bool marker,
                             const std::uint64_t* payload,
                             std::uint64_t* dst, int* bits) const {
  // The payload's fields and their bits, from its kind nibbles.
  std::size_t nf = 0;
  std::size_t kwords = 0;
  std::size_t payload_bits = 0;
  int model_bits = 0;
  if (payload != nullptr) {
    nf = record_fields(payload);
    kwords = detail::kind_words(nf);
    payload_bits = wire_bits(payload + 1, nf, &model_bits);
  }
  const std::size_t out_kwords = detail::kind_words(nf + kDataHeaderFields);
  const std::size_t out_pwords =
      (static_cast<std::size_t>(header_bits_) + payload_bits + 63) / 64;
  const std::size_t total = 1 + out_kwords + out_pwords;
  dst[0] = record_header(sender, nf + kDataHeaderFields, total);
  std::uint64_t* kinds = dst + 1;
  std::uint64_t* bitstream = kinds + out_kwords;
  std::fill_n(kinds, out_kwords + out_pwords, std::uint64_t{0});
  // Header nibbles, then the payload's shifted by four nibbles; header
  // fields, then the payload's bits shifted by the header width.
  kinds[0] = kDataKinds;
  detail::put_bits(bitstream, 0, kTransportDataTag, tag_bits_);
  detail::put_bits(bitstream, tag_bits_, seq, level_bits_);
  detail::put_bits(bitstream, tag_bits_ + level_bits_, ack, level_bits_);
  detail::put_bits(bitstream, tag_bits_ + 2 * level_bits_, marker ? 1 : 0,
                   flag_bits_);
  if (payload != nullptr) {
    or_shifted(kinds, out_kwords, payload + 1, kwords, 4 * kDataHeaderFields);
    or_shifted(bitstream, out_pwords, payload + 1 + kwords,
               (payload_bits + 63) / 64,
               static_cast<std::size_t>(header_bits_));
  }
  *bits = header_bits_ + model_bits;
  return total;
}

std::size_t FrameCodec::strip(const std::uint64_t* frame,
                              std::uint64_t* dst) const {
  // data() backwards: drop the four header nibbles and the header bits.
  const std::size_t nf = record_fields(frame) - kDataHeaderFields;
  const std::size_t frame_kwords = detail::kind_words(nf + kDataHeaderFields);
  const std::size_t kwords = detail::kind_words(nf);
  copy_shifted_down(dst + 1, kwords, frame + 1, frame_kwords,
                    4 * kDataHeaderFields);
  const std::size_t pwords = (wire_bits(dst + 1, nf, nullptr) + 63) / 64;
  copy_shifted_down(dst + 1 + kwords, pwords, frame + 1 + frame_kwords,
                    record_words(frame) - 1 - frame_kwords,
                    static_cast<std::size_t>(header_bits_));
  const std::size_t total = 1 + kwords + pwords;
  dst[0] = record_header(static_cast<NodeId>(frame[0] & 0xffffffffu), nf,
                         total);
  return total;
}

std::size_t FrameCodec::ack(NodeId sender, std::uint32_t ack,
                            std::uint64_t* dst, int* bits) const {
  dst[0] = record_header(sender, 2, ack_words_);
  dst[1] = kAckKinds;
  std::fill_n(dst + 2, ack_words_ - 2, std::uint64_t{0});
  detail::put_bits(dst + 2, 0, kTransportAckTag, tag_bits_);
  detail::put_bits(dst + 2, tag_bits_, ack, level_bits_);
  *bits = tag_bits_ + level_bits_;
  return ack_words_;
}

FrameCodec::DataHeader FrameCodec::data_header(
    const std::uint64_t* frame) const {
  const std::uint64_t* bitstream =
      frame + 1 + detail::kind_words(record_fields(frame));
  DataHeader h;
  h.seq = static_cast<std::uint32_t>(
      detail::get_bits(bitstream, tag_bits_, level_bits_));
  h.ack = static_cast<std::uint32_t>(
      detail::get_bits(bitstream, tag_bits_ + level_bits_, level_bits_));
  h.marker = detail::get_bits(bitstream, tag_bits_ + 2 * level_bits_,
                              flag_bits_) != 0;
  return h;
}

std::uint32_t FrameCodec::ack_of(const std::uint64_t* frame) const {
  const std::uint64_t* bitstream =
      frame + 1 + detail::kind_words(record_fields(frame));
  return static_cast<std::uint32_t>(
      detail::get_bits(bitstream, tag_bits_, level_bits_));
}

ReliableNetwork::ReliableNetwork(const Network& outer)
    : Network(outer.weighted_graph(), algo_config(outer)),
      frames_(size_model_, config_.quantize_reals) {
  links_.resize(mirror_.size());
  ready_links_.resize(static_cast<std::size_t>(num_workers()));
  seq_limit_ = std::int64_t{1} << size_model_.level_bits;
  // The virtual network never goes through run_phase, whose phase start
  // marks the RNG streams consumed: the wrapped phase consumes them from
  // here on, so the next reset_for_reuse must restore them.
  rng_streams_fresh_ = false;
}

void ReliableNetwork::send(NodeId from, NodeId to, const Message& m) {
  const std::size_t q = resolve_arc(from, to);
  // The wrapped algorithm's CONGEST discipline: encode once and cap-check
  // against the ORIGINAL limit at capture time, exactly where a clean
  // send would have thrown (before any side effect).
  const std::size_t w = worker_slot();
  int bits = 0;
  const std::size_t need = encode_into_scratch(w, m, from, &bits);
  push_unit(q, kUnitPayload, scratch_[w].data(), need);
}

void ReliableNetwork::broadcast(NodeId from, const Message& m) {
  const std::size_t begin = offsets_[from];
  const std::size_t end = offsets_[from + 1];
  if (begin == end) return;
  const std::size_t w = worker_slot();
  int bits = 0;
  const std::size_t need = encode_into_scratch(w, m, from, &bits);
  for (std::size_t q = begin; q != end; ++q)
    push_unit(q, kUnitPayload, scratch_[w].data(), need);
}

void ReliableNetwork::push_unit(std::size_t q, std::uint64_t ctl,
                                const std::uint64_t* payload,
                                std::size_t nwords) {
  Link& l = links_[q];
  check_seq(l.next_seq, seq_limit_, q);
  l.last = static_cast<std::uint32_t>(l.ring.size());
  l.ring.push_back(ctl);  // deadline 0: due immediately
  if (nwords > 0) l.ring.insert(l.ring.end(), payload, payload + nwords);
  ++l.next_seq;
  l.next_due = 0;
}

void ReliableNetwork::close_links(NodeId v) {
  // The end-of-round marker rides on the round's last unit when it has
  // a payload field to tell it apart from a bare marker frame; otherwise
  // (no unit this round, or a zero-field last send) it is a unit of its
  // own.
  for (std::size_t q = offsets_[v]; q != offsets_[v + 1]; ++q) {
    Link& l = links_[q];
    const bool piggyback =
        l.next_seq != l.round_seq &&
        MessageView(&l.ring[l.last + 1], &size_model_, config_.quantize_reals)
                .num_fields() > 0;
    if (piggyback) {
      l.ring[l.last] |= kUnitMarker;
    } else {
      push_unit(q, kUnitMarker, nullptr, 0);
    }
    l.round_seq = l.next_seq;
  }
}

bool ReliableNetwork::virtual_round_complete() const {
  std::int64_t ready = 0;
  for (const WorkerCounter& c : ready_links_) ready += c.value;
  return ready == static_cast<std::int64_t>(links_.size());
}

void ReliableNetwork::for_listed_nodes(
    std::span<const NodeId> nodes, FunctionRef<void(NodeId, std::size_t)> fn) {
  ARBODS_DCHECK(std::is_sorted(nodes.begin(), nodes.end()));
  const std::size_t workers = static_cast<std::size_t>(num_workers());
  const std::size_t n = num_nodes();
  // Worker w owns nodes [n*w/W, n*(w+1)/W) — for_nodes' uniform split —
  // whichever thread runs the block, so a virtual lane's deposits come
  // from one worker slot for the whole virtual round.
  auto block = [&](std::size_t w) {
    const auto lo = static_cast<NodeId>(n * w / workers);
    const auto hi = static_cast<NodeId>(n * (w + 1) / workers);
    auto it = std::lower_bound(nodes.begin(), nodes.end(), lo);
    const auto end = std::lower_bound(it, nodes.end(), hi);
    for (; it != end; ++it) fn(*it, w);
  };
  run_index_chunks(workers, [&](std::size_t begin, std::size_t end) {
    for (std::size_t w = begin; w < end; ++w) block(w);
  });
}

void ReliableNetwork::receive_pass(Network& outer) {
  for_listed_nodes(outer.active_nodes(), [&](NodeId v, std::size_t w) {
    receive_node(outer, v, w);
  });
}

std::uint64_t* ReliableNetwork::frame_buffer(std::size_t words) {
  std::vector<std::uint64_t>& buf = scratch_[worker_slot()];
  if (buf.size() < words) buf.resize(words);
  return buf.data();
}

void ReliableNetwork::receive_node(Network& outer, NodeId v, std::size_t w) {
  const InboxView inbox = outer.inbox(v);
  for (auto it = inbox.begin(); it != inbox.end(); ++it) {
    const MessageView mv = *it;
    const int t = mv.tag();
    if (t != kTransportDataTag && t != kTransportAckTag) continue;
    // A frame belongs to the link of the lane it arrived on (v's arc to
    // the lane's sender), unless a reorder diverted it from another lane
    // of v: its true sender rides in the record. Everything below
    // touches only v's links, keeping the pass race-free.
    const std::size_t lane = it.lane();
    const std::size_t q =
        mv.sender() == adjacency_[lane] ? lane : resolve_arc(v, mv.sender());
    Link& l = links_[q];
    if (t == kTransportAckTag) {
      l.pop_acked(frames_.ack_of(mv.record()));
      continue;
    }
    const FrameCodec::DataHeader header = frames_.data_header(mv.record());
    l.pop_acked(header.ack);  // the piggybacked cumulative ack
    const std::uint32_t seq = header.seq;
    const bool marker = header.marker;
    // A bare 4-field frame is a marker when flagged, a zero-field payload
    // otherwise; anything longer carries a payload (and maybe a marker).
    const bool payload = mv.num_fields() > kDataHeaderFields || !marker;
    const std::uint64_t ctl =
        seq | (marker ? kUnitMarker : 0) | (payload ? kUnitPayload : 0);
    if (seq < l.next) {
      // Duplicate or stale retransmit: the sender may have missed an ack.
      l.ack_due = true;
      continue;
    }
    if (seq == l.next) {
      // In-order fast path: straight into the virtual lane.
      std::vector<std::uint64_t>& buf = scratch_[w];
      if (buf.size() < mv.words()) buf.resize(mv.words());
      const std::size_t nwords =
          payload ? frames_.strip(mv.record(), buf.data()) : 0;
      consume(q, w, ctl, buf.data(), nwords);
      if (!l.held.empty()) drain_held(q, w);
      continue;
    }
    bool present = false;
    for (std::size_t o = 0; o < l.held.size() && !present;
         o += entry_words(&l.held[o]))
      present = (l.held[o] & kHeldSeqMask) == seq;
    if (present) {
      l.ack_due = true;
      continue;
    }
    const std::size_t at = l.held.size();
    l.held.resize(at + 1 + (payload ? mv.words() : 0));
    l.held[at] = ctl;
    if (payload) {
      const std::size_t nwords = frames_.strip(mv.record(), &l.held[at + 1]);
      l.held.resize(at + 1 + nwords);
    }
  }
}

void ReliableNetwork::Link::pop_acked(std::int64_t ack) {
  while (static_cast<std::int64_t>(base_seq) < ack && base_seq != next_seq) {
    head += static_cast<std::uint32_t>(entry_words(&ring[head]));
    ++base_seq;
    if (head == ring.size()) {
      ring.clear();
      head = last = 0;
    } else if (2 * head >= ring.size()) {
      // Compact once the acked prefix is at least half the ring: each
      // move copies no more words than were popped since the last one,
      // and the capacity stays near the in-flight window.
      ring.erase(ring.begin(), ring.begin() + head);
      last -= head;
      head = 0;
    }
  }
}

void ReliableNetwork::drain_held(std::size_t q, std::size_t w) {
  // Consume the held arrivals that are now in order, one seq at a time.
  std::vector<std::uint64_t>& held = links_[q].held;
  for (std::size_t o = 0; o < held.size();) {
    const std::size_t len = entry_words(&held[o]);
    if ((held[o] & kHeldSeqMask) != links_[q].next) {
      o += len;
      continue;
    }
    consume(q, w, held[o], held.data() + o + 1, len - 1);
    held.erase(held.begin() + static_cast<std::ptrdiff_t>(o),
               held.begin() + static_cast<std::ptrdiff_t>(o + len));
    o = 0;
  }
}

void ReliableNetwork::consume(std::size_t q, std::size_t w, std::uint64_t ctl,
                              const std::uint64_t* payload,
                              std::size_t nwords) {
  // A payload is deposited in seq order into its virtual lane — the
  // record a clean sender would have written there — from the worker
  // owning the receiving node; the round's marker marks the link ready.
  if ((ctl & kUnitPayload) != 0)
    deposit_words(w, static_cast<EdgeSlot>(q), payload, nwords);
  if ((ctl & kUnitMarker) != 0) ++ready_links_[w].value;
  Link& l = links_[q];
  ++l.next;
  l.ack_due = true;
}

void ReliableNetwork::transmit_pass(Network& outer, bool close_round) {
  const std::int64_t now = outer.current_round();
  if (close_round) {
    for_nodes([&](NodeId v) {
      close_links(v);
      transmit_node(outer, v, now);
    });
  } else {
    for_listed_nodes(outer.active_nodes(), [&](NodeId v, std::size_t) {
      transmit_node(outer, v, now);
    });
  }
}

void ReliableNetwork::transmit_node(Network& outer, NodeId v,
                                    std::int64_t now) {
  const std::size_t begin = offsets_[v];
  const std::size_t end = offsets_[v + 1];
  std::int64_t earliest = kNever;
  // Due DATA units, in link order then seq order (deterministic
  // per-lane record order at every pool width).
  for (std::size_t q = begin; q != end; ++q) {
    Link& l = links_[q];
    if (l.base_seq == l.next_seq) continue;
    if (l.next_due <= now) {
      std::int64_t min_due = kNever;
      std::uint32_t seq = l.base_seq;
      for (std::size_t o = l.head; o < l.ring.size(); ++seq) {
        std::uint64_t* unit = &l.ring[o];
        auto due = static_cast<std::int64_t>(unit[0] & kUnitDueMask);
        if (due <= now) {
          due = send_data(outer, v, q, seq, unit, now);
          l.last_data_tx = now;
        }
        min_due = std::min(min_due, due);
        o += entry_words(unit);
      }
      l.next_due = min_due;
    }
    earliest = std::min(earliest, l.next_due);
  }
  // Standalone cumulative ACKs where no DATA frame carried one.
  for (std::size_t q = begin; q != end; ++q) {
    Link& l = links_[q];
    if (!l.ack_due) continue;
    l.ack_due = false;
    if (l.last_data_tx == now) continue;  // piggybacked
    std::uint64_t* frame = frame_buffer(frames_.ack_words());
    int bits = 0;
    const std::size_t nwords = frames_.ack(v, l.next, frame, &bits);
    outer.send_wire(v, q, frame, nwords, bits);
  }
  // Wake v on the outer network at its earliest retransmit deadline
  // (a stale or duplicate wake only costs an idle visit).
  if (earliest != kNever) outer.arm_at(v, earliest);
}

std::int64_t ReliableNetwork::send_data(Network& outer, NodeId v,
                                        std::size_t q, std::uint32_t seq,
                                        std::uint64_t* unit, std::int64_t now) {
  // seq, the piggybacked cumulative ack of the reverse direction (this
  // link's receive half), the marker flag, then the payload fields —
  // shifted out of the stored record straight onto the outer wire.
  const bool has_payload = (unit[0] & kUnitPayload) != 0;
  const std::uint64_t* payload = has_payload ? unit + 1 : nullptr;
  std::uint64_t* frame = frame_buffer(
      frames_.data_words_bound(has_payload ? record_words(payload) : 0));
  int bits = 0;
  const std::size_t nwords =
      frames_.data(v, seq, links_[q].next, (unit[0] & kUnitMarker) != 0,
                   payload, frame, &bits);
  outer.send_wire(v, q, frame, nwords, bits);
  const auto attempt = static_cast<std::uint8_t>(
      (unit[0] & kUnitAttemptMask) >> kUnitAttemptShift);
  const std::int64_t due = now + retransmit_gap(mirror_[q], seq, attempt);
  const std::uint64_t next_attempt = attempt < 255 ? attempt + 1 : 255;
  unit[0] = (unit[0] & ~(kUnitDueMask | kUnitAttemptMask)) |
            static_cast<std::uint64_t>(due) |
            (next_attempt << kUnitAttemptShift);
  return due;
}

void ReliableNetwork::deliver_and_flip() {
  // The out-arena already holds the completed round's payloads,
  // deposited in seq order as they were consumed. Flip with the old
  // round installed (the calendar drain keys off it), then advance.
  flip_buffers();
  ++round_;
  for (WorkerCounter& c : ready_links_) c.value = 0;
}

void ReliableNetwork::reset_for_reuse() {
  Network::reset_for_reuse();
  rng_streams_fresh_ = false;  // the next wrapped phase consumes them
  // Back to the fresh-construction state, keeping every ring's and
  // reorder buffer's capacity.
  for (Link& l : links_) {
    std::vector<std::uint64_t> ring = std::move(l.ring);
    std::vector<std::uint64_t> held = std::move(l.held);
    ring.clear();
    held.clear();
    l = Link{};
    l.ring = std::move(ring);
    l.held = std::move(held);
  }
  for (WorkerCounter& c : ready_links_) c.value = 0;
}

// --- ReliablePhase --------------------------------------------------------

namespace {

/// Runs one transport pass with its wall-clock accounted as retransmit
/// time and recorded as a span on the outer network's tracer.
template <typename F>
void timed_pass(Network& outer, const char* span, F&& pass) {
  const std::int64_t t0 = obs::monotonic_ns();
  pass();
  const std::int64_t t1 = obs::monotonic_ns();
  outer.account_retransmit_seconds(static_cast<double>(t1 - t0) * 1e-9);
  if (outer.tracer() != nullptr) outer.tracer()->record(0, span, t0, t1);
}

}  // namespace

ReliablePhase::ReliablePhase(protocol::Phase& inner) { wrap(inner); }

ReliablePhase::~ReliablePhase() = default;

void ReliablePhase::wrap(protocol::Phase& inner) {
  inner_ = &inner;
  name_ = std::string(inner.name()) + "+rel";
}

void ReliablePhase::publish(Network& net, protocol::PhaseContext& ctx) {
  // The wrapped phase's world is the virtual network, not the physical
  // one it was driven on.
  (void)net;
  inner_->publish(*vnet_, ctx);
}

void ReliablePhase::initialize(Network& outer) {
  inner_finished_ = false;
  if (vnet_ != nullptr &&
      &vnet_->weighted_graph() == &outer.weighted_graph() &&
      vnet_->config() == algo_config(outer)) {
    vnet_->reset_for_reuse();
  } else {
    vnet_ = std::make_unique<ReliableNetwork>(outer);
  }
  // Virtual round 0: the wrapped algorithm's initialize, captured. The
  // finished check mirrors the clean driver loop (checked after
  // initialize, before any flip) so a phase that is done at round 0
  // delivers nothing — exactly like the clean run.
  inner_->initialize(*vnet_);
  if (inner_->finished(*vnet_)) {
    inner_finished_ = true;
    return;
  }
  // First physical transmissions (round 0).
  timed_pass(outer, "rel:xmit",
             [&] { vnet_->transmit_pass(outer, /*close_round=*/true); });
}

void ReliablePhase::process_round(Network& outer) {
  timed_pass(outer, "rel:recv", [&] { vnet_->receive_pass(outer); });
  const bool advance = vnet_->virtual_round_complete();
  if (advance) {
    vnet_->deliver_and_flip();
    inner_->process_round(*vnet_);
    if (inner_->finished(*vnet_)) {
      // Whatever is still captured or in flight dies with the phase,
      // exactly as a clean run drops the final round's undelivered
      // out-arena records.
      inner_finished_ = true;
      return;
    }
  }
  timed_pass(outer, "rel:xmit",
             [&] { vnet_->transmit_pass(outer, /*close_round=*/advance); });
}

bool ReliablePhase::finished(const Network& outer) const {
  (void)outer;
  return inner_finished_;
}

}  // namespace arbods::resilience
