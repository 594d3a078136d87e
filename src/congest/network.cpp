#include "congest/network.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iostream>
#include <limits>
#include <thread>
#include <type_traits>
#include <utility>

#include "common/check.hpp"
#include "common/math_util.hpp"
#include "common/shrink.hpp"

namespace arbods {

using detail::lane_used;
using detail::maybe_shrink;

namespace {

// A lane header word: (epoch << 32) | used words (see detail::lane_used).
std::uint64_t lane_header(std::uint32_t epoch, std::uint64_t used) {
  return (std::uint64_t{epoch} << 32) | used;
}

// Largest broadcast slot in words: a record of more words takes the lane
// path. Bounds the slot storage when a config raises the message cap.
constexpr std::size_t kMaxSlotWords = 8;

// First 64-byte boundary at or after p.
std::uint64_t* align_to_line(std::uint64_t* p) {
  const std::uintptr_t a = reinterpret_cast<std::uintptr_t>(p);
  return reinterpret_cast<std::uint64_t*>((a + 63) & ~std::uintptr_t{63});
}

// Which worker slot the current thread accounts sends/statistics to.
// Worker threads set this for the duration of a run_index_chunks section;
// everywhere else it is 0, the calling thread's slot. Networks clamp the
// value to their own pool width (worker_slot below), so a Network driven
// from inside another Network's worker section — which inherits the outer
// worker's index — safely accounts to its own slot 0.
thread_local int tls_worker = 0;

// Pool width: config.threads, 0 = all hardware threads, clamped to n.
int derive_workers(const CongestConfig& config, NodeId n) {
  int workers = config.threads;
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers < 1) workers = 1;
  }
  if (n > 0 && workers > static_cast<int>(n)) workers = static_cast<int>(n);
  if (n == 0) workers = 1;
  return workers;
}

}  // namespace

int congest_message_cap(const CongestConfig& config, NodeId n) {
  if (config.max_message_bits_override > 0)
    return config.max_message_bits_override;
  return std::max(
      64, config.log_factor * ceil_log2(static_cast<std::uint64_t>(n) + 1));
}

void validate_config(const CongestConfig& config, NodeId n) {
  ARBODS_CHECK_MSG(config.threads >= 0 && config.threads <= kMaxThreads,
                   "threads must be in [0, " << kMaxThreads
                       << "] (0 = all hardware threads), got "
                       << config.threads);
  ARBODS_CHECK_MSG(config.log_factor >= 1 && config.log_factor <= 64,
                   "log_factor must be in [1, 64], got " << config.log_factor);
  ARBODS_CHECK_MSG(config.max_message_bits_override >= 0 &&
                       config.max_message_bits_override <= kMaxMessageBits,
                   "max_message_bits_override must be in [0, "
                       << kMaxMessageBits << "] (0 = derive), got "
                       << config.max_message_bits_override);
  const int cap = congest_message_cap(config, n);
  ARBODS_CHECK_MSG(cap <= kMaxMessageBits, "message cap of " << cap
                                               << " bits exceeds "
                                               << kMaxMessageBits);
  fault::validate_fault_spec(config.fault);
  ARBODS_CHECK_MSG(config.round_limit >= 0,
                   "round_limit must be >= 0 (0 = no extra cap), got "
                       << config.round_limit);
}

std::size_t InboxView::size() const {
  std::size_t count = 0;
  for (const_iterator it = begin(); it != end(); ++it) ++count;
  return count;
}

void Network::init_size_model() {
  const NodeId n = wg_->num_nodes();
  size_model_.id_bits = bit_width_for(n == 0 ? 1 : n - 1);
  size_model_.weight_bits = wg_->weight_bits();
  // Levels count (1+eps)-steps; 2 * log2(n * W) covers every algorithm here.
  size_model_.level_bits =
      std::min(31, 2 * (bit_width_for(n + 1) + size_model_.weight_bits));
  size_model_.real_bits = default_value_codec().bit_width();
  max_message_bits_ = congest_message_cap(config_, n);
  // Reliable-transport headroom: the adapter wraps every algorithm
  // record in a (tag, seq, ack, marker) frame, so the PHYSICAL cap grows
  // by exactly the frame's accounted width. The adapter's virtual
  // network is constructed with the flag off and enforces the original
  // cap on the algorithm, so the algorithm's observable world is
  // unchanged.
  if (config_.reliable_transport)
    max_message_bits_ += reliable_transport_header_bits(size_model_);
}

std::size_t Network::build_csr_topology() {
  const Graph& g = wg_->graph();
  const NodeId n = g.num_nodes();
  offsets_.resize(static_cast<std::size_t>(n) + 1);
  offsets_[0] = 0;
  for (NodeId v = 0; v < n; ++v) offsets_[v + 1] = offsets_[v] + g.degree(v);
  const std::size_t arcs = offsets_[n];
  ARBODS_CHECK_MSG(arcs < std::numeric_limits<EdgeSlot>::max(),
                   "graph too large for 32-bit edge slots");
  adjacency_ = arcs > 0 ? g.neighbors(0).data() - g.arc_begin(0) : nullptr;
  mirror_.resize(arcs);
  lane_receiver_.resize(arcs);
  // O(arcs) mirror build, no binary searches: sweeping v in ascending
  // order enumerates the in-arcs of every u in ascending source order,
  // which is exactly the order of u's (sorted) lane slots — so a per-node
  // cursor yields each arc's receiver-side rank directly.
  std::vector<EdgeSlot> cursor(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const auto nb = g.neighbors(v);
    for (std::size_t i = 0; i < nb.size(); ++i) {
      const NodeId u = nb[i];
      mirror_[offsets_[v] + i] =
          static_cast<EdgeSlot>(offsets_[u] + cursor[u]++);
    }
    for (std::size_t l = offsets_[v]; l < offsets_[v + 1]; ++l)
      lane_receiver_[l] = v;
  }
  return arcs;
}

Network::Network(const WeightedGraph& wg, CongestConfig config)
    : wg_(&wg), config_(config) {
  const NodeId n = wg.graph().num_nodes();
  init_size_model();
  const std::size_t arcs = build_csr_topology();

  // Uniform initial lane regions: the length word plus room for one
  // cap-sized record (header + one kind word + cap payload). Lanes that
  // overflow a round regrow individually at the next flip, so edges that
  // regularly carry more settle at their own size after one round.
  std::size_t base_words;
  if (config_.lane_capacity_words_hint > 0) {
    base_words = static_cast<std::size_t>(config_.lane_capacity_words_hint);
  } else {
    const std::size_t per_record =
        2 + (static_cast<std::size_t>(max_message_bits_) + 63) / 64;
    base_words = 1 + per_record;
  }
  lane_base_.resize(arcs + 1);
  for (std::size_t l = 0; l <= arcs; ++l) lane_base_[l] = l * base_words;
  arena_words_ = lane_base_[arcs];
  arena_a_ = std::make_unique_for_overwrite<std::uint64_t[]>(arena_words_);
  arena_b_ = std::make_unique_for_overwrite<std::uint64_t[]>(arena_words_);
  for (std::size_t l = 0; l < arcs; ++l) {
    arena_a_[lane_base_[l]] = 0;
    arena_b_[lane_base_[l]] = 0;
  }
  in_arena_ = &arena_a_;
  out_arena_ = &arena_b_;

  // Broadcast slots: one cap-sized record per node and buffer, like a
  // fresh lane region minus its header.
  slot_words_ = std::min<std::size_t>(
      2 + (static_cast<std::size_t>(max_message_bits_) + 63) / 64,
      kMaxSlotWords);
  const std::size_t slot_total = static_cast<std::size_t>(n) * slot_words_;
  slot_storage_ =
      std::make_unique_for_overwrite<std::uint64_t[]>(2 * slot_total + 16);
  in_slots_ = align_to_line(slot_storage_.get());
  out_slots_ = align_to_line(in_slots_ + slot_total);
  live_a_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
  live_b_.assign(live_a_.size(), 0);
  sent_.assign(live_a_.size(), 0);
  in_live_ = live_a_.data();
  out_live_ = live_b_.data();

  const int workers = derive_workers(config_, n);
  worker_stats_.assign(static_cast<std::size_t>(workers), WorkerStats{});
  worker_slots_.assign(static_cast<std::size_t>(workers), WorkerSlots{});
  touched_out_.assign(static_cast<std::size_t>(workers), {});
  touched_in_.assign(static_cast<std::size_t>(workers), {});
  spills_.assign(static_cast<std::size_t>(workers), WorkerSpill{});
  scratch_.assign(static_cast<std::size_t>(workers), {});
  calendars_.assign(static_cast<std::size_t>(workers), {});
  for (std::size_t w = 0; w < static_cast<std::size_t>(workers); ++w) {
    scratch_[w].reserve(std::max<std::size_t>(2 * base_words, 64));
    calendars_[w].ring.resize(16);
  }
  if (workers > 1) pool_ = std::make_unique<WorkerPool>(workers);
  if (config_.trace.enabled)
    tracer_ = std::make_unique<obs::TraceRecorder>(
        workers, config_.trace.ring_capacity);

  active_mark_.assign(n, 0);
  active_list_.reserve(64);

  node_rngs_.reserve(n);
  Rng base(config_.seed);
  for (NodeId v = 0; v < n; ++v) node_rngs_.push_back(base.split(v));
  rng_image_ = node_rngs_;
  rng_streams_fresh_ = true;
}

void Network::reseed_node_rngs() {
  if (rng_streams_fresh_) return;
  // Phase-boundary restore: copy the cached seed-derived images (built
  // once at construction) back over the consumed streams — a flat copy
  // of trivially copyable state instead of an O(n) splitmix
  // re-derivation per stream.
  static_assert(std::is_trivially_copyable_v<Rng>);
  std::copy(rng_image_.begin(), rng_image_.end(), node_rngs_.begin());
  rng_streams_fresh_ = true;
}

int Network::num_workers() const { return pool_ ? pool_->num_workers() : 1; }

Rng& Network::rng(NodeId v) {
  ARBODS_DCHECK(v < node_rngs_.size());
  return node_rngs_[v];
}

void Network::check_cap(int bits) const {
  if (config_.enforce_message_size) {
    ARBODS_CHECK_MSG(bits <= max_message_bits_,
                     "CONGEST violation: message of " << bits << " bits > cap "
                                                      << max_message_bits_);
  }
}

void Network::account_bits(int bits) {
  worker_stats_[worker_slot()].count_sends(1, bits);
}

std::size_t Network::worker_slot() const {
  const std::size_t w = static_cast<std::size_t>(tls_worker);
  return w < worker_stats_.size() ? w : 0;
}

bool Network::lane_spilled(std::size_t worker, EdgeSlot lane) const {
  const WorkerSpill& sp = spills_[worker];
  if (sp.recs.empty()) return false;  // the steady-state answer
  return sp.lane_marked[lane] != 0;
}

std::size_t Network::encode_into_scratch(std::size_t w, const Message& m,
                                         NodeId sender, int* bits) {
  std::vector<std::uint64_t>& scratch = scratch_[w];
  const std::size_t bound = wire_words_bound(m);
  if (scratch.size() < bound) scratch.resize(bound);
  const std::size_t need = wire_encode(m, sender, size_model_,
                                       config_.quantize_reals, scratch.data(),
                                       bits);
  check_cap(*bits);
  return need;
}

int Network::deposit_encoded(EdgeSlot lane, const Message& m, NodeId sender) {
  const std::size_t w = worker_slot();
  // wire_words_bound is O(1); the exact size and the accounted bits fall
  // out of the single encode pass below.
  const std::size_t bound = wire_words_bound(m);
  std::uint64_t* lane_words = out_arena_->get() + lane_base_[lane];
  const std::uint64_t len = lane_used(lane_words[0], out_epoch_);
  // Once a lane spills, later records must spill too or send order within
  // the lane would be lost.
  const bool spilled = lane_spilled(w, lane);
  const std::size_t cap = lane_base_[lane + 1] - lane_base_[lane] - 1;
  int bits = 0;
  if (!spilled && len + bound <= cap) {
    // Encode straight into the lane. The header is only committed after
    // the cap check, so an oversized message throws with no side effects
    // (words beyond the used length are never read).
    const std::size_t need = wire_encode(
        m, sender, size_model_, config_.quantize_reals, lane_words + 1 + len,
        &bits);
    check_cap(bits);
    if (len == 0) touched_out_[w].push_back(lane);
    lane_words[0] = lane_header(out_epoch_, len + need);
  } else {
    // Tight or spilled lane: encode into the worker scratch first, check,
    // then route through the ordinary word-deposit path.
    const std::size_t need = encode_into_scratch(w, m, sender, &bits);
    deposit_words(w, lane, scratch_[w].data(), need);
  }
  return bits;
}

void Network::deposit_words(std::size_t w, EdgeSlot lane,
                            const std::uint64_t* words, std::size_t nwords) {
  std::uint64_t* lane_words = out_arena_->get() + lane_base_[lane];
  const std::uint64_t len = lane_used(lane_words[0], out_epoch_);
  const bool spilled = lane_spilled(w, lane);
  if (len == 0 && !spilled) touched_out_[w].push_back(lane);
  const std::size_t cap = lane_base_[lane + 1] - lane_base_[lane] - 1;
  if (!spilled && len + nwords <= cap) {
    std::copy_n(words, nwords, lane_words + 1 + len);
    lane_words[0] = lane_header(out_epoch_, len + nwords);
  } else {
    WorkerSpill& sp = spills_[w];
    if (sp.lane_marked.empty()) sp.lane_marked.assign(lane_receiver_.size(), 0);
    sp.lane_marked[lane] = 1;
    const std::size_t b = sp.words.size();
    sp.words.insert(sp.words.end(), words, words + nwords);
    sp.recs.push_back({lane, static_cast<std::uint32_t>(b),
                       static_cast<std::uint32_t>(b + nwords)});
  }
}

std::size_t Network::resolve_arc(NodeId from, NodeId to) const {
  const auto nb = graph().neighbors(from);
  const auto it = std::lower_bound(nb.begin(), nb.end(), to);
  ARBODS_CHECK_MSG(it != nb.end() && *it == to,
                   "send along non-edge (" << from << "," << to << ")");
  return offsets_[from] + static_cast<std::size_t>(it - nb.begin());
}

bool Network::mark_first_send(std::size_t w, NodeId v, bool slot) {
  // v's bits have one writer (v's own sends), but a word is shared with 63
  // other nodes that may run on other workers.
  const std::uint64_t bit = std::uint64_t{1} << (v & 63u);
  std::atomic_ref<std::uint64_t> sent(sent_[v >> 6]);
  if (sent.load(std::memory_order_relaxed) & bit) return false;
  sent.fetch_or(bit, std::memory_order_relaxed);
  if (slot)
    std::atomic_ref<std::uint64_t>(out_live_[v >> 6])
        .fetch_or(bit, std::memory_order_relaxed);
  worker_slots_[w].marked = true;
  return true;
}

Network::SlotTally Network::drain_slot_tallies() {
  SlotTally sum;
  for (WorkerSlots& ws : worker_slots_) {
    sum.slotted += ws.slotted;
    sum.marked |= ws.marked;
    ws = WorkerSlots{};
  }
  return sum;
}

void Network::send(NodeId from, NodeId to, const Message& m) {
  account_bits(deposit_encoded(mirror_[resolve_arc(from, to)], m, from));
  mark_first_send(worker_slot(), from, /*slot=*/false);
}

void Network::broadcast(NodeId from, const Message& m) {
  const std::size_t begin = offsets_[from];
  const std::size_t end = offsets_[from + 1];
  if (begin == end) return;
  // Encode once into the worker's scratch — the CONGEST accounting falls
  // out of the same pass; the statistics for the whole fan-out are folded
  // into one slot update. The cap check runs before anything is written,
  // so an oversized broadcast still throws without side effects. The
  // record then goes to `from`'s slot if this is its first send of the
  // round, else it is copied into every lane.
  const std::size_t w = worker_slot();
  int bits = 0;
  const std::size_t need = encode_into_scratch(w, m, from, &bits);
  if (need <= slot_words_ && mark_first_send(w, from, /*slot=*/true)) {
    std::copy_n(scratch_[w].data(), need,
                out_slots_ + static_cast<std::size_t>(from) * slot_words_);
    ++worker_slots_[w].slotted;
  } else {
    mark_first_send(w, from, /*slot=*/false);
    for (std::size_t arc = begin; arc != end; ++arc)
      deposit_words(w, mirror_[arc], scratch_[w].data(), need);
  }
  worker_stats_[w].count_sends(static_cast<std::int64_t>(end - begin), bits);
}

void Network::send_wire(NodeId from, std::size_t arc,
                        const std::uint64_t* words, std::size_t nwords,
                        int bits) {
  const std::size_t w = worker_slot();
  check_cap(bits);
  deposit_words(w, mirror_[arc], words, nwords);
  worker_stats_[w].count_sends(1, bits);
  mark_first_send(w, from, /*slot=*/false);
}

InboxView Network::inbox(NodeId v) const {
  ARBODS_DCHECK(static_cast<std::size_t>(v) + 1 < offsets_.size());
  InboxView::Slots slots;
  if (in_slotted_ > 0) slots = {in_live_, in_slots_, slot_words_};
  return InboxView(in_arena_->get(), lane_base_.data(), in_epoch_, offsets_[v],
                   offsets_[v + 1], adjacency_ + offsets_[v], slots,
                   &size_model_, config_.quantize_reals);
}

void Network::prefetch_slots(NodeId v) const {
  const std::size_t end = std::min(offsets_[v + 1], offsets_[v] + 8);
  for (std::size_t arc = offsets_[v]; arc < end; ++arc) {
    const NodeId u = adjacency_[arc];
    if (detail::node_bit(in_live_, u))
      __builtin_prefetch(in_slots_ + std::size_t{u} * slot_words_);
  }
}

void Network::arm_at(NodeId v, std::int64_t round) {
  ARBODS_DCHECK(v < active_mark_.size());
  ARBODS_CHECK_MSG(round > round_,
                   "arm_at(" << v << ", " << round << ") is not in the future"
                             << " (current round " << round_ << ")");
  arm_into(calendars_[worker_slot()], v, round);
}

void Network::arm_into(WorkerCalendar& cal, NodeId v, std::int64_t round) {
  for (;;) {
    CalendarBucket& bucket =
        cal.ring[static_cast<std::size_t>(round) & (cal.ring.size() - 1)];
    if (bucket.round == round) {
      bucket.nodes.push_back(v);
      return;
    }
    if (bucket.round <= round_) {  // empty or already drained: recycle
      bucket.round = round;
      bucket.nodes.clear();
      bucket.nodes.push_back(v);
      return;
    }
    // Collision with a different live round: double the ring and rehash
    // the live buckets (amortized; the ring settles at the largest delay).
    std::vector<CalendarBucket> bigger(cal.ring.size() * 2);
    for (CalendarBucket& b : cal.ring) {
      if (b.round <= round_) continue;
      bigger[static_cast<std::size_t>(b.round) & (bigger.size() - 1)] =
          std::move(b);
    }
    cal.ring = std::move(bigger);
  }
}

std::uint32_t Network::fresh_epoch() {
  if (epoch_ == std::numeric_limits<std::uint32_t>::max()) restart_epochs();
  return ++epoch_;
}

void Network::restart_epochs() {
  std::uint64_t* in_words = in_arena_->get();
  std::uint64_t* out_words = out_arena_->get();
  for (std::size_t lane = 0; lane < lane_receiver_.size(); ++lane) {
    std::uint64_t& in_header = in_words[lane_base_[lane]];
    in_header = lane_header(1, lane_used(in_header, in_epoch_));
    out_words[lane_base_[lane]] = 0;
  }
  in_epoch_ = 1;
  epoch_ = 1;
}

void Network::flip_buffers() {
  // The in-arena holds last round's (already consumed) messages. Nothing
  // is cleared: promoting the out-arena carries its epoch over, and the
  // demoted arena gets a fresh epoch, so every header it still holds reads
  // as empty.
  for (auto& list : touched_in_) {
    touched_highwater_ = std::max(touched_highwater_, list.size());
    list.clear();
  }
  std::swap(in_arena_, out_arena_);
  std::swap(touched_in_, touched_out_);
  in_epoch_ = out_epoch_;
  out_epoch_ = fresh_epoch();
  // Slots and live bitmaps swap the same way; a bitmap is emptied only if
  // the round that used it set a bit.
  const SlotTally tally = drain_slot_tallies();
  std::swap(in_slots_, out_slots_);
  std::swap(in_live_, out_live_);
  if (in_slotted_ > 0) std::fill_n(out_live_, live_a_.size(), 0);
  if (tally.marked) std::fill(sent_.begin(), sent_.end(), 0);
  in_slotted_ = tally.slotted;
  // A timer bucket due in the round that just ended survives to the flip
  // only if the algorithm never consulted the active set this round (a
  // for_nodes-only stage). Carry its arms into the next round instead of
  // dropping them when the slot is eventually recycled: an arm_at wake is
  // deferred until the first round the algorithm looks, never lost.
  for (WorkerCalendar& cal : calendars_) {
    CalendarBucket& due =
        cal.ring[static_cast<std::size_t>(round_) & (cal.ring.size() - 1)];
    if (due.round != round_ || due.nodes.empty()) continue;
    carry_nodes_.swap(due.nodes);  // arm_into may resize the ring
    due.round = -1;
    due.nodes.clear();
    for (const NodeId v : carry_nodes_) arm_into(cal, v, round_ + 1);
    carry_nodes_.clear();
  }
  bool any_spill = false;
  for (const WorkerSpill& sp : spills_) any_spill |= !sp.recs.empty();
  if (any_spill) merge_spills_and_grow();
  // The active set is rebuilt lazily on first use within the round;
  // algorithms that never touch the active-set API pay nothing here.
  active_dirty_ = true;
}

void Network::merge_spills_and_grow() {
  // Records that overflowed their lane last round, now sitting on the
  // in-side after the swap. Each lane has a single writer, so all of a
  // lane's chunks live in one worker's buffer in send order; a stable sort
  // groups lanes without reordering chunks.
  struct Chunk {
    EdgeSlot lane;
    const std::uint64_t* src;
    std::size_t nwords;
  };
  std::vector<Chunk> chunks;
  for (const WorkerSpill& sp : spills_)
    for (const SpillRec& r : sp.recs)
      chunks.push_back({r.lane, sp.words.data() + r.begin,
                        static_cast<std::size_t>(r.end - r.begin)});
  std::stable_sort(chunks.begin(), chunks.end(),
                   [](const Chunk& a, const Chunk& b) { return a.lane < b.lane; });

  // New layout: overflowed lanes at least double so repeated traffic on a
  // chatty edge regrows O(log) times, then never again.
  const std::size_t arcs = lane_receiver_.size();
  std::vector<std::uint64_t> new_base(arcs + 1);
  new_base[0] = 0;
  const std::uint64_t* old_in = in_arena_->get();
  std::size_t ci = 0;
  for (std::size_t lane = 0; lane < arcs; ++lane) {
    std::size_t cap = lane_base_[lane + 1] - lane_base_[lane];
    std::size_t extra = 0;
    for (std::size_t j = ci; j < chunks.size() && chunks[j].lane == lane; ++j)
      extra += chunks[j].nwords;
    if (extra > 0) {
      const std::size_t needed =
          1 + lane_used(old_in[lane_base_[lane]], in_epoch_) + extra;
      cap = std::max(2 * cap, std::bit_ceil(needed));
      ARBODS_CHECK_MSG(cap <= std::numeric_limits<std::uint32_t>::max(),
                       "lane " << lane << " outgrew a 32-bit used length");
    }
    while (ci < chunks.size() && chunks[ci].lane == lane) ++ci;
    new_base[lane + 1] = new_base[lane] + cap;
  }

  // Rebuild both arenas under the new layout: zero every header, copy the
  // in-side's resident records under a header stamped with the in-epoch,
  // then append each lane's spill chunks in order. The out-side holds
  // nothing current at this point (the flip just gave it a fresh epoch),
  // so its lanes only need zero headers.
  const std::size_t new_words = new_base[arcs];
  auto new_in = std::make_unique_for_overwrite<std::uint64_t[]>(new_words);
  auto new_out = std::make_unique_for_overwrite<std::uint64_t[]>(new_words);
  for (std::size_t lane = 0; lane < arcs; ++lane) {
    new_in[new_base[lane]] = 0;
    new_out[new_base[lane]] = 0;
  }
  for (const auto& list : touched_in_) {
    for (const EdgeSlot lane : list) {
      const std::uint64_t used = lane_used(old_in[lane_base_[lane]], in_epoch_);
      new_in[new_base[lane]] = lane_header(in_epoch_, used);
      std::copy_n(old_in + lane_base_[lane] + 1, used,
                  new_in.get() + new_base[lane] + 1);
    }
  }
  for (const Chunk& c : chunks) {
    std::uint64_t& header = new_in[new_base[c.lane]];
    const std::uint64_t used = lane_used(header, in_epoch_);
    std::copy_n(c.src, c.nwords, new_in.get() + new_base[c.lane] + 1 + used);
    header = lane_header(in_epoch_, used + c.nwords);
  }
  lane_base_ = std::move(new_base);
  arena_words_ = new_words;
  *in_arena_ = std::move(new_in);
  *out_arena_ = std::move(new_out);
  for (WorkerSpill& sp : spills_) {
    for (const SpillRec& r : sp.recs) sp.lane_marked[r.lane] = 0;
    sp.words.clear();
    sp.recs.clear();
  }
}

void Network::rebuild_active_set() {
  const std::int64_t span_t0 = tracer_ != nullptr ? obs::monotonic_ns() : 0;
  active_dirty_ = false;
  ++active_epoch_;
  const std::uint64_t epoch = active_epoch_;
  active_list_.clear();
  for (const auto& list : touched_in_) {
    for (const EdgeSlot lane : list) {
      const NodeId v = lane_receiver_[lane];
      if (active_mark_[v] != epoch) {
        active_mark_[v] = epoch;
        active_list_.push_back(v);
      }
    }
  }
  // A live slot delivers to every neighbour of its sender.
  if (in_slotted_ > 0) {
    const Graph& g = wg_->graph();
    for (std::size_t i = 0; i < live_a_.size(); ++i) {
      for (std::uint64_t bits = in_live_[i]; bits != 0; bits &= bits - 1) {
        const NodeId u = static_cast<NodeId>(64 * i + std::countr_zero(bits));
        for (const NodeId v : g.neighbors(u)) {
          if (active_mark_[v] != epoch) {
            active_mark_[v] = epoch;
            active_list_.push_back(v);
          }
        }
      }
    }
  }
  // Drain every worker's timer bucket that is due for the current round
  // (the lazy rebuild runs from inside the round, after the advance).
  const std::int64_t due = round_;
  for (WorkerCalendar& cal : calendars_) {
    CalendarBucket& bucket =
        cal.ring[static_cast<std::size_t>(due) & (cal.ring.size() - 1)];
    if (bucket.round != due) continue;
    armed_highwater_ = std::max(armed_highwater_, bucket.nodes.size());
    for (const NodeId v : bucket.nodes) {
      if (active_mark_[v] != epoch) {
        active_mark_[v] = epoch;
        active_list_.push_back(v);
      }
    }
    bucket.round = -1;
    bucket.nodes.clear();
  }
  // Keep the worklist in ascending node order so chunked iteration touches
  // per-node arrays (and the lane arena) as sequentially as a 0..n sweep —
  // the list arrives in delivery order, which is cache-hostile when dense.
  // Dense rounds re-extract from the marks with one sequential pass;
  // sparse rounds sort the short list. Either way the order (not just the
  // contents) is now independent of the pool width.
  const std::size_t n = active_mark_.size();
  if (active_list_.size() >= n / 8) {
    active_scratch_.clear();
    for (std::size_t v = 0; v < n; ++v)
      if (active_mark_[v] == epoch)
        active_scratch_.push_back(static_cast<NodeId>(v));
    active_list_.swap(active_scratch_);
  } else {
    std::sort(active_list_.begin(), active_list_.end());
  }
  active_highwater_ = std::max(active_highwater_, active_list_.size());
  if (tracer_ != nullptr)
    tracer_->record(0, "active:rebuild", span_t0, obs::monotonic_ns(),
                    static_cast<std::int64_t>(active_list_.size()));
}

void Network::clear_all_lanes() {
  // Fresh epochs for both arenas empty every lane at once.
  for (auto& list : touched_in_) list.clear();
  for (auto& list : touched_out_) list.clear();
  in_epoch_ = fresh_epoch();
  out_epoch_ = fresh_epoch();
  const SlotTally tally = drain_slot_tallies();
  if (tally.slotted > 0) std::fill_n(out_live_, live_a_.size(), 0);
  if (tally.marked) std::fill(sent_.begin(), sent_.end(), 0);
  if (in_slotted_ > 0) std::fill_n(in_live_, live_a_.size(), 0);
  in_slotted_ = 0;
  for (WorkerSpill& sp : spills_) {
    for (const SpillRec& r : sp.recs) sp.lane_marked[r.lane] = 0;
    sp.words.clear();
    sp.recs.clear();
  }
  for (WorkerCalendar& cal : calendars_) {
    for (CalendarBucket& bucket : cal.ring) {
      bucket.round = -1;
      bucket.nodes.clear();
    }
  }
  active_list_.clear();
  active_dirty_ = false;
}

void Network::shrink_scratch() {
  for (auto& list : touched_in_) maybe_shrink(list, touched_highwater_);
  for (auto& list : touched_out_) maybe_shrink(list, touched_highwater_);
  for (WorkerCalendar& cal : calendars_)
    for (CalendarBucket& bucket : cal.ring)
      maybe_shrink(bucket.nodes, armed_highwater_);
  maybe_shrink(active_list_, active_highwater_);
  maybe_shrink(active_scratch_, active_highwater_);
  for (WorkerSpill& sp : spills_) {
    // A run that ends right after a spilling round leaves records that were
    // never merged (and never delivered); drop them before releasing the
    // mark array they index, which costs O(arcs) bytes per worker that
    // spilled this run and must not outlive the run.
    sp.words.clear();
    sp.recs.clear();
    maybe_shrink(sp.words, 0);
    maybe_shrink(sp.recs, 0);
    std::vector<std::uint8_t>().swap(sp.lane_marked);
  }
}

obs::RoundRecord Network::reduce_stats(PhaseStats& phase) {
  obs::RoundRecord rec = std::exchange(open_round_, {});
  for (WorkerStats& slot : worker_stats_) {
    rec += slot;
    slot = WorkerStats{};
  }
  phase += rec;
  stats_ += rec;
  // int64 gives headroom of ~9e18 bits; a wrap would show up as a sign
  // flip, which we refuse to silently report.
  ARBODS_CHECK_MSG(stats_.messages >= 0 && stats_.total_bits >= 0,
                   "RunStats counter overflow");
  return rec;
}

void Network::run_index_chunks(
    std::size_t count, FunctionRef<void(std::size_t, std::size_t)> chunk_fn,
    const char* span_name) {
  if (!pool_) {
    obs::ScopedSpan span(tracer_.get(), 0, span_name,
                         static_cast<std::int64_t>(count));
    chunk_fn(0, count);
    return;
  }
  const int workers = pool_->num_workers();
  auto worker_fn = [&](int w) {
    tls_worker = w;
    const std::size_t begin = count * static_cast<std::size_t>(w) /
                              static_cast<std::size_t>(workers);
    const std::size_t end = count * (static_cast<std::size_t>(w) + 1) /
                            static_cast<std::size_t>(workers);
    {
      obs::ScopedSpan span(tracer_.get(), static_cast<std::size_t>(w),
                           span_name,
                           static_cast<std::int64_t>(end - begin));
      chunk_fn(begin, end);
    }
    tls_worker = 0;
  };
  pool_->run(worker_fn);
}

void Network::reset_for_reuse() {
  stats_ = RunStats{};
  for (WorkerStats& slot : worker_stats_) slot = WorkerStats{};
  open_round_ = {};
  round_ = 0;
  touched_highwater_ = 0;
  armed_highwater_ = 0;
  active_highwater_ = 0;
  // Drop the previous run's spans and flight records, so a post-run
  // snapshot covers exactly the next run.
  if (tracer_ != nullptr) tracer_->clear();
  flight_next_ = 0;
  flight_count_ = 0;
  clear_all_lanes();
  reseed_node_rngs();
}

const PhaseStats& Network::run_phase(DistributedAlgorithm& algo,
                                     std::string_view phase_name,
                                     std::int64_t max_rounds) {
  // Phase-local reset: a phase begins exactly where a freshly constructed
  // Network would (round 0, no pending messages or timers, fresh RNG
  // streams), so decomposing a driver that ran one Network per phase into
  // run_phase calls on one reused Network is bit-identical. Undelivered
  // messages from the previous phase are dropped, matching the old
  // drivers' per-phase Networks; statistics counted them at send time.
  round_ = 0;
  // Discard the open round that a mid-round exception left unreduced
  // (e.g. a solver CheckError before a `<solver>+repair` retry): which
  // nodes ran before the throw depends on worker scheduling, so folding
  // the partial round in would make this phase's counters vary with the
  // pool width. Every completed round was already folded into stats_;
  // only the aborted round's partial accounting is dropped. A no-op
  // after a phase that finished normally.
  for (WorkerStats& slot : worker_stats_) slot = WorkerStats{};
  open_round_ = {};
  clear_all_lanes();
  reseed_node_rngs();
  rng_streams_fresh_ = false;  // this phase now owns (and advances) them
  // The config's hard cap composes with the caller's budget (smaller wins)
  // so a fault-starved solver terminates via hit_round_limit.
  if (config_.round_limit > 0)
    max_rounds = std::min(max_rounds, config_.round_limit);

  // The open phase: each closed round folds into it and into stats_ at
  // once, so a phase that throws leaves its completed rounds in stats()
  // but appends no entry.
  PhaseStats phase;
  phase.name.assign(phase_name);
  // Flight recorder: (re)size the ring once per phase — the per-round
  // writes below are plain ring stores, preserving the zero-allocation
  // guarantee of a steady-state round.
  const std::size_t flight_cap =
      static_cast<std::size_t>(std::max(config_.trace.flight_rounds, 0));
  if (flight_ring_.size() != flight_cap) flight_ring_.assign(flight_cap, {});
  flight_next_ = 0;
  flight_count_ = 0;
  // Interned once per phase (alloc-safe: before the round loop), so the
  // per-round spans can store a stable const char*.
  const char* phase_span = nullptr;
  if (tracer_ != nullptr) {
    std::string label = "phase:";
    label += phase_name;
    phase_span = tracer_->intern(label);
  }
  const std::int64_t phase_t0 = obs::monotonic_ns();

  {
    const std::int64_t t0 = phase_t0;
    algo.initialize(*this);
    const std::int64_t t1 = obs::monotonic_ns();
    open_round_.timing.compute_seconds += static_cast<double>(t1 - t0) * 1e-9;
    if (tracer_ != nullptr) tracer_->record(0, "initialize", t0, t1);
  }
  reduce_stats(phase);
  while (!algo.finished(*this)) {
    if (phase.rounds >= max_rounds) {
      phase.hit_round_limit = true;
      stats_.hit_round_limit = true;
      break;
    }
    {
      const std::int64_t t0 = obs::monotonic_ns();
      flip_buffers();
      const std::int64_t t1 = obs::monotonic_ns();
      open_round_.timing.flip_seconds += static_cast<double>(t1 - t0) * 1e-9;
      if (tracer_ != nullptr) tracer_->record(0, "flip", t0, t1);
    }
    ++round_;
    {
      const std::int64_t t0 = obs::monotonic_ns();
      algo.process_round(*this);
      const std::int64_t t1 = obs::monotonic_ns();
      open_round_.timing.compute_seconds +=
          static_cast<double>(t1 - t0) * 1e-9;
      if (tracer_ != nullptr) tracer_->record(0, "round", t0, t1, round_);
    }
    const obs::RoundRecord rec = reduce_stats(phase);
    // A round counts once its record is folded: a round that throws is
    // left out of `rounds` just as its partial accounting is.
    ++stats_.rounds;
    ++phase.rounds;
    if (flight_cap > 0) {
      obs::FlightRecord& line = flight_ring_[flight_next_];
      static_cast<obs::RoundRecord&>(line) = rec;
      line.round = round_;
      // Never force a rebuild here: it would drain due timer buckets the
      // next flip should carry forward (behavior change). -1 = the
      // algorithm did not consult the active set this round.
      line.active = active_dirty_
                        ? -1
                        : static_cast<std::int64_t>(active_list_.size());
      line.spilled = 0;
      for (const WorkerSpill& sp : spills_)  // awaiting the next merge
        line.spilled += static_cast<std::int64_t>(sp.recs.size());
      line.slotted = 0;
      for (const WorkerSlots& ws : worker_slots_) line.slotted += ws.slotted;
      flight_next_ = (flight_next_ + 1) % flight_cap;
      if (flight_count_ < flight_cap) ++flight_count_;
    }
  }
  shrink_scratch();
  if (tracer_ != nullptr)
    tracer_->record(0, phase_span, phase_t0, obs::monotonic_ns());
  if (phase.hit_round_limit && flight_count_ > 0) {
    std::string why = "phase '";
    why += phase_name;
    why += "' hit its round limit";
    dump_flight_recorder(std::cerr, why);
  }
  stats_.phases.push_back(std::move(phase));
  return stats_.phases.back();
}

std::vector<obs::FlightRecord> Network::flight_records() const {
  std::vector<obs::FlightRecord> out;
  if (flight_count_ == 0) return out;
  out.reserve(flight_count_);
  const std::size_t cap = flight_ring_.size();
  const std::size_t start = (flight_next_ + cap - flight_count_) % cap;
  for (std::size_t i = 0; i < flight_count_; ++i)
    out.push_back(flight_ring_[(start + i) % cap]);
  return out;
}

void Network::dump_flight_recorder(std::ostream& os,
                                   std::string_view why) const {
  obs::dump_flight_records(os, why, flight_records());
}

RunStats Network::run(DistributedAlgorithm& algo, std::int64_t max_rounds) {
  reset_for_reuse();
  run_phase(algo, "main", max_rounds);
  return stats_;
}

}  // namespace arbods
