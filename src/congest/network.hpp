// Round-synchronous CONGEST network simulator.
//
// Execution model (matching Section 2 of the paper):
//   * The communication graph equals the input graph.
//   * Time advances in synchronous rounds. In every round each node may
//     send one message per incident edge (possibly different per edge);
//     messages are delivered at the start of the next round.
//   * Message width is capped at O(log n) bits: `max_message_bits`
//     (default 4 * ceil(log2(n+1)), at least 64). Oversized sends throw.
//   * Initially a node knows only: its id, its weight, its neighbor count,
//     and the globally known parameters the algorithm is promised
//     (Delta, alpha, n, eps) — what an algorithm reads is by discipline
//     restricted to the NodeView API plus its own per-node state.
//
// Delivery internals (the scaling hot path):
//   * Messages live bit-packed in two flat std::uint64_t arenas (double
//     buffering; see message.hpp for the record layout). Each directed
//     edge owns a fixed word region (a "lane") in both arenas, indexed by
//     CSR edge offsets: the lane for a message u->v sits inside v's
//     contiguous CSR range, so inbox(v) is a pointer walk over v's region
//     and messages arrive ordered by sender id. A precomputed mirror
//     permutation maps each outgoing arc to the receiver-side lane, so a
//     send encodes straight into its destination region — no per-message
//     heap object exists anywhere on the path, and a steady-state round
//     performs zero allocations.
//   * A lane that outgrows its region in one round spills to a per-worker
//     side buffer; the next flip merges the spill back and permanently
//     doubles that lane's region (amortized re-layout), so chatty edges
//     stop allocating after warm-up too.
//   * Each directed edge has exactly one writer (its tail), so sends from
//     distinct nodes never race: per-round work is partitioned across a
//     worker pool (`CongestConfig::threads`) with no locks on the delivery
//     path. Per-worker statistics slots and per-node RNG streams keep runs
//     bit-identical regardless of thread count.
//   * No lane is ever cleared. A lane's header word carries a round stamp,
//     (epoch << 32) | used words, and each arena has a current epoch; a
//     header stamped with any other epoch reads as an empty lane. The flip
//     swaps the arenas and hands the out-arena a fresh epoch, so it costs
//     O(workers), not O(delivered messages), and reset_for_reuse and a
//     phase boundary empty both arenas the same way. The epoch counter is
//     monotonic per Network and survives resets; when its 32 bits run out
//     it restarts at 1, re-stamping the live in-arena headers and zeroing
//     the rest in place (one O(m) pass per 2^32 epochs, no allocation).
//   * Broadcast slots. When a node's first send of a round is a broadcast,
//     the plain Network encodes the record once into the node's own slot
//     (room for one cap-sized record, double-buffered like the arenas)
//     and sets the node's bit in a live-slot bitmap, instead of copying
//     it into deg(v) receiver lanes: one sequential write per broadcaster
//     instead of deg(v) random read-modify-writes in the arena. inbox(v)
//     yields, for each lane, the sender's slot record first when the
//     sender's bit is set, then the lane's own records. The order is exact
//     because a slot only ever holds a node's first send of the round:
//     anything it sends later (a directed send, a second broadcast) takes
//     the lane path and lands behind it. The lane path also takes a
//     broadcast that follows a send and a record larger than a slot. A
//     per-node sent bit tells the first send apart; both bitmaps are set
//     with relaxed atomic fetch_or, as 64 neighbouring ids share a word
//     and may run on different workers. The flip swaps slots and live
//     bitmaps and zeroes a bitmap only if its round set a bit. The fault
//     and reliable decorators override send/broadcast per arc (each copy
//     needs its own fault draws or transport unit), so they never write a
//     slot, and an inbox of a round in which no slot was written skips
//     the live check entirely.
//   * The simulator additionally maintains an *active set*: the nodes that
//     received at least one message this round plus the nodes that called
//     arm() last round (a live slot activates all its sender's
//     neighbours). Event-driven algorithms route their loops through
//     for_active_nodes and pay O(active + delivered) per round instead of
//     O(n) — on instances that converge region-by-region most rounds touch
//     a small and shrinking worklist.
//
// A DistributedAlgorithm owns all per-node state (struct-of-vectors) and is
// driven by Network::run(). This keeps the hot loop virtual-call-free per
// node and allocation-free per round, while the NodeView/send API preserves
// the locality discipline. Algorithms opt into the worker pool by routing
// their per-node loops through Network::for_nodes / for_active_nodes; the
// code for node v must then touch only v's own slots of the algorithm's
// per-node arrays (and must not use std::vector<bool>, whose packed bits
// are not per-element thread-safe).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/check.hpp"
#include "common/function_ref.hpp"
#include "common/random.hpp"
#include "common/types.hpp"
#include "congest/message.hpp"
#include "congest/worker_pool.hpp"
#include "fault/fault_spec.hpp"
#include "graph/weighted_graph.hpp"
#include "obs/trace.hpp"

namespace arbods {

struct CongestConfig {
  /// Message cap = max(64, log_factor * ceil(log2(n+1))) bits, unless
  /// explicitly overridden by max_message_bits_override.
  int log_factor = 4;
  int max_message_bits_override = 0;  // 0 = derive from log_factor
  /// Enforce the cap (disable only for diagnostics).
  bool enforce_message_size = true;
  /// Quantize kReal fields through the fixed-point codec at send time.
  bool quantize_reals = true;
  /// Seed for all per-node randomness.
  std::uint64_t seed = 0xa5a5a5a5ULL;
  /// Worker-pool width for for_nodes/for_active_nodes. 1 = serial
  /// (default); 0 = std::thread::hardware_concurrency(). Results are
  /// bit-identical for every value.
  int threads = 1;
  /// Initial per-lane arena region in 64-bit words (including the length
  /// word). 0 = derive from the message cap: the length word plus room
  /// for one cap-sized record; lanes that carry more in a round spill
  /// once and regrow individually. Tests set a tiny value to exercise the
  /// spill/regrow path.
  int lane_capacity_words_hint = 0;
  /// Adversarial fault model applied to every message and node. Honored
  /// by fault::make_network, which wraps the simulator in a
  /// fault::FaultyNetwork when the spec is enabled(); constructing a
  /// Network directly ignores it. A default (inert) spec costs nothing.
  fault::FaultSpec fault{};
  /// Hard per-phase round cap applied on top of the caller's max_rounds
  /// (the effective limit is the smaller of the two); 0 = no extra cap.
  /// Faulty runs set this so a solver starved of messages (e.g. under
  /// drop-probability 1) terminates via PhaseStats::hit_round_limit
  /// instead of spinning out the default million-round budget.
  std::int64_t round_limit = 0;
  /// Run every phase through the reliable-delivery adapter
  /// (resilience::ReliablePhase): exactly-once, sender-ordered delivery
  /// over drop/duplicate/reorder/delay faults. Honored by ProtocolRunner;
  /// the Network itself only grants the transport-frame cap headroom
  /// (reliable_transport_header_bits on top of congest_message_cap) —
  /// the wrapped algorithm still sees exactly the original cap.
  bool reliable_transport = false;
  /// Observability: span tracing + flight recorder (obs/trace.hpp). The
  /// Network a run is driven on owns the recorder, so one run produces
  /// one trace. Default-off is free on the hot path, and enabling it
  /// cannot change results — the timing breakdown is excluded from every
  /// stats comparison.
  obs::TraceOptions trace{};

  friend bool operator==(const CongestConfig&, const CongestConfig&) = default;
};

/// The per-message bit cap a Network with this config enforces on an
/// n-node instance. Shared with tests/oracles so they assert the exact
/// number the simulator uses.
int congest_message_cap(const CongestConfig& config, NodeId n);

/// Widest worker pool a config may ask for.
inline constexpr int kMaxThreads = 4096;
/// Largest message cap (bits) a config may derive or override: every
/// lane region reserves room for one cap-sized record.
inline constexpr int kMaxMessageBits = 1 << 16;

/// Throws CheckError naming the first field of `config` that is out of
/// range for an n-node instance: threads in [0, kMaxThreads], log_factor
/// in [1, 64], the message-cap override and the derived cap within
/// kMaxMessageBits, every fault probability in [0, 1] (plus the delay
/// and kill-round bounds), and round_limit >= 0. Entry points that take
/// a config from a user (the CLI, the scenario runner) call it before
/// building a Network.
void validate_config(const CongestConfig& config, NodeId n);

/// One named phase's share of a run: every run_phase() call appends one
/// entry to RunStats::phases, so composed protocols get a per-phase
/// rounds/messages/bits breakdown for free. Its counters and timing are
/// the fold of the phase's round records (obs::RoundRecord), and the
/// run's are the fold of the same records, so the sum over phases equals
/// the whole-run totals by construction (tested for every registry
/// solver). The timing breakdown is NOT part of operator==.
struct PhaseStats : obs::RoundRecord {
  std::string name;
  std::int64_t rounds = 0;
  bool hit_round_limit = false;

  friend bool operator==(const PhaseStats&, const PhaseStats&) = default;
};

struct RunStats : obs::RoundRecord {
  /// Completed rounds: a round counts when its record is folded, so a
  /// round that throws is not counted, like its partial accounting.
  std::int64_t rounds = 0;
  bool hit_round_limit = false;
  /// Per-phase breakdown, one entry per run_phase() call (a plain run()
  /// is a single phase named "main").
  std::vector<PhaseStats> phases;

  friend bool operator==(const RunStats&, const RunStats&) = default;
};

/// Per-worker cache-line-padded counter for algorithms that must maintain
/// a global tally (e.g. "number of uncovered nodes") from inside a
/// parallel section: each worker bumps its own slot via
/// Network::worker_index() and the algorithm reduces the slots serially
/// after the section — race-free and bit-identical at every pool width.
struct alignas(64) WorkerCounter {
  std::int64_t value = 0;
};

class Network;

namespace detail {

/// Used words of the lane whose header is `header` — (epoch << 32) | used
/// words — read in an arena whose current epoch is `epoch`: 0 unless the
/// header carries that epoch.
inline std::uint64_t lane_used(std::uint64_t header, std::uint32_t epoch) {
  const std::uint64_t x = header ^ (std::uint64_t{epoch} << 32);
  return (x >> 32) == 0 ? x : 0;
}

/// Bit v of a per-node bitmap (64 nodes per word).
inline bool node_bit(const std::uint64_t* bits, NodeId v) {
  return ((bits[v >> 6] >> (v & 63u)) & 1u) != 0;
}

}  // namespace detail

/// Base class for round-synchronous distributed algorithms.
///
/// Contract: `initialize` and `process_round` must treat per-node state in
/// a local manner — the code for node v may read only v's own state, v's
/// inbox, and the public instance parameters. Verified by code review and
/// by the message-size/round statistics the simulator reports.
class DistributedAlgorithm {
 public:
  virtual ~DistributedAlgorithm() = default;

  /// Set up per-node state; may send round-0 messages and arm() nodes.
  virtual void initialize(Network& net) = 0;

  /// One synchronous round: every node reads its inbox and sends.
  virtual void process_round(Network& net) = 0;

  /// Global termination predicate (checked by the driver after each round;
  /// in a real network this is knowledge of the a-priori round bound).
  virtual bool finished(const Network& net) const = 0;
};

/// Iterable view over the messages delivered to one node this round: a
/// cursor walk over the node's contiguous CSR lane regions in the arena,
/// skipping empty lanes. Word 0 of every lane region is its header, the
/// used length stamped with the round's epoch (so length check and record
/// read hit the same cache line; a stale stamp reads as empty); records
/// start at word 1. Before a lane's own records the cursor yields the
/// sender's broadcast slot when the sender's slot bit is set (see
/// "broadcast slots" above); with no slot written in the round the bit
/// check is skipped. Messages appear ordered by sender id (adjacency
/// lists are sorted), with per-sender send order preserved.
/// Dereferencing yields MessageView values; they (and the InboxView) are
/// valid only for the current round.
class InboxView {
 public:
  class const_iterator {
   public:
    using value_type = MessageView;
    using reference = MessageView;
    using difference_type = std::ptrdiff_t;

    MessageView operator*() const {
      ARBODS_DCHECK(lane_ != view_->end_lane_);
      const std::uint64_t* rec =
          at_slot_ ? view_->slot_of(lane_)
                   : view_->arena_ + view_->lane_base_[lane_] + 1 + word_;
      return MessageView(rec, view_->model_, view_->quantized_);
    }
    const_iterator& operator++() {
      if (at_slot_) {
        at_slot_ = false;
      } else {
        word_ += (**this).words();
      }
      settle();
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++*this;
      return old;
    }
    friend bool operator==(const const_iterator& a, const const_iterator& b) {
      return a.lane_ == b.lane_ && a.word_ == b.word_ &&
             a.at_slot_ == b.at_slot_;
    }
    /// The lane the current record was delivered on: the receiver's CSR
    /// arc to the lane's sender. A record's own sender() differs from that
    /// neighbor only when a fault decorator diverted it to another lane.
    std::size_t lane() const { return lane_; }

   private:
    friend class InboxView;
    const_iterator(const InboxView* view, std::size_t lane)
        : view_(view), lane_(lane), at_slot_(view->has_slot(lane)) {
      settle();
    }
    void settle() {
      while (lane_ != view_->end_lane_ && !at_slot_ &&
             word_ >= detail::lane_used(view_->arena_[view_->lane_base_[lane_]],
                                        view_->epoch_)) {
        ++lane_;
        word_ = 0;
        at_slot_ = view_->has_slot(lane_);
      }
      if (lane_ == view_->end_lane_) word_ = 0;
    }

    const InboxView* view_ = nullptr;
    std::size_t lane_ = 0;
    std::size_t word_ = 0;
    bool at_slot_ = false;
  };

  const_iterator begin() const { return const_iterator(this, first_lane_); }
  const_iterator end() const { return const_iterator(this, end_lane_); }
  bool empty() const { return begin() == end(); }
  /// First delivered message; the inbox must be non-empty.
  MessageView front() const {
    const const_iterator it = begin();
    ARBODS_DCHECK(!(it == end()));
    return *it;
  }
  /// Number of delivered messages (O(degree + messages)).
  std::size_t size() const;

 private:
  friend class Network;
  /// The broadcast slots of the delivering round: `live` is its bitmap of
  /// nodes whose slot holds a record, or nullptr when no slot was written
  /// (the decorators' rounds).
  struct Slots {
    const std::uint64_t* live = nullptr;
    const std::uint64_t* words = nullptr;
    std::size_t words_per_slot = 0;
  };

  InboxView(const std::uint64_t* arena, const std::uint64_t* lane_base,
            std::uint32_t epoch, std::size_t first_lane, std::size_t end_lane,
            const NodeId* senders, Slots slots, const MessageSizeModel* model,
            bool quantized)
      : arena_(arena), lane_base_(lane_base), epoch_(epoch),
        first_lane_(first_lane), end_lane_(end_lane), senders_(senders),
        slots_(slots), model_(model), quantized_(quantized) {}

  NodeId sender_of(std::size_t lane) const {
    return senders_[lane - first_lane_];
  }
  bool has_slot(std::size_t lane) const {
    return slots_.live != nullptr && lane != end_lane_ &&
           detail::node_bit(slots_.live, sender_of(lane));
  }
  const std::uint64_t* slot_of(std::size_t lane) const {
    return slots_.words + sender_of(lane) * slots_.words_per_slot;
  }

  const std::uint64_t* arena_;
  const std::uint64_t* lane_base_;
  std::uint32_t epoch_;
  std::size_t first_lane_;
  std::size_t end_lane_;
  const NodeId* senders_;  // senders_[l - first_lane_] sends on lane l
  Slots slots_;
  const MessageSizeModel* model_;
  bool quantized_;
};

namespace fault {
class FaultyNetwork;
}  // namespace fault

namespace resilience {
class ReliableNetwork;
}  // namespace resilience

struct NetworkTestPeer;

/// The round-synchronous simulator. Its two decorators,
/// fault::FaultyNetwork and resilience::ReliableNetwork, derive from it
/// and override the handful of virtual seams below (send/broadcast, the
/// private word-level send_wire, the per-round flip/clear/shrink and
/// reset_for_reuse), so ProtocolRunner, every Phase, and the scenario
/// runner drive a decorated instance through the exact same API. A plain Network pays one virtual
/// dispatch per seam call and nothing else.
class Network {
 public:
  Network(const WeightedGraph& wg, CongestConfig config = {});
  virtual ~Network() = default;

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // --- topology / instance access (public parameters) ---
  NodeId num_nodes() const { return wg_->num_nodes(); }
  const Graph& graph() const { return wg_->graph(); }
  const WeightedGraph& weighted_graph() const { return *wg_; }
  Weight weight(NodeId v) const { return wg_->weight(v); }
  std::span<const NodeId> neighbors(NodeId v) const {
    return wg_->graph().neighbors(v);
  }
  NodeId degree(NodeId v) const { return wg_->graph().degree(v); }

  int max_message_bits() const { return max_message_bits_; }
  const MessageSizeModel& size_model() const { return size_model_; }
  /// The config this Network was constructed with (threads/fault already
  /// resolved by fault::make_network upstream).
  const CongestConfig& config() const { return config_; }

  /// Per-node deterministic RNG stream.
  Rng& rng(NodeId v);

  // --- communication (called from within process_round/initialize) ---
  virtual void send(NodeId from, NodeId to, const Message& m);
  virtual void broadcast(NodeId from, const Message& m);

  /// Messages delivered to v at the start of the current round.
  InboxView inbox(NodeId v) const;

  std::int64_t current_round() const { return round_; }

  // --- parallel execution ---
  /// Runs fn(v) for every node, partitioned across the worker pool when
  /// CongestConfig::threads > 1 (contiguous static chunks, so the
  /// assignment — and hence every per-node result — is independent of the
  /// actual thread count). fn(v) must only touch node v's state, v's
  /// inbox, v's RNG stream, and sends/arms originating at v.
  template <typename F>
  void for_nodes(F&& fn) {
    const bool prefetch = dense_slots();
    auto chunk = [&fn, prefetch, this](std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        if (prefetch && v + 1 < end) prefetch_slots(static_cast<NodeId>(v + 1));
        fn(static_cast<NodeId>(v));
      }
    };
    run_index_chunks(num_nodes(), chunk, "chunk:nodes");
  }

  /// Runs fn(v) for every *active* node: the nodes that received at least
  /// one message this round plus the nodes arm()ed during the previous
  /// round, deduplicated. Same locality contract as for_nodes; each active
  /// node is visited exactly once, on exactly one worker. The set's
  /// contents are a pure function of the algorithm (never of the pool
  /// width); only the visit order varies, which the locality contract
  /// makes unobservable.
  template <typename F>
  void for_active_nodes(F&& fn) {
    ensure_active_set();
    const NodeId* nodes = active_list_.data();
    const bool prefetch = dense_slots();
    auto chunk = [&fn, nodes, prefetch, this](std::size_t begin,
                                              std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        if (prefetch && i + 1 < end) prefetch_slots(nodes[i + 1]);
        fn(nodes[i]);
      }
    };
    run_index_chunks(active_list_.size(), chunk, "chunk:active");
  }

  /// Schedules v to be active next round even if no message arrives. May
  /// only be called from code running as node v (initialize's setup loop
  /// or a for_nodes/for_active_nodes body visiting v): an event-driven
  /// node keeps itself on the worklist by re-arming until it resolves.
  void arm(NodeId v) { arm_at(v, round_ + 1); }

  /// Generalized arm: wake v at a specific future round (> current).
  /// Backed by a per-worker timer wheel, so a node whose next action is at
  /// a locally computable future time (e.g. "when the global threshold
  /// halves below my degree") sleeps through the interim rounds at zero
  /// cost instead of re-arming every round. A message arriving earlier
  /// wakes it anyway; stale earlier wakes are safe (the node just
  /// re-checks and re-schedules). If the algorithm does not consult the
  /// active set in the target round (a for_nodes-only stage), the wake
  /// carries forward round by round and fires in the first round that
  /// does look — deferred, never dropped.
  void arm_at(NodeId v, std::int64_t round);

  /// This round's active set (receivers + previously armed). Mainly for
  /// tests and diagnostics.
  std::span<const NodeId> active_nodes() {
    ensure_active_set();
    return {active_list_.data(), active_list_.size()};
  }

  /// Worker-pool width this Network executes parallel loops with.
  int num_workers() const;

  /// Index of the worker slot the calling thread accounts to (0 when
  /// called outside a parallel section); < num_workers(). For per-worker
  /// reduction state such as WorkerCounter arrays.
  int worker_index() const { return static_cast<int>(worker_slot()); }

  // --- driving ---
  /// Runs until algo.finished() or max_rounds; returns statistics.
  /// Equivalent to reset_for_reuse() followed by one run_phase("main"):
  /// the run starts from the fresh-construction observable state however
  /// dirty the Network is, so a Network can be reused across runs with
  /// bit-identical results.
  RunStats run(DistributedAlgorithm& algo, std::int64_t max_rounds = 1'000'000);

  /// Restores the fresh-construction *observable* state — round 0, empty
  /// lanes/timer wheels/active set, zeroed statistics, per-node RNG
  /// streams re-derived from the config seed — while keeping every
  /// allocation alive: arenas (at their grown sizes), worker pool,
  /// per-worker scratch, RNG stream storage. A run after reset_for_reuse
  /// is byte-identical to a run on a newly constructed Network over the
  /// same graph/config, minus the construction cost (tested).
  virtual void reset_for_reuse();

  /// Runs one named phase of a composed protocol on this Network and
  /// appends its PhaseStats to stats().phases, accumulating into the
  /// run totals. Every phase starts from the fresh-construction
  /// observable state (round 0, empty lanes/timers, freshly seeded RNG
  /// streams) exactly as if it ran on its own Network — which is what
  /// the pre-phase drivers did — but reuses all storage. Cumulative
  /// statistics (stats()) are NOT reset; callers composing several
  /// phases call reset_for_reuse() once up front (ProtocolRunner does).
  const PhaseStats& run_phase(DistributedAlgorithm& algo,
                              std::string_view phase_name,
                              std::int64_t max_rounds = 1'000'000);

  const RunStats& stats() const { return stats_; }

  /// Total arena size in 64-bit words (both double buffers have this
  /// size). Diagnostics/tests only — the alloc regression uses it to pin
  /// "arena storage is constructed exactly once per Network".
  std::size_t arena_words() const { return arena_words_; }

  // --- observability ---
  /// The span recorder this Network records into, or nullptr when
  /// tracing is off (CongestConfig::trace.enabled). snapshot() between runs;
  /// reset_for_reuse clears it, so a post-run snapshot covers exactly
  /// the last run.
  obs::TraceRecorder* tracer() const { return tracer_.get(); }

  /// Accounts wall-clock spent in the reliable-transport receive /
  /// transmit passes into the open round's record, and so into the
  /// phase's and the run's timing (resilience::ReliablePhase calls this;
  /// the passes run outside the Network's own seams). The passes run
  /// inside an initialize/process_round interval, so the time moves out
  /// of compute: the timing columns stay disjoint.
  void account_retransmit_seconds(double s) {
    open_round_.timing.retransmit_seconds += s;
    open_round_.timing.compute_seconds -= s;
  }

  /// Flight-recorder contents: the last min(flight_rounds, rounds run)
  /// per-round summaries of the current phase, oldest first. Empty when
  /// CongestConfig::trace.flight_rounds == 0.
  std::vector<obs::FlightRecord> flight_records() const;

  /// Human-readable dump of flight_records() (run_phase emits this on
  /// stderr automatically when a phase exhausts its round budget; the
  /// harness calls it when a solver throws CheckError).
  void dump_flight_recorder(std::ostream& os, std::string_view why) const;

 protected:
  /// The pool dispatch behind for_nodes/for_active_nodes, exposed to the
  /// decorators (ReliableNetwork's transport passes): partitions
  /// [0, count) into contiguous static chunks (one per worker, same
  /// assignment at every call), runs chunk_fn(begin, end) on each worker
  /// with its slot installed (worker_slot()/worker_index() resolve to the
  /// executing worker inside chunk_fn), and returns after all chunks
  /// complete. Serial (inline, slot 0) at pool width 1. Not
  /// reentrant — must be called from the driver thread between parallel
  /// sections. `span_name` labels the per-worker trace spans.
  void run_index_chunks(std::size_t count,
                        FunctionRef<void(std::size_t, std::size_t)> chunk_fn,
                        const char* span_name = "chunk:nodes");

  /// Worker slot the calling thread accounts to: the executing worker's
  /// index inside a run_index_chunks section, 0 outside one.
  std::size_t worker_slot() const;

 private:
  friend class fault::FaultyNetwork;
  friend class resilience::ReliableNetwork;
  friend struct NetworkTestPeer;  // defined by tests only

  /// Lane index into the flat per-directed-edge buffers.
  using EdgeSlot = std::uint32_t;

  /// One worker's share of the open round; reduce_stats() sums the slots
  /// into the round's record. Only a FaultyNetwork's slots ever see
  /// nonzero fault tallies.
  struct alignas(64) WorkerStats : obs::Counters {};

  /// One worker's overflow storage: whole wire records that did not fit
  /// their lane region this round, merged back (and the lane regrown) at
  /// the next flip.
  struct SpillRec {
    EdgeSlot lane;
    std::uint32_t begin;  // word range in `words`
    std::uint32_t end;
  };
  struct WorkerSpill {
    std::vector<std::uint64_t> words;
    std::vector<SpillRec> recs;
    // Byte mark per lane (allocated lazily on a worker's first spill, freed
    // by the post-run shrink) so the has-this-lane-spilled check on every
    // deposit stays O(1) even on spill-heavy rounds; entries set here are
    // cleared from `recs` when the spill is merged.
    std::vector<std::uint8_t> lane_marked;
  };

  // Virtual per-round / per-phase seams: run(), run_phase(), and
  // reset_for_reuse() are written once against these, and the fault
  // decorator overrides them to inject its held records at the flip and
  // to clear / shrink its holding wheels with the lanes.
  virtual void flip_buffers();
  virtual void clear_all_lanes();
  virtual void shrink_scratch();
  void reseed_node_rngs();
  void rebuild_active_set();
  /// Build the active set if the current round's flip marked it dirty.
  /// The single seam behind for_active_nodes/active_nodes — and
  /// deliberately NOT called by the flight recorder: forcing a rebuild
  /// drains due timer buckets the flip would otherwise carry forward,
  /// which changes behavior for for_nodes-only algorithms.
  void ensure_active_set() {
    if (active_dirty_) rebuild_active_set();
  }
  void merge_spills_and_grow();
  /// Whether at least 1/8 of the nodes delivered through a slot this
  /// round. Slot reads are then the round's random accesses, so the node
  /// loops fetch the next node's live slots while the current one runs;
  /// in a sparse round the live checks would cost more than they save.
  bool dense_slots() const {
    return in_slotted_ > 0 &&
           8 * static_cast<std::size_t>(in_slotted_) >= num_nodes();
  }
  /// Starts fetching the live slots of v's first (up to 8) senders.
  void prefetch_slots(NodeId v) const;
  /// Next lane epoch from the monotonic counter. At the 32-bit limit it
  /// first restarts the counter (restart_epochs), so the result is never
  /// a stamp any lane still carries.
  std::uint32_t fresh_epoch();
  /// Counter restart: re-stamps the in-arena's live headers with epoch 1,
  /// zeroes every other header of both arenas, and sets the counter to 1.
  void restart_epochs();
  struct WorkerCalendar;
  void arm_into(WorkerCalendar& cal, NodeId v, std::int64_t round);
  /// Message widths + cap from the instance.
  void init_size_model();
  /// CSR offsets, mirror permutation, and lane -> receiver map; returns
  /// the arc count.
  std::size_t build_csr_topology();
  /// Arc index of edge (from, to) via binary search over from's sorted
  /// neighbors; throws on a non-edge.
  std::size_t resolve_arc(NodeId from, NodeId to) const;
  /// Encodes m into scratch_[w] (growing it as needed) and cap-checks
  /// before anything is deposited; returns the wire word count and the
  /// accounted bits through *bits. The single encode-side contract shared
  /// by broadcast, tight-lane deposits, and the decorators' sends.
  std::size_t encode_into_scratch(std::size_t w, const Message& m,
                                  NodeId sender, int* bits);
  void check_cap(int bits) const;
  void account_bits(int bits);
  /// Word-level send seam: sends the already encoded wire record
  /// words[0 .. nwords) from `from` along its CSR arc `arc`, accounting
  /// `bits` CONGEST bits — send() without the Message encode, for a
  /// caller that builds records as words (the reliable transport's
  /// frames). The fault decorator overrides it like send.
  virtual void send_wire(NodeId from, std::size_t arc,
                         const std::uint64_t* words, std::size_t nwords,
                         int bits);
  /// Encodes m into the lane (or spill), cap-checking before committing;
  /// returns the accounted bits from the encode pass.
  int deposit_encoded(EdgeSlot lane, const Message& m, NodeId sender);
  void deposit_words(std::size_t worker, EdgeSlot lane,
                     const std::uint64_t* words, std::size_t nwords);
  bool lane_spilled(std::size_t worker, EdgeSlot lane) const;
  /// Records that v sent this round; with `slot`, also marks v's slot
  /// live. Does nothing if v already sent, and returns whether it marked.
  /// Only the plain Network's send and broadcast call it.
  bool mark_first_send(std::size_t worker, NodeId v, bool slot);
  /// Sums the worker slot tallies of the open round and zeroes them.
  struct SlotTally {
    std::int64_t slotted = 0;  // broadcasts written to a slot
    bool marked = false;       // some bit of sent_ was set
  };
  SlotTally drain_slot_tallies();
  /// Closes the open round: sums the worker slots into its record
  /// (zeroing them), folds the record into `phase` and the run totals,
  /// and returns it. The next round's record starts from zero.
  obs::RoundRecord reduce_stats(PhaseStats& phase);

  const WeightedGraph* wg_;
  CongestConfig config_;
  MessageSizeModel size_model_;
  int max_message_bits_ = 0;
  std::int64_t round_ = 0;

  // CSR arc offsets (offsets_[v]..offsets_[v+1] are v's incident lanes in
  // receiver order), the out-arc -> receiver-lane mirror permutation, and
  // the lane -> receiver map used by the active-set builder.
  std::vector<std::size_t> offsets_;
  std::vector<EdgeSlot> mirror_;
  std::vector<NodeId> lane_receiver_;
  // The graph's flat adjacency array: adjacency_[l] is the sender on lane
  // l (the CSR arc at l belongs to the receiver and names its neighbor).
  const NodeId* adjacency_ = nullptr;

  // Shared lane layout: lane l owns words [lane_base_[l], lane_base_[l+1])
  // of both arenas; word 0 of the region is the lane's header (same cache
  // line as the records it guards — a deposit or inbox scan costs one
  // memory touch per lane, not two), records follow from word 1.
  // Double-buffered: the in-arena holds this round's deliveries, the
  // out-arena collects next round's. Beyond the header words the storage
  // is deliberately *uninitialized* (every wire record fully initializes
  // the words it claims, and the header guards reads), so constructing a
  // Network never pays an O(arena) zero-fill.
  std::vector<std::uint64_t> lane_base_;
  std::size_t arena_words_ = 0;
  std::unique_ptr<std::uint64_t[]> arena_a_, arena_b_;
  std::unique_ptr<std::uint64_t[]>* in_arena_ = nullptr;
  std::unique_ptr<std::uint64_t[]>* out_arena_ = nullptr;
  // Lane epochs (see detail::lane_used): a header counts only in the
  // arena whose current epoch it carries. epoch_ is the last value handed
  // out (>= both arena epochs); headers are zeroed at construction and
  // epoch 0 is never handed out, so a fresh arena reads empty.
  std::uint32_t in_epoch_ = 1;
  std::uint32_t out_epoch_ = 2;
  std::uint32_t epoch_ = 2;

  // Lanes written this round / holding this round's inbox, per worker: the
  // active-set rebuild derives receivers from them and the spill merge
  // copies the resident records they name.
  std::vector<std::vector<EdgeSlot>> touched_out_;
  std::vector<std::vector<EdgeSlot>> touched_in_;

  // Broadcast slots: node v's slot is words [v * slot_words_, (v + 1) *
  // slot_words_) of the slot storage, live when bit v of the round's
  // live-slot bitmap is set; sent_ has bit v set once v sent anything in
  // the open round. Slots and live bitmaps are double-buffered and
  // swapped at the flip like the arenas; the storage is uninitialized
  // (the live bits guard every read) and 64-byte aligned, so a cap-sized
  // record never straddles more cache lines than it must.
  struct alignas(64) WorkerSlots : SlotTally {};
  std::size_t slot_words_ = 0;
  std::unique_ptr<std::uint64_t[]> slot_storage_;
  std::uint64_t* in_slots_ = nullptr;
  std::uint64_t* out_slots_ = nullptr;
  std::vector<std::uint64_t> live_a_, live_b_, sent_;
  std::uint64_t* in_live_ = nullptr;
  std::uint64_t* out_live_ = nullptr;
  // Slots written in the delivering round; 0 means in_live_ is all zero
  // and inbox() skips the live check.
  std::int64_t in_slotted_ = 0;
  std::vector<WorkerSlots> worker_slots_;

  // Per-worker overflow buffers and broadcast encode scratch.
  std::vector<WorkerSpill> spills_;
  std::vector<std::vector<std::uint64_t>> scratch_;

  // Active set: nodes receiving messages this round + nodes whose timer
  // came due, deduplicated through an epoch-stamped mark array and kept in
  // ascending node order (dense rounds re-extract from the marks with one
  // sequential sweep, sparse rounds sort the short list) so chunked
  // iteration preserves the cache locality of a plain 0..n sweep. Built
  // lazily on the first for_active_nodes/active_nodes call of a round
  // (the flip only marks it dirty), so algorithms that never use the
  // active-set API pay nothing for it.
  bool active_dirty_ = false;
  std::vector<NodeId> active_list_;
  std::vector<NodeId> active_scratch_;
  std::vector<std::uint64_t> active_mark_;
  std::uint64_t active_epoch_ = 0;

  // Per-worker timer wheel behind arm()/arm_at(): a power-of-two ring of
  // round-tagged buckets. Bucket vectors are recycled as the ring wraps,
  // so steady-state arming allocates nothing; a collision with a live
  // future bucket doubles the ring (amortized, bounded by the largest
  // delay an algorithm ever uses).
  struct CalendarBucket {
    std::int64_t round = -1;
    std::vector<NodeId> nodes;
  };
  struct WorkerCalendar {
    std::vector<CalendarBucket> ring;  // size is a power of two
  };
  std::vector<WorkerCalendar> calendars_;
  // Scratch for the flip-time carry of undrained due buckets (the carried
  // nodes must survive a ring resize inside arm_into).
  std::vector<NodeId> carry_nodes_;

  // Per-run high-water marks driving the post-run scratch shrink policy.
  std::size_t touched_highwater_ = 0;
  std::size_t armed_highwater_ = 0;
  std::size_t active_highwater_ = 0;

  std::vector<WorkerStats> worker_stats_;
  std::unique_ptr<WorkerPool> pool_;
  std::vector<Rng> node_rngs_;
  // Untouched seed-derived copies of node_rngs_, built once at
  // construction: a phase-boundary reseed is a flat memcpy-style restore
  // of this image instead of an O(n) splitmix re-derivation per stream.
  std::vector<Rng> rng_image_;
  // True while node_rngs_ hold untouched seed-derived streams (set by
  // construction/reseed, cleared when a phase starts consuming them), so
  // back-to-back reset_for_reuse + run_phase pays one O(n) reseed, not
  // two. Driver-thread only.
  bool rng_streams_fresh_ = false;
  RunStats stats_;
  // The open round's record: its timing accrues here while the round
  // runs (run_phase, account_retransmit_seconds), its counters are
  // reduced from the worker slots when it closes.
  obs::RoundRecord open_round_;

  // Span recorder (obs/trace.hpp), owned when config.trace.enabled.
  // Null = tracing off.
  std::unique_ptr<obs::TraceRecorder> tracer_;

  // Flight recorder: overwrite ring of the last trace.flight_rounds
  // per-round summaries. Sized once per phase (run_phase), written with
  // plain ring stores per round — zero steady-state allocation.
  std::vector<obs::FlightRecord> flight_ring_;
  std::size_t flight_next_ = 0;
  std::size_t flight_count_ = 0;
};

}  // namespace arbods
