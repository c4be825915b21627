#ifndef PDS2_DML_NETSIM_H_
#define PDS2_DML_NETSIM_H_

#include <cstring>
#include <functional>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/rng.h"
#include "common/sim_clock.h"
#include "dml/event_wheel.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pds2::common {
class ThreadPool;
}  // namespace pds2::common

namespace pds2::dml {

/// Link model of the simulated network.
struct NetConfig {
  common::SimTime base_latency = 10 * common::kMicrosPerMilli;
  common::SimTime latency_jitter = 5 * common::kMicrosPerMilli;
  double drop_rate = 0.0;                    // independent per message
  double bandwidth_bytes_per_sec = 1.0e6;    // serialization delay per link
};

/// Network-wide counters (experiments E2/E3 and the chaos harness read
/// these). Since PR 9 this is a point-in-time *view* materialized by
/// NetSim::stats() from per-partition struct-of-arrays rows (see
/// NetSim::StatRow); the same counts are still mirrored into the global
/// obs::Registry under "dml.net.*" while metrics are enabled.
struct NetStats {
  /// Events popped from the queue (message deliveries + timer fires,
  /// including ones dropped at admission) — the simulator's unit of work,
  /// which is what bench_scale's events/sec throughput counts.
  uint64_t events_processed = 0;
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
  uint64_t messages_dropped = 0;     // by loss or offline receiver
  uint64_t bytes_sent = 0;
  // Fault-injection visibility (see LinkFaultHook / FaultInjector).
  uint64_t partition_drops = 0;          // blocked by an active partition
  uint64_t messages_corrupted = 0;       // payload flipped in flight
  uint64_t retries = 0;                  // protocol-reported retransmissions
  uint64_t timers_dropped_offline = 0;   // timers lost to an offline node
  /// Bytes received per node — exposes hotspots (the federated server).
  std::vector<uint64_t> bytes_received_per_node;
};

/// Compact message payload with a small-buffer optimization: payloads up
/// to kInlineCapacity bytes live inside the event itself (no heap), larger
/// ones keep their heap buffer. At 10^5-10^6 simulated nodes the event
/// queue holds millions of in-flight messages; small control payloads —
/// gossip rumors, acks, heartbeats — dominate, and storing them inline
/// removes one allocation per send plus the pointer chase per delivery.
class MsgBuf {
 public:
  static constexpr size_t kInlineCapacity = 24;

  MsgBuf() : size_(0) {}
  explicit MsgBuf(common::Bytes bytes) {
    if (bytes.size() <= kInlineCapacity) {
      size_ = static_cast<uint32_t>(bytes.size());
      if (!bytes.empty()) std::memcpy(u_.inline_buf, bytes.data(), size_);
    } else {
      size_ = kHeapTag;
      new (&u_.heap) common::Bytes(std::move(bytes));
    }
  }
  MsgBuf(MsgBuf&& other) noexcept { MoveFrom(other); }
  MsgBuf& operator=(MsgBuf&& other) noexcept {
    if (this != &other) {
      Destroy();
      MoveFrom(other);
    }
    return *this;
  }
  MsgBuf(const MsgBuf&) = delete;
  MsgBuf& operator=(const MsgBuf&) = delete;
  ~MsgBuf() { Destroy(); }

  bool inline_storage() const { return size_ != kHeapTag; }
  size_t size() const {
    return inline_storage() ? size_ : u_.heap.size();
  }
  const uint8_t* data() const {
    return inline_storage() ? u_.inline_buf : u_.heap.data();
  }
  uint8_t* mutable_data() {
    return inline_storage() ? u_.inline_buf : u_.heap.data();
  }

  /// The payload as a Bytes reference for handler delivery: heap payloads
  /// are returned directly, inline payloads are copied into `scratch`
  /// (which reuses its capacity across deliveries — no allocation in
  /// steady state).
  const common::Bytes& AsBytes(common::Bytes& scratch) const {
    if (!inline_storage()) return u_.heap;
    scratch.assign(u_.inline_buf, u_.inline_buf + size_);
    return scratch;
  }

 private:
  static constexpr uint32_t kHeapTag = 0xFFFFFFFFu;

  void Destroy() {
    if (!inline_storage()) std::destroy_at(&u_.heap);
  }
  void MoveFrom(MsgBuf& other) {
    size_ = other.size_;
    if (other.inline_storage()) {
      if (size_ > 0) std::memcpy(u_.inline_buf, other.u_.inline_buf, size_);
    } else {
      new (&u_.heap) common::Bytes(std::move(other.u_.heap));
      std::destroy_at(&other.u_.heap);
    }
    other.size_ = 0;
  }

  union U {
    uint8_t inline_buf[kInlineCapacity];
    common::Bytes heap;
    U() {}
    ~U() {}
  } u_;
  uint32_t size_;  // kHeapTag selects the heap member
};

class NetSim;

/// Per-link fault model consulted on every send. Implementations (e.g.
/// FaultInjector) derive the effect from sim-time alone so that replaying
/// the same seed reproduces the same run. The hook must be deterministic:
/// it is called once per send, in event order, and must not draw from any
/// RNG itself (the simulator makes all randomized decisions from the
/// returned probabilities).
class LinkFaultHook {
 public:
  virtual ~LinkFaultHook() = default;
  struct Effect {
    bool blocked = false;       // partitioned: drop silently at send time
    double extra_drop = 0.0;    // extra independent loss probability
    double latency_mult = 1.0;  // multiplies the delivery latency
    double corrupt_rate = 0.0;  // probability of flipping one payload byte
  };
  virtual Effect OnLink(size_t from, size_t to, common::SimTime now) = 0;
};

/// The facilities a node may use from inside a callback.
class NodeContext {
 public:
  NodeContext(NetSim& sim, size_t self) : sim_(sim), self_(self) {}

  size_t self() const { return self_; }
  common::SimTime Now() const;
  size_t NumNodes() const;
  bool IsOnline(size_t node) const;

  /// Sends a message; it arrives after latency + size/bandwidth, unless
  /// dropped or the receiver is offline at delivery time.
  void Send(size_t to, common::Bytes payload);

  /// Arms a one-shot timer that fires OnTimer(timer_id) after `delay`.
  void SetTimer(common::SimTime delay, uint64_t timer_id);

  /// Takes a node offline / brings it back (see NetSim::SetOnline). Inside
  /// a handler the transition is buffered and applied on the driving
  /// thread in deterministic event order, after the batch joins — which is
  /// what lets FaultInjector churn a run at any pool size.
  void SetOnline(size_t node, bool online);

  /// Records one protocol-level retransmission in NetStats::retries —
  /// called by protocols (e.g. the validator sync backoff) so experiment
  /// harnesses can see recovery effort without reaching into the protocol.
  void CountRetry();

  /// This node's private RNG stream, a pure function of (seed, node index).
  common::Rng& rng();

 private:
  friend class NetSim;

  /// Side effects buffered during a batch by all events of one partition;
  /// the simulator replays them in deterministic event order after the
  /// batch joins. Ops are tagged with the batch-wide index of the event
  /// whose handler emitted them; because a partition processes its events
  /// in batch order, each partition's op list is already sorted by that
  /// tag and the merge is a single linear walk. The trace
  /// context is captured here, on the worker thread, where the sender's
  /// delivery span is still installed — by the time the outbox drains on
  /// the driving thread that context is gone.
  struct Outbox {
    enum class OpKind : uint8_t { kSend, kTimer, kChurn };
    struct Op {
      uint32_t event_index = 0;  // index into the batch's admitted events
      OpKind kind = OpKind::kSend;
      uint32_t node = 0;              // send target / churned node
      bool online = false;            // churn direction
      common::SimTime delay = 0;      // timer delay
      uint64_t timer_id = 0;          // timer id
      common::Bytes payload;          // send payload
      obs::TraceContext trace;
    };
    std::vector<Op> ops;
    size_t merged = 0;  // ops already replayed by the merge phase
    uint64_t retries = 0;
    uint32_t current_event = 0;  // set by the drain loop before each handler
    common::Bytes delivery_scratch;  // reused per-partition payload buffer
  };

  NodeContext(NetSim& sim, size_t self, Outbox* outbox)
      : sim_(sim), self_(self), outbox_(outbox) {}

  NetSim& sim_;
  size_t self_;
  Outbox* outbox_ = nullptr;  // non-null only inside a batch
};

/// A protocol endpoint. Implementations: GossipNode, FedServerNode,
/// FedClientNode, and any future aggregation method (the architecture's
/// §II-F flexibility point).
class Node {
 public:
  virtual ~Node() = default;
  /// Called once when the simulation starts.
  virtual void OnStart(NodeContext& ctx) { (void)ctx; }
  /// Called when the node rejoins after churn (SetOnline false -> true).
  /// A crash invalidates every timer the node had armed (counted in
  /// NetStats::timers_dropped_offline), so timer-driven protocols must
  /// re-arm here or stay silent forever. Default: no-op.
  virtual void OnRestart(NodeContext& ctx) { (void)ctx; }
  /// Called when a message addressed to this node is delivered.
  virtual void OnMessage(NodeContext& ctx, size_t from,
                         const common::Bytes& payload) = 0;
  /// Called when a timer armed by this node fires.
  virtual void OnTimer(NodeContext& ctx, uint64_t timer_id) {
    (void)ctx;
    (void)timer_id;
  }
};

/// Deterministic discrete-event network simulator, engineered to hold
/// 10^5-10^6 nodes: the event queue is a hierarchical timer wheel
/// (EventWheel — O(1) schedule/pop), per-node state lives in flat
/// struct-of-arrays vectors (online bits, 32-bit epochs, interned names,
/// RNG streams), message payloads are small-buffer MsgBufs, and the live
/// counters are per-partition cache-line-aligned rows instead of shared
/// atomics. Nodes can be taken offline and back online to model churn;
/// messages to offline nodes are lost (no retransmission — protocol
/// robustness under loss is part of what the experiments measure).
///
/// One run loop: events are drained in batches — every pending event at
/// the earliest timestamp (or within `batch_window` of it, see
/// EnableParallel) is treated as concurrent, and its handlers run grouped
/// by *partition*, a contiguous block of node indices, so one task covers
/// many nodes and the per-node arrays it touches are disjoint cache-line
/// ranges. Each node draws from its own RNG stream, handlers buffer their
/// sends/timers/churn in per-partition outboxes, and the simulator
/// replays those outboxes (and all shared-RNG draws for drop/jitter) in
/// batch event order after the join. Partition count is a pure function
/// of the node count, so a ThreadPool only changes speed: results are
/// bit-identical with no pool (partitions run inline in ascending order),
/// a 1-thread pool or N threads.
class NetSim {
 public:
  NetSim(NetConfig config, uint64_t seed);

  /// Pre-sizes every per-node array. Optional; calling it before a large
  /// AddNode loop avoids repeated growth at 10^5-10^6 nodes.
  void Reserve(size_t num_nodes);

  /// Registers a node; returns its index.
  size_t AddNode(std::unique_ptr<Node> node);

  /// Attaches `pool` (nullptr = run partitions inline) and sets the batch
  /// window. Must be called before Start(). Events whose timestamps fall
  /// within `batch_window` of the earliest pending event execute as one
  /// concurrent batch stamped at the batch's start time (0 = only exact
  /// timestamp ties batch together — the default). The pool never changes
  /// results: for a given window they are identical at every pool size.
  void EnableParallel(common::ThreadPool* pool,
                      common::SimTime batch_window = 0);

  /// Delivers OnStart to every node. Call once, after adding all nodes.
  void Start();

  /// Processes events until the clock passes `t` (events at exactly `t`
  /// are processed).
  void RunUntil(common::SimTime t);

  /// Churn control. An offline node receives neither messages nor timers.
  /// A crash (online -> offline) starts a new life for the node: timers
  /// armed — and messages addressed to it — before the crash are dropped
  /// even if they come due after the restart, exactly as a real process
  /// loses its state when it dies. Drops are counted in NetStats
  /// (timers_dropped_offline / messages_dropped). On rejoin the node's
  /// OnRestart hook runs so protocols can re-arm. From inside a handler
  /// use NodeContext::SetOnline, which defers the transition to the
  /// deterministic merge phase.
  void SetOnline(size_t node, bool online);
  bool IsOnline(size_t node) const { return online_[node]; }

  /// Installs a per-link fault model (partitions, asymmetric degradation,
  /// payload corruption). Call before Start(). nullptr disables.
  void SetLinkFaultHook(LinkFaultHook* hook) { fault_hook_ = hook; }

  /// Installs a deterministic periodic tick: `hook(t)` runs with the sim
  /// clock at exactly `t` for t = Now+interval, Now+2*interval, ... — always
  /// on the driving thread, between batches (never inside one),
  /// ordered so an event stamped at the tick time executes first. Batch
  /// formation is pool-size-independent, so tick placement is bit-identical
  /// at any thread count — this is what drives health-plane sampling on
  /// 10^5-node runs. The hook must observe, not mutate, the simulation
  /// (snapshot metrics, evaluate rules); interval 0 or a null hook disables.
  void SetTickHook(common::SimTime interval,
                   std::function<void(common::SimTime)> hook);

  common::SimTime Now() const { return clock_.Now(); }
  size_t NumNodes() const { return nodes_.size(); }
  Node* node(size_t i) { return nodes_[i].get(); }

  /// Logical label used by the tracing layer for spans executed on this
  /// node ("validator/2", defaults to "node/<i>"). Callable any time.
  /// Custom names are interned: a node without one costs 4 bytes, not a
  /// std::string, and the default label is formatted on demand.
  void SetNodeName(size_t node, std::string name);
  std::string NodeName(size_t node) const;

  /// Point-in-time copy of the live counters (exact between RunUntil
  /// calls; do not call concurrently with a running batch).
  NetStats stats() const;
  /// The simulator clock, for sim-time spans (PDS2_TRACE_SPAN_SIM).
  const common::SimClock* sim_clock() const { return &clock_; }

  // Internal API used by NodeContext. The trace context rides the message
  // envelope (never the payload): delivery installs it as the remote
  // parent of the receiver's handler span, which is how one marketplace
  // trace stays connected across simulated nodes.
  void SendFrom(size_t from, size_t to, common::Bytes payload,
                obs::TraceContext trace = {});
  void SetTimerFor(size_t node, common::SimTime delay, uint64_t timer_id,
                   obs::TraceContext trace = {});
  common::Rng& RngFor(size_t node);
  void CountRetryFor();

  /// Number of parallel partitions node state is split into — a pure
  /// function of the node count (never of the pool size), so partition
  /// assignment cannot introduce scheduling dependence.
  size_t NumPartitions() const;

 private:
  /// One queued event. Compact on purpose: 32-bit node indices and
  /// epochs (10^6 nodes and restarts fit comfortably), a small-buffer
  /// payload, no heap indirection for control-sized messages. The old
  /// FIFO tie-break sequence number is gone — the timer wheel preserves
  /// schedule order for same-timestamp events structurally.
  struct PdsEvent {
    enum class Kind : uint8_t { kMessage, kTimer } kind = Kind::kMessage;
    uint32_t target = 0;
    uint32_t from = 0;          // messages
    uint32_t target_epoch = 0;  // target's life at schedule time
    uint64_t timer_id = 0;      // timers
    MsgBuf payload;
    obs::TraceContext trace;    // sender's span at schedule time
  };

  /// Cache-line-aligned struct-of-arrays row of the live counters. Row 0
  /// belongs to the driving thread (merge phase, sends outside a batch);
  /// each partition owns row 1 + partition, so hot counters are written
  /// without atomics and without false sharing, and stats() sums the rows.
  struct alignas(64) StatRow {
    uint64_t events_processed = 0;
    uint64_t messages_sent = 0;
    uint64_t messages_delivered = 0;
    uint64_t messages_dropped = 0;
    uint64_t bytes_sent = 0;
    uint64_t partition_drops = 0;
    uint64_t messages_corrupted = 0;
    uint64_t retries = 0;
    uint64_t timers_dropped_offline = 0;
  };

  /// Fires the tick hook for every pending tick time strictly before
  /// `bound`, advancing the clock to each tick time.
  void FireTicksBefore(common::SimTime bound);

  /// True when `event` is addressed to a live target (online and same
  /// life); otherwise records the drop in `row` and returns false. Reads
  /// only state that is frozen during a batch (churn is deferred), so
  /// partition workers may call it concurrently.
  bool AdmitEvent(const PdsEvent& event, StatRow& row);

  /// Delivery accounting + handler dispatch for one admitted event; the
  /// handler's side effects go to its partition's `outbox`.
  void DispatchEvent(PdsEvent& event, NodeContext::Outbox& outbox,
                     StatRow& row);

  size_t PartitionOf(size_t node) const;

  /// Routes an event to the wheel, or — when a windowed batch
  /// has already advanced the wheel's frontier past `time` — to the small
  /// retro heap. Retro events are strictly earlier than everything left
  /// in the wheel (the wheel's frontier never passes the last RunUntil
  /// bound, and every wheel event at or before that bound was popped), so
  /// the two structures never have to break a timestamp tie against each
  /// other; within the retro heap, ties pop FIFO by insertion sequence.
  void ScheduleEvent(common::SimTime time, PdsEvent event);
  bool PopNext(common::SimTime bound, common::SimTime* time,
               PdsEvent* event);

  NetConfig config_;
  common::Rng rng_;
  common::SimClock clock_;
  std::vector<std::unique_ptr<Node>> nodes_;
  /// Interned node names: 0 = default ("node/<i>", formatted on demand),
  /// otherwise 1-based index into name_pool_.
  std::vector<uint32_t> name_ids_;
  std::vector<std::string> name_pool_;
  std::vector<bool> online_;
  std::vector<uint32_t> epoch_;  // bumped on every crash
  LinkFaultHook* fault_hook_ = nullptr;
  /// Periodic observation tick (SetTickHook). next_tick_ is the next time
  /// the hook is due; 0 interval = disabled.
  common::SimTime tick_interval_ = 0;
  common::SimTime next_tick_ = 0;
  std::function<void(common::SimTime)> tick_hook_;
  EventWheel<PdsEvent> queue_;
  /// Live counters, struct-of-arrays by partition (see StatRow). Kept
  /// per-instance so multiple sims in one process — the norm in tests —
  /// never bleed counts into each other; increments are additionally
  /// mirrored to the global registry for process-wide exports while
  /// metrics are enabled.
  std::vector<StatRow> stat_rows_;
  std::vector<uint64_t> bytes_received_per_node_;
  bool started_ = false;

  /// Events scheduled behind the wheel frontier by a windowed batch (see
  /// ScheduleEvent). Min-heap on (time, insertion seq) kept in a vector
  /// with std::push_heap/pop_heap; empty except transiently when
  /// batch_window_ > 0.
  struct RetroEntry {
    common::SimTime time = 0;
    uint64_t seq = 0;
    PdsEvent event;
  };
  struct RetroLater {
    bool operator()(const RetroEntry& a, const RetroEntry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.seq > b.seq;
    }
  };
  std::vector<RetroEntry> retro_;
  uint64_t retro_seq_ = 0;

  common::ThreadPool* pool_ = nullptr;  // nullptr = partitions run inline
  common::SimTime batch_window_ = 0;
  std::vector<common::Rng> node_rngs_;  // one private stream per node
  bool in_batch_ = false;  // guards direct SetOnline during a batch
  // Reused batch scratch (cleared, not reallocated, every batch).
  std::vector<PdsEvent> batch_;
  std::vector<NodeContext::Outbox> partition_outboxes_;
  std::vector<std::vector<uint32_t>> partition_events_;
  std::vector<size_t> active_partitions_;
};

}  // namespace pds2::dml

#endif  // PDS2_DML_NETSIM_H_
