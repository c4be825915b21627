#include "dml/netsim.h"

#include <algorithm>
#include <cassert>

#include "common/thread_pool.h"
#include "obs/trace.h"

namespace pds2::dml {

using common::Bytes;
using common::SimTime;

SimTime NodeContext::Now() const { return sim_.Now(); }
size_t NodeContext::NumNodes() const { return sim_.NumNodes(); }
bool NodeContext::IsOnline(size_t node) const { return sim_.IsOnline(node); }
void NodeContext::Send(size_t to, Bytes payload) {
  if (outbox_ != nullptr) {
    Outbox::Op op;
    op.event_index = outbox_->current_event;
    op.kind = Outbox::OpKind::kSend;
    op.node = static_cast<uint32_t>(to);
    op.payload = std::move(payload);
    op.trace = obs::CurrentTraceContext();
    outbox_->ops.push_back(std::move(op));
    return;
  }
  sim_.SendFrom(self_, to, std::move(payload), obs::CurrentTraceContext());
}
void NodeContext::SetTimer(SimTime delay, uint64_t timer_id) {
  if (outbox_ != nullptr) {
    Outbox::Op op;
    op.event_index = outbox_->current_event;
    op.kind = Outbox::OpKind::kTimer;
    op.delay = delay;
    op.timer_id = timer_id;
    op.trace = obs::CurrentTraceContext();
    outbox_->ops.push_back(std::move(op));
    return;
  }
  sim_.SetTimerFor(self_, delay, timer_id, obs::CurrentTraceContext());
}
void NodeContext::SetOnline(size_t node, bool online) {
  if (outbox_ != nullptr) {
    Outbox::Op op;
    op.event_index = outbox_->current_event;
    op.kind = Outbox::OpKind::kChurn;
    op.node = static_cast<uint32_t>(node);
    op.online = online;
    outbox_->ops.push_back(std::move(op));
    return;
  }
  sim_.SetOnline(node, online);
}
common::Rng& NodeContext::rng() { return sim_.RngFor(self_); }
void NodeContext::CountRetry() {
  if (outbox_ != nullptr) {
    ++outbox_->retries;
    return;
  }
  sim_.CountRetryFor();
}

NetSim::NetSim(NetConfig config, uint64_t seed)
    : config_(config), rng_(seed) {
  stat_rows_.resize(1);
}

void NetSim::Reserve(size_t num_nodes) {
  nodes_.reserve(num_nodes);
  name_ids_.reserve(num_nodes);
  online_.reserve(num_nodes);
  epoch_.reserve(num_nodes);
  bytes_received_per_node_.reserve(num_nodes);
  node_rngs_.reserve(num_nodes);
}

void NetSim::EnableParallel(common::ThreadPool* pool, SimTime batch_window) {
  assert(!started_);
  pool_ = pool;
  batch_window_ = batch_window;
}

common::Rng& NetSim::RngFor(size_t node) {
  assert(node < node_rngs_.size());
  return node_rngs_[node];
}

size_t NetSim::AddNode(std::unique_ptr<Node> node) {
  assert(!started_);
  nodes_.push_back(std::move(node));
  name_ids_.push_back(0);
  online_.push_back(true);
  epoch_.push_back(0);
  bytes_received_per_node_.push_back(0);
  // Forked here, in index order, so the stream is a pure function of
  // (seed, node index) whether or not a pool is ever attached.
  node_rngs_.push_back(rng_.Fork());
  return nodes_.size() - 1;
}

void NetSim::SetNodeName(size_t node, std::string name) {
  assert(node < name_ids_.size());
  if (name_ids_[node] != 0) {
    name_pool_[name_ids_[node] - 1] = std::move(name);
    return;
  }
  name_pool_.push_back(std::move(name));
  name_ids_[node] = static_cast<uint32_t>(name_pool_.size());
}

std::string NetSim::NodeName(size_t node) const {
  assert(node < name_ids_.size());
  const uint32_t id = name_ids_[node];
  if (id != 0) return name_pool_[id - 1];
  return "node/" + std::to_string(node);
}

NetStats NetSim::stats() const {
  NetStats stats;
  for (const StatRow& row : stat_rows_) {
    stats.events_processed += row.events_processed;
    stats.messages_sent += row.messages_sent;
    stats.messages_delivered += row.messages_delivered;
    stats.messages_dropped += row.messages_dropped;
    stats.bytes_sent += row.bytes_sent;
    stats.partition_drops += row.partition_drops;
    stats.messages_corrupted += row.messages_corrupted;
    stats.retries += row.retries;
    stats.timers_dropped_offline += row.timers_dropped_offline;
  }
  stats.bytes_received_per_node = bytes_received_per_node_;
  return stats;
}

void NetSim::CountRetryFor() {
  stat_rows_[0].retries += 1;
  PDS2_M_COUNT("dml.net.retries", 1);
}

size_t NetSim::NumPartitions() const {
  constexpr size_t kMaxPartitions = 64;
  return std::min(kMaxPartitions, std::max<size_t>(1, nodes_.size()));
}

size_t NetSim::PartitionOf(size_t node) const {
  // Contiguous block partitioning: partition p owns node indices
  // [p*n/P, (p+1)*n/P) — neighbouring nodes share a partition, so one
  // worker touches one contiguous range of every per-node array.
  return node * NumPartitions() / nodes_.size();
}

void NetSim::Start() {
  assert(!started_);
  started_ = true;
  const size_t partitions = NumPartitions();
  stat_rows_.resize(1 + partitions);
  partition_outboxes_.resize(partitions);
  partition_events_.resize(partitions);
  for (size_t i = 0; i < nodes_.size(); ++i) {
    NodeContext ctx(*this, i);
    nodes_[i]->OnStart(ctx);
  }
}

void NetSim::ScheduleEvent(SimTime time, PdsEvent event) {
  if (time < queue_.frontier()) {
    // A windowed batch popped the wheel ahead of the clock; this event
    // lands behind the frontier. Park it in the retro heap — it is
    // strictly earlier than everything left in the wheel (see netsim.h).
    retro_.push_back(RetroEntry{time, retro_seq_++, std::move(event)});
    std::push_heap(retro_.begin(), retro_.end(), RetroLater{});
    return;
  }
  queue_.Schedule(time, std::move(event));
}

bool NetSim::PopNext(SimTime bound, SimTime* time, PdsEvent* event) {
  // A retro event is always earlier than any wheel event.
  if (!retro_.empty() && retro_.front().time <= bound) {
    std::pop_heap(retro_.begin(), retro_.end(), RetroLater{});
    *time = retro_.back().time;
    *event = std::move(retro_.back().event);
    retro_.pop_back();
    return true;
  }
  return queue_.PopUntil(bound, time, event);
}

void NetSim::SendFrom(size_t from, size_t to, Bytes payload,
                      obs::TraceContext trace) {
  assert(to < nodes_.size());
  StatRow& row = stat_rows_[0];
  row.messages_sent += 1;
  row.bytes_sent += payload.size();
  PDS2_M_COUNT("dml.net.messages_sent", 1);
  PDS2_M_COUNT("dml.net.bytes_sent", payload.size());

  // The installed fault model is consulted first: a partition blocks the
  // link outright; link faults stack extra loss / latency / corruption on
  // top of the homogeneous NetConfig link. All RNG draws below are gated on
  // their probability being positive so that runs without faults consume
  // the exact same stream as before the fault layer existed. SendFrom only
  // ever runs on the driving thread (merge phase or outside a batch), in
  // event order, so these shared draws are deterministic at any pool size.
  LinkFaultHook::Effect effect;
  if (fault_hook_ != nullptr) {
    effect = fault_hook_->OnLink(from, to, clock_.Now());
  }
  if (effect.blocked) {
    row.partition_drops += 1;
    row.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.partition_drops", 1);
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
    return;
  }
  if (config_.drop_rate > 0.0 && rng_.NextBool(config_.drop_rate)) {
    row.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
    return;
  }
  if (effect.extra_drop > 0.0 && rng_.NextBool(effect.extra_drop)) {
    row.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
    return;
  }

  SimTime latency = config_.base_latency;
  if (config_.latency_jitter > 0) {
    latency += rng_.NextU64(config_.latency_jitter);
  }
  if (config_.bandwidth_bytes_per_sec > 0) {
    latency += static_cast<SimTime>(
        static_cast<double>(payload.size()) /
        config_.bandwidth_bytes_per_sec * common::kMicrosPerSecond);
  }
  if (effect.latency_mult != 1.0) {
    latency = static_cast<SimTime>(static_cast<double>(latency) *
                                   effect.latency_mult);
  }

  if (effect.corrupt_rate > 0.0 && !payload.empty() &&
      rng_.NextBool(effect.corrupt_rate)) {
    payload[rng_.NextU64(payload.size())] ^=
        static_cast<uint8_t>(1 + rng_.NextU64(255));
    row.messages_corrupted += 1;
    PDS2_M_COUNT("dml.net.messages_corrupted", 1);
  }

  PdsEvent event;
  event.kind = PdsEvent::Kind::kMessage;
  event.target = static_cast<uint32_t>(to);
  event.from = static_cast<uint32_t>(from);
  event.target_epoch = epoch_[to];
  event.payload = MsgBuf(std::move(payload));
  event.trace = trace;
  ScheduleEvent(clock_.Now() + latency, std::move(event));
}

void NetSim::SetTimerFor(size_t node, SimTime delay, uint64_t timer_id,
                         obs::TraceContext trace) {
  PdsEvent event;
  event.kind = PdsEvent::Kind::kTimer;
  event.target = static_cast<uint32_t>(node);
  event.timer_id = timer_id;
  event.target_epoch = epoch_[node];
  event.trace = trace;
  ScheduleEvent(clock_.Now() + delay, std::move(event));
}

void NetSim::SetOnline(size_t node, bool online) {
  assert(node < online_.size());
  assert(!in_batch_);  // use NodeContext::SetOnline inside a batch
  const bool was_online = online_[node];
  online_[node] = online;
  if (!online && was_online) {
    // Crash: start a new life. Everything scheduled against the old life
    // (timers, in-flight messages) is dropped at fire time via AdmitEvent.
    ++epoch_[node];
  }
  if (started_ && online && !was_online) {
    NodeContext ctx(*this, node);
    nodes_[node]->OnRestart(ctx);
  }
}

bool NetSim::AdmitEvent(const PdsEvent& event, StatRow& row) {
  const bool stale = event.target_epoch != epoch_[event.target];
  if (online_[event.target] && !stale) return true;
  if (event.kind == PdsEvent::Kind::kMessage) {
    row.messages_dropped += 1;
    PDS2_M_COUNT("dml.net.messages_dropped", 1);
  } else {
    row.timers_dropped_offline += 1;
    PDS2_M_COUNT("dml.net.timers_dropped_offline", 1);
  }
  return false;
}

void NetSim::DispatchEvent(PdsEvent& event, NodeContext::Outbox& outbox,
                           StatRow& row) {
  // Delivery re-establishes the sender's causal context: the handler span
  // parents under the span that sent the message (or armed the timer), and
  // is labeled with the receiving node's identity. All scopes are
  // single-branch no-ops while tracing is disabled — including the node
  // label, which is only formatted when a tracer will read it.
  obs::TraceContextScope trace_scope(event.trace);
  obs::NodeScope node_scope(
      "", obs::TracingEnabled() ? NodeName(event.target) : std::string());
  NodeContext ctx(*this, event.target, &outbox);
  if (event.kind == PdsEvent::Kind::kMessage) {
    row.messages_delivered += 1;
    PDS2_M_COUNT("dml.net.messages_delivered", 1);
    bytes_received_per_node_[event.target] += event.payload.size();
    obs::ScopedSpan span("dml.net.deliver", &clock_);
    nodes_[event.target]->OnMessage(
        ctx, event.from, event.payload.AsBytes(outbox.delivery_scratch));
  } else {
    obs::ScopedSpan span("dml.net.timer", &clock_);
    nodes_[event.target]->OnTimer(ctx, event.timer_id);
  }
}

void NetSim::SetTickHook(SimTime interval,
                         std::function<void(SimTime)> hook) {
  tick_interval_ = hook ? interval : 0;
  tick_hook_ = std::move(hook);
  next_tick_ = clock_.Now() + tick_interval_;
}

void NetSim::FireTicksBefore(SimTime bound) {
  while (tick_interval_ > 0 && next_tick_ < bound) {
    const SimTime tick = next_tick_;
    next_tick_ += tick_interval_;
    clock_.AdvanceTo(tick);
    tick_hook_(tick);
  }
}

void NetSim::RunUntil(SimTime t) {
  assert(started_);
  PDS2_TRACE_SPAN_SIM("dml.net.run_until", &clock_);
  SimTime batch_time = 0;
  PdsEvent event;
  while (PopNext(t, &batch_time, &event)) {
    // One batch: every pending event within `batch_window_` of the earliest
    // one, treated as concurrent and stamped at the batch start time. New
    // events produced by the batch are scheduled relative to that stamp, so
    // an event can fire at most `batch_window_` early — the bounded
    // approximation that buys parallelism (0 = exact-tie batching only).
    const SimTime horizon = std::min(batch_time + batch_window_, t);
    // Ticks due strictly before this batch's stamp fire now, sequentially,
    // against a quiescent sim; an event stamped at exactly a tick time
    // executes before the tick observes it. Batch formation is
    // pool-independent, so tick placement is too.
    FireTicksBefore(batch_time);
    clock_.AdvanceTo(batch_time);

    batch_.clear();
    SimTime event_time = 0;
    do {
      batch_.push_back(std::move(event));
    } while (PopNext(horizon, &event_time, &event));
    stat_rows_[0].events_processed += batch_.size();

    // Bucket the batch by target partition, preserving batch order inside
    // each bucket: one task per partition, so a node's handlers never run
    // concurrently with themselves, and each worker touches one contiguous
    // block of the per-node arrays plus its own outbox and stats row.
    active_partitions_.clear();
    for (size_t idx = 0; idx < batch_.size(); ++idx) {
      const size_t p = PartitionOf(batch_[idx].target);
      if (partition_events_[p].empty()) active_partitions_.push_back(p);
      partition_events_[p].push_back(static_cast<uint32_t>(idx));
    }

    // Admission (offline/stale filtering), delivery accounting and handler
    // execution all happen inside the partition task: churn is deferred
    // to the merge phase below, so online_/epoch_ are frozen for the whole
    // batch and the checks are race-free and order-independent. Without a
    // pool (or with one thread) the tasks run inline in ascending order.
    auto run_partition = [&](size_t a) {
      const size_t p = active_partitions_[a];
      NodeContext::Outbox& outbox = partition_outboxes_[p];
      StatRow& row = stat_rows_[1 + p];
      for (const uint32_t idx : partition_events_[p]) {
        PdsEvent& event = batch_[idx];
        outbox.current_event = idx;
        // Each worker thread has its own open-span stack, so installing
        // the remote context inside DispatchEvent is what parents this
        // handler (and the ops it buffers) under the sender's span.
        if (AdmitEvent(event, row)) DispatchEvent(event, outbox, row);
      }
    };
    in_batch_ = true;
    if (pool_ != nullptr && pool_->NumThreads() > 1 &&
        active_partitions_.size() > 1) {
      pool_->ParallelFor(0, active_partitions_.size(), run_partition);
    } else {
      for (size_t a = 0; a < active_partitions_.size(); ++a) {
        run_partition(a);
      }
    }
    in_batch_ = false;

    // Merge: apply buffered side effects in batch event order. Each
    // partition's op list is already sorted by event index (the worker
    // processed its events in batch order), so the merge is one linear
    // walk with a cursor per partition — no sorting. All shared-RNG draws
    // (drop, jitter, corruption) happen here, sequentially, as do churn
    // transitions and their OnRestart callbacks — deterministic for any
    // pool size.
    for (size_t idx = 0; idx < batch_.size(); ++idx) {
      NodeContext::Outbox& outbox =
          partition_outboxes_[PartitionOf(batch_[idx].target)];
      size_t& cursor = outbox.merged;
      while (cursor < outbox.ops.size() &&
             outbox.ops[cursor].event_index == idx) {
        NodeContext::Outbox::Op& op = outbox.ops[cursor++];
        switch (op.kind) {
          case NodeContext::Outbox::OpKind::kSend:
            SendFrom(batch_[idx].target, op.node, std::move(op.payload),
                     op.trace);
            break;
          case NodeContext::Outbox::OpKind::kTimer:
            SetTimerFor(batch_[idx].target, op.delay, op.timer_id, op.trace);
            break;
          case NodeContext::Outbox::OpKind::kChurn:
            SetOnline(op.node, op.online);
            break;
        }
      }
    }
    for (const size_t p : active_partitions_) {
      NodeContext::Outbox& outbox = partition_outboxes_[p];
      if (outbox.retries > 0) {
        stat_rows_[0].retries += outbox.retries;
        PDS2_M_COUNT("dml.net.retries", outbox.retries);
      }
      outbox.ops.clear();
      outbox.merged = 0;
      outbox.retries = 0;
      partition_events_[p].clear();
    }
  }
  FireTicksBefore(t + 1);  // ticks at exactly `t` fire too
  clock_.AdvanceTo(t);
}

}  // namespace pds2::dml
