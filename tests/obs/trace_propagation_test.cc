// Cross-node trace-context propagation: the TraceContext riding NetSim
// message/timer envelopes must stitch the receiver's delivery span under
// the sender's span, in sequential and in parallel batch mode; plus the
// tracer's memory bound, epoch guard, cross-thread parentage and export
// determinism — the edge cases a long chaos run actually hits.

#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <vector>

#include "common/thread_pool.h"
#include "dml/netsim.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pds2::obs {
namespace {

using common::Bytes;
using common::SimTime;

class TracePropagationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    Tracer::Global().Reset();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    Tracer::Global().SetCapacity(Tracer::kDefaultCapacity);
    Tracer::Global().Reset();
  }

  static std::vector<const SpanRecord*> SpansNamed(
      const std::vector<SpanRecord>& spans, const std::string& name) {
    std::vector<const SpanRecord*> out;
    for (const SpanRecord& span : spans) {
      if (span.name == name) out.push_back(&span);
    }
    return out;
  }
};

// Two nodes bouncing one message back and forth `rounds` times.
class PingPongNode : public dml::Node {
 public:
  PingPongNode(size_t peer, int rounds) : peer_(peer), rounds_(rounds) {}

  void OnStart(dml::NodeContext& ctx) override {
    if (ctx.self() == 0) ctx.Send(peer_, Bytes{1});
  }
  void OnMessage(dml::NodeContext& ctx, size_t /*from*/,
                 const Bytes& payload) override {
    if (payload[0] < rounds_) {
      ctx.Send(peer_, Bytes{static_cast<uint8_t>(payload[0] + 1)});
    }
  }

 private:
  size_t peer_;
  uint8_t rounds_;
};

// Builds the two-node ping-pong sim, runs it, and returns the tracer
// snapshot. `parallel` runs the handlers on `pool`'s worker threads.
std::vector<SpanRecord> RunPingPong(bool parallel, common::ThreadPool* pool) {
  dml::NetConfig config;
  config.drop_rate = 0.0;
  dml::NetSim sim(config, /*seed=*/11);
  sim.AddNode(std::make_unique<PingPongNode>(1, 6));
  sim.AddNode(std::make_unique<PingPongNode>(0, 6));
  sim.SetNodeName(0, "role/ping");
  sim.SetNodeName(1, "role/pong");
  if (parallel) sim.EnableParallel(pool);
  sim.Start();
  sim.RunUntil(10 * common::kMicrosPerSecond);
  return Tracer::Global().Snapshot();
}

void ExpectDeliveryChain(const std::vector<SpanRecord>& spans) {
  std::vector<const SpanRecord*> delivers;
  for (const SpanRecord& span : spans) {
    if (span.name == "dml.net.deliver") delivers.push_back(&span);
  }
  ASSERT_GE(delivers.size(), 6u);
  // Every delivery after the first parents under the previous one — the
  // context rode the message envelope across the node boundary — and the
  // whole exchange shares one trace id while alternating node labels.
  for (size_t i = 1; i < delivers.size(); ++i) {
    EXPECT_EQ(delivers[i]->parent, delivers[i - 1]->id) << "hop " << i;
    EXPECT_EQ(delivers[i]->trace_id, delivers[0]->trace_id) << "hop " << i;
    EXPECT_NE(delivers[i]->node, delivers[i - 1]->node) << "hop " << i;
  }
  EXPECT_EQ(delivers[0]->node, "role/pong");  // node 0 sent the first ping
}

TEST_F(TracePropagationTest, MessageEnvelopeCarriesContextSequential) {
  ExpectDeliveryChain(RunPingPong(/*parallel=*/false, nullptr));
}

TEST_F(TracePropagationTest, MessageEnvelopeCarriesContextParallel) {
  // On a pool the context is captured into the outbox on the worker thread
  // and re-applied when the batch drains; the chain must come out
  // identical in shape.
  common::ThreadPool pool(4);
  ExpectDeliveryChain(RunPingPong(/*parallel=*/true, &pool));
}

// A node that re-arms a timer a few times; each firing must parent under
// the span that armed it (the previous firing's delivery span).
class RearmNode : public dml::Node {
 public:
  void OnStart(dml::NodeContext& ctx) override { ctx.SetTimer(1000, 7); }
  void OnMessage(dml::NodeContext&, size_t, const Bytes&) override {}
  void OnTimer(dml::NodeContext& ctx, uint64_t timer_id) override {
    if (++fires < 5) ctx.SetTimer(1000, timer_id);
  }
  int fires = 0;
};

TEST_F(TracePropagationTest, TimerEnvelopeCarriesContext) {
  dml::NetSim sim(dml::NetConfig{}, /*seed=*/2);
  sim.AddNode(std::make_unique<RearmNode>());
  sim.Start();
  sim.RunUntil(common::kMicrosPerSecond);

  const auto spans = Tracer::Global().Snapshot();
  const auto timers = SpansNamed(spans, "dml.net.timer");
  ASSERT_EQ(timers.size(), 5u);
  for (size_t i = 1; i < timers.size(); ++i) {
    EXPECT_EQ(timers[i]->parent, timers[i - 1]->id);
    EXPECT_EQ(timers[i]->trace_id, timers[0]->trace_id);
  }
}

TEST_F(TracePropagationTest, CapacityBoundDropsNewSpansAndCounts) {
  Counter& dropped = Registry::Global().GetCounter("obs.trace.dropped");
  const uint64_t counter_before = dropped.Value();
  Tracer::Global().SetCapacity(3);
  for (int i = 0; i < 10; ++i) {
    ScopedSpan span("trace.capped");
    if (i >= 3) {
      EXPECT_EQ(span.id(), 0u);
    }
  }
  EXPECT_EQ(Tracer::Global().SpanCount(), 3u);
  EXPECT_EQ(Tracer::Global().DroppedCount(), 7u);
  EXPECT_EQ(dropped.Value() - counter_before, 7u);
  // Children of a dropped span attach to the surviving enclosing span
  // instead of dangling: ids stay dense, the DAG stays well formed.
  Tracer::Global().SetCapacity(0);
  ScopedSpan outer("trace.outer");
  Tracer::Global().SetCapacity(Tracer::Global().SpanCount());
  ScopedSpan dropped_span("trace.dropped");
  EXPECT_EQ(dropped_span.id(), 0u);
  Tracer::Global().SetCapacity(0);
  ScopedSpan child("trace.child");
  const auto spans = Tracer::Global().Snapshot();
  ASSERT_FALSE(spans.empty());
  EXPECT_EQ(spans.back().name, "trace.child");
  EXPECT_EQ(spans.back().parent, outer.id());
}

TEST_F(TracePropagationTest, ResetRacingAnOpenSpanIsGuardedByEpoch) {
  auto outer = std::make_unique<ScopedSpan>("trace.outer");
  ASSERT_NE(outer->id(), 0u);
  const TraceContext stale = outer->context();
  Tracer::Global().Reset();

  // A span opened after the reset must not parent under the stale open
  // entry the reset left on this thread's stack.
  {
    ScopedSpan fresh("trace.fresh");
    EXPECT_EQ(fresh.id(), 1u);
  }
  const auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].parent, 0u);

  // The stale context installs nothing, and the stale span's destructor
  // records nothing in the new generation.
  {
    TraceContextScope scope(stale);
    ScopedSpan after("trace.after_stale_scope");
    EXPECT_EQ(Tracer::Global().Snapshot().back().parent, 0u);
  }
  outer.reset();
  EXPECT_EQ(Tracer::Global().SpanCount(), 2u);
}

// Satellite regression: early End() followed by the destructor must stay a
// no-op even when a Tracer::Reset lands between them.
TEST_F(TracePropagationTest, EarlyEndThenDestructorAcrossResetIsANoOp) {
  {
    ScopedSpan span("trace.early_end");
    span.End();
    Tracer::Global().Reset();
    // Destructor runs here, after the reset, against a cleared id.
  }
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
  { ScopedSpan next("trace.next"); }
  const auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].id, 1u);
  EXPECT_EQ(spans[0].name, "trace.next");
  EXPECT_NE(spans[0].wall_end_ns, 0u);
}

TEST_F(TracePropagationTest, ThreadPoolWorkersInheritContextViaScope) {
  common::ThreadPool pool(3);
  TraceContext parent_ctx;
  uint64_t parent_id = 0;
  {
    ScopedSpan parent("trace.submit_root");
    parent_ctx = parent.context();
    parent_id = parent.id();

    // A multi-thread pool runs every index on a worker, never on this
    // thread, where `parent` is open.
    pool.ParallelFor(0, 16, [parent_ctx](size_t i) {
      if (i % 2 == 0) {
        TraceContextScope scope(parent_ctx);
        ScopedSpan work("trace.worker_with_ctx");
      } else {
        ScopedSpan work("trace.worker_bare");
      }
    });
  }

  const auto spans = Tracer::Global().Snapshot();
  const auto with_ctx = SpansNamed(spans, "trace.worker_with_ctx");
  const auto bare = SpansNamed(spans, "trace.worker_bare");
  ASSERT_EQ(with_ctx.size(), 8u);
  ASSERT_EQ(bare.size(), 8u);
  for (const SpanRecord* span : with_ctx) {
    // Workers run on different threads: without the scope there is no
    // thread-local ancestry, so the parent edge proves the carried context.
    EXPECT_EQ(span->parent, parent_id);
    EXPECT_EQ(span->trace_id, parent_ctx.trace_id);
  }
  for (const SpanRecord* span : bare) {
    EXPECT_EQ(span->parent, 0u);
    EXPECT_NE(span->trace_id, parent_ctx.trace_id);
  }
}

TEST_F(TracePropagationTest, SeededRunsExportIdenticalCausalSkeletons) {
  const std::vector<SpanRecord> first =
      RunPingPong(/*parallel=*/false, nullptr);
  Tracer::Global().Reset();
  const std::vector<SpanRecord> second =
      RunPingPong(/*parallel=*/false, nullptr);

  // Wall-clock fields differ run to run; everything causal must not —
  // Reset restarts span and trace ids at 1 exactly so that two identical
  // seeded runs are comparable id for id.
  ASSERT_EQ(first.size(), second.size());
  ASSERT_FALSE(first.empty());
  for (size_t i = 0; i < first.size(); ++i) {
    EXPECT_EQ(first[i].id, second[i].id) << i;
    EXPECT_EQ(first[i].parent, second[i].parent) << i;
    EXPECT_EQ(first[i].trace_id, second[i].trace_id) << i;
    EXPECT_EQ(first[i].name, second[i].name) << i;
    EXPECT_EQ(first[i].node, second[i].node) << i;
    EXPECT_EQ(first[i].links, second[i].links) << i;
    EXPECT_EQ(first[i].has_sim, second[i].has_sim) << i;
    EXPECT_EQ(first[i].sim_start, second[i].sim_start) << i;
    EXPECT_EQ(first[i].sim_end, second[i].sim_end) << i;
  }
}

}  // namespace
}  // namespace pds2::obs
