#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "dml/netsim.h"
#include "obs/trace.h"

namespace pds2::obs {
namespace {

using common::SimTime;

// Every test owns the global tracer: enable, reset, run, assert, reset.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetTracingEnabled(true);
    Tracer::Global().Reset();
  }
  void TearDown() override {
    SetTracingEnabled(false);
    Tracer::Global().Reset();
  }

  const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                             const std::string& name) {
    for (const SpanRecord& span : spans) {
      if (span.name == name) return &span;
    }
    return nullptr;
  }
};

TEST_F(TraceTest, NestedSpansLinkToTheirParent) {
  {
    ScopedSpan outer("trace.outer");
    {
      ScopedSpan inner("trace.inner");
    }
    ScopedSpan sibling("trace.sibling");
  }
  const auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 3u);
  const SpanRecord* outer = FindSpan(spans, "trace.outer");
  const SpanRecord* inner = FindSpan(spans, "trace.inner");
  const SpanRecord* sibling = FindSpan(spans, "trace.sibling");
  ASSERT_TRUE(outer && inner && sibling);
  EXPECT_EQ(outer->parent, 0u);
  EXPECT_EQ(inner->parent, outer->id);
  EXPECT_EQ(sibling->parent, outer->id);
  // Wall-clock containment.
  EXPECT_LE(outer->wall_start_ns, inner->wall_start_ns);
  EXPECT_LE(inner->wall_end_ns, outer->wall_end_ns);
  EXPECT_NE(outer->wall_end_ns, 0u);
}

TEST_F(TraceTest, ExplicitEndMakesSequentialStagesSiblings) {
  // The marketplace lifecycle pattern: one enclosing run span, stage spans
  // closed by hand at each phase boundary.
  ScopedSpan run("trace.run");
  ScopedSpan stage_a("trace.stage_a");
  stage_a.End();
  ScopedSpan stage_b("trace.stage_b");
  stage_b.End();
  run.End();

  const auto spans = Tracer::Global().Snapshot();
  const SpanRecord* a = FindSpan(spans, "trace.stage_a");
  const SpanRecord* b = FindSpan(spans, "trace.stage_b");
  const SpanRecord* r = FindSpan(spans, "trace.run");
  ASSERT_TRUE(a && b && r);
  // stage_b is a sibling of stage_a under the run span — not its child,
  // because stage_a ended before stage_b began.
  EXPECT_EQ(a->parent, r->id);
  EXPECT_EQ(b->parent, r->id);
  EXPECT_LE(a->wall_end_ns, b->wall_start_ns);
  // Double End is harmless.
  stage_b.End();
  EXPECT_EQ(Tracer::Global().SpanCount(), 3u);
}

TEST_F(TraceTest, DisabledTracingRecordsNothing) {
  SetTracingEnabled(false);
  ScopedSpan span("trace.invisible");
  EXPECT_EQ(span.id(), 0u);
  span.End();
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
}

TEST_F(TraceTest, EndAfterResetIsANoOp) {
  auto span = std::make_unique<ScopedSpan>("trace.orphan");
  EXPECT_NE(span->id(), 0u);
  Tracer::Global().Reset();
  span.reset();  // End() fires against the new epoch: must not record
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);
  // The tracer stays usable after the stale End.
  { ScopedSpan next("trace.after_reset"); }
  const auto spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(spans[0].name, "trace.after_reset");
  EXPECT_EQ(spans[0].parent, 0u);
}

TEST_F(TraceTest, JsonLinesExportSkipsOpenSpans) {
  { ScopedSpan done("trace.done"); }
  const uint64_t open_id =
      Tracer::Global().Begin("trace.open", false, 0);  // never ended
  EXPECT_NE(open_id, 0u);
  std::ostringstream out;
  Tracer::Global().WriteJsonLines(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("\"name\":\"trace.done\""), std::string::npos) << text;
  EXPECT_EQ(text.find("trace.open"), std::string::npos) << text;
  EXPECT_NE(text.find("\"wall_dur_ns\":"), std::string::npos);
}

// A node that re-arms a timer every millisecond of simulated time until
// the horizon, so the DES makes many discrete time jumps.
class TickNode : public dml::Node {
 public:
  void OnStart(dml::NodeContext& ctx) override { ctx.SetTimer(1000, 1); }
  void OnMessage(dml::NodeContext&, size_t, const common::Bytes&) override {}
  void OnTimer(dml::NodeContext& ctx, uint64_t timer_id) override {
    ++fires;
    last_fire = ctx.Now();
    if (ctx.Now() < 50'000) ctx.SetTimer(1000, timer_id);
  }

  int fires = 0;
  SimTime last_fire = 0;
};

TEST_F(TraceTest, SimClockSpansRecordSimulatedTimeInANetSimRun) {
  dml::NetConfig config;
  dml::NetSim sim(config, /*seed=*/3);
  auto node = std::make_unique<TickNode>();
  TickNode* tick = node.get();
  sim.AddNode(std::move(node));
  sim.Start();

  constexpr SimTime kHorizon = 60'000;
  {
    ScopedSpan run("trace.sim_run", sim.sim_clock());
    sim.RunUntil(kHorizon);
  }
  ASSERT_GT(tick->fires, 10);

  const auto spans = Tracer::Global().Snapshot();
  const SpanRecord* run = FindSpan(spans, "trace.sim_run");
  ASSERT_TRUE(run != nullptr);
  EXPECT_TRUE(run->has_sim);
  EXPECT_EQ(run->sim_start, 0u);
  // The span closed after the clock advanced through the timer cascade:
  // its simulated duration covers every fire the node observed.
  EXPECT_GE(run->sim_end, tick->last_fire);
  EXPECT_LE(run->sim_end, kHorizon);
  EXPECT_GT(run->sim_end, run->sim_start);

  // NetSim's own instrumentation produced a sim-time span nested under
  // ours (RunUntil opens dml.net.run_until against the same clock).
  const SpanRecord* inner = FindSpan(spans, "dml.net.run_until");
  ASSERT_TRUE(inner != nullptr);
  EXPECT_TRUE(inner->has_sim);
  EXPECT_EQ(inner->parent, run->id);
  EXPECT_GE(inner->sim_end, inner->sim_start);
  EXPECT_LE(inner->sim_end, kHorizon);
}

}  // namespace
}  // namespace pds2::obs
