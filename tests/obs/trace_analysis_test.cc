// obs::TraceAnalysis: run-export round-trip (spans and health records
// through the one codec), DAG queries (components, roots, descendants
// through links), sim-time critical paths with latency attribution,
// fan-out stats, and the Chrome trace_event export.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"

namespace pds2::obs {
namespace {

// Convenience builder for hand-authored DAG fixtures.
SpanRecord Span(uint64_t id, uint64_t parent, const std::string& name,
                const std::string& node, common::SimTime sim_start,
                common::SimTime sim_end,
                std::vector<uint64_t> links = {}) {
  SpanRecord span;
  span.id = id;
  span.parent = parent;
  span.trace_id = 1;
  span.name = name;
  span.node = node;
  span.links = std::move(links);
  span.wall_start_ns = 10 * id;
  span.wall_end_ns = 10 * id + 5;
  span.has_sim = true;
  span.sim_start = sim_start;
  span.sim_end = sim_end;
  return span;
}

TEST(TraceAnalysisTest, JsonLinesRoundTripPreservesEverySemanticField) {
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  {
    ScopedSpan outer("round.outer");
    common::SimTime now = 125;
    ScopedSpan sim_span("round.sim \"quoted\"", &now);
    {
      ScopedSpan inner("round.inner");
      inner.AddLink(outer.context());
    }
    now = 300;
  }
  std::ostringstream exported;
  Tracer::Global().WriteJsonLines(exported);
  const std::vector<SpanRecord> original = Tracer::Global().Snapshot();
  SetTracingEnabled(false);
  Tracer::Global().Reset();

  std::istringstream in(exported.str());
  RunExport run;
  std::string error;
  ASSERT_TRUE(ParseExportJsonLines(in, &run, &error)) << error;
  const std::vector<SpanRecord>& parsed = run.spans;
  ASSERT_EQ(parsed.size(), original.size());
  for (size_t i = 0; i < parsed.size(); ++i) {
    EXPECT_EQ(parsed[i].id, original[i].id);
    EXPECT_EQ(parsed[i].parent, original[i].parent);
    EXPECT_EQ(parsed[i].trace_id, original[i].trace_id);
    EXPECT_EQ(parsed[i].name, original[i].name);
    EXPECT_EQ(parsed[i].node, original[i].node);
    EXPECT_EQ(parsed[i].thread, original[i].thread);
    EXPECT_EQ(parsed[i].links, original[i].links);
    EXPECT_EQ(parsed[i].wall_start_ns, original[i].wall_start_ns);
    EXPECT_EQ(parsed[i].wall_end_ns, original[i].wall_end_ns);
    EXPECT_EQ(parsed[i].has_sim, original[i].has_sim);
    EXPECT_EQ(parsed[i].sim_start, original[i].sim_start);
    EXPECT_EQ(parsed[i].sim_end, original[i].sim_end);
  }
}

TEST(TraceAnalysisTest, ParserRejectsMalformedLinesWithPosition) {
  const struct {
    const char* line;
    const char* why;
  } cases[] = {
      {"{\"parent\":0,\"name\":\"x\"}", "missing span id"},
      {"{\"id\":1}", "missing span name"},
      {"{\"id\":1,\"name\":\"x\",\"bogus\":3}", "unknown key"},
      {"{\"id\":1,\"name\":\"x\"", "expected ','"},
      {"not json", "expected '{'"},
      {"{\"id\":1,\"name\":\"a\x01\"}", "control byte in string"},
      {"{\"id\":1,\"name\":\"a\\/b\"}", "unsupported escape"},
      {"{\"id\":1,\"name\":\"a\\u0041\"}", "unsupported escape"},
      {"{\"id\":1,\"type\":\"meta\"}", "unknown key \"type\""},
      {"{\"type\":\"bogus\"}", "unknown record type"},
      {"{\"type\":\"meta\",\"samples\":1,\"extra\":2}", "unknown key"},
      {"{\"type\":\"sample\",\"index\":\"0\"}", "expected number"},
      {"{\"type\":\"sample\",\"index\":18446744073709551616}",
       "number out of range"},
      {"{\"type\":\"series\",\"name\":\"s\",\"values\":[1,]}",
       "expected number"},
      {"{\"type\":\"series\",\"values\":[1]}", "missing series name"},
      {"{\"type\":\"alert\",\"rule\":\"r\",\"fired\":yes}",
       "expected boolean"},
      {"{\"type\":\"alert\",\"rule\":\"r\",\"severity\":\"dire\"}",
       "unknown severity"},
      {"{\"type\":\"alert\",\"observed\":inf,\"rule\":\"r\"}",
       "expected number"},
      {"{\"type\":\"alert\",\"sample\":1}", "missing alert rule"},
  };
  for (const auto& c : cases) {
    std::istringstream in(std::string(c.line) + "\n");
    RunExport run;
    std::string error;
    EXPECT_FALSE(ParseExportJsonLines(in, &run, &error)) << c.line;
    EXPECT_NE(error.find(c.why), std::string::npos)
        << "got \"" << error << "\" for " << c.line;
    EXPECT_NE(error.find("line 1"), std::string::npos) << error;
    EXPECT_NE(error.find("at offset"), std::string::npos) << error;
  }
  // Blank lines are not errors.
  std::istringstream in("\n   \n{\"id\":1,\"name\":\"ok\"}\n\n");
  RunExport run;
  std::string error;
  ASSERT_TRUE(ParseExportJsonLines(in, &run, &error)) << error;
  ASSERT_EQ(run.spans.size(), 1u);
  EXPECT_FALSE(run.spans[0].has_sim);
}

// Every record the exporters write is one line with no raw control byte,
// whatever bytes its names carry, and reads back unchanged.
TEST(TraceAnalysisTest, EveryExportedRecordIsOneEscapedLineThatRoundTrips) {
  const std::string label = "actor\r\x01name";
  const std::string detail = "two\nlines \"quoted\" \\ \x1f";
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  {
    NodeScope node(label);
    ScopedSpan span("odd \"span\"\tname");
  }
  SetTracingEnabled(false);

  Registry reg;
  reg.GetGauge("odd\x02series").Set(-3);
  TimeSeries ts({.capacity = 4, .max_series = 16}, &reg);
  HealthMonitor monitor(&ts);
  monitor.AddRule(InvariantRule("odd\nrule", Severity::kCritical,
                                [&](const TimeSeries&) {
                                  return InvariantResult{false, 0.5, 1e300,
                                                         detail};
                                }));
  ts.Sample(1000, /*has_sim=*/true, 7);
  monitor.EvaluateLatest();

  std::ostringstream exported;
  Tracer::Global().WriteJsonLines(exported);
  ts.WriteJsonLines(exported);
  monitor.WriteJsonLines(exported);
  Tracer::Global().Reset();

  const std::string text = exported.str();
  size_t lines = 0;
  for (const char c : text) {
    if (c == '\n') {
      ++lines;
    } else {
      EXPECT_GE(static_cast<unsigned char>(c), 0x20) << text;
    }
  }
  std::istringstream in(text);
  RunExport run;
  std::string error;
  ASSERT_TRUE(ParseExportJsonLines(in, &run, &error)) << error;
  // Spans, then meta, samples, series and alerts: one line each.
  EXPECT_EQ(lines, run.spans.size() + 1 + run.health.sample_lines.size() +
                       run.health.series.size() + run.health.alerts.size());
  ASSERT_EQ(run.spans.size(), 1u);
  EXPECT_EQ(run.spans[0].node, label);
  EXPECT_EQ(run.spans[0].name, "odd \"span\"\tname");
  ASSERT_EQ(run.health.series.count("odd\x02series"), 1u);
  EXPECT_EQ(run.health.series.at("odd\x02series").values,
            (std::vector<double>{-3}));
  ASSERT_EQ(run.health.alerts.size(), 1u);
  const AlertEvent& alert = run.health.alerts[0];
  EXPECT_EQ(alert.rule_id, "odd\nrule");
  EXPECT_EQ(alert.detail, detail);
  EXPECT_EQ(alert.severity, Severity::kCritical);
  EXPECT_TRUE(alert.fired);
  EXPECT_TRUE(alert.has_sim);
  EXPECT_EQ(alert.sim_us, 7u);
}

// An alert's observed and bound survive the export bit for bit: the
// supply-conservation gap of 256 on 1e18 must stay visible.
TEST(TraceAnalysisTest, AlertValuesParseBackExactly) {
  Registry reg;
  TimeSeries ts({.capacity = 4, .max_series = 16}, &reg);
  HealthMonitor monitor(&ts);
  const double supply = 1e18;
  const double observed = supply + 256;
  monitor.AddRule(InvariantRule("chain.supply-conservation",
                                Severity::kCritical, [&](const TimeSeries&) {
                                  return InvariantResult{false, observed,
                                                         supply, ""};
                                }));
  ts.Sample(1000);
  monitor.EvaluateLatest();

  std::stringstream exported;
  monitor.WriteJsonLines(exported);
  RunExport run;
  std::string error;
  ASSERT_TRUE(ParseExportJsonLines(exported, &run, &error)) << error;
  ASSERT_EQ(run.health.alerts.size(), 1u);
  EXPECT_EQ(run.health.alerts[0].observed, observed);
  EXPECT_EQ(run.health.alerts[0].bound, supply);
  EXPECT_NE(run.health.alerts[0].observed, run.health.alerts[0].bound);
}

// Fixture DAG, two components:
//
//   1 run@consumer        [0, 100]
//   ├─ 2 post@consumer    [0, 20]
//   │   └─ 4 deliver@validator [20, 30]
//   │       └─ 5 apply@validator [30, 90]   (link: 3)
//   └─ 3 submit@consumer  [10, 15]
//
//   6 stray@other         [0, 50]
std::vector<SpanRecord> FixtureSpans() {
  return {
      Span(1, 0, "run", "consumer/c", 0, 100),
      Span(2, 1, "post", "consumer/c", 0, 20),
      Span(3, 1, "submit", "consumer/c", 10, 15),
      Span(4, 2, "deliver", "validator/0", 20, 30),
      Span(5, 4, "apply", "validator/0", 30, 90, {3}),
      Span(6, 0, "stray", "other/x", 0, 50),
  };
}

TEST(TraceAnalysisTest, DagQueriesFollowParentAndLinkEdges) {
  TraceDag dag(FixtureSpans());
  EXPECT_EQ(dag.size(), 6u);
  EXPECT_EQ(dag.NumComponents(), 2u);
  EXPECT_EQ(dag.Roots(), (std::vector<uint64_t>{1, 6}));
  EXPECT_EQ(dag.Children(1), (std::vector<uint64_t>{2, 3}));
  // Span 5 is a child of both its tree parent 4 and its link source 3.
  EXPECT_EQ(dag.Children(3), (std::vector<uint64_t>{5}));
  EXPECT_EQ(dag.Component(4), (std::vector<uint64_t>{1, 2, 3, 4, 5}));
  EXPECT_EQ(dag.Descendants(2), (std::vector<uint64_t>{2, 4, 5}));
  EXPECT_EQ(dag.NodesInComponent(1),
            (std::vector<std::string>{"consumer/c", "validator/0"}));
  ASSERT_TRUE(dag.Find("apply") != nullptr);
  EXPECT_EQ(dag.Find("apply")->id, 5u);
  EXPECT_TRUE(dag.Find("nope") == nullptr);
  EXPECT_TRUE(dag.Get(99) == nullptr);

  const FanOutStats fan = dag.FanOut();
  EXPECT_EQ(fan.spans, 6u);
  EXPECT_EQ(fan.edges, 5u);  // 1->2, 1->3, 2->4, 4->5, 3->5
  EXPECT_EQ(fan.leaves, 2u);  // 5 and 6 have no causal children
  EXPECT_EQ(fan.max_out_degree, 2u);
  EXPECT_EQ(fan.max_out_degree_span, 1u);
}

TEST(TraceAnalysisTest, CriticalPathWalksBackFromLatestSimEffect) {
  TraceDag dag(FixtureSpans());
  // From the root the run span itself holds the latest sim_end (100, with
  // no descendant tying it), so the path is the root alone.
  const auto path = dag.CriticalPathSim(1);
  ASSERT_EQ(path.size(), 1u);
  EXPECT_EQ(path.front().id, 1u);
  EXPECT_EQ(path.front().charged_sim_us, 100u);

  const auto sub = dag.CriticalPathSim(2);
  ASSERT_EQ(sub.size(), 3u);
  EXPECT_EQ(sub[0].id, 2u);
  EXPECT_EQ(sub[1].id, 4u);
  EXPECT_EQ(sub[2].id, 5u);
  // Marginal attribution: each step charged for the sim time past its
  // predecessor's end.
  EXPECT_EQ(sub[0].charged_sim_us, 20u);   // [0,20] from its own start
  EXPECT_EQ(sub[1].charged_sim_us, 10u);   // 30 - 20
  EXPECT_EQ(sub[2].charged_sim_us, 60u);   // 90 - 30
  EXPECT_EQ(sub[2].node, "validator/0");

  EXPECT_TRUE(dag.CriticalPathSim(99).empty());
}

TEST(TraceAnalysisTest, CriticalPathPrefersDeeperSpanOnTies) {
  // Child 2 ends exactly when its enclosing root 1 does; the walk must
  // surface the child (the actual gating work), not stop at the root.
  std::vector<SpanRecord> spans = {
      Span(1, 0, "run", "a", 0, 50),
      Span(2, 1, "stage", "a", 40, 50),
  };
  TraceDag dag(std::move(spans));
  const auto path = dag.CriticalPathSim(1);
  ASSERT_EQ(path.size(), 2u);
  EXPECT_EQ(path[1].id, 2u);
  EXPECT_EQ(path[1].charged_sim_us, 0u);  // no sim time past the root's end
}

TEST(TraceAnalysisTest, StageStatsAggregateByName) {
  TraceDag dag(FixtureSpans());
  const auto stats = dag.StageStats();
  ASSERT_FALSE(stats.empty());
  // Sorted by descending total sim time: run (100) first.
  EXPECT_EQ(stats[0].name, "run");
  EXPECT_EQ(stats[0].total_sim_us, 100u);
  EXPECT_EQ(stats[0].count, 1u);
  for (const StageStat& stat : stats) {
    if (stat.name == "apply") {
      EXPECT_EQ(stat.total_sim_us, 60u);
      EXPECT_EQ(stat.max_sim_us, 60u);
      EXPECT_EQ(stat.total_wall_ns, 5u);
    }
  }
}

TEST(TraceAnalysisTest, ChromeTraceExportsProcessesEventsAndFlows) {
  std::ostringstream out;
  WriteChromeTrace({FixtureSpans(), {}}, out, /*use_sim_time=*/true);
  const std::string text = out.str();
  // One process per node label...
  EXPECT_NE(text.find("\"process_name\",\"args\":{\"name\":\"consumer/c\"}"),
            std::string::npos);
  EXPECT_NE(text.find("\"name\":\"validator/0\""), std::string::npos);
  // ...complete events in sim microseconds...
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(text.find("\"ts\":30,\"dur\":60,\"name\":\"apply\""),
            std::string::npos);
  // ...and flow arrows for the cross-node parent edge (2 -> 4) and the
  // link edge (3 -> 5).
  EXPECT_NE(text.find("\"ph\":\"s\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"f\""), std::string::npos);
  const auto count = [&](const std::string& needle) {
    size_t n = 0;
    for (size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1)) {
      ++n;
    }
    return n;
  };
  EXPECT_EQ(count("\"ph\":\"s\""), 2u);
  EXPECT_EQ(count("\"ph\":\"f\""), 2u);

  // Wall mode accepts spans without sim fields.
  SpanRecord wall_only;
  wall_only.id = 1;
  wall_only.name = "w";
  wall_only.wall_start_ns = 2000;
  wall_only.wall_end_ns = 5000;
  std::ostringstream wall_out;
  WriteChromeTrace({{wall_only}, {}}, wall_out, /*use_sim_time=*/false);
  EXPECT_NE(wall_out.str().find("\"ts\":2,\"dur\":3,\"name\":\"w\""),
            std::string::npos);
  std::ostringstream sim_out;
  WriteChromeTrace({{wall_only}, {}}, sim_out, /*use_sim_time=*/true);
  EXPECT_EQ(sim_out.str().find("\"ph\":\"X\""), std::string::npos);
}

TEST(TraceAnalysisTest, ChromeTracePutsAlertsInOneHealthProcess) {
  RunExport run{FixtureSpans(), {}};
  const auto alert = [](std::string rule, bool fired, uint64_t sample) {
    AlertEvent event;
    event.rule_id = std::move(rule);
    event.fired = fired;
    event.sample_index = sample;
    event.has_sim = true;
    event.sim_us = 100 * sample;
    event.observed = 0.25;
    return event;
  };
  run.health.sample_lines = {{0, {0, true, 0}}, {9, {0, true, 900}}};
  run.health.alerts = {alert("a.rule", true, 2), alert("a.rule", false, 5),
                       alert("b.rule", true, 4)};
  std::ostringstream out;
  WriteChromeTrace(run, out, /*use_sim_time=*/true);
  const std::string text = out.str();
  // Node processes 1..3, then "health" with one named thread per rule.
  EXPECT_NE(text.find("\"pid\":4,\"name\":\"process_name\",\"args\":"
                      "{\"name\":\"health\"}"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("\"pid\":4,\"tid\":1,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"a.rule\"}"),
            std::string::npos);
  EXPECT_NE(text.find("\"pid\":4,\"tid\":2,\"name\":\"thread_name\","
                      "\"args\":{\"name\":\"b.rule\"}"),
            std::string::npos);
  // Fire→resolve interval, and an alert still active at the last sample.
  EXPECT_NE(text.find("\"ts\":200,\"dur\":300,\"name\":\"a.rule\",\"cat\":"
                      "\"warning\",\"args\":{\"sample\":2,\"observed\":0.25,"
                      "\"bound\":0}"),
            std::string::npos);
  EXPECT_NE(text.find("\"ts\":400,\"dur\":500,\"name\":\"b.rule\""),
            std::string::npos);
}

}  // namespace
}  // namespace pds2::obs
