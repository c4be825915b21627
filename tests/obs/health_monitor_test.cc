#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "obs/flight_recorder.h"
#include "obs/health.h"
#include "obs/health_rules.h"
#include "obs/time_series.h"

namespace pds2::obs {
namespace {

constexpr uint64_t kNs = 1'000'000'000ull;

// Each test owns a Registry + TimeSeries so the global registry (shared
// with other suites in this binary) never leaks series into rule
// evaluation. The flight recorder stays disabled (so critical fires dump
// nothing) except in the dedicated flight-dump test.

class HealthMonitorTest : public ::testing::Test {
 protected:
  HealthMonitorTest() : ts_({.capacity = 64, .max_series = 256}, &reg_) {}

  // Samples once at a synthetic timestamp and evaluates; returns events
  // emitted by this evaluation.
  size_t Step(HealthMonitor& monitor) {
    ++steps_;
    ts_.Sample(steps_ * kNs, /*has_sim=*/true,
               static_cast<common::SimTime>(steps_) *
                   common::kMicrosPerSecond);
    return monitor.EvaluateLatest();
  }

  Registry reg_;
  TimeSeries ts_;
  uint64_t steps_ = 0;
};

TEST_F(HealthMonitorTest, ThresholdRuleFiresAndResolves) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(ThresholdRule("t.too-high", Severity::kWarning, "t.g",
                                Comparison::kGt, 3.0));
  Gauge& g = reg_.GetGauge("t.g");

  g.Set(1);
  EXPECT_EQ(Step(monitor), 0u);
  g.Set(5);
  EXPECT_EQ(Step(monitor), 1u);  // fire
  g.Set(7);
  EXPECT_EQ(Step(monitor), 0u);  // still bad: no re-fire while active
  g.Set(2);
  EXPECT_EQ(Step(monitor), 1u);  // resolve

  const std::vector<AlertEvent> events = monitor.Events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].rule_id, "t.too-high");
  EXPECT_TRUE(events[0].fired);
  EXPECT_EQ(events[0].sample_index, 1u);
  EXPECT_EQ(events[0].first_bad_sample, 1u);
  EXPECT_EQ(events[0].observed, 5.0);
  EXPECT_EQ(events[0].bound, 3.0);
  EXPECT_TRUE(events[0].has_sim);
  EXPECT_FALSE(events[1].fired);
  EXPECT_EQ(events[1].sample_index, 3u);
  EXPECT_EQ(monitor.FireCount(), 1u);
  EXPECT_TRUE(monitor.ActiveAlerts().empty());
  EXPECT_EQ(monitor.FiredRuleIds(), std::vector<std::string>{"t.too-high"});
}

TEST_F(HealthMonitorTest, MissingSeriesIsSkippedNotFired) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(ThresholdRule("t.absent-series", Severity::kCritical,
                                "never.published", Comparison::kGe, 0.0));
  monitor.AddRule(RateRule("t.absent-rate", Severity::kCritical,
                           "never.published", 4, Comparison::kGe, 0.0));
  monitor.AddRule(AbsenceRule("t.absent-stale", Severity::kCritical,
                              "never.published", 1));
  for (int i = 0; i < 5; ++i) EXPECT_EQ(Step(monitor), 0u);
  EXPECT_TRUE(monitor.Events().empty());
  EXPECT_EQ(monitor.FireCount(), 0u);
}

TEST_F(HealthMonitorTest, RateRuleFiresOnSustainedGrowth) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(RateRule("t.retry-storm", Severity::kWarning, "t.c",
                           /*window=*/4, Comparison::kGt,
                           /*bound_per_second=*/5.0));
  Counter& c = reg_.GetCounter("t.c");

  c.Add(1);
  EXPECT_EQ(Step(monitor), 0u);
  c.Add(2);  // 2/s between one-second samples: under the bound
  EXPECT_EQ(Step(monitor), 0u);
  c.Add(40);  // window rate jumps over 5/s
  EXPECT_EQ(Step(monitor), 1u);
  const std::vector<AlertEvent> events = monitor.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_GT(events[0].observed, 5.0);
  EXPECT_EQ(events[0].bound, 5.0);
}

TEST_F(HealthMonitorTest, AbsenceRuleOnlyFiresWhileActivityMoves) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(AbsenceRule("t.stalled", Severity::kWarning, "t.progress",
                              /*max_stale_samples=*/2,
                              /*activity_series=*/"t.traffic"));
  Counter& progress = reg_.GetCounter("t.progress");
  Counter& traffic = reg_.GetCounter("t.traffic");

  // Quiet system: both flat. Staleness grows but the gate stays closed.
  progress.Add(1);
  traffic.Add(1);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(Step(monitor), 0u);

  // Traffic flows while progress stays stuck: fires once stale > 2.
  size_t fired = 0;
  for (int i = 0; i < 4; ++i) {
    traffic.Add(10);
    fired += Step(monitor);
  }
  EXPECT_EQ(fired, 1u);
  EXPECT_EQ(monitor.ActiveAlerts(),
            std::vector<std::string>{"t.stalled"});

  // Progress resumes: the alert resolves.
  progress.Add(1);
  traffic.Add(10);
  EXPECT_EQ(Step(monitor), 1u);
  EXPECT_TRUE(monitor.ActiveAlerts().empty());
}

TEST_F(HealthMonitorTest, InvariantRuleCarriesObservedBoundAndDetail) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(InvariantRule(
      "t.conservation", Severity::kWarning, [](const TimeSeries& ts) {
        InvariantResult r;
        const auto a = ts.Latest("t.a");
        const auto b = ts.Latest("t.b");
        if (!a || !b) return r;
        r.observed = *a + *b;
        r.bound = 10.0;
        r.ok = r.observed == r.bound;
        if (!r.ok) r.detail = "a+b drifted";
        return r;
      }));
  Gauge& a = reg_.GetGauge("t.a");
  Gauge& b = reg_.GetGauge("t.b");

  a.Set(4);
  b.Set(6);
  EXPECT_EQ(Step(monitor), 0u);
  b.Set(7);
  EXPECT_EQ(Step(monitor), 1u);
  const std::vector<AlertEvent> events = monitor.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].observed, 11.0);
  EXPECT_EQ(events[0].bound, 10.0);
  EXPECT_EQ(events[0].detail, "a+b drifted");
}

TEST_F(HealthMonitorTest, CriticalFireTriggersFlightDump) {
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetDumpDir(::testing::TempDir());
  recorder.SetEnabled(true);
  const uint64_t dumps_before = recorder.dumps_written();

  HealthMonitor monitor(&ts_);
  monitor.AddRule(ThresholdRule("t.critical", Severity::kCritical, "t.g",
                                Comparison::kGt, 0.0));
  monitor.AddRule(ThresholdRule("t.warning", Severity::kWarning, "t.g",
                                Comparison::kGt, 0.0));
  Gauge& g = reg_.GetGauge("t.g");
  g.Set(1);
  EXPECT_EQ(Step(monitor), 2u);  // both rules fire...
  EXPECT_EQ(recorder.dumps_written(), dumps_before + 1);  // ...one dump
  // The recorder sanitizes the reason for the filename: '.' becomes '-'.
  const std::string path = recorder.LastDumpPath();
  EXPECT_NE(path.find("alert-t-critical"), std::string::npos);

  // Staying bad does not dump again; only a fresh fire would.
  EXPECT_EQ(Step(monitor), 0u);
  EXPECT_EQ(recorder.dumps_written(), dumps_before + 1);
  std::filesystem::remove(path);
  recorder.SetEnabled(false);
  recorder.Clear();
  recorder.SetDumpDir(".");
}

TEST_F(HealthMonitorTest, CriticalFireWithRecorderDisabledWritesNoDump) {
  FlightRecorder& recorder = FlightRecorder::Global();
  ASSERT_FALSE(recorder.enabled());
  const std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "health-no-dump";
  std::filesystem::remove_all(dir);
  recorder.SetDumpDir(dir.string());
  const uint64_t dumps_before = recorder.dumps_written();

  HealthMonitor monitor(&ts_);
  monitor.AddRule(ThresholdRule("t.critical", Severity::kCritical, "t.g",
                                Comparison::kGt, 0.0));
  reg_.GetGauge("t.g").Set(1);
  EXPECT_EQ(Step(monitor), 1u);
  EXPECT_EQ(recorder.dumps_written(), dumps_before);
  EXPECT_FALSE(std::filesystem::exists(dir));
  recorder.SetDumpDir(".");
}

TEST_F(HealthMonitorTest, EvaluateLatestIsOncePerSample) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(ThresholdRule("t.hot", Severity::kWarning, "t.g",
                                Comparison::kGt, 0.0));
  reg_.GetGauge("t.g").Set(1);
  EXPECT_EQ(monitor.EvaluateLatest(), 0u);  // nothing sampled yet
  Step(monitor);
  EXPECT_EQ(monitor.FireCount(), 1u);
  // Re-evaluating the same sample is a no-op (the sampler and a caller
  // polling EvaluateLatest may race benignly).
  EXPECT_EQ(monitor.EvaluateLatest(), 0u);
  EXPECT_EQ(monitor.FireCount(), 1u);
}

TEST_F(HealthMonitorTest, EventsDigestIgnoresWallClockButSeesAlerts) {
  auto run = [this](uint64_t wall_offset) {
    Registry reg;
    TimeSeries ts({.capacity = 64, .max_series = 256}, &reg);
    HealthMonitor monitor(&ts);
    monitor.AddRule(ThresholdRule("t.hot", Severity::kWarning, "t.g",
                                  Comparison::kGt, 2.0));
    Gauge& g = reg.GetGauge("t.g");
    for (int i = 0; i < 6; ++i) {
      g.Set(i);  // crosses the bound at i == 3
      ts.Sample(wall_offset + static_cast<uint64_t>(i) * kNs,
                /*has_sim=*/true,
                static_cast<common::SimTime>(i) * common::kMicrosPerSecond);
      monitor.EvaluateLatest();
    }
    EXPECT_EQ(monitor.FireCount(), 1u);
    return monitor.EventsDigest();
  };
  const uint64_t base = run(0);
  EXPECT_EQ(run(55'555 * kNs), base);  // wall time shifts, digest does not

  // An empty event log digests differently from a fired one.
  HealthMonitor quiet(&ts_);
  EXPECT_NE(quiet.EventsDigest(), base);
}

TEST_F(HealthMonitorTest, DefaultRulePacksStayQuietOnHealthyRun) {
  HealthMonitor monitor(&ts_);
  monitor.AddRules(rules::DefaultRules());
  ASSERT_GT(monitor.RuleCount(), 10u);

  // A consistent chain plus zeroed fault counters: nothing may fire, even
  // though the supply invariant's inputs are all present.
  reg_.GetGauge("chain.supply.circulating").Set(700);
  reg_.GetGauge("chain.supply.staked").Set(250);
  reg_.GetGauge("chain.supply.burned").Set(50);
  reg_.GetGauge("chain.supply.genesis").Set(1000);
  reg_.GetCounter("chain.blocks_rejected");
  reg_.GetCounter("market.executors_dropped");
  for (int i = 0; i < 10; ++i) EXPECT_EQ(Step(monitor), 0u);
  EXPECT_TRUE(monitor.Events().empty());

  // Break conservation: exactly the supply rule fires, critically.
  reg_.GetGauge("chain.supply.burned").Set(49);
  EXPECT_EQ(Step(monitor), 1u);
  const std::vector<AlertEvent> events = monitor.Events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].rule_id, "chain.supply-conservation");
  EXPECT_EQ(events[0].severity, Severity::kCritical);
  EXPECT_EQ(events[0].observed, 999.0);
  EXPECT_EQ(events[0].bound, 1000.0);
}

TEST_F(HealthMonitorTest, WriteJsonLinesEmitsOneAlertPerEvent) {
  HealthMonitor monitor(&ts_);
  monitor.AddRule(ThresholdRule("t.hot", Severity::kWarning, "t.g",
                                Comparison::kGt, 0.0));
  Gauge& g = reg_.GetGauge("t.g");
  g.Set(2);
  Step(monitor);
  g.Set(0);
  Step(monitor);

  std::ostringstream out;
  monitor.WriteJsonLines(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"type\":\"alert\",\"rule\":\"t.hot\","
                      "\"severity\":\"warning\",\"fired\":true,"
                      "\"sample\":0,\"first_bad\":0"),
            std::string::npos);
  EXPECT_NE(text.find("\"fired\":false"), std::string::npos);
  EXPECT_NE(text.find("\"observed\":2"), std::string::npos);
}

}  // namespace
}  // namespace pds2::obs
