#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "obs/health.h"
#include "obs/health_rules.h"
#include "obs/time_series.h"

namespace pds2::obs {
namespace {

constexpr uint64_t kNs = 1'000'000'000ull;

// Each test owns a Registry + TimeSeries so the global registry (shared
// with other suites in this binary) never leaks series into rule
// evaluation.

// Fires in the event log.
uint64_t FireCount(const HealthMonitor& monitor) {
  uint64_t fires = 0;
  for (const AlertEvent& event : monitor.Events()) fires += event.fired;
  return fires;
}

// Rule ids whose latest event is a fire, in rule-id order.
std::vector<std::string> ActiveAlerts(const HealthMonitor& monitor) {
  std::map<std::string, bool> latest;
  for (const AlertEvent& event : monitor.Events()) {
    latest[event.rule_id] = event.fired;
  }
  std::vector<std::string> active;
  for (const auto& [rule, fired] : latest) {
    if (fired) active.push_back(rule);
  }
  return active;
}

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
  monitor.AddRules({ThresholdRule("t.too-high", Severity::kWarning, "t.g",
                                 Comparison::kGt, 3.0)});
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
  EXPECT_EQ(FireCount(monitor), 1u);
  EXPECT_TRUE(ActiveAlerts(monitor).empty());
  EXPECT_EQ(monitor.FiredRuleIds(), std::vector<std::string>{"t.too-high"});
}

TEST_F(HealthMonitorTest, MissingSeriesIsSkippedNotFired) {
  HealthMonitor monitor(&ts_);
  monitor.AddRules({ThresholdRule("t.absent-series", Severity::kCritical,
                                 "never.published", Comparison::kGe, 0.0)});
  monitor.AddRules({RateRule("t.absent-rate", Severity::kCritical,
                            "never.published", 4, Comparison::kGe, 0.0)});
  monitor.AddRules({AbsenceRule("t.absent-stale", Severity::kCritical,
                               "never.published", 1)});
  for (int i = 0; i < 5; ++i) EXPECT_EQ(Step(monitor), 0u);
  EXPECT_TRUE(monitor.Events().empty());
  EXPECT_EQ(FireCount(monitor), 0u);
}

TEST_F(HealthMonitorTest, RateRuleFiresOnSustainedGrowth) {
  HealthMonitor monitor(&ts_);
  monitor.AddRules({RateRule("t.retry-storm", Severity::kWarning, "t.c",
                            /*window=*/4, Comparison::kGt,
                            /*bound_per_second=*/5.0)});
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
  monitor.AddRules({AbsenceRule("t.stalled", Severity::kWarning, "t.progress",
                               /*max_stale_samples=*/2,
                               /*activity_series=*/"t.traffic")});
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
  EXPECT_EQ(ActiveAlerts(monitor),
            std::vector<std::string>{"t.stalled"});

  // Progress resumes: the alert resolves.
  progress.Add(1);
  traffic.Add(10);
  EXPECT_EQ(Step(monitor), 1u);
  EXPECT_TRUE(ActiveAlerts(monitor).empty());
}

TEST_F(HealthMonitorTest, InvariantRuleCarriesObservedBoundAndDetail) {
  HealthMonitor monitor(&ts_);
  monitor.AddRules({InvariantRule(
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
      })});
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

// Keeps the level and "rule" field of each record routed to it.
class RuleLogSink : public common::LogSink {
 public:
  void Write(const common::LogRecord& record) override {
    for (const auto& [key, value] : record.fields) {
      if (key == "rule") levels[value] = record.level;
    }
  }
  std::map<std::string, common::LogLevel> levels;
};

TEST_F(HealthMonitorTest, CriticalAndWarningFireOnOneSampleAtTheirLogLevels) {
  RuleLogSink sink;
  common::LogSink* previous = common::SetLogSink(&sink);

  HealthMonitor monitor(&ts_);
  monitor.AddRules({ThresholdRule("t.critical", Severity::kCritical, "t.g",
                                 Comparison::kGt, 0.0)});
  monitor.AddRules({ThresholdRule("t.warning", Severity::kWarning, "t.g",
                                 Comparison::kGt, 0.0)});
  Gauge& g = reg_.GetGauge("t.g");
  g.Set(1);
  EXPECT_EQ(Step(monitor), 2u);  // both rules fire on the same sample
  EXPECT_EQ(ActiveAlerts(monitor),
            (std::vector<std::string>{"t.critical", "t.warning"}));
  // Staying bad fires nothing more; only a fresh fire would.
  EXPECT_EQ(Step(monitor), 0u);
  EXPECT_EQ(FireCount(monitor), 2u);

  common::SetLogSink(previous);
  EXPECT_EQ(sink.levels,
            (std::map<std::string, common::LogLevel>{
                {"t.critical", common::LogLevel::kError},
                {"t.warning", common::LogLevel::kWarn}}));
}

TEST_F(HealthMonitorTest, EvaluateLatestIsOncePerSample) {
  HealthMonitor monitor(&ts_);
  monitor.AddRules({ThresholdRule("t.hot", Severity::kWarning, "t.g",
                                 Comparison::kGt, 0.0)});
  reg_.GetGauge("t.g").Set(1);
  EXPECT_EQ(monitor.EvaluateLatest(), 0u);  // nothing sampled yet
  Step(monitor);
  EXPECT_EQ(FireCount(monitor), 1u);
  // Re-evaluating the same sample is a no-op (the sampler and a caller
  // polling EvaluateLatest may race benignly).
  EXPECT_EQ(monitor.EvaluateLatest(), 0u);
  EXPECT_EQ(FireCount(monitor), 1u);
}

TEST_F(HealthMonitorTest, EventsDigestIgnoresWallClockButSeesAlerts) {
  auto run = [this](uint64_t wall_offset) {
    Registry reg;
    TimeSeries ts({.capacity = 64, .max_series = 256}, &reg);
    HealthMonitor monitor(&ts);
    monitor.AddRules({ThresholdRule("t.hot", Severity::kWarning, "t.g",
                                   Comparison::kGt, 2.0)});
    Gauge& g = reg.GetGauge("t.g");
    for (int i = 0; i < 6; ++i) {
      g.Set(i);  // crosses the bound at i == 3
      ts.Sample(wall_offset + static_cast<uint64_t>(i) * kNs,
                /*has_sim=*/true,
                static_cast<common::SimTime>(i) * common::kMicrosPerSecond);
      monitor.EvaluateLatest();
    }
    EXPECT_EQ(FireCount(monitor), 1u);
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
  monitor.AddRules({ThresholdRule("t.hot", Severity::kWarning, "t.g",
                                 Comparison::kGt, 0.0)});
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
