#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/time_series.h"
#include "time_series_reader.h"

namespace pds2::obs {
namespace {

constexpr uint64_t kNs = 1'000'000'000ull;  // one wall second

// Every test uses its own Registry so series sets are hermetic. A fresh
// registry is not empty: the cardinality-guard sinks
// (obs.metrics.dropped_series + the per-kind obs.metrics.overflow series)
// are created eagerly in the constructor. Per-sample values, kinds and the
// retained window are read back through the run export (ReadBack).

TEST(TimeSeriesTest, CountersAndGaugesSampledWithKinds) {
  Registry reg;
  reg.GetCounter("t.count").Add(3);
  reg.GetGauge("t.gauge").Set(-7);
  TimeSeries ts({.capacity = 8, .max_series = 64}, &reg);
  ts.Sample(kNs);
  reg.GetCounter("t.count").Add(2);
  reg.GetGauge("t.gauge").Set(9);
  ts.Sample(2 * kNs);

  EXPECT_EQ(ts.SampleCount(), 2u);
  const HealthExport health = ReadBack(ts);
  EXPECT_EQ(KindOf(health, "t.count"), "counter");
  EXPECT_EQ(KindOf(health, "t.gauge"), "gauge");
  EXPECT_EQ(ValueAt(health, "t.count", 0), 3.0);
  EXPECT_EQ(ts.Latest("t.count"), 5.0);
  EXPECT_EQ(ValueAt(health, "t.gauge", 0), -7.0);
  EXPECT_EQ(ts.Latest("t.gauge"), 9.0);
  EXPECT_EQ(ts.Delta("t.count", 1), 2.0);
  EXPECT_FALSE(ts.Latest("t.unknown").has_value());
  EXPECT_EQ(health.series.count("t.unknown"), 0u);
}

TEST(TimeSeriesTest, HistogramFansOutToCountAndQuantileSeries) {
  Registry reg;
  Histogram& hist = reg.GetHistogram("t.hist");
  for (uint64_t v = 1; v <= 100; ++v) hist.Observe(v);
  TimeSeries ts({}, &reg);
  ts.Sample(kNs);

  const HealthExport health = ReadBack(ts);
  EXPECT_EQ(KindOf(health, "t.hist#count"), "counter");
  EXPECT_EQ(KindOf(health, "t.hist#p50"), "quantile");
  EXPECT_EQ(KindOf(health, "t.hist#p90"), "quantile");
  EXPECT_EQ(KindOf(health, "t.hist#p99"), "quantile");
  EXPECT_EQ(ts.Latest("t.hist#count"), 100.0);
  ASSERT_TRUE(ts.Latest("t.hist#p50").has_value());
  // Log-linear buckets carry ~1.6% relative error; 50 +- 3 is generous.
  EXPECT_NEAR(*ts.Latest("t.hist#p50"), 50.0, 3.0);
  EXPECT_GE(*ts.Latest("t.hist#p99"), *ts.Latest("t.hist#p50"));
}

TEST(TimeSeriesTest, RingEvictionNeverRenumbersSamples) {
  Registry reg;
  Counter& c = reg.GetCounter("t.c");
  TimeSeries ts({.capacity = 4, .max_series = 64}, &reg);
  for (int i = 1; i <= 10; ++i) {
    c.Add(1);
    ts.Sample(kNs * static_cast<uint64_t>(i));
  }

  EXPECT_EQ(ts.SampleCount(), 10u);
  const HealthExport health = ReadBack(ts);
  EXPECT_EQ(OldestRetained(health), 6u);
  EXPECT_FALSE(ValueAt(health, "t.c", 5).has_value());  // evicted
  EXPECT_EQ(ValueAt(health, "t.c", 6), 7.0);  // index = cumulative count
  EXPECT_EQ(ts.Latest("t.c"), 10.0);
  EXPECT_FALSE(ts.InfoAt(5).has_value());
  ASSERT_TRUE(ts.InfoAt(9).has_value());
  EXPECT_EQ(ts.InfoAt(9)->wall_ns, 10 * kNs);
  // A window larger than history degrades to "since oldest retained".
  EXPECT_EQ(ts.Delta("t.c", 100), 3.0);  // 10 - 7
}

TEST(TimeSeriesTest, RatePerSecondPrefersSimTime) {
  Registry reg;
  Counter& c = reg.GetCounter("t.c");
  TimeSeries ts({}, &reg);
  ts.Sample(kNs, /*has_sim=*/true, /*sim_us=*/0);
  c.Add(10);
  // Wall span is 99 s but sim span is 2 s: the sim clock must win.
  ts.Sample(100 * kNs, /*has_sim=*/true, 2 * common::kMicrosPerSecond);
  ASSERT_TRUE(ts.RatePerSecond("t.c", 8).has_value());
  EXPECT_DOUBLE_EQ(*ts.RatePerSecond("t.c", 8), 5.0);
}

TEST(TimeSeriesTest, RatePerSecondFallsBackToWallTime) {
  Registry reg;
  Counter& c = reg.GetCounter("t.c");
  TimeSeries ts({}, &reg);
  ts.Sample(kNs);
  c.Add(10);
  ts.Sample(3 * kNs);
  EXPECT_DOUBLE_EQ(*ts.RatePerSecond("t.c", 8), 5.0);
}

TEST(TimeSeriesTest, RatePerSecondNeedsTwoDistinctSamples) {
  Registry reg;
  reg.GetCounter("t.c").Add(1);
  TimeSeries ts({}, &reg);
  EXPECT_FALSE(ts.RatePerSecond("t.c", 8).has_value());  // nothing sampled
  ts.Sample(kNs);
  EXPECT_FALSE(ts.RatePerSecond("t.c", 8).has_value());  // one sample
}

TEST(TimeSeriesTest, SamplesSinceChangeTracksStaleness) {
  Registry reg;
  Gauge& g = reg.GetGauge("t.g");
  TimeSeries ts({}, &reg);
  g.Set(4);
  ts.Sample(kNs);
  EXPECT_EQ(ts.SamplesSinceChange("t.g"), 0u);
  ts.Sample(2 * kNs);
  EXPECT_EQ(ts.SamplesSinceChange("t.g"), 1u);
  g.Set(7);
  ts.Sample(3 * kNs);
  EXPECT_EQ(ts.SamplesSinceChange("t.g"), 0u);
  ts.Sample(4 * kNs);
  ts.Sample(5 * kNs);
  EXPECT_EQ(ts.SamplesSinceChange("t.g"), 2u);
}

TEST(TimeSeriesTest, LateAppearingSeriesHasNoEarlierValues) {
  Registry reg;
  TimeSeries ts({}, &reg);
  ts.Sample(kNs);
  reg.GetCounter("late.c").Add(1);
  ts.Sample(2 * kNs);

  const HealthExport health = ReadBack(ts);
  EXPECT_FALSE(ValueAt(health, "late.c", 0).has_value());
  EXPECT_EQ(ValueAt(health, "late.c", 1), 1.0);
  // Delta clamps its window to the series' first sample.
  EXPECT_EQ(ts.Delta("late.c", 100), 0.0);
}

TEST(TimeSeriesTest, NewMetricsThatShiftSnapshotOrderKeepEverySeriesApart) {
  // Sample caches each snapshot entry's series by position; names that
  // sort before existing ones move every later entry.
  Registry reg;
  reg.GetCounter("m.b").Add(1);
  reg.GetGauge("m.g").Set(5);
  TimeSeries ts({.capacity = 4, .max_series = 64}, &reg);
  ts.Sample(kNs);
  reg.GetCounter("m.a").Add(10);
  reg.GetCounter("m.b").Add(1);
  reg.GetGauge("m.f").Set(7);
  reg.GetHistogram("m.h").Observe(3);
  ts.Sample(2 * kNs);
  reg.GetCounter("m.b").Add(1);
  ts.Sample(3 * kNs);

  const HealthExport health = ReadBack(ts);
  EXPECT_EQ(ValueAt(health, "m.b", 0), 1.0);
  EXPECT_EQ(ValueAt(health, "m.b", 1), 2.0);
  EXPECT_EQ(ts.Latest("m.b"), 3.0);
  EXPECT_FALSE(ValueAt(health, "m.a", 0).has_value());
  EXPECT_EQ(ts.Latest("m.a"), 10.0);
  EXPECT_EQ(ts.Latest("m.g"), 5.0);
  EXPECT_EQ(ts.Latest("m.f"), 7.0);
  EXPECT_EQ(KindOf(health, "m.f"), "gauge");
  EXPECT_EQ(ts.Latest("m.h#count"), 1.0);
  EXPECT_EQ(ts.Latest("m.h#p99"), 3.0);
}

TEST(TimeSeriesTest, LateSeriesAcrossRingWrapReadsItsOwnPoints) {
  // A series first seen mid-ring grows its ring up to capacity as it goes.
  Registry reg;
  TimeSeries ts({.capacity = 4, .max_series = 64}, &reg);
  for (int i = 0; i < 5; ++i) ts.Sample(kNs * static_cast<uint64_t>(i + 1));
  Counter& c = reg.GetCounter("late.c");
  for (int i = 5; i < 11; ++i) {
    c.Add(1);
    ts.Sample(kNs * static_cast<uint64_t>(i + 1));
  }
  const HealthExport health = ReadBack(ts);
  EXPECT_EQ(OldestRetained(health), 7u);
  for (size_t i = 7; i < 11; ++i) {
    EXPECT_EQ(ValueAt(health, "late.c", i), static_cast<double>(i - 4)) << i;
  }
  std::ostringstream out;
  ts.WriteJsonLines(out);
  EXPECT_NE(out.str().find("\"name\":\"late.c\",\"kind\":\"counter\","
                           "\"start\":7,\"values\":[3,4,5,6]}"),
            std::string::npos);
}

TEST(TimeSeriesTest, MaxSeriesCapDropsNewSeriesAndCountsThem) {
  Registry reg;
  // A fresh registry snapshots to 7 would-be series: 2 counters
  // (dropped_series + overflow), the overflow gauge (which shares the
  // overflow counter's name, so it merges), and 4 histogram sub-series.
  TimeSeries ts({.capacity = 4, .max_series = 4}, &reg);
  ts.Sample(kNs);
  EXPECT_EQ(ReadBack(ts).series_count, 4u);
  EXPECT_EQ(ReadBack(ts).dropped_series, 2u);  // #p90 and #p99 over the cap

  for (int i = 0; i < 8; ++i) {
    reg.GetCounter("flood." + std::to_string(i)).Add(1);
  }
  ts.Sample(2 * kNs);
  EXPECT_EQ(ReadBack(ts).series_count, 4u);  // cap held
  EXPECT_EQ(ReadBack(ts).dropped_series, 12u);
  EXPECT_FALSE(ts.Latest("flood.0").has_value());
  // Pre-existing series keep sampling normally.
  EXPECT_TRUE(ts.Latest("obs.metrics.dropped_series").has_value());
}

TEST(TimeSeriesTest, WriteJsonLinesMatchesSchema) {
  Registry reg;
  Counter& c = reg.GetCounter("t.c");
  TimeSeries ts({.capacity = 4, .max_series = 64}, &reg);
  c.Add(1);
  ts.Sample(kNs, /*has_sim=*/true, /*sim_us=*/123);
  c.Add(1);
  ts.Sample(2 * kNs);

  std::ostringstream out;
  ts.WriteJsonLines(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("{\"type\":\"meta\",\"samples\":2,\"retained\":2,"
                      "\"capacity\":4"),
            std::string::npos);
  EXPECT_NE(text.find("{\"type\":\"sample\",\"index\":0,\"wall_ns\":"
                      "1000000000,\"sim_us\":123}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"type\":\"sample\",\"index\":1,\"wall_ns\":"
                      "2000000000}"),
            std::string::npos);
  EXPECT_NE(text.find("{\"type\":\"series\",\"name\":\"t.c\",\"kind\":"
                      "\"counter\",\"start\":0,\"values\":[1,2]}"),
            std::string::npos);
}

}  // namespace
}  // namespace pds2::obs
