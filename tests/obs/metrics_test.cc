#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include "obs/metrics.h"

namespace pds2::obs {
namespace {

// The histogram's advertised accuracy: each bucket spans at most
// value / kSubBuckets, so the midpoint is within half a bucket width of any
// member — 1 / (2 * kSubBuckets) relative error.
constexpr double kMaxRelativeError =
    1.0 / (2.0 * static_cast<double>(Histogram::kSubBuckets));

TEST(CounterTest, AddAndValue) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
  c.Reset();
  EXPECT_EQ(c.Value(), 0u);
}

TEST(GaugeTest, SetAddAndNegativeValues) {
  Gauge g;
  g.Set(10);
  g.Add(-25);
  EXPECT_EQ(g.Value(), -15);
  g.Reset();
  EXPECT_EQ(g.Value(), 0);
}

TEST(HistogramTest, BucketIndexInvariants) {
  // Every probed value must land in a bucket whose [lower, next-lower)
  // range contains it, and bucket lower bounds must be monotone.
  std::vector<uint64_t> probes;
  for (uint64_t v = 0; v < 4 * Histogram::kSubBuckets; ++v) probes.push_back(v);
  for (int shift = 6; shift < 63; ++shift) {
    const uint64_t base = uint64_t{1} << shift;
    probes.insert(probes.end(), {base - 1, base, base + 1, base + base / 3});
  }
  probes.push_back(UINT64_MAX);
  for (uint64_t v : probes) {
    const size_t index = Histogram::BucketIndex(v);
    ASSERT_LT(index, Histogram::kNumBuckets) << "value " << v;
    EXPECT_LE(Histogram::BucketLowerBound(index), v) << "value " << v;
    if (index + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::BucketLowerBound(index + 1)) << "value " << v;
    }
    EXPECT_GE(Histogram::BucketMidpoint(index),
              Histogram::BucketLowerBound(index));
  }
  for (size_t i = 1; i < Histogram::kNumBuckets; ++i) {
    ASSERT_GT(Histogram::BucketLowerBound(i), Histogram::BucketLowerBound(i - 1))
        << "bucket " << i;
  }
}

TEST(HistogramTest, SmallValuesAreExact) {
  // Below kSubBuckets every value has its own unit-width bucket.
  Histogram h;
  for (uint64_t v = 0; v < Histogram::kSubBuckets; ++v) h.Observe(v);
  const HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, Histogram::kSubBuckets - 1);
  EXPECT_EQ(s.p50, (Histogram::kSubBuckets - 1) / 2);
  EXPECT_EQ(s.count, Histogram::kSubBuckets);
}

TEST(HistogramTest, EmptyHistogramReturnsZeros) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  const HistogramSummary s = h.Summarize();
  EXPECT_EQ(s.count, 0u);
  EXPECT_EQ(s.p50, 0u);
  EXPECT_EQ(s.min, 0u);
  EXPECT_EQ(s.max, 0u);
  EXPECT_EQ(h.Mean(), 0.0);
}

// Compares the summary's quantile estimates, minimum and maximum against
// the exact order statistics of the recorded sample.
void ExpectQuantilesAccurate(Histogram& h, std::vector<uint64_t> values) {
  for (uint64_t v : values) h.Observe(v);
  std::sort(values.begin(), values.end());
  const HistogramSummary s = h.Summarize();
  ASSERT_EQ(s.count, values.size());
  ASSERT_EQ(h.Count(), values.size());
  const std::pair<double, uint64_t> estimates[] = {
      {0.0, s.min}, {0.5, s.p50}, {0.9, s.p90}, {0.99, s.p99}, {1.0, s.max}};
  for (const auto& [q, estimate] : estimates) {
    const size_t rank = std::max<size_t>(
        1, static_cast<size_t>(std::ceil(q * values.size())));
    const uint64_t exact = values[rank - 1];
    // Small exact values get exact answers; larger ones get the bounded
    // relative error (plus one because midpoints round down).
    const double tolerance =
        std::max(1.0, kMaxRelativeError * static_cast<double>(exact));
    EXPECT_NEAR(static_cast<double>(estimate), static_cast<double>(exact),
                tolerance)
        << "q=" << q << " over " << values.size() << " samples";
  }
}

TEST(HistogramTest, QuantileAccuracySmallSamples) {
  std::mt19937_64 rng(7);
  for (size_t n : {1, 2, 5, 100}) {
    std::vector<uint64_t> values(n);
    // Values across many bucket groups, with repeats.
    for (uint64_t& v : values) v = rng() >> (rng() % 64);
    Histogram h;
    ExpectQuantilesAccurate(h, std::move(values));
  }
}

TEST(HistogramTest, QuantileAccuracyUniform) {
  std::mt19937_64 rng(7);
  std::uniform_int_distribution<uint64_t> dist(0, 1'000'000);
  std::vector<uint64_t> values(20'000);
  for (uint64_t& v : values) v = dist(rng);
  Histogram h;
  ExpectQuantilesAccurate(h, std::move(values));
}

TEST(HistogramTest, QuantileAccuracyLognormal) {
  // Heavy-tailed latencies are the histogram's real workload: microseconds
  // spanning five orders of magnitude.
  std::mt19937_64 rng(11);
  std::lognormal_distribution<double> dist(5.0, 2.0);
  std::vector<uint64_t> values(20'000);
  for (uint64_t& v : values) v = static_cast<uint64_t>(dist(rng));
  Histogram h;
  ExpectQuantilesAccurate(h, std::move(values));
}

TEST(HistogramTest, SumAndMeanAreExact) {
  Histogram h;
  uint64_t expected_sum = 0;
  for (uint64_t v = 1; v <= 1000; ++v) {
    h.Observe(v * 17);
    expected_sum += v * 17;
  }
  EXPECT_EQ(h.Sum(), expected_sum);
  EXPECT_DOUBLE_EQ(h.Mean(),
                   static_cast<double>(expected_sum) / 1000.0);
  h.Reset();
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_EQ(h.Sum(), 0u);
}

TEST(RegistryTest, HandlesAreStableAndNamed) {
  Registry registry;
  Counter& a = registry.GetCounter("chain.test_counter");
  Counter& b = registry.GetCounter("chain.test_counter");
  EXPECT_EQ(&a, &b);
  a.Add(3);
  EXPECT_EQ(b.Value(), 3u);

  Gauge& g = registry.GetGauge("pool.test_gauge");
  g.Set(-7);
  Histogram& h = registry.GetHistogram("chain.test_us");
  h.Observe(100);

  // A fresh registry eagerly holds the cardinality-guard sinks
  // (obs.metrics.dropped_series + per-kind obs.metrics.overflow), so look
  // metrics up by name rather than by position or count.
  Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 3u);
  bool counter_found = false, gauge_found = false, hist_found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "chain.test_counter") {
      counter_found = true;
      EXPECT_EQ(value, 3u);
    }
  }
  for (const auto& [name, value] : snap.gauges) {
    if (name == "pool.test_gauge") {
      gauge_found = true;
      EXPECT_EQ(value, -7);
    }
  }
  for (const auto& [name, summary] : snap.histograms) {
    if (name == "chain.test_us") {
      hist_found = true;
      EXPECT_EQ(summary.count, 1u);
    }
  }
  EXPECT_TRUE(counter_found);
  EXPECT_TRUE(gauge_found);
  EXPECT_TRUE(hist_found);

  // ResetValues zeroes in place: the handles stay valid.
  registry.ResetValues();
  EXPECT_EQ(a.Value(), 0u);
  EXPECT_EQ(g.Value(), 0);
  EXPECT_EQ(h.Count(), 0u);
}

TEST(RegistryTest, SnapshotIsSortedByName) {
  Registry registry;
  registry.GetCounter("z.last").Add(1);
  registry.GetCounter("a.first").Add(1);
  registry.GetCounter("m.middle").Add(1);
  Snapshot snap = registry.TakeSnapshot();
  ASSERT_EQ(snap.counters.size(), 5u);  // + the 2 eager guard sinks
  EXPECT_TRUE(std::is_sorted(snap.counters.begin(), snap.counters.end(),
                             [](const auto& lhs, const auto& rhs) {
                               return lhs.first < rhs.first;
                             }));
  EXPECT_EQ(snap.counters.front().first, "a.first");
  EXPECT_EQ(snap.counters.back().first, "z.last");
}

TEST(MacroTest, DisabledMacroRecordsNothing) {
  SetMetricsEnabled(false);
  Registry::Global().ResetValues();
  PDS2_M_COUNT("obs_test.disabled_counter", 1);
  Snapshot snap = Registry::Global().TakeSnapshot();
  for (const auto& [name, value] : snap.counters) {
    if (name == "obs_test.disabled_counter") {
      EXPECT_EQ(value, 0u);  // may exist from a prior enabled pass, but zero
    }
  }
}

TEST(MacroTest, EnabledMacrosRecordIntoGlobalRegistry) {
  SetMetricsEnabled(true);
  Registry::Global().ResetValues();
  for (int i = 0; i < 5; ++i) PDS2_M_COUNT("obs_test.counter", 2);
  PDS2_M_GAUGE_SET("obs_test.gauge", 9);
  PDS2_M_GAUGE_ADD("obs_test.gauge", -4);
  PDS2_M_OBSERVE("obs_test.hist", 123);
  SetMetricsEnabled(false);

  EXPECT_EQ(Registry::Global().GetCounter("obs_test.counter").Value(), 10u);
  EXPECT_EQ(Registry::Global().GetGauge("obs_test.gauge").Value(), 5);
  EXPECT_EQ(Registry::Global().GetHistogram("obs_test.hist").Count(), 1u);
}

// --- Cardinality guard ------------------------------------------------------
// Dynamically named series (per-node labels at 10^5-node scale) must not
// grow the registry without bound: past the cap, new names share the
// per-kind overflow sink and the spill is counted.

// Registers `n` new counter names "<prefix>.<i>".
void AddCounters(Registry& registry, const std::string& prefix, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    registry.GetCounter(prefix + "." + std::to_string(i));
  }
}

uint64_t DroppedSeries(Registry& registry) {
  return registry.GetCounter("obs.metrics.dropped_series").Value();
}

TEST(RegistryCardinalityTest, NewNamesPastCapShareTheOverflowSink) {
  Registry registry;
  // A fresh registry holds the 2 eager counters (dropped_series +
  // overflow); fill the rest of the cap but two names.
  AddCounters(registry, "dyn.fill", Registry::kMaxSeries - 4);

  Counter& a = registry.GetCounter("dyn.shard.0");
  Counter& b = registry.GetCounter("dyn.shard.1");
  EXPECT_NE(&a, &b);
  EXPECT_EQ(DroppedSeries(registry), 0u);

  Counter& spill1 = registry.GetCounter("dyn.shard.2");
  Counter& spill2 = registry.GetCounter("dyn.shard.3");
  EXPECT_EQ(&spill1, &spill2);  // one shared sink, not new series
  EXPECT_EQ(&spill1, &registry.GetCounter("obs.metrics.overflow"));
  EXPECT_EQ(DroppedSeries(registry), 2u);
  EXPECT_EQ(registry.TakeSnapshot().counters.size(), Registry::kMaxSeries);

  // Writes through the sink are not lost, just aggregated.
  spill1.Add(5);
  spill2.Add(7);
  EXPECT_EQ(registry.GetCounter("obs.metrics.overflow").Value(), 12u);
  // The spill shows up as a regular counter for exports and alert rules.
  const Snapshot snap = registry.TakeSnapshot();
  bool found = false;
  for (const auto& [name, value] : snap.counters) {
    if (name == "obs.metrics.dropped_series") {
      found = true;
      EXPECT_EQ(value, 2u);
    }
  }
  EXPECT_TRUE(found);
}

TEST(RegistryCardinalityTest, ExistingNamesKeepTheirHandlesAtTheCap) {
  Registry registry;
  Counter& before = registry.GetCounter("kept.counter");
  Gauge& gauge_before = registry.GetGauge("kept.gauge");
  Histogram& histogram_before = registry.GetHistogram("kept.hist");
  // Fill every kind to the cap (2 eager counters, 1 eager gauge and
  // histogram, plus the kept names).
  AddCounters(registry, "fill", Registry::kMaxSeries - 3);
  for (size_t i = 0; i < Registry::kMaxSeries - 2; ++i) {
    registry.GetGauge("fill." + std::to_string(i));
    registry.GetHistogram("fill." + std::to_string(i));
  }
  EXPECT_EQ(DroppedSeries(registry), 0u);

  // Existing names still resolve to their own objects...
  EXPECT_EQ(&registry.GetCounter("kept.counter"), &before);
  EXPECT_EQ(&registry.GetGauge("kept.gauge"), &gauge_before);
  EXPECT_EQ(&registry.GetHistogram("kept.hist"), &histogram_before);
  // ...while any new name of any kind spills.
  registry.GetCounter("new.counter").Add(1);
  registry.GetGauge("new.gauge").Set(1);
  registry.GetHistogram("new.hist").Observe(1);
  EXPECT_EQ(DroppedSeries(registry), 3u);
  EXPECT_EQ(registry.GetHistogram("obs.metrics.overflow").Count(), 1u);
}

TEST(RegistryCardinalityTest, GuardIsPerKind) {
  Registry registry;
  // Counters start at 2 entries, gauges at 1: the same number of new
  // names leaves different headroom per kind.
  for (size_t i = 0; i < Registry::kMaxSeries - 1; ++i) {
    registry.GetCounter("c." + std::to_string(i));  // the last one spills
    registry.GetGauge("g." + std::to_string(i));
  }
  EXPECT_EQ(DroppedSeries(registry), 1u);
  EXPECT_EQ(registry.TakeSnapshot().counters.size(), Registry::kMaxSeries);
  EXPECT_EQ(registry.TakeSnapshot().gauges.size(), Registry::kMaxSeries);
  registry.GetGauge("g.spill");
  EXPECT_EQ(DroppedSeries(registry), 2u);
}

}  // namespace
}  // namespace pds2::obs
