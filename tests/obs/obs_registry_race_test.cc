#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/time_series.h"
#include "obs/trace.h"
#include "time_series_reader.h"

namespace pds2::obs {
namespace {

// Registry snapshot/export racing live writers (registered under the
// `sanitize` label, and the whole suite under build-tsan). The properties
// that must survive arbitrary interleavings:
//   - counter values in successive snapshots never decrease (monotone
//     deltas: a sampler computing rates must never see a negative step);
//   - histogram quantiles are never torn (every observation is the same
//     value, so any quantile must resolve to that value's bucket or, in
//     the not-yet-bucketed race window, to zero);
//   - exports and time-series sampling while writers run never crash.

constexpr int kWriterThreads = 4;

TEST(ObsRegistryRaceTest, SnapshotsSeeMonotoneCountersAndUntornQuantiles) {
  Registry reg;
  constexpr uint64_t kObserved = 1000;
  const auto kBucket = static_cast<double>(
      Histogram::BucketMidpoint(Histogram::BucketIndex(kObserved)));

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&reg, &stop] {
      Counter& c = reg.GetCounter("race.c");
      Gauge& g = reg.GetGauge("race.g");
      Histogram& h = reg.GetHistogram("race.h");
      int64_t i = 0;
      // do-while: even if the reader loop finishes before this thread is
      // scheduled, every writer records at least once, so the final
      // snapshot assertions below are never vacuous.
      do {
        c.Add(1);
        g.Set(++i);
        h.Observe(kObserved);
      } while (!stop.load(std::memory_order_relaxed));
    });
  }

  uint64_t last_counter = 0;
  uint64_t last_hist_count = 0;
  for (int round = 0; round < 300; ++round) {
    const Snapshot snap = reg.TakeSnapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name != "race.c") continue;
      EXPECT_GE(value, last_counter) << "counter went backwards";
      last_counter = value;
    }
    for (const auto& [name, summary] : snap.histograms) {
      if (name != "race.h") continue;
      EXPECT_GE(summary.count, last_hist_count);
      last_hist_count = summary.count;
      // count and sum are read at different instants while Observes land in
      // between, so they need not agree mid-race — but every observation is
      // kObserved, so the sum must always be an exact multiple of it. The
      // quiesced snapshot below checks exact count/sum agreement.
      EXPECT_EQ(summary.sum % kObserved, 0u);
      for (uint64_t q : {summary.p50, summary.p90, summary.p99}) {
        EXPECT_TRUE(static_cast<double>(q) == kBucket || q == 0)
            << "torn quantile " << q;
      }
    }
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  const Snapshot final_snap = reg.TakeSnapshot();
  for (const auto& [name, summary] : final_snap.histograms) {
    if (name == "race.h") {
      EXPECT_EQ(static_cast<double>(summary.p50), kBucket);
      EXPECT_EQ(summary.sum, summary.count * kObserved);
    }
  }
}

TEST(ObsRegistryRaceTest, TimeSeriesSamplingRacesWritersAndExport) {
  Registry reg;
  TimeSeries ts({.capacity = 64, .max_series = 128}, &reg);

  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < kWriterThreads; ++t) {
    writers.emplace_back([&reg, &stop] {
      Counter& c = reg.GetCounter("race.c");
      Histogram& h = reg.GetHistogram("race.h");
      while (!stop.load(std::memory_order_relaxed)) {
        c.Add(1);
        h.Observe(7);
      }
    });
  }
  std::thread exporter([&ts, &stop] {
    while (!stop.load(std::memory_order_relaxed)) {
      std::ostringstream out;
      ts.WriteJsonLines(out);
      (void)ts.Latest("race.c");
      (void)ts.RatePerSecond("race.c", 16);
      (void)ts.SamplesSinceChange("race.c");
    }
  });

  // Wait until every writer has registered its series; otherwise the 500
  // samples below can all land before the first write and the retained
  // window would not contain race.c / race.h at all.
  for (;;) {
    const Snapshot snap = reg.TakeSnapshot();
    bool have_counter = false, have_hist = false;
    for (const auto& [name, value] : snap.counters) {
      if (name == "race.c" && value > 0) have_counter = true;
    }
    for (const auto& [name, summary] : snap.histograms) {
      if (name == "race.h" && summary.count > 0) have_hist = true;
    }
    if (have_counter && have_hist) break;
    std::this_thread::yield();
  }

  for (uint64_t i = 1; i <= 500; ++i) ts.Sample(i);
  stop.store(true);
  for (auto& w : writers) w.join();
  exporter.join();

  // Counter samples must be monotone across the retained window — the
  // property every rate/delta query depends on.
  ASSERT_EQ(ts.SampleCount(), 500u);
  double prev = -1.0;
  const HealthExport health = ReadBack(ts);
  for (uint64_t i = OldestRetained(health); i < health.samples; ++i) {
    const auto c = ValueAt(health, "race.c", i);
    const auto h = ValueAt(health, "race.h#count", i);
    ASSERT_TRUE(c.has_value());
    ASSERT_TRUE(h.has_value());
    EXPECT_GE(*c, prev);
    prev = *c;
  }
}

TEST(ObsRegistryRaceTest, TracerResetRacesSpanProducers) {
  SetTracingEnabled(true);
  Tracer::Global().Reset();

  std::atomic<bool> stop{false};
  std::vector<std::thread> producers;
  for (int t = 0; t < kWriterThreads; ++t) {
    producers.emplace_back([&stop] {
      while (!stop.load(std::memory_order_relaxed)) {
        ScopedSpan outer("race.outer");
        ScopedSpan inner("race.inner");
      }
    });
  }
  for (int round = 0; round < 100; ++round) {
    const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
    for (const SpanRecord& span : spans) {
      EXPECT_FALSE(span.name.empty());
      if (span.wall_end_ns != 0) {
        EXPECT_GE(span.wall_end_ns, span.wall_start_ns);
      }
    }
    Tracer::Global().Reset();
  }
  stop.store(true);
  for (auto& p : producers) p.join();
  SetTracingEnabled(false);
  Tracer::Global().Reset();
}

}  // namespace
}  // namespace pds2::obs
