#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pds2::obs {
namespace {

// Concurrency suite (registered under the `sanitize` label): counters,
// histograms, registry creation, macro sites and the tracer hammered from
// many threads. All totals must be exact — relaxed ordering may reorder,
// but it must never lose or tear an increment.

constexpr int kThreads = 8;
constexpr int kIterations = 20'000;

TEST(ObsConcurrencyTest, CounterNeverLosesIncrements) {
  Counter counter;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&counter] {
      for (int i = 0; i < kIterations; ++i) counter.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(counter.Value(),
            static_cast<uint64_t>(kThreads) * kIterations);
}

TEST(ObsConcurrencyTest, HistogramCountSumExactUnderContention) {
  Histogram hist;
  // The xorshift streams are deterministic, so the expected sum can be
  // replayed single-threaded and compared exactly.
  auto stream_sum = [](int t, Histogram* h) {
    uint64_t x = 88172645463325252ull + static_cast<uint64_t>(t);
    uint64_t sum = 0;
    for (int i = 0; i < kIterations; ++i) {
      x ^= x << 13; x ^= x >> 7; x ^= x << 17;
      const uint64_t v = x % 1'000'000;
      sum += v;
      if (h != nullptr) h->Observe(v);
    }
    return sum;
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&hist, &stream_sum, t] { stream_sum(t, &hist); });
  }
  for (auto& thread : threads) thread.join();
  uint64_t expected_sum = 0;
  for (int t = 0; t < kThreads; ++t) expected_sum += stream_sum(t, nullptr);
  EXPECT_EQ(hist.Count(), static_cast<uint64_t>(kThreads) * kIterations);
  EXPECT_EQ(hist.Sum(), expected_sum);
}

TEST(ObsConcurrencyTest, RegistryCreationRaceYieldsOneMetric) {
  Registry registry;
  std::atomic<Counter*> first{nullptr};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&registry, &first] {
      Counter& c = registry.GetCounter("race.same_name");
      Counter* expected = nullptr;
      first.compare_exchange_strong(expected, &c);
      EXPECT_TRUE(first.load() == &c);  // everyone resolved the same object
      c.Add(1);
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(registry.GetCounter("race.same_name").Value(),
            static_cast<uint64_t>(kThreads));
  // One created series + the registry's 2 eager cardinality-guard sinks.
  EXPECT_EQ(registry.TakeSnapshot().counters.size(), 3u);
}

TEST(ObsConcurrencyTest, MacroSitesExactUnderThreadPool) {
  SetMetricsEnabled(true);
  Registry::Global().ResetValues();
  common::ThreadPool pool(4);
  constexpr size_t kTasks = 64;
  pool.ParallelFor(0, kTasks, [](size_t) {
    for (int i = 0; i < 1000; ++i) {
      PDS2_M_COUNT("obs_conc.pool_counter", 1);
      PDS2_M_OBSERVE("obs_conc.pool_hist", static_cast<uint64_t>(i));
    }
  });
  SetMetricsEnabled(false);
  EXPECT_EQ(Registry::Global().GetCounter("obs_conc.pool_counter").Value(),
            kTasks * 1000u);
  EXPECT_EQ(Registry::Global().GetHistogram("obs_conc.pool_hist").Count(),
            kTasks * 1000u);
}

TEST(ObsConcurrencyTest, TracerSpansFromManyThreadsAllComplete) {
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  std::vector<std::thread> threads;
  constexpr int kSpansPerThread = 500;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([] {
      for (int i = 0; i < kSpansPerThread; ++i) {
        ScopedSpan outer("conc.outer");
        ScopedSpan inner("conc.inner");
      }
    });
  }
  for (auto& thread : threads) thread.join();
  SetTracingEnabled(false);

  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();
  ASSERT_EQ(spans.size(),
            static_cast<size_t>(kThreads) * kSpansPerThread * 2);
  size_t children = 0;
  for (const SpanRecord& span : spans) {
    EXPECT_NE(span.wall_end_ns, 0u) << "open span " << span.id;
    if (span.name == "conc.inner") {
      ++children;
      ASSERT_NE(span.parent, 0u);
      // Parent linkage is per-thread: the parent must be a conc.outer on
      // the same thread.
      const SpanRecord& parent = spans[span.parent - 1];
      EXPECT_EQ(parent.name, "conc.outer");
      EXPECT_EQ(parent.thread, span.thread);
    }
  }
  EXPECT_EQ(children, static_cast<size_t>(kThreads) * kSpansPerThread);
  Tracer::Global().Reset();
}

}  // namespace
}  // namespace pds2::obs
