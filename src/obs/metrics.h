#ifndef PDS2_OBS_METRICS_H_
#define PDS2_OBS_METRICS_H_

#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace pds2::obs {

/// Process-wide runtime switch gating every PDS2_M_* macro. When false, an
/// instrumented hot path pays exactly one relaxed atomic load and a
/// predictable branch per macro site — the "disabled path" whose overhead
/// BENCH_observability.json tracks (< 2% on block validation by budget).
inline std::atomic<bool> g_metrics_enabled{false};

inline bool MetricsEnabled() {
  return g_metrics_enabled.load(std::memory_order_relaxed);
}
inline void SetMetricsEnabled(bool enabled) {
  g_metrics_enabled.store(enabled, std::memory_order_relaxed);
}

namespace internal_metrics {
/// Stable small index for the calling thread, used to spread counter
/// traffic across shards. Assigned on first use, round-robin.
size_t ThisThreadIndex();
}  // namespace internal_metrics

/// Monotonic event counter, sharded across cache lines so concurrent
/// ThreadPool workers never contend on one atomic. Reads sum the shards
/// (racy-but-consistent snapshot semantics: a concurrent Add may or may not
/// be included, never torn).
class Counter {
 public:
  static constexpr size_t kShards = 8;

  void Add(uint64_t delta = 1) {
    shards_[internal_metrics::ThisThreadIndex() % kShards].value.fetch_add(
        delta, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t total = 0;
    for (const Shard& shard : shards_) {
      total += shard.value.load(std::memory_order_relaxed);
    }
    return total;
  }

  void Reset() {
    for (Shard& shard : shards_) {
      shard.value.store(0, std::memory_order_relaxed);
    }
  }

 private:
  struct alignas(64) Shard {
    std::atomic<uint64_t> value{0};
  };
  Shard shards_[kShards];
};

/// Point-in-time signed value (queue depths, pool utilization).
class Gauge {
 public:
  void Set(int64_t value) { value_.store(value, std::memory_order_relaxed); }
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  int64_t Value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { Set(0); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Read-only summary of one histogram, as captured in a Snapshot.
struct HistogramSummary {
  uint64_t count = 0;
  uint64_t sum = 0;
  uint64_t min = 0;
  uint64_t p50 = 0;
  uint64_t p90 = 0;
  uint64_t p99 = 0;
  uint64_t max = 0;
};

/// Log-linear-bucket histogram over uint64 values (HdrHistogram-style):
/// each power-of-two range is split into kSubBuckets linear sub-buckets, so
/// any recorded value lands in a bucket whose width is at most value /
/// kSubBuckets — quantile queries carry a bounded relative error of
/// 1 / (2 * kSubBuckets) ≈ 1.6% while the whole uint64 range fits in
/// kNumBuckets fixed slots. Observe() is two relaxed atomic adds plus a
/// bit-scan; safe under any number of concurrent writers.
class Histogram {
 public:
  static constexpr size_t kSubBucketBits = 5;
  static constexpr size_t kSubBuckets = size_t{1} << kSubBucketBits;  // 32
  static constexpr size_t kNumBuckets = kSubBuckets * (64 - kSubBucketBits + 1);

  Histogram() : buckets_(kNumBuckets) {}

  void Observe(uint64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[BucketIndex(value)].fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t Count() const { return count_.load(std::memory_order_relaxed); }
  uint64_t Sum() const { return sum_.load(std::memory_order_relaxed); }
  double Mean() const {
    const uint64_t n = Count();
    return n == 0 ? 0.0 : static_cast<double>(Sum()) / static_cast<double>(n);
  }

  /// Count, sum, and the representative values (bucket midpoints) of the
  /// smallest and largest non-empty buckets and of the 0.5/0.9/0.99
  /// quantiles, from one scan that stops at the highest non-empty bucket;
  /// all zero when empty. A quantile is within 1/(2*kSubBuckets) relative
  /// error of the exact order statistic for values >= kSubBuckets, exact
  /// below that.
  HistogramSummary Summarize() const;

  void Reset();

  /// Index of the bucket holding `value`.
  static size_t BucketIndex(uint64_t value) {
    if (value < kSubBuckets) return static_cast<size_t>(value);
    const int top = 63 - std::countl_zero(value);  // >= kSubBucketBits
    const size_t group = static_cast<size_t>(top) - kSubBucketBits + 1;
    const size_t sub = static_cast<size_t>(
        (value >> (static_cast<size_t>(top) - kSubBucketBits)) - kSubBuckets);
    return group * kSubBuckets + sub;
  }

  /// Inclusive lower bound of bucket `index`.
  static uint64_t BucketLowerBound(size_t index) {
    const size_t group = index / kSubBuckets;
    const size_t sub = index % kSubBuckets;
    if (group == 0) return sub;
    return static_cast<uint64_t>(kSubBuckets + sub) << (group - 1);
  }

  /// Midpoint used as the bucket's representative value.
  static uint64_t BucketMidpoint(size_t index) {
    const size_t group = index / kSubBuckets;
    if (group == 0) return BucketLowerBound(index);
    const uint64_t width = uint64_t{1} << (group - 1);
    return BucketLowerBound(index) + width / 2;
  }

 private:
  std::atomic<uint64_t> count_{0};
  std::atomic<uint64_t> sum_{0};
  std::vector<std::atomic<uint64_t>> buckets_;
};

/// Point-in-time copy of every metric in a registry, sorted by name.
struct Snapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<std::pair<std::string, HistogramSummary>> histograms;
};

/// Named-metric registry. Get* returns a reference that stays valid for the
/// registry's lifetime (metrics are never removed; ResetValues zeroes them
/// in place), so hot paths can cache the handle — which is exactly what the
/// PDS2_M_* macros do with a function-local static. Creation takes a mutex;
/// updates through the returned handles are lock-free.
///
/// Cardinality guard: dynamically named series (per-node labels at
/// 10^5-node scale) could otherwise grow the maps
/// without bound. Once a kind's map reaches the cap, Get* for a NEW name
/// returns that kind's shared overflow sink instead of allocating, and the
/// "obs.metrics.dropped_series" counter records the spill. Existing names
/// — including every statically named metric created before the flood —
/// keep their own handles.
class Registry {
 public:
  /// Cap on distinct series per metric kind.
  static constexpr size_t kMaxSeries = 4096;

  Registry();

  /// The process-wide registry every PDS2_M_* macro records into.
  static Registry& Global();

  Counter& GetCounter(const std::string& name);
  Gauge& GetGauge(const std::string& name);
  Histogram& GetHistogram(const std::string& name);

  Snapshot TakeSnapshot() const;

  /// Every metric's handle, each kind sorted by name as in a Snapshot, for
  /// a reader that samples the same metrics again and again (TimeSeries).
  struct Handles {
    std::vector<std::pair<std::string, const Counter*>> counters;
    std::vector<std::pair<std::string, const Gauge*>> gauges;
    std::vector<std::pair<std::string, const Histogram*>> histograms;
    size_t names = 0;  // NamesRegistered() when these were taken
  };
  Handles GetHandles() const;
  /// Names registered so far over all kinds. Names are never removed, so
  /// an unchanged count means an unchanged set of names.
  size_t NamesRegistered() const;

  /// Zeroes every metric, keeping all handles valid (per-run isolation for
  /// tests and benches).
  void ResetValues();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
  // Overflow sinks + spill counter, created eagerly in the constructor so
  // they exist below any cap and Get* never recurses.
  Counter* overflow_counter_ = nullptr;
  Gauge* overflow_gauge_ = nullptr;
  Histogram* overflow_histogram_ = nullptr;
  Counter* dropped_series_ = nullptr;
};

}  // namespace pds2::obs

// ---------------------------------------------------------------------------
// Instrumentation macros. `name` must be a string literal; the metric handle
// is resolved once per call site (function-local static) and the whole body
// is skipped — one relaxed load, one branch — while metrics are disabled.
// ---------------------------------------------------------------------------

#define PDS2_M_COUNT(name, delta)                                     \
  do {                                                                \
    if (::pds2::obs::MetricsEnabled()) {                              \
      static ::pds2::obs::Counter& pds2_m_counter =                   \
          ::pds2::obs::Registry::Global().GetCounter(name);           \
      pds2_m_counter.Add(static_cast<uint64_t>(delta));               \
    }                                                                 \
  } while (0)

#define PDS2_M_GAUGE_ADD(name, delta)                                 \
  do {                                                                \
    if (::pds2::obs::MetricsEnabled()) {                              \
      static ::pds2::obs::Gauge& pds2_m_gauge =                       \
          ::pds2::obs::Registry::Global().GetGauge(name);             \
      pds2_m_gauge.Add(static_cast<int64_t>(delta));                  \
    }                                                                 \
  } while (0)

#define PDS2_M_GAUGE_SET(name, value)                                 \
  do {                                                                \
    if (::pds2::obs::MetricsEnabled()) {                              \
      static ::pds2::obs::Gauge& pds2_m_gauge =                       \
          ::pds2::obs::Registry::Global().GetGauge(name);             \
      pds2_m_gauge.Set(static_cast<int64_t>(value));                  \
    }                                                                 \
  } while (0)

#define PDS2_M_OBSERVE(name, value)                                   \
  do {                                                                \
    if (::pds2::obs::MetricsEnabled()) {                              \
      static ::pds2::obs::Histogram& pds2_m_hist =                    \
          ::pds2::obs::Registry::Global().GetHistogram(name);         \
      pds2_m_hist.Observe(static_cast<uint64_t>(value));              \
    }                                                                 \
  } while (0)

#endif  // PDS2_OBS_METRICS_H_
