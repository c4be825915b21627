#ifndef PDS2_OBS_STOPWATCH_H_
#define PDS2_OBS_STOPWATCH_H_

#include <atomic>
#include <chrono>
#include <cstdint>

#include "obs/metrics.h"

namespace pds2::obs {

/// Wall-clock stopwatch. The one timing primitive shared by benches
/// (bench_util.h aliases this as pds2::bench::Timer) and by the
/// histogram-feeding PDS2_M_TIME_US macro, so bench numbers and metric
/// quantiles come from the same clock.
class Stopwatch {
 public:
  Stopwatch() : start_(std::chrono::steady_clock::now()) {}

  void Reset() { start_ = std::chrono::steady_clock::now(); }

  double ElapsedMs() const {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  double ElapsedUs() const { return ElapsedMs() * 1000.0; }

 private:
  std::chrono::steady_clock::time_point start_;
};

namespace internal_metrics {

/// Call-site histogram handle cache for PDS2_M_TIME_US: nullptr while
/// metrics are disabled (one relaxed load + branch, no registry touch, no
/// static-init guard — `cache` is constant-initialized); resolves and
/// caches the handle on first enabled pass.
inline Histogram* ResolveHistogram(std::atomic<Histogram*>& cache,
                                   const char* name) {
  if (!MetricsEnabled()) return nullptr;
  Histogram* histogram = cache.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = &Registry::Global().GetHistogram(name);
    cache.store(histogram, std::memory_order_release);
  }
  return histogram;
}

}  // namespace internal_metrics

/// RAII timer that records the scope's duration (µs) into a histogram at
/// destruction. A null histogram makes it inert — not even a clock read.
class ScopedHistogramTimer {
 public:
  explicit ScopedHistogramTimer(Histogram* histogram)
      : histogram_(histogram) {
    if (histogram_ != nullptr) watch_.Reset();
  }

  ScopedHistogramTimer(const ScopedHistogramTimer&) = delete;
  ScopedHistogramTimer& operator=(const ScopedHistogramTimer&) = delete;

  ~ScopedHistogramTimer() {
    if (histogram_ != nullptr) {
      histogram_->Observe(static_cast<uint64_t>(watch_.ElapsedUs()));
    }
  }

 private:
  Histogram* histogram_;
  Stopwatch watch_;
};

}  // namespace pds2::obs

/// Times the rest of the enclosing scope into histogram `name` (µs).
#define PDS2_M_TIME_US(name)                                              \
  static ::std::atomic<::pds2::obs::Histogram*> pds2_m_time_hist{nullptr}; \
  ::pds2::obs::ScopedHistogramTimer pds2_m_time_timer(                    \
      ::pds2::obs::internal_metrics::ResolveHistogram(pds2_m_time_hist,   \
                                                      name))

#endif  // PDS2_OBS_STOPWATCH_H_
