#include "obs/metrics.h"

#include <algorithm>
#include <cmath>

namespace pds2::obs {

namespace internal_metrics {

size_t ThisThreadIndex() {
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed);
  return index;
}

}  // namespace internal_metrics

HistogramSummary Histogram::Summarize() const {
  HistogramSummary summary;
  summary.count = Count();
  summary.sum = Sum();
  if (summary.count == 0) return summary;
  constexpr double kQuantiles[3] = {0.50, 0.90, 0.99};
  uint64_t* const out[3] = {&summary.p50, &summary.p90, &summary.p99};
  uint64_t rank[3];
  for (size_t q = 0; q < 3; ++q) {
    rank[q] = std::max<uint64_t>(
        1, static_cast<uint64_t>(std::ceil(
               kQuantiles[q] * static_cast<double>(summary.count))));
  }
  size_t next = 0;
  uint64_t seen = 0;
  for (size_t i = 0; i < kNumBuckets; ++i) {
    const uint64_t n = buckets_[i].load(std::memory_order_relaxed);
    if (n == 0) continue;
    const uint64_t value = BucketMidpoint(i);
    if (seen == 0) summary.min = value;
    summary.max = value;
    seen += n;
    while (next < 3 && seen >= rank[next]) *out[next++] = value;
    if (seen >= summary.count) break;  // every later bucket is empty
  }
  // A concurrent Observe bumped count_ before its bucket: an unreached
  // quantile reads the highest bucket.
  while (next < 3) *out[next++] = summary.max;
  return summary;
}

void Histogram::Reset() {
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
}

Registry& Registry::Global() {
  static Registry* registry = new Registry();  // never destroyed: handles
  return *registry;                            // outlive static teardown
}

Registry::Registry() {
  // The spill counter and the per-kind overflow sinks are created before
  // any cap can bind, so Get* under pressure returns an existing handle
  // instead of allocating (and never recurses into itself).
  auto counter = std::make_unique<Counter>();
  dropped_series_ = counter.get();
  counters_["obs.metrics.dropped_series"] = std::move(counter);
  counter = std::make_unique<Counter>();
  overflow_counter_ = counter.get();
  counters_["obs.metrics.overflow"] = std::move(counter);
  auto gauge = std::make_unique<Gauge>();
  overflow_gauge_ = gauge.get();
  gauges_["obs.metrics.overflow"] = std::move(gauge);
  auto histogram = std::make_unique<Histogram>();
  overflow_histogram_ = histogram.get();
  histograms_["obs.metrics.overflow"] = std::move(histogram);
}

Counter& Registry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it != counters_.end()) return *it->second;
  if (counters_.size() >= kMaxSeries) {
    dropped_series_->Add(1);
    return *overflow_counter_;
  }
  return *(counters_[name] = std::make_unique<Counter>());
}

Gauge& Registry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it != gauges_.end()) return *it->second;
  if (gauges_.size() >= kMaxSeries) {
    dropped_series_->Add(1);
    return *overflow_gauge_;
  }
  return *(gauges_[name] = std::make_unique<Gauge>());
}

Histogram& Registry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it != histograms_.end()) return *it->second;
  if (histograms_.size() >= kMaxSeries) {
    dropped_series_->Add(1);
    return *overflow_histogram_;
  }
  return *(histograms_[name] = std::make_unique<Histogram>());
}

Snapshot Registry::TakeSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot snapshot;
  snapshot.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snapshot.counters.emplace_back(name, counter->Value());
  }
  snapshot.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snapshot.gauges.emplace_back(name, gauge->Value());
  }
  snapshot.histograms.reserve(histograms_.size());
  for (const auto& [name, histogram] : histograms_) {
    snapshot.histograms.emplace_back(name, histogram->Summarize());
  }
  return snapshot;
}

Registry::Handles Registry::GetHandles() const {
  std::lock_guard<std::mutex> lock(mu_);
  Handles handles;
  for (const auto& [name, counter] : counters_) {
    handles.counters.emplace_back(name, counter.get());
  }
  for (const auto& [name, gauge] : gauges_) {
    handles.gauges.emplace_back(name, gauge.get());
  }
  for (const auto& [name, histogram] : histograms_) {
    handles.histograms.emplace_back(name, histogram.get());
  }
  handles.names = counters_.size() + gauges_.size() + histograms_.size();
  return handles;
}

size_t Registry::NamesRegistered() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

void Registry::ResetValues() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, counter] : counters_) counter->Reset();
  for (auto& [name, gauge] : gauges_) gauge->Reset();
  for (auto& [name, histogram] : histograms_) histogram->Reset();
}

}  // namespace pds2::obs
