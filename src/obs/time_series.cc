#include "obs/time_series.h"

#include <algorithm>

#include "obs/json_codec.h"

namespace pds2::obs {

namespace {
// Ring slots reserved when a series first appears, so its first points do
// not reallocate one by one; the ring grows past this only as it fills.
constexpr size_t kInitialRingSlots = 64;
}  // namespace

const char* SeriesKindName(SeriesKind kind) {
  switch (kind) {
    case SeriesKind::kCounter:
      return "counter";
    case SeriesKind::kGauge:
      return "gauge";
    case SeriesKind::kQuantile:
      return "quantile";
  }
  return "?";
}

TimeSeries::TimeSeries(TimeSeriesConfig config, Registry* registry)
    : config_(config),
      registry_(registry != nullptr ? registry : &Registry::Global()) {
  if (config_.capacity == 0) config_.capacity = 1;
  time_ring_.resize(config_.capacity);
}

void TimeSeries::BindLocked() {
  if (!bindings_.empty() && registry_->NamesRegistered() == bound_names_) {
    return;
  }
  const Registry::Handles handles = registry_->GetHandles();
  bindings_.clear();
  for (const auto& [name, counter] : handles.counters) {
    bindings_.push_back({.name = name, .counter = counter});
  }
  for (const auto& [name, gauge] : handles.gauges) {
    bindings_.push_back({.name = name, .gauge = gauge});
  }
  for (const auto& [name, histogram] : handles.histograms) {
    bindings_.push_back({.name = name, .histogram = histogram});
  }
  bound_names_ = handles.names;
}

void TimeSeries::AppendLocked(Series*& series, const std::string& name,
                              const char* suffix, SeriesKind kind,
                              double value) {
  if (series == nullptr) {
    const std::string key = name + suffix;
    auto it = series_.find(key);
    if (it == series_.end()) {
      if (series_.size() >= config_.max_series) {
        ++dropped_series_;
        PDS2_M_COUNT("obs.timeseries.dropped_series", 1);
        return;
      }
      Series s;
      s.kind = kind;
      s.first_sample = samples_;
      s.ring.reserve(std::min(config_.capacity, kInitialRingSlots));
      it = series_.emplace(key, std::move(s)).first;
    }
    series = &it->second;
  }
  std::vector<double>& ring = series->ring;
  const size_t slot = samples_ % config_.capacity;
  if (slot >= ring.size()) ring.resize(slot + 1, 0.0);
  ring[slot] = value;
}

double TimeSeries::SlotValue(const Series& s, size_t index) const {
  const size_t slot = index % config_.capacity;
  return slot < s.ring.size() ? s.ring[slot] : 0.0;
}

size_t TimeSeries::Sample(uint64_t wall_ns, bool has_sim,
                          common::SimTime sim_us) {
  std::lock_guard<std::mutex> lock(mu_);
  BindLocked();
  time_ring_[samples_ % config_.capacity] = {wall_ns, has_sim, sim_us};
  for (Binding& b : bindings_) {
    if (b.counter != nullptr) {
      AppendLocked(b.series[0], b.name, "", SeriesKind::kCounter,
                   static_cast<double>(b.counter->Value()));
    } else if (b.gauge != nullptr) {
      AppendLocked(b.series[0], b.name, "", SeriesKind::kGauge,
                   static_cast<double>(b.gauge->Value()));
    } else {
      const HistogramSummary summary = b.histogram->Summarize();
      AppendLocked(b.series[0], b.name, "#count", SeriesKind::kCounter,
                   static_cast<double>(summary.count));
      AppendLocked(b.series[1], b.name, "#p50", SeriesKind::kQuantile,
                   static_cast<double>(summary.p50));
      AppendLocked(b.series[2], b.name, "#p90", SeriesKind::kQuantile,
                   static_cast<double>(summary.p90));
      AppendLocked(b.series[3], b.name, "#p99", SeriesKind::kQuantile,
                   static_cast<double>(summary.p99));
    }
  }
  return samples_++;
}

size_t TimeSeries::SampleCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return samples_;
}

size_t TimeSeries::OldestRetainedLocked() const {
  return samples_ > config_.capacity ? samples_ - config_.capacity : 0;
}

std::optional<TimeSeries::SampleInfo> TimeSeries::InfoAt(
    size_t sample_index) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (sample_index >= samples_ || sample_index < OldestRetainedLocked()) {
    return std::nullopt;
  }
  return time_ring_[sample_index % config_.capacity];
}

std::optional<double> TimeSeries::ValueAtLocked(const Series& s,
                                                size_t index) const {
  if (index >= samples_) return std::nullopt;
  if (index < s.first_sample || index < OldestRetainedLocked()) {
    return std::nullopt;
  }
  return SlotValue(s, index);
}

std::optional<double> TimeSeries::Latest(const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end() || samples_ == 0) return std::nullopt;
  return ValueAtLocked(it->second, samples_ - 1);
}

std::optional<double> TimeSeries::Delta(const std::string& series,
                                        size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end() || samples_ == 0) return std::nullopt;
  const size_t last = samples_ - 1;
  const size_t lo =
      std::max(it->second.first_sample,
               std::max(OldestRetainedLocked(),
                        last >= window ? last - window : size_t{0}));
  const auto newest = ValueAtLocked(it->second, last);
  const auto oldest = ValueAtLocked(it->second, lo);
  if (!newest || !oldest) return std::nullopt;
  return *newest - *oldest;
}

std::optional<double> TimeSeries::RatePerSecond(const std::string& series,
                                                size_t window) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end() || samples_ == 0) return std::nullopt;
  const size_t last = samples_ - 1;
  const size_t lo =
      std::max(it->second.first_sample,
               std::max(OldestRetainedLocked(),
                        last >= window ? last - window : size_t{0}));
  if (lo >= last) return std::nullopt;  // need two distinct samples
  const auto newest = ValueAtLocked(it->second, last);
  const auto oldest = ValueAtLocked(it->second, lo);
  if (!newest || !oldest) return std::nullopt;
  const SampleInfo& a = time_ring_[lo % config_.capacity];
  const SampleInfo& b = time_ring_[last % config_.capacity];
  double seconds = 0.0;
  if (a.has_sim && b.has_sim) {
    seconds = static_cast<double>(b.sim_us - a.sim_us) /
              static_cast<double>(common::kMicrosPerSecond);
  } else {
    seconds = static_cast<double>(b.wall_ns - a.wall_ns) / 1.0e9;
  }
  if (seconds <= 0.0) return std::nullopt;
  return (*newest - *oldest) / seconds;
}

std::optional<size_t> TimeSeries::SamplesSinceChange(
    const std::string& series) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = series_.find(series);
  if (it == series_.end() || samples_ == 0) return std::nullopt;
  const size_t last = samples_ - 1;
  const auto latest = ValueAtLocked(it->second, last);
  if (!latest) return std::nullopt;
  size_t stale = 0;
  for (size_t i = last; i > 0; --i) {
    const auto prev = ValueAtLocked(it->second, i - 1);
    if (!prev || *prev != *latest) break;
    ++stale;
  }
  return stale;
}

void TimeSeries::WriteJsonLines(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t lo = OldestRetainedLocked();
  out << "{\"type\":\"meta\",\"samples\":" << samples_
      << ",\"retained\":" << (samples_ - lo)
      << ",\"capacity\":" << config_.capacity
      << ",\"series\":" << series_.size()
      << ",\"dropped_series\":" << dropped_series_ << "}\n";
  for (size_t i = lo; i < samples_; ++i) {
    const SampleInfo& info = time_ring_[i % config_.capacity];
    out << "{\"type\":\"sample\",\"index\":" << i
        << ",\"wall_ns\":" << info.wall_ns;
    if (info.has_sim) out << ",\"sim_us\":" << info.sim_us;
    out << "}\n";
  }
  for (const auto& [name, s] : series_) {
    const size_t start = std::max(s.first_sample, lo);
    if (start >= samples_) continue;
    out << "{\"type\":\"series\",\"name\":\"" << JsonEscape(name)
        << "\",\"kind\":\"" << SeriesKindName(s.kind)
        << "\",\"start\":" << start << ",\"values\":[";
    for (size_t i = start; i < samples_; ++i) {
      if (i != start) out << ",";
      WriteJsonNumber(out, SlotValue(s, i));
    }
    out << "]}\n";
  }
}

}  // namespace pds2::obs
