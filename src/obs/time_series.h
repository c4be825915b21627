#ifndef PDS2_OBS_TIME_SERIES_H_
#define PDS2_OBS_TIME_SERIES_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace pds2::obs {

/// Shape of one stored series. Counters keep their cumulative value per
/// sample (queries derive deltas/rates); gauges keep the sampled value;
/// histograms fan out into quantile sub-series ("<name>#p50", "#p90",
/// "#p99") plus a cumulative "#count" that behaves like a counter.
enum class SeriesKind : uint8_t { kCounter, kGauge, kQuantile };

const char* SeriesKindName(SeriesKind kind);

struct TimeSeriesConfig {
  /// Ring slots retained per series (and for the shared time index). Memory
  /// is bounded by capacity * series regardless of run length.
  size_t capacity = 1024;
  /// Cardinality cap: snapshots may introduce at most this many series;
  /// later names are dropped (counted, never stored) instead of growing the
  /// map without bound.
  size_t max_series = 4096;
};

/// Compact ring-buffer time-series store over the metrics Registry: each
/// Sample() reads every registry metric (through handles bound once, see
/// BindLocked) and appends one point per known series, stamped with wall
/// time and (when the caller runs under a DES) sim time. Old points are overwritten once the ring wraps, so a sampler
/// ticking for hours holds the same memory as one that ticked twice.
///
/// All public methods are thread-safe; Sample() is expected to be called
/// from one place (a NetSim tick hook, a Marketplace tick, or the wall
/// sampler in tools) while queries run from rule evaluation or tests.
class TimeSeries {
 public:
  explicit TimeSeries(TimeSeriesConfig config = {},
                      Registry* registry = nullptr);  // nullptr = Global()

  /// Reads the registry and appends one sample at (wall_ns, sim_us).
  /// Returns the new sample's index (0-based, monotonically increasing for
  /// the lifetime of the object — ring eviction never renumbers).
  size_t Sample(uint64_t wall_ns, bool has_sim = false,
                common::SimTime sim_us = 0);

  /// Total samples taken (not the retained count).
  size_t SampleCount() const;
  /// Oldest retained sample index (SampleCount() - retained span).
  size_t OldestRetained() const;
  size_t Capacity() const;
  size_t SeriesCount() const;
  /// Series dropped by the max_series cap.
  uint64_t DroppedSeries() const;

  struct SampleInfo {
    uint64_t wall_ns = 0;
    bool has_sim = false;
    common::SimTime sim_us = 0;
  };
  /// Timestamp of a retained sample; nullopt if evicted / out of range.
  std::optional<SampleInfo> InfoAt(size_t sample_index) const;

  /// Value of `series` at a retained sample (counters: cumulative value).
  /// nullopt when the series is unknown, the sample was evicted, or the
  /// series first appeared after `sample_index`.
  std::optional<double> ValueAt(const std::string& series,
                                size_t sample_index) const;
  /// Value at the latest sample.
  std::optional<double> Latest(const std::string& series) const;

  /// v[latest] - v[latest - window], clamped to the retained range (a
  /// window larger than history degrades to "since first retained point").
  std::optional<double> Delta(const std::string& series, size_t window) const;

  /// Delta(window) divided by the covered time span. Uses sim seconds when
  /// both endpoint samples carry sim time, wall seconds otherwise; nullopt
  /// when the span is zero.
  std::optional<double> RatePerSecond(const std::string& series,
                                      size_t window) const;

  /// Number of trailing samples whose value equals the latest (staleness:
  /// 0 = the series changed at the latest sample). Clamped to the retained
  /// span; nullopt for unknown series or when nothing is retained.
  std::optional<size_t> SamplesSinceChange(const std::string& series) const;

  /// Kind of a known series.
  std::optional<SeriesKind> KindOf(const std::string& series) const;

  /// JSON-lines export (schema: docs/PROTOCOL.md "Run export schema"):
  ///   {"type":"meta",...}
  ///   {"type":"sample","index":I,"wall_ns":W[,"sim_us":S]}   per retained
  ///   {"type":"series","name":N,"kind":K,"start":I,"values":[...]}
  void WriteJsonLines(std::ostream& out) const;

  /// Drops all samples and series (config and registry binding stay).
  void Clear();

 private:
  struct Series {
    SeriesKind kind = SeriesKind::kGauge;
    /// Sample index of this series' first point (series may appear after
    /// sampling started; earlier samples have no value for it).
    size_t first_sample = 0;
    /// Ring of points, slot = sample_index % capacity. Valid range is
    /// [max(first_sample, oldest retained), SampleCount()). It grows as
    /// slots are first written, up to capacity slots, so a short run pays
    /// for the points it took rather than for a full ring per series.
    std::vector<double> ring;
  };

  /// One registry metric and the series it feeds. A histogram feeds four
  /// (#count, #p50, #p90, #p99); a counter or gauge only series[0].
  struct Binding {
    std::string name;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    Series* series[4] = {};
  };

  // All Require a held mu_.
  /// Rebuilds bindings_ when the registry has names it had not at the
  /// last call: the handles stay valid, so an unchanged registry is read
  /// through them with no snapshot and no name lookups.
  void BindLocked();
  /// Appends `value` to the series `name` + `suffix`, found (or created)
  /// once and then cached in `series`.
  void AppendLocked(Series*& series, const std::string& name,
                    const char* suffix, SeriesKind kind, double value);
  std::optional<double> ValueAtLocked(const Series& s, size_t index) const;
  /// The ring slot of `index`; 0 for a slot not yet written.
  double SlotValue(const Series& s, size_t index) const;
  size_t OldestRetainedLocked() const;

  mutable std::mutex mu_;
  TimeSeriesConfig config_;
  Registry* registry_;
  std::map<std::string, Series> series_;
  std::vector<Binding> bindings_;  // counters, gauges, histograms; by name
  size_t bound_names_ = 0;         // Registry::NamesRegistered() at bind
  std::vector<SampleInfo> time_ring_;  // slot = sample_index % capacity
  size_t samples_ = 0;
  uint64_t dropped_series_ = 0;
};

}  // namespace pds2::obs

#endif  // PDS2_OBS_TIME_SERIES_H_
