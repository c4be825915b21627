// Test-only reads of a TimeSeries through its run export: the records
// TimeSeries::WriteJsonLines writes, parsed by ParseExportJsonLines, which
// is what pds2_obs reads. Shared by the time-series, registry-race and
// scale suites.

#ifndef PDS2_TESTS_OBS_TIME_SERIES_READER_H_
#define PDS2_TESTS_OBS_TIME_SERIES_READER_H_

#include <gtest/gtest.h>

#include <optional>
#include <sstream>
#include <string>

#include "obs/time_series.h"
#include "obs/trace_analysis.h"

namespace pds2::obs {

/// The health half of `ts`'s run export, read back.
inline HealthExport ReadBack(const TimeSeries& ts) {
  std::stringstream out;
  ts.WriteJsonLines(out);
  RunExport run;
  std::string error;
  EXPECT_TRUE(ParseExportJsonLines(out, &run, &error)) << error;
  return run.health;
}

/// Index of the oldest retained sample.
inline uint64_t OldestRetained(const HealthExport& health) {
  return health.samples - health.retained;
}

/// The exported value of `series` at sample `index`; nullopt when the
/// series is unknown, the sample was evicted, or the series first appeared
/// after `index`.
inline std::optional<double> ValueAt(const HealthExport& health,
                                     const std::string& series,
                                     uint64_t index) {
  auto it = health.series.find(series);
  if (it == health.series.end() || index < it->second.start ||
      index - it->second.start >= it->second.values.size()) {
    return std::nullopt;
  }
  return it->second.values[index - it->second.start];
}

/// The exported kind name of `series` ("counter", "gauge", "quantile");
/// empty when the series is not exported.
inline std::string KindOf(const HealthExport& health,
                          const std::string& series) {
  auto it = health.series.find(series);
  return it == health.series.end() ? "" : it->second.kind;
}

}  // namespace pds2::obs

#endif  // PDS2_TESTS_OBS_TIME_SERIES_READER_H_
