// Per-layer self time of one traced op, computed from the tracer's spans.
#ifndef PERFBENCH_TRACE_SPLIT_H_
#define PERFBENCH_TRACE_SPLIT_H_

#include <map>
#include <string>
#include <vector>

#include "obs/trace.h"

namespace perfbench {

struct SelfTimes {
  /// Span name -> summed self time in ms. A span's self time is its
  /// duration minus the part of it covered by spans nested directly inside
  /// it on the same thread.
  std::map<std::string, double> by_name;
  /// Spans that overlap a sibling instead of nesting (0 on a sound trace).
  size_t improperly_nested = 0;
};

/// Splits the last completed span named `root` into self times of the spans
/// on its thread inside it. The root's own self time (under its own name)
/// is the op time no program span covers. Spans on other threads, such as
/// pool workers, run while a span on the root's thread waits for them, so
/// they are left out and the self times sum to the root's duration.
SelfTimes SplitSelfTime(const std::vector<pds2::obs::SpanRecord>& spans,
                        const std::string& root);

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_SPLIT_H_
