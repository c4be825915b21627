#ifndef PDS2_OBS_TRACE_ANALYSIS_H_
#define PDS2_OBS_TRACE_ANALYSIS_H_

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "obs/health.h"
#include "obs/trace.h"

namespace pds2::obs {

/// The health half of a run export: what TimeSeries::WriteJsonLines and
/// HealthMonitor::WriteJsonLines wrote, read back.
struct HealthExport {
  struct Sample {
    uint64_t index = 0;
    TimeSeries::SampleInfo info;
  };
  struct Series {
    std::string kind;
    uint64_t start = 0;  // sample index of values[0]
    std::vector<double> values;
  };
  // The "meta" record.
  uint64_t samples = 0;
  uint64_t retained = 0;
  uint64_t capacity = 0;
  uint64_t series_count = 0;
  uint64_t dropped_series = 0;

  std::vector<Sample> sample_lines;
  std::map<std::string, Series> series;
  std::vector<AlertEvent> alerts;
};

/// Everything one run exports: spans, then health records.
struct RunExport {
  std::vector<SpanRecord> spans;
  HealthExport health;
};

/// Parses a JSON-lines run export (schema: docs/PROTOCOL.md, "Run export
/// schema"). A line without a "type" key is a span written by
/// Tracer::WriteJsonLines; a line whose first key is "type" ("meta",
/// "sample", "series" or "alert") is a health record. Returns false and
/// sets `*error` (if non-null) to "line N: <what> at offset K" on the first
/// malformed line or unknown key; blank lines are skipped.
/// scripts/check_trace_schema.py validates the same schema from outside.
bool ParseExportJsonLines(std::istream& in, RunExport* out,
                          std::string* error);

/// One step of a critical path, innermost cause last.
struct CriticalPathStep {
  uint64_t id = 0;
  std::string name;
  std::string node;
  common::SimTime sim_start = 0;
  common::SimTime sim_end = 0;
  uint64_t wall_dur_ns = 0;
  /// Sim time this step is "charged": its sim_end minus the previous
  /// step's sim_end (the path-local latency contribution).
  common::SimTime charged_sim_us = 0;
};

/// Per-span-name latency attribution over a set of spans.
struct StageStat {
  std::string name;
  size_t count = 0;
  uint64_t total_wall_ns = 0;
  uint64_t max_wall_ns = 0;
  common::SimTime total_sim_us = 0;  // spans without sim time contribute 0
  common::SimTime max_sim_us = 0;
};

/// Fan-out shape of the causal DAG (children = parent edges + links).
struct FanOutStats {
  size_t spans = 0;
  size_t edges = 0;
  size_t leaves = 0;
  size_t max_out_degree = 0;
  uint64_t max_out_degree_span = 0;  // span id with the widest fan-out
  double mean_out_degree = 0.0;
};

/// In-memory causal DAG over exported spans. Edges are the tree parent
/// (SpanRecord::parent) plus every link (SpanRecord::links); components,
/// descendants and critical paths all follow both edge kinds, so a
/// block-apply span linked to a tx-submit span is causally downstream of
/// it even though its tree parent is the validator's delivery span.
class TraceDag {
 public:
  explicit TraceDag(std::vector<SpanRecord> spans);

  const std::vector<SpanRecord>& spans() const { return spans_; }
  size_t size() const { return spans_.size(); }

  /// Record by span id (nullptr if unknown).
  const SpanRecord* Get(uint64_t id) const;

  /// First span (lowest id) with this name, nullptr if none.
  const SpanRecord* Find(const std::string& name) const;

  /// Causal children of `id`: spans whose parent or links include it,
  /// ascending by id.
  std::vector<uint64_t> Children(uint64_t id) const;

  /// Ids of spans with no causal parent present in the set, ascending.
  std::vector<uint64_t> Roots() const;

  /// Number of weakly connected components (a fully stitched run has 1
  /// per workload).
  size_t NumComponents() const;

  /// All span ids weakly connected to `id` (including itself), ascending.
  std::vector<uint64_t> Component(uint64_t id) const;

  /// Distinct non-empty node labels in `id`'s component, sorted — the
  /// roles a trace spans ("executor/e0", "provider/alice", "validator/0").
  std::vector<std::string> NodesInComponent(uint64_t id) const;

  /// Ids causally downstream of `root` (including it), ascending.
  std::vector<uint64_t> Descendants(uint64_t root) const;

  /// Sim-time critical path from `root`: walks causal predecessor edges
  /// back from the descendant with the largest sim_end, so the returned
  /// chain explains when the slowest effect of `root` completed. Steps are
  /// ordered root first; charged_sim_us attributes each step's marginal
  /// latency. Empty if `root` is unknown. Ties break toward larger span
  /// ids (the later, deeper span), keeping the path deterministic for
  /// seeded runs.
  std::vector<CriticalPathStep> CriticalPathSim(uint64_t root) const;

  /// Per-name latency attribution over the whole span set, sorted by
  /// descending total sim time then name.
  std::vector<StageStat> StageStats() const;

  FanOutStats FanOut() const;

 private:
  std::vector<SpanRecord> spans_;
  std::map<uint64_t, size_t> index_;               // id -> spans_ index
  std::map<uint64_t, std::vector<uint64_t>> children_;  // causal edges
};

/// Writes a run as a Chrome trace_event JSON document (catapult / Perfetto
/// "traceEvents" array): one complete ("ph":"X") event per finished span,
/// one process per node label, plus flow arrows ("s"/"f") for every
/// cross-node parent edge and every link. Alerts go in one more "health"
/// process, one thread per rule and one complete event per fire→resolve
/// interval. With `use_sim_time` timestamps are simulated microseconds;
/// otherwise wall-clock microseconds.
void WriteChromeTrace(const RunExport& run, std::ostream& out,
                      bool use_sim_time);

}  // namespace pds2::obs

#endif  // PDS2_OBS_TRACE_ANALYSIS_H_
