#ifndef PDS2_OBS_HEALTH_H_
#define PDS2_OBS_HEALTH_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "obs/time_series.h"

namespace pds2::obs {

enum class Severity : uint8_t { kInfo = 0, kWarning = 1, kCritical = 2 };
const char* SeverityName(Severity severity);

enum class Comparison : uint8_t { kGt, kGe, kLt, kLe, kEq, kNe };
const char* ComparisonName(Comparison cmp);
bool Compare(double lhs, Comparison cmp, double rhs);

/// Result of one cross-metric invariant check (supply conservation, escrow
/// balance, ...). `observed`/`bound` feed the alert event so a post-mortem
/// shows how far off the invariant was.
struct InvariantResult {
  bool ok = true;
  double observed = 0.0;
  double bound = 0.0;
  std::string detail;
};

/// One declarative health rule. Use the factory functions below; the
/// kind-specific fields are only meaningful for their kind.
struct HealthRule {
  enum class Kind : uint8_t { kThreshold, kRate, kAbsence, kInvariant };

  std::string id;  // unique, dotted ("chain.supply-conservation")
  Kind kind = Kind::kThreshold;
  Severity severity = Severity::kWarning;

  // kThreshold: alert while Compare(latest(series), cmp, bound) holds.
  // kRate: alert while RatePerSecond(series, window) cmp bound holds.
  std::string series;
  Comparison cmp = Comparison::kGt;
  double bound = 0.0;
  size_t window = 8;  // kRate lookback, in samples

  // kAbsence: alert when `series` has not changed for more than
  // `max_stale_samples` samples while `activity_series` (when set) moved —
  // "the system is doing work but this signal is stuck".
  size_t max_stale_samples = 8;
  std::string activity_series;

  // kInvariant: arbitrary cross-metric predicate over the time series.
  std::function<InvariantResult(const TimeSeries&)> invariant;
};

HealthRule ThresholdRule(std::string id, Severity severity, std::string series,
                         Comparison cmp, double bound);
HealthRule RateRule(std::string id, Severity severity, std::string series,
                    size_t window, Comparison cmp,
                    double bound_per_second);
HealthRule AbsenceRule(std::string id, Severity severity, std::string series,
                       size_t max_stale_samples,
                       std::string activity_series = "");
HealthRule InvariantRule(
    std::string id, Severity severity,
    std::function<InvariantResult(const TimeSeries&)> invariant);

/// Structured fire/resolve record. Digest-relevant fields are all
/// sim-deterministic; wall_ns is carried for reports but excluded from
/// EventsDigest() so 1-vs-N-thread runs stay bit-identical.
struct AlertEvent {
  std::string rule_id;
  Severity severity = Severity::kWarning;
  bool fired = true;  // false = resolve
  uint64_t sample_index = 0;
  uint64_t first_bad_sample = 0;  // first sample of the current bad streak
  uint64_t wall_ns = 0;
  bool has_sim = false;
  common::SimTime sim_us = 0;
  double observed = 0.0;
  double bound = 0.0;
  std::string detail;
};

/// Declarative SLO/invariant engine over a TimeSeries: Evaluate() checks
/// every rule against the latest sample, fires a rule on its first bad
/// sample and resolves it on its first good one, and emits AlertEvents
/// into (a) its own event log (the newest kMaxEvents), (b) the metrics
/// registry (obs.health.* counters), (c) the log sink, and (d) on critical
/// fires, a FlightRecorder dump when the recorder is enabled — so a seeded
/// chaos run that goes bad leaves a post-mortem artifact without crashing.
///
/// Rules that reference series absent from the time series are skipped
/// (treated healthy): packs register rules for subsystems that may not be
/// instrumented in a given run, and clean runs must never false-fire.
class HealthMonitor {
 public:
  /// Alert events retained (oldest dropped beyond this).
  static constexpr size_t kMaxEvents = 4096;

  explicit HealthMonitor(const TimeSeries* ts) : ts_(ts) {}

  void AddRule(HealthRule rule);
  void AddRules(std::vector<HealthRule> rules);
  size_t RuleCount() const;

  /// Evaluates every rule at the latest sample. No-op before the first
  /// sample. Returns the number of events (fires + resolves) emitted.
  size_t EvaluateLatest();

  std::vector<AlertEvent> Events() const;
  /// Rule ids currently in the fired state.
  std::vector<std::string> ActiveAlerts() const;
  /// Distinct rule ids that ever fired.
  std::vector<std::string> FiredRuleIds() const;
  uint64_t FireCount() const;

  /// FNV-1a over the sim-deterministic fields of every event (rule id,
  /// fired, sample index, first-bad, sim time, observed, bound). Equal
  /// digests across thread counts ⇒ identical alert behaviour.
  uint64_t EventsDigest() const;

  /// JSON-lines alert export, one {"type":"alert",...} object per event
  /// (appended after TimeSeries::WriteJsonLines in a run export).
  void WriteJsonLines(std::ostream& out) const;

  /// Drops events and per-rule state; rules stay registered.
  void Clear();

 private:
  struct RuleState {
    bool active = false;
    size_t first_bad_sample = 0;
  };
  struct Check {
    bool applicable = false;  // series present / invariant evaluable
    bool bad = false;
    double observed = 0.0;
    double bound = 0.0;
    std::string detail;
  };

  Check EvaluateRuleLocked(const HealthRule& rule) const;
  void EmitLocked(const HealthRule& rule, const RuleState& state, bool fired,
                  const Check& check, size_t sample_index,
                  const TimeSeries::SampleInfo& info);

  mutable std::mutex mu_;
  const TimeSeries* ts_;
  std::vector<HealthRule> rules_;
  std::vector<RuleState> states_;
  std::vector<AlertEvent> events_;
  uint64_t fires_ = 0;
  size_t evaluated_through_ = 0;  // SampleCount() already evaluated
};

}  // namespace pds2::obs

#endif  // PDS2_OBS_HEALTH_H_
