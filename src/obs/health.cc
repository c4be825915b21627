#include "obs/health.h"

#include <algorithm>
#include <cstring>
#include <set>

#include "common/logging.h"
#include "obs/json_codec.h"

namespace pds2::obs {

namespace {

void HashMix(uint64_t* h, uint64_t v) {
  // FNV-1a over the value's 8 bytes.
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (i * 8)) & 0xff;
    *h *= 1099511628211ull;
  }
}

void HashMixString(uint64_t* h, const std::string& s) {
  for (unsigned char c : s) {
    *h ^= c;
    *h *= 1099511628211ull;
  }
  HashMix(h, s.size());
}

uint64_t DoubleBits(double v) {
  // Canonicalize -0.0 so digests do not depend on how a zero was produced.
  if (v == 0.0) v = 0.0;
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  return bits;
}

}  // namespace

const char* SeverityName(Severity severity) {
  switch (severity) {
    case Severity::kInfo:
      return "info";
    case Severity::kWarning:
      return "warning";
    case Severity::kCritical:
      return "critical";
  }
  return "?";
}

const char* ComparisonName(Comparison cmp) {
  switch (cmp) {
    case Comparison::kGt:
      return ">";
    case Comparison::kGe:
      return ">=";
    case Comparison::kLt:
      return "<";
    case Comparison::kLe:
      return "<=";
    case Comparison::kEq:
      return "==";
    case Comparison::kNe:
      return "!=";
  }
  return "?";
}

bool Compare(double lhs, Comparison cmp, double rhs) {
  switch (cmp) {
    case Comparison::kGt:
      return lhs > rhs;
    case Comparison::kGe:
      return lhs >= rhs;
    case Comparison::kLt:
      return lhs < rhs;
    case Comparison::kLe:
      return lhs <= rhs;
    case Comparison::kEq:
      return lhs == rhs;
    case Comparison::kNe:
      return lhs != rhs;
  }
  return false;
}

HealthRule ThresholdRule(std::string id, Severity severity, std::string series,
                         Comparison cmp, double bound) {
  HealthRule rule;
  rule.id = std::move(id);
  rule.kind = HealthRule::Kind::kThreshold;
  rule.severity = severity;
  rule.series = std::move(series);
  rule.cmp = cmp;
  rule.bound = bound;
  return rule;
}

HealthRule RateRule(std::string id, Severity severity, std::string series,
                    size_t window, Comparison cmp, double bound_per_second) {
  HealthRule rule;
  rule.id = std::move(id);
  rule.kind = HealthRule::Kind::kRate;
  rule.severity = severity;
  rule.series = std::move(series);
  rule.window = window;
  rule.cmp = cmp;
  rule.bound = bound_per_second;
  return rule;
}

HealthRule AbsenceRule(std::string id, Severity severity, std::string series,
                       size_t max_stale_samples, std::string activity_series) {
  HealthRule rule;
  rule.id = std::move(id);
  rule.kind = HealthRule::Kind::kAbsence;
  rule.severity = severity;
  rule.series = std::move(series);
  rule.max_stale_samples = max_stale_samples;
  rule.activity_series = std::move(activity_series);
  return rule;
}

HealthRule InvariantRule(
    std::string id, Severity severity,
    std::function<InvariantResult(const TimeSeries&)> invariant) {
  HealthRule rule;
  rule.id = std::move(id);
  rule.kind = HealthRule::Kind::kInvariant;
  rule.severity = severity;
  rule.invariant = std::move(invariant);
  return rule;
}

void HealthMonitor::AddRules(std::vector<HealthRule> rules) {
  std::lock_guard<std::mutex> lock(mu_);
  for (HealthRule& rule : rules) {
    rules_.push_back(std::move(rule));
    states_.emplace_back();
  }
}

size_t HealthMonitor::RuleCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rules_.size();
}

HealthMonitor::Check HealthMonitor::EvaluateRuleLocked(
    const HealthRule& rule) const {
  Check check;
  switch (rule.kind) {
    case HealthRule::Kind::kThreshold: {
      const auto value = ts_->Latest(rule.series);
      if (!value) return check;
      check.applicable = true;
      check.observed = *value;
      check.bound = rule.bound;
      check.bad = Compare(*value, rule.cmp, rule.bound);
      return check;
    }
    case HealthRule::Kind::kRate: {
      const auto rate = ts_->RatePerSecond(rule.series, rule.window);
      if (!rate) return check;  // needs >= 2 samples with a time span
      check.applicable = true;
      check.observed = *rate;
      check.bound = rule.bound;
      check.bad = Compare(*rate, rule.cmp, rule.bound);
      return check;
    }
    case HealthRule::Kind::kAbsence: {
      const auto stale = ts_->SamplesSinceChange(rule.series);
      if (!stale) return check;
      if (!rule.activity_series.empty()) {
        // Only meaningful while the gating signal is moving: a quiesced
        // system is allowed to have a flat series.
        const auto activity =
            ts_->Delta(rule.activity_series, rule.max_stale_samples);
        if (!activity || *activity <= 0.0) return check;
      }
      check.applicable = true;
      check.observed = static_cast<double>(*stale);
      check.bound = static_cast<double>(rule.max_stale_samples);
      check.bad = *stale > rule.max_stale_samples;
      return check;
    }
    case HealthRule::Kind::kInvariant: {
      if (!rule.invariant) return check;
      InvariantResult result = rule.invariant(*ts_);
      check.applicable = true;
      check.observed = result.observed;
      check.bound = result.bound;
      check.bad = !result.ok;
      check.detail = std::move(result.detail);
      return check;
    }
  }
  return check;
}

void HealthMonitor::EmitLocked(const HealthRule& rule, const RuleState& state,
                               bool fired, const Check& check,
                               size_t sample_index,
                               const TimeSeries::SampleInfo& info) {
  AlertEvent event;
  event.rule_id = rule.id;
  event.severity = rule.severity;
  event.fired = fired;
  event.sample_index = sample_index;
  event.first_bad_sample = state.first_bad_sample;
  event.wall_ns = info.wall_ns;
  event.has_sim = info.has_sim;
  event.sim_us = info.sim_us;
  event.observed = check.observed;
  event.bound = check.bound;
  event.detail = check.detail;
  events_.push_back(std::move(event));
  if (events_.size() > kMaxEvents) {
    events_.erase(events_.begin(),
                  events_.begin() +
                      static_cast<ptrdiff_t>(events_.size() - kMaxEvents));
  }

  if (fired) {
    PDS2_M_COUNT("obs.health.alerts_fired", 1);
    if (rule.severity >= Severity::kCritical) {
      PDS2_M_COUNT("obs.health.alerts_critical", 1);
      PDS2_LOG(kError)
          .Field("rule", rule.id)
          .Field("severity", SeverityName(rule.severity))
          .Field("observed", check.observed)
          .Field("bound", check.bound)
          .Field("first_bad_sample", state.first_bad_sample)
          << "health alert fired: " << rule.id << " (observed "
          << check.observed << " vs bound " << check.bound << ")";
    } else {
      PDS2_LOG(kWarn)
          .Field("rule", rule.id)
          .Field("severity", SeverityName(rule.severity))
          .Field("observed", check.observed)
          .Field("bound", check.bound)
          .Field("first_bad_sample", state.first_bad_sample)
          << "health alert fired: " << rule.id << " (observed "
          << check.observed << " vs bound " << check.bound << ")";
    }
  } else {
    PDS2_M_COUNT("obs.health.alerts_resolved", 1);
    PDS2_LOG(kInfo) << "health alert resolved: " << rule.id;
  }
}

size_t HealthMonitor::EvaluateLatest() {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t samples = ts_->SampleCount();
  if (samples == 0 || samples == evaluated_through_) return 0;
  evaluated_through_ = samples;
  const size_t sample_index = samples - 1;
  const auto info_opt = ts_->InfoAt(sample_index);
  const TimeSeries::SampleInfo info =
      info_opt ? *info_opt : TimeSeries::SampleInfo{};

  size_t emitted = 0;
  for (size_t i = 0; i < rules_.size(); ++i) {
    const HealthRule& rule = rules_[i];
    RuleState& state = states_[i];
    const Check check = EvaluateRuleLocked(rule);
    const bool bad = check.applicable && check.bad;
    if (bad == state.active) continue;  // no transition
    state.active = bad;
    if (bad) state.first_bad_sample = sample_index;
    EmitLocked(rule, state, /*fired=*/bad, check, sample_index, info);
    ++emitted;
  }
  return emitted;
}

std::vector<AlertEvent> HealthMonitor::Events() const {
  std::lock_guard<std::mutex> lock(mu_);
  return events_;
}

std::vector<std::string> HealthMonitor::FiredRuleIds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::set<std::string> ids;
  for (const AlertEvent& event : events_) {
    if (event.fired) ids.insert(event.rule_id);
  }
  return {ids.begin(), ids.end()};
}

uint64_t HealthMonitor::EventsDigest() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t h = 1469598103934665603ull;  // FNV offset basis
  for (const AlertEvent& event : events_) {
    HashMixString(&h, event.rule_id);
    HashMix(&h, event.fired ? 1 : 0);
    HashMix(&h, event.sample_index);
    HashMix(&h, event.first_bad_sample);
    HashMix(&h, event.has_sim ? event.sim_us : 0);
    HashMix(&h, DoubleBits(event.observed));
    HashMix(&h, DoubleBits(event.bound));
  }
  return h;
}

void HealthMonitor::WriteJsonLines(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const AlertEvent& event : events_) {
    out << "{\"type\":\"alert\",\"rule\":\"" << JsonEscape(event.rule_id)
        << "\",\"severity\":\"" << SeverityName(event.severity)
        << "\",\"fired\":" << (event.fired ? "true" : "false")
        << ",\"sample\":" << event.sample_index
        << ",\"first_bad\":" << event.first_bad_sample
        << ",\"wall_ns\":" << event.wall_ns;
    if (event.has_sim) out << ",\"sim_us\":" << event.sim_us;
    out << ",\"observed\":";
    WriteJsonNumber(out, event.observed);
    out << ",\"bound\":";
    WriteJsonNumber(out, event.bound);
    if (!event.detail.empty()) {
      out << ",\"detail\":\"" << JsonEscape(event.detail) << "\"";
    }
    out << "}\n";
  }
}

}  // namespace pds2::obs
