#include "obs/trace_analysis.h"

#include <algorithm>
#include <initializer_list>
#include <set>
#include <string_view>
#include <utility>

#include "obs/json_codec.h"

namespace pds2::obs {

namespace {

// Reads `key` into its slot, or fails on a key this record type lacks.
bool ReadUint(JsonLineParser& p, const std::string& key,
              std::initializer_list<std::pair<std::string_view, uint64_t*>>
                  slots,
              std::string* error) {
  for (const auto& [name, slot] : slots) {
    if (key == name) return p.ParseUint(slot, error);
  }
  return p.Fail(error, "unknown key \"" + key + "\"");
}

struct SpanLine {
  SpanRecord span;
  uint64_t thread = 0;
  uint64_t wall_dur = 0;
  uint64_t sim_dur = 0;
};

bool ReadSpanField(JsonLineParser& p, const std::string& key, SpanLine* line,
                   std::string* error) {
  SpanRecord& span = line->span;
  if (key == "name") return p.ParseString(&span.name, error);
  if (key == "node") return p.ParseString(&span.node, error);
  if (key == "links") {
    return p.ParseArray(&span.links, error, &JsonLineParser::ParseUint);
  }
  if (key == "sim_start_us") span.has_sim = true;
  return ReadUint(p, key,
                  {{"id", &span.id},
                   {"parent", &span.parent},
                   {"trace", &span.trace_id},
                   {"thread", &line->thread},
                   {"wall_start_ns", &span.wall_start_ns},
                   {"wall_dur_ns", &line->wall_dur},
                   {"sim_start_us", &span.sim_start},
                   {"sim_dur_us", &line->sim_dur}},
                  error);
}

bool ReadAlertField(JsonLineParser& p, const std::string& key,
                    AlertEvent* alert, std::string* error) {
  if (key == "rule") return p.ParseString(&alert->rule_id, error);
  if (key == "detail") return p.ParseString(&alert->detail, error);
  if (key == "fired") return p.ParseBool(&alert->fired, error);
  if (key == "observed") return p.ParseNumber(&alert->observed, error);
  if (key == "bound") return p.ParseNumber(&alert->bound, error);
  if (key == "severity") {
    std::string name;
    if (!p.ParseString(&name, error)) return false;
    for (Severity s : {Severity::kInfo, Severity::kWarning,
                       Severity::kCritical}) {
      if (name == SeverityName(s)) {
        alert->severity = s;
        return true;
      }
    }
    return p.Fail(error, "unknown severity \"" + name + "\"");
  }
  if (key == "sim_us") alert->has_sim = true;
  return ReadUint(p, key,
                  {{"sample", &alert->sample_index},
                   {"first_bad", &alert->first_bad_sample},
                   {"wall_ns", &alert->wall_ns},
                   {"sim_us", &alert->sim_us}},
                  error);
}

bool ParseExportLine(const std::string& line, RunExport* run,
                     std::string* error) {
  JsonLineParser p(line);
  HealthExport& health = run->health;
  std::string type;  // empty: a span line
  SpanLine span;
  HealthExport::Sample sample;
  std::string series_name;
  HealthExport::Series series;
  AlertEvent alert;
  bool first = true;
  const auto field = [&](const std::string& key) {
    if (std::exchange(first, false) && key == "type") {
      if (!p.ParseString(&type, error)) return false;
      if (type == "meta" || type == "sample" || type == "series" ||
          type == "alert") {
        return true;
      }
      return p.Fail(error, "unknown record type \"" + type + "\"");
    }
    if (type.empty()) return ReadSpanField(p, key, &span, error);
    if (type == "meta") {
      return ReadUint(p, key,
                      {{"samples", &health.samples},
                       {"retained", &health.retained},
                       {"capacity", &health.capacity},
                       {"series", &health.series_count},
                       {"dropped_series", &health.dropped_series}},
                      error);
    }
    if (type == "sample") {
      if (key == "sim_us") sample.info.has_sim = true;
      return ReadUint(p, key,
                      {{"index", &sample.index},
                       {"wall_ns", &sample.info.wall_ns},
                       {"sim_us", &sample.info.sim_us}},
                      error);
    }
    if (type == "series") {
      if (key == "name") return p.ParseString(&series_name, error);
      if (key == "kind") return p.ParseString(&series.kind, error);
      if (key == "values") {
        return p.ParseArray(&series.values, error,
                            &JsonLineParser::ParseNumber);
      }
      return ReadUint(p, key, {{"start", &series.start}}, error);
    }
    return ReadAlertField(p, key, &alert, error);
  };
  if (!p.ParseObject(error, field)) return false;

  if (type.empty()) {
    SpanRecord& record = span.span;
    if (record.id == 0) return p.Fail(error, "missing span id");
    if (record.name.empty()) return p.Fail(error, "missing span name");
    record.thread = static_cast<uint32_t>(span.thread);
    record.wall_end_ns = record.wall_start_ns + span.wall_dur;
    record.sim_end = record.has_sim ? record.sim_start + span.sim_dur : 0;
    run->spans.push_back(std::move(record));
  } else if (type == "sample") {
    health.sample_lines.push_back(sample);
  } else if (type == "series") {
    if (series_name.empty()) return p.Fail(error, "missing series name");
    health.series[series_name] = std::move(series);
  } else if (type == "alert") {
    if (alert.rule_id.empty()) return p.Fail(error, "missing alert rule");
    health.alerts.push_back(std::move(alert));
  }
  return true;
}

}  // namespace

bool ParseExportJsonLines(std::istream& in, RunExport* out,
                          std::string* error) {
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::string line_error;
    if (!ParseExportLine(line, out, &line_error)) {
      if (error != nullptr) {
        *error = "line " + std::to_string(line_no) + ": " + line_error;
      }
      return false;
    }
  }
  return true;
}

TraceDag::TraceDag(std::vector<SpanRecord> spans) : spans_(std::move(spans)) {
  for (size_t i = 0; i < spans_.size(); ++i) {
    index_[spans_[i].id] = i;
  }
  for (const SpanRecord& span : spans_) {
    if (span.parent != 0 && index_.count(span.parent) != 0) {
      children_[span.parent].push_back(span.id);
    }
    for (uint64_t link : span.links) {
      if (link != span.parent && index_.count(link) != 0) {
        children_[link].push_back(span.id);
      }
    }
  }
  for (auto& [id, kids] : children_) {
    std::sort(kids.begin(), kids.end());
    kids.erase(std::unique(kids.begin(), kids.end()), kids.end());
  }
}

const SpanRecord* TraceDag::Get(uint64_t id) const {
  const auto it = index_.find(id);
  return it == index_.end() ? nullptr : &spans_[it->second];
}

const SpanRecord* TraceDag::Find(const std::string& name) const {
  const SpanRecord* best = nullptr;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && (best == nullptr || span.id < best->id)) {
      best = &span;
    }
  }
  return best;
}

std::vector<uint64_t> TraceDag::Children(uint64_t id) const {
  const auto it = children_.find(id);
  return it == children_.end() ? std::vector<uint64_t>{} : it->second;
}

namespace {

// Causal parents of `span` that exist in `index`.
std::vector<uint64_t> PresentParents(
    const SpanRecord& span, const std::map<uint64_t, size_t>& index) {
  std::vector<uint64_t> parents;
  if (span.parent != 0 && index.count(span.parent) != 0) {
    parents.push_back(span.parent);
  }
  for (uint64_t link : span.links) {
    if (link != span.parent && index.count(link) != 0) {
      parents.push_back(link);
    }
  }
  return parents;
}

}  // namespace

std::vector<uint64_t> TraceDag::Roots() const {
  std::vector<uint64_t> roots;
  for (const SpanRecord& span : spans_) {
    if (PresentParents(span, index_).empty()) roots.push_back(span.id);
  }
  std::sort(roots.begin(), roots.end());
  return roots;
}

std::vector<uint64_t> TraceDag::Component(uint64_t id) const {
  std::vector<uint64_t> component;
  if (index_.count(id) == 0) return component;
  std::set<uint64_t> seen;
  std::vector<uint64_t> frontier{id};
  seen.insert(id);
  while (!frontier.empty()) {
    const uint64_t cur = frontier.back();
    frontier.pop_back();
    component.push_back(cur);
    std::vector<uint64_t> neighbors = Children(cur);
    const std::vector<uint64_t> parents =
        PresentParents(spans_[index_.at(cur)], index_);
    neighbors.insert(neighbors.end(), parents.begin(), parents.end());
    for (uint64_t next : neighbors) {
      if (seen.insert(next).second) frontier.push_back(next);
    }
  }
  std::sort(component.begin(), component.end());
  return component;
}

size_t TraceDag::NumComponents() const {
  std::set<uint64_t> assigned;
  size_t components = 0;
  for (const SpanRecord& span : spans_) {
    if (assigned.count(span.id) != 0) continue;
    ++components;
    for (uint64_t id : Component(span.id)) assigned.insert(id);
  }
  return components;
}

std::vector<std::string> TraceDag::NodesInComponent(uint64_t id) const {
  std::set<std::string> nodes;
  for (uint64_t member : Component(id)) {
    const std::string& node = spans_[index_.at(member)].node;
    if (!node.empty()) nodes.insert(node);
  }
  return {nodes.begin(), nodes.end()};
}

std::vector<uint64_t> TraceDag::Descendants(uint64_t root) const {
  std::vector<uint64_t> result;
  if (index_.count(root) == 0) return result;
  std::set<uint64_t> seen{root};
  std::vector<uint64_t> frontier{root};
  while (!frontier.empty()) {
    const uint64_t cur = frontier.back();
    frontier.pop_back();
    result.push_back(cur);
    for (uint64_t child : Children(cur)) {
      if (seen.insert(child).second) frontier.push_back(child);
    }
  }
  std::sort(result.begin(), result.end());
  return result;
}

std::vector<CriticalPathStep> TraceDag::CriticalPathSim(uint64_t root) const {
  std::vector<CriticalPathStep> path;
  const std::vector<uint64_t> down = Descendants(root);
  if (down.empty()) return path;
  const std::set<uint64_t> down_set(down.begin(), down.end());

  // Predecessor of each descendant: the causal parent (within the
  // descendant set) whose sim_end is largest — the edge that gated it.
  std::map<uint64_t, uint64_t> pred;
  for (uint64_t id : down) {
    if (id == root) continue;
    uint64_t best = 0;
    common::SimTime best_end = 0;
    for (uint64_t parent : PresentParents(spans_[index_.at(id)], index_)) {
      if (down_set.count(parent) == 0) continue;
      const SpanRecord& p = spans_[index_.at(parent)];
      const common::SimTime end = p.has_sim ? p.sim_end : 0;
      if (best == 0 || end > best_end || (end == best_end && parent > best)) {
        best = parent;
        best_end = end;
      }
    }
    if (best != 0) pred[id] = best;
  }

  // The path endpoint: descendant whose sim_end is latest. On ties the
  // LARGER id wins — it began later, so it sits deeper in the DAG and the
  // walk back yields the most informative chain (an enclosing stage span
  // and its last gating child end at the same instant; we want the child).
  uint64_t endpoint = root;
  common::SimTime endpoint_end =
      spans_[index_.at(root)].has_sim ? spans_[index_.at(root)].sim_end : 0;
  for (uint64_t id : down) {
    const SpanRecord& span = spans_[index_.at(id)];
    const common::SimTime end = span.has_sim ? span.sim_end : 0;
    if (end > endpoint_end || (end == endpoint_end && id > endpoint)) {
      endpoint = id;
      endpoint_end = end;
    }
  }

  std::vector<uint64_t> chain;
  std::set<uint64_t> walked;
  for (uint64_t cur = endpoint;; ) {
    if (!walked.insert(cur).second) break;  // cycle guard (malformed links)
    chain.push_back(cur);
    if (cur == root) break;
    const auto it = pred.find(cur);
    if (it == pred.end()) break;
    cur = it->second;
  }
  std::reverse(chain.begin(), chain.end());

  common::SimTime prev_end = 0;
  bool have_prev = false;
  for (uint64_t id : chain) {
    const SpanRecord& span = spans_[index_.at(id)];
    CriticalPathStep step;
    step.id = span.id;
    step.name = span.name;
    step.node = span.node;
    step.sim_start = span.has_sim ? span.sim_start : 0;
    step.sim_end = span.has_sim ? span.sim_end : 0;
    step.wall_dur_ns = span.wall_end_ns >= span.wall_start_ns
                           ? span.wall_end_ns - span.wall_start_ns
                           : 0;
    const common::SimTime base = have_prev ? prev_end : step.sim_start;
    step.charged_sim_us = step.sim_end > base ? step.sim_end - base : 0;
    prev_end = step.sim_end > base ? step.sim_end : base;
    have_prev = true;
    path.push_back(std::move(step));
  }
  return path;
}

std::vector<StageStat> TraceDag::StageStats() const {
  std::map<std::string, StageStat> by_name;
  for (const SpanRecord& span : spans_) {
    StageStat& stat = by_name[span.name];
    stat.name = span.name;
    stat.count += 1;
    const uint64_t wall = span.wall_end_ns >= span.wall_start_ns
                              ? span.wall_end_ns - span.wall_start_ns
                              : 0;
    stat.total_wall_ns += wall;
    stat.max_wall_ns = std::max(stat.max_wall_ns, wall);
    if (span.has_sim && span.sim_end >= span.sim_start) {
      const common::SimTime sim = span.sim_end - span.sim_start;
      stat.total_sim_us += sim;
      stat.max_sim_us = std::max(stat.max_sim_us, sim);
    }
  }
  std::vector<StageStat> stats;
  stats.reserve(by_name.size());
  for (auto& [name, stat] : by_name) stats.push_back(std::move(stat));
  std::sort(stats.begin(), stats.end(),
            [](const StageStat& a, const StageStat& b) {
              if (a.total_sim_us != b.total_sim_us) {
                return a.total_sim_us > b.total_sim_us;
              }
              return a.name < b.name;
            });
  return stats;
}

FanOutStats TraceDag::FanOut() const {
  FanOutStats stats;
  stats.spans = spans_.size();
  for (const SpanRecord& span : spans_) {
    const auto it = children_.find(span.id);
    const size_t degree = it == children_.end() ? 0 : it->second.size();
    stats.edges += degree;
    if (degree == 0) ++stats.leaves;
    if (degree > stats.max_out_degree) {
      stats.max_out_degree = degree;
      stats.max_out_degree_span = span.id;
    }
  }
  stats.mean_out_degree =
      stats.spans == 0
          ? 0.0
          : static_cast<double>(stats.edges) / static_cast<double>(stats.spans);
  return stats;
}

void WriteChromeTrace(const RunExport& run, std::ostream& out,
                      bool use_sim_time) {
  const std::vector<SpanRecord>& spans = run.spans;
  // One Chrome "process" per node label so Perfetto groups tracks by role.
  std::map<std::string, uint64_t> pid_of;
  for (const SpanRecord& span : spans) {
    pid_of.emplace(span.node, 0);
  }
  uint64_t next_pid = 1;
  for (auto& [node, pid] : pid_of) pid = next_pid++;

  std::map<uint64_t, const SpanRecord*> by_id;
  for (const SpanRecord& span : spans) by_id[span.id] = &span;

  const auto usable = [&](const SpanRecord& span) {
    if (span.wall_end_ns == 0) return false;  // never closed
    return !use_sim_time || span.has_sim;
  };
  const auto start_ts = [&](const SpanRecord& span) -> uint64_t {
    return use_sim_time ? static_cast<uint64_t>(span.sim_start)
                        : span.wall_start_ns / 1000;
  };
  const auto end_ts = [&](const SpanRecord& span) -> uint64_t {
    return use_sim_time ? static_cast<uint64_t>(span.sim_end)
                        : span.wall_end_ns / 1000;
  };

  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  const auto sep = [&]() -> std::ostream& {
    out << (first ? "\n" : ",\n");
    first = false;
    return out;
  };

  for (const auto& [node, pid] : pid_of) {
    sep() << "{\"ph\":\"M\",\"pid\":" << pid
          << ",\"name\":\"process_name\",\"args\":{\"name\":\""
          << JsonEscape(node.empty() ? "(unlabeled)" : node) << "\"}}";
  }

  for (const SpanRecord& span : spans) {
    if (!usable(span)) continue;
    const uint64_t ts = start_ts(span);
    const uint64_t dur = end_ts(span) >= ts ? end_ts(span) - ts : 0;
    sep() << "{\"ph\":\"X\",\"pid\":" << pid_of.at(span.node)
          << ",\"tid\":" << span.thread << ",\"ts\":" << ts
          << ",\"dur\":" << dur << ",\"name\":\"" << JsonEscape(span.name)
          << "\",\"cat\":\"span\",\"args\":{\"id\":" << span.id
          << ",\"parent\":" << span.parent << ",\"trace\":" << span.trace_id
          << "}}";
  }

  // Flow arrows: cross-node parent edges and all link edges.
  uint64_t flow_id = 0;
  for (const SpanRecord& span : spans) {
    if (!usable(span)) continue;
    std::vector<uint64_t> sources;
    if (span.parent != 0) {
      const auto it = by_id.find(span.parent);
      if (it != by_id.end() && it->second->node != span.node) {
        sources.push_back(span.parent);
      }
    }
    for (uint64_t link : span.links) {
      if (link != span.parent) sources.push_back(link);
    }
    for (uint64_t source_id : sources) {
      const auto it = by_id.find(source_id);
      if (it == by_id.end() || !usable(*it->second)) continue;
      const SpanRecord& source = *it->second;
      ++flow_id;
      sep() << "{\"ph\":\"s\",\"pid\":" << pid_of.at(source.node)
            << ",\"tid\":" << source.thread << ",\"ts\":" << start_ts(source)
            << ",\"id\":" << flow_id
            << ",\"name\":\"causal\",\"cat\":\"causal\"}";
      sep() << "{\"ph\":\"f\",\"bp\":\"e\",\"pid\":" << pid_of.at(span.node)
            << ",\"tid\":" << span.thread << ",\"ts\":" << start_ts(span)
            << ",\"id\":" << flow_id
            << ",\"name\":\"causal\",\"cat\":\"causal\"}";
    }
  }

  // Alerts: one "health" process, one track per rule, one slice per
  // fire→resolve interval; an alert still active at export closes at the
  // last retained sample.
  const HealthExport& health = run.health;
  if (!health.alerts.empty()) {
    const uint64_t pid = next_pid;
    const auto ts_of = [&](const TimeSeries::SampleInfo& info,
                           uint64_t sample) -> uint64_t {
      if (!use_sim_time) return info.wall_ns / 1000;
      return info.has_sim ? info.sim_us : sample;
    };
    const uint64_t export_end =
        health.sample_lines.empty()
            ? 0
            : ts_of(health.sample_lines.back().info,
                    health.sample_lines.back().index);
    std::map<std::string, std::vector<const AlertEvent*>> by_rule;
    for (const AlertEvent& alert : health.alerts) {
      by_rule[alert.rule_id].push_back(&alert);
    }
    sep() << "{\"ph\":\"M\",\"pid\":" << pid
          << ",\"name\":\"process_name\",\"args\":{\"name\":\"health\"}}";
    uint64_t tid = 0;
    for (const auto& [rule, events] : by_rule) {
      ++tid;
      sep() << "{\"ph\":\"M\",\"pid\":" << pid << ",\"tid\":" << tid
            << ",\"name\":\"thread_name\",\"args\":{\"name\":\""
            << JsonEscape(rule) << "\"}}";
      const AlertEvent* open = nullptr;
      const auto slice = [&](uint64_t end) {
        const uint64_t begin = ts_of(
            {open->wall_ns, open->has_sim, open->sim_us}, open->sample_index);
        sep() << "{\"ph\":\"X\",\"pid\":" << pid << ",\"tid\":" << tid
              << ",\"ts\":" << begin
              << ",\"dur\":" << (end > begin ? end - begin : 1)
              << ",\"name\":\"" << JsonEscape(rule) << "\",\"cat\":\""
              << SeverityName(open->severity)
              << "\",\"args\":{\"sample\":" << open->sample_index
              << ",\"observed\":";
        WriteJsonNumber(out, open->observed);
        out << ",\"bound\":";
        WriteJsonNumber(out, open->bound);
        out << "}}";
      };
      for (const AlertEvent* alert : events) {
        if (alert->fired) {
          open = alert;
        } else if (open != nullptr) {
          slice(ts_of({alert->wall_ns, alert->has_sim, alert->sim_us},
                      alert->sample_index));
          open = nullptr;
        }
      }
      if (open != nullptr) slice(export_end);
    }
  }

  out << "\n]}\n";
}

}  // namespace pds2::obs
