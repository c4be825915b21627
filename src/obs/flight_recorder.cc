#include "obs/flight_recorder.h"

#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

#include "obs/json_codec.h"
#include "obs/trace.h"

namespace pds2::obs {

namespace {

// File-name-safe version of a dump reason.
std::string SanitizeReason(const std::string& reason) {
  std::string out;
  for (char c : reason) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '-' || c == '_';
    out += ok ? c : '-';
  }
  if (out.empty()) out = "dump";
  if (out.size() > 64) out.resize(64);
  return out;
}

}  // namespace

FlightRecorder& FlightRecorder::Global() {
  static FlightRecorder* recorder = new FlightRecorder();  // never destroyed
  return *recorder;
}

void FlightRecorder::SetEnabled(bool enabled) {
  if (enabled) {
    std::lock_guard<std::mutex> lock(config_mu_);
    baseline_ = Registry::Global().TakeSnapshot();
  }
  enabled_.store(enabled, std::memory_order_relaxed);
}

void FlightRecorder::SetDumpDir(std::string dir) {
  std::lock_guard<std::mutex> lock(config_mu_);
  dump_dir_ = dir.empty() ? "." : std::move(dir);
}

void FlightRecorder::Record(FlightEntry entry) {
  entry.thread =
      static_cast<uint32_t>(internal_metrics::ThisThreadIndex());
  std::lock_guard<std::mutex> lock(ring_mu_);
  if (ring_.size() == kCapacity) ring_.pop_front();
  ring_.push_back(std::move(entry));
}

void FlightRecorder::OnLog(const common::LogRecord& record) {
  if (!enabled()) return;
  FlightEntry entry;
  entry.kind = FlightEntry::Kind::kLog;
  entry.wall_ns = WallNowNs();
  entry.text = std::string(common::LogLevelName(record.level)) + " " +
               record.message;
  for (const auto& [key, value] : record.fields) {
    entry.text += " " + key + "=" + value;
  }
  entry.node = CurrentNodeLabel();
  Record(std::move(entry));
}

void FlightRecorder::Note(std::string text, bool has_sim,
                          common::SimTime sim_us) {
  if (!enabled()) return;
  FlightEntry entry;
  entry.kind = FlightEntry::Kind::kNote;
  entry.wall_ns = WallNowNs();
  entry.has_sim = has_sim;
  entry.sim_us = sim_us;
  entry.text = std::move(text);
  entry.node = CurrentNodeLabel();
  Record(std::move(entry));
}

std::vector<FlightEntry> FlightRecorder::SnapshotEntries() const {
  std::lock_guard<std::mutex> lock(ring_mu_);
  return {ring_.begin(), ring_.end()};
}

void FlightRecorder::WriteDump(const std::string& reason,
                               std::ostream& out) const {
  const std::vector<SpanRecord> spans = Tracer::Global().Tail(kDumpSpans);
  const std::vector<FlightEntry> entries = SnapshotEntries();
  const Snapshot current = Registry::Global().TakeSnapshot();
  Snapshot baseline;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    baseline = baseline_;
  }
  std::map<std::string, uint64_t> base_counters(baseline.counters.begin(),
                                                baseline.counters.end());

  out << "{\n  \"reason\": \"" << JsonEscape(reason) << "\",\n";
  out << "  \"spans\": [";
  for (size_t i = 0; i < spans.size(); ++i) {
    out << (i == 0 ? "\n    " : ",\n    ");
    WriteSpanJson(out, spans[i]);
  }
  out << "\n  ],\n  \"entries\": [";
  for (size_t i = 0; i < entries.size(); ++i) {
    const FlightEntry& entry = entries[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"thread\":" << entry.thread
        << ",\"kind\":\""
        << (entry.kind == FlightEntry::Kind::kLog ? "log" : "note")
        << "\",\"wall_ns\":" << entry.wall_ns;
    if (entry.has_sim) out << ",\"sim_us\":" << entry.sim_us;
    if (!entry.node.empty()) {
      out << ",\"node\":\"" << JsonEscape(entry.node) << "\"";
    }
    out << ",\"text\":\"" << JsonEscape(entry.text) << "\"}";
  }
  out << "\n  ],\n";
  out << "  \"counter_deltas\": {";
  bool first = true;
  for (const auto& [name, value] : current.counters) {
    const auto it = base_counters.find(name);
    const uint64_t base = it == base_counters.end() ? 0 : it->second;
    if (value <= base) continue;  // unchanged (or reset) since baseline
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << (value - base);
    first = false;
  }
  out << "\n  },\n  \"gauges\": {";
  first = true;
  for (const auto& [name, value] : current.gauges) {
    out << (first ? "\n" : ",\n") << "    \"" << JsonEscape(name)
        << "\": " << value;
    first = false;
  }
  out << "\n  }\n}\n";
}

std::string FlightRecorder::DumpNow(const std::string& reason) {
  if (!enabled()) return "";
  std::ostringstream body;
  WriteDump(reason, body);
  std::lock_guard<std::mutex> lock(config_mu_);
  std::error_code ec;
  std::filesystem::create_directories(dump_dir_, ec);  // best effort
  const std::string path = dump_dir_ + "/flight-" +
                           std::to_string(dumps_written()) + "-" +
                           SanitizeReason(reason) + ".json";
  std::ofstream out(path);
  out << body.str();
  out.flush();
  if (!out.good()) return "";  // also when the file never opened
  dumps_written_.fetch_add(1, std::memory_order_relaxed);
  last_dump_path_ = path;
  return path;
}

std::string FlightRecorder::LastDumpPath() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return last_dump_path_;
}

void FlightRecorder::Clear() {
  {
    std::lock_guard<std::mutex> lock(ring_mu_);
    ring_.clear();
  }
  std::lock_guard<std::mutex> lock(config_mu_);
  baseline_ = Registry::Global().TakeSnapshot();
  last_dump_path_.clear();
}

}  // namespace pds2::obs
