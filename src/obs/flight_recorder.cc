#include "obs/flight_recorder.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "obs/json_codec.h"
#include "obs/trace.h"

namespace pds2::obs {

namespace {

const char* KindName(FlightEntry::Kind kind) {
  switch (kind) {
    case FlightEntry::Kind::kSpanBegin:
      return "span_begin";
    case FlightEntry::Kind::kSpanEnd:
      return "span_end";
    case FlightEntry::Kind::kLog:
      return "log";
    case FlightEntry::Kind::kNote:
      return "note";
  }
  return "?";
}

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

void FlightRecorder::SetCapacityPerShard(size_t capacity) {
  std::lock_guard<std::mutex> lock(config_mu_);
  capacity_ = capacity == 0 ? 1 : capacity;
}

void FlightRecorder::SetDumpDir(std::string dir) {
  std::lock_guard<std::mutex> lock(config_mu_);
  dump_dir_ = dir.empty() ? "." : std::move(dir);
}

void FlightRecorder::Record(FlightEntry entry) {
  if (!enabled()) return;  // callers gate too; direct Note() may not
  size_t capacity;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    capacity = capacity_;
  }
  entry.seq = seq_.fetch_add(1, std::memory_order_relaxed);
  entry.thread =
      static_cast<uint32_t>(internal_metrics::ThisThreadIndex());
  Ring& ring = rings_[entry.thread % kShards];
  std::lock_guard<std::mutex> lock(ring.mu);
  if (ring.slots.size() < capacity) {
    ring.slots.push_back(std::move(entry));
    ring.next = ring.slots.size() % capacity;
    ring.wrapped = ring.next == 0 && ring.slots.size() == capacity;
    return;
  }
  // Full (or capacity shrank): overwrite the oldest slot.
  if (ring.next >= ring.slots.size()) ring.next = 0;
  ring.slots[ring.next] = std::move(entry);
  ring.next = (ring.next + 1) % ring.slots.size();
  ring.wrapped = true;
}

void FlightRecorder::OnSpanBegin(uint64_t id, const char* name,
                                 const std::string& node, uint64_t wall_ns,
                                 bool has_sim, common::SimTime sim_us) {
  FlightEntry entry;
  entry.kind = FlightEntry::Kind::kSpanBegin;
  entry.wall_ns = wall_ns;
  entry.span_id = id;
  entry.has_sim = has_sim;
  entry.sim_us = sim_us;
  entry.text = name;
  entry.node = node;
  Record(std::move(entry));
}

void FlightRecorder::OnSpanEnd(uint64_t id, const std::string& name,
                               const std::string& node, uint64_t wall_ns,
                               bool has_sim, common::SimTime sim_us) {
  FlightEntry entry;
  entry.kind = FlightEntry::Kind::kSpanEnd;
  entry.wall_ns = wall_ns;
  entry.span_id = id;
  entry.has_sim = has_sim;
  entry.sim_us = sim_us;
  entry.text = name;
  entry.node = node;
  Record(std::move(entry));
}

void FlightRecorder::OnLog(const common::LogRecord& record) {
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
  std::vector<FlightEntry> entries;
  for (const Ring& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring.mu);
    entries.insert(entries.end(), ring.slots.begin(), ring.slots.end());
  }
  std::sort(entries.begin(), entries.end(),
            [](const FlightEntry& a, const FlightEntry& b) {
              return a.seq < b.seq;
            });
  return entries;
}

void FlightRecorder::WriteDump(const std::string& reason,
                               std::ostream& out) const {
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
  out << "  \"entries\": [";
  for (size_t i = 0; i < entries.size(); ++i) {
    const FlightEntry& entry = entries[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"seq\":" << entry.seq
        << ",\"thread\":" << entry.thread << ",\"kind\":\""
        << KindName(entry.kind) << "\",\"wall_ns\":" << entry.wall_ns;
    if (entry.span_id != 0) out << ",\"span_id\":" << entry.span_id;
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
  std::string dir;
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    dir = dump_dir_;
  }
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);  // best effort
  const uint64_t n = dumps_written_.fetch_add(1, std::memory_order_relaxed);
  const std::string path = dir + "/flight-" + std::to_string(n) + "-" +
                           SanitizeReason(reason) + ".json";
  std::ofstream out(path);
  if (!out.is_open()) return "";
  WriteDump(reason, out);
  out.flush();
  if (!out.good()) return "";
  {
    std::lock_guard<std::mutex> lock(config_mu_);
    last_dump_path_ = path;
  }
  return path;
}

std::string FlightRecorder::LastDumpPath() const {
  std::lock_guard<std::mutex> lock(config_mu_);
  return last_dump_path_;
}

void FlightRecorder::Clear() {
  for (Ring& ring : rings_) {
    std::lock_guard<std::mutex> lock(ring.mu);
    ring.slots.clear();
    ring.next = 0;
    ring.wrapped = false;
  }
  std::lock_guard<std::mutex> lock(config_mu_);
  baseline_ = Registry::Global().TakeSnapshot();
  last_dump_path_.clear();
}

}  // namespace pds2::obs
