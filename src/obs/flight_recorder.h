#ifndef PDS2_OBS_FLIGHT_RECORDER_H_
#define PDS2_OBS_FLIGHT_RECORDER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace pds2::obs {

/// One log line or note captured by the flight recorder.
struct FlightEntry {
  enum class Kind : uint8_t { kLog, kNote };
  Kind kind = Kind::kNote;
  uint32_t thread = 0;    // capturing thread's small index
  uint64_t wall_ns = 0;   // WallNowNs at capture
  bool has_sim = false;
  common::SimTime sim_us = 0;
  std::string text;  // formatted log line / note
  std::string node;  // NodeScope label at capture time, may be ""
};

/// Crash-survivable "black box": one bounded ring of the most recent log
/// lines and notes, plus metric deltas since the recorder was enabled.
/// Spans are not copied here — a dump reads the newest ones from the
/// Tracer, the only span store. Old entries are dropped once the ring is
/// full, so memory stays bounded no matter how long the run. DumpNow()
/// serializes everything to a JSON file for post-mortem analysis — it is
/// invoked by common::CrashPoint scripted kills, by dml::FaultInjector
/// node crashes, and by critical health alerts, giving the chaos suites an
/// artifact to assert on instead of only exit codes.
class FlightRecorder {
 public:
  /// Log lines and notes retained.
  static constexpr size_t kCapacity = 1024;
  /// Newest tracer spans written into each dump.
  static constexpr size_t kDumpSpans = 256;

  static FlightRecorder& Global();

  /// Enabling captures a metrics baseline so dumps can report deltas.
  /// Recording is off by default and costs one relaxed load when off; no
  /// shipped binary turns it on, only the suites that assert on dumps.
  void SetEnabled(bool enabled);
  bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Directory DumpNow writes into (default "."). Created lazily.
  void SetDumpDir(std::string dir);

  // Capture hooks (called by LogDispatch and user code). No-ops while the
  // recorder is disabled.
  void OnLog(const common::LogRecord& record);
  /// Free-form breadcrumb ("marketplace phase 6 begin", …).
  void Note(std::string text, bool has_sim = false,
            common::SimTime sim_us = 0);

  /// Writes the dump (see WriteDump) to
  /// `<dump_dir>/flight-<n>-<reason>.json`, where n counts the dumps
  /// written before it. Returns the path, or "" when the recorder is
  /// disabled or the file could not be written. Thread-safe; never throws.
  std::string DumpNow(const std::string& reason);

  /// Serializes the dump JSON to a stream: the reason, the tracer's last
  /// kDumpSpans spans (open ones marked "open"), every buffered entry,
  /// counter deltas since enable, and gauges.
  void WriteDump(const std::string& reason, std::ostream& out) const;

  /// Buffered entries, oldest first (tests / post-mortem tooling).
  std::vector<FlightEntry> SnapshotEntries() const;

  uint64_t dumps_written() const {
    return dumps_written_.load(std::memory_order_relaxed);
  }

 private:
  void Record(FlightEntry entry);

  std::atomic<bool> enabled_{false};
  std::atomic<uint64_t> dumps_written_{0};
  mutable std::mutex ring_mu_;
  std::deque<FlightEntry> ring_;  // at most kCapacity, oldest first
  mutable std::mutex config_mu_;  // also serializes DumpNow's file writes
  std::string dump_dir_ = ".";
  Snapshot baseline_;  // metrics at SetEnabled(true)
};

}  // namespace pds2::obs

#endif  // PDS2_OBS_FLIGHT_RECORDER_H_
