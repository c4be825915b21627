#include "common/logging.h"

#include <atomic>
#include <cstdio>

#include "obs/metrics.h"

namespace pds2::common {

namespace {

LogLevel g_level = LogLevel::kWarn;

// Installed sink; nullptr means "use the default stderr sink". Atomic so
// ThreadPool workers can log while a test swaps sinks on the main thread.
std::atomic<LogSink*> g_sink{nullptr};

const char* Basename(const char* path) {
  const char* base = path;
  for (const char* p = path; *p; ++p) {
    if (*p == '/') base = p + 1;
  }
  return base;
}

void CountRecord(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      PDS2_M_COUNT("log.debug", 1);
      break;
    case LogLevel::kInfo:
      PDS2_M_COUNT("log.info", 1);
      break;
    case LogLevel::kWarn:
      PDS2_M_COUNT("log.warn", 1);
      break;
    case LogLevel::kError:
      PDS2_M_COUNT("log.error", 1);
      break;
  }
}

}  // namespace

void SetLogLevel(LogLevel level) { g_level = level; }
LogLevel GetLogLevel() { return g_level; }

void StderrLogSink::Write(const LogRecord& record) {
  std::string line = record.message;
  for (const auto& [key, value] : record.fields) {
    line += ' ';
    line += key;
    line += '=';
    line += value;
  }
  std::fprintf(stderr, "[%s %s:%d] %s\n", LogLevelName(record.level),
               record.file, record.line, line.c_str());
}

LogSink* SetLogSink(LogSink* sink) {
  return g_sink.exchange(sink, std::memory_order_acq_rel);
}

void LogDispatch(LogRecord&& record) {
  record.file = Basename(record.file);
  CountRecord(record.level);
  LogSink* sink = g_sink.load(std::memory_order_acquire);
  if (sink != nullptr) {
    sink->Write(record);
    return;
  }
  static StderrLogSink default_sink;
  default_sink.Write(record);
}

}  // namespace pds2::common
