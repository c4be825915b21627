#ifndef PDS2_COMMON_LOGGING_H_
#define PDS2_COMMON_LOGGING_H_

#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

namespace pds2::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Sets the global minimum level; messages below it are dropped.
/// Default is kWarn so tests and benchmarks stay quiet.
void SetLogLevel(LogLevel level);
LogLevel GetLogLevel();

/// Upper-case name of `level`, as the default stderr sink prints it.
inline const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "DEBUG";
    case LogLevel::kInfo:
      return "INFO";
    case LogLevel::kWarn:
      return "WARN";
    case LogLevel::kError:
      return "ERROR";
  }
  return "?";
}

/// One fully assembled log event, as handed to the active sink.
struct LogRecord {
  LogLevel level = LogLevel::kInfo;
  const char* file = "";  // basename of the emitting source file
  int line = 0;
  std::string message;
  /// Structured key=value fields attached via PDS2_LOG(...).Field(k, v).
  std::vector<std::pair<std::string, std::string>> fields;
};

/// Destination for log records. Write() must be thread-safe: PDS2_LOG fires
/// from ThreadPool workers.
class LogSink {
 public:
  virtual ~LogSink() = default;
  virtual void Write(const LogRecord& record) = 0;
};

/// Default sink: one formatted line per record to stderr, fields appended
/// as key=value.
class StderrLogSink : public LogSink {
 public:
  void Write(const LogRecord& record) override;
};

/// Replaces the process-wide sink; pass nullptr to restore the default
/// stderr sink. The previous sink is returned so tests can reinstall it.
/// The caller keeps ownership of `sink` and must outlive its installation.
LogSink* SetLogSink(LogSink* sink);

/// Routes one record through the active sink (internal; use PDS2_LOG).
void LogDispatch(LogRecord&& record);

namespace internal_logging {

/// Stream-style collector used by the macro below.
class LogLine {
 public:
  LogLine(LogLevel level, const char* file, int line) {
    record_.level = level;
    record_.file = file;
    record_.line = line;
  }
  ~LogLine() {
    record_.message = stream_.str();
    LogDispatch(std::move(record_));
  }

  template <typename T>
  LogLine& operator<<(const T& v) {
    stream_ << v;
    return *this;
  }

  /// Attaches a structured key=value field (value is streamed to string).
  template <typename T>
  LogLine& Field(const std::string& key, const T& value) {
    std::ostringstream s;
    s << value;
    record_.fields.emplace_back(key, s.str());
    return *this;
  }

 private:
  LogRecord record_;
  std::ostringstream stream_;
};

}  // namespace internal_logging

}  // namespace pds2::common

#define PDS2_LOG(level)                                                     \
  if (::pds2::common::LogLevel::level < ::pds2::common::GetLogLevel()) {    \
  } else                                                                    \
    ::pds2::common::internal_logging::LogLine(                              \
        ::pds2::common::LogLevel::level, __FILE__, __LINE__)

#endif  // PDS2_COMMON_LOGGING_H_
