#include <gtest/gtest.h>

#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"

namespace pds2::common {
namespace {

// Captures records in memory for assertions.
class CaptureLogSink : public LogSink {
 public:
  void Write(const LogRecord& record) override {
    std::lock_guard<std::mutex> lock(mu_);
    records_.push_back(record);
  }

  std::vector<LogRecord> Records() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_;
  }

  size_t Count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return records_.size();
  }

  /// True if any captured message contains `needle`.
  bool Contains(const std::string& needle) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const LogRecord& record : records_) {
      if (record.message.find(needle) != std::string::npos) return true;
    }
    return false;
  }

 private:
  mutable std::mutex mu_;
  std::vector<LogRecord> records_;
};

// Installs a capture sink and restores the previous sink + level on exit.
class LoggingTest : public ::testing::Test {
 protected:
  void SetUp() override {
    previous_sink_ = SetLogSink(&capture_);
    previous_level_ = GetLogLevel();
    SetLogLevel(LogLevel::kDebug);
  }
  void TearDown() override {
    SetLogSink(previous_sink_);
    SetLogLevel(previous_level_);
  }

  CaptureLogSink capture_;
  LogSink* previous_sink_ = nullptr;
  LogLevel previous_level_ = LogLevel::kWarn;
};

TEST_F(LoggingTest, RecordsCarryLevelMessageAndLocation) {
  PDS2_LOG(kInfo) << "hello " << 42;
  ASSERT_EQ(capture_.Count(), 1u);
  const LogRecord record = capture_.Records()[0];
  EXPECT_EQ(record.level, LogLevel::kInfo);
  EXPECT_EQ(record.message, "hello 42");
  EXPECT_EQ(std::string(record.file), "logging_test.cc");
  EXPECT_GT(record.line, 0);
}

TEST_F(LoggingTest, LevelFilterDropsBelowThreshold) {
  SetLogLevel(LogLevel::kWarn);
  PDS2_LOG(kDebug) << "invisible";
  PDS2_LOG(kInfo) << "also invisible";
  PDS2_LOG(kWarn) << "visible";
  PDS2_LOG(kError) << "very visible";
  EXPECT_EQ(capture_.Count(), 2u);
  EXPECT_FALSE(capture_.Contains("invisible"));
  EXPECT_TRUE(capture_.Contains("visible"));
}

TEST_F(LoggingTest, StructuredFieldsAreCaptured) {
  PDS2_LOG(kInfo).Field("height", 12).Field("peer", "node-3")
      << "applied block";
  ASSERT_EQ(capture_.Count(), 1u);
  const LogRecord record = capture_.Records()[0];
  EXPECT_EQ(record.message, "applied block");
  ASSERT_EQ(record.fields.size(), 2u);
  EXPECT_EQ(record.fields[0].first, "height");
  EXPECT_EQ(record.fields[0].second, "12");
  EXPECT_EQ(record.fields[1].first, "peer");
  EXPECT_EQ(record.fields[1].second, "node-3");
}

TEST_F(LoggingTest, SinkSwapReturnsPreviousSink) {
  CaptureLogSink other;
  LogSink* was = SetLogSink(&other);
  EXPECT_EQ(was, &capture_);
  PDS2_LOG(kInfo) << "to the other sink";
  EXPECT_EQ(capture_.Count(), 0u);
  EXPECT_TRUE(other.Contains("to the other sink"));
  EXPECT_EQ(SetLogSink(&capture_), &other);
}

TEST_F(LoggingTest, ConcurrentLoggingIsSafeAndLossless) {
  constexpr int kThreads = 4, kLines = 250;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([t] {
      for (int i = 0; i < kLines; ++i) {
        PDS2_LOG(kInfo).Field("thread", t) << "line " << i;
      }
    });
  }
  for (auto& thread : threads) thread.join();
  EXPECT_EQ(capture_.Count(), static_cast<size_t>(kThreads) * kLines);
}

TEST_F(LoggingTest, LogVolumeCountersFeedTheMetricsRegistry) {
  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetValues();
  PDS2_LOG(kInfo) << "counted";
  PDS2_LOG(kError) << "counted too";
  PDS2_LOG(kError) << "and again";
  obs::SetMetricsEnabled(false);
  EXPECT_EQ(obs::Registry::Global().GetCounter("log.info").Value(), 1u);
  EXPECT_EQ(obs::Registry::Global().GetCounter("log.error").Value(), 2u);
}

TEST(LogLevelNameTest, NamesMatchLevels) {
  EXPECT_STREQ(LogLevelName(LogLevel::kDebug), "DEBUG");
  EXPECT_STREQ(LogLevelName(LogLevel::kInfo), "INFO");
  EXPECT_STREQ(LogLevelName(LogLevel::kWarn), "WARN");
  EXPECT_STREQ(LogLevelName(LogLevel::kError), "ERROR");
}

}  // namespace
}  // namespace pds2::common
