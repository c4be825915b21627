// obs::FlightRecorder: bounded ring capture, the tracer's newest spans in
// every dump, metric deltas against the enable-time baseline, dump files,
// and the two crash hooks that trigger dumps automatically —
// common::CrashPoint scripted kills and dml::FaultInjector node crashes.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/logging.h"
#include "common/thread_pool.h"
#include "dml/fault_injector.h"
#include "dml/netsim.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace pds2::obs {
namespace {

class FlightRecorderTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FlightRecorder::Global().SetDumpDir(".");
    FlightRecorder::Global().SetEnabled(true);
    FlightRecorder::Global().Clear();
  }
  void TearDown() override {
    FlightRecorder::Global().SetEnabled(false);
    FlightRecorder::Global().Clear();
    SetTracingEnabled(false);
    SetMetricsEnabled(false);
    common::DisarmCrash();
  }
};

TEST_F(FlightRecorderTest, RingOverwritesOldEntriesKeepingTheNewest) {
  const size_t total = FlightRecorder::kCapacity + 16;
  for (size_t i = 0; i < total; ++i) {
    FlightRecorder::Global().Note("note " + std::to_string(i));
  }
  const auto entries = FlightRecorder::Global().SnapshotEntries();
  // Only the newest kCapacity notes survive, in capture order.
  ASSERT_EQ(entries.size(), FlightRecorder::kCapacity);
  EXPECT_EQ(entries.front().text, "note 16");
  EXPECT_EQ(entries.back().text, "note " + std::to_string(total - 1));
}

TEST_F(FlightRecorderTest, CapturesSpansLogsAndMetricDeltas) {
  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  Registry::Global().ResetValues();
  FlightRecorder::Global().Clear();  // re-baseline after the reset

  // A silent sink: the flight-recorder hook fires inside LogDispatch
  // either way, and the test log line stays off stderr.
  class NullSink : public common::LogSink {
   public:
    void Write(const common::LogRecord&) override {}
  };
  NullSink null_sink;
  common::LogSink* old_sink = common::SetLogSink(&null_sink);
  const common::LogLevel old_level = common::GetLogLevel();
  common::SetLogLevel(common::LogLevel::kInfo);

  Registry::Global().GetCounter("flight.test_counter").Add(3);
  Registry::Global().GetGauge("flight.test_gauge").Set(-7);
  {
    NodeScope node("tester/t0");
    ScopedSpan span("flight.test_span");
    PDS2_LOG(kInfo).Field("k", "v") << "flight recorder probe";
  }

  common::SetLogLevel(old_level);
  common::SetLogSink(old_sink);

  std::ostringstream out;
  FlightRecorder::Global().WriteDump("unit-test", out);
  const std::string dump = out.str();
  EXPECT_NE(dump.find("\"reason\": \"unit-test\""), std::string::npos);
  // The span comes from the tracer, written as one export line.
  EXPECT_NE(dump.find("\"spans\": [\n    {\"id\":1,\"parent\":0,"),
            std::string::npos)
      << dump;
  EXPECT_NE(
      dump.find("\"name\":\"flight.test_span\",\"node\":\"tester/t0\""),
      std::string::npos);
  EXPECT_NE(dump.find("\"wall_dur_ns\":"), std::string::npos);
  EXPECT_EQ(dump.find("\"open\":true"), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"log\""), std::string::npos);
  EXPECT_NE(dump.find("flight recorder probe"), std::string::npos);
  EXPECT_NE(dump.find("k=v"), std::string::npos);
  // Deltas since enable: the counter bumped after Clear shows up, with its
  // post-baseline value; the untouched gauge appears with its value.
  EXPECT_NE(dump.find("\"flight.test_counter\": 3"), std::string::npos);
  EXPECT_NE(dump.find("\"flight.test_gauge\": -7"), std::string::npos);
}

TEST_F(FlightRecorderTest, DumpInsideASpanListsItAsOpen) {
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  std::string dump;
  {
    ScopedSpan outer("flight.outer");
    { ScopedSpan done("flight.done"); }
    std::ostringstream out;
    FlightRecorder::Global().WriteDump("mid-span", out);
    dump = out.str();
  }
  Tracer::Global().Reset();

  const size_t outer = dump.find("\"name\":\"flight.outer\"");
  const size_t done = dump.find("\"name\":\"flight.done\"");
  ASSERT_NE(outer, std::string::npos) << dump;
  ASSERT_NE(done, std::string::npos) << dump;
  // Each span is one line: the still-running one is marked open and has no
  // duration; the finished one has its duration and no marker.
  const std::string outer_line =
      dump.substr(outer, dump.find('\n', outer) - outer);
  const std::string done_line =
      dump.substr(done, dump.find('\n', done) - done);
  EXPECT_NE(outer_line.find("\"open\":true"), std::string::npos) << dump;
  EXPECT_EQ(outer_line.find("wall_dur_ns"), std::string::npos) << dump;
  EXPECT_EQ(done_line.find("\"open\""), std::string::npos) << dump;
  EXPECT_NE(done_line.find("\"wall_dur_ns\":"), std::string::npos) << dump;
}

TEST_F(FlightRecorderTest, DumpWhilePoolThreadsTraceAndLog) {
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  class NullSink : public common::LogSink {
   public:
    void Write(const common::LogRecord&) override {}
  };
  NullSink null_sink;
  common::LogSink* old_sink = common::SetLogSink(&null_sink);
  const common::LogLevel old_level = common::GetLogLevel();
  common::SetLogLevel(common::LogLevel::kInfo);

  common::ThreadPool pool(4);
  std::vector<std::future<void>> workers;
  for (size_t t = 0; t < pool.NumThreads(); ++t) {
    workers.push_back(pool.Submit([t] {
      NodeScope node("worker/", t);
      for (int i = 0; i < 2000; ++i) {
        ScopedSpan span("flight.worker_span");
        PDS2_LOG(kInfo) << "worker " << t << " tick " << i;
        FlightRecorder::Global().Note("worker note");
      }
    }));
  }
  while (Tracer::Global().SpanCount() == 0) std::this_thread::yield();
  for (int i = 0; i < 50; ++i) {
    std::ostringstream out;
    FlightRecorder::Global().WriteDump("race", out);
    const std::string dump = out.str();
    EXPECT_NE(dump.find("\"name\":\"flight.worker_span\""),
              std::string::npos);
    EXPECT_EQ(dump.substr(dump.size() - 4), "}\n}\n");  // well-formed end
  }
  for (auto& worker : workers) worker.get();
  common::SetLogLevel(old_level);
  common::SetLogSink(old_sink);
  Tracer::Global().Reset();

  // Every span, log line and note landed; the ring kept the newest.
  EXPECT_EQ(FlightRecorder::Global().SnapshotEntries().size(),
            FlightRecorder::kCapacity);
}

TEST_F(FlightRecorderTest, DumpEscapesControlBytesInsteadOfBlankingThem) {
  FlightRecorder::Global().Note("bell\x07 tab\t");
  std::ostringstream out;
  FlightRecorder::Global().WriteDump("why\r", out);
  const std::string dump = out.str();
  EXPECT_NE(dump.find("\"reason\": \"why\\r\""), std::string::npos) << dump;
  EXPECT_NE(dump.find("bell\\u0007 tab\\t"), std::string::npos) << dump;
}

TEST_F(FlightRecorderTest, DumpNowWritesAReadableFile) {
  FlightRecorder::Global().Note("pre-dump breadcrumb");
  const uint64_t dumps_before = FlightRecorder::Global().dumps_written();
  const std::string path = FlightRecorder::Global().DumpNow("unit test dump");
  ASSERT_FALSE(path.empty());
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), dumps_before + 1);
  EXPECT_EQ(FlightRecorder::Global().LastDumpPath(), path);
  // The reason is sanitized into the filename.
  EXPECT_NE(path.find("unit-test-dump"), std::string::npos);

  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("pre-dump breadcrumb"), std::string::npos);
  EXPECT_NE(content.str().find("\"entries\""), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, FailedDumpIsNotCounted) {
  // A directory under a regular file can be neither created nor written.
  const std::string blocker = ::testing::TempDir() + "/flight-blocker";
  { std::ofstream(blocker) << "not a directory"; }
  FlightRecorder::Global().SetDumpDir(blocker + "/dumps");
  const uint64_t dumps_before = FlightRecorder::Global().dumps_written();
  EXPECT_EQ(FlightRecorder::Global().DumpNow("unwritable"), "");
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), dumps_before);
  EXPECT_EQ(FlightRecorder::Global().LastDumpPath(), "");

  // The next good dump takes the number the failed one did not use.
  FlightRecorder::Global().SetDumpDir(::testing::TempDir());
  const std::string path = FlightRecorder::Global().DumpNow("writable");
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("/flight-" + std::to_string(dumps_before) +
                      "-writable.json"),
            std::string::npos)
      << path;
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), dumps_before + 1);
  std::remove(path.c_str());
  std::remove(blocker.c_str());
}

TEST_F(FlightRecorderTest, ScriptedCrashPointTriggersADump) {
  const uint64_t dumps_before = FlightRecorder::Global().dumps_written();
  common::ArmCrash(common::CrashPoint::kLogPreFsync);
  // Non-matching points do not consume the armed crash or dump.
  EXPECT_FALSE(common::CrashRequested(common::CrashPoint::kLogMidAppend));
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), dumps_before);
  EXPECT_TRUE(common::CrashRequested(common::CrashPoint::kLogPreFsync));
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), dumps_before + 1);
  const std::string path = FlightRecorder::Global().LastDumpPath();
  ASSERT_FALSE(path.empty());
  EXPECT_NE(path.find("crashpoint-log-pre-fsync"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("crash point fired: log-pre-fsync"),
            std::string::npos);
  std::remove(path.c_str());
}

class QuietNode : public dml::Node {
 public:
  void OnMessage(dml::NodeContext&, size_t, const common::Bytes&) override {}
};

TEST_F(FlightRecorderTest, FaultInjectorNodeCrashTriggersADump) {
  dml::NetSim sim(dml::NetConfig{}, /*seed=*/9);
  sim.AddNode(std::make_unique<QuietNode>());
  sim.AddNode(std::make_unique<QuietNode>());
  sim.SetNodeName(1, "victim/1");
  common::FaultPlan plan;
  plan.churn.push_back({/*at=*/5000, /*node=*/1, /*restart=*/false});
  dml::FaultInjector::Install(sim, plan);
  sim.Start();

  const uint64_t dumps_before = FlightRecorder::Global().dumps_written();
  sim.RunUntil(20'000);
  EXPECT_FALSE(sim.IsOnline(1));
  ASSERT_EQ(FlightRecorder::Global().dumps_written(), dumps_before + 1);
  const std::string path = FlightRecorder::Global().LastDumpPath();
  EXPECT_NE(path.find("node-crash-victim"), std::string::npos);
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << path;
  std::ostringstream content;
  content << in.rdbuf();
  EXPECT_NE(content.str().find("fault injector crashed victim/1"),
            std::string::npos);
  std::remove(path.c_str());
}

TEST_F(FlightRecorderTest, DisabledRecorderCapturesNothing) {
  FlightRecorder::Global().SetEnabled(false);
  FlightRecorder::Global().Clear();
  FlightRecorder::Global().Note("should not appear");
  EXPECT_TRUE(FlightRecorder::Global().SnapshotEntries().empty());
  const uint64_t dumps_before = FlightRecorder::Global().dumps_written();
  EXPECT_EQ(FlightRecorder::Global().DumpNow("disabled"), "");
  EXPECT_EQ(FlightRecorder::Global().dumps_written(), dumps_before);
}

}  // namespace
}  // namespace pds2::obs
