// Built with PDS2_METRICS=0 (see tests/CMakeLists.txt): proves the
// instrumentation macros compile out entirely while the obs library's
// direct API remains fully usable. This is the configuration
// `cmake -DPDS2_METRICS=OFF` applies to the whole tree; compiling this one
// test target with it keeps the path covered by the default build.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "obs/flight_recorder.h"
#include "obs/metrics.h"
#include "obs/trace.h"

static_assert(PDS2_METRICS == 0,
              "this target must be compiled with PDS2_METRICS=0");

namespace pds2::obs {
namespace {

TEST(CompiledOutTest, MacrosAreNoOpsEvenWhenRuntimeEnabled) {
  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  Registry::Global().ResetValues();
  Tracer::Global().Reset();

  for (int i = 0; i < 100; ++i) {
    PDS2_TRACE_SPAN("compiled_out.span");
    PDS2_M_COUNT("compiled_out.counter", 1);
    PDS2_M_GAUGE_SET("compiled_out.gauge", i);
    PDS2_M_GAUGE_ADD("compiled_out.gauge", 1);
    PDS2_M_OBSERVE("compiled_out.hist", static_cast<uint64_t>(i));
  }
  const common::SimTime now = 42;
  PDS2_TRACE_SPAN_SIM("compiled_out.sim_span", &now);
  (void)now;  // the macro expands to nothing in this configuration

  // Nothing reached the registry or the tracer: the macros expanded to
  // empty statements, so no metric was ever created. (The registry still
  // holds its eager cardinality-guard sinks — only `compiled_out.*` names
  // must be absent.)
  const Snapshot snap = Registry::Global().TakeSnapshot();
  for (const auto& [name, value] : snap.counters) {
    EXPECT_NE(name.rfind("compiled_out.", 0), 0u) << name;
  }
  for (const auto& [name, value] : snap.gauges) {
    EXPECT_NE(name.rfind("compiled_out.", 0), 0u) << name;
  }
  for (const auto& [name, summary] : snap.histograms) {
    EXPECT_NE(name.rfind("compiled_out.", 0), 0u) << name;
  }
  EXPECT_EQ(Tracer::Global().SpanCount(), 0u);

  SetMetricsEnabled(false);
  SetTracingEnabled(false);
}

TEST(CompiledOutTest, DirectApiStillWorks) {
  // Compile-out removes macro call sites only; code that talks to the obs
  // classes directly (exporters, tests, the NetStats view) is unaffected.
  SetMetricsEnabled(true);
  Counter& c = Registry::Global().GetCounter("compiled_out.direct");
  c.Add(5);
  EXPECT_EQ(c.Value(), 5u);

  SetTracingEnabled(true);
  { ScopedSpan span("compiled_out.direct_span"); }
  EXPECT_EQ(Tracer::Global().SpanCount(), 1u);

  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  Registry::Global().ResetValues();
  Tracer::Global().Reset();
}

TEST(CompiledOutTest, FlightDumpKeepsNotesWithNoSpans) {
  // With the span macros compiled out the tracer stays empty, so a dump
  // has an empty spans array but still carries the recorder's notes.
  SetTracingEnabled(true);
  Tracer::Global().Reset();
  FlightRecorder& recorder = FlightRecorder::Global();
  recorder.SetEnabled(true);
  recorder.Clear();
  { PDS2_TRACE_SPAN("compiled_out.span"); }
  recorder.Note("compiled-out breadcrumb");

  std::ostringstream out;
  recorder.WriteDump("compiled-out", out);
  const std::string dump = out.str();
  EXPECT_NE(dump.find("\"spans\": [\n  ]"), std::string::npos) << dump;
  EXPECT_NE(dump.find("compiled-out breadcrumb"), std::string::npos) << dump;

  recorder.SetEnabled(false);
  recorder.Clear();
  SetTracingEnabled(false);
}

}  // namespace
}  // namespace pds2::obs
