// Test-only glue between a NetSim run and the health plane, shared by the
// scale, alert-matrix and Byzantine convergence suites.

#ifndef PDS2_TESTS_DML_HEALTH_SAMPLER_H_
#define PDS2_TESTS_DML_HEALTH_SAMPLER_H_

#include "dml/netsim.h"
#include "obs/health.h"
#include "obs/time_series.h"
#include "obs/trace.h"

namespace pds2::dml {

/// Wires the health plane into a DES run: every `interval` of sim time the
/// simulator (between events, on the driving thread — see
/// NetSim::SetTickHook) snapshots the metrics registry into `ts` stamped
/// with both wall and sim time, then evaluates `monitor`'s rules at the new
/// sample. Tick placement is a pure function of the event schedule, so a
/// seeded run produces the identical sample/alert stream at any pool size.
/// `monitor` may be null (sampling only). Replaces any previous tick hook.
inline void AttachHealthSampler(NetSim& sim, common::SimTime interval,
                                obs::TimeSeries* ts,
                                obs::HealthMonitor* monitor = nullptr) {
  sim.SetTickHook(interval, [ts, monitor](common::SimTime t) {
    ts->Sample(obs::WallNowNs(), /*has_sim=*/true, t);
    if (monitor != nullptr) monitor->EvaluateLatest();
  });
}

}  // namespace pds2::dml

#endif  // PDS2_TESTS_DML_HEALTH_SAMPLER_H_
