#ifndef PDS2_COMMON_SIM_CLOCK_H_
#define PDS2_COMMON_SIM_CLOCK_H_

#include <cstdint>

namespace pds2::common {

/// Simulated timestamp in microseconds since an arbitrary epoch. Every
/// timestamp in the platform (block times, data readings, certificates,
/// network events) uses simulated time, never wall-clock time, so runs are
/// deterministic.
using SimTime = uint64_t;

constexpr SimTime kMicrosPerMilli = 1000;
constexpr SimTime kMicrosPerSecond = 1000 * kMicrosPerMilli;

/// Monotonic simulated clock, advanced explicitly by its owner (the network
/// simulator, the chain, or a test).
class SimClock {
 public:
  explicit SimClock(SimTime start = 0) : now_(start) {}

  SimTime Now() const { return now_; }

  /// Jumps to an absolute time; ignored if `t` is in the past (the clock is
  /// monotonic).
  void AdvanceTo(SimTime t) {
    if (t > now_) now_ = t;
  }

 private:
  SimTime now_;
};

}  // namespace pds2::common

#endif  // PDS2_COMMON_SIM_CLOCK_H_
