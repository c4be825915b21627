// The file name FlightRecorder::DumpNow writes, shared by the suites that
// look for a dump the recorder wrote on its own (crash points, node crashes,
// critical alerts).

#ifndef PDS2_TESTS_OBS_FLIGHT_DUMP_PATH_H_
#define PDS2_TESTS_OBS_FLIGHT_DUMP_PATH_H_

#include <cstdint>
#include <string>

namespace pds2::obs {

/// `<dir>/flight-<n>-<reason>.json`: the `n`-th dump, `reason` sanitized.
inline std::string DumpPath(const std::string& dir, uint64_t n,
                            const std::string& reason) {
  return dir + "/flight-" + std::to_string(n) + "-" + reason + ".json";
}

}  // namespace pds2::obs

#endif  // PDS2_TESTS_OBS_FLIGHT_DUMP_PATH_H_
