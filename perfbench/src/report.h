// Statistics, process resource readings and JSON output for the benchmark.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile q in [0, 1] of `xs` (0 when empty).
double Quantile(std::vector<double> xs, double q);
inline double Median(std::vector<double> xs) {
  return Quantile(std::move(xs), 0.5);
}

/// CPU time of the whole process (every thread), in ms.
double ProcessCpuMs();
/// Peak resident set size of the process so far, in MiB.
double PeakRssMb();

/// Median of five timings, in ms, of a fixed integer kernel owned by the
/// benchmark (no program code): a probe of host speed, recorded next to the
/// results so a slow host can be told apart from a slow program. Never used
/// to scale results.
double HostRefMs();

/// Runs the reference kernel until its timing settles, so measurement does
/// not start while the core is still ramping up from idle.
void WarmUpHost();

/// One metric of the result line.
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Minimal JSON object writer: fields are appended in order.
class JsonObject {
 public:
  JsonObject& Add(const std::string& key, const std::string& value);
  JsonObject& Add(const std::string& key, const char* value);
  JsonObject& Add(const std::string& key, double value);
  JsonObject& Add(const std::string& key, uint64_t value);
  JsonObject& Add(const std::string& key, bool value);
  /// `raw` must already be valid JSON.
  JsonObject& AddRaw(const std::string& key, const std::string& raw);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};

/// JSON array of numbers.
std::string JsonArray(const std::vector<double>& xs);
/// JSON array of strings.
std::string JsonStrings(const std::vector<std::string>& xs);

/// {"name": {"value": v, "unit": u}, ...}
std::string MetricsJson(const std::vector<Metric>& metrics);

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
