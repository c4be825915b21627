#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double ProcessCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

namespace {

/// One timing of 2^24 dependent xorshift64 steps that touch no memory
/// (~45 ms on a 2020s x86 core).
double RefKernelMs(uint64_t salt) {
  const auto start = std::chrono::steady_clock::now();
  volatile uint64_t sink = 0;
  uint64_t x = 0x9e3779b97f4a7c15ULL + salt;
  for (uint32_t i = 0; i < (1u << 24); ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  sink = x;
  (void)sink;
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

double HostRefMs() {
  std::vector<double> ms;
  for (uint64_t rep = 0; rep < 5; ++rep) ms.push_back(RefKernelMs(rep));
  return Median(std::move(ms));
}

void WarmUpHost() {
  // A fresh process runs its first few hundred ms of work markedly slower
  // (clock ramp-up); spin until two consecutive kernel timings agree
  // within 3%, for at least 1 s and at most 3 s.
  const auto start = std::chrono::steady_clock::now();
  double last = RefKernelMs(0);
  for (uint64_t rep = 1;; ++rep) {
    const double now = RefKernelMs(rep);
    const double elapsed_s = std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - start)
                                 .count();
    if (elapsed_s >= 3.0 ||
        (elapsed_s >= 1.0 && std::fabs(now - last) <= 0.03 * last)) {
      return;
    }
    last = now;
  }
}

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ", ";
  body_ += Quote(key) + ": ";
}

JsonObject& JsonObject::Add(const std::string& key, const std::string& value) {
  Key(key);
  body_ += Quote(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, const char* value) {
  return Add(key, std::string(value));
}

JsonObject& JsonObject::Add(const std::string& key, double value) {
  Key(key);
  body_ += Number(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, uint64_t value) {
  Key(key);
  body_ += std::to_string(value);
  return *this;
}

JsonObject& JsonObject::Add(const std::string& key, bool value) {
  Key(key);
  body_ += value ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::AddRaw(const std::string& key, const std::string& raw) {
  Key(key);
  body_ += raw;
  return *this;
}

std::string JsonArray(const std::vector<double>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += Number(xs[i]);
  }
  return out + "]";
}

std::string JsonStrings(const std::vector<std::string>& xs) {
  std::string out = "[";
  for (size_t i = 0; i < xs.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(xs[i]);
  }
  return out + "]";
}

std::string MetricsJson(const std::vector<Metric>& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.AddRaw(m.name,
               JsonObject().Add("value", m.value).Add("unit", m.unit).str());
  }
  return obj.str();
}

}  // namespace perfbench
