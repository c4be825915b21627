#ifndef PDS2_BENCH_BENCH_UTIL_H_
#define PDS2_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "obs/json_codec.h"
#include "obs/stopwatch.h"

namespace pds2::bench {

/// Wall-clock stopwatch for experiment harnesses — the obs subsystem's
/// Stopwatch, so bench numbers, metric histograms, and span traces all read
/// the same steady clock.
using Timer = obs::Stopwatch;

/// Compiler barrier: forces `value` to be materialized, preventing the
/// optimizer from hoisting or eliding the computation that produced it.
template <typename T>
inline void DoNotOptimize(T& value) {
  asm volatile("" : "+r,m"(value) : : "memory");
}

/// Ends the bench with `what` on stderr unless `ok`: a failed setup step
/// leaves nothing worth reporting.
inline void Require(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "%s\n", what.c_str());
  std::exit(1);
}

/// The pool sizes of a thread sweep: 1, 2, 4 and the default worker
/// count, ascending and without repeats.
inline std::vector<size_t> ThreadSweep() {
  std::vector<size_t> counts = {1, 2, 4,
                                common::ThreadPool::DefaultThreadCount()};
  std::sort(counts.begin(), counts.end());
  counts.erase(std::unique(counts.begin(), counts.end()), counts.end());
  return counts;
}

/// Upper median (0 for no samples).
inline double Median(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  return xs.empty() ? 0.0 : xs[xs.size() / 2];
}

/// The q-quantile (0 <= q <= 1) by linear interpolation between order
/// statistics (0 for no samples).
inline double Quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (pos - static_cast<double>(lo)) * (xs[hi] - xs[lo]);
}

/// The overhead of an arm over a base arm, timed in paired trials (trial k
/// ran base[k] and arm[k] back to back, in rotating order): the median
/// paired difference as a % of the median base. Its resolution is the
/// half-width of an approximate 95% interval of that median,
/// 1.58 IQR(differences) / sqrt(n), over the same median base. Drift
/// between trials cancels in each difference, so the resolution narrows
/// as trials are added. An overhead is resolved only when it exceeds its
/// resolution; a negative one never is.
struct Overhead {
  double pct = 0.0;
  double resolution_pct = 0.0;
  bool resolved = false;
};

inline Overhead PairedOverhead(const std::vector<double>& base,
                               const std::vector<double>& arm) {
  std::vector<double> diffs;
  for (size_t k = 0; k < base.size() && k < arm.size(); ++k) {
    diffs.push_back(arm[k] - base[k]);
  }
  const double median_base = Median(base);
  if (median_base <= 0.0 || diffs.empty()) return {};
  Overhead o;
  o.pct = Median(diffs) / median_base * 100.0;
  o.resolution_pct = 1.58 * (Quantile(diffs, 0.75) - Quantile(diffs, 0.25)) /
                     std::sqrt(static_cast<double>(diffs.size())) /
                     median_base * 100.0;
  o.resolved = o.pct > o.resolution_pct;
  return o;
}

/// Section banner shared by all experiment binaries.
inline void Banner(const char* experiment, const char* claim) {
  std::printf("\n==========================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("==========================================================\n");
}

/// Ordered JSON object for bench reports. Numbers follow one rule:
/// integral values print exactly, others at %.6g, and non-finite values as
/// `null` so a schema check rejects them. Strings go through
/// obs::JsonEscape. A nested object prints on one line; an array of
/// objects prints one object per line.
class Json {
 public:
  template <typename T>
    requires std::is_arithmetic_v<T>
  Json& Add(const std::string& key, T value) {
    std::ostringstream out;
    if constexpr (std::is_integral_v<T>) {
      out << +value;
    } else if (!std::isfinite(value)) {
      out << "null";
    } else if (value == std::floor(value) && std::abs(value) < 9.0e15) {
      out << static_cast<long long>(value);
    } else {
      out.precision(6);  // the default float format at precision 6 is %.6g
      out << value;
    }
    return Put(key, out.str());
  }
  Json& Add(const std::string& key, bool value) {
    return Put(key, value ? "true" : "false");
  }
  Json& Add(const std::string& key, const std::string& value) {
    return Put(key, Quoted(value));
  }
  Json& Add(const std::string& key, const char* value) {
    return Put(key, Quoted(value));
  }
  Json& Add(const std::string& key, const Json& object) {
    return Put(key, object.Inline());
  }
  Json& Add(const std::string& key, const std::vector<Json>& cells) {
    std::string text = "[";
    for (size_t i = 0; i < cells.size(); ++i) {
      text += (i == 0 ? "\n      " : ",\n      ") + cells[i].Inline();
    }
    return Put(key, text + (cells.empty() ? "]" : "\n    ]"));
  }

  /// `key` is the overhead in % when resolved and "below resolution"
  /// otherwise; `<key>` with its "_pct" suffix swapped for
  /// "_resolution_pct" always holds the resolution as a number. Noise is
  /// never reported as an overhead, and never as a negative one.
  Json& AddOverhead(const std::string& key, const Overhead& o) {
    if (o.resolved) {
      Add(key, o.pct);
    } else {
      Add(key, "below resolution");
    }
    return Add(ResolutionKey(key), o.resolution_pct);
  }
  /// `key` is the overhead in % when resolved and otherwise its
  /// resolution, an upper bound (never a negative number); the resolution
  /// is also written as by AddOverhead. For a budget gate on a number.
  Json& AddOverheadBound(const std::string& key, const Overhead& o) {
    Add(key, o.resolved ? o.pct : o.resolution_pct);
    return Add(ResolutionKey(key), o.resolution_pct);
  }

  /// `{"a": 1, "b": 2}` on one line.
  std::string Inline() const { return Render("", ", ", ""); }
  /// The multi-line body of one top-level report section.
  std::string Section() const { return Render("\n    ", ",\n    ", "\n  "); }

 private:
  static std::string Quoted(const std::string& text) {
    return '"' + obs::JsonEscape(text) + '"';
  }

  /// "x_overhead_pct" -> "x_overhead_resolution_pct".
  static std::string ResolutionKey(const std::string& key) {
    const std::string stem =
        key.size() > 4 && key.compare(key.size() - 4, 4, "_pct") == 0
            ? key.substr(0, key.size() - 4)
            : key;
    return stem + "_resolution_pct";
  }

  Json& Put(const std::string& key, std::string value) {
    members_.emplace_back(Quoted(key), std::move(value));
    return *this;
  }

  std::string Render(const char* open, const char* separator,
                     const char* close) const {
    std::string out = "{";
    for (size_t i = 0; i < members_.size(); ++i) {
      out += i == 0 ? open : separator;
      out += members_[i].first + ": " + members_[i].second;
    }
    return out + (members_.empty() ? "" : close) + "}";
  }

  std::vector<std::pair<std::string, std::string>> members_;
};

/// One top-level report section: its escaped name and its body text.
using ReportSection = std::pair<std::string, std::string>;

/// Splits a report into its sections. Accepts only the layout
/// WriteReportSection emits: "{" and "}" on the first and last lines and
/// one `  "name": ` line opening each section; else sets `error`.
inline bool ReadReportSections(const std::string& text,
                               std::vector<ReportSection>* sections,
                               std::string* error) {
  sections->clear();
  if (!text.starts_with("{\n") || !text.ends_with("\n}\n")) {
    *error = "\"{\" and \"}\" are not on the first and last lines";
    return false;
  }
  std::istringstream lines(text.substr(2, text.size() - 4));
  for (std::string line; std::getline(lines, line);) {
    const size_t colon = line.find("\": ");
    if (line.starts_with("  \"") && colon != std::string::npos) {
      sections->emplace_back(line.substr(3, colon - 3),
                             line.substr(colon + 3));
    } else if (!sections->empty()) {
      sections->back().second += "\n" + line;
    } else {
      *error = "line 2 does not open a section";
      return false;
    }
  }
  for (auto& [name, body] : *sections) {
    if (&name != &sections->back().first && body.ends_with(',')) {
      body.pop_back();
    }
    if (!body.starts_with('{') || !body.ends_with('}')) {
      *error = "section \"" + name + "\" is not one object";
      return false;
    }
  }
  return true;
}

/// Replaces (or adds, before `metadata`) the top-level `section` of the
/// report at `path` and re-stamps its `metadata`; every other section is
/// kept byte for byte. A file in any other layout is left untouched: the
/// reason goes to stderr and the call returns false, so the bench exits
/// non-zero instead of dropping another binary's sections. On success it
/// prints which file and section it wrote.
inline bool WriteReportSection(const std::string& path,
                               const std::string& section, const Json& json) {
  std::vector<ReportSection> sections;
  if (std::ifstream in(path); in) {
    const std::string text((std::istreambuf_iterator<char>(in)),
                           std::istreambuf_iterator<char>());
    std::string error;
    if (!ReadReportSections(text, &sections, &error)) {
      std::fprintf(stderr, "%s left unchanged: %s\n", path.c_str(),
                   error.c_str());
      return false;
    }
  }
  // Thread and build context: the worker count every parallel stage ran
  // with, the raw PDS2_THREADS override and bench/CMakeLists.txt's build.
  const char* env = std::getenv("PDS2_THREADS");
  const Json metadata =
      Json()
          .Add("threads_effective", common::ThreadPool::DefaultThreadCount())
          .Add("pds2_threads_env", env ? env : "")
          .Add("hardware_concurrency",
               std::max(1u, std::thread::hardware_concurrency()))
          .Add("build_type", PDS2_BENCH_BUILD_TYPE)
          .Add("compiler", PDS2_BENCH_COMPILER);
  auto upsert = [&sections](const std::string& name, const Json& body) {
    auto named = [](const std::string& key) {
      return [key](const ReportSection& s) { return s.first == key; };
    };
    auto it = std::find_if(sections.begin(), sections.end(),
                           named(obs::JsonEscape(name)));
    if (it == sections.end()) {
      it = sections.insert(
          std::find_if(sections.begin(), sections.end(), named("metadata")),
          {obs::JsonEscape(name), ""});
    }
    it->second = body.Section();
  };
  upsert(section, json);
  upsert("metadata", metadata);

  std::ofstream out(path, std::ios::trunc);
  out << "{\n";
  for (size_t i = 0; i < sections.size(); ++i) {
    out << "  \"" << sections[i].first << "\": " << sections[i].second
        << (i + 1 < sections.size() ? ",\n" : "\n");
  }
  out << "}\n";
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s (%s section)\n", path.c_str(), section.c_str());
  return true;
}

}  // namespace pds2::bench

#endif  // PDS2_BENCH_BENCH_UTIL_H_
