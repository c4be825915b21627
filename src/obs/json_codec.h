#ifndef PDS2_OBS_JSON_CODEC_H_
#define PDS2_OBS_JSON_CODEC_H_

// The one JSON codec behind every obs export (spans, time series, alerts,
// flight dumps, Chrome traces); the schema it writes is documented in
// docs/PROTOCOL.md, "Run export schema". Outside src/obs, only JsonEscape
// is used: the bench report writer (bench/bench_util.h) escapes its
// strings with it.

#include <cctype>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace pds2::obs {

/// String body with `"`, `\` and every byte below 0x20 escaped (as \n, \t,
/// \r or \u00XX), so a record always fits on one line. Bytes >= 0x20 pass
/// through unchanged.
inline std::string JsonEscape(const std::string& in) {
  std::string out;
  out.reserve(in.size());
  for (const char c : in) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\t') {
      out += "\\t";
    } else if (c == '\r') {
      out += "\\r";
    } else if (byte < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
      out += buf;
    } else {
      out += c;
    }
  }
  return out;
}

/// Writes a double as a JSON number. Integral values (counters, gauges,
/// quantile midpoints) print exactly; everything else round-trips via
/// %.17g. Non-finite values have no JSON spelling and print as 0.
inline void WriteJsonNumber(std::ostream& out, double v) {
  if (!std::isfinite(v)) {
    out << "0";
    return;
  }
  if (v == std::floor(v) && std::abs(v) < 9.0e15) {
    out << static_cast<long long>(v);
    return;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out << buf;
}

/// Reader for one flat one-object-per-line record. Not a general JSON
/// parser: values are strings, numbers, booleans or arrays of numbers —
/// exactly what the writers above emit. Errors carry the byte offset.
class JsonLineParser {
 public:
  explicit JsonLineParser(const std::string& line) : s_(line) {}

  bool Fail(std::string* error, const std::string& what) const {
    if (error != nullptr) *error = what + " at offset " + std::to_string(i_);
    return false;
  }

  bool Consume(char c) {
    SkipSpace();
    if (i_ < s_.size() && s_[i_] == c) {
      ++i_;
      return true;
    }
    return false;
  }

  /// Walks the keys of one object, calling `value(key)` with the parser at
  /// that key's value; `value` returns false (error set) to stop.
  template <typename ValueFn>
  bool ParseObject(std::string* error, ValueFn&& value) {
    if (!Consume('{')) return Fail(error, "expected '{'");
    for (bool first = true; !Consume('}'); first = false) {
      if (!first && !Consume(',')) return Fail(error, "expected ','");
      std::string key;
      if (!ParseString(&key, error)) return false;
      if (!Consume(':')) return Fail(error, "expected ':'");
      if (!value(key)) return false;
    }
    SkipSpace();
    if (i_ < s_.size()) return Fail(error, "trailing characters");
    return true;
  }

  /// Accepts exactly the escapes JsonEscape() writes; raw control bytes are
  /// rejected.
  bool ParseString(std::string* out, std::string* error) {
    if (!Consume('"')) return Fail(error, "expected string");
    out->clear();
    while (i_ < s_.size() && s_[i_] != '"') {
      const char c = s_[i_++];
      if (static_cast<unsigned char>(c) < 0x20) {
        return Fail(error, "control byte in string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      const char e = i_ < s_.size() ? s_[i_++] : '\0';
      if (e == '"' || e == '\\') {
        out->push_back(e);
      } else if (e == 'n') {
        out->push_back('\n');
      } else if (e == 't') {
        out->push_back('\t');
      } else if (e == 'r') {
        out->push_back('\r');
      } else if (e != 'u' || !ParseControlEscape(out)) {
        return Fail(error, "unsupported escape");
      }
    }
    if (i_ >= s_.size()) return Fail(error, "unterminated string");
    ++i_;  // closing quote
    return true;
  }

  bool ParseUint(uint64_t* out, std::string* error) {
    SkipSpace();
    if (i_ >= s_.size() || s_[i_] < '0' || s_[i_] > '9') {
      return Fail(error, "expected number");
    }
    uint64_t value = 0;
    while (i_ < s_.size() && s_[i_] >= '0' && s_[i_] <= '9') {
      const auto digit = static_cast<uint64_t>(s_[i_] - '0');
      if (value > (UINT64_MAX - digit) / 10) {
        return Fail(error, "number out of range");
      }
      value = value * 10 + digit;
      ++i_;
    }
    *out = value;
    return true;
  }

  bool ParseNumber(double* out, std::string* error) {
    SkipSpace();
    size_t end = i_;
    while (end < s_.size() &&
           std::string_view("+-.eE0123456789").find(s_[end]) !=
               std::string_view::npos) {
      ++end;
    }
    const std::string token = s_.substr(i_, end - i_);
    char* parsed_end = nullptr;
    *out = std::strtod(token.c_str(), &parsed_end);
    if (token.empty() || token[0] == '+' || token[0] == '.' ||
        parsed_end != token.c_str() + token.size()) {
      return Fail(error, "expected number");
    }
    i_ = end;
    return true;
  }

  bool ParseBool(bool* out, std::string* error) {
    SkipSpace();
    *out = s_.compare(i_, 4, "true") == 0;
    if (*out || s_.compare(i_, 5, "false") == 0) {
      i_ += *out ? 4 : 5;
      return true;
    }
    return Fail(error, "expected boolean");
  }

  /// `[n, n, ...]` through `element` (ParseUint or ParseNumber).
  template <typename T>
  bool ParseArray(std::vector<T>* out, std::string* error,
                  bool (JsonLineParser::*element)(T*, std::string*)) {
    if (!Consume('[')) return Fail(error, "expected array");
    out->clear();
    if (Consume(']')) return true;
    while (true) {
      T value{};
      if (!(this->*element)(&value, error)) return false;
      out->push_back(value);
      if (Consume(']')) return true;
      if (!Consume(',')) return Fail(error, "expected ',' in array");
    }
  }

 private:
  // After "\u": only 00XX with XX < 0x20 is ever written.
  bool ParseControlEscape(std::string* out) {
    if (i_ + 4 > s_.size() || s_.compare(i_, 2, "00") != 0 ||
        !std::isxdigit(static_cast<unsigned char>(s_[i_ + 2])) ||
        !std::isxdigit(static_cast<unsigned char>(s_[i_ + 3]))) {
      return false;
    }
    const unsigned long byte = std::stoul(s_.substr(i_ + 2, 2), nullptr, 16);
    if (byte >= 0x20) return false;
    out->push_back(static_cast<char>(byte));
    i_ += 4;
    return true;
  }

  void SkipSpace() {
    while (i_ < s_.size() && (s_[i_] == ' ' || s_[i_] == '\t')) ++i_;
  }

  const std::string& s_;
  size_t i_ = 0;
};

}  // namespace pds2::obs

#endif  // PDS2_OBS_JSON_CODEC_H_
