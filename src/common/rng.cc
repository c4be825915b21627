#include "common/rng.h"

#include <cassert>
#include <cmath>

namespace pds2::common {

namespace {

inline uint64_t Rotl(uint64_t x, int k) {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

uint64_t SplitMix64(uint64_t& state) {
  uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(sm);
}

uint64_t Rng::NextU64() {
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextU64(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling: discard values in the biased tail.
  const uint64_t threshold = (0 - bound) % bound;
  for (;;) {
    uint64_t r = NextU64();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble() {
  // 53 significant bits.
  return static_cast<double>(NextU64() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (has_cached_gaussian_) {
    has_cached_gaussian_ = false;
    return cached_gaussian_;
  }
  // Box-Muller transform.
  double u1 = NextDouble();
  while (u1 <= 0.0) u1 = NextDouble();
  const double u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  cached_gaussian_ = r * std::sin(theta);
  has_cached_gaussian_ = true;
  return r * std::cos(theta);
}

double Rng::NextGaussian(double mean, double stddev) {
  return mean + stddev * NextGaussian();
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

Bytes Rng::NextBytes(size_t n) {
  Bytes out(n);
  size_t i = 0;
  while (i + 8 <= n) {
    uint64_t r = NextU64();
    for (int k = 0; k < 8; ++k) out[i++] = static_cast<uint8_t>(r >> (8 * k));
  }
  if (i < n) {
    uint64_t r = NextU64();
    while (i < n) {
      out[i++] = static_cast<uint8_t>(r);
      r >>= 8;
    }
  }
  return out;
}

Rng Rng::Fork() { return Rng(NextU64() ^ 0xa5a5a5a5deadbeefULL); }

}  // namespace pds2::common
