#ifndef PDS2_COMMON_RNG_H_
#define PDS2_COMMON_RNG_H_

#include <cstdint>
#include <vector>

#include "common/bytes.h"

namespace pds2::common {

/// SplitMix64 step, used to expand a single 64-bit seed into the xoshiro
/// state. Public so modules can derive independent sub-seeds.
uint64_t SplitMix64(uint64_t& state);

/// Deterministic pseudo-random generator (xoshiro256** seeded through
/// SplitMix64). All randomness in the library flows through instances of
/// this class so that every simulation and experiment is reproducible from
/// a single seed. NOT a cryptographically secure RNG; crypto key material
/// quality is irrelevant here because adversaries in the simulation do not
/// attack the RNG.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t NextU64();

  /// Uniform in [0, bound). `bound` must be > 0. Uses rejection sampling to
  /// avoid modulo bias.
  uint64_t NextU64(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Standard normal via Box-Muller.
  double NextGaussian();

  /// Gaussian with given mean and standard deviation.
  double NextGaussian(double mean, double stddev);

  /// True with probability p.
  bool NextBool(double p);

  /// `n` uniform random bytes.
  Bytes NextBytes(size_t n);

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>& v) {
    if (v.empty()) return;
    for (size_t i = v.size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextU64(i + 1));
      using std::swap;
      swap(v[i], v[j]);
    }
  }

  /// A new Rng whose stream is independent of (but derived from) this one.
  /// Used to hand each simulated node / agent its own generator.
  Rng Fork();

 private:
  uint64_t s_[4];
  bool has_cached_gaussian_ = false;
  double cached_gaussian_ = 0.0;
};

}  // namespace pds2::common

#endif  // PDS2_COMMON_RNG_H_
