#ifndef PDS2_REWARDS_SHAPLEY_H_
#define PDS2_REWARDS_SHAPLEY_H_

#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "ml/dataset.h"

namespace pds2::common {
class ThreadPool;
}  // namespace pds2::common

namespace pds2::rewards {

/// Value of a coalition of players (providers), identified by index. The
/// canonical instantiation is "accuracy of a model trained on the union of
/// the coalition's datasets" (Data Shapley, [30]).
using UtilityFn = std::function<double(const std::vector<size_t>&)>;

/// Exact Shapley values by subset enumeration: O(2^n) utility evaluations.
/// Fails (InvalidArgument) for n > 20 — the exponential wall the paper
/// calls out in §IV-A is a real constraint, not a soft warning.
common::Result<std::vector<double>> ExactShapley(size_t n,
                                                 const UtilityFn& utility);

/// Parameters of the permutation-sampling estimator. `tolerance == 0`
/// samples every permutation in full; `tolerance > 0` is truncated
/// Monte-Carlo (Ghorbani & Zou [30]): a permutation stops scanning once its
/// running coalition's utility is within `tolerance` of the grand
/// coalition's, and the remaining players get a zero marginal for it. Far
/// fewer utility calls on diminishing-returns games.
struct SampleConfig {
  size_t permutations = 0;
  double tolerance = 0.0;
};

struct SampleResult {
  std::vector<double> values;
  /// Calls to `utility`: v({}), v(N) when truncating, and every step of
  /// every permutation.
  size_t utility_calls = 0;
};

/// Permutation-sampling Shapley estimator. Unbiased at tolerance 0; error
/// shrinks as 1/sqrt(permutations). Permutation p draws its order from its
/// own RNG stream derived from (seed, p), truncation is decided inside one
/// permutation, and marginals and call counts are reduced in permutation
/// order, so the result is bit-identical for every pool size: `pool ==
/// nullptr` (or 1 thread) is the sequential reference. With a pool,
/// `utility` must be safe to call concurrently (CachedUtility is;
/// MakeMlUtility's closure is pure).
SampleResult SampleShapley(size_t n, const UtilityFn& utility,
                           SampleConfig config, uint64_t seed,
                           common::ThreadPool* pool);

/// The naive baseline the paper says "does not work well" ([27]): split
/// `total` proportionally to dataset sizes, ignoring data quality.
std::vector<double> SizeProportionalShares(const std::vector<size_t>& sizes,
                                           double total);

/// Leave-one-out valuation: phi_i = v(N) - v(N \ {i}). Only n+1 utility
/// calls, but blind to redundancy (two providers with identical data both
/// score ~0). A cheap middle ground the tests compare against Shapley.
std::vector<double> LeaveOneOut(size_t n, const UtilityFn& utility);

/// Banzhaf index estimated by sampling: the average marginal contribution
/// of player i over uniformly random coalitions of the others. Unlike
/// Shapley it weights all coalition sizes equally (and is not efficient —
/// values need not sum to v(N)).
std::vector<double> BanzhafIndex(size_t n, const UtilityFn& utility,
                                 size_t samples, common::Rng& rng);

/// Normalizes raw values to non-negative weights summing to `total`
/// (negative Shapley values — actively harmful data — are clamped to 0, so
/// they earn nothing rather than owing money).
std::vector<double> NormalizeToRewards(const std::vector<double>& values,
                                       double total);

/// Caching wrapper: memoizes coalition utilities by sorted member list so
/// repeated evaluations (exact enumeration, MC permutations) pay for each
/// distinct coalition once. Safe to call from multiple pool workers: the
/// cache is mutex-guarded and the (pure) inner utility is evaluated outside
/// the lock, so concurrent misses on the same coalition may compute twice
/// but always store the same value. misses() counts distinct coalitions
/// inserted.
class CachedUtility {
 public:
  explicit CachedUtility(UtilityFn inner) : inner_(std::move(inner)) {}

  double operator()(const std::vector<size_t>& coalition) const;
  size_t misses() const;

 private:
  UtilityFn inner_;
  mutable std::mutex mu_;
  mutable std::map<std::vector<size_t>, double> cache_;
  mutable size_t misses_ = 0;
};

/// Builds the standard ML utility: logistic regression trained on the
/// union of the coalition members' datasets, scored by accuracy on `test`.
/// Deterministic per coalition (fixed training seed) so Shapley axioms hold
/// exactly in tests.
UtilityFn MakeMlUtility(const std::vector<ml::Dataset>& provider_data,
                        const ml::Dataset& test, uint64_t train_seed);

}  // namespace pds2::rewards

#endif  // PDS2_REWARDS_SHAPLEY_H_
