#include "rewards/shapley.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/thread_pool.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/sgd.h"

namespace pds2::rewards {

using common::Result;
using common::Rng;
using common::Status;

namespace {

// C(n, k) table-free binomial for the exact Shapley weights; n <= 20 so
// doubles are exact.
double Binomial(size_t n, size_t k) {
  double result = 1.0;
  for (size_t i = 0; i < k; ++i) {
    result *= static_cast<double>(n - i) / static_cast<double>(i + 1);
  }
  return result;
}

std::vector<size_t> MaskToCoalition(uint64_t mask, size_t n) {
  std::vector<size_t> coalition;
  for (size_t i = 0; i < n; ++i) {
    if ((mask >> i) & 1) coalition.push_back(i);
  }
  return coalition;
}

}  // namespace

double CachedUtility::operator()(const std::vector<size_t>& coalition) const {
  std::vector<size_t> key = coalition;
  std::sort(key.begin(), key.end());
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
  }
  // The utility is a pure set function, so concurrent misses on the same
  // coalition compute the same value; the first insert wins and the
  // duplicate work is bounded by the number of workers.
  const double value = inner_(coalition);
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = cache_.emplace(std::move(key), value);
  if (inserted) ++misses_;
  return it->second;
}

size_t CachedUtility::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

Result<std::vector<double>> ExactShapley(size_t n, const UtilityFn& utility) {
  if (n == 0) return std::vector<double>{};
  if (n > 20) {
    return Status::InvalidArgument(
        "exact Shapley is exponential; refusing n > 20 (use SampleShapley)");
  }

  // Cache all subset utilities once.
  const uint64_t full = uint64_t{1} << n;
  std::vector<double> value(full);
  for (uint64_t mask = 0; mask < full; ++mask) {
    value[mask] = utility(MaskToCoalition(mask, n));
  }

  // phi_i = sum over S not containing i of
  //   |S|! (n-|S|-1)! / n! * (v(S+i) - v(S)).
  std::vector<double> shapley(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    for (uint64_t mask = 0; mask < full; ++mask) {
      if (mask & bit) continue;
      const size_t s = static_cast<size_t>(__builtin_popcountll(mask));
      const double weight =
          1.0 / (static_cast<double>(n) * Binomial(n - 1, s));
      shapley[i] += weight * (value[mask | bit] - value[mask]);
    }
  }
  return shapley;
}

SampleResult SampleShapley(size_t n, const UtilityFn& utility,
                           SampleConfig config, uint64_t seed,
                           common::ThreadPool* pool) {
  const size_t permutations = config.permutations;
  SampleResult result{std::vector<double>(n, 0.0), 0};
  if (n == 0 || permutations == 0) return result;

  const bool truncate = config.tolerance > 0.0;
  std::vector<size_t> everyone(n);
  std::iota(everyone.begin(), everyone.end(), 0);
  const double grand_value = truncate ? utility(everyone) : 0.0;
  const double empty_value = utility({});
  result.utility_calls = truncate ? 2 : 1;

  // Marginals indexed (permutation, player) and call counts by permutation.
  // Execution order never matters: permutation p's stream depends only on
  // (seed, p), each run writes only its own row, and the reduction below
  // runs in permutation order.
  std::vector<double> deltas(permutations * n, 0.0);
  std::vector<size_t> calls(permutations, 0);
  auto run_permutation = [&](size_t p) {
    uint64_t stream = seed + 0x9e3779b97f4a7c15ULL * (p + 1);
    Rng rng(common::SplitMix64(stream));
    std::vector<size_t> order = everyone;
    rng.Shuffle(order);

    // The coalition stays sorted: an oracle that depends on member order
    // (training on the union) still sees each set one way.
    std::vector<size_t> coalition;
    coalition.reserve(n);
    double previous = empty_value;
    for (size_t i : order) {
      if (truncate && std::abs(grand_value - previous) < config.tolerance) {
        break;  // the remaining players contribute ~nothing this pass
      }
      coalition.insert(
          std::lower_bound(coalition.begin(), coalition.end(), i), i);
      const double current = utility(coalition);
      ++calls[p];
      deltas[p * n + i] = current - previous;
      previous = current;
    }
  };

  if (pool != nullptr && pool->NumThreads() > 1) {
    pool->ParallelFor(0, permutations, run_permutation);
  } else {
    for (size_t p = 0; p < permutations; ++p) run_permutation(p);
  }

  for (size_t p = 0; p < permutations; ++p) {
    for (size_t i = 0; i < n; ++i) result.values[i] += deltas[p * n + i];
    result.utility_calls += calls[p];
  }
  for (double& v : result.values) v /= static_cast<double>(permutations);
  return result;
}

std::vector<double> SizeProportionalShares(const std::vector<size_t>& sizes,
                                           double total) {
  const double sum = static_cast<double>(
      std::accumulate(sizes.begin(), sizes.end(), size_t{0}));
  std::vector<double> shares(sizes.size(), 0.0);
  if (sum <= 0) return shares;
  for (size_t i = 0; i < sizes.size(); ++i) {
    shares[i] = total * static_cast<double>(sizes[i]) / sum;
  }
  return shares;
}

std::vector<double> LeaveOneOut(size_t n, const UtilityFn& utility) {
  std::vector<double> values(n, 0.0);
  if (n == 0) return values;
  std::vector<size_t> everyone(n);
  std::iota(everyone.begin(), everyone.end(), 0);
  const double grand = utility(everyone);
  for (size_t i = 0; i < n; ++i) {
    std::vector<size_t> without;
    without.reserve(n - 1);
    for (size_t j = 0; j < n; ++j) {
      if (j != i) without.push_back(j);
    }
    values[i] = grand - utility(without);
  }
  return values;
}

std::vector<double> BanzhafIndex(size_t n, const UtilityFn& utility,
                                 size_t samples, Rng& rng) {
  std::vector<double> values(n, 0.0);
  if (n == 0 || samples == 0) return values;
  for (size_t s = 0; s < samples; ++s) {
    // Uniformly random coalition of all players, then toggle each i.
    std::vector<bool> in(n);
    for (size_t i = 0; i < n; ++i) in[i] = rng.NextBool(0.5);
    for (size_t i = 0; i < n; ++i) {
      std::vector<size_t> with_i, without_i;
      for (size_t j = 0; j < n; ++j) {
        if (j == i) continue;
        if (in[j]) {
          with_i.push_back(j);
          without_i.push_back(j);
        }
      }
      with_i.push_back(i);
      std::sort(with_i.begin(), with_i.end());
      values[i] += utility(with_i) - utility(without_i);
    }
  }
  for (double& v : values) v /= static_cast<double>(samples);
  return values;
}

std::vector<double> NormalizeToRewards(const std::vector<double>& values,
                                       double total) {
  std::vector<double> clamped(values.size());
  double sum = 0.0;
  for (size_t i = 0; i < values.size(); ++i) {
    clamped[i] = std::max(0.0, values[i]);
    sum += clamped[i];
  }
  if (sum <= 0.0) {
    // Degenerate game: nobody added value; split evenly.
    const double even = values.empty() ? 0.0 : total / values.size();
    std::fill(clamped.begin(), clamped.end(), even);
    return clamped;
  }
  for (double& v : clamped) v = v / sum * total;
  return clamped;
}

UtilityFn MakeMlUtility(const std::vector<ml::Dataset>& provider_data,
                        const ml::Dataset& test, uint64_t train_seed) {
  const size_t features = test.NumFeatures();
  return [&provider_data, &test, features,
          train_seed](const std::vector<size_t>& coalition) {
    if (coalition.empty()) return 0.5;  // majority-guess baseline
    ml::Dataset merged;
    for (size_t i : coalition) merged.Append(provider_data[i]);
    if (merged.Size() == 0) return 0.5;
    ml::LogisticRegressionModel model(features);
    ml::SgdConfig config;
    config.epochs = 8;
    config.learning_rate = 0.2;
    common::Rng rng(train_seed);  // fixed: utility is a pure set function
    ml::Train(model, merged, config, rng);
    return ml::Accuracy(model, test);
  };
}

}  // namespace pds2::rewards
