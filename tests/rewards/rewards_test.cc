#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <memory>
#include <numeric>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "ml/metrics.h"
#include "ml/sgd.h"
#include "rewards/pricing.h"
#include "rewards/shapley.h"

namespace pds2::rewards {
namespace {

using common::Rng;
using common::ThreadPool;

// Additive game: v(S) = sum of per-player worths — Shapley must recover
// exactly the worths.
UtilityFn AdditiveGame(const std::vector<double>& worths) {
  return [worths](const std::vector<size_t>& coalition) {
    double total = 0.0;
    for (size_t i : coalition) total += worths[i];
    return total;
  };
}

TEST(ExactShapleyTest, AdditiveGameRecoversWorths) {
  const std::vector<double> worths = {1.0, 5.0, 2.5, 0.0};
  auto values = ExactShapley(4, AdditiveGame(worths));
  ASSERT_TRUE(values.ok());
  for (size_t i = 0; i < worths.size(); ++i) {
    EXPECT_NEAR((*values)[i], worths[i], 1e-9) << i;
  }
}

TEST(ExactShapleyTest, EfficiencyAxiom) {
  // Sum of Shapley values equals v(grand coalition) - v(empty).
  Rng rng(1);
  std::vector<double> table(1 << 5);
  for (double& v : table) v = rng.NextDouble();
  table[0] = 0.0;
  UtilityFn game = [&table](const std::vector<size_t>& coalition) {
    uint64_t mask = 0;
    for (size_t i : coalition) mask |= uint64_t{1} << i;
    return table[mask];
  };
  auto values = ExactShapley(5, game);
  ASSERT_TRUE(values.ok());
  const double sum = std::accumulate(values->begin(), values->end(), 0.0);
  std::vector<size_t> grand = {0, 1, 2, 3, 4};
  EXPECT_NEAR(sum, game(grand), 1e-9);
}

TEST(ExactShapleyTest, SymmetryAxiom) {
  // Two players that are interchangeable get identical values.
  UtilityFn game = [](const std::vector<size_t>& coalition) {
    // v(S) = 1 if S contains player 0 or player 1, else 0.
    for (size_t i : coalition) {
      if (i == 0 || i == 1) return 1.0;
    }
    return 0.0;
  };
  auto values = ExactShapley(3, game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[0], (*values)[1], 1e-9);
  EXPECT_NEAR((*values)[2], 0.0, 1e-9);  // null player axiom
}

TEST(ExactShapleyTest, GloveGame) {
  // Classic: player 0 owns a left glove, players 1 and 2 right gloves.
  // v(S) = 1 if S has both kinds. Known values: 2/3, 1/6, 1/6.
  UtilityFn game = [](const std::vector<size_t>& coalition) {
    bool left = false, right = false;
    for (size_t i : coalition) {
      if (i == 0) left = true;
      else right = true;
    }
    return left && right ? 1.0 : 0.0;
  };
  auto values = ExactShapley(3, game);
  ASSERT_TRUE(values.ok());
  EXPECT_NEAR((*values)[0], 2.0 / 3.0, 1e-9);
  EXPECT_NEAR((*values)[1], 1.0 / 6.0, 1e-9);
  EXPECT_NEAR((*values)[2], 1.0 / 6.0, 1e-9);
}

TEST(ExactShapleyTest, RefusesLargeN) {
  auto result = ExactShapley(21, AdditiveGame(std::vector<double>(21, 1.0)));
  EXPECT_FALSE(result.ok());
}

// v(S) = sqrt(|S|): symmetric, so every player's value is sqrt(n) / n, but
// marginals vary with arrival position.
UtilityFn SqrtGame() {
  return [](const std::vector<size_t>& coalition) {
    return std::sqrt(static_cast<double>(coalition.size()));
  };
}

// Diminishing returns: each member closes 70% of the remaining gap to 1, so
// truncation cuts permutations short.
UtilityFn DiminishingGame() {
  return [](const std::vector<size_t>& coalition) {
    return 1.0 - std::pow(0.3, static_cast<double>(coalition.size()));
  };
}

struct SampledGame {
  const char* name;
  size_t n;
  size_t permutations;
  UtilityFn utility;
};

// Every game has n <= 10, so ExactShapley gives the reference values.
std::vector<SampledGame> SampledGames() {
  return {{"additive4", 4, 400, AdditiveGame({3.0, 1.0, 0.5, 2.0})},
          {"additive5", 5, 50, AdditiveGame({3.0, 1.0, 0.5, 2.0, 0.0})},
          {"sqrt6", 6, 3000, SqrtGame()},
          {"sqrt9", 9, 64, SqrtGame()},
          {"diminishing10", 10, 100, DiminishingGame()}};
}

double Grand(const SampledGame& game) {
  std::vector<size_t> everyone(game.n);
  std::iota(everyone.begin(), everyone.end(), 0);
  return game.utility(everyone);
}

// max - min of player i's marginal v(S + i) - v(S) over every coalition S.
std::vector<double> MarginalRanges(const SampledGame& game) {
  const uint64_t full = uint64_t{1} << game.n;
  std::vector<double> value(full);
  for (uint64_t mask = 0; mask < full; ++mask) {
    std::vector<size_t> coalition;
    for (size_t i = 0; i < game.n; ++i) {
      if ((mask >> i) & 1) coalition.push_back(i);
    }
    value[mask] = game.utility(coalition);
  }
  std::vector<double> ranges(game.n);
  for (size_t i = 0; i < game.n; ++i) {
    const uint64_t bit = uint64_t{1} << i;
    double lo = INFINITY, hi = -INFINITY;
    for (uint64_t mask = 0; mask < full; ++mask) {
      if (mask & bit) continue;
      lo = std::min(lo, value[mask | bit] - value[mask]);
      hi = std::max(hi, value[mask | bit] - value[mask]);
    }
    ranges[i] = hi - lo;
  }
  return ranges;
}

constexpr uint64_t kSeed = 0xfeedbeef;

// The determinism contract: for a fixed seed, every pool size (none, 1, 2,
// 4, 8 threads) gives the same values and utility_calls, with and without
// truncation, and a memoizing utility changes no bit either.
class SampleShapleyPoolTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(SampleShapleyPoolTest, BitIdenticalToNoPool) {
  const auto [threads, tolerance] = GetParam();
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) pool = std::make_unique<ThreadPool>(threads);
  for (const SampledGame& game : SampledGames()) {
    SCOPED_TRACE(game.name);
    const SampleConfig config{game.permutations, tolerance};
    const SampleResult reference =
        SampleShapley(game.n, game.utility, config, kSeed, nullptr);

    std::atomic<size_t> inner_calls{0};
    CachedUtility cached([&](const std::vector<size_t>& coalition) {
      inner_calls.fetch_add(1);
      return game.utility(coalition);
    });
    const SampleResult got =
        SampleShapley(game.n, std::ref(cached), config, kSeed, pool.get());
    // EXPECT_EQ, not EXPECT_NEAR: the contract is identical bits.
    EXPECT_EQ(got.values, reference.values);
    EXPECT_EQ(got.utility_calls, reference.utility_calls);
    // Concurrent misses on one coalition may both evaluate the inner
    // function, but misses() counts each distinct coalition once.
    EXPECT_GE(inner_calls.load(), cached.misses());
    EXPECT_GT(cached.misses(), 0u);

    // Every permutation's marginals telescope to v(last) - v({}), and a
    // truncated permutation stops within `tolerance` of v(N).
    const double sum =
        std::accumulate(got.values.begin(), got.values.end(), 0.0);
    EXPECT_NEAR(sum, Grand(game) - game.utility({}), tolerance + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(PoolsByTolerance, SampleShapleyPoolTest,
                         ::testing::Combine(::testing::Values(0, 1, 2, 4, 8),
                                            ::testing::Values(0.0, 0.01)));

// Untruncated, each estimate is the mean of `permutations` independent
// marginals, each within player i's marginal range R_i. By Hoeffding's
// inequality |estimate - exact| < 3 R_i / sqrt(permutations) fails with
// probability below 2 exp(-18) ~ 3e-8. Additive games have R_i = 0: exact
// on every permutation.
TEST(SampleShapleyTest, WithinHoeffdingBoundOfExact) {
  for (const SampledGame& game : SampledGames()) {
    SCOPED_TRACE(game.name);
    auto exact = ExactShapley(game.n, game.utility);
    ASSERT_TRUE(exact.ok());
    const std::vector<double> ranges = MarginalRanges(game);
    const SampleResult sampled = SampleShapley(
        game.n, game.utility, {game.permutations, 0.0}, kSeed, nullptr);
    const double scale = 3.0 / std::sqrt(static_cast<double>(
                                   game.permutations));
    for (size_t i = 0; i < game.n; ++i) {
      EXPECT_NEAR(sampled.values[i], (*exact)[i], scale * ranges[i] + 1e-9)
          << i;
    }
    // The seed steers the permutation streams.
    if (*std::max_element(ranges.begin(), ranges.end()) > 0.0) {
      EXPECT_NE(SampleShapley(game.n, game.utility,
                              {game.permutations, 0.0}, kSeed + 1, nullptr)
                    .values,
                sampled.values);
    }
  }
}

TEST(SampleShapleyTest, TruncationSavesCalls) {
  const size_t n = 10, perms = 100;
  size_t counted_calls = 0;
  const UtilityFn game = DiminishingGame();
  UtilityFn counted = [&](const std::vector<size_t>& c) {
    ++counted_calls;
    return game(c);
  };
  const SampleResult plain = SampleShapley(n, counted, {perms, 0.0}, 4,
                                           nullptr);
  EXPECT_EQ(plain.utility_calls, counted_calls);
  EXPECT_EQ(plain.utility_calls, 1 + perms * n);  // v({}) + every step
  counted_calls = 0;
  const SampleResult truncated =
      SampleShapley(n, counted, {perms, 0.01}, 4, nullptr);
  EXPECT_EQ(truncated.utility_calls, counted_calls);
  EXPECT_LT(truncated.utility_calls, plain.utility_calls / 2);
  EXPECT_NEAR(
      std::accumulate(truncated.values.begin(), truncated.values.end(), 0.0),
      std::accumulate(plain.values.begin(), plain.values.end(), 0.0), 0.05);
}

TEST(SampleShapleyTest, EmptyInputsReturnZeros) {
  ThreadPool pool(2);
  EXPECT_TRUE(SampleShapley(0, SqrtGame(), {10, 0.0}, kSeed, &pool)
                  .values.empty());
  const SampleResult none = SampleShapley(4, SqrtGame(), {0, 0.0}, kSeed,
                                          &pool);
  EXPECT_EQ(none.values, std::vector<double>(4, 0.0));
  EXPECT_EQ(none.utility_calls, 0u);
}

TEST(CachedUtilityTest, MemoizesCoalitions) {
  size_t calls = 0;
  CachedUtility cached([&calls](const std::vector<size_t>&) {
    ++calls;
    return 1.0;
  });
  std::vector<size_t> c = {0, 2};
  EXPECT_EQ(cached(c), 1.0);
  EXPECT_EQ(cached(c), 1.0);
  EXPECT_EQ(calls, 1u);
  EXPECT_EQ(cached.misses(), 1u);
  std::vector<size_t> d = {1};
  (void)cached(d);
  EXPECT_EQ(calls, 2u);
  (void)cached({2, 0});  // a set: member order does not matter
  EXPECT_EQ(calls, 2u);
}

// Regression: the cache was keyed by a 64-bit mask, so players i and i + 64
// shared a bit and a 70-player coalition could read another's utility.
TEST(CachedUtilityTest, SeventyPlayersDoNotAlias) {
  std::vector<double> worths(70);
  for (size_t i = 0; i < worths.size(); ++i) worths[i] = 1.0 + i;
  CachedUtility cached(AdditiveGame(worths));
  const SampleResult sampled =
      SampleShapley(worths.size(), std::ref(cached), {20, 0.0}, 1, nullptr);
  for (size_t i = 0; i < worths.size(); ++i) {
    EXPECT_NEAR(sampled.values[i], worths[i], 1e-9) << i;
  }
}

TEST(SizeProportionalTest, SplitsBySize) {
  auto shares = SizeProportionalShares({10, 30, 60}, 1000.0);
  EXPECT_DOUBLE_EQ(shares[0], 100.0);
  EXPECT_DOUBLE_EQ(shares[1], 300.0);
  EXPECT_DOUBLE_EQ(shares[2], 600.0);
  auto zero = SizeProportionalShares({0, 0}, 100.0);
  EXPECT_DOUBLE_EQ(zero[0], 0.0);
}

TEST(NormalizeToRewardsTest, ClampsNegativesAndSums) {
  auto rewards = NormalizeToRewards({2.0, -1.0, 2.0}, 100.0);
  EXPECT_DOUBLE_EQ(rewards[0], 50.0);
  EXPECT_DOUBLE_EQ(rewards[1], 0.0);
  EXPECT_DOUBLE_EQ(rewards[2], 50.0);
  auto degenerate = NormalizeToRewards({-1.0, -2.0}, 100.0);
  EXPECT_DOUBLE_EQ(degenerate[0], 50.0);
}

TEST(MlUtilityTest, QualityProviderWorthMoreThanNoiseProvider) {
  Rng rng(5);
  ml::Dataset all = ml::MakeTwoGaussians(1200, 4, 3.0, rng);
  auto [train, test] = ml::TrainTestSplit(all, 0.3, rng);
  auto parts = ml::PartitionIid(train, 3, rng);
  // Provider 2's labels are garbage.
  ml::CorruptLabels(parts[2], 0.5, rng);

  CachedUtility utility(MakeMlUtility(parts, test, 99));
  auto values = ExactShapley(3, std::ref(utility));
  ASSERT_TRUE(values.ok());
  // Clean providers beat the corrupted one — the §IV-A point that equal
  // sizes do not mean equal value.
  EXPECT_GT((*values)[0], (*values)[2]);
  EXPECT_GT((*values)[1], (*values)[2]);
}

TEST(ModelPricerTest, FullBudgetIsNoiseFree) {
  Rng rng(6);
  ml::Dataset data = ml::MakeTwoGaussians(600, 4, 4.0, rng);
  ml::LogisticRegressionModel model(4);
  ml::SgdConfig config;
  config.epochs = 10;
  ml::Train(model, data, config, rng);

  ModelPricer pricer(model, 1000.0, 1.0);
  EXPECT_DOUBLE_EQ(pricer.NoiseStddev(1000.0), 0.0);
  auto bought = pricer.PriceOut(1000.0, rng);
  EXPECT_EQ(bought->GetParams(), model.GetParams());
}

TEST(ModelPricerTest, AccuracyIncreasesWithBudget) {
  Rng rng(7);
  ml::Dataset all = ml::MakeTwoGaussians(1500, 4, 4.0, rng);
  auto [train, test] = ml::TrainTestSplit(all, 0.3, rng);
  ml::LogisticRegressionModel model(4);
  ml::SgdConfig config;
  config.epochs = 10;
  ml::Train(model, train, config, rng);

  ModelPricer pricer(model, 1000.0, 2.0);
  auto curve = PriceAccuracyCurve(pricer, test, {50, 200, 500, 1000}, 20, rng);
  ASSERT_EQ(curve.size(), 4u);
  // Noise shrinks with budget; accuracy rises (allow small MC wobble).
  EXPECT_GT(curve[0].noise_stddev, curve[1].noise_stddev);
  EXPECT_GT(curve[2].noise_stddev, curve[3].noise_stddev);
  EXPECT_LT(curve[0].accuracy, curve[3].accuracy - 0.05);
  EXPECT_GT(curve[3].accuracy, 0.9);
}

}  // namespace
}  // namespace pds2::rewards
