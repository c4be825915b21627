// E4 — Reward schemes (paper §IV-A).
//
// Measurements:
//  (a) cost of exact Shapley vs provider count — the exponential wall;
//  (b) accuracy/cost of the Monte-Carlo and truncated-MC approximations;
//  (c) misallocation of the naive size-proportional split when one provider
//      contributes label noise ("monetization of data based on size does
//      not work well", [27]);
//  (e) thread-count sweep of the sampling estimator; values and utility
//      call counts must be bit-identical at every pool size, else the bench
//      exits 1. Writes the "shapley" section of BENCH_parallel.json.

#include <cmath>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string>

#include "bench_util.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "rewards/shapley.h"

int main() {
  using namespace pds2;
  using rewards::CachedUtility;

  bench::Banner("E4: Shapley-value reward schemes",
                "fair but exponential; approximations needed (IV-A)");

  // --- (a)+(b): cost and error vs provider count. -------------------------
  std::printf("%4s | %12s %10s | %12s %10s | %12s %10s\n", "n", "exact ms",
              "calls", "mc err", "calls", "tmc err", "calls");
  for (size_t n : {4u, 6u, 8u, 10u, 12u}) {
    // Heterogeneous providers: equal sizes, varying label noise.
    common::Rng data_rng(100 + n);
    ml::Dataset all = ml::MakeTwoGaussians(200 * n + 600, 6, 2.5, data_rng);
    auto [train, test] = ml::TrainTestSplit(all, 600.0 / all.Size(), data_rng);
    auto parts = ml::PartitionIid(train, n, data_rng);
    for (size_t i = 0; i < n; ++i) {
      ml::CorruptLabels(parts[i],
                        0.5 * static_cast<double>(i) / static_cast<double>(n),
                        data_rng);
    }
    CachedUtility exact_utility(rewards::MakeMlUtility(parts, test, 7));

    bench::Timer timer;
    auto exact = rewards::ExactShapley(n, std::ref(exact_utility));
    const double exact_ms = timer.ElapsedMs();
    const size_t exact_calls = exact_utility.misses();

    auto err = [&](const std::vector<double>& approx) {
      double total = 0;
      for (size_t i = 0; i < n; ++i) total += std::abs(approx[i] - (*exact)[i]);
      return total / static_cast<double>(n);
    };

    // Same seed: the truncated run samples the plain run's permutations.
    const size_t perms = 60;
    CachedUtility mc_utility(rewards::MakeMlUtility(parts, test, 7));
    auto mc = rewards::SampleShapley(n, std::ref(mc_utility), {perms, 0.0},
                                     /*seed=*/3, nullptr);

    CachedUtility tmc_utility(rewards::MakeMlUtility(parts, test, 7));
    auto tmc = rewards::SampleShapley(n, std::ref(tmc_utility), {perms, 0.02},
                                      /*seed=*/3, nullptr);
    std::printf("%4zu | %12.1f %10zu | %12.4f %10zu | %12.4f %10zu\n", n,
                exact_ms, exact_calls, err(mc.values), mc_utility.misses(),
                err(tmc.values), tmc_utility.misses());
  }
  std::printf("(exact calls = 2^n distinct coalitions; the paper's "
              "exponential-complexity point)\n");

  // --- (c): size-based vs Shapley-based allocation. -------------------------
  std::printf("\n-- misallocation: equal sizes, one noisy provider --\n");
  common::Rng data_rng(55);
  ml::Dataset all = ml::MakeTwoGaussians(2000, 6, 3.0, data_rng);
  auto [train, test] = ml::TrainTestSplit(all, 0.25, data_rng);
  auto parts = ml::PartitionIid(train, 4, data_rng);
  ml::CorruptLabels(parts[3], 0.45, data_rng);

  CachedUtility utility(rewards::MakeMlUtility(parts, test, 7));
  auto shapley = rewards::ExactShapley(4, std::ref(utility));
  auto shapley_rewards = rewards::NormalizeToRewards(*shapley, 100.0);
  std::vector<size_t> sizes;
  for (const auto& p : parts) sizes.push_back(p.Size());
  auto size_rewards = rewards::SizeProportionalShares(sizes, 100.0);

  std::printf("%12s %10s %14s %16s\n", "provider", "records", "size-based %",
              "shapley %");
  for (int i = 0; i < 4; ++i) {
    std::printf("%12d %10zu %14.1f %16.1f%s\n", i, sizes[i], size_rewards[i],
                shapley_rewards[i], i == 3 ? "  <- 45% label noise" : "");
  }

  // --- (d): cheaper valuation methods against exact Shapley. ----------------
  std::printf("\n-- method comparison (same game) --\n");
  auto loo = rewards::LeaveOneOut(4, std::ref(utility));
  auto loo_rewards = rewards::NormalizeToRewards(loo, 100.0);
  common::Rng brng(77);
  auto banzhaf = rewards::BanzhafIndex(4, std::ref(utility), 30, brng);
  auto banzhaf_rewards = rewards::NormalizeToRewards(banzhaf, 100.0);
  std::printf("%12s %14s %14s %14s\n", "provider", "shapley %", "LOO %",
              "banzhaf %");
  for (int i = 0; i < 4; ++i) {
    std::printf("%12d %14.1f %14.1f %14.1f\n", i, shapley_rewards[i],
                loo_rewards[i], banzhaf_rewards[i]);
  }
  std::printf("(LOO costs n+1 utility calls but cannot see redundancy; "
              "Banzhaf weights all coalition sizes equally)\n");

  // --- (e): parallel Monte-Carlo thread sweep. ------------------------------
  std::printf("\n-- sampled Shapley on a pool (n=12 providers, 32 "
              "permutations) --\n");
  const size_t pn = 12;
  const size_t pperms = 32;
  common::Rng pdata_rng(200);
  ml::Dataset pall = ml::MakeTwoGaussians(200 * pn + 600, 6, 2.5, pdata_rng);
  auto [ptrain, ptest] =
      ml::TrainTestSplit(pall, 600.0 / pall.Size(), pdata_rng);
  auto pparts = ml::PartitionIid(ptrain, pn, pdata_rng);
  // Raw (uncached) utility: every permutation retrains from scratch, so the
  // sweep measures genuine parallel scaling, not cache-hit luck.
  rewards::UtilityFn putility = rewards::MakeMlUtility(pparts, ptest, 7);

  std::printf("%10s %12s %10s %14s %12s\n", "threads", "ms", "speedup",
              "utility calls", "identical");
  rewards::SampleResult reference;
  double base_ms = 0.0;
  bool all_identical = true;
  std::vector<bench::Json> sweep;
  for (size_t threads : bench::ThreadSweep()) {
    common::ThreadPool pool(threads);
    bench::Timer timer;
    auto result = rewards::SampleShapley(pn, putility, {pperms, 0.0},
                                         /*seed=*/9, &pool);
    const double ms = timer.ElapsedMs();
    if (reference.values.empty()) {
      reference = result;
      base_ms = ms;
    }
    const bool identical = result.values == reference.values &&
                           result.utility_calls == reference.utility_calls;
    all_identical = all_identical && identical;
    const double speedup = ms > 0.0 ? base_ms / ms : 0.0;
    std::printf("%10zu %12.1f %10.2f %14zu %12s\n", threads, ms, speedup,
                result.utility_calls, identical ? "yes" : "NO");
    sweep.push_back(bench::Json()
                        .Add("threads", threads)
                        .Add("ms", ms)
                        .Add("speedup", speedup)
                        .Add("utility_calls", result.utility_calls)
                        .Add("identical", identical));
  }
  std::printf("(bit-identical results at every pool size is the determinism "
              "contract, not a tolerance)\n");

  const bench::Json section = bench::Json()
                                  .Add("providers", pn)
                                  .Add("permutations", pperms)
                                  .Add("all_identical", all_identical)
                                  .Add("sweep", sweep);
  const bool written =
      bench::WriteReportSection("BENCH_parallel.json", "shapley", section);
  return written && all_identical ? 0 : 1;
}
