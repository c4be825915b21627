#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/rng.h"
#include "crypto/secret_sharing.h"

namespace pds2::crypto {
namespace {

using common::Rng;

// Additive shares recombine by plain addition mod 2^64.
uint64_t Reconstruct(const std::vector<uint64_t>& shares) {
  return std::accumulate(shares.begin(), shares.end(), uint64_t{0});
}

TEST(AdditiveShareTest, ReconstructsSecret) {
  Rng rng(1);
  for (size_t n : {1u, 2u, 3u, 10u, 100u}) {
    const uint64_t secret = rng.NextU64();
    auto shares = AdditiveShare(secret, n, rng);
    EXPECT_EQ(shares.size(), n);
    EXPECT_EQ(Reconstruct(shares), secret);
  }
}

TEST(AdditiveShareTest, SharesAreLinear) {
  // share(a) + share(b) reconstructs to a + b — the property the SMC
  // backend relies on for additions.
  Rng rng(2);
  const uint64_t a = rng.NextU64(), b = rng.NextU64();
  auto sa = AdditiveShare(a, 3, rng);
  auto sb = AdditiveShare(b, 3, rng);
  std::vector<uint64_t> sum(3);
  for (int i = 0; i < 3; ++i) sum[i] = sa[i] + sb[i];
  EXPECT_EQ(Reconstruct(sum), a + b);
}

TEST(AdditiveShareTest, SingleShareLeaksNothingStructural) {
  // Different secrets with the same RNG stream give identical first shares:
  // the first n-1 shares are independent of the secret.
  Rng rng1(3), rng2(3);
  auto s1 = AdditiveShare(111, 4, rng1);
  auto s2 = AdditiveShare(999999, 4, rng2);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(s1[i], s2[i]);
  EXPECT_NE(s1[3], s2[3]);
}

TEST(BeaverTripleTest, TwoPartyMultiplicationProtocol) {
  Rng rng(4);
  for (int trial = 0; trial < 20; ++trial) {
    const uint64_t x = rng.NextU64(), y = rng.NextU64();
    auto xs = AdditiveShare(x, 2, rng);
    auto ys = AdditiveShare(y, 2, rng);
    BeaverTriple t = MakeBeaverTriple(rng);

    // Both parties open e = x - a and f = y - b.
    const uint64_t e = (xs[0] - t.a_share[0]) + (xs[1] - t.a_share[1]);
    const uint64_t f = (ys[0] - t.b_share[0]) + (ys[1] - t.b_share[1]);

    // z_i = c_i + e*b_i + f*a_i (+ e*f for one party).
    uint64_t z0 = t.c_share[0] + e * t.b_share[0] + f * t.a_share[0] + e * f;
    uint64_t z1 = t.c_share[1] + e * t.b_share[1] + f * t.a_share[1];
    EXPECT_EQ(z0 + z1, x * y);
  }
}

}  // namespace
}  // namespace pds2::crypto
