#include "crypto/secret_sharing.h"

namespace pds2::crypto {

std::vector<uint64_t> AdditiveShare(uint64_t secret, size_t n,
                                    common::Rng& rng) {
  std::vector<uint64_t> shares(n);
  uint64_t sum = 0;
  for (size_t i = 0; i + 1 < n; ++i) {
    shares[i] = rng.NextU64();
    sum += shares[i];
  }
  if (n > 0) shares[n - 1] = secret - sum;  // wraps mod 2^64 by design
  return shares;
}

BeaverTriple MakeBeaverTriple(common::Rng& rng) {
  BeaverTriple t;
  const uint64_t a = rng.NextU64();
  const uint64_t b = rng.NextU64();
  const uint64_t c = a * b;  // mod 2^64
  auto split = [&rng](uint64_t v, uint64_t out[2]) {
    out[0] = rng.NextU64();
    out[1] = v - out[0];
  };
  split(a, t.a_share);
  split(b, t.b_share);
  split(c, t.c_share);
  return t;
}

}  // namespace pds2::crypto
