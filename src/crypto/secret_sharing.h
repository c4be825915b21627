#ifndef PDS2_CRYPTO_SECRET_SHARING_H_
#define PDS2_CRYPTO_SECRET_SHARING_H_

#include <cstdint>
#include <vector>

#include "common/rng.h"

namespace pds2::crypto {

// ---------------------------------------------------------------------------
// Additive secret sharing over Z_{2^64}.
//
// The SMC backend of experiment E1: values are split into n shares that sum
// (mod 2^64) to the secret; linear operations run share-wise, and
// multiplications use Beaver triples from a trusted dealer (the "untrusted
// third party" of Falcon-style protocols).

/// Splits `secret` into `n` additive shares.
std::vector<uint64_t> AdditiveShare(uint64_t secret, size_t n,
                                    common::Rng& rng);

/// A multiplication triple a*b = c, secret-shared between two parties.
struct BeaverTriple {
  uint64_t a_share[2];
  uint64_t b_share[2];
  uint64_t c_share[2];
};

/// Dealer-generated Beaver triple for a 2-party multiplication.
BeaverTriple MakeBeaverTriple(common::Rng& rng);

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_SECRET_SHARING_H_
