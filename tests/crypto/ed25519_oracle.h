// Test-only reference arithmetic for edwards25519 and Schnorr: the plain
// double-and-add scalar multiplication that serves as the oracle for
// EdPoint's fast paths, the order-2 point, and signing with a chosen nonce
// point, which builds torsion cases that no SigningKey produces.

#ifndef PDS2_TESTS_CRYPTO_ED25519_ORACLE_H_
#define PDS2_TESTS_CRYPTO_ED25519_ORACLE_H_

#include <algorithm>

#include "common/bytes.h"
#include "crypto/bignum.h"
#include "crypto/ed25519.h"
#include "crypto/sha256.h"

namespace pds2::crypto::oracle {

/// Exactly k * p, MSB-first double-and-add over the bits of k.
inline EdPoint DoubleAndAdd(const BigUint& k, const EdPoint& p) {
  EdPoint acc = EdPoint::Identity();
  for (size_t i = k.BitLength(); i-- > 0;) {
    acc = EdPoint::Double(acc);
    if (k.Bit(i)) acc = EdPoint::Add(acc, p);
  }
  return acc;
}

/// -p, by re-encoding with x replaced by p - x.
inline EdPoint Negate(const EdPoint& p) {
  common::Bytes enc = p.Encode();
  common::Bytes x(enc.begin(), enc.begin() + 32);
  x = Fe25519::Sub(Fe25519(), Fe25519::FromBytes(x)).ToBytes();
  std::copy(x.begin(), x.end(), enc.begin());
  return EdPoint::Decode(enc).value();
}

/// T2 = (0, -1), the point of order 2.
inline EdPoint OrderTwoPoint() {
  common::Bytes enc(64, 0);
  enc[32] = 0xec;  // y = p - 1 = 2^255 - 20, little-endian
  for (size_t i = 33; i < 63; ++i) enc[i] = 0xff;
  enc[63] = 0x7f;
  return EdPoint::Decode(enc).value();
}

/// The Schnorr challenge c = SHA-256(R || P || message) mod l.
inline BigUint Challenge(const common::Bytes& r_enc,
                         const common::Bytes& public_key,
                         const common::Bytes& message) {
  common::Bytes input = r_enc;
  common::Append(input, public_key);
  common::Append(input, message);
  return BigUint::FromBytesBE(Sha256::Hash(input)).Mod(EdPoint::GroupOrder());
}

/// Signature R || s over `message` for `public_key`, with the nonce point
/// R = r * B + nonce_offset and s = r + c * secret mod l.
inline common::Bytes SignWithNonce(const BigUint& secret,
                                   const common::Bytes& public_key,
                                   const common::Bytes& message,
                                   const BigUint& r,
                                   const EdPoint& nonce_offset) {
  const BigUint& order = EdPoint::GroupOrder();
  common::Bytes sig =
      EdPoint::Add(EdPoint::ScalarBaseMul(r), nonce_offset).Encode();
  const BigUint c = Challenge(sig, public_key, message);
  const BigUint s = r.Add(BigUint::MulMod(c, secret, order)).Mod(order);
  common::Append(sig, s.ToBytesBEPadded(32).value());
  return sig;
}

}  // namespace pds2::crypto::oracle

#endif  // PDS2_TESTS_CRYPTO_ED25519_ORACLE_H_
