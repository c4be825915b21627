#ifndef PDS2_CRYPTO_ED25519_H_
#define PDS2_CRYPTO_ED25519_H_

#include <array>
#include <cstdint>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/bignum.h"

namespace pds2::crypto {

/// Element of GF(2^255 - 19) in radix-2^51 representation (five 51-bit
/// limbs, curve25519-donna style). Operations keep limbs loosely reduced;
/// ToBytes performs full canonical reduction.
class Fe25519 {
 public:
  /// Zero element.
  Fe25519() : limbs_{0, 0, 0, 0, 0} {}
  /// Small constant.
  static Fe25519 FromU64(uint64_t v);
  /// From 32 little-endian bytes (top bit ignored, per convention).
  static Fe25519 FromBytes(const common::Bytes& b);
  /// Canonical 32 little-endian bytes.
  common::Bytes ToBytes() const;

  static Fe25519 Add(const Fe25519& a, const Fe25519& b);
  static Fe25519 Sub(const Fe25519& a, const Fe25519& b);
  static Fe25519 Mul(const Fe25519& a, const Fe25519& b);
  /// a^2 with 15 limb products instead of Mul's 25; same limbs as Mul(a, a).
  static Fe25519 Square(const Fe25519& a);
  /// Multiplicative inverse x^(p-2) by an addition chain; inverse of 0 is 0.
  static Fe25519 Invert(const Fe25519& a);
  /// x^((p+3)/8), the square-root candidate exponentiation.
  static Fe25519 PowP38(const Fe25519& a);

  bool IsZero() const;
  bool Equals(const Fe25519& other) const;
  /// Least significant bit of the canonical representation ("sign" of x in
  /// Ed25519 conventions).
  bool IsNegative() const;

 private:
  void Carry();
  static Fe25519 CarryWide(unsigned __int128 t0, unsigned __int128 t1,
                           unsigned __int128 t2, unsigned __int128 t3,
                           unsigned __int128 t4);

  std::array<uint64_t, 5> limbs_;
};

/// A point on edwards25519 (-x^2 + y^2 = 1 + d x^2 y^2) in extended
/// homogeneous coordinates (X : Y : Z : T), XY = ZT.
class EdPoint {
 public:
  /// Identity element (0, 1).
  static EdPoint Identity();
  /// The standard base point B (y = 4/5, even x), derived at first use by
  /// square-root recovery — no magic constants.
  static const EdPoint& Base();
  /// Order of the prime-order subgroup, l = 2^252 + 27742...8493.
  static const BigUint& GroupOrder();

  static EdPoint Add(const EdPoint& p, const EdPoint& q);
  static EdPoint Double(const EdPoint& p);
  static EdPoint Negate(const EdPoint& p);
  /// Exactly k * p (k is not reduced mod l, so a torsion component of p
  /// survives), by width-5 wNAF over p, 3p, ..., 15p. Not constant-time:
  /// the simulated adversary model has no timing attacks on the host.
  static EdPoint ScalarMul(const BigUint& k, const EdPoint& p);
  /// k * Base(): 64 signed radix-16 digits of k mod l summed from a table
  /// of 64 x 8 multiples of B (~80 KiB) built at first use.
  static EdPoint ScalarBaseMul(const BigUint& k);
  /// sum_i scalars[i] * points[i] via Pippenger's bucket method — the
  /// workhorse of batch signature verification. Scalars must be < 2^256
  /// and, as in ScalarMul, are not reduced. Sizes must match.
  static EdPoint MultiScalarMul(const std::vector<BigUint>& scalars,
                                const std::vector<EdPoint>& points);

  /// Affine coordinates (x, y), each canonical.
  void ToAffine(Fe25519* x, Fe25519* y) const;
  /// 64-byte encoding: x(32 LE) || y(32 LE).
  common::Bytes Encode() const;
  /// Rejects non-canonical encodings (a coordinate >= p or with bit 255
  /// set) and coordinates that are not on the curve.
  static common::Result<EdPoint> Decode(const common::Bytes& enc);

  bool Equals(const EdPoint& other) const;
  bool IsIdentity() const { return Equals(Identity()); }

  /// True if (x, y) satisfies the curve equation.
  static bool OnCurve(const Fe25519& x, const Fe25519& y);

 private:
  EdPoint() = default;
  static EdPoint FromAffine(const Fe25519& x, const Fe25519& y);

  Fe25519 x_, y_, z_, t_;
};

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_ED25519_H_
