#ifndef PDS2_CRYPTO_ED25519_H_
#define PDS2_CRYPTO_ED25519_H_

#include <array>
#include <cstdint>
#include <initializer_list>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/bignum.h"

namespace pds2::crypto {

/// Element of GF(2^255 - 19) in radix-2^51 representation (five 51-bit
/// limbs, curve25519-donna style). Limbs stay loosely reduced, with the
/// bounds each operation states; only the canonical forms (ToBytes, IsZero,
/// Equals, IsNegative) reduce fully.
class Fe25519 {
 public:
  /// Zero element.
  Fe25519() : limbs_{0, 0, 0, 0, 0} {}
  /// Small constant.
  static Fe25519 FromU64(uint64_t v);
  /// From 32 little-endian bytes (top bit ignored, per convention); limbs
  /// < 2^51.
  static Fe25519 FromBytes(const common::Bytes& b);
  /// The value sum_i limbs[i] * 2^(51 i), limbs as given (tests probe the
  /// bounds with it).
  static Fe25519 FromLimbs(const std::array<uint64_t, 5>& limbs);
  const std::array<uint64_t, 5>& limbs() const { return limbs_; }
  /// Canonical 32 little-endian bytes. Accepts any limbs.
  common::Bytes ToBytes() const;

  /// Limbs < 2^63 in; < 2^51 + 2^18 out (one carry pass).
  static Fe25519 Add(const Fe25519& a, const Fe25519& b);
  /// a - b as a + 2p - b: limbs of a < 2^63, of b at most those of 2p
  /// (2^52 - 38, then 2^52 - 2); < 2^51 + 2^18 out.
  static Fe25519 Sub(const Fe25519& a, const Fe25519& b);
  /// Limbs < 2^54 in; < 2^51 + 2^13 out.
  static Fe25519 Mul(const Fe25519& a, const Fe25519& b);
  /// a^2 with 15 limb products instead of Mul's 25; same limbs as Mul(a, a)
  /// and the same bounds.
  static Fe25519 Square(const Fe25519& a);
  /// Multiplicative inverse x^(p-2) by an addition chain; inverse of 0 is 0.
  static Fe25519 Invert(const Fe25519& a);
  /// x^((p+3)/8), the square-root candidate exponentiation.
  static Fe25519 PowP38(const Fe25519& a);

  /// Any limbs.
  bool IsZero() const;
  bool Equals(const Fe25519& other) const;
  /// Least significant bit of the canonical representation ("sign" of x in
  /// Ed25519 conventions).
  bool IsNegative() const;

 private:
  /// One carry pass over all limbs at once; any limbs in, < 2^51 + 2^18 out.
  static Fe25519 WeakReduce(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3,
                            uint64_t l4);
  /// The canonical value as four little-endian 64-bit words.
  std::array<uint64_t, 4> Canonical() const;
  static Fe25519 CarryWide(unsigned __int128 t0, unsigned __int128 t1,
                           unsigned __int128 t2, unsigned __int128 t3,
                           unsigned __int128 t4);

  std::array<uint64_t, 5> limbs_;
};

/// A point on edwards25519 (-x^2 + y^2 = 1 + d x^2 y^2) in extended
/// homogeneous coordinates (X : Y : Z : T), XY = ZT.
class EdPoint {
 public:
  /// A point prepared as an addend: (Y+X, Y-X, 2Z, 2d*T). Adding it costs
  /// one multiplication less than adding an extended point, and negating it
  /// swaps Y+X with Y-X and the sign of 2d*T. Every precomputed table holds
  /// this form.
  struct Cached {
    Fe25519 y_plus_x, y_minus_x, z2, t2d;
  };

  /// Identity element (0, 1).
  static EdPoint Identity();
  /// The standard base point B (y = 4/5, even x), derived at first use by
  /// square-root recovery — no magic constants.
  static const EdPoint& Base();
  /// Order of the prime-order subgroup, l = 2^252 + 27742...8493.
  static const BigUint& GroupOrder();

  Cached ToCached() const;
  static EdPoint Add(const EdPoint& p, const EdPoint& q);
  /// p + q, or p - q when `negate_q`.
  static EdPoint Add(const EdPoint& p, const Cached& q, bool negate_q = false);
  static EdPoint Double(const EdPoint& p);
  /// Exactly k * p (k < 2^256 is not reduced mod l, so a torsion component
  /// of p survives), by width-5 wNAF over p, 3p, ..., 15p. Not
  /// constant-time: the simulated adversary model has no timing attacks on
  /// the host.
  static EdPoint ScalarMul(const BigUint& k, const EdPoint& p);
  /// k * Base(): 64 signed radix-16 digits of k mod l, the odd-indexed ones
  /// summed, times 16, plus the even-indexed ones, from a table of 32 x 8
  /// multiples of B (40 KiB) built at first use.
  static EdPoint ScalarBaseMul(const BigUint& k);
  /// s * Base() - c * p (s, c < 2^256, unreduced) in one Straus pass with
  /// shared doublings: width-8 wNAF of s over a static table of B, 3B, ...,
  /// 127B (10 KiB) and width-5 wNAF of c over p, 3p, ..., 15p. The
  /// signature check's kernel.
  static EdPoint MulBaseSub(const BigUint& s, const BigUint& c,
                            const EdPoint& p);
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
  /// X = 0 and Y = Z, without an inversion.
  bool IsIdentity() const;
  /// [8]p == O: p lies in the torsion subgroup (order 1, 2, 4 or 8).
  bool HasSmallOrder() const;

  /// True if (x, y) satisfies the curve equation.
  static bool OnCurve(const Fe25519& x, const Fe25519& y);

 private:
  struct Completed;
  /// A width-w NAF of a scalar with the odd multiples its digits index.
  struct WnafTerm {
    const std::array<int8_t, 257>* naf;
    const Cached* odd;
    bool negate;
  };

  EdPoint() = default;
  static EdPoint FromAffine(const Fe25519& x, const Fe25519& y);
  /// 2p, reading X, Y and Z only.
  static Completed DoubleCompleted(const EdPoint& p);
  static Completed AddCompleted(const EdPoint& p, const Cached& q,
                                bool negate_q);
  /// 2^n p (n >= 1) through projective doublings.
  static EdPoint DoubleTimes(const EdPoint& p, int n);
  static EdPoint Straus(std::initializer_list<WnafTerm> terms);

  Fe25519 x_, y_, z_, t_;
};

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_ED25519_H_
