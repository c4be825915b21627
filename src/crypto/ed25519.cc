#include "crypto/ed25519.h"

#include <cassert>
#include <cstdlib>
#include <cstring>

namespace pds2::crypto {

using common::Bytes;
using common::Result;
using common::Status;

namespace {

using u128 = unsigned __int128;

constexpr uint64_t kMask51 = (uint64_t{1} << 51) - 1;

// 2*p in radix-2^51, added before subtraction to keep limbs non-negative.
constexpr uint64_t kTwoP0 = 0xfffffffffffdaULL;  // 2*(2^51 - 19)
constexpr uint64_t kTwoPn = 0xffffffffffffeULL;  // 2*(2^51 - 1)

}  // namespace

// Every limb keeps its low 51 bits plus the carry of the limb below; the top
// carry folds back with factor 19 (2^255 = 19 mod p). Scalar arguments, not
// a loop over limbs_: GCC vectorizes such a loop into overlapping stores
// and loads that stall on store forwarding.
Fe25519 Fe25519::WeakReduce(uint64_t l0, uint64_t l1, uint64_t l2, uint64_t l3,
                            uint64_t l4) {
  Fe25519 out;
  out.limbs_ = {(l0 & kMask51) + 19 * (l4 >> 51), (l1 & kMask51) + (l0 >> 51),
                (l2 & kMask51) + (l1 >> 51), (l3 & kMask51) + (l2 >> 51),
                (l4 & kMask51) + (l3 >> 51)};
  return out;
}

Fe25519 Fe25519::FromU64(uint64_t v) {
  Fe25519 out;
  out.limbs_[0] = v & kMask51;
  out.limbs_[1] = v >> 51;
  return out;
}

Fe25519 Fe25519::FromLimbs(const std::array<uint64_t, 5>& limbs) {
  Fe25519 out;
  out.limbs_ = limbs;
  return out;
}

Fe25519 Fe25519::FromBytes(const Bytes& b) {
  assert(b.size() >= 32);
  auto load64 = [&](size_t off) {
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(b[off + i]) << (8 * i);
    return v;
  };
  Fe25519 out;
  out.limbs_[0] = load64(0) & kMask51;
  out.limbs_[1] = (load64(6) >> 3) & kMask51;
  out.limbs_[2] = (load64(12) >> 6) & kMask51;
  out.limbs_[3] = (load64(19) >> 1) & kMask51;
  out.limbs_[4] = (load64(24) >> 12) & kMask51;
  return out;
}

std::array<uint64_t, 4> Fe25519::Canonical() const {
  // After one carry pass the value v is below 2p, so v mod p = v - q*p with
  // q = 1 exactly when v + 19 carries out of bit 255.
  const auto& in = limbs_;
  auto l = WeakReduce(in[0], in[1], in[2], in[3], in[4]).limbs_;
  uint64_t q = (l[0] + 19) >> 51;
  for (int i = 1; i < 5; ++i) q = (l[i] + q) >> 51;
  l[0] += 19 * q;
  for (int i = 0; i < 4; ++i) {
    l[i + 1] += l[i] >> 51;
    l[i] &= kMask51;
  }
  l[4] &= kMask51;  // drops q * 2^255
  return {l[0] | (l[1] << 51), (l[1] >> 13) | (l[2] << 38),
          (l[2] >> 26) | (l[3] << 25), (l[3] >> 39) | (l[4] << 12)};
}

Bytes Fe25519::ToBytes() const {
  const std::array<uint64_t, 4> words = Canonical();
  Bytes out(32);
  for (size_t i = 0; i < 32; ++i) {
    out[i] = static_cast<uint8_t>(words[i / 8] >> (8 * (i % 8)));
  }
  return out;
}

Fe25519 Fe25519::Add(const Fe25519& a, const Fe25519& b) {
  const auto &x = a.limbs_, &y = b.limbs_;
  return WeakReduce(x[0] + y[0], x[1] + y[1], x[2] + y[2], x[3] + y[3],
                    x[4] + y[4]);
}

Fe25519 Fe25519::Sub(const Fe25519& a, const Fe25519& b) {
  const auto &x = a.limbs_, &y = b.limbs_;
  return WeakReduce(x[0] + kTwoP0 - y[0], x[1] + kTwoPn - y[1],
                    x[2] + kTwoPn - y[2], x[3] + kTwoPn - y[3],
                    x[4] + kTwoPn - y[4]);
}

Fe25519 Fe25519::Mul(const Fe25519& f, const Fe25519& g) {
  const uint64_t* a = f.limbs_.data();
  const uint64_t* b = g.limbs_.data();

  // Terms with index >= 5 wrap with factor 19.
  const uint64_t b1_19 = b[1] * 19;
  const uint64_t b2_19 = b[2] * 19;
  const uint64_t b3_19 = b[3] * 19;
  const uint64_t b4_19 = b[4] * 19;

  u128 t0 = static_cast<u128>(a[0]) * b[0] + static_cast<u128>(a[1]) * b4_19 +
            static_cast<u128>(a[2]) * b3_19 + static_cast<u128>(a[3]) * b2_19 +
            static_cast<u128>(a[4]) * b1_19;
  u128 t1 = static_cast<u128>(a[0]) * b[1] + static_cast<u128>(a[1]) * b[0] +
            static_cast<u128>(a[2]) * b4_19 + static_cast<u128>(a[3]) * b3_19 +
            static_cast<u128>(a[4]) * b2_19;
  u128 t2 = static_cast<u128>(a[0]) * b[2] + static_cast<u128>(a[1]) * b[1] +
            static_cast<u128>(a[2]) * b[0] + static_cast<u128>(a[3]) * b4_19 +
            static_cast<u128>(a[4]) * b3_19;
  u128 t3 = static_cast<u128>(a[0]) * b[3] + static_cast<u128>(a[1]) * b[2] +
            static_cast<u128>(a[2]) * b[1] + static_cast<u128>(a[3]) * b[0] +
            static_cast<u128>(a[4]) * b4_19;
  u128 t4 = static_cast<u128>(a[0]) * b[4] + static_cast<u128>(a[1]) * b[3] +
            static_cast<u128>(a[2]) * b[2] + static_cast<u128>(a[3]) * b[1] +
            static_cast<u128>(a[4]) * b[0];

  return CarryWide(t0, t1, t2, t3, t4);
}

// The curve25519-donna fsquare shape: each cross term once, doubled. The
// five column sums are the integers Mul(a, a) forms, so the limbs match.
Fe25519 Fe25519::Square(const Fe25519& f) {
  const uint64_t* a = f.limbs_.data();
  const uint64_t a0_2 = a[0] * 2;
  const uint64_t a1_2 = a[1] * 2;
  const uint64_t a2_38 = a[2] * 38;
  const uint64_t a3_19 = a[3] * 19;
  const uint64_t a4_19 = a[4] * 19;
  const uint64_t a4_38 = a4_19 * 2;

  const u128 t0 = static_cast<u128>(a[0]) * a[0] +
                  static_cast<u128>(a4_38) * a[1] +
                  static_cast<u128>(a2_38) * a[3];
  const u128 t1 = static_cast<u128>(a0_2) * a[1] +
                  static_cast<u128>(a4_38) * a[2] +
                  static_cast<u128>(a3_19) * a[3];
  const u128 t2 = static_cast<u128>(a0_2) * a[2] +
                  static_cast<u128>(a[1]) * a[1] +
                  static_cast<u128>(a4_38) * a[3];
  const u128 t3 = static_cast<u128>(a0_2) * a[3] +
                  static_cast<u128>(a1_2) * a[2] +
                  static_cast<u128>(a4_19) * a[4];
  const u128 t4 = static_cast<u128>(a0_2) * a[4] +
                  static_cast<u128>(a1_2) * a[3] +
                  static_cast<u128>(a[2]) * a[2];
  return CarryWide(t0, t1, t2, t3, t4);
}

// Carry chain over the 128-bit column sums of a product.
Fe25519 Fe25519::CarryWide(u128 t0, u128 t1, u128 t2, u128 t3, u128 t4) {
  Fe25519 out;
  uint64_t carry;
  out.limbs_[0] = static_cast<uint64_t>(t0) & kMask51;
  carry = static_cast<uint64_t>(t0 >> 51);
  t1 += carry;
  out.limbs_[1] = static_cast<uint64_t>(t1) & kMask51;
  carry = static_cast<uint64_t>(t1 >> 51);
  t2 += carry;
  out.limbs_[2] = static_cast<uint64_t>(t2) & kMask51;
  carry = static_cast<uint64_t>(t2 >> 51);
  t3 += carry;
  out.limbs_[3] = static_cast<uint64_t>(t3) & kMask51;
  carry = static_cast<uint64_t>(t3 >> 51);
  t4 += carry;
  out.limbs_[4] = static_cast<uint64_t>(t4) & kMask51;
  carry = static_cast<uint64_t>(t4 >> 51);
  out.limbs_[0] += carry * 19;
  out.limbs_[1] += out.limbs_[0] >> 51;  // every limb now < 2^52
  out.limbs_[0] &= kMask51;
  return out;
}

namespace {

// base^e by MSB-first square-and-multiply, for e with the little-endian
// bytes lo, ff x 30, hi — the shape of every fixed exponent here.
Fe25519 PowBytesLe(const Fe25519& base, uint8_t lo, uint8_t hi) {
  uint8_t exp_le[32];
  exp_le[0] = lo;
  std::memset(exp_le + 1, 0xff, 30);
  exp_le[31] = hi;
  Fe25519 result = Fe25519::FromU64(1);
  for (int i = 255; i >= 0; --i) {
    result = Fe25519::Square(result);
    if ((exp_le[i / 8] >> (i % 8)) & 1) result = Fe25519::Mul(result, base);
  }
  return result;
}

// a^(2^n).
Fe25519 SquareTimes(Fe25519 a, int n) {
  for (int i = 0; i < n; ++i) a = Fe25519::Square(a);
  return a;
}

}  // namespace

Fe25519 Fe25519::Invert(const Fe25519& a) {
  // a^(p-2), p - 2 = 2^255 - 21, by the standard addition chain: 254
  // squarings and 11 multiplications. aM_N names a^(2^M - 2^N).
  const Fe25519 a2 = Square(a);
  const Fe25519 a9 = Mul(SquareTimes(a2, 2), a);
  const Fe25519 a11 = Mul(a9, a2);
  const Fe25519 a5_0 = Mul(Square(a11), a9);
  const Fe25519 a10_0 = Mul(SquareTimes(a5_0, 5), a5_0);
  const Fe25519 a20_0 = Mul(SquareTimes(a10_0, 10), a10_0);
  const Fe25519 a40_0 = Mul(SquareTimes(a20_0, 20), a20_0);
  const Fe25519 a50_0 = Mul(SquareTimes(a40_0, 10), a10_0);
  const Fe25519 a100_0 = Mul(SquareTimes(a50_0, 50), a50_0);
  const Fe25519 a200_0 = Mul(SquareTimes(a100_0, 100), a100_0);
  const Fe25519 a250_0 = Mul(SquareTimes(a200_0, 50), a50_0);
  // (2^250 - 1) * 2^5 + 11 = 2^255 - 21.
  return Mul(SquareTimes(a250_0, 5), a11);
}

Fe25519 Fe25519::PowP38(const Fe25519& a) {
  return PowBytesLe(a, 0xfe, 0x0f);  // (p + 3) / 8 = 2^252 - 2
}

bool Fe25519::IsZero() const {
  return Canonical() == std::array<uint64_t, 4>{};
}

bool Fe25519::Equals(const Fe25519& other) const {
  return Canonical() == other.Canonical();
}

bool Fe25519::IsNegative() const { return Canonical()[0] & 1; }

// ---------------------------------------------------------------------------
// Curve constants, computed once.

namespace {

struct CurveConstants {
  Fe25519 d;        // -121665 / 121666
  Fe25519 d2;       // 2 * d
  Fe25519 sqrt_m1;  // sqrt(-1) = 2^((p-1)/4)
};

const CurveConstants& Constants() {
  static const CurveConstants* consts = [] {
    auto* c = new CurveConstants();
    const Fe25519 num = Fe25519::Sub(Fe25519(), Fe25519::FromU64(121665));
    const Fe25519 den_inv = Fe25519::Invert(Fe25519::FromU64(121666));
    c->d = Fe25519::Mul(num, den_inv);
    c->d2 = Fe25519::Add(c->d, c->d);
    // sqrt(-1) = 2^((p-1)/4), (p - 1) / 4 = 2^253 - 5.
    c->sqrt_m1 = PowBytesLe(Fe25519::FromU64(2), 0xfb, 0x1f);
    return c;
  }();
  return *consts;
}

}  // namespace

bool EdPoint::OnCurve(const Fe25519& x, const Fe25519& y) {
  // -x^2 + y^2 == 1 + d x^2 y^2
  const Fe25519 xx = Fe25519::Square(x);
  const Fe25519 yy = Fe25519::Square(y);
  const Fe25519 lhs = Fe25519::Sub(yy, xx);
  const Fe25519 dxxyy = Fe25519::Mul(Constants().d, Fe25519::Mul(xx, yy));
  const Fe25519 rhs = Fe25519::Add(Fe25519::FromU64(1), dxxyy);
  return lhs.Equals(rhs);
}

EdPoint EdPoint::FromAffine(const Fe25519& x, const Fe25519& y) {
  EdPoint p;
  p.x_ = x;
  p.y_ = y;
  p.z_ = Fe25519::FromU64(1);
  p.t_ = Fe25519::Mul(x, y);
  return p;
}

EdPoint EdPoint::Identity() {
  return FromAffine(Fe25519(), Fe25519::FromU64(1));
}

const EdPoint& EdPoint::Base() {
  static const EdPoint* base = [] {
    // y = 4/5; recover even x from the curve equation.
    const Fe25519 y =
        Fe25519::Mul(Fe25519::FromU64(4), Fe25519::Invert(Fe25519::FromU64(5)));
    const Fe25519 yy = Fe25519::Square(y);
    const Fe25519 u = Fe25519::Sub(yy, Fe25519::FromU64(1));  // y^2 - 1
    const Fe25519 v =
        Fe25519::Add(Fe25519::Mul(Constants().d, yy), Fe25519::FromU64(1));
    // Candidate root of u/v: (u/v)^((p+3)/8).
    const Fe25519 uv = Fe25519::Mul(u, Fe25519::Invert(v));
    Fe25519 x = Fe25519::PowP38(uv);
    if (!Fe25519::Square(x).Equals(uv)) {
      x = Fe25519::Mul(x, Constants().sqrt_m1);
    }
    assert(Fe25519::Square(x).Equals(uv));
    if (x.IsNegative()) x = Fe25519::Sub(Fe25519(), x);  // pick even root
    assert(OnCurve(x, y));
    return new EdPoint(FromAffine(x, y));
  }();
  return *base;
}

const BigUint& EdPoint::GroupOrder() {
  static const BigUint* order = [] {
    auto r = BigUint::FromDecimal(
        "7237005577332262213973186563042994240857116359379907606001950938285"
        "454250989");  // 2^252 + 27742317777372353535851937790883648493
    assert(r.ok());
    return new BigUint(std::move(r).value());
  }();
  return *order;
}

// ---------------------------------------------------------------------------
// Point arithmetic in the ref10 layout. An addition or a doubling yields a
// completed point ((E : G), (H : F)), x = E/G and y = H/F. Converting it to
// extended coordinates costs four multiplications; to projective (X : Y : Z),
// all a following doubling reads, three. So a chain of doublings skips T and
// forms it only before an addition.

struct EdPoint::Completed {
  Fe25519 e, f, g, h;

  // T is left zero: the result only feeds DoubleCompleted or IsIdentity.
  EdPoint Projective() const {
    EdPoint out;
    out.x_ = Fe25519::Mul(e, f);
    out.y_ = Fe25519::Mul(g, h);
    out.z_ = Fe25519::Mul(f, g);
    return out;
  }
  EdPoint Extended() const {
    EdPoint out = Projective();
    out.t_ = Fe25519::Mul(e, h);
    return out;
  }
};

EdPoint::Completed EdPoint::DoubleCompleted(const EdPoint& p) {
  using F = Fe25519;
  const F a = F::Square(p.x_);
  const F b = F::Square(p.y_);
  const F zz = F::Square(p.z_);
  const F h = F::Add(a, b);
  const F g = F::Sub(a, b);
  return {F::Sub(h, F::Square(F::Add(p.x_, p.y_))), F::Add(F::Add(zz, zz), g),
          g, h};
}

// RFC 8032 extended-coordinates addition (a = -1) with q's sums, doubled Z
// and 2d*T precomputed. Negating q swaps Y+X with Y-X and the sign of T.
EdPoint::Completed EdPoint::AddCompleted(const EdPoint& p, const Cached& q,
                                         bool negate_q) {
  using F = Fe25519;
  const F a = F::Mul(F::Sub(p.y_, p.x_), negate_q ? q.y_plus_x : q.y_minus_x);
  const F b = F::Mul(F::Add(p.y_, p.x_), negate_q ? q.y_minus_x : q.y_plus_x);
  const F c = F::Mul(p.t_, q.t2d);
  const F d = F::Mul(p.z_, q.z2);
  const F d_minus_c = F::Sub(d, c), d_plus_c = F::Add(d, c);
  return {F::Sub(b, a), negate_q ? d_plus_c : d_minus_c,
          negate_q ? d_minus_c : d_plus_c, F::Add(b, a)};
}

EdPoint::Cached EdPoint::ToCached() const {
  return {Fe25519::Add(y_, x_), Fe25519::Sub(y_, x_), Fe25519::Add(z_, z_),
          Fe25519::Mul(t_, Constants().d2)};
}

EdPoint EdPoint::Add(const EdPoint& p, const Cached& q, bool negate_q) {
  return AddCompleted(p, q, negate_q).Extended();
}

EdPoint EdPoint::Add(const EdPoint& p, const EdPoint& q) {
  return Add(p, q.ToCached());
}

EdPoint EdPoint::Double(const EdPoint& p) {
  return DoubleCompleted(p).Extended();
}

EdPoint EdPoint::DoubleTimes(const EdPoint& p, int n) {
  Completed acc = DoubleCompleted(p);
  for (int i = 1; i < n; ++i) acc = DoubleCompleted(acc.Projective());
  return acc.Extended();
}

namespace {

using Naf = std::array<int8_t, 257>;

// Width-w NAF of k < 2^256, read from its limbs: each nonzero digit is odd
// with |d| < 2^(w-1), and a nonzero digit is followed by at least w - 1
// zeros.
Naf Wnaf(const BigUint& k, int w) {
  const std::vector<uint64_t>& limbs = k.limbs();
  assert(limbs.size() <= 4 && "scalar exceeds 256 bits");
  auto bits_at = [&](size_t pos) {
    const size_t i = pos / 64, off = pos % 64;
    uint64_t v = i < limbs.size() ? limbs[i] >> off : 0;
    if (off + w > 64 && i + 1 < limbs.size()) v |= limbs[i + 1] << (64 - off);
    return static_cast<int>(v & ((uint64_t{1} << w) - 1));
  };
  Naf naf{};
  int carry = 0;
  for (size_t pos = 0; pos < naf.size();) {
    const int window = bits_at(pos) + carry;
    if ((window & 1) == 0) {
      ++pos;
      continue;
    }
    carry = window >> (w - 1);
    naf[pos] = static_cast<int8_t>(window - (carry << w));
    pos += w;
  }
  return naf;
}

// odd[j] = (2j + 1) * p.
template <size_t N>
std::array<EdPoint::Cached, N> OddMultiples(const EdPoint& p) {
  std::array<EdPoint::Cached, N> odd;
  const EdPoint::Cached p2 = EdPoint::Double(p).ToCached();
  EdPoint cur = p;
  odd[0] = cur.ToCached();
  for (size_t j = 1; j < N; ++j) {
    cur = EdPoint::Add(cur, p2);
    odd[j] = cur.ToCached();
  }
  return odd;
}

}  // namespace

// sum over the terms of (+-) naf * p, by one chain of doublings that all
// terms share (Straus).
EdPoint EdPoint::Straus(std::initializer_list<WnafTerm> terms) {
  size_t top = Naf().size();
  auto any_digit = [&](size_t pos) {
    for (const WnafTerm& t : terms) {
      if ((*t.naf)[pos] != 0) return true;
    }
    return false;
  };
  while (top > 0 && !any_digit(top - 1)) --top;
  EdPoint acc = Identity();
  for (size_t pos = top; pos-- > 0;) {
    Completed sum = DoubleCompleted(acc);
    for (const WnafTerm& t : terms) {
      const int d = (*t.naf)[pos];
      if (d == 0) continue;
      sum = AddCompleted(sum.Extended(), t.odd[std::abs(d) / 2],
                         (d < 0) != t.negate);
    }
    acc = pos == 0 ? sum.Extended() : sum.Projective();
  }
  return acc;
}

EdPoint EdPoint::ScalarMul(const BigUint& k, const EdPoint& p) {
  const std::array<Cached, 8> odd = OddMultiples<8>(p);
  const Naf naf = Wnaf(k, 5);
  return Straus({{&naf, odd.data(), false}});
}

EdPoint EdPoint::MulBaseSub(const BigUint& s, const BigUint& c,
                            const EdPoint& p) {
  static const auto* base_odd =
      new std::array<Cached, 64>(OddMultiples<64>(Base()));
  const std::array<Cached, 8> p_odd = OddMultiples<8>(p);
  const Naf s_naf = Wnaf(s, 8);
  const Naf c_naf = Wnaf(c, 5);
  return Straus({{&s_naf, base_odd->data(), false},
                 {&c_naf, p_odd.data(), true}});
}

EdPoint EdPoint::ScalarBaseMul(const BigUint& k) {
  // table[8i + j] = (j + 1) * 256^i * B, built at first use from Base().
  static const auto* table = [] {
    auto* t = new std::array<Cached, 32 * 8>;
    EdPoint row_base = Base();
    for (size_t i = 0; i < 32; ++i) {
      const Cached row_step = row_base.ToCached();
      EdPoint cur = row_base;
      for (size_t j = 0; j < 8; ++j) {
        (*t)[8 * i + j] = cur.ToCached();
        cur = Add(cur, row_step);
      }
      row_base = DoubleTimes(row_base, 8);
    }
    return t;
  }();

  // Signed radix-16 digits e[i] in [-8, 8) of k mod l < 2^253, so that
  // k * B = sum_i e[i] * 16^i * B.
  const BigUint r = k.Mod(GroupOrder());
  std::array<int, 64> e{};
  for (size_t i = 0; i < 16 * r.limbs().size(); ++i) {
    e[i] = static_cast<int>((r.limbs()[i / 16] >> (4 * (i % 16))) & 15);
  }
  for (size_t i = 0; i < 63; ++i) {
    const int carry = (e[i] + 8) >> 4;
    e[i] -= carry << 4;
    e[i + 1] += carry;
  }

  // 16 * sum_odd i e[i] * 256^((i-1)/2) * B + sum_even i e[i] * 256^(i/2) * B.
  EdPoint acc = Identity();
  auto add_digits = [&](size_t first) {
    for (size_t i = first; i < 64; i += 2) {
      if (e[i] == 0) continue;
      acc = Add(acc, (*table)[8 * (i / 2) + std::abs(e[i]) - 1], e[i] < 0);
    }
  };
  add_digits(1);
  acc = DoubleTimes(acc, 4);
  add_digits(0);
  return acc;
}

EdPoint EdPoint::MultiScalarMul(const std::vector<BigUint>& scalars,
                                const std::vector<EdPoint>& points) {
  assert(scalars.size() == points.size());
  const size_t n = scalars.size();
  if (n == 0) return Identity();

  // Fixed-width little-endian limbs for cheap window extraction; each point
  // is added once per window, so it is cached once up front.
  size_t max_bits = 0;
  std::vector<std::array<uint64_t, 4>> limbs(n, {0, 0, 0, 0});
  std::vector<Cached> cached;
  cached.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const auto& sl = scalars[i].limbs();
    assert(sl.size() <= 4 && "scalar exceeds 256 bits");
    for (size_t j = 0; j < sl.size() && j < 4; ++j) limbs[i][j] = sl[j];
    if (scalars[i].BitLength() > max_bits) max_bits = scalars[i].BitLength();
    cached.push_back(points[i].ToCached());
  }
  if (max_bits == 0) return Identity();

  // Window width c balances the per-window bucket walk (2^c additions)
  // against the per-point additions (n per window): pick 2^(c+1) ~ n.
  size_t c = 4;
  while (c < 12 && (size_t{1} << (c + 1)) < n) ++c;
  const uint64_t digit_mask = (uint64_t{1} << c) - 1;

  auto window_digit = [&](size_t i, size_t bit) -> uint64_t {
    const size_t limb = bit / 64, off = bit % 64;
    uint64_t d = limbs[i][limb] >> off;
    if (off + c > 64 && limb + 1 < 4) d |= limbs[i][limb + 1] << (64 - off);
    return d & digit_mask;
  };

  const size_t num_windows = (max_bits + c - 1) / c;
  std::vector<EdPoint> buckets(size_t{1} << c, Identity());
  std::vector<bool> used(buckets.size(), false);
  EdPoint result = Identity();
  for (size_t w = num_windows; w-- > 0;) {
    result = DoubleTimes(result, static_cast<int>(c));
    std::fill(used.begin(), used.end(), false);
    for (size_t i = 0; i < n; ++i) {
      const uint64_t d = window_digit(i, w * c);
      if (d == 0) continue;
      buckets[d] = used[d] ? Add(buckets[d], cached[i]) : points[i];
      used[d] = true;
    }
    // sum_b b * bucket[b] through suffix sums: running accumulates the
    // buckets from the top, so adding it once per step weights bucket b by
    // exactly b.
    EdPoint running = Identity();
    EdPoint window_sum = Identity();
    bool any = false;
    for (size_t b = buckets.size(); b-- > 1;) {
      if (used[b]) {
        running = any ? Add(running, buckets[b]) : buckets[b];
        any = true;
      }
      if (any) window_sum = Add(window_sum, running);
    }
    if (any) result = Add(result, window_sum);
  }
  return result;
}

void EdPoint::ToAffine(Fe25519* x, Fe25519* y) const {
  const Fe25519 z_inv = Fe25519::Invert(z_);
  *x = Fe25519::Mul(x_, z_inv);
  *y = Fe25519::Mul(y_, z_inv);
}

Bytes EdPoint::Encode() const {
  Fe25519 x, y;
  ToAffine(&x, &y);
  Bytes out = x.ToBytes();
  Bytes yb = y.ToBytes();
  out.insert(out.end(), yb.begin(), yb.end());
  return out;
}

Result<EdPoint> EdPoint::Decode(const Bytes& enc) {
  if (enc.size() != 64) {
    return Status::InvalidArgument("point encoding must be 64 bytes");
  }
  Bytes xb(enc.begin(), enc.begin() + 32);
  Bytes yb(enc.begin() + 32, enc.end());
  const Fe25519 x = Fe25519::FromBytes(xb);
  const Fe25519 y = Fe25519::FromBytes(yb);
  // FromBytes drops bit 255 and accepts values >= p; re-encoding catches
  // both, so each point has exactly one accepted encoding.
  if (x.ToBytes() != xb || y.ToBytes() != yb) {
    return Status::InvalidArgument("non-canonical point encoding");
  }
  if (!OnCurve(x, y)) {
    return Status::InvalidArgument("encoded point not on curve");
  }
  return FromAffine(x, y);
}

bool EdPoint::IsIdentity() const {
  return x_.IsZero() && Fe25519::Sub(y_, z_).IsZero();
}

bool EdPoint::HasSmallOrder() const {
  return DoubleTimes(*this, 3).IsIdentity();
}

bool EdPoint::Equals(const EdPoint& other) const {
  // Cross-multiply to avoid inversions: X1*Z2 == X2*Z1 and same for Y.
  const Fe25519 lhs_x = Fe25519::Mul(x_, other.z_);
  const Fe25519 rhs_x = Fe25519::Mul(other.x_, z_);
  const Fe25519 lhs_y = Fe25519::Mul(y_, other.z_);
  const Fe25519 rhs_y = Fe25519::Mul(other.y_, z_);
  return lhs_x.Equals(rhs_x) && lhs_y.Equals(rhs_y);
}

}  // namespace pds2::crypto
