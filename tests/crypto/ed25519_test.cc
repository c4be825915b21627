// Differential test of EdPoint's fast paths (fixed-base table, wNAF, the
// joint s*B - c*P pass, cached additions, Pippenger), of the addition-chain
// inversion and of the dedicated field squaring against the plain
// double-and-add, Fermat and Mul(a, a) oracles, compared by canonical
// encoding over random and edge-case inputs and over points with torsion
// components; and of every field operation at the loosest limb bound it
// accepts against BigUint arithmetic mod p.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <vector>

#include "common/rng.h"
#include "crypto/ed25519.h"
#include "ed25519_oracle.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::Rng;
using oracle::DoubleAndAdd;

BigUint Hex(const std::string& hex) { return BigUint::FromHex(hex).value(); }

// a^e by square-and-multiply over the bits of e. Squares through Mul, so
// it stays an oracle for Fe25519::Square as well.
Fe25519 Pow(const Fe25519& a, const BigUint& e) {
  Fe25519 result = Fe25519::FromU64(1);
  for (size_t i = e.BitLength(); i-- > 0;) {
    result = Fe25519::Mul(result, result);
    if (e.Bit(i)) result = Fe25519::Mul(result, a);
  }
  return result;
}

// The Fermat inverse a^(p-2), p = 2^255 - 19.
Fe25519 FermatInvert(const Fe25519& a) {
  return Pow(a, Hex("7fffffffffffffffffffffffffffffff"
                    "ffffffffffffffffffffffffffffffeb"));
}

// (sqrt(-1), 0), a point of order 4; sqrt(-1) = 2^((p-1)/4).
EdPoint OrderFourPoint() {
  const Fe25519 sqrt_m1 = Pow(Fe25519::FromU64(2),
                              Hex("1fffffffffffffffffffffffffffffff"
                                  "fffffffffffffffffffffffffffffffb"));
  Bytes enc = sqrt_m1.ToBytes();
  enc.resize(64, 0);
  return EdPoint::Decode(enc).value();
}

std::vector<BigUint> Scalars(Rng& rng) {
  const BigUint& l = EdPoint::GroupOrder();
  const BigUint one(1);
  std::vector<BigUint> out = {
      BigUint(), one, BigUint(2), l.Sub(one), l, l.Add(one),
      one.ShiftLeft(253).Sub(one), one.ShiftLeft(256).Sub(one)};
  for (int i = 0; i < 12; ++i) out.push_back(BigUint::RandomBelow(l, rng));
  for (int i = 0; i < 12; ++i) out.push_back(BigUint::RandomBits(256, rng));
  return out;
}

std::vector<EdPoint> Points(Rng& rng) {
  const EdPoint t2 = oracle::OrderTwoPoint();
  const BigUint a = BigUint::RandomBelow(EdPoint::GroupOrder(), rng);
  return {EdPoint::Base(),
          DoubleAndAdd(BigUint::RandomBelow(EdPoint::GroupOrder(), rng),
                       EdPoint::Base()),
          EdPoint::Identity(),
          t2,
          EdPoint::Add(DoubleAndAdd(a, EdPoint::Base()), t2),
          OrderFourPoint()};
}

TEST(Ed25519OracleTest, TorsionPointsHaveTheirOrder) {
  const EdPoint t2 = oracle::OrderTwoPoint();
  EXPECT_FALSE(t2.IsIdentity());
  EXPECT_TRUE(EdPoint::Double(t2).IsIdentity());
  const EdPoint t4 = OrderFourPoint();
  EXPECT_FALSE(EdPoint::Double(t4).IsIdentity());
  EXPECT_TRUE(EdPoint::Double(EdPoint::Double(t4)).IsIdentity());
}

TEST(Ed25519OracleTest, ScalarMulMatchesDoubleAndAdd) {
  Rng rng(21);
  const std::vector<BigUint> scalars = Scalars(rng);
  const std::vector<EdPoint> points = Points(rng);
  for (size_t pi = 0; pi < points.size(); ++pi) {
    for (size_t si = 0; si < scalars.size(); ++si) {
      EXPECT_EQ(EdPoint::ScalarMul(scalars[si], points[pi]).Encode(),
                DoubleAndAdd(scalars[si], points[pi]).Encode())
          << "point " << pi << " scalar " << scalars[si].ToHex();
    }
  }
}

TEST(Ed25519OracleTest, ScalarBaseMulMatchesDoubleAndAdd) {
  Rng rng(22);
  for (const BigUint& k : Scalars(rng)) {
    EXPECT_EQ(EdPoint::ScalarBaseMul(k).Encode(),
              DoubleAndAdd(k, EdPoint::Base()).Encode())
        << k.ToHex();
  }
}

TEST(Ed25519OracleTest, MultiScalarMulMatchesSumOfDoubleAndAdd) {
  Rng rng(23);
  const std::vector<BigUint> scalars = Scalars(rng);
  const std::vector<EdPoint> points = Points(rng);
  for (size_t n : {1, 2, 3, 4, 5, 64}) {
    std::vector<BigUint> ks;
    std::vector<EdPoint> ps;
    EdPoint expected = EdPoint::Identity();
    for (size_t i = 0; i < n; ++i) {
      ks.push_back(scalars[rng.NextU64(scalars.size())]);
      ps.push_back(points[rng.NextU64(points.size())]);
      expected = EdPoint::Add(expected, DoubleAndAdd(ks.back(), ps.back()));
    }
    EXPECT_EQ(EdPoint::MultiScalarMul(ks, ps).Encode(), expected.Encode())
        << "n=" << n;
  }
}

TEST(Ed25519OracleTest, MulBaseSubMatchesDoubleAndAdd) {
  Rng rng(26);
  const BigUint& l = EdPoint::GroupOrder();
  const BigUint one(1);
  std::vector<BigUint> scalars = {
      BigUint(), one, BigUint(2), l.Sub(one), l, l.Add(one),
      one.ShiftLeft(253).Sub(one), one.ShiftLeft(256).Sub(one)};
  for (int i = 0; i < 4; ++i) scalars.push_back(BigUint::RandomBelow(l, rng));
  for (int i = 0; i < 4; ++i) scalars.push_back(BigUint::RandomBits(256, rng));
  std::vector<EdPoint> s_b;
  for (const BigUint& s : scalars) {
    s_b.push_back(DoubleAndAdd(s, EdPoint::Base()));
  }
  for (const EdPoint& p : Points(rng)) {
    for (const BigUint& c : scalars) {
      const EdPoint minus_c_p = oracle::Negate(DoubleAndAdd(c, p));
      for (size_t si = 0; si < scalars.size(); ++si) {
        ASSERT_EQ(EdPoint::MulBaseSub(scalars[si], c, p).Encode(),
                  EdPoint::Add(s_b[si], minus_c_p).Encode())
            << "s " << scalars[si].ToHex() << " c " << c.ToHex();
      }
    }
  }
}

TEST(Ed25519OracleTest, CachedAdditionAndSmallOrder) {
  Rng rng(27);
  const std::vector<EdPoint> points = Points(rng);
  for (const EdPoint& p : points) {
    for (const EdPoint& q : points) {
      const EdPoint::Cached cq = q.ToCached();
      EXPECT_EQ(EdPoint::Add(p, cq).Encode(), EdPoint::Add(p, q).Encode());
      EXPECT_EQ(EdPoint::Add(p, cq, /*negate_q=*/true).Encode(),
                EdPoint::Add(p, oracle::Negate(q)).Encode());
    }
    EXPECT_EQ(EdPoint::Double(p).Encode(), EdPoint::Add(p, p).Encode());
    // p - p has Z != 1: IsIdentity compares X and Y - Z without inverting.
    EXPECT_TRUE(EdPoint::Add(p, p.ToCached(), true).IsIdentity());
    EXPECT_EQ(p.HasSmallOrder(),
              DoubleAndAdd(BigUint(8), p).Encode() ==
                  EdPoint::Identity().Encode());
  }
  EXPECT_TRUE(OrderFourPoint().HasSmallOrder());
  EXPECT_TRUE(oracle::OrderTwoPoint().HasSmallOrder());
  EXPECT_FALSE(EdPoint::Base().HasSmallOrder());
}

// ---------------------------------------------------------------------------
// Field operations at their limb bounds, against BigUint mod p.

using Limbs = std::array<uint64_t, 5>;

const BigUint& FieldPrime() {
  static const BigUint p = Hex("7fffffffffffffffffffffffffffffff"
                               "ffffffffffffffffffffffffffffffed");
  return p;
}

// sum_i limbs[i] * 2^(51 i) mod p.
BigUint Reference(const Limbs& limbs) {
  BigUint v;
  for (size_t i = 0; i < 5; ++i) {
    v = v.Add(BigUint(limbs[i]).ShiftLeft(51 * i));
  }
  return v.Mod(FieldPrime());
}

BigUint Value(const Fe25519& a) {
  Bytes be = a.ToBytes();
  std::reverse(be.begin(), be.end());
  return BigUint::FromBytesBE(be);
}

// Inputs with limb j at most max[j]: all at the maximum, all zero, and
// random draws that pin about half their limbs to the maximum.
std::vector<Limbs> AtBound(Rng& rng, const Limbs& max) {
  std::vector<Limbs> out = {max, Limbs{}};
  for (int i = 0; i < 200; ++i) {
    Limbs l;
    for (size_t j = 0; j < 5; ++j) {
      const uint64_t draw = rng.NextU64();
      l[j] = rng.NextU64(2) ? max[j]
             : max[j] == ~uint64_t{0} ? draw
                                       : draw % (max[j] + 1);
    }
    out.push_back(l);
  }
  return out;
}

Limbs Uniform(uint64_t max) { return {max, max, max, max, max}; }

void ExpectBelow(const Fe25519& out, uint64_t bound) {
  for (uint64_t limb : out.limbs()) EXPECT_LT(limb, bound);
}

constexpr uint64_t kAddSubOut = (uint64_t{1} << 51) + (uint64_t{1} << 18);
constexpr uint64_t kMulOut = (uint64_t{1} << 51) + (uint64_t{1} << 13);

TEST(Fe25519BoundTest, AddAtBound) {
  Rng rng(30);
  const auto as = AtBound(rng, Uniform((uint64_t{1} << 63) - 1));
  const auto bs = AtBound(rng, Uniform((uint64_t{1} << 63) - 1));
  for (size_t i = 0; i < as.size(); ++i) {
    const Fe25519 out = Fe25519::Add(Fe25519::FromLimbs(as[i]),
                                     Fe25519::FromLimbs(bs[i]));
    ASSERT_EQ(Value(out),
              Reference(as[i]).Add(Reference(bs[i])).Mod(FieldPrime()));
    ExpectBelow(out, kAddSubOut);
  }
}

TEST(Fe25519BoundTest, SubAtBound) {
  Rng rng(31);
  const uint64_t two_p0 = (uint64_t{1} << 52) - 38;
  const uint64_t two_pn = (uint64_t{1} << 52) - 2;
  const auto as = AtBound(rng, Uniform((uint64_t{1} << 63) - 1));
  const auto bs = AtBound(rng, {two_p0, two_pn, two_pn, two_pn, two_pn});
  for (size_t i = 0; i < as.size(); ++i) {
    const Fe25519 out = Fe25519::Sub(Fe25519::FromLimbs(as[i]),
                                     Fe25519::FromLimbs(bs[i]));
    ASSERT_EQ(Value(out), Reference(as[i])
                              .Add(FieldPrime())
                              .Sub(Reference(bs[i]))
                              .Mod(FieldPrime()));
    ExpectBelow(out, kAddSubOut);
  }
}

TEST(Fe25519BoundTest, MulAndSquareAtBound) {
  Rng rng(32);
  const auto as = AtBound(rng, Uniform((uint64_t{1} << 54) - 1));
  const auto bs = AtBound(rng, Uniform((uint64_t{1} << 54) - 1));
  for (size_t i = 0; i < as.size(); ++i) {
    const Fe25519 a = Fe25519::FromLimbs(as[i]);
    const Fe25519 product = Fe25519::Mul(a, Fe25519::FromLimbs(bs[i]));
    ASSERT_EQ(Value(product),
              BigUint::MulMod(Reference(as[i]), Reference(bs[i]),
                              FieldPrime()));
    ExpectBelow(product, kMulOut);
    const Fe25519 square = Fe25519::Square(a);
    ASSERT_EQ(Value(square),
              BigUint::MulMod(Reference(as[i]), Reference(as[i]),
                              FieldPrime()));
    ExpectBelow(square, kMulOut);
  }
}

TEST(Fe25519BoundTest, CanonicalFormsAcceptAnyLimbs) {
  Rng rng(33);
  const uint64_t mask51 = (uint64_t{1} << 51) - 1;
  // p and 2p in radix 2^51, and 2^255 (= 19) in the top limb.
  const Limbs p = {mask51 - 18, mask51, mask51, mask51, mask51};
  const Limbs two_p = {2 * (mask51 - 18), 2 * mask51, 2 * mask51, 2 * mask51,
                       2 * mask51};
  EXPECT_TRUE(Fe25519::FromLimbs(p).IsZero());
  EXPECT_TRUE(Fe25519::FromLimbs(two_p).IsZero());
  EXPECT_TRUE(Fe25519::FromLimbs({0, 0, 0, 0, uint64_t{1} << 51})
                  .Equals(Fe25519::FromU64(19)));
  std::vector<Limbs> inputs = AtBound(rng, Uniform(~uint64_t{0}));
  inputs.push_back(p);
  inputs.push_back(two_p);
  for (const Limbs& limbs : inputs) {
    const Fe25519 a = Fe25519::FromLimbs(limbs);
    const BigUint ref = Reference(limbs);
    ASSERT_EQ(Value(a), ref);
    EXPECT_EQ(a.IsZero(), ref.IsZero());
    EXPECT_EQ(a.IsNegative(), ref.IsOdd());
    Bytes le = a.ToBytes();
    EXPECT_TRUE(a.Equals(Fe25519::FromBytes(le)));
  }
}

TEST(Ed25519OracleTest, InvertMatchesFermat) {
  Rng rng(24);
  EXPECT_TRUE(Fe25519::Invert(Fe25519()).IsZero());
  EXPECT_EQ(Fe25519::Invert(Fe25519()).ToBytes(),
            FermatInvert(Fe25519()).ToBytes());
  for (int i = 0; i < 20; ++i) {
    const Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    EXPECT_EQ(Fe25519::Invert(a).ToBytes(), FermatInvert(a).ToBytes());
  }
}

TEST(Ed25519OracleTest, SquareMatchesMul) {
  Rng rng(25);
  // Canonical and non-canonical encodings (FromBytes ignores only the top
  // bit, so all-ones is 2^255 - 1 >= p), then loosely reduced outputs of
  // Mul, Add and Sub, whose limbs may exceed 2^51.
  std::vector<Fe25519> inputs = {Fe25519(), Fe25519::FromU64(1),
                                 Fe25519::Sub(Fe25519(), Fe25519::FromU64(1)),
                                 Fe25519::FromBytes(Bytes(32, 0xff))};
  for (int i = 0; i < 40; ++i) {
    inputs.push_back(Fe25519::FromBytes(rng.NextBytes(32)));
  }
  const size_t n = inputs.size();
  for (size_t i = 0; i < n; ++i) {
    const Fe25519 a = inputs[i];  // copies: push_back may reallocate
    const Fe25519 b = inputs[(i * 7 + 3) % n];
    inputs.push_back(Fe25519::Mul(a, b));
    inputs.push_back(Fe25519::Add(a, b));
    inputs.push_back(Fe25519::Sub(a, b));
    inputs.push_back(Fe25519::Add(Fe25519::Mul(a, a), Fe25519::Mul(b, b)));
  }
  for (size_t i = 0; i < inputs.size(); ++i) {
    Fe25519 a = inputs[i];
    // A chain of squarings feeds each output back in, as Invert does.
    for (int step = 0; step < 4; ++step) {
      const Fe25519 square = Fe25519::Square(a);
      ASSERT_EQ(square.ToBytes(), Fe25519::Mul(a, a).ToBytes())
          << "input " << i << " step " << step;
      a = square;
    }
  }
}

}  // namespace
}  // namespace pds2::crypto
