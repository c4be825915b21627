// Differential test of EdPoint's fast paths (fixed-base table, wNAF,
// Pippenger) and of the addition-chain inversion against the plain
// double-and-add and Fermat oracles, compared by canonical encoding over
// random and edge-case scalars and over points with torsion components.

#include <gtest/gtest.h>

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

// a^e by square-and-multiply over the bits of e.
Fe25519 Pow(const Fe25519& a, const BigUint& e) {
  Fe25519 result = Fe25519::FromU64(1);
  for (size_t i = e.BitLength(); i-- > 0;) {
    result = Fe25519::Square(result);
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

}  // namespace
}  // namespace pds2::crypto
