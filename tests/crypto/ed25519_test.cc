// Differential test of EdPoint's fast paths (fixed-base table, wNAF,
// Pippenger), of the addition-chain inversion and of the dedicated field
// squaring against the plain double-and-add, Fermat and Mul(a, a) oracles,
// compared by canonical encoding over random and edge-case inputs and over
// points with torsion components.

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
