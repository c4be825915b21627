#include <gtest/gtest.h>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/ed25519.h"
#include "crypto/schnorr.h"
#include "crypto/sha256.h"
#include "ed25519_oracle.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::HexEncode;
using common::Rng;
using common::ToBytes;

TEST(Fe25519Test, AddSubRoundTrip) {
  Rng rng(1);
  for (int i = 0; i < 50; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 b = Fe25519::FromBytes(rng.NextBytes(32));
    EXPECT_TRUE(Fe25519::Sub(Fe25519::Add(a, b), b).Equals(a));
  }
}

TEST(Fe25519Test, MulCommutativeAndAssociative) {
  Rng rng(2);
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 b = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 c = Fe25519::FromBytes(rng.NextBytes(32));
    EXPECT_TRUE(Fe25519::Mul(a, b).Equals(Fe25519::Mul(b, a)));
    EXPECT_TRUE(Fe25519::Mul(Fe25519::Mul(a, b), c)
                    .Equals(Fe25519::Mul(a, Fe25519::Mul(b, c))));
  }
}

TEST(Fe25519Test, MulDistributesOverAdd) {
  Rng rng(3);
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 b = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 c = Fe25519::FromBytes(rng.NextBytes(32));
    Fe25519 lhs = Fe25519::Mul(a, Fe25519::Add(b, c));
    Fe25519 rhs = Fe25519::Add(Fe25519::Mul(a, b), Fe25519::Mul(a, c));
    EXPECT_TRUE(lhs.Equals(rhs));
  }
}

TEST(Fe25519Test, InvertIsMultiplicativeInverse) {
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    Fe25519 a = Fe25519::FromBytes(rng.NextBytes(32));
    if (a.IsZero()) continue;
    Fe25519 prod = Fe25519::Mul(a, Fe25519::Invert(a));
    EXPECT_TRUE(prod.Equals(Fe25519::FromU64(1)));
  }
}

TEST(Fe25519Test, BytesRoundTrip) {
  Rng rng(5);
  for (int i = 0; i < 50; ++i) {
    Bytes b = rng.NextBytes(32);
    b[31] &= 0x3f;  // keep the value comfortably below p
    Fe25519 fe = Fe25519::FromBytes(b);
    EXPECT_EQ(fe.ToBytes(), b);
  }
}

TEST(Fe25519Test, CanonicalReductionOfP) {
  // p itself must encode as zero.
  Bytes p_bytes(32, 0xff);
  p_bytes[0] = 0xed;
  p_bytes[31] = 0x7f;
  Fe25519 fe = Fe25519::FromBytes(p_bytes);
  EXPECT_TRUE(fe.IsZero());
}

TEST(EdPointTest, BasePointIsOnCurveAndHasGroupOrder) {
  const EdPoint& base = EdPoint::Base();
  Fe25519 x, y;
  base.ToAffine(&x, &y);
  EXPECT_TRUE(EdPoint::OnCurve(x, y));
  EXPECT_FALSE(base.IsIdentity());
  // l * B must be the identity.
  EdPoint lB = EdPoint::ScalarMul(EdPoint::GroupOrder(), base);
  EXPECT_TRUE(lB.IsIdentity());
}

TEST(EdPointTest, AdditionMatchesScalarMultiples) {
  const EdPoint& base = EdPoint::Base();
  EdPoint two_b = EdPoint::Add(base, base);
  EXPECT_TRUE(two_b.Equals(EdPoint::Double(base)));
  EXPECT_TRUE(two_b.Equals(EdPoint::ScalarBaseMul(BigUint(2))));
  EdPoint five_b = EdPoint::ScalarBaseMul(BigUint(5));
  EdPoint sum = EdPoint::Add(EdPoint::ScalarBaseMul(BigUint(2)),
                             EdPoint::ScalarBaseMul(BigUint(3)));
  EXPECT_TRUE(sum.Equals(five_b));
}

TEST(EdPointTest, IdentityIsNeutral) {
  const EdPoint& base = EdPoint::Base();
  EXPECT_TRUE(EdPoint::Add(base, EdPoint::Identity()).Equals(base));
  EXPECT_TRUE(EdPoint::ScalarBaseMul(BigUint()).IsIdentity());
}

TEST(EdPointTest, ScalarMulIsHomomorphic) {
  Rng rng(6);
  BigUint a = BigUint::RandomBelow(EdPoint::GroupOrder(), rng);
  BigUint b = BigUint::RandomBelow(EdPoint::GroupOrder(), rng);
  const BigUint sum = a.Add(b).Mod(EdPoint::GroupOrder());
  EdPoint lhs = EdPoint::ScalarBaseMul(sum);
  EdPoint rhs =
      EdPoint::Add(EdPoint::ScalarBaseMul(a), EdPoint::ScalarBaseMul(b));
  EXPECT_TRUE(lhs.Equals(rhs));
}

TEST(EdPointTest, EncodeDecodeRoundTrip) {
  EdPoint p = EdPoint::ScalarBaseMul(BigUint(12345));
  Bytes enc = p.Encode();
  ASSERT_EQ(enc.size(), 64u);
  auto decoded = EdPoint::Decode(enc);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->Equals(p));
}

TEST(EdPointTest, DecodeRejectsOffCurvePoints) {
  Bytes bad(64, 0x07);
  EXPECT_FALSE(EdPoint::Decode(bad).ok());
  EXPECT_FALSE(EdPoint::Decode(Bytes(10, 0)).ok());
}

TEST(EdPointTest, DecodeRejectsNonCanonicalEncodings) {
  // A public key with bit 255 of y (or of x) flipped names the same point;
  // only the canonical form may decode.
  const Bytes key = SigningKey::FromSeed(common::ToBytes("k")).PublicKey();
  ASSERT_TRUE(EdPoint::Decode(key).ok());
  for (size_t top_byte : {size_t{31}, size_t{63}}) {
    Bytes flipped = key;
    flipped[top_byte] ^= 0x80;
    EXPECT_FALSE(EdPoint::Decode(flipped).ok()) << "byte " << top_byte;
  }

  // x = p (ed ff .. ff 7f little-endian) reduces to 0: with y = 1 this is
  // a second spelling of the identity.
  Bytes x_is_p(64, 0);
  x_is_p[0] = 0xed;
  for (size_t i = 1; i < 31; ++i) x_is_p[i] = 0xff;
  x_is_p[31] = 0x7f;
  x_is_p[32] = 1;
  EXPECT_FALSE(EdPoint::Decode(x_is_p).ok());
  Bytes identity(64, 0);
  identity[32] = 1;
  ASSERT_TRUE(EdPoint::Decode(identity).ok());
  EXPECT_TRUE(EdPoint::Decode(identity)->IsIdentity());
}

TEST(SchnorrTest, SignVerifyRoundTrip) {
  Rng rng(7);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("transfer 100 tokens to provider 7");
  Bytes sig = key.Sign(msg);
  EXPECT_EQ(sig.size(), kSignatureSize);
  EXPECT_TRUE(VerifySignature(key.PublicKey(), msg, sig).ok());
}

TEST(SchnorrTest, DeterministicSignatures) {
  SigningKey key = SigningKey::FromSeed(ToBytes("device-001"));
  Bytes msg = ToBytes("reading");
  EXPECT_EQ(key.Sign(msg), key.Sign(msg));
}

TEST(SchnorrTest, SeedGivesStableIdentity) {
  SigningKey k1 = SigningKey::FromSeed(ToBytes("device-001"));
  SigningKey k2 = SigningKey::FromSeed(ToBytes("device-001"));
  SigningKey k3 = SigningKey::FromSeed(ToBytes("device-002"));
  EXPECT_EQ(k1.PublicKey(), k2.PublicKey());
  EXPECT_NE(k1.PublicKey(), k3.PublicKey());
}

TEST(SchnorrTest, TamperedMessageRejected) {
  Rng rng(8);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("pay 10");
  Bytes sig = key.Sign(msg);
  EXPECT_FALSE(VerifySignature(key.PublicKey(), ToBytes("pay 99"), sig).ok());
}

TEST(SchnorrTest, TamperedSignatureRejected) {
  Rng rng(9);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("msg");
  Bytes sig = key.Sign(msg);
  for (size_t i = 0; i < sig.size(); i += 11) {
    Bytes bad = sig;
    bad[i] ^= 0x40;
    EXPECT_FALSE(VerifySignature(key.PublicKey(), msg, bad).ok()) << i;
  }
}

TEST(SchnorrTest, WrongKeyRejected) {
  Rng rng(10);
  SigningKey alice = SigningKey::Generate(rng);
  SigningKey bob = SigningKey::Generate(rng);
  Bytes msg = ToBytes("msg");
  EXPECT_FALSE(VerifySignature(bob.PublicKey(), msg, alice.Sign(msg)).ok());
}

TEST(SchnorrTest, MalformedInputsRejectedNotCrashed) {
  Rng rng(11);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("m");
  Bytes sig = key.Sign(msg);
  EXPECT_FALSE(VerifySignature(Bytes(3, 1), msg, sig).ok());
  EXPECT_FALSE(VerifySignature(key.PublicKey(), msg, Bytes(5, 1)).ok());
  EXPECT_FALSE(VerifySignature(Bytes(64, 0xee), msg, sig).ok());
}

TEST(SchnorrTest, DomainSeparationPreventsCrossContextReplay) {
  Rng rng(12);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("payload");
  Bytes tx_sig = key.SignWithDomain("pds2.tx", msg);
  EXPECT_TRUE(
      VerifySignatureWithDomain(key.PublicKey(), "pds2.tx", msg, tx_sig).ok());
  EXPECT_FALSE(
      VerifySignatureWithDomain(key.PublicKey(), "pds2.block", msg, tx_sig)
          .ok());
}

TEST(SchnorrTest, SRangeChecked) {
  Rng rng(13);
  SigningKey key = SigningKey::Generate(rng);
  Bytes msg = ToBytes("m");
  Bytes sig = key.Sign(msg);
  // Force s out of range (>= group order): set all s bytes to 0xff.
  for (size_t i = 64; i < sig.size(); ++i) sig[i] = 0xff;
  EXPECT_FALSE(VerifySignature(key.PublicKey(), msg, sig).ok());
}

// Known answers. Keys, signatures and shared secrets reach the chain and
// the wire, so no change to the point arithmetic may alter them.
TEST(SchnorrKatTest, PublicKeyFromSeed) {
  EXPECT_EQ(HexEncode(SigningKey::FromSeed(ToBytes("device-001")).PublicKey()),
            "bee41bcfbc479defdb44eb40739d5ffaf23ecefa019ad27ad79799f20925bb41"
            "0bb2d8b2c1bcff9390b2b4dddf93b785a82e44b896aad7ebc01d1a776a6f3123");
}

TEST(SchnorrKatTest, Sign) {
  const SigningKey key = SigningKey::FromSeed(ToBytes("device-001"));
  EXPECT_EQ(HexEncode(key.Sign(ToBytes("reading"))),
            "7094971121b3dc17ac67ba588a54583578d48c969f9fedcdce5ed506498dc34b"
            "b807ce5d8dc42563c61c07750b9a04970e0bdf7716974e1ab3bbaa8e6ccdc874"
            "0b29174d1d3703e9b53c117885a7f0353aca0b4f5cbf5c49ce09df2e5f3948bb");
}

TEST(SchnorrKatTest, SharedSecret) {
  const SigningKey a = SigningKey::FromSeed(ToBytes("provider-0"));
  const SigningKey b = SigningKey::FromSeed(ToBytes("executor-0"));
  const std::string expected =
      "c784ba661de53d7cdd4ed4eaa6931664472f0c9976dac1591e8d35d3ce86ed31";
  EXPECT_EQ(HexEncode(a.SharedSecret(b.PublicKey()).value()), expected);
  EXPECT_EQ(HexEncode(b.SharedSecret(a.PublicKey()).value()), expected);
}

// One digest over 512 seeded outputs of the public-key API: 64 rounds of
// a FromSeed key, a signature, an ECDH secret and the verdicts on a valid,
// a tampered, a torsion-R, a small-order-key and an s >= l signature. The
// value was computed before the point arithmetic took its current layout;
// any change to the representation that leaks into an output moves it.
TEST(SchnorrKatTest, SeededOutputDigest) {
  Rng rng(26);
  const BigUint& order = EdPoint::GroupOrder();
  const EdPoint t2 = oracle::OrderTwoPoint();
  const Bytes order_two_key = t2.Encode();
  Sha256 digest;
  int accepted = 0;
  auto verdict = [&](const Bytes& pub, const Bytes& msg, const Bytes& sig) {
    const uint8_t ok = VerifySignature(pub, msg, sig).ok() ? 1 : 0;
    accepted += ok;
    digest.Update(&ok, 1);
  };
  for (int round = 0; round < 64; ++round) {
    const SigningKey key = SigningKey::FromSeed(rng.NextBytes(32));
    const SigningKey peer = SigningKey::FromSeed(rng.NextBytes(32));
    const Bytes msg = rng.NextBytes(1 + rng.NextU64(96));
    const Bytes sig = key.Sign(msg);
    digest.Update(key.PublicKey());
    digest.Update(sig);
    digest.Update(key.SharedSecret(peer.PublicKey()).value());
    verdict(key.PublicKey(), msg, sig);

    Bytes tampered = msg;
    tampered[rng.NextU64(tampered.size())] ^= 0x01;
    verdict(key.PublicKey(), tampered, sig);

    // R = r*B + T2 under a key whose secret the test knows: the cofactored
    // check accepts it.
    const BigUint a = BigUint::RandomBelow(order, rng);
    const Bytes pub_a = EdPoint::ScalarBaseMul(a).Encode();
    verdict(pub_a, msg,
            oracle::SignWithNonce(a, pub_a, msg,
                                  BigUint::RandomBelow(order, rng), t2));

    verdict(order_two_key, msg,
            oracle::SignWithNonce(BigUint(), order_two_key, msg,
                                  BigUint(1 + rng.NextU64(1000)),
                                  EdPoint::Identity()));

    // s + l still fits in 32 bytes (s < l < 2^253).
    const BigUint s = BigUint::FromBytesBE(Bytes(sig.begin() + 64, sig.end()));
    Bytes high_s(sig.begin(), sig.begin() + 64);
    common::Append(high_s, s.Add(order).ToBytesBEPadded(32).value());
    verdict(key.PublicKey(), msg, high_s);
  }
  EXPECT_EQ(accepted, 2 * 64);  // the valid and the torsion-R signatures
  EXPECT_EQ(HexEncode(digest.Finish()),
            "6c40c66025456e848da8f62f344bb6452fd6f20bdea9a2e00ceaaae4ca8642b5");
}

// Signatures whose key or nonce point carries the order-2 point T2. An
// uncofactored single check rejects both while an uncofactored batch
// accepts them whenever its coefficient z for the entry is even, so the
// verdict would depend on batch composition; both paths must agree.
TEST(SchnorrTorsionTest, SingleAndBatchAgreeOnTorsionComponents) {
  Rng rng(14);
  const BigUint a = BigUint::RandomBelow(EdPoint::GroupOrder(), rng);
  const EdPoint t2 = oracle::OrderTwoPoint();
  const Bytes msg = ToBytes("torsion");

  // Key P = a*B + T2, signed with the first nonce whose challenge c is
  // odd, so that s*B - R - c*P = T2.
  const Bytes torsion_key =
      EdPoint::Add(EdPoint::ScalarBaseMul(a), t2).Encode();
  Bytes key_sig;
  for (uint64_t r = 1;; ++r) {
    key_sig = oracle::SignWithNonce(a, torsion_key, msg, BigUint(r),
                                    EdPoint::Identity());
    const Bytes r_enc(key_sig.begin(), key_sig.begin() + 64);
    if (oracle::Challenge(r_enc, torsion_key, msg).IsOdd()) break;
  }
  // Honest key a*B, nonce point R = 7*B + T2.
  const Bytes key = EdPoint::ScalarBaseMul(a).Encode();
  const Bytes nonce_sig = oracle::SignWithNonce(a, key, msg, BigUint(7), t2);

  const SigningKey honest = SigningKey::Generate(rng);
  for (const auto& [pub, sig] :
       {std::pair{torsion_key, key_sig}, std::pair{key, nonce_sig}}) {
    EXPECT_TRUE(VerifySignature(pub, msg, sig).ok());
    for (int i = 0; i < 40; ++i) {
      const Bytes honest_msg = rng.NextBytes(16);
      EXPECT_TRUE(VerifySignatureBatch(
          {{honest.PublicKey(), honest_msg, honest.Sign(honest_msg)},
           {pub, msg, sig}}))
          << "batch " << i;
    }
  }
}

TEST(SchnorrTorsionTest, SmallOrderKeysRejected) {
  // With secret 0 the forgery s = r satisfies s*B - R - c*P = -c*P, which
  // is O (or of small order) for every small-order key P: anyone could
  // sign for these keys. Both paths must refuse the key itself.
  Bytes identity(64, 0);
  identity[32] = 1;
  const EdPoint t2 = oracle::OrderTwoPoint();
  const Bytes order_two = t2.Encode();
  Rng rng(16);
  const SigningKey honest = SigningKey::Generate(rng);
  const Bytes honest_msg = ToBytes("honest");
  for (const Bytes& pub : {identity, order_two}) {
    const Bytes msg = ToBytes("forged");
    for (uint64_t r = 1; r <= 4; ++r) {
      const Bytes sig = oracle::SignWithNonce(BigUint(), pub, msg, BigUint(r),
                                              EdPoint::Identity());
      EXPECT_FALSE(VerifySignature(pub, msg, sig).ok());
      EXPECT_FALSE(VerifySignatureBatch(
          {{honest.PublicKey(), honest_msg, honest.Sign(honest_msg)},
           {pub, msg, sig}}));
    }
  }
}

}  // namespace
}  // namespace pds2::crypto
