#include "crypto/schnorr.h"

#include "crypto/sha256.h"

namespace pds2::crypto {

using common::Bytes;
using common::Result;
using common::Status;

namespace {

// Hash arbitrary bytes to a scalar mod the group order.
BigUint HashToScalar(const Bytes& data) {
  return BigUint::FromBytesBE(Sha256::Hash(data)).Mod(EdPoint::GroupOrder());
}

// A signature that passed the checks both verification paths share, with
// its challenge c = H(R || P || message).
struct ParsedSignature {
  EdPoint big_r, pub;
  BigUint s, c;
};

Result<ParsedSignature> Parse(const Bytes& public_key, const Bytes& message,
                              const Bytes& signature) {
  if (public_key.size() != kPublicKeySize) {
    return Status::Unauthenticated("malformed public key");
  }
  if (signature.size() != kSignatureSize) {
    return Status::Unauthenticated("malformed signature");
  }
  Bytes r_enc(signature.begin(), signature.begin() + kPublicKeySize);
  auto big_r = EdPoint::Decode(r_enc);
  if (!big_r.ok()) return Status::Unauthenticated("signature R not on curve");
  auto pub = EdPoint::Decode(public_key);
  if (!pub.ok()) return Status::Unauthenticated("public key not on curve");
  if (pub->HasSmallOrder()) {
    return Status::Unauthenticated("public key has small order");
  }
  BigUint s = BigUint::FromBytesBE(
      Bytes(signature.begin() + kPublicKeySize, signature.end()));
  if (s >= EdPoint::GroupOrder()) {
    return Status::Unauthenticated("signature s out of range");
  }
  Bytes challenge_input = std::move(r_enc);
  common::Append(challenge_input, public_key);
  common::Append(challenge_input, message);
  return ParsedSignature{*big_r, *pub, std::move(s),
                         HashToScalar(challenge_input)};
}

Bytes WithDomain(const std::string& domain, const Bytes& message) {
  Bytes out = common::ToBytes(domain);
  out.push_back(0);  // unambiguous separator
  common::Append(out, message);
  return out;
}

}  // namespace

SigningKey SigningKey::Generate(common::Rng& rng) {
  return FromSeed(rng.NextBytes(32));
}

SigningKey SigningKey::FromSeed(const Bytes& seed) {
  Bytes expanded = Sha256::Hash2(common::ToBytes("pds2.key.seed"), seed);
  BigUint secret = BigUint::FromBytesBE(expanded).Mod(EdPoint::GroupOrder());
  if (secret.IsZero()) secret = BigUint(1);  // vanishingly unlikely
  Bytes public_key = EdPoint::ScalarBaseMul(secret).Encode();
  return SigningKey(std::move(secret), std::move(public_key));
}

Bytes SigningKey::Sign(const Bytes& message) const {
  // Deterministic nonce: r = H(secret || message || "nonce") mod l.
  Bytes nonce_input = secret_.ToBytesBE();
  common::Append(nonce_input, message);
  common::Append(nonce_input, common::ToBytes("pds2.sig.nonce"));
  BigUint r = HashToScalar(nonce_input);
  if (r.IsZero()) r = BigUint(1);

  const EdPoint big_r = EdPoint::ScalarBaseMul(r);
  Bytes r_enc = big_r.Encode();

  // Challenge c = H(R || P || message) mod l.
  Bytes challenge_input = r_enc;
  common::Append(challenge_input, public_key_);
  common::Append(challenge_input, message);
  const BigUint c = HashToScalar(challenge_input);

  // s = r + c * secret mod l.
  const BigUint& order = EdPoint::GroupOrder();
  const BigUint s = r.Add(BigUint::MulMod(c, secret_, order)).Mod(order);

  Bytes sig = std::move(r_enc);
  auto s_bytes = s.ToBytesBEPadded(32);
  // s < l < 2^253 always fits in 32 bytes.
  common::Append(sig, s_bytes.value());
  return sig;
}

Bytes SigningKey::SignWithDomain(const std::string& domain,
                                 const Bytes& message) const {
  return Sign(WithDomain(domain, message));
}

common::Result<Bytes> SigningKey::SharedSecret(
    const Bytes& peer_public_key) const {
  PDS2_ASSIGN_OR_RETURN(EdPoint peer, EdPoint::Decode(peer_public_key));
  const EdPoint shared = EdPoint::ScalarMul(secret_, peer);
  return Sha256::Hash2(common::ToBytes("pds2.dh"), shared.Encode());
}

Status VerifySignature(const Bytes& public_key, const Bytes& message,
                       const Bytes& signature) {
  PDS2_ASSIGN_OR_RETURN(const ParsedSignature sig,
                        Parse(public_key, message, signature));
  // Cofactored check [8](s*B - R - c*P) == O, the equation the batch path
  // checks too, so torsion components never split the two verdicts.
  const EdPoint sb_minus_cp = EdPoint::MulBaseSub(sig.s, sig.c, sig.pub);
  if (!EdPoint::Add(sb_minus_cp, sig.big_r.ToCached(), /*negate_q=*/true)
           .HasSmallOrder()) {
    return Status::Unauthenticated("signature verification failed");
  }
  return Status::Ok();
}

Status VerifySignatureWithDomain(const Bytes& public_key,
                                 const std::string& domain,
                                 const Bytes& message,
                                 const Bytes& signature) {
  return VerifySignature(public_key, WithDomain(domain, message), signature);
}

Bytes DomainSeparatedMessage(const std::string& domain, const Bytes& message) {
  return WithDomain(domain, message);
}

bool VerifySignatureBatch(const std::vector<BatchVerifyEntry>& entries) {
  const size_t n = entries.size();
  if (n == 0) return true;
  if (n == 1) {
    return VerifySignature(entries[0].public_key, entries[0].message,
                           entries[0].signature)
        .ok();
  }

  const BigUint& order = EdPoint::GroupOrder();

  // Any entry that fails the shared checks fails the batch outright —
  // exactly what individual verification would conclude about it.
  std::vector<ParsedSignature> sigs;
  sigs.reserve(n);
  for (const BatchVerifyEntry& e : entries) {
    auto sig = Parse(e.public_key, e.message, e.signature);
    if (!sig.ok()) return false;
    sigs.push_back(std::move(sig).value());
  }

  // Deterministic Fiat-Shamir coefficients: one digest over the whole batch
  // (so every z_i depends on every entry), then z_i = H(digest || i)
  // truncated to 128 bits and forced nonzero.
  Sha256 batch_hash;
  batch_hash.Update("pds2.sig.batch");
  for (const BatchVerifyEntry& e : entries) {
    batch_hash.Update(e.public_key);
    batch_hash.Update(e.signature);
    batch_hash.Update(Sha256::Hash(e.message));
  }
  const Bytes digest = batch_hash.Finish();

  std::vector<EdPoint> points;
  std::vector<BigUint> scalars;
  points.reserve(2 * n);
  scalars.reserve(2 * n);
  BigUint z_dot_s;  // sum z_i * s_i mod order
  for (size_t i = 0; i < n; ++i) {
    Bytes index(8);
    for (int b = 0; b < 8; ++b) {
      index[b] = static_cast<uint8_t>((i >> (8 * (7 - b))) & 0xff);
    }
    Bytes z_bytes = Sha256::Hash2(digest, index);
    z_bytes.resize(16);  // 128-bit coefficient
    BigUint z = BigUint::FromBytesBE(z_bytes);
    if (z.IsZero()) z = BigUint(1);  // z = 0 would exempt entry i

    scalars.push_back(z);
    points.push_back(sigs[i].big_r);
    scalars.push_back(BigUint::MulMod(z, sigs[i].c, order));
    points.push_back(sigs[i].pub);
    z_dot_s = z_dot_s.Add(BigUint::MulMod(z, sigs[i].s, order)).Mod(order);
  }

  const EdPoint lhs = EdPoint::ScalarBaseMul(z_dot_s);
  const EdPoint rhs = EdPoint::MultiScalarMul(scalars, points);
  return EdPoint::Add(lhs, rhs.ToCached(), /*negate_q=*/true).HasSmallOrder();
}

}  // namespace pds2::crypto
