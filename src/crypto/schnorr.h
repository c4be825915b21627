#ifndef PDS2_CRYPTO_SCHNORR_H_
#define PDS2_CRYPTO_SCHNORR_H_

#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "crypto/bignum.h"
#include "crypto/ed25519.h"

namespace pds2::crypto {

/// Size of a serialized public key (affine point, x || y, 32 bytes each).
constexpr size_t kPublicKeySize = 64;
/// Size of a signature: R (64) || s (32, big-endian).
constexpr size_t kSignatureSize = 96;

/// A Schnorr signing key over the edwards25519 group with SHA-256 as the
/// challenge hash (deterministic nonces, RFC-6979 style). This is the
/// signature scheme of the whole platform: transactions, blocks,
/// certificates, attestation quotes and device readings are all signed with
/// it.
class SigningKey {
 public:
  /// Fresh random key.
  static SigningKey Generate(common::Rng& rng);
  /// Deterministic key from a seed (used to give simulated devices and
  /// actors stable identities).
  static SigningKey FromSeed(const common::Bytes& seed);

  /// Serialized public key.
  const common::Bytes& PublicKey() const { return public_key_; }

  /// Signs a message. Deterministic: same key + message => same signature.
  common::Bytes Sign(const common::Bytes& message) const;

  /// Signs a domain-separated message ("pds2.tx", "pds2.block", ...), so a
  /// signature from one context can never be replayed in another.
  common::Bytes SignWithDomain(const std::string& domain,
                               const common::Bytes& message) const;

  /// Diffie-Hellman shared secret with a peer's public key: both sides
  /// derive SHA-256(secret * PeerPoint). Providers and executors use this
  /// to agree on a transport key without any online key exchange. Fails on
  /// a malformed peer key.
  common::Result<common::Bytes> SharedSecret(
      const common::Bytes& peer_public_key) const;

 private:
  SigningKey(BigUint secret, common::Bytes public_key)
      : secret_(std::move(secret)), public_key_(std::move(public_key)) {}

  BigUint secret_;
  common::Bytes public_key_;
};

/// Verifies `signature` over `message` against `public_key` with the
/// cofactored equation [8](s*B - R - c*P) == O, where c = H(R || P || m).
/// Public keys of small order ([8]P == O, the identity included) are
/// rejected: anyone could sign for them. Returns OK on a valid signature,
/// Unauthenticated otherwise.
common::Status VerifySignature(const common::Bytes& public_key,
                               const common::Bytes& message,
                               const common::Bytes& signature);

/// Domain-separated verification, mirror of SignWithDomain.
common::Status VerifySignatureWithDomain(const common::Bytes& public_key,
                                         const std::string& domain,
                                         const common::Bytes& message,
                                         const common::Bytes& signature);

/// The exact bytes SignWithDomain signs (domain || 0x00 || message).
/// Exposed so batch callers can pre-compose domain-separated messages.
common::Bytes DomainSeparatedMessage(const std::string& domain,
                                     const common::Bytes& message);

/// One (public key, message, signature) triple for batch verification.
/// The message must already be domain-separated if the signature was made
/// with SignWithDomain (see DomainSeparatedMessage).
struct BatchVerifyEntry {
  common::Bytes public_key;
  common::Bytes message;
  common::Bytes signature;
};

/// Verifies a whole batch with one randomized linear combination,
///   [8]((sum z_i s_i) * B - sum z_i * R_i - sum (z_i c_i) * P_i) == O,
/// evaluated by Pippenger multi-scalar multiplication — amortized cost per
/// signature shrinks with batch size (~5-10x fewer point operations than
/// independent verification at block-sized batches). The coefficients z_i
/// are 128-bit and derived Fiat-Shamir style from a hash of the entire
/// batch, so the check is deterministic yet an adversary cannot choose
/// signatures that cancel (false-accept probability ~2^-128). The cofactor
/// kills every torsion component, so (up to that 2^-128) a batch accepts
/// iff each entry passes VerifySignature, whatever the batch composition.
///
/// Returns true iff every signature verifies. On false the caller should
/// fall back to per-entry VerifySignature to locate the failures (a batch
/// cannot name the culprit).
bool VerifySignatureBatch(const std::vector<BatchVerifyEntry>& entries);

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_SCHNORR_H_
