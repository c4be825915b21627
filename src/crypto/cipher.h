#ifndef PDS2_CRYPTO_CIPHER_H_
#define PDS2_CRYPTO_CIPHER_H_

#include "common/bytes.h"
#include "common/result.h"

namespace pds2::crypto {

/// Authenticated symmetric encryption in encrypt-then-MAC composition:
/// keystream block i = SHA-256(K || i) under the per-message subkey
/// K = SHA-256(HKDF("enc") || nonce), one compression per 32-byte block;
/// integrity by HMAC-SHA256 keyed via HKDF("mac") over nonce || ciphertext.
/// This is the sealing primitive of the TEE simulator and the transport
/// protection for provider data in flight to executors.
///
/// Wire format: nonce(16) || ciphertext || tag(32).
class AuthCipher {
 public:
  /// `key` may be any length; sub-keys are derived from it.
  explicit AuthCipher(const common::Bytes& key);

  /// Encrypts and authenticates. `nonce_seed` lets callers pass a unique
  /// per-message value (e.g. a counter or random bytes); it is hashed into
  /// the 16-byte nonce.
  common::Bytes Seal(const common::Bytes& plaintext,
                     const common::Bytes& nonce_seed) const;

  /// Verifies the tag (constant time) and decrypts. Fails with
  /// Unauthenticated on any tampering and Corruption on malformed framing.
  common::Result<common::Bytes> Open(const common::Bytes& sealed) const;

 private:
  common::Bytes Keystream(const common::Bytes& nonce, size_t len) const;

  common::Bytes enc_key_;
  common::Bytes mac_key_;
};

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_CIPHER_H_
