#ifndef PDS2_CRYPTO_SHA256_H_
#define PDS2_CRYPTO_SHA256_H_

#include <array>
#include <cstdint>
#include <string_view>

#include "common/bytes.h"

namespace pds2::crypto {

/// Digest size of SHA-256 in bytes.
constexpr size_t kSha256DigestSize = 32;

/// Incremental SHA-256 (FIPS 180-4). Used as the platform-wide content
/// hash: block hashes, transaction ids, Merkle nodes, enclave measurements,
/// content addresses and key derivation all go through this.
class Sha256 {
 public:
  Sha256();

  /// Absorbs more input.
  void Update(const uint8_t* data, size_t len);
  void Update(const common::Bytes& data) { Update(data.data(), data.size()); }
  void Update(std::string_view s) {
    Update(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }

  /// Pads and produces the digest. The object must not be reused afterwards.
  common::Bytes Finish();

  /// One-shot convenience.
  static common::Bytes Hash(const common::Bytes& data);
  static common::Bytes Hash(std::string_view data);
  /// Hash of the concatenation a || b (common case for Merkle nodes).
  static common::Bytes Hash2(const common::Bytes& a, const common::Bytes& b);

 private:
  std::array<uint32_t, 8> state_;
  uint64_t total_len_ = 0;
  uint8_t buffer_[64];
  size_t buffer_len_ = 0;
};

/// HMAC-SHA256 (RFC 2104).
common::Bytes HmacSha256(const common::Bytes& key, const common::Bytes& msg);

/// HKDF-style key derivation: HMAC(key, info || counter) stream, truncated
/// to `out_len` bytes. Used to derive sealing and transport keys.
common::Bytes DeriveKey(const common::Bytes& key, std::string_view info,
                        size_t out_len);

}  // namespace pds2::crypto

#endif  // PDS2_CRYPTO_SHA256_H_
