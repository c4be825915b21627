#include "crypto/cipher.h"

#include "crypto/sha256.h"

namespace pds2::crypto {

using common::Bytes;
using common::Result;
using common::Status;

namespace {
constexpr size_t kNonceSize = 16;
constexpr size_t kTagSize = kSha256DigestSize;
}  // namespace

AuthCipher::AuthCipher(const Bytes& key)
    : enc_key_(DeriveKey(key, "pds2.cipher.enc", 32)),
      mac_key_(DeriveKey(key, "pds2.cipher.mac", 32)) {}

Bytes AuthCipher::Keystream(const Bytes& nonce, size_t len) const {
  // One subkey per message; block i is then SHA-256(subkey || ctr_i), 40
  // bytes, which is a single compression.
  const Bytes subkey = Sha256::Hash2(enc_key_, nonce);
  Bytes stream;
  stream.reserve(len + kSha256DigestSize);
  for (uint64_t counter = 0; stream.size() < len; ++counter) {
    Sha256 h;
    h.Update(subkey);
    uint8_t ctr[8];
    for (int i = 0; i < 8; ++i) ctr[i] = static_cast<uint8_t>(counter >> (8 * i));
    h.Update(ctr, sizeof(ctr));
    common::Append(stream, h.Finish());
  }
  stream.resize(len);
  return stream;
}

Bytes AuthCipher::Seal(const Bytes& plaintext, const Bytes& nonce_seed) const {
  Bytes nonce = Sha256::Hash(nonce_seed);
  nonce.resize(kNonceSize);

  Bytes stream = Keystream(nonce, plaintext.size());
  Bytes out = nonce;
  out.reserve(kNonceSize + plaintext.size() + kTagSize);
  for (size_t i = 0; i < plaintext.size(); ++i) {
    out.push_back(plaintext[i] ^ stream[i]);
  }
  // Tag over nonce || ciphertext (everything emitted so far).
  Bytes tag = HmacSha256(mac_key_, out);
  common::Append(out, tag);
  return out;
}

Result<Bytes> AuthCipher::Open(const Bytes& sealed) const {
  if (sealed.size() < kNonceSize + kTagSize) {
    return Status::Corruption("sealed blob too short");
  }
  const size_t body_len = sealed.size() - kTagSize;
  Bytes body(sealed.begin(), sealed.begin() + static_cast<ptrdiff_t>(body_len));
  Bytes tag(sealed.begin() + static_cast<ptrdiff_t>(body_len), sealed.end());

  Bytes expected = HmacSha256(mac_key_, body);
  if (!common::ConstantTimeEquals(tag, expected)) {
    return Status::Unauthenticated("MAC verification failed");
  }

  Bytes nonce(body.begin(), body.begin() + kNonceSize);
  const size_t ct_len = body.size() - kNonceSize;
  Bytes stream = Keystream(nonce, ct_len);
  Bytes plaintext(ct_len);
  for (size_t i = 0; i < ct_len; ++i) {
    plaintext[i] = body[kNonceSize + i] ^ stream[i];
  }
  return plaintext;
}

}  // namespace pds2::crypto
