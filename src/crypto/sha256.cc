#include "crypto/sha256.h"

#include <algorithm>
#include <cstddef>
#include <cstring>

#include "crypto/sha256_internal.h"

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define PDS2_SHA256_X86 1
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace pds2::crypto {

using common::Bytes;

namespace {

constexpr uint32_t kK[64] = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline uint32_t Rotr(uint32_t x, int n) { return (x >> n) | (x << (32 - n)); }

#ifdef PDS2_SHA256_X86
// Four rounds per step: the message words of step i are loaded (i < 4) or
// expanded from the previous four steps with sha256msg1/msg2, and
// sha256rnds2 runs two rounds at a time on the state split into ABEF and
// CDGH halves.
__attribute__((target("sha,sse4.1"))) void CompressShaNi(
    uint32_t state[8], const uint8_t* blocks, size_t n) {
  const __m128i byteswap =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  const __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<__m128i*>(state)), 0xB1);
  const __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<__m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; n > 0; --n, blocks += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    __m128i w[4];
#pragma GCC unroll 16
    for (int i = 0; i < 16; ++i) {
      __m128i m;
      if (i < 4) {
        m = _mm_shuffle_epi8(
            _mm_loadu_si128(reinterpret_cast<const __m128i*>(blocks + 16 * i)),
            byteswap);
      } else {
        m = _mm_sha256msg1_epu32(w[i & 3], w[(i + 1) & 3]);
        m = _mm_add_epi32(
            m, _mm_alignr_epi8(w[(i + 3) & 3], w[(i + 2) & 3], 4));
        m = _mm_sha256msg2_epu32(m, w[(i + 3) & 3]);
      }
      w[i & 3] = m;
      const __m128i wk = _mm_add_epi32(
          m, _mm_loadu_si128(reinterpret_cast<const __m128i*>(kK + 4 * i)));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

using CompressFn = void (*)(uint32_t*, const uint8_t*, size_t);

#ifdef PDS2_SHA256_X86
// CPUID leaf 7 EBX bit 29 (SHA) and leaf 1 ECX bits 9 and 19 (SSSE3,
// SSE4.1), read directly: GCC and Clang both provide <cpuid.h>, while
// older Clang rejects "sha" as a __builtin_cpu_supports feature.
bool CpuHasShaExtensions() {
  unsigned a = 0, b = 0, c = 0, d = 0;
  if (__get_cpuid(1, &a, &b, &c, &d) == 0) return false;
  if ((c & (1u << 9)) == 0 || (c & (1u << 19)) == 0) return false;
  if (__get_cpuid_count(7, 0, &a, &b, &c, &d) == 0) return false;
  return (b & (1u << 29)) != 0;
}
#endif

// Chosen once per process from the CPU. A function-local static, so a hash
// run from another file's static initialiser still sees a decided value.
CompressFn Compress() {
  static const CompressFn fn = [] {
#ifdef PDS2_SHA256_X86
    if (CpuHasShaExtensions()) return &CompressShaNi;
#endif
    return &internal::Sha256CompressPortable;
  }();
  return fn;
}

}  // namespace

namespace internal {

void Sha256CompressPortable(uint32_t state[8], const uint8_t* blocks,
                            size_t n) {
  for (; n > 0; --n, blocks += 64) {
    uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = (static_cast<uint32_t>(blocks[4 * i]) << 24) |
             (static_cast<uint32_t>(blocks[4 * i + 1]) << 16) |
             (static_cast<uint32_t>(blocks[4 * i + 2]) << 8) |
             static_cast<uint32_t>(blocks[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      const uint32_t s0 =
          Rotr(w[i - 15], 7) ^ Rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      const uint32_t s1 =
          Rotr(w[i - 2], 17) ^ Rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }

    uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    uint32_t e = state[4], f = state[5], g = state[6], h = state[7];

    for (int i = 0; i < 64; ++i) {
      const uint32_t s1 = Rotr(e, 6) ^ Rotr(e, 11) ^ Rotr(e, 25);
      const uint32_t ch = (e & f) ^ (~e & g);
      const uint32_t temp1 = h + s1 + ch + kK[i] + w[i];
      const uint32_t s0 = Rotr(a, 2) ^ Rotr(a, 13) ^ Rotr(a, 22);
      const uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      const uint32_t temp2 = s0 + maj;
      h = g;
      g = f;
      f = e;
      e = d + temp1;
      d = c;
      c = b;
      b = a;
      a = temp1 + temp2;
    }

    state[0] += a;
    state[1] += b;
    state[2] += c;
    state[3] += d;
    state[4] += e;
    state[5] += f;
    state[6] += g;
    state[7] += h;
  }
}

bool Sha256CompressHardware(uint32_t state[8], const uint8_t* blocks,
                            size_t n) {
#ifdef PDS2_SHA256_X86
  if (Compress() == &CompressShaNi) {
    CompressShaNi(state, blocks, n);
    return true;
  }
#endif
  (void)state;
  (void)blocks;
  (void)n;
  return false;
}

}  // namespace internal

Sha256::Sha256()
    : state_{0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
             0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19} {}

// Whole blocks are compressed straight from the caller's buffer; only a
// partial block is copied into buffer_.
void Sha256::Update(const uint8_t* data, size_t len) {
  if (len == 0) return;
  total_len_ += len;
  if (buffer_len_ > 0) {
    const size_t take = std::min(len, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    len -= take;
    if (buffer_len_ < sizeof(buffer_)) return;
    Compress()(state_.data(), buffer_, 1);
    buffer_len_ = 0;
  }
  const size_t blocks = len / sizeof(buffer_);
  if (blocks > 0) Compress()(state_.data(), data, blocks);
  buffer_len_ = len % sizeof(buffer_);
  if (buffer_len_ > 0) {
    std::memcpy(buffer_, data + blocks * sizeof(buffer_), buffer_len_);
  }
}

Bytes Sha256::Finish() {
  // Append 0x80, pad with zeros, then the 64-bit big-endian bit length.
  const uint64_t bit_len = total_len_ * 8;
  uint8_t pad[72];
  size_t pad_len = 0;
  pad[pad_len++] = 0x80;
  const size_t rem = (buffer_len_ + 1) % 64;
  const size_t zeros = (rem <= 56) ? (56 - rem) : (120 - rem);
  std::memset(pad + pad_len, 0, zeros);
  pad_len += zeros;
  for (int i = 7; i >= 0; --i) {
    pad[pad_len++] = static_cast<uint8_t>(bit_len >> (8 * i));
  }
  Update(pad, pad_len);

  Bytes digest(kSha256DigestSize);
  for (int i = 0; i < 8; ++i) {
    digest[4 * i] = static_cast<uint8_t>(state_[i] >> 24);
    digest[4 * i + 1] = static_cast<uint8_t>(state_[i] >> 16);
    digest[4 * i + 2] = static_cast<uint8_t>(state_[i] >> 8);
    digest[4 * i + 3] = static_cast<uint8_t>(state_[i]);
  }
  return digest;
}

Bytes Sha256::Hash(const Bytes& data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash(std::string_view data) {
  Sha256 h;
  h.Update(data);
  return h.Finish();
}

Bytes Sha256::Hash2(const Bytes& a, const Bytes& b) {
  Sha256 h;
  h.Update(a);
  h.Update(b);
  return h.Finish();
}

Bytes HmacSha256(const Bytes& key, const Bytes& msg) {
  constexpr size_t kBlockSize = 64;
  Bytes k = key;
  if (k.size() > kBlockSize) k = Sha256::Hash(k);
  k.resize(kBlockSize, 0);

  Bytes ipad(kBlockSize), opad(kBlockSize);
  for (size_t i = 0; i < kBlockSize; ++i) {
    ipad[i] = k[i] ^ 0x36;
    opad[i] = k[i] ^ 0x5c;
  }

  Sha256 inner;
  inner.Update(ipad);
  inner.Update(msg);
  Bytes inner_digest = inner.Finish();

  Sha256 outer;
  outer.Update(opad);
  outer.Update(inner_digest);
  return outer.Finish();
}

Bytes DeriveKey(const Bytes& key, std::string_view info, size_t out_len) {
  Bytes out;
  out.reserve(out_len);
  uint32_t counter = 0;
  while (out.size() < out_len) {
    Bytes block_input(info.begin(), info.end());
    for (int i = 0; i < 4; ++i) {
      block_input.push_back(static_cast<uint8_t>(counter >> (8 * i)));
    }
    Bytes block = HmacSha256(key, block_input);
    const size_t take = std::min(block.size(), out_len - out.size());
    out.insert(out.end(), block.begin(), block.begin() + static_cast<ptrdiff_t>(take));
    ++counter;
  }
  return out;
}

}  // namespace pds2::crypto
