#include <gtest/gtest.h>

#include <array>
#include <optional>
#include <string>

#include "common/hex.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "crypto/sha256_internal.h"

namespace pds2::crypto {
namespace {

using common::Bytes;
using common::HexEncode;
using common::ToBytes;

constexpr std::array<uint32_t, 8> kInitialState = {
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};

// One compression function over n blocks; false where it cannot run here.
using Compressor = bool (*)(uint32_t*, const uint8_t*, size_t);

bool Portable(uint32_t* state, const uint8_t* blocks, size_t n) {
  internal::Sha256CompressPortable(state, blocks, n);
  return true;
}

bool Hardware(uint32_t* state, const uint8_t* blocks, size_t n) {
  return internal::Sha256CompressHardware(state, blocks, n);
}

// SHA-256 of `msg` padded up front and compressed in one call, without
// Sha256's buffering; nullopt where `compress` cannot run here.
std::optional<Bytes> ReferenceHash(const Bytes& msg, Compressor compress) {
  Bytes padded = msg;
  padded.push_back(0x80);
  while (padded.size() % 64 != 56) padded.push_back(0);
  const uint64_t bits = static_cast<uint64_t>(msg.size()) * 8;
  for (int i = 7; i >= 0; --i) {
    padded.push_back(static_cast<uint8_t>(bits >> (8 * i)));
  }
  std::array<uint32_t, 8> state = kInitialState;
  if (!compress(state.data(), padded.data(), padded.size() / 64)) {
    return std::nullopt;
  }
  Bytes digest;
  for (uint32_t word : state) {
    for (int shift = 24; shift >= 0; shift -= 8) {
      digest.push_back(static_cast<uint8_t>(word >> shift));
    }
  }
  return digest;
}

TEST(Sha256Test, EmptyStringKat) {
  EXPECT_EQ(HexEncode(Sha256::Hash(Bytes{})),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256Test, AbcKat) {
  EXPECT_EQ(HexEncode(Sha256::Hash("abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256Test, TwoBlockKat) {
  EXPECT_EQ(HexEncode(Sha256::Hash(
                "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256Test, MillionAKat) {
  Sha256 h;
  std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) h.Update(chunk);
  EXPECT_EQ(HexEncode(h.Finish()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256Test, IncrementalMatchesOneShot) {
  const std::string msg = "the provider signs each reading before upload";
  Sha256 h;
  for (char c : msg) h.Update(std::string_view(&c, 1));
  EXPECT_EQ(h.Finish(), Sha256::Hash(msg));
}

TEST(Sha256Test, BoundaryLengthsAroundBlockSize) {
  // Exercise the padding logic at every length near the 64-byte block
  // boundary; digests must be distinct and stable across chunkings.
  for (size_t len : {55u, 56u, 57u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    Bytes msg(len, 0x5a);
    Bytes one_shot = Sha256::Hash(msg);
    Sha256 h;
    h.Update(msg.data(), len / 2);
    h.Update(msg.data() + len / 2, len - len / 2);
    EXPECT_EQ(h.Finish(), one_shot) << "len=" << len;
  }
}

TEST(Sha256Test, AvalancheOnSingleBitFlip) {
  Bytes a(32, 0);
  Bytes b = a;
  b[0] ^= 1;
  Bytes ha = Sha256::Hash(a);
  Bytes hb = Sha256::Hash(b);
  int differing_bits = 0;
  for (size_t i = 0; i < ha.size(); ++i) {
    differing_bits += __builtin_popcount(ha[i] ^ hb[i]);
  }
  // ~128 expected; anything above 80 shows strong diffusion.
  EXPECT_GT(differing_bits, 80);
}

TEST(Sha256Test, Hash2ConcatenatesInputs) {
  Bytes a = ToBytes("left");
  Bytes b = ToBytes("right");
  Bytes cat = a;
  common::Append(cat, b);
  EXPECT_EQ(Sha256::Hash2(a, b), Sha256::Hash(cat));
}

TEST(Sha256KernelTest, KatsThroughBothCompressions) {
  const std::pair<std::string, std::string> kats[] = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"}};
  for (const auto& [msg, hex] : kats) {
    EXPECT_EQ(HexEncode(*ReferenceHash(ToBytes(msg), Portable)), hex);
    const std::optional<Bytes> hw = ReferenceHash(ToBytes(msg), Hardware);
    if (hw) {
      EXPECT_EQ(HexEncode(*hw), hex);
    }
  }
}

TEST(Sha256KernelTest, HardwareMatchesPortableOnRandomStates) {
  common::Rng rng(7);
  for (int trial = 0; trial < 200; ++trial) {
    std::array<uint32_t, 8> portable;
    for (uint32_t& word : portable) word = static_cast<uint32_t>(rng.NextU64());
    std::array<uint32_t, 8> hardware = portable;
    const size_t n = 1 + rng.NextU64(64);
    const Bytes blocks = rng.NextBytes(64 * n);
    internal::Sha256CompressPortable(portable.data(), blocks.data(), n);
    if (!internal::Sha256CompressHardware(hardware.data(), blocks.data(), n)) {
      GTEST_SKIP() << "no SHA extensions on this CPU";
    }
    ASSERT_EQ(hardware, portable) << "trial " << trial << " blocks " << n;
  }
}

TEST(Sha256KernelTest, EveryLengthAndSplitMatchesPortableReference) {
  common::Rng rng(8);
  const Bytes data = rng.NextBytes(300);
  for (size_t len = 0; len <= 300; ++len) {
    const Bytes msg(data.begin(), data.begin() + static_cast<ptrdiff_t>(len));
    const Bytes expected = *ReferenceHash(msg, Portable);
    ASSERT_EQ(Sha256::Hash(msg), expected) << "len=" << len;
    // The same bytes fed in three random pieces.
    size_t a = rng.NextU64(len + 1), b = rng.NextU64(len + 1);
    if (a > b) std::swap(a, b);
    Sha256 h;
    h.Update(msg.data(), a);
    h.Update(msg.data() + a, b - a);
    h.Update(msg.data() + b, len - b);
    ASSERT_EQ(h.Finish(), expected) << "len=" << len << " splits " << a
                                    << "," << b;
  }
}

TEST(HmacTest, Rfc4231Case1) {
  Bytes key(20, 0x0b);
  EXPECT_EQ(HexEncode(HmacSha256(key, ToBytes("Hi There"))),
            "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

TEST(HmacTest, Rfc4231Case2) {
  EXPECT_EQ(
      HexEncode(HmacSha256(ToBytes("Jefe"),
                           ToBytes("what do ya want for nothing?"))),
      "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

TEST(HmacTest, LongKeyIsHashedFirst) {
  Bytes long_key(200, 0xaa);
  Bytes msg = ToBytes("data");
  // Must not crash and must differ from using the raw truncated key.
  Bytes mac1 = HmacSha256(long_key, msg);
  Bytes truncated(long_key.begin(), long_key.begin() + 64);
  Bytes mac2 = HmacSha256(truncated, msg);
  EXPECT_NE(mac1, mac2);
}

TEST(HmacTest, KeySeparation) {
  Bytes msg = ToBytes("same message");
  EXPECT_NE(HmacSha256(ToBytes("key1"), msg), HmacSha256(ToBytes("key2"), msg));
}

TEST(DeriveKeyTest, ProducesRequestedLength) {
  Bytes key = ToBytes("master");
  EXPECT_EQ(DeriveKey(key, "ctx", 16).size(), 16u);
  EXPECT_EQ(DeriveKey(key, "ctx", 32).size(), 32u);
  EXPECT_EQ(DeriveKey(key, "ctx", 100).size(), 100u);
}

TEST(DeriveKeyTest, ContextSeparation) {
  Bytes key = ToBytes("master");
  EXPECT_NE(DeriveKey(key, "enc", 32), DeriveKey(key, "mac", 32));
}

TEST(DeriveKeyTest, PrefixConsistency) {
  // Longer outputs extend shorter ones (counter-mode expansion).
  Bytes key = ToBytes("master");
  Bytes short_out = DeriveKey(key, "ctx", 16);
  Bytes long_out = DeriveKey(key, "ctx", 64);
  EXPECT_TRUE(std::equal(short_out.begin(), short_out.end(), long_out.begin()));
}

}  // namespace
}  // namespace pds2::crypto
