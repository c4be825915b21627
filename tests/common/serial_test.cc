#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"

namespace pds2::common {
namespace {

TEST(SerialTest, PrimitivesRoundTrip) {
  Writer w;
  w.PutU8(0xab);
  w.PutU32(0xdeadbeef);
  w.PutU64(0x0123456789abcdefULL);
  w.PutDouble(3.14159);
  w.PutBool(true);
  w.PutBool(false);

  Reader r(w.data());
  EXPECT_EQ(r.GetU8().value(), 0xab);
  EXPECT_EQ(r.GetU32().value(), 0xdeadbeefu);
  EXPECT_EQ(r.GetU64().value(), 0x0123456789abcdefULL);
  EXPECT_DOUBLE_EQ(r.GetDouble().value(), 3.14159);
  EXPECT_TRUE(r.GetBool().value());
  EXPECT_FALSE(r.GetBool().value());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, StringsAndBytesRoundTrip) {
  Writer w;
  w.PutString("workload spec");
  w.PutBytes({1, 2, 3});
  w.PutString("");

  Reader r(w.data());
  EXPECT_EQ(r.GetString().value(), "workload spec");
  EXPECT_EQ(r.GetBytes().value(), Bytes({1, 2, 3}));
  EXPECT_EQ(r.GetString().value(), "");
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, VectorsRoundTrip) {
  Writer w;
  w.PutDoubleVector({0.5, -1.25});
  w.PutDoubleVector({});

  Reader r(w.data());
  EXPECT_EQ(r.GetDoubleVector().value(), (std::vector<double>{0.5, -1.25}));
  EXPECT_TRUE(r.GetDoubleVector().value().empty());
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, TruncatedBufferFailsWithCorruption) {
  Writer w;
  w.PutU64(123);
  Bytes truncated = w.data();
  truncated.pop_back();
  Reader r(truncated);
  auto result = r.GetU64();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kCorruption);
}

TEST(SerialTest, BytesLengthBeyondBufferFails) {
  Writer w;
  w.PutU32(1000);  // claims 1000 bytes follow
  Reader r(w.data());
  EXPECT_FALSE(r.GetBytes().ok());
}

TEST(SerialTest, InvalidBoolEncodingFails) {
  Bytes raw = {2};
  Reader r(raw);
  EXPECT_FALSE(r.GetBool().ok());
}

TEST(SerialTest, RawBytesRoundTrip) {
  Writer w;
  w.PutRaw({9, 8, 7});
  Reader r(w.data());
  EXPECT_EQ(r.GetRaw(3).value(), Bytes({9, 8, 7}));
  EXPECT_TRUE(r.AtEnd());
}

TEST(SerialTest, RemainingTracksConsumption) {
  Writer w;
  w.PutU32(5);
  Reader r(w.data());
  EXPECT_EQ(r.remaining(), 4u);
  ASSERT_TRUE(r.GetU8().ok());
  EXPECT_EQ(r.remaining(), 3u);
}

// A seeded mixed sequence through every Put*, digested byte by byte with
// FNV-1a. Pins the canonical wire bytes: any change to the encoding moves
// the digest or the length.
TEST(SerialTest, SeededMixedSequenceMatchesPinnedDigest) {
  Rng rng(31);
  Writer w;
  for (int i = 0; i < 500; ++i) {
    switch (rng.NextU64(9)) {
      case 0: w.PutU8(static_cast<uint8_t>(rng.NextU64())); break;
      case 1: w.PutU32(static_cast<uint32_t>(rng.NextU64())); break;
      case 2: w.PutU64(rng.NextU64()); break;
      case 3: w.PutDouble(rng.NextGaussian(0.0, 1e6)); break;
      case 4: w.PutBool(rng.NextU64(2) == 1); break;
      case 5: w.PutBytes(rng.NextBytes(rng.NextU64(40))); break;
      case 6: w.PutString(std::string(rng.NextU64(20), static_cast<char>('a' + i % 26))); break;
      case 7: w.PutRaw(rng.NextBytes(rng.NextU64(12))); break;
      case 8: {
        std::vector<double> v(rng.NextU64(10));
        for (double& x : v) x = rng.NextGaussian();
        w.PutDoubleVector(v);
        break;
      }
    }
  }
  uint64_t h = 0xcbf29ce484222325ULL;
  for (uint8_t b : w.data()) h = (h ^ b) * 0x100000001b3ULL;
  EXPECT_EQ(w.data().size(), 5879u);
  EXPECT_EQ(h, 0x66a37502a9659f13ULL);
}

}  // namespace
}  // namespace pds2::common
