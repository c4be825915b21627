#include <gtest/gtest.h>


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

}  // namespace
}  // namespace pds2::common
