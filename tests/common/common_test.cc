#include <gtest/gtest.h>

#include "common/bytes.h"
#include "common/hex.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "common/status.h"

namespace pds2::common {
namespace {

TEST(StatusTest, DefaultIsOk) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kOk);
  EXPECT_EQ(s.ToString(), "Ok");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::NotFound("no such block");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  EXPECT_EQ(s.message(), "no such block");
  EXPECT_EQ(s.ToString(), "NotFound: no such block");
}

TEST(StatusTest, EveryCodeHasName) {
  for (int c = 0; c <= static_cast<int>(StatusCode::kInternal); ++c) {
    EXPECT_STRNE(StatusCodeName(static_cast<StatusCode>(c)), "Unknown");
  }
}

TEST(StatusTest, EqualityComparesCodeAndMessage) {
  EXPECT_EQ(Status::NotFound("x"), Status::NotFound("x"));
  EXPECT_FALSE(Status::NotFound("x") == Status::NotFound("y"));
  EXPECT_FALSE(Status::NotFound("x") == Status::Corruption("x"));
}

Status FailingHelper() { return Status::Corruption("bad bytes"); }

Status UsesReturnIfError() {
  PDS2_RETURN_IF_ERROR(FailingHelper());
  return Status::Ok();
}

TEST(StatusTest, ReturnIfErrorPropagates) {
  EXPECT_EQ(UsesReturnIfError().code(), StatusCode::kCorruption);
}

TEST(ResultTest, HoldsValue) {
  Result<int> r = 42;
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(*r, 42);
}

TEST(ResultTest, HoldsError) {
  Result<int> r = Status::OutOfRange("too big");
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kOutOfRange);
}

Result<int> ProduceValue() { return 7; }

Result<int> UsesAssignOrReturn() {
  PDS2_ASSIGN_OR_RETURN(int v, ProduceValue());
  return v * 2;
}

Result<int> ProduceError() { return Status::NotFound("nope"); }

Result<int> PropagatesError() {
  PDS2_ASSIGN_OR_RETURN(int v, ProduceError());
  return v;
}

TEST(ResultTest, AssignOrReturnUnwrapsAndPropagates) {
  auto ok = UsesAssignOrReturn();
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 14);
  EXPECT_EQ(PropagatesError().status().code(), StatusCode::kNotFound);
}

TEST(BytesTest, StringRoundTrip) {
  Bytes b = ToBytes("hello");
  EXPECT_EQ(b.size(), 5u);
  EXPECT_EQ(ToString(b), "hello");
}

TEST(BytesTest, AppendConcatenates) {
  Bytes a = ToBytes("ab");
  Append(a, ToBytes("cd"));
  EXPECT_EQ(ToString(a), "abcd");
}

TEST(BytesTest, ConstantTimeEquals) {
  EXPECT_TRUE(ConstantTimeEquals(ToBytes("same"), ToBytes("same")));
  EXPECT_FALSE(ConstantTimeEquals(ToBytes("same"), ToBytes("sama")));
  EXPECT_FALSE(ConstantTimeEquals(ToBytes("short"), ToBytes("longer")));
  EXPECT_TRUE(ConstantTimeEquals({}, {}));
}

TEST(HexTest, EncodeDecodeRoundTrip) {
  Bytes data = {0x00, 0xde, 0xad, 0xbe, 0xef, 0xff};
  std::string hex = HexEncode(data);
  EXPECT_EQ(hex, "00deadbeefff");
  auto back = HexDecode(hex);
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(*back, data);
}

TEST(HexTest, DecodeAcceptsUppercase) {
  auto r = HexDecode("DEADBEEF");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(HexEncode(*r), "deadbeef");
}

TEST(HexTest, DecodeRejectsOddLength) {
  EXPECT_FALSE(HexDecode("abc").ok());
}

TEST(HexTest, DecodeRejectsNonHex) {
  EXPECT_FALSE(HexDecode("zz").ok());
}

TEST(HexTest, PrefixTruncates) {
  Bytes data(32, 0xab);
  EXPECT_EQ(HexPrefix(data, 8), "abababab");
  EXPECT_EQ(HexPrefix({0x12}, 8), "12");
}

TEST(SimClockTest, AdvanceIsMonotonic) {
  SimClock clock;
  EXPECT_EQ(clock.Now(), 0u);
  clock.AdvanceTo(100);
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(50);  // ignored, in the past
  EXPECT_EQ(clock.Now(), 100u);
  clock.AdvanceTo(500);
  EXPECT_EQ(clock.Now(), 500u);
}

}  // namespace
}  // namespace pds2::common
