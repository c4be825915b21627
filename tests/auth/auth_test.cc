#include <gtest/gtest.h>

#include "auth/device.h"
#include "common/rng.h"

namespace pds2::auth {
namespace {

using common::SimTime;

constexpr SimTime kMaxAge = 60 * common::kMicrosPerSecond;

class AuthTest : public ::testing::Test {
 protected:
  AuthTest()
      : acme_("acme"),
        shady_("shady"),
        device_("thermo-001", acme_),
        verifier_(kMaxAge) {
    verifier_.TrustManufacturer("acme", acme_.PublicKey());
    EXPECT_TRUE(verifier_
                    .RegisterDevice(device_.id(), device_.PublicKey(),
                                    device_.Certificate(), "acme")
                    .ok());
  }

  Manufacturer acme_;
  Manufacturer shady_;
  Device device_;
  ReadingVerifier verifier_;
};

TEST_F(AuthTest, GenuineReadingAccepted) {
  SignedReading reading = device_.Emit(1000, {21.5});
  EXPECT_EQ(verifier_.Verify(reading, 2000), RejectReason::kAccepted);
}

TEST_F(AuthTest, TamperedValuesRejected) {
  SignedReading reading = device_.Emit(1000, {21.5});
  reading.values[0] = 99.0;  // inflate the reading after signing
  EXPECT_EQ(verifier_.Verify(reading, 2000), RejectReason::kBadSignature);
}

TEST_F(AuthTest, ForgedDeviceRejected) {
  SignedReading reading = device_.Emit(1000, {21.5});
  reading.device_id = "thermo-002";  // claim another device produced it
  EXPECT_EQ(verifier_.Verify(reading, 2000), RejectReason::kUnknownDevice);
}

TEST_F(AuthTest, ReplayedReadingRejected) {
  SignedReading reading = device_.Emit(1000, {21.5});
  EXPECT_EQ(verifier_.Verify(reading, 2000), RejectReason::kAccepted);
  // Selling the same reading twice (paper §IV-B) fails on the sequence.
  EXPECT_EQ(verifier_.Verify(reading, 3000), RejectReason::kReplayedSequence);
}

TEST_F(AuthTest, OutOfOrderOldSequenceRejected) {
  SignedReading r0 = device_.Emit(1000, {1.0});
  SignedReading r1 = device_.Emit(1100, {2.0});
  EXPECT_EQ(verifier_.Verify(r1, 2000), RejectReason::kAccepted);
  EXPECT_EQ(verifier_.Verify(r0, 2000), RejectReason::kReplayedSequence);
}

TEST_F(AuthTest, StaleReadingRejected) {
  SignedReading reading = device_.Emit(1000, {21.5});
  EXPECT_EQ(verifier_.Verify(reading, 1000 + kMaxAge + 1),
            RejectReason::kStaleTimestamp);
}

TEST_F(AuthTest, UntrustedManufacturerDeviceCannotRegister) {
  Device shady_device("fake-001", shady_);
  auto status =
      verifier_.RegisterDevice(shady_device.id(), shady_device.PublicKey(),
                               shady_device.Certificate(), "shady");
  EXPECT_EQ(status.code(), common::StatusCode::kPermissionDenied);
}

TEST_F(AuthTest, ForgedCertificateRejectedAtRegistration) {
  // A device key certified by the wrong manufacturer fails the chain.
  Device shady_device("fake-002", shady_);
  auto status =
      verifier_.RegisterDevice(shady_device.id(), shady_device.PublicKey(),
                               shady_device.Certificate(), "acme");
  EXPECT_FALSE(status.ok());
}

TEST_F(AuthTest, BatchVerificationCountsReasons) {
  common::Rng rng(1);
  std::vector<SignedReading> batch;
  for (int i = 0; i < 10; ++i) {
    batch.push_back(device_.Emit(1000 + i, {rng.NextDouble()}));
  }
  batch.push_back(batch[0]);  // replay
  SignedReading tampered = device_.Emit(2000, {1.0});
  tampered.values[0] = -1.0;
  batch.push_back(tampered);

  auto counts = verifier_.VerifyBatch(batch, 5000);
  EXPECT_EQ(counts[RejectReason::kAccepted], 10u);
  EXPECT_EQ(counts[RejectReason::kReplayedSequence], 1u);
  EXPECT_EQ(counts[RejectReason::kBadSignature], 1u);
}

TEST_F(AuthTest, RejectReasonNamesAreStable) {
  EXPECT_STREQ(RejectReasonName(RejectReason::kAccepted), "accepted");
  EXPECT_STREQ(RejectReasonName(RejectReason::kReplayedSequence),
               "replayed_sequence");
}

TEST_F(AuthTest, MultipleDevicesIndependentReplayWindows) {
  Device second("thermo-002", acme_);
  ASSERT_TRUE(verifier_
                  .RegisterDevice(second.id(), second.PublicKey(),
                                  second.Certificate(), "acme")
                  .ok());
  SignedReading r1 = device_.Emit(1000, {1.0});
  SignedReading r2 = second.Emit(1000, {2.0});
  EXPECT_EQ(verifier_.Verify(r1, 2000), RejectReason::kAccepted);
  // Same sequence number from a different device is fine.
  EXPECT_EQ(verifier_.Verify(r2, 2000), RejectReason::kAccepted);
}

}  // namespace
}  // namespace pds2::auth
