#include "auth/device.h"

#include "common/serial.h"

namespace pds2::auth {

using common::Bytes;
using common::Status;
using common::ToBytes;
using common::Writer;

Bytes SignedReading::SigningBytes() const {
  Writer w;
  w.PutString(device_id);
  w.PutU64(sequence);
  w.PutU64(timestamp);
  w.PutDoubleVector(values);
  return w.Take();
}

Manufacturer::Manufacturer(const std::string& name)
    : key_(crypto::SigningKey::FromSeed(ToBytes("pds2.manufacturer." + name))),
      public_key_(key_.PublicKey()) {}

Bytes Manufacturer::CertifiedBytes(const std::string& device_id,
                                   const Bytes& device_public_key) {
  Writer w;
  w.PutString(device_id);
  w.PutBytes(device_public_key);
  return w.Take();
}

Bytes Manufacturer::CertifyDevice(const std::string& device_id,
                                  const Bytes& device_public_key) const {
  return key_.SignWithDomain(Domain(),
                             CertifiedBytes(device_id, device_public_key));
}

Device::Device(std::string device_id, const Manufacturer& manufacturer)
    : id_(std::move(device_id)),
      key_(crypto::SigningKey::FromSeed(ToBytes("pds2.devkey." + id_))),
      public_key_(key_.PublicKey()),
      certificate_(manufacturer.CertifyDevice(id_, public_key_)) {}

SignedReading Device::Emit(common::SimTime timestamp,
                           std::vector<double> values) {
  SignedReading reading;
  reading.device_id = id_;
  reading.sequence = next_sequence_++;
  reading.timestamp = timestamp;
  reading.values = std::move(values);
  reading.signature =
      key_.SignWithDomain(SignedReading::Domain(), reading.SigningBytes());
  return reading;
}

const char* RejectReasonName(RejectReason reason) {
  switch (reason) {
    case RejectReason::kAccepted:
      return "accepted";
    case RejectReason::kUnknownDevice:
      return "unknown_device";
    case RejectReason::kUntrustedManufacturer:
      return "untrusted_manufacturer";
    case RejectReason::kBadDeviceCertificate:
      return "bad_device_certificate";
    case RejectReason::kBadSignature:
      return "bad_signature";
    case RejectReason::kReplayedSequence:
      return "replayed_sequence";
    case RejectReason::kStaleTimestamp:
      return "stale_timestamp";
  }
  return "?";
}

ReadingVerifier::ReadingVerifier(common::SimTime max_age)
    : max_age_(max_age) {}

void ReadingVerifier::TrustManufacturer(const std::string& name,
                                        const Bytes& public_key) {
  trusted_manufacturers_[name] = public_key;
}

Status ReadingVerifier::RegisterDevice(const std::string& device_id,
                                       const Bytes& public_key,
                                       const Bytes& certificate,
                                       const std::string& manufacturer) {
  auto it = trusted_manufacturers_.find(manufacturer);
  if (it == trusted_manufacturers_.end()) {
    return Status::PermissionDenied("manufacturer not trusted: " +
                                    manufacturer);
  }
  PDS2_RETURN_IF_ERROR(crypto::VerifySignatureWithDomain(
      it->second, Manufacturer::Domain(),
      Manufacturer::CertifiedBytes(device_id, public_key), certificate));
  devices_[device_id] = DeviceRecord{public_key, 0, false};
  return Status::Ok();
}

RejectReason ReadingVerifier::Verify(const SignedReading& reading,
                                     common::SimTime now) {
  auto it = devices_.find(reading.device_id);
  if (it == devices_.end()) return RejectReason::kUnknownDevice;
  DeviceRecord& record = it->second;

  if (!crypto::VerifySignatureWithDomain(record.public_key,
                                         SignedReading::Domain(),
                                         reading.SigningBytes(),
                                         reading.signature)
           .ok()) {
    return RejectReason::kBadSignature;
  }
  if (record.any_seen && reading.sequence <= record.highest_sequence_seen) {
    return RejectReason::kReplayedSequence;
  }
  if (reading.timestamp + max_age_ < now) {
    return RejectReason::kStaleTimestamp;
  }
  record.highest_sequence_seen = reading.sequence;
  record.any_seen = true;
  return RejectReason::kAccepted;
}

std::map<RejectReason, size_t> ReadingVerifier::VerifyBatch(
    const std::vector<SignedReading>& readings, common::SimTime now) {
  std::map<RejectReason, size_t> counts;
  for (const SignedReading& reading : readings) {
    ++counts[Verify(reading, now)];
  }
  return counts;
}

}  // namespace pds2::auth
