#ifndef PDS2_AUTH_DEVICE_H_
#define PDS2_AUTH_DEVICE_H_

#include <map>
#include <string>
#include <vector>

#include "common/bytes.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "crypto/schnorr.h"

namespace pds2::auth {

/// One sensor reading, signed at the device before it ever leaves it
/// (paper §IV-B: "data should be signed directly by the device to minimize
/// the risk of forgery, and include timestamps to prevent the user from
/// creating multiple copies and reselling them").
struct SignedReading {
  std::string device_id;
  uint64_t sequence = 0;            // strictly increasing per device
  common::SimTime timestamp = 0;
  std::vector<double> values;       // sensor channels
  common::Bytes signature;

  common::Bytes SigningBytes() const;

  static const char* Domain() { return "pds2.reading"; }
};

/// A manufacturer: the root that endorses device keys. The endorsement is
/// the paper's "seal of quality" — verifiers decide which manufacturers
/// they trust.
class Manufacturer {
 public:
  explicit Manufacturer(const std::string& name);

  const common::Bytes& PublicKey() const { return public_key_; }

  /// Issues a device certificate over (device_id, device public key).
  common::Bytes CertifyDevice(const std::string& device_id,
                              const common::Bytes& device_public_key) const;

  static common::Bytes CertifiedBytes(const std::string& device_id,
                                      const common::Bytes& device_public_key);
  static const char* Domain() { return "pds2.device.cert"; }

 private:
  crypto::SigningKey key_;
  common::Bytes public_key_;
};

/// A simulated IoT device with a burned-in key, a manufacturer certificate
/// and a monotonic sequence counter. Emits signed, timestamped readings.
class Device {
 public:
  Device(std::string device_id, const Manufacturer& manufacturer);

  const std::string& id() const { return id_; }
  const common::Bytes& PublicKey() const { return public_key_; }
  const common::Bytes& Certificate() const { return certificate_; }

  /// Produces the next signed reading.
  SignedReading Emit(common::SimTime timestamp, std::vector<double> values);

 private:
  std::string id_;
  crypto::SigningKey key_;
  common::Bytes public_key_;
  common::Bytes certificate_;
  uint64_t next_sequence_ = 0;
};

/// Why a reading was rejected (counted separately by experiment E7).
enum class RejectReason {
  kAccepted = 0,
  kUnknownDevice,
  kUntrustedManufacturer,
  kBadDeviceCertificate,
  kBadSignature,
  kReplayedSequence,
  kStaleTimestamp,
};

const char* RejectReasonName(RejectReason reason);

/// Executor-side verification pipeline: checks manufacturer trust, the
/// device certificate chain, the reading signature, replay (per-device
/// sequence numbers) and staleness (timestamp window). Stateful: remembers
/// the highest sequence seen per device.
class ReadingVerifier {
 public:
  /// `max_age` bounds how old a reading's timestamp may be relative to the
  /// verification time.
  explicit ReadingVerifier(common::SimTime max_age);

  /// Declares a manufacturer's key trusted.
  void TrustManufacturer(const std::string& name,
                         const common::Bytes& public_key);

  /// Registers a device (id, public key, certificate, manufacturer).
  common::Status RegisterDevice(const std::string& device_id,
                                const common::Bytes& public_key,
                                const common::Bytes& certificate,
                                const std::string& manufacturer);

  /// Verifies one reading at `now`. kAccepted advances the replay window.
  RejectReason Verify(const SignedReading& reading, common::SimTime now);

  /// Convenience batch verification; returns per-reason counts.
  std::map<RejectReason, size_t> VerifyBatch(
      const std::vector<SignedReading>& readings, common::SimTime now);

 private:
  struct DeviceRecord {
    common::Bytes public_key;
    uint64_t highest_sequence_seen = 0;
    bool any_seen = false;
  };

  common::SimTime max_age_;
  std::map<std::string, common::Bytes> trusted_manufacturers_;
  std::map<std::string, DeviceRecord> devices_;
};

}  // namespace pds2::auth

#endif  // PDS2_AUTH_DEVICE_H_
