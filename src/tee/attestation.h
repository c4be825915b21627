#ifndef PDS2_TEE_ATTESTATION_H_
#define PDS2_TEE_ATTESTATION_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "crypto/schnorr.h"

namespace pds2::tee {

/// A device's provisioned attestation identity: its quoting key plus the
/// root-signed certificate binding that key to the device id. Stands in for
/// the EPID/DCAP provisioning a real SGX machine gets from Intel.
struct DeviceProvision {
  std::string device_id;
  crypto::SigningKey attestation_key;
  common::Bytes certificate;  // root signature over (device_id, public key)

  /// Bytes the root signs when certifying a device.
  static common::Bytes CertifiedBytes(const std::string& device_id,
                                      const common::Bytes& public_key);
};

/// The attestation root of trust (the "Intel Attestation Service" of the
/// simulation). Provisions devices and publishes the root public key every
/// verifier pins.
class AttestationService {
 public:
  explicit AttestationService(uint64_t seed);

  const common::Bytes& RootPublicKey() const { return root_public_key_; }

  /// Issues a quoting key + certificate to a device.
  DeviceProvision ProvisionDevice(const std::string& device_id);

 private:
  crypto::SigningKey root_key_;
  common::Bytes root_public_key_;
  uint64_t counter_ = 0;
};

/// A remote-attestation quote: proof, checkable against the root key alone,
/// that an enclave with `measurement` on a certified device produced
/// `report_data`. PDS2 binds the enclave's transport public key into
/// report_data so providers know their data can only be opened inside the
/// attested enclave.
struct AttestationQuote {
  common::Bytes measurement;
  common::Bytes report_data;
  std::string device_id;
  common::Bytes device_public_key;
  common::Bytes device_certificate;
  common::Bytes signature;  // device key over (measurement, report_data)

  common::Bytes SignedBytes() const;
};

/// Full verification chain: device certificate against the root key, then
/// the quote signature against the device key, then the measurement against
/// the expected one. Unauthenticated on any failure.
common::Status VerifyQuote(const AttestationQuote& quote,
                           const common::Bytes& root_public_key,
                           const common::Bytes& expected_measurement);

}  // namespace pds2::tee

#endif  // PDS2_TEE_ATTESTATION_H_
