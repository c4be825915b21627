#include "tee/attestation.h"

#include "common/serial.h"

namespace pds2::tee {

using common::Bytes;
using common::Status;
using common::Writer;

namespace {
constexpr char kCertDomain[] = "pds2.tee.cert";
constexpr char kQuoteDomain[] = "pds2.tee.quote";
}  // namespace

Bytes DeviceProvision::CertifiedBytes(const std::string& device_id,
                                      const Bytes& public_key) {
  Writer w;
  w.PutString(device_id);
  w.PutBytes(public_key);
  return w.Take();
}

AttestationService::AttestationService(uint64_t seed)
    : root_key_(crypto::SigningKey::FromSeed(
          common::ToBytes("pds2.attestation.root." + std::to_string(seed)))),
      root_public_key_(root_key_.PublicKey()) {}

DeviceProvision AttestationService::ProvisionDevice(
    const std::string& device_id) {
  DeviceProvision provision{
      device_id,
      crypto::SigningKey::FromSeed(common::ToBytes(
          "pds2.device." + device_id + "." + std::to_string(counter_++))),
      {}};
  provision.certificate = root_key_.SignWithDomain(
      kCertDomain, DeviceProvision::CertifiedBytes(
                       device_id, provision.attestation_key.PublicKey()));
  return provision;
}

Bytes AttestationQuote::SignedBytes() const {
  Writer w;
  w.PutBytes(measurement);
  w.PutBytes(report_data);
  w.PutString(device_id);
  return w.Take();
}

Status VerifyQuote(const AttestationQuote& quote,
                   const Bytes& root_public_key,
                   const Bytes& expected_measurement) {
  // 1. The device key must be certified by the root of trust.
  PDS2_RETURN_IF_ERROR(crypto::VerifySignatureWithDomain(
      root_public_key, kCertDomain,
      DeviceProvision::CertifiedBytes(quote.device_id,
                                      quote.device_public_key),
      quote.device_certificate));
  // 2. The quote itself must be signed by that device key.
  PDS2_RETURN_IF_ERROR(crypto::VerifySignatureWithDomain(
      quote.device_public_key, kQuoteDomain, quote.SignedBytes(),
      quote.signature));
  // 3. The enclave identity must match what the verifier expects.
  if (quote.measurement != expected_measurement) {
    return Status::Unauthenticated(
        "enclave measurement does not match the expected code identity");
  }
  return Status::Ok();
}

}  // namespace pds2::tee
