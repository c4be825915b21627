#include "tee/enclave.h"

#include "common/serial.h"
#include "crypto/cipher.h"
#include "crypto/sha256.h"

namespace pds2::tee {

using common::Bytes;
using common::Result;
using common::Writer;

namespace {
constexpr char kQuoteDomain[] = "pds2.tee.quote";
}  // namespace

Bytes MeasureKernel(const std::string& name, uint64_t version) {
  Writer w;
  w.PutString("pds2.enclave.measurement");
  w.PutString(name);
  w.PutU64(version);
  return crypto::Sha256::Hash(w.data());
}

Enclave::Enclave(std::unique_ptr<EnclaveKernel> kernel,
                 DeviceProvision provision, Bytes device_secret,
                 uint64_t entropy_seed)
    : kernel_(std::move(kernel)),
      provision_(std::move(provision)),
      device_secret_(std::move(device_secret)),
      measurement_(MeasureKernel(kernel_->Name(), kernel_->Version())),
      transport_key_(crypto::SigningKey::FromSeed(crypto::Sha256::Hash2(
          device_secret_,
          crypto::Sha256::Hash2(measurement_,
                                common::ToBytes(std::to_string(entropy_seed)))))),
      transport_public_key_(transport_key_.PublicKey()),
      rng_(entropy_seed) {}

AttestationQuote Enclave::GenerateQuote(const Bytes& user_data) const {
  AttestationQuote quote;
  quote.measurement = measurement_;
  // Bind the transport key into the report so a verifier knows encrypting
  // to it reaches exactly this enclave.
  Writer report;
  report.PutBytes(transport_public_key_);
  report.PutBytes(user_data);
  quote.report_data = report.Take();
  quote.device_id = provision_.device_id;
  quote.device_public_key = provision_.attestation_key.PublicKey();
  quote.device_certificate = provision_.certificate;
  quote.signature = provision_.attestation_key.SignWithDomain(
      kQuoteDomain, quote.SignedBytes());
  return quote;
}

Bytes Enclave::SealingKey() const {
  // Bound to device AND measurement: neither another device nor another
  // enclave identity can derive it (MRENCLAVE sealing policy).
  Bytes base = crypto::Sha256::Hash2(device_secret_, measurement_);
  return crypto::DeriveKey(base, "pds2.tee.seal", 32);
}

Bytes Enclave::Seal(const Bytes& data) const {
  crypto::AuthCipher cipher(SealingKey());
  Writer nonce;
  nonce.PutU64(seal_nonce_++);
  return cipher.Seal(data, nonce.Take());
}

Result<Bytes> Enclave::Unseal(const Bytes& sealed) const {
  crypto::AuthCipher cipher(SealingKey());
  return cipher.Open(sealed);
}

namespace {

// Adapter handing the kernel exactly the two capabilities it may use.
class ServicesAdapter : public EnclaveServices {
 public:
  ServicesAdapter(common::Rng& rng, const crypto::SigningKey& transport_key)
      : rng_(rng), transport_key_(transport_key) {}

  common::Rng& Entropy() override { return rng_; }

  Result<Bytes> DeriveTransportKey(const Bytes& peer_public_key) override {
    return transport_key_.SharedSecret(peer_public_key);
  }

 private:
  common::Rng& rng_;
  const crypto::SigningKey& transport_key_;
};

}  // namespace

Result<Bytes> Enclave::Ecall(const std::string& method, const Bytes& input) {
  ServicesAdapter services(rng_, transport_key_);
  return kernel_->Handle(method, input, services);
}

}  // namespace pds2::tee
