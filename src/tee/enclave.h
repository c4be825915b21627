#ifndef PDS2_TEE_ENCLAVE_H_
#define PDS2_TEE_ENCLAVE_H_

#include <memory>
#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "common/rng.h"
#include "tee/attestation.h"

namespace pds2::tee {

/// Enclave facilities available to kernel code (and only to kernel code):
/// private entropy and the enclave's ECDH capability. The transport secret
/// itself is never handed out.
class EnclaveServices {
 public:
  virtual ~EnclaveServices() = default;
  virtual common::Rng& Entropy() = 0;
  virtual common::Result<common::Bytes> DeriveTransportKey(
      const common::Bytes& peer_public_key) = 0;
};

/// The "code" loaded into an enclave. A kernel's identity (name + version)
/// determines the enclave measurement; its state lives exclusively inside
/// the enclave and is reachable only through Ecall — the software analogue
/// of SGX's EPC isolation. Host code holding an Enclave can invoke methods
/// but can never inspect kernel state.
class EnclaveKernel {
 public:
  virtual ~EnclaveKernel() = default;

  virtual std::string Name() const = 0;
  virtual uint64_t Version() const = 0;

  /// Handles one enclave call.
  virtual common::Result<common::Bytes> Handle(const std::string& method,
                                               const common::Bytes& input,
                                               EnclaveServices& services) = 0;
};

/// Computes the measurement (MRENCLAVE analogue) of a kernel identity.
common::Bytes MeasureKernel(const std::string& name, uint64_t version);

/// A simulated SGX enclave: measured launch, remote attestation, sealed
/// storage bound to (device, measurement), an enclave-private transport key
/// for ECDH with providers (derived only through EnclaveServices, inside an
/// ecall), and ecall-only access to the kernel.
class Enclave {
 public:
  /// "EINIT": creates an enclave running `kernel` on the device described
  /// by `provision`. `device_secret` models the CPU's fused sealing secret.
  Enclave(std::unique_ptr<EnclaveKernel> kernel, DeviceProvision provision,
          common::Bytes device_secret, uint64_t entropy_seed);

  Enclave(Enclave&&) = default;
  Enclave& operator=(Enclave&&) = default;

  /// The enclave's code identity.
  const common::Bytes& Measurement() const { return measurement_; }

  /// The enclave's transport public key. The matching secret never leaves
  /// the enclave; providers encrypt data to it after checking a quote.
  const common::Bytes& TransportPublicKey() const {
    return transport_public_key_;
  }

  /// Remote attestation: a quote over `user_data` plus the transport key,
  /// verifiable against the attestation root.
  AttestationQuote GenerateQuote(const common::Bytes& user_data) const;

  /// Seals data so only this enclave identity on this device can unseal it
  /// (key = KDF(device_secret, measurement)).
  common::Bytes Seal(const common::Bytes& data) const;
  common::Result<common::Bytes> Unseal(const common::Bytes& sealed) const;

  /// The only door into the enclave: dispatches to the kernel.
  common::Result<common::Bytes> Ecall(const std::string& method,
                                      const common::Bytes& input);

 private:
  common::Bytes SealingKey() const;

  std::unique_ptr<EnclaveKernel> kernel_;
  DeviceProvision provision_;
  common::Bytes device_secret_;
  common::Bytes measurement_;
  crypto::SigningKey transport_key_;
  common::Bytes transport_public_key_;
  common::Rng rng_;
  // mutable: sealing uses a fresh nonce per call.
  mutable uint64_t seal_nonce_ = 0;
};

}  // namespace pds2::tee

#endif  // PDS2_TEE_ENCLAVE_H_
