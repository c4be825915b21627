#ifndef PDS2_MARKET_VALUATION_H_
#define PDS2_MARKET_VALUATION_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "market/actors.h"
#include "market/spec.h"
#include "rewards/shapley.h"
#include "tee/attestation.h"
#include "tee/enclave.h"

namespace pds2::market {

/// Privacy-preserving data valuation (paper §IV-A meets §III-B): the
/// consumer rents a dedicated valuation enclave; each participating
/// provider — after verifying its attestation, exactly as with a training
/// executor — seals its dataset to it; data-Shapley weights are then
/// estimated with the *in-enclave* coalition utility (`coalition_eval`),
/// so the consumer learns coalition accuracies and final weights, never
/// records. The resulting integer weights plug directly into
/// `RunOptions::provider_weights` for an on-chain kShapley settlement.
class ValuationService {
 public:
  ValuationService(tee::AttestationService& attestation, uint64_t seed);

  /// The valuation enclave (providers verify its quote before sealing).
  const tee::Enclave& enclave() const { return *enclave_; }

  /// Configures the enclave kernel with the workload's model/hyperparams.
  common::Status Setup(const WorkloadSpec& spec);

  /// One provider contributes: attestation check, ECDH, sealed transfer,
  /// in-enclave commitment verification. Returns the provider's coalition
  /// index.
  common::Result<size_t> AddContribution(
      ProviderAgent& provider, const storage::DatasetSummary& offer,
      const WorkloadSpec& spec, const common::Bytes& attestation_root);

  /// Truncated-Monte-Carlo data Shapley (`rewards::SampleShapley`, seeded
  /// by `seed`) over the enclave utility, scored against the consumer's
  /// validation set. Runs without a pool: the oracle issues ecalls, which
  /// the enclave does not synchronise. Returns per-provider integer
  /// weights (scaled to sum to ~`weight_scale`) keyed by provider name.
  common::Result<std::map<std::string, uint64_t>> ComputeWeights(
      const ml::Dataset& validation, size_t permutations, double tolerance,
      uint64_t seed, uint64_t weight_scale = 1'000'000);

  /// Raw (possibly negative) Shapley estimates from the last ComputeWeights
  /// call, by coalition index.
  const std::vector<double>& last_values() const { return last_values_; }
  /// Number of in-enclave utility evaluations the last run needed.
  size_t last_utility_calls() const { return last_utility_calls_; }

 private:
  crypto::SigningKey identity_;
  mutable std::unique_ptr<tee::Enclave> enclave_;
  std::vector<std::string> provider_names_;
  std::vector<double> last_values_;
  size_t last_utility_calls_ = 0;
};

}  // namespace pds2::market

#endif  // PDS2_MARKET_VALUATION_H_
