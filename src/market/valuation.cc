#include "market/valuation.h"

#include <algorithm>

#include "common/serial.h"
#include "crypto/sha256.h"
#include "storage/provider_store.h"
#include "tee/training_kernel.h"

namespace pds2::market {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::ToBytes;
using common::Writer;

ValuationService::ValuationService(tee::AttestationService& attestation,
                                   uint64_t seed)
    : identity_(crypto::SigningKey::FromSeed(
          ToBytes("pds2.valuation." + std::to_string(seed)))) {
  enclave_ = std::make_unique<tee::Enclave>(
      std::make_unique<tee::TrainingKernel>(),
      attestation.ProvisionDevice("valuation." + std::to_string(seed)),
      crypto::Sha256::Hash(ToBytes("valuation.fused." + std::to_string(seed))),
      seed);
}

Status ValuationService::Setup(const WorkloadSpec& spec) {
  Writer w;
  w.PutString(spec.model_kind);
  w.PutU64(spec.features);
  w.PutU64(spec.hidden_units);
  w.PutDouble(spec.learning_rate);
  w.PutU64(spec.epochs);
  w.PutU64(spec.batch_size);
  w.PutDouble(spec.l2);
  w.PutBool(false);  // valuation probes run without DP noise
  w.PutDouble(1.0);
  w.PutDouble(0.0);
  w.PutBool(spec.validation.enabled);
  w.PutDouble(spec.validation.feature_min);
  w.PutDouble(spec.validation.feature_max);
  w.PutDouble(spec.validation.min_label_fraction);
  provider_names_.clear();
  auto result = enclave_->Ecall("configure", w.Take());
  return result.ok() ? Status::Ok() : result.status();
}

Result<size_t> ValuationService::AddContribution(
    ProviderAgent& provider, const storage::DatasetSummary& offer,
    const WorkloadSpec& spec, const Bytes& attestation_root) {
  // The provider applies the same trust protocol as with an executor:
  // quote verification against the root, then sealing to the enclave key.
  const tee::AttestationQuote quote = enclave_->GenerateQuote({});
  PDS2_ASSIGN_OR_RETURN(
      SealedContribution contribution,
      provider.PrepareContribution(offer, spec, /*workload_instance=*/0,
                                   quote, attestation_root,
                                   enclave_->Measurement(),
                                   identity_.PublicKey()));
  Writer load;
  load.PutBytes(contribution.sealed_data);
  load.PutBytes(contribution.provider_public_key);
  load.PutBytes(contribution.commitment);
  PDS2_ASSIGN_OR_RETURN(Bytes out, enclave_->Ecall("load_data", load.Take()));
  (void)out;
  provider_names_.push_back(provider.name());
  return provider_names_.size() - 1;
}

Result<std::map<std::string, uint64_t>> ValuationService::ComputeWeights(
    const ml::Dataset& validation, size_t permutations, double tolerance,
    uint64_t seed, uint64_t weight_scale) {
  if (provider_names_.empty()) {
    return Status::FailedPrecondition("no contributions to value");
  }
  const Bytes eval_bytes = storage::SerializeDataset(validation);

  // Utility oracle: one ecall per distinct coalition (memoized).
  Status oracle_error = Status::Ok();
  rewards::CachedUtility utility(
      [this, &eval_bytes, &oracle_error](const std::vector<size_t>& coalition) {
        if (coalition.empty()) return 0.5;
        Writer w;
        w.PutU32(static_cast<uint32_t>(coalition.size()));
        for (size_t idx : coalition) w.PutU32(static_cast<uint32_t>(idx));
        w.PutBytes(eval_bytes);
        auto result = enclave_->Ecall("coalition_eval", w.Take());
        if (!result.ok()) {
          if (oracle_error.ok()) oracle_error = result.status();
          return 0.5;
        }
        Reader r(*result);
        auto acc = r.GetDouble();
        return acc.ok() ? *acc : 0.5;
      });

  auto sampled = rewards::SampleShapley(
      provider_names_.size(), std::ref(utility), {permutations, tolerance},
      seed, /*pool=*/nullptr);
  PDS2_RETURN_IF_ERROR(oracle_error);
  last_utility_calls_ = utility.misses();

  const std::vector<double> normalized = rewards::NormalizeToRewards(
      sampled.values, static_cast<double>(weight_scale));
  std::map<std::string, uint64_t> weights;
  for (size_t i = 0; i < provider_names_.size(); ++i) {
    weights[provider_names_[i]] =
        std::max<uint64_t>(1, static_cast<uint64_t>(normalized[i]));
  }
  return weights;
}

}  // namespace pds2::market
