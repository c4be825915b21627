#include "market/spec.h"

#include "common/serial.h"
#include "crypto/sha256.h"

namespace pds2::market {

using common::Bytes;
using common::Status;
using common::Writer;

Bytes WorkloadSpec::Serialize() const {
  Writer w;
  w.PutString(name);
  w.PutBytes(requirement.Serialize());
  w.PutBool(validation.enabled);
  w.PutDouble(validation.feature_min);
  w.PutDouble(validation.feature_max);
  w.PutDouble(validation.min_label_fraction);
  w.PutString(model_kind);
  w.PutU64(features);
  w.PutU64(hidden_units);
  w.PutDouble(learning_rate);
  w.PutU64(epochs);
  w.PutU64(batch_size);
  w.PutDouble(l2);
  w.PutBool(dp_enabled);
  w.PutDouble(dp_clip);
  w.PutDouble(dp_noise);
  w.PutU64(reward_pool);
  w.PutU64(min_providers);
  w.PutU64(max_providers);
  w.PutU64(executor_reward_permille);
  w.PutU64(deadline);
  w.PutU8(static_cast<uint8_t>(reward_policy));
  w.PutU8(static_cast<uint8_t>(aggregation));
  w.PutU64(executor_stake);
  return w.Take();
}

Bytes WorkloadSpec::SpecHash() const {
  return crypto::Sha256::Hash(Serialize());
}

Bytes WorkloadSpec::TrainingFingerprint() const {
  Writer w;
  w.PutString("pds2.memo.spec.v1");
  w.PutString(model_kind);
  w.PutU64(features);
  w.PutU64(hidden_units);
  w.PutDouble(learning_rate);
  w.PutU64(epochs);
  w.PutU64(batch_size);
  w.PutDouble(l2);
  w.PutBool(dp_enabled);
  w.PutDouble(dp_clip);
  w.PutDouble(dp_noise);
  w.PutBool(validation.enabled);
  w.PutDouble(validation.feature_min);
  w.PutDouble(validation.feature_max);
  w.PutDouble(validation.min_label_fraction);
  w.PutU8(static_cast<uint8_t>(aggregation));
  return crypto::Sha256::Hash(w.Take());
}

Status WorkloadSpec::Validate() const {
  if (name.empty()) return Status::InvalidArgument("workload needs a name");
  if (features == 0) return Status::InvalidArgument("zero features");
  if (reward_pool == 0) return Status::InvalidArgument("zero reward pool");
  if (min_providers == 0 || max_providers < min_providers) {
    return Status::InvalidArgument("invalid provider bounds");
  }
  if (executor_reward_permille > 1000) {
    return Status::InvalidArgument("executor share above 100%");
  }
  if (model_kind == "mlp" && hidden_units == 0) {
    return Status::InvalidArgument("mlp needs hidden units");
  }
  return Status::Ok();
}

}  // namespace pds2::market
