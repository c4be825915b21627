#include "tee/training_kernel.h"

#include <algorithm>
#include <cstdlib>
#include <vector>

#include "ml/metrics.h"
#include "storage/provider_store.h"

namespace pds2::tee {

using common::Bytes;
using common::Reader;
using common::Result;
using common::Status;
using common::Writer;

Result<Bytes> TrainingKernel::Configure(Reader& r, EnclaveServices& services) {
  PDS2_ASSIGN_OR_RETURN(std::string model_kind, r.GetString());
  PDS2_ASSIGN_OR_RETURN(uint64_t features, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t hidden, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(double lr, r.GetDouble());
  PDS2_ASSIGN_OR_RETURN(uint64_t epochs, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(uint64_t batch, r.GetU64());
  PDS2_ASSIGN_OR_RETURN(double l2, r.GetDouble());
  PDS2_ASSIGN_OR_RETURN(bool dp, r.GetBool());
  PDS2_ASSIGN_OR_RETURN(double clip, r.GetDouble());
  PDS2_ASSIGN_OR_RETURN(double noise, r.GetDouble());
  PDS2_ASSIGN_OR_RETURN(validate_, r.GetBool());
  PDS2_ASSIGN_OR_RETURN(feature_min_, r.GetDouble());
  PDS2_ASSIGN_OR_RETURN(feature_max_, r.GetDouble());
  PDS2_ASSIGN_OR_RETURN(min_label_fraction_, r.GetDouble());
  if (features == 0) return Status::InvalidArgument("zero features");
  if (model_kind == "logistic") {
    model_ = std::make_unique<ml::LogisticRegressionModel>(features);
  } else if (model_kind == "linear") {
    model_ = std::make_unique<ml::LinearRegressionModel>(features);
  } else if (model_kind == "mlp") {
    if (hidden == 0) return Status::InvalidArgument("mlp needs hidden units");
    model_ = std::make_unique<ml::MlpModel>(features, hidden,
                                            services.Entropy());
  } else if (model_kind.rfind("softmax:", 0) == 0) {
    const uint64_t classes = std::strtoull(model_kind.c_str() + 8, nullptr, 10);
    if (classes < 2) return Status::InvalidArgument("bad class count");
    model_ = std::make_unique<ml::SoftmaxRegressionModel>(features, classes);
  } else {
    return Status::InvalidArgument("unknown model kind: " + model_kind);
  }

  sgd_config_.learning_rate = lr;
  sgd_config_.epochs = epochs;
  sgd_config_.batch_size = batch == 0 ? 16 : batch;
  sgd_config_.l2 = l2;
  dp_config_.enabled = dp;
  dp_config_.clip_norm = clip;
  dp_config_.noise_multiplier = noise;
  data_ = ml::Dataset{};
  samples_seen_ = 0;
  initial_params_ = model_->GetParams();
  provider_spans_.clear();
  return Bytes{};
}

common::Status TrainingKernel::ValidateIncoming(
    const ml::Dataset& incoming) const {
  if (!validate_) return Status::Ok();
  size_t positives = 0;
  for (size_t i = 0; i < incoming.Size(); ++i) {
    for (double v : incoming.x[i]) {
      if (v < feature_min_ || v > feature_max_) {
        return Status::FailedPrecondition(
            "in-enclave validation: feature value out of the declared range");
      }
    }
    if (incoming.y[i] > 0.5) ++positives;
  }
  if (min_label_fraction_ > 0.0 && incoming.Size() > 0) {
    const double pos_fraction =
        static_cast<double>(positives) / static_cast<double>(incoming.Size());
    const double minority = std::min(pos_fraction, 1.0 - pos_fraction);
    if (minority < min_label_fraction_) {
      return Status::FailedPrecondition(
          "in-enclave validation: dataset too label-imbalanced");
    }
  }
  return Status::Ok();
}

// Opens the transfer first: a bad blob reports its error even unconfigured.
Result<Bytes> TrainingKernel::LoadData(Reader& r, EnclaveServices& services) {
  PDS2_ASSIGN_OR_RETURN(Bytes sealed, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes provider_pubkey, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes commitment, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(Bytes transport_key,
                        services.DeriveTransportKey(provider_pubkey));
  PDS2_ASSIGN_OR_RETURN(
      ml::Dataset incoming,
      storage::ProviderStorage::OpenTransfer(sealed, transport_key,
                                             commitment));
  if (model_ == nullptr) {
    return Status::FailedPrecondition("kernel not configured");
  }
  PDS2_RETURN_IF_ERROR(ValidateIncoming(incoming));
  const size_t begin = data_.Size();
  data_.Append(incoming);
  provider_spans_.emplace_back(begin, data_.Size());
  Writer w;
  w.PutU64(incoming.Size());
  return w.Take();
}

Result<Bytes> TrainingKernel::Train(Reader&, EnclaveServices& services) {
  ml::TrainStats stats = ml::Train(*model_, data_, sgd_config_,
                                   services.Entropy(), dp_config_);
  samples_seen_ = data_.Size();
  Writer w;
  w.PutDoubleVector(model_->GetParams());
  w.PutU64(stats.steps);
  return w.Take();
}

Result<Bytes> TrainingKernel::SetParams(Reader& r, EnclaveServices&) {
  PDS2_ASSIGN_OR_RETURN(ml::Vec params, r.GetDoubleVector());
  if (params.size() != model_->NumParams()) {
    return Status::InvalidArgument("parameter size mismatch");
  }
  model_->SetParams(params);
  return Bytes{};
}

Result<Bytes> TrainingKernel::GetParams(Reader&, EnclaveServices&) {
  Writer w;
  w.PutDoubleVector(model_->GetParams());
  return w.Take();
}

Result<Bytes> TrainingKernel::Merge(Reader& r, EnclaveServices&) {
  PDS2_ASSIGN_OR_RETURN(ml::Vec peer_params, r.GetDoubleVector());
  PDS2_ASSIGN_OR_RETURN(uint64_t peer_samples, r.GetU64());
  if (peer_params.size() != model_->NumParams()) {
    return Status::InvalidArgument("parameter size mismatch");
  }
  const double own = static_cast<double>(samples_seen_);
  const double peer = static_cast<double>(peer_samples);
  if (own + peer <= 0) {
    model_->SetParams(peer_params);
  } else {
    model_->SetParams(ml::WeightedAverage(
        {model_->GetParams(), peer_params}, {own > 0 ? own : 1e-9, peer}));
  }
  samples_seen_ = static_cast<uint64_t>(own + peer);
  return Bytes{};
}

Result<Bytes> TrainingKernel::MergeAll(Reader& r, EnclaveServices& services) {
  PDS2_ASSIGN_OR_RETURN(uint32_t n, r.GetU32());
  if (n == 0) return Status::InvalidArgument("merge_all with no inputs");
  std::vector<ml::Vec> all_params;
  std::vector<double> weights;
  uint64_t total_samples = 0;
  for (uint32_t i = 0; i < n; ++i) {
    PDS2_ASSIGN_OR_RETURN(ml::Vec params, r.GetDoubleVector());
    PDS2_ASSIGN_OR_RETURN(uint64_t samples, r.GetU64());
    if (params.size() != model_->NumParams()) {
      return Status::InvalidArgument("parameter size mismatch in merge_all");
    }
    all_params.push_back(std::move(params));
    weights.push_back(static_cast<double>(std::max<uint64_t>(1, samples)));
    total_samples += samples;
  }
  model_->SetParams(ml::WeightedAverage(all_params, weights));
  samples_seen_ = total_samples;
  return GetParams(r, services);
}

Result<Bytes> TrainingKernel::SampleCount(Reader&, EnclaveServices&) {
  Writer w;
  w.PutU64(samples_seen_);
  return w.Take();
}

Result<Bytes> TrainingKernel::CoalitionEval(Reader& r, EnclaveServices&) {
  PDS2_ASSIGN_OR_RETURN(uint32_t k, r.GetU32());
  ml::Dataset coalition_data;
  for (uint32_t i = 0; i < k; ++i) {
    PDS2_ASSIGN_OR_RETURN(uint32_t idx, r.GetU32());
    if (idx >= provider_spans_.size()) {
      return Status::OutOfRange("unknown provider index in coalition");
    }
    const auto [begin, end] = provider_spans_[idx];
    for (size_t row = begin; row < end; ++row) {
      coalition_data.x.push_back(data_.x[row]);
      coalition_data.y.push_back(data_.y[row]);
    }
  }
  PDS2_ASSIGN_OR_RETURN(Bytes eval_bytes, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(ml::Dataset eval,
                        storage::DeserializeDataset(eval_bytes));

  // Fresh model from the configured initialization; the kernel's live
  // training state is untouched. Deterministic training seed keeps the
  // utility a pure set function (Shapley axioms need that).
  auto probe = model_->Clone();
  probe->SetParams(initial_params_);
  common::Rng train_rng(0x5eed);
  ml::Train(*probe, coalition_data, sgd_config_, train_rng, dp_config_);
  Writer w;
  w.PutDouble(ml::Accuracy(*probe, eval));
  return w.Take();
}

Result<Bytes> TrainingKernel::Evaluate(Reader& r, EnclaveServices&) {
  PDS2_ASSIGN_OR_RETURN(Bytes dataset_bytes, r.GetBytes());
  PDS2_ASSIGN_OR_RETURN(ml::Dataset eval,
                        storage::DeserializeDataset(dataset_bytes));
  Writer w;
  w.PutDouble(ml::Accuracy(*model_, eval));
  w.PutDouble(model_->MeanLoss(eval));
  return w.Take();
}

Result<Bytes> TrainingKernel::Handle(const std::string& method,
                                     const Bytes& input,
                                     EnclaveServices& services) {
  using K = TrainingKernel;
  // needs_model: refused as unconfigured until `configure` ran.
  struct Row { std::string_view name; Ecall K::*handler; bool needs_model; };
  static constexpr Row kEcalls[] = {
      {"configure", &K::Configure, false}, {"load_data", &K::LoadData, false},
      {"train", &K::Train, true},         {"evaluate", &K::Evaluate, true},
      {"set_params", &K::SetParams, true}, {"get_params", &K::GetParams, true},
      {"merge", &K::Merge, true},         {"merge_all", &K::MergeAll, true},
      {"sample_count", &K::SampleCount, true},
      {"coalition_eval", &K::CoalitionEval, true},
  };
  const auto row =
      std::ranges::find(kEcalls, std::string_view(method), &Row::name);
  // An unconfigured kernel refuses even an unknown method as unconfigured.
  if ((row == std::end(kEcalls) || row->needs_model) && model_ == nullptr) {
    return Status::FailedPrecondition("kernel not configured");
  }
  if (row == std::end(kEcalls)) {
    return Status::NotFound("training kernel: unknown method " + method);
  }
  Reader r(input);
  return (this->*row->handler)(r, services);
}

}  // namespace pds2::tee
