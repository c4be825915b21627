#ifndef PDS2_TEE_TRAINING_KERNEL_H_
#define PDS2_TEE_TRAINING_KERNEL_H_

#include <memory>
#include <string>

#include "common/serial.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "tee/enclave.h"

namespace pds2::tee {

/// The standard PDS2 model-training workload kernel. Providers' data enters
/// sealed to the enclave's transport key and is decrypted, verified against
/// its Merkle commitment, and accumulated entirely inside the enclave; the
/// host only ever sees (and gossips) model parameters. This realizes the
/// paper's §II-E requirement that even executors cannot access the data
/// they compute on.
///
/// Ecall methods (all arguments serialized with common::Writer):
///   "configure"  (string model, u64 features, u64 hidden, double lr,
///                 u64 epochs, u64 batch, double l2, bool dp, double clip,
///                 double noise, bool validate, double feat_min,
///                 double feat_max, double min_label_fraction) -> ()
///       model in {"logistic", "linear", "mlp", "softmax:<classes>"}
///       The validate block enables in-enclave data checks (§IV-C): every
///       incoming record's features must lie in [feat_min, feat_max] and
///       binary datasets must not be more imbalanced than
///       min_label_fraction; violating datasets are rejected wholesale.
///   "load_data"  (bytes sealed, bytes provider_pubkey, bytes commitment)
///                -> u64 records_loaded
///       Derives the transport key via enclave ECDH, opens the transfer,
///       verifies the commitment, appends to the private training set.
///   "train"      () -> (doubles params, u64 steps)
///   "set_params" (doubles params) -> ()
///   "get_params" () -> doubles params
///   "merge"      (doubles peer_params, u64 peer_samples) -> ()
///       Sample-count-weighted average (gossip merge rule).
///   "merge_all"  (u32 n, n x (doubles params, u64 samples)) -> doubles
///       Deterministic sample-weighted all-reduce: every executor feeding
///       the same inputs in the same canonical order computes bit-identical
///       parameters, so their on-chain result hashes agree.
///   "sample_count" () -> u64
///   "evaluate"   (bytes serialized_dataset) -> (double accuracy, double loss)
///   "coalition_eval" (u32 k, k x u32 provider_index, bytes eval_dataset)
///                -> double accuracy
///       Trains a FRESH model (from the configured initialization) on the
///       union of the given providers' contributions and scores it on the
///       supplied evaluation set — all inside the enclave. This is the
///       utility oracle for privacy-preserving data-Shapley valuation
///       (paper §IV-A): the host learns coalition accuracies, never data.
class TrainingKernel : public EnclaveKernel {
 public:
  static constexpr uint64_t kVersion = 3;

  std::string Name() const override { return "pds2.training"; }
  uint64_t Version() const override { return kVersion; }

  common::Result<common::Bytes> Handle(const std::string& method,
                                       const common::Bytes& input,
                                       EnclaveServices& services) override;

 private:
  // The ecall handlers, one per row of Handle's table.
  using Ecall =
      common::Result<common::Bytes>(common::Reader&, EnclaveServices&);
  Ecall Configure, LoadData, Train, SetParams, GetParams, Merge, MergeAll,
      SampleCount, CoalitionEval, Evaluate;

  common::Status ValidateIncoming(const ml::Dataset& incoming) const;

  std::unique_ptr<ml::Model> model_;
  ml::SgdConfig sgd_config_;
  ml::DpConfig dp_config_;
  ml::Dataset data_;           // never leaves the enclave
  uint64_t samples_seen_ = 0;  // training samples backing current params
  ml::Vec initial_params_;     // configured initialization (coalition_eval)
  // Record span [begin, end) contributed by each load_data call, in order.
  std::vector<std::pair<size_t, size_t>> provider_spans_;

  // In-enclave validation policy (configure's validate block).
  bool validate_ = false;
  double feature_min_ = -1e30;
  double feature_max_ = 1e30;
  double min_label_fraction_ = 0.0;
};

}  // namespace pds2::tee

#endif  // PDS2_TEE_TRAINING_KERNEL_H_
