#ifndef PDS2_MARKET_SPEC_H_
#define PDS2_MARKET_SPEC_H_

#include <string>

#include "common/bytes.h"
#include "common/result.h"
#include "common/sim_clock.h"
#include "storage/semantic.h"

namespace pds2::market {

/// How provider rewards are weighted at settlement.
enum class RewardPolicy : uint8_t {
  kByRecords = 0,  // proportional to contributed records (default)
  kShapley = 1,    // data-Shapley weights computed by the consumer
};

/// How executors aggregate their local models (paper §II-F: "consumers may
/// direct the executors to use one of several decentralized aggregation
/// mechanisms").
enum class AggregationMethod : uint8_t {
  /// Symmetric all-reduce: every executor merges the full state list and
  /// computes the result independently (default).
  kAllReduce = 0,
  /// Star topology with a TEE-hosted aggregator: the first executor's
  /// enclave merges everyone's parameters and redistributes — the
  /// "replace the central aggregator with trusted hardware" design the
  /// paper cites ([20], [21]). Cheaper in messages, but the aggregator
  /// enclave is a liveness (not privacy) single point.
  kTeeStar = 1,
};

/// Executor-side (in-enclave) data validation (paper §IV-C): requirements
/// too complex for metadata matching are checked on the actual records,
/// privately, inside the enclave before the data joins the training set.
struct DataValidation {
  bool enabled = false;
  double feature_min = -1e30;        // every feature value within
  double feature_max = 1e30;         //   [feature_min, feature_max]
  double min_label_fraction = 0.0;   // minority-class share (binary tasks)
};

/// A complete workload specification — the "binding contract" a consumer
/// submits (paper §II-C): input-data preconditions, the training task,
/// rewards, and the conditions for starting.
struct WorkloadSpec {
  std::string name;

  // Input-data preconditions (matched by the storage subsystems).
  storage::DataRequirement requirement;
  // Deep preconditions, verified on the records inside the enclave.
  DataValidation validation;

  // The training task.
  std::string model_kind = "logistic";  // logistic | linear | mlp | softmax:<k>
  uint64_t features = 0;
  uint64_t hidden_units = 0;            // mlp only
  double learning_rate = 0.2;
  uint64_t epochs = 5;
  uint64_t batch_size = 16;
  double l2 = 0.0;
  bool dp_enabled = false;              // §IV-D mitigation
  double dp_clip = 1.0;
  double dp_noise = 0.0;

  // Contract economics and conditions.
  uint64_t reward_pool = 0;
  uint64_t min_providers = 1;
  uint64_t max_providers = 64;
  uint64_t executor_reward_permille = 100;
  /// Accountability bond each executor escrows at registration; refunded at
  /// settlement unless the executor provably misbehaved (wrong result vote,
  /// or a consumer-reported attestation mismatch), in which case half goes
  /// to the consumer and half is burned. 0 = no bonding (legacy behaviour).
  uint64_t executor_stake = 0;
  common::SimTime deadline = 0;
  RewardPolicy reward_policy = RewardPolicy::kByRecords;
  AggregationMethod aggregation = AggregationMethod::kAllReduce;

  common::Bytes Serialize() const;

  /// SHA-256 of the serialized spec — registered on-chain at deployment.
  common::Bytes SpecHash() const;

  /// Hash of only the fields that determine the computed result: the
  /// training task and the in-enclave validation gates. Economics, naming
  /// and deadlines are excluded, so two workloads that would train the
  /// same model share one memoization key (store/memo.h) even when their
  /// prices differ.
  common::Bytes TrainingFingerprint() const;

  /// Sanity-checks field combinations before submission.
  common::Status Validate() const;
};

}  // namespace pds2::market

#endif  // PDS2_MARKET_SPEC_H_
