#ifndef PDS2_ML_DATASET_H_
#define PDS2_ML_DATASET_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ml/linalg.h"

namespace pds2::ml {

/// A labelled dataset: one feature row per example plus a numeric label
/// (class index for classification, target value for regression).
struct Dataset {
  std::vector<Vec> x;
  std::vector<double> y;

  size_t Size() const { return x.size(); }
  size_t NumFeatures() const { return x.empty() ? 0 : x[0].size(); }

  /// Appends all examples of `other` (feature widths must match).
  void Append(const Dataset& other);
  /// New dataset containing the examples at `indices`.
  Dataset Subset(const std::vector<size_t>& indices) const;
};

// ---------------------------------------------------------------------------
// Synthetic generators. All experiment workloads are generated (the paper's
// IoT user data is unavailable by construction); generators are
// deterministic given the Rng.

/// Binary classification: two Gaussian clusters in d dimensions whose means
/// are `separation` apart along a random direction. Labels 0/1.
Dataset MakeTwoGaussians(size_t n, size_t d, double separation,
                         common::Rng& rng);

/// Flips the label of each example with probability `rate` (binary labels
/// only). Models a low-quality or malicious data provider.
void CorruptLabels(Dataset& data, double rate, common::Rng& rng);

// ---------------------------------------------------------------------------
// Splitting and partitioning.

/// Random (train, test) split; `test_fraction` in (0, 1).
std::pair<Dataset, Dataset> TrainTestSplit(const Dataset& data,
                                           double test_fraction,
                                           common::Rng& rng);

/// Shuffles and splits into `k` near-equal IID partitions.
std::vector<Dataset> PartitionIid(const Dataset& data, size_t k,
                                  common::Rng& rng);

/// Label-skewed partitioning: examples are sorted by label and dealt out in
/// contiguous shards, so each partition sees few labels — the standard
/// non-IID stress for decentralized learning.
std::vector<Dataset> PartitionByLabel(const Dataset& data, size_t k,
                                      size_t shards_per_node,
                                      common::Rng& rng);

/// Partitions with heterogeneous sizes drawn proportionally to `weights`
/// (each weight > 0). Every example lands in exactly one partition.
std::vector<Dataset> PartitionWeighted(const Dataset& data,
                                       const std::vector<double>& weights,
                                       common::Rng& rng);

}  // namespace pds2::ml

#endif  // PDS2_ML_DATASET_H_
