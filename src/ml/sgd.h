#ifndef PDS2_ML_SGD_H_
#define PDS2_ML_SGD_H_

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/model.h"

namespace pds2::ml {

/// Mini-batch SGD hyper-parameters.
struct SgdConfig {
  double learning_rate = 0.1;
  size_t epochs = 5;
  size_t batch_size = 16;
  double l2 = 0.0;  // weight decay coefficient
};

/// Differential-privacy options for DP-SGD (per-example gradient clipping
/// plus Gaussian noise on the summed batch gradient).
struct DpConfig {
  bool enabled = false;
  double clip_norm = 1.0;
  double noise_multiplier = 0.0;  // sigma; noise stddev = sigma * clip_norm
};

/// Summary of a training run.
struct TrainStats {
  size_t steps = 0;  // gradient steps taken
};

/// Trains `model` in place with mini-batch SGD. With `dp.enabled`, runs
/// DP-SGD instead: each example's gradient is clipped to dp.clip_norm, the
/// batch sum is perturbed with N(0, (sigma*clip)^2) per coordinate, then
/// averaged. Empty datasets are a no-op. The shuffle order and gradient
/// buffers are per-thread scratch, so a call allocates nothing once its
/// thread has trained a model of this size.
TrainStats Train(Model& model, const Dataset& data, const SgdConfig& config,
                 common::Rng& rng, const DpConfig& dp = {});

}  // namespace pds2::ml

#endif  // PDS2_ML_SGD_H_
