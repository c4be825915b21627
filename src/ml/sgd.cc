#include "ml/sgd.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace pds2::ml {

TrainStats Train(Model& model, const Dataset& data, const SgdConfig& config,
                 common::Rng& rng, const DpConfig& dp) {
  TrainStats stats;
  if (data.Size() == 0) return stats;
  assert(config.batch_size > 0);

  const size_t n = data.Size();
  const size_t num_params = model.NumParams();
  // Scratch reused across calls. NetSim may run gossip handlers on a pool,
  // so it is per thread, never shared.
  thread_local std::vector<size_t> order;
  thread_local Vec batch_grad, example_grad;
  order.resize(n);
  std::iota(order.begin(), order.end(), 0);
  batch_grad.resize(num_params);
  example_grad.resize(num_params);

  for (size_t epoch = 0; epoch < config.epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += config.batch_size) {
      const size_t end = std::min(n, start + config.batch_size);
      const double batch_n = static_cast<double>(end - start);
      std::fill(batch_grad.begin(), batch_grad.end(), 0.0);

      if (dp.enabled) {
        // DP-SGD: clip each example's gradient before summing.
        for (size_t k = start; k < end; ++k) {
          const size_t i = order[k];
          std::fill(example_grad.begin(), example_grad.end(), 0.0);
          model.AccumulateGradient(data.x[i], data.y[i], example_grad);
          const double norm = Norm2(example_grad);
          const double factor =
              norm > dp.clip_norm ? dp.clip_norm / norm : 1.0;
          Axpy(factor, example_grad, batch_grad);
        }
        // Gaussian noise calibrated to the clipping bound.
        const double sigma = dp.noise_multiplier * dp.clip_norm;
        if (sigma > 0.0) {
          for (double& g : batch_grad) g += rng.NextGaussian(0.0, sigma);
        }
      } else {
        for (size_t k = start; k < end; ++k) {
          const size_t i = order[k];
          model.AccumulateGradient(data.x[i], data.y[i], batch_grad);
        }
      }

      if (config.l2 > 0.0) {
        Axpy(config.l2 * batch_n, model.GetParams(), batch_grad);
      }
      model.AddToParams(-config.learning_rate / batch_n, batch_grad);
      ++stats.steps;
    }
  }
  return stats;
}

}  // namespace pds2::ml
