// Test-only synthetic datasets for the regression and multiclass models,
// deterministic given the Rng. The shipped generators live in
// ml/dataset.h; no shipped workload trains on these shapes.

#ifndef PDS2_TESTS_ML_SYNTHETIC_DATA_H_
#define PDS2_TESTS_ML_SYNTHETIC_DATA_H_

#include <cassert>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace pds2::ml {

/// Linear regression: y = w.x + b + noise, with the true weights returned
/// through `w_true` (bias appended last) for recovery checks.
inline Dataset MakeLinearRegression(size_t n, size_t d, double noise_stddev,
                                    common::Rng& rng, Vec* w_true) {
  Vec w(d + 1);  // last entry is the bias
  for (double& v : w) v = rng.NextGaussian();
  *w_true = w;
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    Vec row(d);
    for (double& v : row) v = rng.NextGaussian();
    double target = w[d];
    for (size_t j = 0; j < d; ++j) target += w[j] * row[j];
    target += rng.NextGaussian(0.0, noise_stddev);
    data.x.push_back(std::move(row));
    data.y.push_back(target);
  }
  return data;
}

/// Multiclass: `classes` Gaussian clusters at random centers. Labels are
/// class indices 0..classes-1.
inline Dataset MakeGaussianClusters(size_t n, size_t d, size_t classes,
                                    double spread, common::Rng& rng) {
  assert(classes >= 2);
  std::vector<Vec> centers(classes, Vec(d));
  for (auto& c : centers) {
    for (double& v : c) v = rng.NextGaussian(0.0, spread);
  }
  Dataset data;
  for (size_t i = 0; i < n; ++i) {
    const size_t cls = rng.NextU64(classes);
    Vec row(d);
    for (size_t j = 0; j < d; ++j) {
      row[j] = centers[cls][j] + rng.NextGaussian();
    }
    data.x.push_back(std::move(row));
    data.y.push_back(static_cast<double>(cls));
  }
  return data;
}

}  // namespace pds2::ml

#endif  // PDS2_TESTS_ML_SYNTHETIC_DATA_H_
