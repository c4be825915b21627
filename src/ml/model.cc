#include "ml/model.h"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace pds2::ml {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    const double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(z);
  return e / (1.0 + e);
}

// Clamped log for numerically safe cross-entropy.
double SafeLog(double p) { return std::log(std::max(p, 1e-12)); }

}  // namespace

double Model::MeanLoss(const Dataset& data) const {
  if (data.Size() == 0) return 0.0;
  double total = 0.0;
  for (size_t i = 0; i < data.Size(); ++i) {
    total += ExampleLoss(data.x[i], data.y[i]);
  }
  return total / static_cast<double>(data.Size());
}

void Model::SetParams(const Vec& params) {
  assert(params.size() == params_.size());
  params_ = params;
}

void Model::AddToParams(double alpha, const Vec& v) { Axpy(alpha, v, params_); }

// ---------------------------------------------------------------------------
// LinearRegressionModel

LinearRegressionModel::LinearRegressionModel(size_t num_features)
    : Model(num_features + 1) {}

std::unique_ptr<Model> LinearRegressionModel::Clone() const {
  return std::make_unique<LinearRegressionModel>(*this);
}

double LinearRegressionModel::PredictLabel(const Vec& x) const {
  assert(x.size() + 1 == params_.size());
  double z = params_.back();
  for (size_t i = 0; i < x.size(); ++i) z += params_[i] * x[i];
  return z;
}

double LinearRegressionModel::ExampleLoss(const Vec& x, double y) const {
  const double err = PredictLabel(x) - y;
  return 0.5 * err * err;
}

void LinearRegressionModel::AccumulateGradient(const Vec& x, double y,
                                               Vec& grad) const {
  assert(grad.size() == params_.size());
  const double err = PredictLabel(x) - y;
  for (size_t i = 0; i < x.size(); ++i) grad[i] += err * x[i];
  grad.back() += err;
}

// ---------------------------------------------------------------------------
// LogisticRegressionModel

LogisticRegressionModel::LogisticRegressionModel(size_t num_features)
    : Model(num_features + 1) {}

std::unique_ptr<Model> LogisticRegressionModel::Clone() const {
  return std::make_unique<LogisticRegressionModel>(*this);
}

double LogisticRegressionModel::PredictProbability(const Vec& x) const {
  assert(x.size() + 1 == params_.size());
  double z = params_.back();
  for (size_t i = 0; i < x.size(); ++i) z += params_[i] * x[i];
  return Sigmoid(z);
}

double LogisticRegressionModel::PredictLabel(const Vec& x) const {
  return PredictProbability(x) >= 0.5 ? 1.0 : 0.0;
}

double LogisticRegressionModel::ExampleLoss(const Vec& x, double y) const {
  const double p = PredictProbability(x);
  return -(y * SafeLog(p) + (1.0 - y) * SafeLog(1.0 - p));
}

void LogisticRegressionModel::AccumulateGradient(const Vec& x, double y,
                                                 Vec& grad) const {
  assert(grad.size() == params_.size());
  const double err = PredictProbability(x) - y;
  for (size_t i = 0; i < x.size(); ++i) grad[i] += err * x[i];
  grad.back() += err;
}

// ---------------------------------------------------------------------------
// SoftmaxRegressionModel

SoftmaxRegressionModel::SoftmaxRegressionModel(size_t num_features,
                                               size_t num_classes)
    : Model((num_features + 1) * num_classes),
      num_features_(num_features),
      num_classes_(num_classes) {
  assert(num_classes >= 2);
}

std::unique_ptr<Model> SoftmaxRegressionModel::Clone() const {
  return std::make_unique<SoftmaxRegressionModel>(*this);
}

Vec SoftmaxRegressionModel::ClassScores(const Vec& x) const {
  assert(x.size() == num_features_);
  const size_t stride = num_features_ + 1;
  Vec logits(num_classes_);
  for (size_t c = 0; c < num_classes_; ++c) {
    const double* w = &params_[c * stride];
    double z = w[num_features_];
    for (size_t i = 0; i < num_features_; ++i) z += w[i] * x[i];
    logits[c] = z;
  }
  const double max_logit = *std::max_element(logits.begin(), logits.end());
  double sum = 0.0;
  for (double& z : logits) {
    z = std::exp(z - max_logit);
    sum += z;
  }
  for (double& z : logits) z /= sum;
  return logits;
}

double SoftmaxRegressionModel::PredictLabel(const Vec& x) const {
  const Vec probs = ClassScores(x);
  return static_cast<double>(
      std::max_element(probs.begin(), probs.end()) - probs.begin());
}

double SoftmaxRegressionModel::ExampleLoss(const Vec& x, double y) const {
  const Vec probs = ClassScores(x);
  const size_t cls = static_cast<size_t>(y);
  assert(cls < num_classes_);
  return -SafeLog(probs[cls]);
}

void SoftmaxRegressionModel::AccumulateGradient(const Vec& x, double y,
                                                Vec& grad) const {
  assert(grad.size() == params_.size());
  const Vec probs = ClassScores(x);
  const size_t stride = num_features_ + 1;
  const size_t true_cls = static_cast<size_t>(y);
  for (size_t c = 0; c < num_classes_; ++c) {
    const double err = probs[c] - (c == true_cls ? 1.0 : 0.0);
    double* g = &grad[c * stride];
    for (size_t i = 0; i < num_features_; ++i) g[i] += err * x[i];
    g[num_features_] += err;
  }
}

// ---------------------------------------------------------------------------
// MlpModel

MlpModel::MlpModel(size_t num_features, size_t hidden_units, common::Rng& rng)
    : Model(hidden_units * num_features + hidden_units + hidden_units + 1),
      num_features_(num_features),
      hidden_(hidden_units) {
  assert(hidden_units > 0);
  // Xavier-style initialization for the first layer; zeros elsewhere.
  const double scale = 1.0 / std::sqrt(static_cast<double>(num_features));
  for (size_t i = 0; i < hidden_ * num_features_; ++i) {
    params_[i] = rng.NextGaussian(0.0, scale);
  }
  const size_t w2_off = hidden_ * num_features_ + hidden_;
  const double scale2 = 1.0 / std::sqrt(static_cast<double>(hidden_));
  for (size_t i = 0; i < hidden_; ++i) {
    params_[w2_off + i] = rng.NextGaussian(0.0, scale2);
  }
}

std::unique_ptr<Model> MlpModel::Clone() const {
  return std::make_unique<MlpModel>(*this);
}

double MlpModel::PredictProbability(const Vec& x) const {
  assert(x.size() == num_features_);
  const double* w1 = params_.data();
  const double* b1 = w1 + hidden_ * num_features_;
  const double* w2 = b1 + hidden_;
  const double b2 = w2[hidden_];

  double out = b2;
  for (size_t h = 0; h < hidden_; ++h) {
    double z = b1[h];
    const double* row = w1 + h * num_features_;
    for (size_t i = 0; i < num_features_; ++i) z += row[i] * x[i];
    out += w2[h] * std::tanh(z);
  }
  return Sigmoid(out);
}

double MlpModel::PredictLabel(const Vec& x) const {
  return PredictProbability(x) >= 0.5 ? 1.0 : 0.0;
}

double MlpModel::ExampleLoss(const Vec& x, double y) const {
  const double p = PredictProbability(x);
  return -(y * SafeLog(p) + (1.0 - y) * SafeLog(1.0 - p));
}

void MlpModel::AccumulateGradient(const Vec& x, double y, Vec& grad) const {
  assert(grad.size() == params_.size());
  const double* w1 = params_.data();
  const double* b1 = w1 + hidden_ * num_features_;
  const double* w2 = b1 + hidden_;
  const double b2 = w2[hidden_];

  // Forward pass, keeping hidden activations.
  Vec a(hidden_);
  double out = b2;
  for (size_t h = 0; h < hidden_; ++h) {
    double z = b1[h];
    const double* row = w1 + h * num_features_;
    for (size_t i = 0; i < num_features_; ++i) z += row[i] * x[i];
    a[h] = std::tanh(z);
    out += w2[h] * a[h];
  }
  const double p = Sigmoid(out);
  const double delta_out = p - y;  // dL/d(pre-sigmoid output)

  // Backward pass.
  double* g_w1 = grad.data();
  double* g_b1 = g_w1 + hidden_ * num_features_;
  double* g_w2 = g_b1 + hidden_;
  g_w2[hidden_] += delta_out;  // b2
  for (size_t h = 0; h < hidden_; ++h) {
    g_w2[h] += delta_out * a[h];
    const double delta_h = delta_out * w2[h] * (1.0 - a[h] * a[h]);
    g_b1[h] += delta_h;
    double* g_row = g_w1 + h * num_features_;
    for (size_t i = 0; i < num_features_; ++i) g_row[i] += delta_h * x[i];
  }
}

}  // namespace pds2::ml
