#ifndef PDS2_ML_MODEL_H_
#define PDS2_ML_MODEL_H_

#include <memory>

#include "ml/dataset.h"
#include "ml/linalg.h"

namespace pds2::ml {

/// Abstract trainable model that owns one flat parameter buffer. The
/// flat-vector view is what makes decentralized aggregation generic: gossip
/// merging and FedAvg both operate on GetParams()/SetParams() without
/// knowing the architecture.
class Model {
 public:
  virtual ~Model() = default;

  /// Deep copy with identical parameters.
  virtual std::unique_ptr<Model> Clone() const = 0;

  size_t NumParams() const { return params_.size(); }
  /// A view of the parameters, valid until the model is next mutated.
  const Vec& GetParams() const { return params_; }
  /// Copies `params` (NumParams() entries) in, reusing the buffer.
  void SetParams(const Vec& params);
  /// params += alpha * v, in place: the SGD step.
  void AddToParams(double alpha, const Vec& v);

  /// Predicted label: class index for classifiers, value for regressors.
  virtual double PredictLabel(const Vec& x) const = 0;

  /// Loss of a single example under the current parameters.
  virtual double ExampleLoss(const Vec& x, double y) const = 0;

  /// Adds this example's loss gradient (w.r.t. the flat parameters) into
  /// `grad`, which must have NumParams() entries.
  virtual void AccumulateGradient(const Vec& x, double y, Vec& grad) const = 0;

  /// Mean loss over a dataset.
  double MeanLoss(const Dataset& data) const;

 protected:
  explicit Model(size_t num_params) : params_(num_params, 0.0) {}

  Vec params_;
};

/// Ordinary least squares via SGD: y_hat = w.x + b, squared loss.
/// params_ is [w_0..w_{d-1}, bias]; LogisticRegressionModel shares it.
class LinearRegressionModel : public Model {
 public:
  explicit LinearRegressionModel(size_t num_features);

  std::unique_ptr<Model> Clone() const override;
  double PredictLabel(const Vec& x) const override;
  double ExampleLoss(const Vec& x, double y) const override;
  void AccumulateGradient(const Vec& x, double y, Vec& grad) const override;
};

/// Binary logistic regression: p = sigmoid(w.x + b), log loss, labels 0/1.
class LogisticRegressionModel : public Model {
 public:
  explicit LogisticRegressionModel(size_t num_features);

  std::unique_ptr<Model> Clone() const override;
  double PredictLabel(const Vec& x) const override;
  double ExampleLoss(const Vec& x, double y) const override;
  void AccumulateGradient(const Vec& x, double y, Vec& grad) const override;

  /// P(y = 1 | x).
  double PredictProbability(const Vec& x) const;
};

/// Multiclass softmax regression with cross-entropy loss.
class SoftmaxRegressionModel : public Model {
 public:
  SoftmaxRegressionModel(size_t num_features, size_t num_classes);

  std::unique_ptr<Model> Clone() const override;
  double PredictLabel(const Vec& x) const override;
  double ExampleLoss(const Vec& x, double y) const override;
  void AccumulateGradient(const Vec& x, double y, Vec& grad) const override;

  size_t num_classes() const { return num_classes_; }

 private:
  Vec ClassScores(const Vec& x) const;  // softmax probabilities

  // Layout: per class, [w_0..w_{d-1}, bias].
  size_t num_features_;
  size_t num_classes_;
};

/// One-hidden-layer MLP (tanh activation) with a sigmoid output for binary
/// classification. Deliberately small — the evaluation compares systems,
/// not architectures — but a genuine nonlinear model with backprop.
class MlpModel : public Model {
 public:
  MlpModel(size_t num_features, size_t hidden_units, common::Rng& rng);

  std::unique_ptr<Model> Clone() const override;
  double PredictLabel(const Vec& x) const override;
  double ExampleLoss(const Vec& x, double y) const override;
  void AccumulateGradient(const Vec& x, double y, Vec& grad) const override;

  double PredictProbability(const Vec& x) const;

 private:
  // Layout: W1 (hidden x d) || b1 (hidden) || w2 (hidden) || b2 (1).
  size_t num_features_;
  size_t hidden_;
};

}  // namespace pds2::ml

#endif  // PDS2_ML_MODEL_H_
