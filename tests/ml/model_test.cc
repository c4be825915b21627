#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "common/rng.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"
#include "ml/sgd.h"
#include "synthetic_data.h"

namespace pds2::ml {
namespace {

using common::Rng;

// Finite-difference check of AccumulateGradient for any model.
void CheckGradient(Model& model, const Vec& x, double y, double tol) {
  Vec grad(model.NumParams(), 0.0);
  model.AccumulateGradient(x, y, grad);
  const Vec params = model.GetParams();
  const double h = 1e-6;
  for (size_t i = 0; i < params.size(); ++i) {
    Vec p_plus = params, p_minus = params;
    p_plus[i] += h;
    p_minus[i] -= h;
    model.SetParams(p_plus);
    const double loss_plus = model.ExampleLoss(x, y);
    model.SetParams(p_minus);
    const double loss_minus = model.ExampleLoss(x, y);
    model.SetParams(params);
    const double numeric = (loss_plus - loss_minus) / (2 * h);
    EXPECT_NEAR(grad[i], numeric, tol) << "param " << i;
  }
}

TEST(LinearRegressionModelTest, GradientMatchesFiniteDifference) {
  Rng rng(1);
  LinearRegressionModel model(3);
  model.SetParams({0.5, -1.0, 2.0, 0.1});
  CheckGradient(model, {1.0, -2.0, 0.5}, 3.0, 1e-4);
}

TEST(LinearRegressionModelTest, RecoversTrueWeights) {
  Rng rng(2);
  Vec w_true;
  Dataset data = MakeLinearRegression(500, 3, 0.01, rng, &w_true);
  LinearRegressionModel model(3);
  SgdConfig config;
  config.learning_rate = 0.05;
  config.epochs = 50;
  Train(model, data, config, rng);
  Vec learned = model.GetParams();
  for (size_t i = 0; i < w_true.size(); ++i) {
    EXPECT_NEAR(learned[i], w_true[i], 0.05) << i;
  }
  double squared_error = 0.0;
  for (size_t i = 0; i < data.Size(); ++i) {
    const double err = model.PredictLabel(data.x[i]) - data.y[i];
    squared_error += err * err;
  }
  EXPECT_LT(squared_error / static_cast<double>(data.Size()), 0.01);
}

TEST(LogisticRegressionModelTest, GradientMatchesFiniteDifference) {
  LogisticRegressionModel model(3);
  model.SetParams({0.3, -0.7, 1.2, -0.2});
  CheckGradient(model, {0.5, 1.5, -1.0}, 1.0, 1e-4);
  CheckGradient(model, {0.5, 1.5, -1.0}, 0.0, 1e-4);
}

TEST(LogisticRegressionModelTest, LearnsSeparableData) {
  Rng rng(3);
  Dataset data = MakeTwoGaussians(1000, 4, 4.0, rng);
  auto [train, test] = TrainTestSplit(data, 0.3, rng);
  LogisticRegressionModel model(4);
  SgdConfig config;
  config.epochs = 20;
  Train(model, train, config, rng);
  EXPECT_GT(Accuracy(model, test), 0.93);
}

TEST(LogisticRegressionModelTest, ProbabilityIsCalibratedShape) {
  LogisticRegressionModel model(1);
  model.SetParams({2.0, 0.0});  // p = sigmoid(2x)
  EXPECT_NEAR(model.PredictProbability({0.0}), 0.5, 1e-9);
  EXPECT_GT(model.PredictProbability({5.0}), 0.99);
  EXPECT_LT(model.PredictProbability({-5.0}), 0.01);
}

TEST(SoftmaxRegressionModelTest, GradientMatchesFiniteDifference) {
  Rng rng(4);
  SoftmaxRegressionModel model(2, 3);
  Vec params(model.NumParams());
  for (double& p : params) p = rng.NextGaussian(0.0, 0.5);
  model.SetParams(params);
  CheckGradient(model, {0.7, -1.1}, 2.0, 1e-4);
  CheckGradient(model, {0.7, -1.1}, 0.0, 1e-4);
}

TEST(SoftmaxRegressionModelTest, LearnsClusteredData) {
  Rng rng(5);
  Dataset data = MakeGaussianClusters(1500, 3, 4, 8.0, rng);
  auto [train, test] = TrainTestSplit(data, 0.3, rng);
  SoftmaxRegressionModel model(3, 4);
  SgdConfig config;
  config.epochs = 25;
  Train(model, train, config, rng);
  EXPECT_GT(Accuracy(model, test), 0.9);
}

TEST(MlpModelTest, GradientMatchesFiniteDifference) {
  Rng rng(6);
  MlpModel model(3, 4, rng);
  CheckGradient(model, {0.5, -0.5, 1.0}, 1.0, 1e-4);
  CheckGradient(model, {0.5, -0.5, 1.0}, 0.0, 1e-4);
}

TEST(MlpModelTest, LearnsNonlinearBoundary) {
  // XOR-like data that a linear model cannot fit.
  Rng rng(7);
  Dataset data;
  for (int i = 0; i < 800; ++i) {
    const double a = rng.NextDouble(-1, 1);
    const double b = rng.NextDouble(-1, 1);
    data.x.push_back({a, b});
    data.y.push_back((a * b > 0) ? 1.0 : 0.0);
  }
  MlpModel model(2, 8, rng);
  SgdConfig config;
  config.learning_rate = 0.5;
  config.epochs = 200;
  Train(model, data, config, rng);
  EXPECT_GT(Accuracy(model, data), 0.9);

  LogisticRegressionModel linear(2);
  Train(linear, data, config, rng);
  EXPECT_LT(Accuracy(linear, data), 0.7);  // linear model must fail XOR
}

TEST(ModelTest, CloneIsDeepCopy) {
  LogisticRegressionModel model(2);
  model.SetParams({1.0, 2.0, 3.0});
  auto clone = model.Clone();
  EXPECT_EQ(clone->GetParams(), model.GetParams());
  clone->SetParams({9.0, 9.0, 9.0});
  EXPECT_EQ(model.GetParams(), Vec({1.0, 2.0, 3.0}));
}

TEST(ModelTest, MeanLossOnEmptyDatasetIsZero) {
  LogisticRegressionModel model(2);
  EXPECT_DOUBLE_EQ(model.MeanLoss(Dataset{}), 0.0);
}

TEST(SgdTest, L2RegularizationShrinksWeights) {
  Rng rng(8);
  Dataset data = MakeTwoGaussians(300, 3, 5.0, rng);
  LogisticRegressionModel plain(3), regularized(3);
  SgdConfig config;
  config.epochs = 30;
  Rng rng_a(9), rng_b(9);
  Train(plain, data, config, rng_a);
  config.l2 = 0.1;
  Train(regularized, data, config, rng_b);
  EXPECT_LT(Norm2(regularized.GetParams()), Norm2(plain.GetParams()));
}

TEST(SgdTest, EmptyDatasetIsNoOp) {
  Rng rng(10);
  LogisticRegressionModel model(2);
  TrainStats stats = Train(model, Dataset{}, SgdConfig{}, rng);
  EXPECT_EQ(stats.steps, 0u);
}

TEST(SgdTest, StepCountMatchesSchedule) {
  Rng rng(11);
  Dataset data = MakeTwoGaussians(100, 2, 1.0, rng);
  LogisticRegressionModel model(2);
  SgdConfig config;
  config.epochs = 3;
  config.batch_size = 25;
  TrainStats stats = Train(model, data, config, rng);
  EXPECT_EQ(stats.steps, 12u);  // 4 batches x 3 epochs
}

TEST(SgdTest, DpTrainingStillLearnsWithMildNoise) {
  Rng rng(12);
  Dataset data = MakeTwoGaussians(2000, 4, 5.0, rng);
  LogisticRegressionModel model(4);
  SgdConfig config;
  config.epochs = 10;
  config.batch_size = 64;
  DpConfig dp;
  dp.enabled = true;
  dp.clip_norm = 2.0;
  dp.noise_multiplier = 0.3;
  Train(model, data, config, rng, dp);
  EXPECT_GT(Accuracy(model, data), 0.85);
}

TEST(SgdTest, DpNoiseDegradesWithHugeMultiplier) {
  Rng rng(13);
  Dataset data = MakeTwoGaussians(500, 4, 5.0, rng);
  LogisticRegressionModel clean(4), noisy(4);
  SgdConfig config;
  config.epochs = 10;
  Rng ra(14), rb(14);
  Train(clean, data, config, ra);
  DpConfig dp;
  dp.enabled = true;
  dp.clip_norm = 1.0;
  dp.noise_multiplier = 50.0;
  Train(noisy, data, config, rb, dp);
  EXPECT_GT(Accuracy(clean, data), Accuracy(noisy, data));
}

// FNV-1a over the bit patterns of a parameter vector, one word per step.
uint64_t ParamsDigest(const Vec& params, uint64_t h = 0xcbf29ce484222325ULL) {
  for (double p : params) {
    uint64_t bits;
    std::memcpy(&bits, &p, sizeof(bits));
    h = (h ^ bits) * 0x100000001b3ULL;
  }
  return h;
}

// Trains `model` twice on `data`, once plainly and once with DP-SGD (clip +
// noise), both with weight decay, and digests the parameters after each.
uint64_t TrainDigest(Model& model, const Dataset& data, uint64_t seed) {
  Rng rng(seed);
  SgdConfig config;
  config.learning_rate = 0.05;
  config.epochs = 3;
  config.batch_size = 7;  // the last batch of each epoch is short
  config.l2 = 0.01;
  Train(model, data, config, rng);
  uint64_t h = ParamsDigest(model.GetParams());
  DpConfig dp;
  dp.enabled = true;
  dp.clip_norm = 0.5;
  dp.noise_multiplier = 0.3;
  Train(model, data, config, rng, dp);
  return ParamsDigest(model.GetParams(), h);
}

// Pins the bits SGD produces for every model class: a change to the update
// arithmetic, the RNG draw order or the parameter layout moves a digest.
TEST(SgdTest, TrainedParametersMatchPinnedDigest) {
  Rng data_rng(15);
  Vec w_true;
  const Dataset regression =
      MakeLinearRegression(60, 3, 0.1, data_rng, &w_true);
  const Dataset binary = MakeTwoGaussians(60, 3, 2.0, data_rng);
  const Dataset clusters = MakeGaussianClusters(60, 3, 3, 4.0, data_rng);

  LinearRegressionModel linear(3);
  EXPECT_EQ(TrainDigest(linear, regression, 16), 0x1790008ab6c514acULL);
  LogisticRegressionModel logistic(3);
  EXPECT_EQ(TrainDigest(logistic, binary, 17), 0x17a046aedfd53b1fULL);
  SoftmaxRegressionModel softmax(3, 3);
  EXPECT_EQ(TrainDigest(softmax, clusters, 18), 0xfcdb95b091528f64ULL);
  Rng init_rng(19);
  MlpModel mlp(3, 4, init_rng);
  EXPECT_EQ(TrainDigest(mlp, binary, 20), 0x3004660e02103497ULL);
}

}  // namespace
}  // namespace pds2::ml
