#include <gtest/gtest.h>

#include "common/rng.h"
#include "ml/metrics.h"
#include "ml/sgd.h"

namespace pds2::ml {
namespace {

using common::Rng;

TEST(AccuracyTest, EmptyDatasetScoresZero) {
  LogisticRegressionModel model(1);
  EXPECT_DOUBLE_EQ(Accuracy(model, Dataset{}), 0.0);
}

TEST(AccuracyTest, CountsMatchingLabels) {
  // Weight 1, bias 0: predicts 1 exactly for positive features.
  LogisticRegressionModel model(1);
  model.SetParams({1.0, 0.0});
  Dataset data;
  for (double x : {-2.0, -1.0, 1.0, 2.0}) {
    data.x.push_back({x});
    data.y.push_back(1.0);
  }
  EXPECT_DOUBLE_EQ(Accuracy(model, data), 0.5);
  for (size_t i = 0; i < 2; ++i) data.y[i] = 0.0;
  EXPECT_DOUBLE_EQ(Accuracy(model, data), 1.0);
}

TEST(AccuracyTest, TrainedModelBeatsChance) {
  Rng rng(3);
  Dataset all = MakeTwoGaussians(2000, 4, 3.0, rng);
  auto [train, test] = TrainTestSplit(all, 0.3, rng);
  LogisticRegressionModel model(4);
  SgdConfig config;
  config.epochs = 15;
  Train(model, train, config, rng);
  EXPECT_GT(Accuracy(model, test), 0.9);
}

}  // namespace
}  // namespace pds2::ml
