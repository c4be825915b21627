#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "ml/dataset.h"
#include "synthetic_data.h"

namespace pds2::ml {
namespace {

using common::Rng;

TEST(DatasetTest, TwoGaussiansShape) {
  Rng rng(1);
  Dataset data = MakeTwoGaussians(200, 5, 3.0, rng);
  EXPECT_EQ(data.Size(), 200u);
  EXPECT_EQ(data.NumFeatures(), 5u);
  for (double y : data.y) EXPECT_TRUE(y == 0.0 || y == 1.0);
}

TEST(DatasetTest, TwoGaussiansAreLinearlySeparatedWhenFarApart) {
  Rng rng(2);
  Dataset data = MakeTwoGaussians(500, 2, 10.0, rng);
  // Class means should be far apart relative to unit in-class spread.
  Vec mean0(2, 0.0), mean1(2, 0.0);
  size_t n0 = 0, n1 = 0;
  for (size_t i = 0; i < data.Size(); ++i) {
    if (data.y[i] < 0.5) {
      Axpy(1.0, data.x[i], mean0);
      ++n0;
    } else {
      Axpy(1.0, data.x[i], mean1);
      ++n1;
    }
  }
  Vec diff(2);
  for (size_t j = 0; j < 2; ++j) {
    diff[j] = mean0[j] / static_cast<double>(n0) -
              mean1[j] / static_cast<double>(n1);
  }
  EXPECT_GT(Norm2(diff), 8.0);
}

TEST(DatasetTest, CorruptLabelsFlipsExpectedFraction) {
  Rng rng(5);
  Dataset data = MakeTwoGaussians(2000, 2, 1.0, rng);
  std::vector<double> original = data.y;
  CorruptLabels(data, 0.25, rng);
  size_t flipped = 0;
  for (size_t i = 0; i < data.Size(); ++i) {
    if (data.y[i] != original[i]) ++flipped;
  }
  EXPECT_NEAR(static_cast<double>(flipped) / 2000.0, 0.25, 0.04);
}

TEST(DatasetTest, SubsetAndAppend) {
  Rng rng(6);
  Dataset data = MakeTwoGaussians(10, 2, 1.0, rng);
  Dataset sub = data.Subset({0, 5, 9});
  EXPECT_EQ(sub.Size(), 3u);
  EXPECT_EQ(sub.x[1], data.x[5]);
  Dataset merged = sub;
  merged.Append(data.Subset({1}));
  EXPECT_EQ(merged.Size(), 4u);
  EXPECT_EQ(merged.x[3], data.x[1]);
}

TEST(DatasetTest, TrainTestSplitSizesAndDisjointness) {
  Rng rng(7);
  Dataset data = MakeTwoGaussians(100, 2, 1.0, rng);
  // Tag each row uniquely via its feature values to check disjointness.
  auto [train, test] = TrainTestSplit(data, 0.3, rng);
  EXPECT_EQ(test.Size(), 30u);
  EXPECT_EQ(train.Size(), 70u);
}

TEST(DatasetTest, PartitionIidCoversAllExamples) {
  Rng rng(8);
  Dataset data = MakeTwoGaussians(103, 2, 1.0, rng);
  auto parts = PartitionIid(data, 4, rng);
  ASSERT_EQ(parts.size(), 4u);
  size_t total = 0;
  for (const auto& p : parts) {
    total += p.Size();
    EXPECT_GE(p.Size(), 25u);  // near-equal
  }
  EXPECT_EQ(total, 103u);
}

TEST(DatasetTest, PartitionByLabelIsSkewed) {
  Rng rng(9);
  Dataset data = MakeGaussianClusters(800, 2, 8, 5.0, rng);
  auto parts = PartitionByLabel(data, 8, 2, rng);
  ASSERT_EQ(parts.size(), 8u);
  // With 2 shards per node over 8 classes, each node should see at most ~3
  // distinct labels (shards are contiguous label ranges).
  for (const auto& p : parts) {
    std::set<double> labels(p.y.begin(), p.y.end());
    EXPECT_LE(labels.size(), 4u);
    EXPECT_GE(p.Size(), 1u);
  }
  size_t total = 0;
  for (const auto& p : parts) total += p.Size();
  EXPECT_EQ(total, 800u);
}

TEST(DatasetTest, PartitionWeightedProportions) {
  Rng rng(10);
  Dataset data = MakeTwoGaussians(1000, 2, 1.0, rng);
  auto parts = PartitionWeighted(data, {1.0, 3.0, 6.0}, rng);
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_NEAR(static_cast<double>(parts[0].Size()), 100.0, 2.0);
  EXPECT_NEAR(static_cast<double>(parts[1].Size()), 300.0, 2.0);
  EXPECT_NEAR(static_cast<double>(parts[2].Size()), 600.0, 2.0);
  EXPECT_EQ(parts[0].Size() + parts[1].Size() + parts[2].Size(), 1000u);
}

TEST(DatasetTest, EmptyDatasetBehaviour) {
  Dataset empty;
  EXPECT_EQ(empty.Size(), 0u);
  EXPECT_EQ(empty.NumFeatures(), 0u);
  Dataset sub = empty.Subset({});
  EXPECT_EQ(sub.Size(), 0u);
}

}  // namespace
}  // namespace pds2::ml
