#include <gtest/gtest.h>

#include "ml/linalg.h"

namespace pds2::ml {
namespace {

TEST(LinalgTest, DotProduct) {
  EXPECT_DOUBLE_EQ(Dot({1, 2, 3}, {4, 5, 6}), 32.0);
  EXPECT_DOUBLE_EQ(Dot({}, {}), 0.0);
}

TEST(LinalgTest, AxpyAccumulates) {
  Vec y = {1, 1, 1};
  Axpy(2.0, {1, 2, 3}, y);
  EXPECT_EQ(y, Vec({3, 5, 7}));
}

TEST(LinalgTest, Norm2) {
  EXPECT_DOUBLE_EQ(Norm2({3, 4}), 5.0);
  EXPECT_DOUBLE_EQ(Norm2({}), 0.0);
}

TEST(LinalgTest, LerpEndpointsAndMidpoint) {
  Vec a = {0, 10};
  Vec b = {10, 20};
  EXPECT_EQ(Lerp(a, b, 0.0), a);
  EXPECT_EQ(Lerp(a, b, 1.0), b);
  EXPECT_EQ(Lerp(a, b, 0.5), Vec({5, 15}));
}

TEST(LinalgTest, WeightedAverageUnnormalizedWeights) {
  std::vector<Vec> vecs = {{0, 0}, {10, 20}};
  Vec avg = WeightedAverage(vecs, {1.0, 3.0});
  EXPECT_DOUBLE_EQ(avg[0], 7.5);
  EXPECT_DOUBLE_EQ(avg[1], 15.0);
}

TEST(LinalgTest, WeightedAverageSingleVector) {
  Vec avg = WeightedAverage({{1, 2, 3}}, {42.0});
  EXPECT_EQ(avg, Vec({1, 2, 3}));
}

}  // namespace
}  // namespace pds2::ml
