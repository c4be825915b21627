#ifndef PDS2_ML_LINALG_H_
#define PDS2_ML_LINALG_H_

#include <vector>

namespace pds2::ml {

/// Dense vector of doubles. ML parameters and feature rows use this
/// directly; gossip learning merges models as flat Vec parameter blocks.
using Vec = std::vector<double>;

/// Dot product; vectors must have equal length.
double Dot(const Vec& a, const Vec& b);

/// y += alpha * x (in place).
void Axpy(double alpha, const Vec& x, Vec& y);

/// Euclidean norm.
double Norm2(const Vec& x);

/// Element-wise convex combination: (1 - t) * a + t * b.
Vec Lerp(const Vec& a, const Vec& b, double t);

/// Weighted average of several parameter vectors (weights need not be
/// normalized; they are divided by their sum). All vectors must share one
/// length and at least one weight must be positive.
Vec WeightedAverage(const std::vector<Vec>& vecs,
                    const std::vector<double>& weights);

}  // namespace pds2::ml

#endif  // PDS2_ML_LINALG_H_
