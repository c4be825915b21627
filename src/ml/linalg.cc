#include "ml/linalg.h"

#include <cassert>
#include <cmath>

namespace pds2::ml {

double Dot(const Vec& a, const Vec& b) {
  assert(a.size() == b.size());
  double sum = 0.0;
  for (size_t i = 0; i < a.size(); ++i) sum += a[i] * b[i];
  return sum;
}

void Axpy(double alpha, const Vec& x, Vec& y) {
  assert(x.size() == y.size());
  for (size_t i = 0; i < x.size(); ++i) y[i] += alpha * x[i];
}

double Norm2(const Vec& x) { return std::sqrt(Dot(x, x)); }

Vec Lerp(const Vec& a, const Vec& b, double t) {
  assert(a.size() == b.size());
  Vec out(a.size());
  for (size_t i = 0; i < a.size(); ++i) out[i] = (1.0 - t) * a[i] + t * b[i];
  return out;
}

Vec WeightedAverage(const std::vector<Vec>& vecs,
                    const std::vector<double>& weights) {
  assert(!vecs.empty());
  assert(vecs.size() == weights.size());
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  Vec out(vecs[0].size(), 0.0);
  for (size_t i = 0; i < vecs.size(); ++i) {
    assert(vecs[i].size() == out.size());
    Axpy(weights[i] / total, vecs[i], out);
  }
  return out;
}

}  // namespace pds2::ml
