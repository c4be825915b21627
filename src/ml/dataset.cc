#include "ml/dataset.h"

#include <algorithm>
#include <cassert>
#include <numeric>

namespace pds2::ml {

void Dataset::Append(const Dataset& other) {
  assert(x.empty() || other.x.empty() ||
         x[0].size() == other.x[0].size());
  x.insert(x.end(), other.x.begin(), other.x.end());
  y.insert(y.end(), other.y.begin(), other.y.end());
}

Dataset Dataset::Subset(const std::vector<size_t>& indices) const {
  Dataset out;
  out.x.reserve(indices.size());
  out.y.reserve(indices.size());
  for (size_t i : indices) {
    assert(i < Size());
    out.x.push_back(x[i]);
    out.y.push_back(y[i]);
  }
  return out;
}

Dataset MakeTwoGaussians(size_t n, size_t d, double separation,
                         common::Rng& rng) {
  assert(d > 0);
  // Random unit direction for the class offset.
  Vec direction(d);
  for (double& v : direction) v = rng.NextGaussian();
  const double norm = Norm2(direction);
  for (double& v : direction) v /= norm;

  Dataset data;
  data.x.reserve(n);
  data.y.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double label = rng.NextBool(0.5) ? 1.0 : 0.0;
    const double offset = (label > 0.5 ? 0.5 : -0.5) * separation;
    Vec row(d);
    for (size_t j = 0; j < d; ++j) {
      row[j] = rng.NextGaussian() + offset * direction[j];
    }
    data.x.push_back(std::move(row));
    data.y.push_back(label);
  }
  return data;
}

void CorruptLabels(Dataset& data, double rate, common::Rng& rng) {
  for (double& label : data.y) {
    if (rng.NextBool(rate)) label = label > 0.5 ? 0.0 : 1.0;
  }
}

std::pair<Dataset, Dataset> TrainTestSplit(const Dataset& data,
                                           double test_fraction,
                                           common::Rng& rng) {
  assert(test_fraction > 0.0 && test_fraction < 1.0);
  std::vector<size_t> idx(data.Size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.Shuffle(idx);
  const size_t test_n = static_cast<size_t>(
      static_cast<double>(data.Size()) * test_fraction);
  std::vector<size_t> test_idx(idx.begin(), idx.begin() + static_cast<ptrdiff_t>(test_n));
  std::vector<size_t> train_idx(idx.begin() + static_cast<ptrdiff_t>(test_n), idx.end());
  return {data.Subset(train_idx), data.Subset(test_idx)};
}

std::vector<Dataset> PartitionIid(const Dataset& data, size_t k,
                                  common::Rng& rng) {
  assert(k > 0);
  std::vector<size_t> idx(data.Size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.Shuffle(idx);
  std::vector<Dataset> parts(k);
  for (size_t i = 0; i < idx.size(); ++i) {
    parts[i % k].x.push_back(data.x[idx[i]]);
    parts[i % k].y.push_back(data.y[idx[i]]);
  }
  return parts;
}

std::vector<Dataset> PartitionByLabel(const Dataset& data, size_t k,
                                      size_t shards_per_node,
                                      common::Rng& rng) {
  assert(k > 0 && shards_per_node > 0);
  std::vector<size_t> idx(data.Size());
  std::iota(idx.begin(), idx.end(), 0);
  std::stable_sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return data.y[a] < data.y[b];
  });

  const size_t total_shards = k * shards_per_node;
  const size_t shard_size = std::max<size_t>(1, idx.size() / total_shards);
  std::vector<size_t> shard_order(total_shards);
  std::iota(shard_order.begin(), shard_order.end(), 0);
  rng.Shuffle(shard_order);

  std::vector<Dataset> parts(k);
  for (size_t s = 0; s < total_shards; ++s) {
    const size_t node = s / shards_per_node;
    const size_t shard = shard_order[s];
    const size_t begin = shard * shard_size;
    const size_t end = (shard == total_shards - 1) ? idx.size()
                                                   : std::min(idx.size(), begin + shard_size);
    for (size_t i = begin; i < end; ++i) {
      parts[node].x.push_back(data.x[idx[i]]);
      parts[node].y.push_back(data.y[idx[i]]);
    }
  }
  return parts;
}

std::vector<Dataset> PartitionWeighted(const Dataset& data,
                                       const std::vector<double>& weights,
                                       common::Rng& rng) {
  assert(!weights.empty());
  double total = 0.0;
  for (double w : weights) {
    assert(w > 0.0);
    total += w;
  }
  std::vector<size_t> idx(data.Size());
  std::iota(idx.begin(), idx.end(), 0);
  rng.Shuffle(idx);

  std::vector<Dataset> parts(weights.size());
  // Cumulative allocation so that all examples are used exactly once.
  size_t assigned = 0;
  double cumulative = 0.0;
  for (size_t p = 0; p < weights.size(); ++p) {
    cumulative += weights[p];
    const size_t upto =
        (p == weights.size() - 1)
            ? idx.size()
            : static_cast<size_t>(cumulative / total *
                                  static_cast<double>(idx.size()));
    for (; assigned < upto; ++assigned) {
      parts[p].x.push_back(data.x[idx[assigned]]);
      parts[p].y.push_back(data.y[idx[assigned]]);
    }
  }
  return parts;
}

}  // namespace pds2::ml
