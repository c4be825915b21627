// E4b — Privacy-preserving (in-enclave) data valuation.
//
// Extension of E4 closing the paper's §IV-A loop inside the platform:
// coalition utilities are evaluated by the `coalition_eval` ecall of a
// dedicated valuation enclave, so the consumer obtains Shapley weights
// without ever seeing records. Reports cost (ecalls, wall time) versus
// provider count and confirms the noisy provider is priced down.

#include <algorithm>
#include <cstdint>
#include <cstdio>

#include "bench_util.h"
#include "market/marketplace.h"
#include "market/valuation.h"

namespace {

using namespace pds2;

storage::SemanticMetadata Meta() {
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor"};
  return meta;
}

}  // namespace

int main() {
  bench::Banner("E4b: in-enclave Shapley valuation",
                "data value computed inside the TEE (IV-A x III-B)");

  std::printf("%6s | %12s %12s %10s | %16s %16s %16s\n", "n", "ecalls",
              "wall ms", "perms", "clean avg wt", "clean min wt", "noisy wt");

  for (size_t n : {4u, 6u, 8u, 10u}) {
    market::MarketConfig config;
    config.seed = 100 + n;
    market::Marketplace m(config);
    common::Rng rng(n);

    ml::Dataset all = ml::MakeTwoGaussians(250 * n + 600, 6, 2.5, rng);
    auto [train, validation] =
        ml::TrainTestSplit(all, 600.0 / static_cast<double>(all.Size()), rng);
    auto parts = ml::PartitionIid(train, n, rng);
    ml::CorruptLabels(parts[n - 1], 0.45, rng);  // last provider is noisy

    market::WorkloadSpec spec;
    spec.name = "valuation-bench";
    spec.requirement.required_types = {"iot/sensor"};
    spec.model_kind = "logistic";
    spec.features = 6;
    spec.epochs = 6;
    spec.reward_pool = 1;
    spec.min_providers = 1;

    market::ValuationService valuation(m.attestation(), 500 + n);
    if (!valuation.Setup(spec).ok()) return 1;

    for (size_t i = 0; i < n; ++i) {
      auto& p = m.AddProvider("p" + std::to_string(i));
      (void)p.store().AddDataset("d", parts[i], Meta());
      auto offer = p.EvaluateWorkload(m.ontology(), spec);
      auto added = valuation.AddContribution(p, *offer, spec,
                                             m.attestation().RootPublicKey());
      if (!added.ok()) {
        std::printf("contribution failed: %s\n",
                    added.status().ToString().c_str());
        return 1;
      }
    }

    const size_t perms = 20;
    bench::Timer timer;
    auto weights =
        valuation.ComputeWeights(validation, perms, 0.01, /*seed=*/77);
    const double wall_ms = timer.ElapsedMs();
    if (!weights.ok()) {
      std::printf("valuation failed: %s\n",
                  weights.status().ToString().c_str());
      return 1;
    }

    uint64_t clean_total = 0;
    uint64_t clean_min = UINT64_MAX;
    for (size_t i = 0; i + 1 < n; ++i) {
      const uint64_t weight = weights->at("p" + std::to_string(i));
      clean_total += weight;
      clean_min = std::min(clean_min, weight);
    }
    const uint64_t noisy = weights->at("p" + std::to_string(n - 1));
    std::printf("%6zu | %12zu %12.1f %10zu | %16llu %16llu %16llu\n", n,
                valuation.last_utility_calls(), wall_ms, perms,
                static_cast<unsigned long long>(clean_total / (n - 1)),
                static_cast<unsigned long long>(clean_min),
                static_cast<unsigned long long>(noisy));
  }
  std::printf("\n(noisy provider consistently valued far below clean "
              "providers; ecalls stay well under 2^n thanks to truncated "
              "Monte-Carlo + memoization)\n");
  return 0;
}
