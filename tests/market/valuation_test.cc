#include <gtest/gtest.h>

#include "market/marketplace.h"
#include "market/valuation.h"

namespace pds2::market {
namespace {

using common::Rng;

storage::SemanticMetadata Meta() {
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  return meta;
}

WorkloadSpec ValuationSpec() {
  WorkloadSpec spec;
  spec.name = "valued";
  spec.requirement.required_types = {"iot/sensor"};
  spec.model_kind = "logistic";
  spec.features = 6;
  spec.epochs = 6;
  spec.learning_rate = 0.2;
  spec.reward_pool = 1'000'000;
  spec.min_providers = 4;
  spec.reward_policy = RewardPolicy::kShapley;
  return spec;
}

class ValuationTest : public ::testing::Test {
 protected:
  ValuationTest() : rng_(13) {
    ml::Dataset all = ml::MakeTwoGaussians(1600, 6, 3.0, rng_);
    auto [train, validation] = ml::TrainTestSplit(all, 0.25, rng_);
    validation_ = validation;
    auto parts = ml::PartitionIid(train, 4, rng_);
    ml::CorruptLabels(parts[3], 0.45, rng_);  // one low-quality provider
    for (int i = 0; i < 4; ++i) {
      auto& p = market_.AddProvider("p" + std::to_string(i));
      EXPECT_TRUE(p.store().AddDataset("d", parts[i], Meta()).ok());
    }
    market_.AddExecutor("e0");
    consumer_ = &market_.AddConsumer("c");
  }

  Marketplace market_;
  Rng rng_;
  ml::Dataset validation_;
  ConsumerAgent* consumer_;
};

TEST_F(ValuationTest, EnclaveShapleyRanksNoisyProviderLast) {
  WorkloadSpec spec = ValuationSpec();
  ValuationService valuation(market_.attestation(), 71);
  ASSERT_TRUE(valuation.Setup(spec).ok());

  for (auto& provider : market_.providers()) {
    auto offer = provider->EvaluateWorkload(market_.ontology(), spec);
    ASSERT_TRUE(offer.has_value());
    auto index = valuation.AddContribution(*provider, *offer, spec,
                                           market_.attestation()
                                               .RootPublicKey());
    ASSERT_TRUE(index.ok()) << index.status().ToString();
  }

  auto weights = valuation.ComputeWeights(validation_, /*permutations=*/25,
                                          /*tolerance=*/0.01, /*seed=*/5);
  ASSERT_TRUE(weights.ok()) << weights.status().ToString();
  ASSERT_EQ(weights->size(), 4u);
  // The corrupted provider must be valued below every clean one.
  const uint64_t noisy = weights->at("p3");
  EXPECT_LT(noisy, weights->at("p0"));
  EXPECT_LT(noisy, weights->at("p1"));
  EXPECT_LT(noisy, weights->at("p2"));
  EXPECT_GT(valuation.last_utility_calls(), 4u);
}

TEST_F(ValuationTest, WeightsDriveOnChainSettlement) {
  WorkloadSpec spec = ValuationSpec();
  ValuationService valuation(market_.attestation(), 72);
  ASSERT_TRUE(valuation.Setup(spec).ok());
  for (auto& provider : market_.providers()) {
    auto offer = provider->EvaluateWorkload(market_.ontology(), spec);
    ASSERT_TRUE(valuation
                    .AddContribution(*provider, *offer, spec,
                                     market_.attestation().RootPublicKey())
                    .ok());
  }
  auto weights = valuation.ComputeWeights(validation_, 25, 0.01, /*seed=*/6);
  ASSERT_TRUE(weights.ok());

  RunOptions options;
  options.provider_weights = *weights;
  auto report = market_.RunWorkload(*consumer_, spec, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Settlement follows the in-enclave valuation: noisy provider paid least.
  const uint64_t noisy_reward = report->provider_rewards.at("p3");
  for (const char* clean : {"p0", "p1", "p2"}) {
    EXPECT_LT(noisy_reward, report->provider_rewards.at(clean));
  }
}

TEST_F(ValuationTest, NoContributionsFails) {
  ValuationService valuation(market_.attestation(), 73);
  ASSERT_TRUE(valuation.Setup(ValuationSpec()).ok());
  auto weights = valuation.ComputeWeights(validation_, 10, 0.01, /*seed=*/7);
  EXPECT_FALSE(weights.ok());
}

TEST_F(ValuationTest, ProviderChecksValuationEnclaveAttestation) {
  WorkloadSpec spec = ValuationSpec();
  ValuationService valuation(market_.attestation(), 74);
  ASSERT_TRUE(valuation.Setup(spec).ok());
  auto offer =
      market_.providers()[0]->EvaluateWorkload(market_.ontology(), spec);
  // Wrong root of trust: the provider refuses to seal.
  tee::AttestationService rogue(4242);
  auto refused = valuation.AddContribution(*market_.providers()[0], *offer,
                                           spec, rogue.RootPublicKey());
  EXPECT_FALSE(refused.ok());
}

}  // namespace
}  // namespace pds2::market
