#include <gtest/gtest.h>

#include <functional>
#include <utility>

#include "market/marketplace.h"
#include "ml/metrics.h"

namespace pds2::market {
namespace {

using common::Result;
using common::Rng;

storage::SemanticMetadata TempMeta() {
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  meta.numeric["sampling_hz"] = 10.0;
  return meta;
}

WorkloadSpec BasicSpec() {
  WorkloadSpec spec;
  spec.name = "predict-temperature-anomaly";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 8;
  spec.reward_pool = 1'000'000;
  spec.min_providers = 2;
  spec.max_providers = 16;
  spec.executor_reward_permille = 200;
  return spec;
}

class MarketplaceTest : public ::testing::Test {
 protected:
  MarketplaceTest() : market_(MarketConfig{}), rng_(77) {
    // 4 providers with eligible data, 2 executors, 1 consumer.
    ml::Dataset all = ml::MakeTwoGaussians(1200, 4, 4.0, rng_);
    auto [train, test] = ml::TrainTestSplit(all, 0.2, rng_);
    test_ = test;
    auto parts = ml::PartitionWeighted(train, {1.0, 2.0, 3.0, 4.0}, rng_);
    for (int i = 0; i < 4; ++i) {
      ProviderAgent& p =
          market_.AddProvider("provider-" + std::to_string(i));
      EXPECT_TRUE(
          p.store().AddDataset("temps", parts[i], TempMeta()).ok());
    }
    market_.AddExecutor("executor-0");
    market_.AddExecutor("executor-1");
    consumer_ = &market_.AddConsumer("consumer");
  }

  Marketplace market_;
  Rng rng_;
  ml::Dataset test_;
  ConsumerAgent* consumer_;
};

TEST_F(MarketplaceTest, FullLifecycleProducesUsefulModel) {
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_EQ(report->num_providers, 4u);
  EXPECT_EQ(report->num_executors, 2u);
  EXPECT_FALSE(report->result_hash.empty());
  EXPECT_FALSE(report->model_params.empty());
  EXPECT_GT(report->gas_used, 0u);
  EXPECT_FALSE(report->audit_log.empty());

  // The aggregated model must actually work.
  ml::LogisticRegressionModel model(4);
  model.SetParams(report->model_params);
  EXPECT_GT(ml::Accuracy(model, test_), 0.9);
}

TEST_F(MarketplaceTest, RewardsProportionalToRecords) {
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok());

  // Providers hold ~1:2:3:4 data; rewards must be ordered accordingly.
  const uint64_t r0 = report->provider_rewards.at("provider-0");
  const uint64_t r1 = report->provider_rewards.at("provider-1");
  const uint64_t r2 = report->provider_rewards.at("provider-2");
  const uint64_t r3 = report->provider_rewards.at("provider-3");
  EXPECT_LT(r0, r1);
  EXPECT_LT(r1, r2);
  EXPECT_LT(r2, r3);

  // Executor pool: 20% split between the two executors.
  const uint64_t e0 = report->executor_rewards.at("executor-0");
  const uint64_t e1 = report->executor_rewards.at("executor-1");
  EXPECT_EQ(e0, e1);
  EXPECT_EQ(e0 + e1, BasicSpec().reward_pool * 200 / 1000);

  // Conservation: everything paid out sums to the pool (contract refunds
  // dust to the consumer, so paid <= pool and the contract is empty).
  uint64_t paid = e0 + e1 + r0 + r1 + r2 + r3;
  EXPECT_LE(paid, BasicSpec().reward_pool);
  EXPECT_GT(paid, BasicSpec().reward_pool - 100);  // tiny dust only
  EXPECT_EQ(market_.chain().GetBalance(
                chain::ContractAddress("workload", report->instance)),
            0u);
}

TEST_F(MarketplaceTest, ShapleyPolicyUsesSuppliedWeights) {
  WorkloadSpec spec = BasicSpec();
  spec.reward_policy = RewardPolicy::kShapley;
  RunOptions options;
  options.provider_weights = {{"provider-0", 70},
                              {"provider-1", 10},
                              {"provider-2", 10},
                              {"provider-3", 10}};
  auto report = market_.RunWorkload(*consumer_, spec, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_GT(report->provider_rewards.at("provider-0"),
            report->provider_rewards.at("provider-3") * 5);
}

TEST_F(MarketplaceTest, InsufficientProvidersAbortsAndRefunds) {
  WorkloadSpec spec = BasicSpec();
  spec.min_providers = 10;  // more than exist
  const uint64_t before = market_.chain().GetBalance(consumer_->address());
  auto report = market_.RunWorkload(*consumer_, spec);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), common::StatusCode::kFailedPrecondition);
  // Escrow came back (minus gas).
  const uint64_t after = market_.chain().GetBalance(consumer_->address());
  EXPECT_GT(after + 10'000'000, before);  // within gas costs
  EXPECT_LT(before - after, spec.reward_pool / 2);
}

TEST_F(MarketplaceTest, ProviderPricingPolicyFiltersParticipation) {
  // Make one provider greedy: demands far more per record than the pool
  // can pay.
  market_.providers()[0]->set_min_reward_per_record(1e12);
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->num_providers, 3u);
  EXPECT_EQ(report->provider_rewards.count("provider-0"), 0u);
}

TEST_F(MarketplaceTest, SemanticMismatchExcludesProvider) {
  // A provider with only humidity data must not match a temperature-only
  // requirement.
  ProviderAgent& p = market_.AddProvider("provider-hum");
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/humidity"};
  ml::Dataset data = ml::MakeTwoGaussians(100, 4, 1.0, rng_);
  ASSERT_TRUE(p.store().AddDataset("hum", data, meta).ok());

  WorkloadSpec spec = BasicSpec();
  spec.requirement.required_types = {"iot/sensor/temperature"};
  auto report = market_.RunWorkload(*consumer_, spec);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->provider_rewards.count("provider-hum"), 0u);
}

TEST_F(MarketplaceTest, DifferentialPrivacyWorkloadRuns) {
  WorkloadSpec spec = BasicSpec();
  spec.dp_enabled = true;
  spec.dp_clip = 2.0;
  spec.dp_noise = 0.3;
  auto report = market_.RunWorkload(*consumer_, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ml::LogisticRegressionModel model(4);
  model.SetParams(report->model_params);
  EXPECT_GT(ml::Accuracy(model, test_), 0.8);  // noisy but useful
}

TEST_F(MarketplaceTest, MlpWorkloadRuns) {
  WorkloadSpec spec = BasicSpec();
  spec.model_kind = "mlp";
  spec.hidden_units = 6;
  spec.epochs = 20;
  auto report = market_.RunWorkload(*consumer_, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->model_params.empty());
}

TEST_F(MarketplaceTest, SequentialWorkloadsShareTheChain) {
  auto first = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(first.ok());
  auto second = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(second.ok());
  EXPECT_NE(first->instance, second->instance);
  // Enclave entropy advances between runs, so the hashes differ — but both
  // runs must deliver working models and full settlement.
  ml::LogisticRegressionModel m1(4), m2(4);
  m1.SetParams(first->model_params);
  m2.SetParams(second->model_params);
  EXPECT_GT(ml::Accuracy(m1, test_), 0.9);
  EXPECT_GT(ml::Accuracy(m2, test_), 0.9);
}

TEST_F(MarketplaceTest, InvalidSpecRejectedUpfront) {
  WorkloadSpec spec = BasicSpec();
  spec.reward_pool = 0;
  auto report = market_.RunWorkload(*consumer_, spec);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(MarketplaceTest, InEnclaveValidationExcludesOutOfRangeData) {
  // A provider whose feature values blow past the declared range is
  // rejected by the enclave kernel, not by metadata matching.
  ProviderAgent& p = market_.AddProvider("provider-wild");
  ml::Dataset wild = ml::MakeTwoGaussians(120, 4, 1.0, rng_);
  for (auto& row : wild.x) row[0] += 1e6;  // out of range
  ASSERT_TRUE(p.store().AddDataset("wild", wild, TempMeta()).ok());

  WorkloadSpec spec = BasicSpec();
  spec.validation.enabled = true;
  spec.validation.feature_min = -100.0;
  spec.validation.feature_max = 100.0;
  auto report = market_.RunWorkload(*consumer_, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->provider_rewards.count("provider-wild"), 0u);
  EXPECT_EQ(report->num_providers, 4u);
  // The exclusion is visible in the audit trail.
  bool logged = false;
  for (const auto& line : report->audit_log) {
    if (line.find("excluded provider-wild") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST_F(MarketplaceTest, InEnclaveValidationLabelBalance) {
  ProviderAgent& p = market_.AddProvider("provider-onesided");
  ml::Dataset onesided = ml::MakeTwoGaussians(120, 4, 1.0, rng_);
  for (auto& label : onesided.y) label = 1.0;  // single class
  ASSERT_TRUE(p.store().AddDataset("onesided", onesided, TempMeta()).ok());

  WorkloadSpec spec = BasicSpec();
  spec.validation.enabled = true;
  spec.validation.min_label_fraction = 0.2;
  auto report = market_.RunWorkload(*consumer_, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(report->provider_rewards.count("provider-onesided"), 0u);
}

TEST_F(MarketplaceTest, SpecSerializationRoundTrip) {
  WorkloadSpec spec = BasicSpec();
  spec.dp_enabled = true;
  spec.reward_policy = RewardPolicy::kShapley;
  auto round = WorkloadSpec::Deserialize(spec.Serialize());
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->name, spec.name);
  EXPECT_EQ(round->reward_pool, spec.reward_pool);
  EXPECT_EQ(round->reward_policy, RewardPolicy::kShapley);
  EXPECT_EQ(round->SpecHash(), spec.SpecHash());
}

TEST_F(MarketplaceTest, TeeStarAggregationMatchesAllReduce) {
  WorkloadSpec star = BasicSpec();
  star.aggregation = AggregationMethod::kTeeStar;
  auto star_report = market_.RunWorkload(*consumer_, star);
  ASSERT_TRUE(star_report.ok()) << star_report.status().ToString();
  ml::LogisticRegressionModel model(4);
  model.SetParams(star_report->model_params);
  EXPECT_GT(ml::Accuracy(model, test_), 0.9);
  // Audit trail records the mechanism choice.
  bool logged = false;
  for (const auto& line : star_report->audit_log) {
    if (line.find("TEE-hosted star") != std::string::npos) logged = true;
  }
  EXPECT_TRUE(logged);
}

TEST_F(MarketplaceTest, DatasetNftRegistration) {
  ProviderAgent& provider = *market_.providers()[0];
  auto token = market_.RegisterDatasetNft(provider, "temps");
  ASSERT_TRUE(token.ok()) << token.status().ToString();
  auto owner = market_.DatasetOwner(*token);
  ASSERT_TRUE(owner.ok());
  EXPECT_EQ(*owner, provider.address());

  // Re-registering the same commitment fails (unique token ids), and a
  // different provider cannot claim someone else's commitment either.
  EXPECT_FALSE(market_.RegisterDatasetNft(provider, "temps").ok());
  EXPECT_FALSE(market_.DatasetOwner(common::Bytes(32, 0x1)).ok());
}

TEST_F(MarketplaceTest, ResultRetrievableFromArtifactStoreAndVerified) {
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok());
  ASSERT_FALSE(report->result_address.empty());
  auto fetched = market_.FetchResult(*report);
  ASSERT_TRUE(fetched.ok()) << fetched.status().ToString();
  EXPECT_EQ(*fetched, report->model_params);

  // A report pointing at a different (valid) blob fails the hash check.
  RunReport forged = *report;
  forged.result_hash[0] ^= 1;
  auto mismatch = market_.FetchResult(forged);
  ASSERT_FALSE(mismatch.ok());
  EXPECT_EQ(mismatch.status().code(), common::StatusCode::kCorruption);
}

TEST_F(MarketplaceTest, AuditTrailOnChain) {
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok());
  // The workload contract's event stream (ProviderJoined, PhaseChanged,
  // ProviderPaid...) is reconstructable from receipts: spot-check phases.
  auto phase = market_.chain().Query("workload", report->instance, "phase", {});
  ASSERT_TRUE(phase.ok());
  EXPECT_EQ((*phase)[0],
            static_cast<uint8_t>(chain::contracts::WorkloadPhase::kPaid));
  auto participants =
      market_.chain().Query("workload", report->instance, "participants", {});
  ASSERT_TRUE(participants.ok());
}

// Replay must not depend on heap layout: two marketplaces built from the
// same seed in one process reach the same head hash even when the second
// one's executors sit in memory in the opposite order. Two freed blocks of
// an executor's size steer the allocator: the higher one is freed first and
// so most likely holds "executor-0", the lower one then "executor-1".
Result<chain::Hash> RunSeededMarket(bool reverse_heap_order) {
  Marketplace market(MarketConfig{});
  Rng rng(5);
  ml::Dataset data = ml::MakeTwoGaussians(400, 4, 4.0, rng);
  auto parts = ml::PartitionWeighted(data, {1.0, 1.0, 1.0, 1.0}, rng);
  for (int i = 0; i < 4; ++i) {
    ProviderAgent& p = market.AddProvider("provider-" + std::to_string(i));
    PDS2_RETURN_IF_ERROR(p.store().AddDataset("temps", parts[i], TempMeta()));
  }
  void* low = nullptr;
  if (reverse_heap_order) {
    low = ::operator new(sizeof(ExecutorAgent));
    void* high = ::operator new(sizeof(ExecutorAgent));
    if (std::less<void*>()(high, low)) std::swap(low, high);
    ::operator delete(high);
  }
  market.AddExecutor("executor-0");
  ::operator delete(low);
  market.AddExecutor("executor-1");
  ConsumerAgent& consumer = market.AddConsumer("consumer");
  PDS2_RETURN_IF_ERROR(market.RunWorkload(consumer, BasicSpec()).status());
  return market.chain().LastBlockHash();
}

TEST(MarketplaceReplayTest, SameSeedSameHeadHashWhateverTheHeapLayout) {
  auto first = RunSeededMarket(false);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto second = RunSeededMarket(true);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(*second, *first);
}

}  // namespace
}  // namespace pds2::market
