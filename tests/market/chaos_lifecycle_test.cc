#include <gtest/gtest.h>

#include <algorithm>

#include "chain/contracts/workload.h"
#include "common/rng.h"
#include "crypto/sha256.h"
#include "market/marketplace.h"
#include "obs/health_rules.h"
#include "obs/time_series.h"

namespace pds2::market {
namespace {

using common::Rng;
using common::ToBytes;
using common::Writer;

storage::SemanticMetadata TempMeta() {
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  meta.numeric["sampling_hz"] = 10.0;
  return meta;
}

WorkloadSpec BasicSpec() {
  WorkloadSpec spec;
  spec.name = "chaos-anomaly-model";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 6;
  // Large relative to total lifecycle gas (~1-2M), so refund assertions can
  // tell "escrow came back, gas was paid" apart from "escrow was lost".
  spec.reward_pool = 100'000'000;
  spec.min_providers = 2;
  spec.max_providers = 16;
  spec.executor_reward_permille = 200;
  return spec;
}

// Chaos fixture: 4 providers, 3 executors, 1 consumer. Tests script
// executor faults at chosen lifecycle stages and assert two properties on
// every outcome: safety (the token supply is conserved, nobody is paid
// twice) and liveness (the run either finalizes or refunds the escrow).
class ChaosLifecycleTest : public ::testing::Test {
 protected:
  ChaosLifecycleTest() : market_(MarketConfig{}), rng_(77) {
    ml::Dataset all = ml::MakeTwoGaussians(1200, 4, 4.0, rng_);
    auto [train, test] = ml::TrainTestSplit(all, 0.2, rng_);
    auto parts = ml::PartitionWeighted(train, {1.0, 2.0, 3.0, 4.0}, rng_);
    for (int i = 0; i < 4; ++i) {
      ProviderAgent& p = market_.AddProvider("provider-" + std::to_string(i));
      EXPECT_TRUE(p.store().AddDataset("temps", parts[i], TempMeta()).ok());
    }
    for (int i = 0; i < 3; ++i) {
      market_.AddExecutor("executor-" + std::to_string(i));
    }
    consumer_ = &market_.AddConsumer("consumer");
  }

  ExecutorAgent& Executor(size_t i) { return *market_.executors()[i]; }

  void ClearFaults() {
    for (auto& executor : market_.executors()) {
      executor->InjectFault(ExecutorFault::kNone);
    }
  }

  // Safety invariants that must hold after ANY outcome.
  void ExpectSettled(const common::Result<RunReport>& report,
                     uint64_t supply_before) {
    EXPECT_EQ(market_.chain().TotalSupply(), supply_before);
    if (!report.ok()) return;
    // The escrow fully discharged: nothing is stuck in the contract, and
    // total payout never exceeds the pool (no double reward).
    EXPECT_EQ(market_.chain().GetBalance(
                  chain::ContractAddress("workload", report->instance)),
              0u);
    uint64_t paid = 0;
    for (const auto& [name, reward] : report->provider_rewards) paid += reward;
    for (const auto& [name, reward] : report->executor_rewards) paid += reward;
    EXPECT_LE(paid, BasicSpec().reward_pool);
  }

  Marketplace market_;
  Rng rng_;
  ConsumerAgent* consumer_;
};

TEST_F(ChaosLifecycleTest, OneCrashedExecutorOfThreeStillCompletes) {
  // The acceptance scenario: executor-1 dies mid-training after it is
  // registered on-chain. The surviving 2-of-3 quorum finishes the run and
  // only survivors are rewarded.
  Executor(1).InjectFault(ExecutorFault::kTrain);
  const uint64_t supply_before = market_.chain().TotalSupply();
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSettled(report, supply_before);

  EXPECT_EQ(report->executor_rewards.at("executor-1"), 0u);
  EXPECT_GT(report->executor_rewards.at("executor-0"), 0u);
  EXPECT_GT(report->executor_rewards.at("executor-2"), 0u);
  ASSERT_EQ(report->dropped_executors.size(), 1u);
  EXPECT_EQ(report->dropped_executors[0], "executor-1");
  // The survivors split the whole executor pool between themselves.
  EXPECT_EQ(report->executor_rewards.at("executor-0") +
                report->executor_rewards.at("executor-2"),
            BasicSpec().reward_pool * 200 / 1000);
  EXPECT_FALSE(report->model_params.empty());
}

TEST_F(ChaosLifecycleTest, ExecutorThatNeverVotesForfeitsItsReward) {
  Executor(2).InjectFault(ExecutorFault::kVote);
  const uint64_t supply_before = market_.chain().TotalSupply();
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSettled(report, supply_before);
  EXPECT_EQ(report->executor_rewards.at("executor-2"), 0u);
  EXPECT_GT(report->executor_rewards.at("executor-0"), 0u);
}

TEST_F(ChaosLifecycleTest, FailedAttestationReassignsProvidersElsewhere) {
  // A compromised enclave never receives data: providers refuse to seal to
  // it, the marketplace reassigns their shards, and the run completes.
  Executor(0).InjectFault(ExecutorFault::kAttestation);
  const uint64_t supply_before = market_.chain().TotalSupply();
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSettled(report, supply_before);

  EXPECT_EQ(report->num_providers, 4u);  // every shard found a home
  bool dropped = false;
  for (const auto& name : report->dropped_executors) {
    if (name == "executor-0") dropped = true;
  }
  EXPECT_TRUE(dropped);
  // Never registered on-chain, so it cannot appear with a reward.
  auto it = report->executor_rewards.find("executor-0");
  EXPECT_TRUE(it == report->executor_rewards.end() || it->second == 0u);
}

TEST_F(ChaosLifecycleTest, UnattainableQuorumAbortsAndRefunds) {
  // 2 of 3 registered executors never vote: 1 vote cannot reach a 2-of-3
  // majority, so the run must abort and the escrow must come back.
  Executor(0).InjectFault(ExecutorFault::kVote);
  Executor(1).InjectFault(ExecutorFault::kVote);
  const uint64_t supply_before = market_.chain().TotalSupply();
  const uint64_t consumer_before =
      market_.chain().GetBalance(consumer_->address());
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(market_.chain().TotalSupply(), supply_before);
  // Escrow refunded (the consumer is only out the gas).
  const uint64_t consumer_after =
      market_.chain().GetBalance(consumer_->address());
  EXPECT_GT(consumer_after + 10'000'000, consumer_before);
  EXPECT_LT(consumer_before - consumer_after, BasicSpec().reward_pool / 2);
}

TEST_F(ChaosLifecycleTest, AllExecutorsCrashedAbortsAndRefunds) {
  for (int i = 0; i < 3; ++i) Executor(i).InjectFault(ExecutorFault::kSetup);
  const uint64_t supply_before = market_.chain().TotalSupply();
  const uint64_t consumer_before =
      market_.chain().GetBalance(consumer_->address());
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(market_.chain().TotalSupply(), supply_before);
  EXPECT_GT(market_.chain().GetBalance(consumer_->address()) + 10'000'000,
            consumer_before);
}

// The seeded sweep: randomized-but-replayable executor fault schedules.
// Every run must keep the supply invariant and either finalize (escrow
// discharged, survivors paid, crashed executors paid nothing) or refund.
// Together with the p2p chaos suite this covers the >= 20 distinct fault
// seeds the robustness experiment demands.
TEST_F(ChaosLifecycleTest, SeededFaultSchedulesAreSafeAndLive) {
  const ExecutorFault kStages[] = {
      ExecutorFault::kNone, ExecutorFault::kAttestation, ExecutorFault::kSetup,
      ExecutorFault::kTrain, ExecutorFault::kVote};
  int completed = 0, refunded = 0;
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    SCOPED_TRACE("fault seed " + std::to_string(seed));
    ClearFaults();
    Rng rng(seed);
    std::vector<ExecutorFault> schedule(3, ExecutorFault::kNone);
    for (size_t i = 0; i < schedule.size(); ++i) {
      if (rng.NextBool(0.45)) {
        schedule[i] = kStages[1 + rng.NextU64(4)];
        Executor(i).InjectFault(schedule[i]);
      }
    }
    const uint64_t supply_before = market_.chain().TotalSupply();
    const uint64_t consumer_before =
        market_.chain().GetBalance(consumer_->address());
    auto report = market_.RunWorkload(*consumer_, BasicSpec());
    ExpectSettled(report, supply_before);
    if (report.ok()) {
      ++completed;
      // No crashed executor may hold a reward.
      for (size_t i = 0; i < schedule.size(); ++i) {
        if (schedule[i] == ExecutorFault::kNone) continue;
        auto it =
            report->executor_rewards.find("executor-" + std::to_string(i));
        if (it != report->executor_rewards.end()) {
          EXPECT_EQ(it->second, 0u) << "double reward for crashed executor-"
                                    << i;
        }
      }
    } else {
      ++refunded;
      // Liveness on the failure path = the escrow came back.
      const uint64_t consumer_after =
          market_.chain().GetBalance(consumer_->address());
      EXPECT_LT(consumer_before - consumer_after,
                BasicSpec().reward_pool / 2);
    }
  }
  // The sweep must actually exercise both outcomes.
  EXPECT_GT(completed, 0);
  EXPECT_GT(refunded, 0);
}

// ---------------------------------------------------------------------------
// Escrow-conservation regression: the three settlement outcomes (finalize,
// deadline abort, failed-precondition abort) all leave zero tokens in the
// contract and conserve the total supply.

TEST_F(ChaosLifecycleTest, EscrowConservedAcrossFinalizeOutcome) {
  const uint64_t supply_before = market_.chain().TotalSupply();
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSettled(report, supply_before);
  uint64_t paid = 0;
  for (const auto& [name, reward] : report->provider_rewards) paid += reward;
  for (const auto& [name, reward] : report->executor_rewards) paid += reward;
  // Dust refunds keep the discharge near-exact.
  EXPECT_GT(paid, BasicSpec().reward_pool - 100);
}

TEST_F(ChaosLifecycleTest, EscrowConservedAcrossFailedPreconditionAbort) {
  WorkloadSpec spec = BasicSpec();
  spec.min_providers = 12;  // more providers than exist: kAccepting abort
  const uint64_t supply_before = market_.chain().TotalSupply();
  auto report = market_.RunWorkload(*consumer_, spec);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), common::StatusCode::kFailedPrecondition);
  EXPECT_EQ(market_.chain().TotalSupply(), supply_before);
}

TEST_F(ChaosLifecycleTest, EscrowConservedAcrossUnminedRegistration) {
  // A bond larger than any executor's balance: the register_executor tx is
  // admitted but never mined, so it gets no receipt. The run must still
  // abort and refund instead of stranding the pool in kAccepting.
  WorkloadSpec spec = BasicSpec();
  spec.executor_stake = MarketConfig{}.genesis_balance * 2;
  const uint64_t supply_before = market_.chain().TotalSupply();
  const uint64_t consumer_before =
      market_.chain().GetBalance(consumer_->address());
  auto report = market_.RunWorkload(*consumer_, spec);
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(market_.chain().TotalSupply(), supply_before);
  const uint64_t consumer_after =
      market_.chain().GetBalance(consumer_->address());
  EXPECT_LT(consumer_before - consumer_after, BasicSpec().reward_pool / 2);
}

TEST_F(ChaosLifecycleTest, EscrowConservedAcrossDeadlineAbort) {
  // Drive the contract directly: a running workload whose executor goes
  // silent forever; past the deadline the consumer claws the escrow back.
  const uint64_t kPool = 500'000;
  constexpr uint64_t kGas = 5'000'000;
  const uint64_t supply_before = market_.chain().TotalSupply();
  const uint64_t consumer_before =
      market_.chain().GetBalance(consumer_->address());
  const common::SimTime deadline =
      market_.Now() + 5 * common::kMicrosPerSecond;

  Writer deploy;
  deploy.PutBytes(crypto::Sha256::Hash("chaos-spec"));
  deploy.PutU64(kPool);
  deploy.PutU64(1);   // min providers
  deploy.PutU64(10);  // max providers
  deploy.PutU64(0);   // executor permille
  deploy.PutU64(deadline);
  deploy.PutString("gossip");
  auto deployed = market_.Execute(
      consumer_->key(), chain::Address{}, kPool, kGas,
      chain::CallPayload{"workload", 0, "deploy", deploy.Take()});
  ASSERT_TRUE(deployed.ok()) << deployed.status().ToString();
  ASSERT_TRUE(deployed->success) << deployed->error;
  auto instance = chain::InstanceIdFromReceipt(*deployed);
  ASSERT_TRUE(instance.ok());

  // One provider seals to the executor, which registers and starts — then
  // nothing: the executor never submits a result.
  chain::contracts::ParticipationCert cert;
  cert.workload_instance = *instance;
  cert.provider_public_key = market_.providers()[0]->key().PublicKey();
  cert.executor_public_key = Executor(0).key().PublicKey();
  cert.data_commitment = crypto::Sha256::Hash("commitment");
  cert.num_records = 100;
  cert.Sign(market_.providers()[0]->key());
  Writer reg;
  reg.PutBytes(Executor(0).key().PublicKey());
  reg.PutU32(1);
  reg.PutBytes(cert.Serialize());
  auto registered = market_.Execute(
      Executor(0).key(), chain::Address{}, 0, kGas,
      chain::CallPayload{"workload", *instance, "register_executor",
                         reg.Take()});
  ASSERT_TRUE(registered.ok());
  ASSERT_TRUE(registered->success) << registered->error;
  auto started = market_.Execute(
      consumer_->key(), chain::Address{}, 0, kGas,
      chain::CallPayload{"workload", *instance, "start", {}});
  ASSERT_TRUE(started.ok());
  ASSERT_TRUE(started->success) << started->error;

  // Too early: a running escrow cannot be reclaimed before the deadline.
  auto early = market_.Execute(
      consumer_->key(), chain::Address{}, 0, kGas,
      chain::CallPayload{"workload", *instance, "abort", {}});
  ASSERT_TRUE(early.ok());
  EXPECT_FALSE(early->success);
  EXPECT_EQ(market_.chain().GetBalance(
                chain::ContractAddress("workload", *instance)),
            kPool);

  while (market_.Now() <= deadline) {
    ASSERT_TRUE(market_.Tick().ok());
  }
  auto aborted = market_.Execute(
      consumer_->key(), chain::Address{}, 0, kGas,
      chain::CallPayload{"workload", *instance, "abort", {}});
  ASSERT_TRUE(aborted.ok());
  ASSERT_TRUE(aborted->success) << aborted->error;

  EXPECT_EQ(market_.chain().GetBalance(
                chain::ContractAddress("workload", *instance)),
            0u);
  EXPECT_EQ(market_.chain().TotalSupply(), supply_before);
  const uint64_t consumer_after =
      market_.chain().GetBalance(consumer_->address());
  EXPECT_GT(consumer_after + 1'000'000, consumer_before);  // gas only
}

// ---------------------------------------------------------------------------
// Health plane: the default rule packs watch a chaos run. The injected fault
// must fire its mapped alert, and the supply-conservation invariant — checked
// on every sampled block — must stay quiet even while an executor dies.

TEST_F(ChaosLifecycleTest, HealthPlaneFlagsInjectedFaultAndSupplyHolds) {
  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetValues();
  obs::TimeSeries ts({.capacity = 2048, .max_series = 4096});
  obs::HealthMonitor monitor(&ts);
  monitor.AddRules(obs::rules::DefaultRules());
  market_.SetHealthSampling(&ts, &monitor);

  Executor(1).InjectFault(ExecutorFault::kTrain);
  const uint64_t supply_before = market_.chain().TotalSupply();
  auto report = market_.RunWorkload(*consumer_, BasicSpec());
  market_.SetHealthSampling(nullptr);
  obs::SetMetricsEnabled(false);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ExpectSettled(report, supply_before);

  const auto fired = monitor.FiredRuleIds();
  EXPECT_NE(std::find(fired.begin(), fired.end(), "market.executor-dropped"),
            fired.end())
      << "dropped executor went unnoticed by the health plane";
  // Safety rules must NOT fire: the chain conserved supply on every sample
  // and no substitution/attestation fault was injected.
  for (const auto& id : fired) {
    EXPECT_NE(id, "chain.supply-conservation");
    EXPECT_NE(id, "market.substitution-verify-failure");
    EXPECT_NE(id, "market.attestation-fault");
  }
  EXPECT_GT(ts.SampleCount(), 0u);
}

}  // namespace
}  // namespace pds2::market
