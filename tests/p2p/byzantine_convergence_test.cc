// Byzantine chaos suite: seeded adversarial validators (equivocation,
// invalid state roots, gas-cheating blocks, withholding) against the
// watchtower + evidence + slashing machinery.
//
// The safety claim under test: with f Byzantine validators below quorum,
// honest nodes converge to bit-identical chains, every provably
// misbehaving proposer loses its entire bonded stake, withholding (which
// is not provable) costs nothing but its slot, and total supply —
// balances + stakes + burned — is exactly conserved on every replica.
#include <gtest/gtest.h>

#include <algorithm>

#include "../dml/health_sampler.h"
#include "common/fault.h"
#include "dml/fault_injector.h"
#include "obs/health_rules.h"
#include "obs/time_series.h"
#include "p2p/validator_network.h"

namespace pds2::p2p {
namespace {

using common::Bytes;
using common::ByzantineBehavior;
using common::FaultPlan;
using common::FaultProfile;
using common::SimTime;
using common::ToBytes;
using crypto::SigningKey;

constexpr SimTime kBlockInterval = common::kMicrosPerSecond;
constexpr uint64_t kGenesisSupply = 1'000'000'000;
constexpr uint64_t kStake = 1'000'000;

class ByzantineConvergenceTest : public ::testing::Test {
 protected:
  void Build(size_t n, uint64_t seed, const FaultPlan& plan = {}) {
    alice_ = std::make_unique<SigningKey>(SigningKey::FromSeed(ToBytes("a")));
    bob_addr_ = chain::AddressFromPublicKey(
        SigningKey::FromSeed(ToBytes("b")).PublicKey());
    std::vector<GenesisAlloc> genesis = {
        {chain::AddressFromPublicKey(alice_->PublicKey()), kGenesisSupply}};
    dml::NetConfig net;
    net.base_latency = 20 * common::kMicrosPerMilli;
    net.latency_jitter = 10 * common::kMicrosPerMilli;
    chain::ChainConfig chain_config;
    chain_config.proposer_grace = 4 * kBlockInterval;
    chain_config.validator_stake = kStake;
    nodes_.clear();
    sim_ = MakeValidatorNetwork(n, genesis, kBlockInterval, net, seed,
                                &nodes_, chain_config);
    ApplyByzantineSpecs(plan, nodes_);
    dml::FaultInjector::Install(*sim_, plan);
    sim_->Start();
    supply_ = nodes_[0]->chain().TotalSupply();  // genesis + n bonds
  }

  chain::Address AddressOfNode(size_t i) const {
    return chain::AddressFromPublicKey(nodes_[0]->chain().validators()[i]);
  }

  // Honest replicas must agree bit-for-bit on their common prefix, hold the
  // conserved supply, and have made clear progress.
  void ExpectHonestConverged(const std::vector<size_t>& honest,
                             uint64_t min_expected_height) {
    uint64_t min_height = UINT64_MAX, max_height = 0;
    for (size_t i : honest) {
      min_height = std::min(min_height, nodes_[i]->chain().Height());
      max_height = std::max(max_height, nodes_[i]->chain().Height());
    }
    EXPECT_GE(min_height, min_expected_height);
    EXPECT_LE(max_height - min_height, 1u);  // at most a propagating head
    const auto& reference = nodes_[honest[0]]->chain().blocks();
    for (size_t i : honest) {
      const auto& blocks = nodes_[i]->chain().blocks();
      const size_t common_len =
          std::min<size_t>({blocks.size(), reference.size(), min_height});
      for (size_t b = 0; b < common_len; ++b) {
        ASSERT_EQ(blocks[b].header.Id(), reference[b].header.Id())
            << "honest nodes " << honest[0] << " and " << i
            << " diverge at block " << b;
      }
      EXPECT_EQ(nodes_[i]->chain().TotalSupply(), supply_)
          << "supply not conserved on node " << i;
    }
  }

  // Every honest replica agrees the offender's bond is gone and the burn
  // shows up in its ledger.
  void ExpectSlashedEverywhere(const std::vector<size_t>& honest,
                               size_t offender) {
    const chain::Address addr = AddressOfNode(offender);
    for (size_t i : honest) {
      EXPECT_EQ(nodes_[i]->chain().StakeOf(addr), 0u)
          << "node " << i << " still holds the offender's stake";
      EXPECT_GT(nodes_[i]->chain().BurnedTotal(), 0u);
    }
  }

  std::unique_ptr<SigningKey> alice_;
  chain::Address bob_addr_;
  std::unique_ptr<dml::NetSim> sim_;
  std::vector<ValidatorNode*> nodes_;
  uint64_t supply_ = 0;
};

TEST_F(ByzantineConvergenceTest, EquivocatingProposerSlashedHonestConverge) {
  Build(4, /*seed=*/11);
  nodes_[1]->SetByzantine(ByzantineBehavior::kEquivocate);
  sim_->RunUntil(30 * kBlockInterval);

  ExpectHonestConverged({0, 2, 3}, 15);
  ExpectSlashedEverywhere({0, 2, 3}, 1);
  // At least one watchtower saw the double-sign and got its report through.
  uint64_t detected = 0, submitted = 0;
  for (size_t i : {0u, 2u, 3u}) {
    detected += nodes_[i]->evidence_detected();
    submitted += nodes_[i]->evidence_submitted();
  }
  EXPECT_GT(detected, 0u);
  EXPECT_GT(submitted, 0u);
  // Honest stakes are untouched.
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(nodes_[0]->chain().StakeOf(AddressOfNode(i)), kStake);
  }
}

TEST_F(ByzantineConvergenceTest, InvalidStateRootVariantRejectedAndSlashed) {
  Build(4, /*seed=*/12);
  nodes_[2]->SetByzantine(ByzantineBehavior::kInvalidStateRoot);
  sim_->RunUntil(30 * kBlockInterval);

  // The corrupted variant never enters an honest chain (state-root check),
  // but the (honest, corrupt) header pair convicts the proposer.
  ExpectHonestConverged({0, 1, 3}, 15);
  ExpectSlashedEverywhere({0, 1, 3}, 2);
}

TEST_F(ByzantineConvergenceTest, GasCheatingBlockRejectedAndSlashed) {
  Build(4, /*seed=*/13);
  nodes_[3]->SetByzantine(ByzantineBehavior::kGasCheat);
  sim_->RunUntil(30 * kBlockInterval);

  ExpectHonestConverged({0, 1, 2}, 15);
  ExpectSlashedEverywhere({0, 1, 2}, 3);
}

TEST_F(ByzantineConvergenceTest, WithholdingIsNotProvableAndNotSlashed) {
  Build(4, /*seed=*/14);
  nodes_[1]->SetByzantine(ByzantineBehavior::kWithhold);
  sim_->RunUntil(40 * kBlockInterval);

  // Grace fallback absorbs the silent slots; no proof exists, so the
  // withholder keeps its bond on every replica.
  ExpectHonestConverged({0, 2, 3}, 12);
  for (size_t i : {0u, 2u, 3u}) {
    EXPECT_EQ(nodes_[i]->chain().StakeOf(AddressOfNode(1)), kStake);
    EXPECT_EQ(nodes_[i]->chain().BurnedTotal(), 0u);
  }
}

TEST_F(ByzantineConvergenceTest, QuarantineDropsOffenderGossipOnly) {
  Build(4, /*seed=*/15);
  nodes_[1]->SetByzantine(ByzantineBehavior::kEquivocate);
  sim_->RunUntil(30 * kBlockInterval);

  // Detection quarantines the offender's peer slot on at least one honest
  // node — but consensus messages still flow: the honest chain kept
  // producing well past what 3 of 4 slots alone would explain only if
  // blocks from all reachable proposers were still accepted.
  uint64_t quarantines = 0;
  for (size_t i : {0u, 2u, 3u}) {
    quarantines += nodes_[i]->quarantined_peers().size();
  }
  EXPECT_GT(quarantines, 0u);
  ExpectHonestConverged({0, 2, 3}, 15);
}

// The seeded plan path: the same profile + seed must script the same
// adversaries (determinism is what makes a chaos cell reproducible), and
// running the scripted plan upholds the accountability contract —
// provable behaviours are slashed, withholding is not.
TEST_F(ByzantineConvergenceTest, SeededPlanScriptsDeterministicAdversaries) {
  FaultProfile profile;
  profile.num_byzantine_validators = 1;
  const FaultPlan plan_a =
      FaultPlan::Random(/*seed=*/77, 4, 40 * kBlockInterval, profile);
  const FaultPlan plan_b =
      FaultPlan::Random(/*seed=*/77, 4, 40 * kBlockInterval, profile);
  ASSERT_EQ(plan_a.byzantine_validators.size(), 1u);
  ASSERT_EQ(plan_b.byzantine_validators.size(), 1u);
  EXPECT_EQ(plan_a.byzantine_validators[0].node,
            plan_b.byzantine_validators[0].node);
  EXPECT_EQ(plan_a.byzantine_validators[0].behavior,
            plan_b.byzantine_validators[0].behavior);

  Build(4, /*seed=*/77, plan_a);
  sim_->RunUntil(40 * kBlockInterval);

  const size_t offender = plan_a.byzantine_validators[0].node;
  std::vector<size_t> honest;
  for (size_t i = 0; i < 4; ++i) {
    if (i != offender) honest.push_back(i);
  }
  ExpectHonestConverged(honest, 12);
  const chain::Address addr = AddressOfNode(offender);
  if (common::IsProvable(plan_a.byzantine_validators[0].behavior)) {
    ExpectSlashedEverywhere(honest, offender);
  } else {
    for (size_t i : honest) {
      EXPECT_EQ(nodes_[i]->chain().StakeOf(addr), kStake);
    }
  }
}

// Health plane: the default rule packs sampled once per block interval must
// flag the equivocation (critical evidence rule) without tripping the
// supply-conservation invariant — honest replicas conserve supply throughout.
TEST_F(ByzantineConvergenceTest, HealthPlaneFlagsEquivocationSupplyHolds) {
  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetValues();
  Build(4, /*seed=*/11);
  nodes_[1]->SetByzantine(ByzantineBehavior::kEquivocate);

  obs::TimeSeries ts({.capacity = 256, .max_series = 4096});
  obs::HealthMonitor monitor(&ts);
  monitor.AddRules(obs::rules::DefaultRules());
  dml::AttachHealthSampler(*sim_, kBlockInterval, &ts, &monitor);
  sim_->RunUntil(30 * kBlockInterval);
  obs::SetMetricsEnabled(false);

  ExpectHonestConverged({0, 2, 3}, 15);
  const auto fired = monitor.FiredRuleIds();
  EXPECT_NE(std::find(fired.begin(), fired.end(), "p2p.equivocation-detected"),
            fired.end())
      << "watchtower evidence never surfaced as an alert";
  for (const auto& id : fired) {
    EXPECT_NE(id, "chain.supply-conservation");
  }
  EXPECT_GE(ts.SampleCount(), 25u);  // one sample per block interval
}

}  // namespace
}  // namespace pds2::p2p
