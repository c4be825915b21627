// Alert matrix: every injected fault class must fire exactly its mapped
// health rules — no false fires on a fault-free seed, no missed fires
// under the fault — and the alert stream must be bit-identical when the
// same seeded run executes on 1 vs N pool threads (EventsDigest excludes
// wall time; every rule avoids thread-count-dependent series).
//
// Cells: marketplace executor faults (attestation / train / vote-quorum),
// a Byzantine equivocating validator on the p2p network, seeded link
// corruption on a NetSim chatter protocol, and corrupted gossip messages
// against the discovery index's merge-rejection path.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "../dml/health_sampler.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "dml/fault_injector.h"
#include "market/marketplace.h"
#include "obs/health_rules.h"
#include "p2p/validator_network.h"
#include "store/discovery.h"

namespace pds2::obs {
namespace {

using common::Rng;
using common::SimTime;
using market::ExecutorFault;
using market::Marketplace;
using market::MarketConfig;
using market::WorkloadSpec;

storage::SemanticMetadata TempMeta() {
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  return meta;
}

WorkloadSpec MatrixSpec() {
  WorkloadSpec spec;
  spec.name = "alert-matrix-model";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 10'000'000;
  spec.min_providers = 2;
  spec.max_providers = 16;
  spec.executor_reward_permille = 200;
  // A real bond: without it a reported attestation fault has nothing to
  // slash at settlement and market.executor-slashed could never fire.
  spec.executor_stake = 1'000'000;
  return spec;
}

struct CellResult {
  std::vector<std::string> fired;
  uint64_t digest = 0;
  bool run_ok = false;
};

// One seeded marketplace lifecycle with the health plane attached. The
// same global registry backs every cell, so values are reset per run;
// stale series from earlier cells sample as zero and cannot fire
// greater-than-zero rules.
CellResult RunMarketCell(const std::vector<ExecutorFault>& faults,
                         size_t pool_threads) {
  SetMetricsEnabled(true);
  Registry::Global().ResetValues();

  std::unique_ptr<common::ThreadPool> pool;
  MarketConfig config;
  if (pool_threads > 0) {
    pool = std::make_unique<common::ThreadPool>(pool_threads);
    config.thread_pool = pool.get();
  }
  Marketplace market(config);
  Rng rng(77);
  ml::Dataset all = ml::MakeTwoGaussians(1200, 4, 4.0, rng);
  auto [train, test] = ml::TrainTestSplit(all, 0.2, rng);
  auto parts = ml::PartitionWeighted(train, {1.0, 2.0, 3.0, 4.0}, rng);
  for (int i = 0; i < 4; ++i) {
    market::ProviderAgent& p =
        market.AddProvider("provider-" + std::to_string(i));
    EXPECT_TRUE(p.store().AddDataset("temps", parts[i], TempMeta()).ok());
  }
  for (int i = 0; i < 3; ++i) {
    market.AddExecutor("executor-" + std::to_string(i));
  }
  market::ConsumerAgent& consumer = market.AddConsumer("consumer");

  TimeSeries ts({.capacity = 1024, .max_series = 4096});
  HealthMonitor monitor(&ts);
  monitor.AddRules(rules::DefaultRules());
  market.SetHealthSampling(&ts, &monitor);

  for (size_t i = 0; i < faults.size() && i < 3; ++i) {
    market.executors()[i]->InjectFault(faults[i]);
  }
  auto report = market.RunWorkload(consumer, MatrixSpec());
  SetMetricsEnabled(false);

  CellResult result;
  result.fired = monitor.FiredRuleIds();
  result.digest = monitor.EventsDigest();
  result.run_ok = report.ok();
  return result;
}

TEST(HealthAlertMatrixTest, FaultFreeMarketRunFiresNothing) {
  const CellResult cell = RunMarketCell({}, 0);
  EXPECT_TRUE(cell.run_ok);
  EXPECT_TRUE(cell.fired.empty())
      << "false fire: " << ::testing::PrintToString(cell.fired);
}

TEST(HealthAlertMatrixTest, TrainCrashFiresExecutorDroppedOnly) {
  const CellResult cell = RunMarketCell(
      {ExecutorFault::kNone, ExecutorFault::kTrain, ExecutorFault::kNone}, 0);
  EXPECT_TRUE(cell.run_ok);  // 2-of-3 quorum still completes
  EXPECT_EQ(cell.fired,
            (std::vector<std::string>{"market.executor-dropped"}));
}

TEST(HealthAlertMatrixTest, AttestationFaultFiresItsMappedRules) {
  // kFalseAttestation: a valid quote at sealing time, a corrupt one at the
  // runtime re-audit — the rolled-back-enclave scenario. The fault is
  // reported on-chain (attestation-fault) and the bond is slashed at
  // settlement (executor-slashed). kAttestation, by contrast, never bonds:
  // providers refuse to seal and only executor-dropped fires.
  const CellResult cell = RunMarketCell(
      {ExecutorFault::kFalseAttestation, ExecutorFault::kNone,
       ExecutorFault::kNone},
      0);
  EXPECT_TRUE(cell.run_ok);
  EXPECT_EQ(cell.fired,
            (std::vector<std::string>{"market.attestation-fault",
                                      "market.executor-slashed"}));
}

TEST(HealthAlertMatrixTest, LostQuorumFiresWorkloadAborted) {
  const CellResult cell = RunMarketCell(
      {ExecutorFault::kVote, ExecutorFault::kVote, ExecutorFault::kNone}, 0);
  EXPECT_FALSE(cell.run_ok);  // 1 vote cannot reach 2-of-3
  EXPECT_EQ(cell.fired,
            (std::vector<std::string>{"market.executor-dropped",
                                      "market.workload-aborted"}));
}

TEST(HealthAlertMatrixTest, AlertStreamBitIdenticalAcrossThreadCounts) {
  const std::vector<ExecutorFault> faults = {
      ExecutorFault::kAttestation, ExecutorFault::kTrain,
      ExecutorFault::kNone};
  const CellResult sequential = RunMarketCell(faults, 0);
  const CellResult one = RunMarketCell(faults, 1);
  const CellResult four = RunMarketCell(faults, 4);
  EXPECT_FALSE(sequential.fired.empty());  // the comparison must bite
  EXPECT_EQ(one.fired, sequential.fired);
  EXPECT_EQ(four.fired, sequential.fired);
  EXPECT_EQ(one.digest, sequential.digest);
  EXPECT_EQ(four.digest, sequential.digest);
}

// --------------------------------------------------------------------------
// P2P cell: an equivocating validator. Honest watchtowers detect the
// double-sign, reject the conflicting variants, and slash the offender —
// the equivocation rule (critical) plus the block-rejection rules fire.

CellResult RunValidatorCell(bool equivocate) {
  SetMetricsEnabled(true);
  Registry::Global().ResetValues();

  const SimTime kBlockInterval = common::kMicrosPerSecond;
  auto alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};
  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  chain::ChainConfig chain_config;
  chain_config.proposer_grace = 4 * kBlockInterval;
  chain_config.validator_stake = 1'000'000;
  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(4, genesis, kBlockInterval, net,
                                       /*seed=*/11, &nodes, chain_config);
  if (equivocate) {
    nodes[1]->SetByzantine(common::ByzantineBehavior::kEquivocate);
  }

  TimeSeries ts({.capacity = 1024, .max_series = 4096});
  HealthMonitor monitor(&ts);
  monitor.AddRules(rules::DefaultRules());
  dml::AttachHealthSampler(*sim, kBlockInterval, &ts, &monitor);

  sim->Start();
  sim->RunUntil(30 * kBlockInterval);
  SetMetricsEnabled(false);

  CellResult result;
  result.fired = monitor.FiredRuleIds();
  result.digest = monitor.EventsDigest();
  result.run_ok = true;
  return result;
}

TEST(HealthAlertMatrixTest, HonestValidatorNetworkFiresNothing) {
  const CellResult cell = RunValidatorCell(/*equivocate=*/false);
  EXPECT_TRUE(cell.fired.empty())
      << "false fire: " << ::testing::PrintToString(cell.fired);
}

TEST(HealthAlertMatrixTest, EquivocationFiresEvidenceAndRejectionRules) {
  const CellResult cell = RunValidatorCell(/*equivocate=*/true);
  EXPECT_EQ(cell.fired,
            (std::vector<std::string>{"chain.blocks-rejected",
                                      "p2p.blocks-rejected",
                                      "p2p.equivocation-detected"}));
  // Seeded DES: the whole alert stream replays bit-identically.
  EXPECT_EQ(cell.digest, RunValidatorCell(true).digest);
}

// --------------------------------------------------------------------------
// DML cell: seeded link corruption on a minimal chatter protocol.

class ChatterNode : public dml::Node {
 public:
  explicit ChatterNode(size_t peers) : peers_(peers) {}
  void OnStart(dml::NodeContext& ctx) override {
    ctx.SetTimer(common::kMicrosPerSecond / 5, 0);
  }
  void OnMessage(dml::NodeContext&, size_t, const common::Bytes&) override {}
  void OnTimer(dml::NodeContext& ctx, uint64_t) override {
    ctx.Send((ctx.self() + 1) % peers_, common::Bytes{'p', 'i', 'n', 'g'});
    ctx.SetTimer(common::kMicrosPerSecond / 5, 0);
  }

 private:
  size_t peers_;
};

CellResult RunChatterCell(double corrupt_rate) {
  SetMetricsEnabled(true);
  Registry::Global().ResetValues();

  dml::NetConfig net;
  net.base_latency = 10 * common::kMicrosPerMilli;
  net.latency_jitter = 0;
  dml::NetSim sim(net, /*seed=*/3);
  for (size_t i = 0; i < 4; ++i) {
    sim.AddNode(std::make_unique<ChatterNode>(4));
  }
  common::FaultPlan plan;
  plan.corrupt_rate = corrupt_rate;
  dml::FaultInjector::Install(sim, plan);

  TimeSeries ts({.capacity = 256, .max_series = 4096});
  HealthMonitor monitor(&ts);
  monitor.AddRules(rules::DefaultRules());
  dml::AttachHealthSampler(sim, common::kMicrosPerSecond / 2, &ts, &monitor);

  sim.Start();
  sim.RunUntil(3 * common::kMicrosPerSecond);
  SetMetricsEnabled(false);

  CellResult result;
  result.fired = monitor.FiredRuleIds();
  result.digest = monitor.EventsDigest();
  result.run_ok = true;
  return result;
}

TEST(HealthAlertMatrixTest, CleanChatterFiresNothing) {
  const CellResult cell = RunChatterCell(0.0);
  EXPECT_TRUE(cell.fired.empty())
      << "false fire: " << ::testing::PrintToString(cell.fired);
}

TEST(HealthAlertMatrixTest, LinkCorruptionFiresCorruptionRuleOnly) {
  const CellResult cell = RunChatterCell(1.0);
  EXPECT_EQ(cell.fired,
            (std::vector<std::string>{"dml.corruption-observed"}));
}

// --------------------------------------------------------------------------
// Store cell: corrupted gossip against discovery anti-entropy. A flipped
// payload that no longer parses is dropped whole by the merge path, which
// is exactly what store.discovery-corrupt watches; the link-level
// corruption tell fires alongside it.

CellResult RunDiscoveryCell(double corrupt_rate) {
  SetMetricsEnabled(true);
  Registry::Global().ResetValues();

  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  dml::NetSim sim(net, /*seed=*/42);
  std::vector<store::DiscoveryNode*> nodes;
  for (size_t i = 0; i < 6; ++i) {
    auto node = std::make_unique<store::DiscoveryNode>(store::DiscoveryConfig{});
    nodes.push_back(node.get());
    sim.AddNode(std::move(node));
  }
  for (size_t i = 0; i < 4; ++i) {
    store::Advert advert;
    advert.content_hash = common::Bytes(32, static_cast<uint8_t>(i + 1));
    advert.provider = "provider-" + std::to_string(i);
    advert.tags = {"iot/sensor"};
    advert.size_bytes = 1000;
    advert.price = 10;
    advert.version = 1;
    nodes[i]->Announce(advert);
  }
  common::FaultPlan plan;
  plan.corrupt_rate = corrupt_rate;
  dml::FaultInjector::Install(sim, plan);

  TimeSeries ts({.capacity = 256, .max_series = 4096});
  HealthMonitor monitor(&ts);
  monitor.AddRules(rules::DefaultRules());
  dml::AttachHealthSampler(sim, common::kMicrosPerSecond, &ts, &monitor);

  sim.Start();
  sim.RunUntil(20 * common::kMicrosPerSecond);
  SetMetricsEnabled(false);

  CellResult result;
  result.fired = monitor.FiredRuleIds();
  result.digest = monitor.EventsDigest();
  result.run_ok = true;
  return result;
}

TEST(HealthAlertMatrixTest, CleanDiscoveryGossipFiresNothing) {
  const CellResult cell = RunDiscoveryCell(0.0);
  EXPECT_TRUE(cell.fired.empty())
      << "false fire: " << ::testing::PrintToString(cell.fired);
}

TEST(HealthAlertMatrixTest, CorruptedGossipFiresDiscoveryAndLinkRules) {
  const CellResult cell = RunDiscoveryCell(0.5);
  EXPECT_EQ(cell.fired,
            (std::vector<std::string>{"dml.corruption-observed",
                                      "store.discovery-corrupt"}));
}

}  // namespace
}  // namespace pds2::obs
