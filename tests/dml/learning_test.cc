#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/serial.h"
#include "common/thread_pool.h"
#include "dml/experiment.h"

namespace pds2::dml {
namespace {

DmlExperimentConfig FastConfig() {
  DmlExperimentConfig config;
  config.num_nodes = 16;
  config.features = 4;
  config.samples_per_node = 40;
  config.separation = 4.0;
  config.test_samples = 400;
  config.duration = 15 * common::kMicrosPerSecond;
  config.eval_interval = 3 * common::kMicrosPerSecond;
  config.gossip.local_sgd.epochs = 1;
  config.fedavg.local_sgd.epochs = 1;
  config.seed = 5;
  return config;
}

TEST(GossipLearningTest, ConvergesOnIidData) {
  DmlResult result = RunGossip(FastConfig());
  ASSERT_FALSE(result.timeline.empty());
  EXPECT_GT(result.final_accuracy, 0.9);
  // Accuracy improves over time.
  EXPECT_GT(result.timeline.back().accuracy,
            result.timeline.front().accuracy - 0.05);
}

TEST(GossipLearningTest, ConvergesOnNonIidData) {
  DmlExperimentConfig config = FastConfig();
  config.non_iid = true;
  config.duration = 25 * common::kMicrosPerSecond;
  DmlResult result = RunGossip(config);
  EXPECT_GT(result.final_accuracy, 0.85);
}

TEST(GossipLearningTest, SurvivesChurn) {
  DmlExperimentConfig config = FastConfig();
  config.churn_offline_fraction = 0.25;
  config.duration = 25 * common::kMicrosPerSecond;
  DmlResult result = RunGossip(config);
  EXPECT_GT(result.final_accuracy, 0.85);
}

TEST(GossipLearningTest, NoCentralHotspot) {
  DmlResult result = RunGossip(FastConfig());
  // Max single-node receive volume should be a small multiple of the mean:
  // traffic is spread across peers.
  uint64_t total = 0;
  for (uint64_t b : result.final_stats.bytes_received_per_node) total += b;
  const double mean =
      static_cast<double>(total) /
      static_cast<double>(result.final_stats.bytes_received_per_node.size());
  const double max = static_cast<double>(
      *std::max_element(result.final_stats.bytes_received_per_node.begin(),
                        result.final_stats.bytes_received_per_node.end()));
  EXPECT_LT(max, 4.0 * mean);
}

TEST(FedAvgTest, ConvergesOnIidData) {
  DmlResult result = RunFedAvg(FastConfig());
  EXPECT_GT(result.final_accuracy, 0.9);
}

TEST(FedAvgTest, ServerIsTheTrafficHotspot) {
  DmlResult result = RunFedAvg(FastConfig());
  const auto& rx = result.final_stats.bytes_received_per_node;
  // Node 0 (the server) receives more than any client — the §III-C
  // bottleneck argument in one assertion.
  const uint64_t server_rx = rx[0];
  uint64_t max_client_rx = 0;
  for (size_t i = 1; i < rx.size(); ++i) {
    max_client_rx = std::max(max_client_rx, rx[i]);
  }
  EXPECT_GT(server_rx, max_client_rx);
}

TEST(FedAvgTest, ToleratesPartialParticipation) {
  DmlExperimentConfig config = FastConfig();
  config.fedavg.client_fraction = 0.5;
  DmlResult result = RunFedAvg(config);
  EXPECT_GT(result.final_accuracy, 0.88);
}

TEST(FedAvgTest, CompletesRoundsDespiteTimeouts) {
  DmlExperimentConfig config = FastConfig();
  config.net.drop_rate = 0.3;  // lossy network; timeout path must engage
  DmlResult result = RunFedAvg(config);
  EXPECT_GT(result.final_accuracy, 0.7);
}

TEST(GossipProtocolRobustnessTest, MalformedMessagesAreIgnored) {
  // A byzantine peer sends garbage and undersized parameter vectors; the
  // gossip node must neither crash nor corrupt its model.
  common::Rng rng(99);
  ml::Dataset data = ml::MakeTwoGaussians(50, 4, 3.0, rng);
  NetSim sim(NetConfig{}, 1);
  auto node = std::make_unique<GossipNode>(
      std::make_unique<ml::LogisticRegressionModel>(4), data, GossipConfig{});
  GossipNode* gossip = node.get();
  sim.AddNode(std::move(node));
  sim.Start();

  NodeContext ctx(sim, 0);
  const ml::Vec before = gossip->model().GetParams();
  gossip->OnMessage(ctx, 0, common::ToBytes("not a model"));
  gossip->OnMessage(ctx, 0, {});
  common::Writer undersized;
  undersized.PutDoubleVector({1.0, 2.0});  // wrong parameter count
  undersized.PutU64(5);
  undersized.PutU64(10);
  gossip->OnMessage(ctx, 0, undersized.Take());
  EXPECT_EQ(gossip->model().GetParams(), before);
}

TEST(FedProtocolRobustnessTest, ServerIgnoresGarbageAndStaleRounds) {
  common::Rng rng(100);
  NetSim sim(NetConfig{}, 1);
  auto server = std::make_unique<FedServerNode>(
      std::make_unique<ml::LogisticRegressionModel>(4), FedAvgConfig{},
      std::vector<size_t>{1});
  FedServerNode* server_ptr = server.get();
  sim.AddNode(std::move(server));
  sim.AddNode(std::make_unique<FedClientNode>(
      std::make_unique<ml::LogisticRegressionModel>(4),
      ml::MakeTwoGaussians(30, 4, 3.0, rng), ml::SgdConfig{}));
  sim.Start();

  NodeContext ctx(sim, 0);
  server_ptr->OnMessage(ctx, 1, common::ToBytes("garbage"));
  common::Writer stale;
  stale.PutU8(2);   // train response tag
  stale.PutU64(0);  // round 0 never exists (rounds start at 1)
  stale.PutDoubleVector(ml::Vec(5, 0.0));
  stale.PutU64(10);
  server_ptr->OnMessage(ctx, 1, stale.Take());
  // Still functional: the run completes rounds normally afterwards.
  sim.RunUntil(20 * common::kMicrosPerSecond);
  EXPECT_GT(server_ptr->rounds_completed(), 0u);
}

TEST(DmlComparisonTest, GossipComparableToFedAvgIid) {
  // The Hegedus et al. [25] claim: gossip compares favorably. We assert
  // parity within a tolerance rather than strict dominance.
  DmlExperimentConfig config = FastConfig();
  config.duration = 20 * common::kMicrosPerSecond;
  DmlResult gossip = RunGossip(config);
  DmlResult fed = RunFedAvg(config);
  EXPECT_GT(gossip.final_accuracy, fed.final_accuracy - 0.05);
}

TEST(GossipLearningTest, DifferentiallyPrivateGossipStillLearns) {
  DmlExperimentConfig config = FastConfig();
  config.gossip.dp.enabled = true;
  config.gossip.dp.clip_norm = 2.0;
  config.gossip.dp.noise_multiplier = 0.2;
  config.duration = 25 * common::kMicrosPerSecond;
  DmlResult result = RunGossip(config);
  EXPECT_GT(result.final_accuracy, 0.8);
}

TEST(GossipLearningTest, HeavyDpNoiseDegradesGossip) {
  DmlExperimentConfig config = FastConfig();
  DmlResult clean = RunGossip(config);
  config.gossip.dp.enabled = true;
  config.gossip.dp.clip_norm = 1.0;
  config.gossip.dp.noise_multiplier = 30.0;
  DmlResult noisy = RunGossip(config);
  EXPECT_GT(clean.final_accuracy, noisy.final_accuracy);
}

TEST(DmlComparisonTest, DeterministicGivenSeed) {
  DmlExperimentConfig config = FastConfig();
  DmlResult a = RunGossip(config);
  DmlResult b = RunGossip(config);
  ASSERT_EQ(a.timeline.size(), b.timeline.size());
  for (size_t i = 0; i < a.timeline.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.timeline[i].accuracy, b.timeline[i].accuracy);
    EXPECT_EQ(a.timeline[i].bytes_sent, b.timeline[i].bytes_sent);
  }
}

// FNV-1a over whole 64-bit words.
uint64_t Mix(uint64_t h, uint64_t v) { return (h ^ v) * 0x100000001b3ULL; }

// Runs a seeded 2,000-node gossip-learning sim for 10 simulated seconds and
// digests every node's parameter bits and age. `pool` nullptr runs inline.
uint64_t GossipStateDigest(common::ThreadPool* pool) {
  constexpr size_t kNodes = 2000;
  NetSim sim(NetConfig{}, /*seed=*/21);
  if (pool != nullptr) sim.EnableParallel(pool);
  common::Rng data_rng(22);
  const std::vector<ml::Dataset> shards = ml::PartitionIid(
      ml::MakeTwoGaussians(kNodes * 10, 6, 3.0, data_rng), kNodes, data_rng);
  std::vector<const GossipNode*> nodes;
  for (const ml::Dataset& shard : shards) {
    auto node = std::make_unique<GossipNode>(
        std::make_unique<ml::LogisticRegressionModel>(6), shard,
        GossipConfig{});
    nodes.push_back(node.get());
    sim.AddNode(std::move(node));
  }
  sim.Start();
  sim.RunUntil(10 * common::kMicrosPerSecond);

  uint64_t h = 0xcbf29ce484222325ULL;
  for (const GossipNode* node : nodes) {
    for (double p : node->model().GetParams()) {
      uint64_t bits;
      std::memcpy(&bits, &p, sizeof(bits));
      h = Mix(h, bits);
    }
    h = Mix(h, node->age());
  }
  return h;
}

// Pins the merge and local-SGD arithmetic bit for bit, at every pool size
// (perfbench's gossip fingerprint covers message counts only).
TEST(GossipLearningTest, LearnedStateMatchesPinnedDigest) {
  constexpr uint64_t kPinned = 0xbd0bf9e2ce2fc15cULL;
  EXPECT_EQ(GossipStateDigest(nullptr), kPinned);
  for (size_t threads : {1u, 2u, 4u}) {
    common::ThreadPool pool(threads);
    EXPECT_EQ(GossipStateDigest(&pool), kPinned) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace pds2::dml
