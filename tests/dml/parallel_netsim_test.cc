// NetSim determinism across thread counts: identical gossip-learning
// trajectories (model parameters, ages, network stats) with no pool and
// for every pool size, with and without a batching window.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dml/gossip.h"
#include "dml/netsim.h"
#include "dml/rumor.h"
#include "ml/dataset.h"
#include "ml/model.h"

namespace pds2::dml {
namespace {

using common::SimTime;
using common::ThreadPool;

constexpr size_t kNodes = 8;
constexpr size_t kFeatures = 4;
constexpr SimTime kDuration = 5 * common::kMicrosPerSecond;

struct Fingerprint {
  std::vector<ml::Vec> params;
  std::vector<uint64_t> ages;
  NetStats stats;
};

bool operator==(const Fingerprint& a, const Fingerprint& b) {
  return a.params == b.params && a.ages == b.ages &&
         a.stats.events_processed == b.stats.events_processed &&
         a.stats.messages_sent == b.stats.messages_sent &&
         a.stats.messages_delivered == b.stats.messages_delivered &&
         a.stats.messages_dropped == b.stats.messages_dropped &&
         a.stats.bytes_sent == b.stats.bytes_sent &&
         a.stats.partition_drops == b.stats.partition_drops &&
         a.stats.messages_corrupted == b.stats.messages_corrupted &&
         a.stats.retries == b.stats.retries &&
         a.stats.timers_dropped_offline == b.stats.timers_dropped_offline &&
         a.stats.bytes_received_per_node == b.stats.bytes_received_per_node;
}

// Runs a fresh 8-node gossip-learning simulation (lossy, jittery network)
// and fingerprints every node's learned state plus the network counters.
// `pool` nullptr skips EnableParallel: partitions run inline.
Fingerprint RunGossipSim(ThreadPool* pool, SimTime batch_window) {
  NetConfig net;
  net.drop_rate = 0.1;
  NetSim sim(net, /*seed=*/42);
  if (pool != nullptr) sim.EnableParallel(pool, batch_window);

  common::Rng data_rng(7);
  std::vector<GossipNode*> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    auto node = std::make_unique<GossipNode>(
        std::make_unique<ml::LogisticRegressionModel>(kFeatures),
        ml::MakeTwoGaussians(40, kFeatures, 3.0, data_rng), GossipConfig{});
    nodes.push_back(node.get());
    sim.AddNode(std::move(node));
  }
  sim.Start();
  sim.RunUntil(kDuration);

  Fingerprint fp;
  for (GossipNode* node : nodes) {
    fp.params.push_back(node->model().GetParams());
    fp.ages.push_back(node->age());
  }
  fp.stats = sim.stats();
  return fp;
}

TEST(ParallelNetSimTest, GossipRunIdenticalAcrossPoolSizes) {
  // No pool is the reference: a pool of any size only changes speed.
  const Fingerprint reference = RunGossipSim(nullptr, /*batch_window=*/0);
  EXPECT_GT(reference.stats.messages_delivered, 0u);  // the run did work
  EXPECT_GT(reference.stats.messages_dropped, 0u);    // the link RNG ran
  EXPECT_TRUE(RunGossipSim(nullptr, /*batch_window=*/0) == reference);

  for (size_t threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    const Fingerprint fp = RunGossipSim(&pool, /*batch_window=*/0);
    EXPECT_TRUE(fp == reference) << "threads=" << threads;
  }
}

TEST(ParallelNetSimTest, BatchWindowIsDeterministicAcrossPoolSizes) {
  // A positive window batches near-simultaneous events; the approximation
  // changes the trajectory but must not make it scheduling-dependent.
  const SimTime window = 2 * common::kMicrosPerMilli;
  ThreadPool pool1(1);
  const Fingerprint reference = RunGossipSim(&pool1, window);

  ThreadPool pool4(4);
  const Fingerprint fp = RunGossipSim(&pool4, window);
  EXPECT_TRUE(fp == reference);
}

TEST(ParallelNetSimTest, RepeatedParallelRunsAreIdentical) {
  ThreadPool pool(4);
  const Fingerprint a = RunGossipSim(&pool, 0);
  const Fingerprint b = RunGossipSim(&pool, 0);
  EXPECT_TRUE(a == b);
}

TEST(ParallelNetSimTest, NodeAddedAfterEnableParallelHasItsOwnRngStream) {
  // Regression: per-node RNG streams used to be forked all at once, so a
  // node added after EnableParallel had no stream and RngFor indexed
  // node_rngs_ out of bounds (release-mode OOB read). Streams now fork at
  // AddNode time; sending from (and drawing inside) the late node must
  // work.
  ThreadPool pool(2);
  NetConfig net;
  net.drop_rate = 0.0;
  NetSim sim(net, /*seed=*/5);
  sim.EnableParallel(&pool, /*batch_window=*/0);

  RumorConfig rumor;
  auto early = std::make_unique<RumorNode>(rumor);
  RumorNode* early_ptr = early.get();
  sim.AddNode(std::move(early));
  // Added after the switch to parallel mode — the node whose rng()/Send
  // used to read out of bounds.
  auto late = std::make_unique<RumorNode>(rumor);
  RumorNode* late_ptr = late.get();
  late->Seed();
  sim.AddNode(std::move(late));

  sim.Start();
  sim.RunUntil(5 * common::kMicrosPerSecond);
  EXPECT_GT(late_ptr->pushes(), 0u);  // the late node drew and sent
  EXPECT_TRUE(early_ptr->infected());
  EXPECT_GT(sim.stats().messages_delivered, 0u);
}

TEST(ParallelNetSimTest, RngStreamsIndependentOfEnableParallelOrder) {
  // A node's private stream is a pure function of (seed, node index):
  // enabling parallel mode before or after the AddNode loop must produce
  // the same trajectory.
  auto run = [](bool enable_first) {
    ThreadPool pool(2);
    NetConfig net;
    net.drop_rate = 0.05;
    NetSim sim(net, /*seed=*/99);
    if (enable_first) sim.EnableParallel(&pool, 0);
    RumorConfig rumor;
    std::vector<RumorNode*> nodes;
    for (size_t i = 0; i < 16; ++i) {
      auto node = std::make_unique<RumorNode>(rumor);
      nodes.push_back(node.get());
      sim.AddNode(std::move(node));
    }
    if (!enable_first) sim.EnableParallel(&pool, 0);
    nodes[0]->Seed();
    sim.Start();
    sim.RunUntil(3 * common::kMicrosPerSecond);
    uint64_t fingerprint = sim.stats().messages_sent;
    for (const RumorNode* node : nodes) {
      fingerprint = fingerprint * 1099511628211ull + node->infected_at();
    }
    return fingerprint;
  };
  EXPECT_EQ(run(true), run(false));
}

}  // namespace
}  // namespace pds2::dml
