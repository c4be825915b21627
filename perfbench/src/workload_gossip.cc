// gossip: 10^4 dml::GossipNodes with 10 samples each and a 1-s push
// interval on one NetSim, assembled through the dml public API. Each op is
// one NetSim::RunUntil over one push interval.
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "common/rng.h"
#include "dml/gossip.h"
#include "dml/netsim.h"
#include "ml/dataset.h"
#include "ml/metrics.h"
#include "ml/model.h"

namespace perfbench {
namespace {

using namespace pds2;

constexpr size_t kNodes = 10'000;
constexpr size_t kSamplesPerNode = 10;
constexpr size_t kFeatures = 6;
constexpr size_t kTestRecords = 500;
constexpr size_t kOpsPerRound = 25;
constexpr common::SimTime kPushInterval = common::kMicrosPerSecond;
/// Mean node accuracy on the test split after a round. Two Gaussians at
/// separation 3.0 are ~93% separable; an untrained model scores ~50%.
constexpr double kAccuracyFloor = 0.8;

struct GossipInputs {
  std::vector<ml::Dataset> shards;
  ml::Dataset test;
};

GossipInputs MakeInputs(uint64_t seed) {
  common::Rng rng(seed);
  ml::Dataset all = ml::MakeTwoGaussians(
      kSamplesPerNode * kNodes + kTestRecords, kFeatures, 3.0, rng);
  auto [train, test] = ml::TrainTestSplit(
      all, static_cast<double>(kTestRecords) / static_cast<double>(all.Size()),
      rng);
  return {ml::PartitionIid(train, kNodes, rng), std::move(test)};
}

uint64_t Mix(uint64_t h, uint64_t v) {
  return (h ^ v) * 0x100000001b3ULL;  // FNV-1a step over whole words
}

class GossipRound : public Round {
 public:
  GossipRound(const GossipInputs& inputs, uint64_t seed)
      : inputs_(inputs), sim_(dml::NetConfig{}, seed) {
    dml::GossipConfig config;
    config.push_interval = kPushInterval;
    sim_.Reserve(kNodes);
    for (size_t i = 0; i < kNodes; ++i) {
      auto node = std::make_unique<dml::GossipNode>(
          std::make_unique<ml::LogisticRegressionModel>(kFeatures),
          inputs_.shards[i], config);
      nodes_.push_back(node.get());
      sim_.AddNode(std::move(node));
    }
    sim_.Start();
  }

  bool Op(size_t i) override {
    sim_.RunUntil(static_cast<common::SimTime>(i + 1) * kPushInterval);
    return true;
  }

  bool CheckOp(size_t i) override {
    // Every node pushes once per interval; each push is one message.
    const dml::NetStats stats = sim_.stats();
    const bool progressed = stats.messages_sent >= (i + 1) * kNodes / 2 &&
                            stats.messages_dropped == 0;
    return progressed && sim_.Now() == (i + 1) * kPushInterval;
  }

  bool CheckRound() override {
    double sum = 0.0;
    for (const dml::GossipNode* node : nodes_) {
      sum += ml::Accuracy(node->model(), inputs_.test);
    }
    return sum / static_cast<double>(nodes_.size()) >= kAccuracyFloor;
  }

  Costs costs() override {
    const dml::NetStats s = sim_.stats();
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t v : {s.events_processed, s.messages_sent,
                       s.messages_delivered, s.messages_dropped, s.bytes_sent,
                       s.retries, s.timers_dropped_offline}) {
      h = Mix(h, v);
    }
    for (uint64_t v : s.bytes_received_per_node) h = Mix(h, v);
    Costs c;
    c.net_bytes = s.bytes_sent;
    c.net_events = s.events_processed;
    c.net_messages = s.messages_sent;
    c.fingerprint = std::to_string(s.events_processed) + "/" +
                    std::to_string(s.messages_sent) + "/" +
                    std::to_string(s.messages_delivered) + "/" +
                    std::to_string(h);
    return c;
  }

 private:
  const GossipInputs& inputs_;
  dml::NetSim sim_;
  std::vector<const dml::GossipNode*> nodes_;
};

class GossipWorkload : public Workload {
 public:
  explicit GossipWorkload(uint64_t seed)
      : seed_(seed), inputs_(MakeInputs(seed)) {}

  size_t OpsPerRound() const override { return kOpsPerRound; }

  std::unique_ptr<Round> NewRound(common::ThreadPool*) override {
    return std::make_unique<GossipRound>(inputs_, seed_);
  }

 private:
  uint64_t seed_;
  GossipInputs inputs_;
};

}  // namespace

std::unique_ptr<Workload> MakeGossip(uint64_t seed) {
  return std::make_unique<GossipWorkload>(seed);
}

}  // namespace perfbench
