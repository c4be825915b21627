// Scale determinism: a 10^4-node rumor epidemic under seeded churn must be
// bit-identical with no pool and at 1 vs N worker threads, in both
// exact-tie and windowed batching modes. This pins the run loop — per-node
// RNG streams, partition-level execution, deferred churn, the deterministic
// merge, and the timer wheel under heavy load (hundreds of thousands of
// events) — to a scheduling-independent trajectory.

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "health_sampler.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "dml/fault_injector.h"
#include "dml/netsim.h"
#include "dml/rumor.h"
#include "obs/health_rules.h"
#include "obs/time_series.h"

namespace pds2::dml {
namespace {

using common::SimTime;
using common::ThreadPool;

constexpr size_t kNodes = 10'000;
constexpr SimTime kDuration = 5 * common::kMicrosPerSecond;

struct Fingerprint {
  uint64_t infected = 0;
  uint64_t infected_at_sum = 0;  // exact sim-time sum: any reorder shows
  uint64_t pushes = 0;
  NetStats stats;

  bool operator==(const Fingerprint& other) const {
    return infected == other.infected &&
           infected_at_sum == other.infected_at_sum &&
           pushes == other.pushes &&
           stats.events_processed == other.stats.events_processed &&
           stats.messages_sent == other.stats.messages_sent &&
           stats.messages_delivered == other.stats.messages_delivered &&
           stats.messages_dropped == other.stats.messages_dropped &&
           stats.bytes_sent == other.stats.bytes_sent &&
           stats.partition_drops == other.stats.partition_drops &&
           stats.messages_corrupted == other.stats.messages_corrupted &&
           stats.retries == other.stats.retries &&
           stats.timers_dropped_offline == other.stats.timers_dropped_offline &&
           stats.bytes_received_per_node == other.stats.bytes_received_per_node;
  }
};

// `threads` 0 skips EnableParallel: no pool, partitions run inline (only
// valid with the default exact-tie window).
Fingerprint RunChurnEpidemic(size_t threads, SimTime batch_window) {
  NetConfig net;
  net.drop_rate = 0.01;
  net.bandwidth_bytes_per_sec = 0;  // rumor bytes are not the point here
  NetSim sim(net, /*seed=*/77);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 0) {
    pool = std::make_unique<ThreadPool>(threads);
    sim.EnableParallel(pool.get(), batch_window);
  }
  sim.Reserve(kNodes + 1);  // + the fault injector

  RumorConfig rumor;
  std::vector<RumorNode*> nodes;
  nodes.reserve(kNodes);
  for (size_t i = 0; i < kNodes; ++i) {
    auto node = std::make_unique<RumorNode>(rumor);
    nodes.push_back(node.get());
    sim.AddNode(std::move(node));
  }
  nodes[0]->Seed();

  common::FaultProfile profile;
  profile.crash_fraction = 0.2;
  profile.min_downtime = 1 * common::kMicrosPerSecond;
  profile.max_downtime = 3 * common::kMicrosPerSecond;
  profile.num_partitions = 0;  // pure churn — the satellite under test
  const common::FaultPlan plan =
      common::FaultPlan::Random(/*seed=*/77, kNodes, kDuration, profile);
  FaultInjector::Install(sim, plan);

  sim.Start();
  sim.RunUntil(kDuration);

  Fingerprint fp;
  for (const RumorNode* node : nodes) {
    if (node->infected()) {
      ++fp.infected;
      fp.infected_at_sum += node->infected_at();
    }
    fp.pushes += node->pushes();
  }
  fp.stats = sim.stats();
  return fp;
}

TEST(ScaleNetSimTest, ChurnEpidemicBitIdenticalOneVsManyThreads) {
  const Fingerprint reference = RunChurnEpidemic(1, /*batch_window=*/0);
  // The epidemic actually spread and churn actually dropped state — a
  // vacuous run would make the equality below meaningless.
  EXPECT_GT(reference.infected, kNodes / 2);
  EXPECT_GT(reference.stats.timers_dropped_offline, 0u);
  EXPECT_GT(reference.stats.messages_dropped, 0u);

  const Fingerprint no_pool = RunChurnEpidemic(0, /*batch_window=*/0);
  EXPECT_TRUE(no_pool == reference);
  const Fingerprint parallel = RunChurnEpidemic(4, /*batch_window=*/0);
  EXPECT_TRUE(parallel == reference);
}

TEST(ScaleNetSimTest, WindowedChurnEpidemicBitIdenticalOneVsManyThreads) {
  const SimTime window = 2 * common::kMicrosPerMilli;
  const Fingerprint reference = RunChurnEpidemic(1, window);
  EXPECT_GT(reference.infected, kNodes / 2);
  const Fingerprint parallel = RunChurnEpidemic(4, window);
  EXPECT_TRUE(parallel == reference);
}

// Health plane at scale: the sampler rides the sim timer wheel, so every
// per-tick sample lands at a batch boundary and must capture the same
// metric values — and hence the same alert stream digest — regardless of
// how many worker threads executed the batches in between.
TEST(ScaleNetSimTest, TickSampledHealthSeriesBitIdenticalAcrossThreads) {
  constexpr size_t kHealthNodes = 2'000;
  constexpr SimTime kHealthDuration = 3 * common::kMicrosPerSecond;
  constexpr SimTime kTick = 100 * common::kMicrosPerMilli;

  struct HealthTrace {
    std::vector<double> sent;  // dml.net.messages_sent at each tick
    uint64_t sample_count = 0;
    uint64_t digest = 0;
  };
  auto run = [&](size_t threads) {
    obs::SetMetricsEnabled(true);
    obs::Registry::Global().ResetValues();
    NetConfig net;
    net.drop_rate = 0.01;
    net.bandwidth_bytes_per_sec = 0;
    NetSim sim(net, /*seed=*/77);
    ThreadPool pool(threads);
    sim.EnableParallel(&pool, /*batch_window=*/0);
    sim.Reserve(kHealthNodes);

    RumorConfig rumor;
    std::vector<RumorNode*> nodes;
    for (size_t i = 0; i < kHealthNodes; ++i) {
      auto node = std::make_unique<RumorNode>(rumor);
      nodes.push_back(node.get());
      sim.AddNode(std::move(node));
    }
    nodes[0]->Seed();

    obs::TimeSeries ts({.capacity = 256, .max_series = 4096});
    obs::HealthMonitor monitor(&ts);
    monitor.AddRules(obs::rules::DmlRules());
    AttachHealthSampler(sim, kTick, &ts, &monitor);

    sim.Start();
    sim.RunUntil(kHealthDuration);
    obs::SetMetricsEnabled(false);

    HealthTrace trace;
    trace.sample_count = ts.SampleCount();
    trace.digest = monitor.EventsDigest();
    for (size_t i = ts.OldestRetained(); i < ts.SampleCount(); ++i) {
      // Absent means the counter had not been touched yet — semantically
      // zero. (Whether the series exists at the first tick depends on
      // global-registry warmup from earlier runs, not on thread count.)
      const auto v = ts.ValueAt("dml.net.messages_sent", i);
      trace.sent.push_back(v.value_or(0.0));
    }
    return trace;
  };

  const HealthTrace reference = run(1);
  EXPECT_GE(reference.sample_count, 25u);
  EXPECT_GT(reference.sent.back(), 0.0);  // the epidemic actually gossiped

  const HealthTrace parallel = run(4);
  EXPECT_EQ(parallel.sample_count, reference.sample_count);
  EXPECT_EQ(parallel.sent, reference.sent);
  EXPECT_EQ(parallel.digest, reference.digest);
}

}  // namespace
}  // namespace pds2::dml
