// Heap allocations per delivered gossip message. This binary replaces the
// global operator new/delete with counting versions, runs a gossip-learning
// sim to steady state, and counts the allocations one more push interval
// makes. A gossip step (decode, merge, local SGD, encode) allocates only
// its wire buffers: the encoded payload and the decoded peer vector.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "dml/gossip.h"
#include "dml/netsim.h"
#include "ml/dataset.h"
#include "ml/model.h"

namespace {
std::atomic<uint64_t> g_allocations{0};

void* CountedAlloc(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace pds2::dml {
namespace {

constexpr size_t kNodes = 1000;
constexpr common::SimTime kInterval = common::kMicrosPerSecond;

// Allocations per delivered message over one push interval, after three
// intervals have warmed every node's model, scratch and the event queue.
double AllocationsPerDelivery(common::ThreadPool* pool) {
  NetSim sim(NetConfig{}, /*seed=*/3);
  if (pool != nullptr) sim.EnableParallel(pool);
  common::Rng data_rng(4);
  const std::vector<ml::Dataset> shards = ml::PartitionIid(
      ml::MakeTwoGaussians(kNodes * 10, 6, 3.0, data_rng), kNodes, data_rng);
  sim.Reserve(kNodes);
  for (const ml::Dataset& shard : shards) {
    sim.AddNode(std::make_unique<GossipNode>(
        std::make_unique<ml::LogisticRegressionModel>(6), shard,
        GossipConfig{}));
  }
  sim.Start();
  sim.RunUntil(3 * kInterval);

  const uint64_t delivered_before = sim.stats().messages_delivered;
  const uint64_t allocs_before = g_allocations.load();
  sim.RunUntil(4 * kInterval);
  const uint64_t allocs = g_allocations.load() - allocs_before;
  const uint64_t delivered = sim.stats().messages_delivered - delivered_before;
  EXPECT_GT(delivered, kNodes / 2);  // the interval did gossip
  return static_cast<double>(allocs) / static_cast<double>(delivered);
}

TEST(GossipAllocationTest, SteadyStateStepAllocatesOnlyWireBuffers) {
  EXPECT_LE(AllocationsPerDelivery(nullptr), 3.0);
}

TEST(GossipAllocationTest, PooledStepAllocatesOnlyWireBuffers) {
  common::ThreadPool pool(2);
  EXPECT_LE(AllocationsPerDelivery(&pool), 3.0);
}

}  // namespace
}  // namespace pds2::dml
