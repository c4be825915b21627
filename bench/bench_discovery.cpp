// E17 — Content-addressed store, memoized computation and gossip discovery.
//
// The headline claim: a workload whose memo key resolves (cache hit)
// settles in a small fraction of the train-from-scratch lifecycle — the
// consumer fetches the chain-anchored artifact, verifies it against the
// anchor, and pays a reduced reuse fee. Alongside it:
//   - dedup ratio of the chunked artifact store on overlapping datasets,
//   - gossip discovery convergence time under fault-injected churn, with
//     bit-identical index digests for the same seed with no thread pool
//     and on a 4-thread pool,
//   - 100% artifact hash verification on every substituted run.
// The speedup is timed on thread-CPU time, alternating which side of a pair
// runs first; the wall-clock ratio is reported beside it.
// Writes the "discovery" section (plus metadata) of BENCH_discovery.json;
// scripts/check_bench_schema.py enforces the acceptance floors.

#include <time.h>

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "crypto/sha256.h"
#include "dml/fault_injector.h"
#include "market/marketplace.h"
#include "store/artifact_store.h"
#include "store/discovery.h"

namespace {

using namespace pds2;
using common::Bytes;
using common::kMicrosPerSecond;

storage::SemanticMetadata Meta() {
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  return meta;
}

market::WorkloadSpec TrainingSpec() {
  market::WorkloadSpec spec;
  spec.name = "e17-train";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 6;
  spec.epochs = 30;  // a realistic training job, not a toy
  spec.reward_pool = 1'000'000;
  spec.min_providers = 4;
  spec.max_providers = 16;
  spec.executor_reward_permille = 200;
  return spec;
}

struct SubstitutionOutcome {
  double miss_ms = 0;       // train-from-scratch lifecycle, wall clock
  double hit_ms = 0;        // substituted lifecycle, wall clock
  double miss_cpu_ms = 0;   // the same two on this thread's CPU clock
  double hit_cpu_ms = 0;
  bool hit = false;         // the second run actually substituted
  bool verified = false;    // fetched artifact matches the chain anchor
  uint64_t reuse_fee = 0;
  uint64_t miss_gas = 0;
  uint64_t hit_gas = 0;
};

// CPU time of the calling thread. The marketplace runs without a pool, so
// this is the lifecycle's whole cost, and time the host spends on other
// processes does not count.
double ThreadCpuMs() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return ts.tv_sec * 1e3 + ts.tv_nsec / 1e6;
}

struct Market {
  std::unique_ptr<market::Marketplace> m;
  market::ConsumerAgent* consumer = nullptr;
};

Market MakeMarket(uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  config.enable_substitution = true;
  Market out{std::make_unique<market::Marketplace>(config)};
  common::Rng rng(seed);
  ml::Dataset world = ml::MakeTwoGaussians(2000, 6, 3.5, rng);
  auto parts = ml::PartitionIid(world, 4, rng);
  for (size_t i = 0; i < 4; ++i) {
    auto& p = out.m->AddProvider("p" + std::to_string(i));
    (void)p.store().AddDataset("d", parts[i], Meta());
  }
  out.m->AddExecutor("e0");
  out.m->AddExecutor("e1");
  out.consumer = &out.m->AddConsumer("c");
  return out;
}

// One miss and one hit of the same spec and seed. The miss runs on a fresh
// marketplace, the hit on a twin whose memo an untimed run has filled, so
// either side can go first: `hit_first` alternates the order across pairs,
// and neither side always inherits the other's warm caches.
SubstitutionOutcome RunSubstitutionPair(uint64_t seed, bool hit_first) {
  SubstitutionOutcome out;
  Market fresh = MakeMarket(seed);
  Market warm = MakeMarket(seed);
  if (!warm.m->RunWorkload(*warm.consumer, TrainingSpec()).ok()) return out;

  common::Result<market::RunReport> first = common::Status::Internal("unrun");
  common::Result<market::RunReport> second = first;
  auto timed = [](Market& market, double* wall_ms, double* cpu_ms) {
    bench::Timer timer;
    const double cpu_start = ThreadCpuMs();
    auto report = market.m->RunWorkload(*market.consumer, TrainingSpec());
    *cpu_ms = ThreadCpuMs() - cpu_start;
    *wall_ms = timer.ElapsedMs();
    return report;
  };
  if (hit_first) second = timed(warm, &out.hit_ms, &out.hit_cpu_ms);
  first = timed(fresh, &out.miss_ms, &out.miss_cpu_ms);
  if (!hit_first) second = timed(warm, &out.hit_ms, &out.hit_cpu_ms);
  if (!first.ok() || !second.ok()) return out;
  out.miss_gas = first->gas_used;
  out.hit = second->substituted;
  out.hit_gas = second->gas_used;
  out.reuse_fee = second->reuse_fee;

  // Independent verification, consumer-side: the substituted artifact must
  // hash to the chain-agreed result and live at the chain-anchored address.
  if (out.hit) {
    auto anchored = warm.m->chain().Query(
        "workload", second->reused_from_instance, "artifact", Bytes{});
    auto blob = warm.m->artifact_store().Get(second->result_address);
    out.verified = anchored.ok() && blob.ok() &&
                   *anchored == second->result_address &&
                   crypto::Sha256::Hash(*blob) == second->result_hash;
  }
  return out;
}

// Chunk-level dedup on overlapping dataset revisions: rev k shares all but
// one shard with rev k-1 (the incremental-append pattern).
double MeasureDedupRatio() {
  store::ArtifactStoreOptions options;
  options.chunk_size = 4096;
  auto store = store::ArtifactStore::Open(options);
  if (!store.ok()) return 0.0;

  common::Rng rng(99);
  const size_t base_size = 512 * 1024;
  Bytes base(base_size);
  for (auto& b : base) b = static_cast<uint8_t>(rng.NextU64(255));

  for (int rev = 0; rev < 8; ++rev) {
    Bytes revision = base;
    Bytes tail(32 * 1024);
    for (auto& b : tail) b = static_cast<uint8_t>(rng.NextU64(255));
    revision.insert(revision.end(), tail.begin(), tail.end());
    (void)(*store)->Put(revision);
  }
  return (*store)->DedupRatio();
}

struct ConvergenceOutcome {
  double converge_s = -1.0;  // sim-time until all digests agree (post-churn)
  Bytes digest;              // final converged digest
  size_t adverts = 0;
};

// `pool` nullptr runs the simulator's partitions inline.
ConvergenceOutcome RunConvergence(uint64_t seed, common::ThreadPool* pool) {
  constexpr size_t kNodes = 12, kAdverts = 8;
  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  net.drop_rate = 0.05;
  auto sim = std::make_unique<dml::NetSim>(net, seed);
  sim->EnableParallel(pool);
  sim->Reserve(kNodes);
  std::vector<store::DiscoveryNode*> nodes;
  for (size_t i = 0; i < kNodes; ++i) {
    auto node = std::make_unique<store::DiscoveryNode>(
        store::DiscoveryConfig{});
    nodes.push_back(node.get());
    sim->AddNode(std::move(node));
  }
  for (size_t i = 0; i < kAdverts; ++i) {
    store::Advert advert;
    advert.content_hash = Bytes(32, static_cast<uint8_t>(i + 1));
    advert.provider = "p" + std::to_string(i);
    advert.tags = {"iot/sensor"};
    advert.size_bytes = 4096 * (i + 1);
    advert.price = 100 * (i + 1);
    nodes[i]->Announce(advert);
  }

  common::FaultProfile profile;
  profile.crash_fraction = 0.4;
  profile.min_downtime = 2 * kMicrosPerSecond;
  profile.max_downtime = 8 * kMicrosPerSecond;
  profile.corrupt_rate = 0.01;
  const common::FaultPlan plan = common::FaultPlan::Random(
      seed, kNodes, 30 * kMicrosPerSecond, profile);
  dml::FaultInjector::Install(*sim, plan);
  sim->Start();

  ConvergenceOutcome out;
  // Step the sim and record the first instant every replica agrees on a
  // full index (churn can transiently break agreement; we report the final
  // convergence time).
  for (common::SimTime t = kMicrosPerSecond; t <= 120 * kMicrosPerSecond;
       t += kMicrosPerSecond) {
    sim->RunUntil(t);
    const Bytes digest = nodes[0]->index().Digest();
    bool agreed = nodes[0]->index().size() == kAdverts;
    for (store::DiscoveryNode* node : nodes) {
      if (node->index().size() != kAdverts ||
          node->index().Digest() != digest) {
        agreed = false;
        break;
      }
    }
    if (agreed) {
      out.converge_s = static_cast<double>(t) / kMicrosPerSecond;
      out.digest = digest;
      out.adverts = nodes[0]->index().size();
      break;
    }
  }
  return out;
}

}  // namespace

int main() {
  bench::Banner("E17: content-addressed store, memoization, discovery",
                "cache-hit lifecycle << train-from-scratch; dedup > 1; "
                "discovery converges deterministically under churn");

  // --- (a) substitution: cache-hit vs train-from-scratch. -------------------
  constexpr int kPairs = 5;
  std::printf("\n-- (a) substitution pairs (%d seeds) --\n", kPairs);
  std::printf("%6s %5s %12s %12s %10s %10s %10s %10s\n", "seed", "first",
              "miss cpu ms", "hit cpu ms", "speedup", "wall", "verified",
              "fee");
  std::vector<double> speedups, wall_speedups;
  int hits = 0, verified = 0;
  double miss_ms_sum = 0, hit_ms_sum = 0, miss_cpu_sum = 0, hit_cpu_sum = 0;
  uint64_t miss_gas = 0, hit_gas = 0;
  for (int i = 0; i < kPairs; ++i) {
    const uint64_t seed = 9000 + i;
    const bool hit_first = i % 2 == 1;
    SubstitutionOutcome o = RunSubstitutionPair(seed, hit_first);
    if (o.hit) {
      ++hits;
      if (o.verified) ++verified;
      speedups.push_back(o.miss_cpu_ms / o.hit_cpu_ms);
      wall_speedups.push_back(o.miss_ms / o.hit_ms);
      miss_ms_sum += o.miss_ms;
      hit_ms_sum += o.hit_ms;
      miss_cpu_sum += o.miss_cpu_ms;
      hit_cpu_sum += o.hit_cpu_ms;
      miss_gas = o.miss_gas;
      hit_gas = o.hit_gas;
    }
    std::printf("%6llu %5s %12.1f %12.1f %9.1fx %9.1fx %10s %10llu\n",
                static_cast<unsigned long long>(seed),
                hit_first ? "hit" : "miss", o.miss_cpu_ms, o.hit_cpu_ms,
                o.hit ? o.miss_cpu_ms / o.hit_cpu_ms : 0.0,
                o.hit ? o.miss_ms / o.hit_ms : 0.0,
                o.hit ? (o.verified ? "yes" : "NO") : "miss",
                static_cast<unsigned long long>(o.reuse_fee));
  }
  // The gate reads the thread-CPU ratio; the wall-clock one rides beside it
  // in the report and moves with host load.
  const double median_speedup = bench::Median(speedups);
  const double median_wall_speedup = bench::Median(wall_speedups);
  const double verify_rate =
      hits == 0 ? 0.0 : static_cast<double>(verified) / hits;

  // --- (b) artifact-store dedup on overlapping revisions. -------------------
  const double dedup_ratio = MeasureDedupRatio();
  std::printf("\n-- (b) dedup: 8 revisions sharing a 512 KiB base -> "
              "ratio %.2f\n", dedup_ratio);

  // --- (c) discovery convergence under churn: no pool vs 4 threads. --------
  std::printf("\n-- (c) discovery convergence (12 nodes, churn+corruption) "
              "--\n");
  const ConvergenceOutcome c1 = RunConvergence(4242, nullptr);
  common::ThreadPool pool(4);
  const ConvergenceOutcome c2 = RunConvergence(4242, &pool);
  const bool deterministic =
      c1.converge_s >= 0 && c1.converge_s == c2.converge_s &&
      c1.digest == c2.digest;
  std::printf("converged at %.0f s (4 threads: %.0f s), digests %s\n",
              c1.converge_s, c2.converge_s,
              deterministic ? "bit-identical" : "DIVERGED");

  // --- report ---------------------------------------------------------------
  const bench::Json report =
      bench::Json()
          .Add("pairs", kPairs)
          .Add("cache_hits", hits)
          .Add("hit_miss_speedup_median", median_speedup)
          .Add("hit_miss_speedup_clock", "thread_cpu")
          .Add("hit_miss_wall_speedup_median", median_wall_speedup)
          .Add("miss_ms_mean", hits ? miss_ms_sum / hits : 0.0)
          .Add("hit_ms_mean", hits ? hit_ms_sum / hits : 0.0)
          .Add("miss_cpu_ms_mean", hits ? miss_cpu_sum / hits : 0.0)
          .Add("hit_cpu_ms_mean", hits ? hit_cpu_sum / hits : 0.0)
          .Add("miss_gas", miss_gas)
          .Add("hit_gas", hit_gas)
          .Add("artifact_verify_rate", verify_rate)
          .Add("dedup_ratio", dedup_ratio)
          .Add("discovery_nodes", 12)
          .Add("discovery_converge_s", c1.converge_s)
          .Add("discovery_deterministic", deterministic);
  if (!bench::WriteReportSection("BENCH_discovery.json", "discovery",
                                 report)) {
    return 1;
  }

  const bool pass = hits == kPairs && verify_rate == 1.0 &&
                    median_speedup >= 5.0 && dedup_ratio > 1.0 &&
                    deterministic;
  std::printf("%s\n",
              pass ? "E17 PASS: substitution >=5x, every artifact verified, "
                     "dedup > 1, discovery deterministic"
                   : "E17 FAIL: acceptance floor violated");
  return pass ? 0 : 1;
}
