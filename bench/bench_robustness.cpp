// E11 — Robustness under network faults and executor crashes (paper §III-A).
//
// Section (d) sweeps packet loss x validator churn with seeded FaultPlans
// and measures how many block intervals past the last fault the replicas
// need to converge; (e) sweeps the number of crash-scripted executors
// through the full marketplace lifecycle and measures the completion /
// refund split. Writes BENCH_robustness.json.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "dml/fault_injector.h"
#include "market/marketplace.h"
#include "p2p/validator_network.h"

namespace {

using namespace pds2;

constexpr char kReport[] = "BENCH_robustness.json";
constexpr uint64_t kSeedsPerCell = 5;

// --- (d) helpers: seeded fault schedules against the validator mesh. -------

bool Converged(const std::vector<p2p::ValidatorNode*>& nodes) {
  uint64_t min_h = UINT64_MAX, max_h = 0;
  for (p2p::ValidatorNode* node : nodes) {
    min_h = std::min(min_h, node->chain().Height());
    max_h = std::max(max_h, node->chain().Height());
  }
  if (min_h == 0 || max_h - min_h > 1) return false;
  // All replicas agree on the last block of the shortest chain.
  const auto& reference = nodes[0]->chain().blocks();
  for (p2p::ValidatorNode* node : nodes) {
    if (node->chain().blocks()[min_h - 1].header.Id() !=
        reference[min_h - 1].header.Id()) {
      return false;
    }
  }
  return true;
}

struct FaultyOutcome {
  bool converged = false;
  uint64_t blocks_to_converge = 0;  // intervals past the last fault
  uint64_t final_height = 0;
};

FaultyOutcome RunFaulty(double drop_rate, double churn_fraction,
                        uint64_t seed) {
  constexpr size_t kValidators = 4;
  constexpr common::SimTime kInterval = common::kMicrosPerSecond;
  constexpr uint64_t kMaxRecoveryIntervals = 30;

  crypto::SigningKey alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  const chain::Address bob = chain::AddressFromPublicKey(
      crypto::SigningKey::FromSeed(common::ToBytes("b")).PublicKey());
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};

  dml::NetConfig net;
  net.base_latency = 30 * common::kMicrosPerMilli;
  net.latency_jitter = 20 * common::kMicrosPerMilli;
  net.drop_rate = drop_rate;
  chain::ChainConfig chain_config;
  chain_config.proposer_grace = 4 * kInterval;

  common::FaultProfile profile;
  profile.crash_fraction = churn_fraction;
  profile.min_downtime = 2 * kInterval;
  profile.max_downtime = 5 * kInterval;
  profile.num_partitions = churn_fraction > 0.0 ? 1 : 0;
  profile.min_partition = 3 * kInterval;
  profile.max_partition = 6 * kInterval;
  const common::FaultPlan plan =
      common::FaultPlan::Random(seed, kValidators, 20 * kInterval, profile);

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(kValidators, genesis, kInterval, net,
                                       seed, &nodes, chain_config);
  dml::FaultInjector::Install(*sim, plan);
  sim->Start();
  for (uint64_t i = 0; i < 4; ++i) {
    chain::Transaction tx = chain::Transaction::Make(alice, i, bob, 10, 100000,
                                                     chain::CallPayload{});
    dml::NodeContext ctx(*sim, i % kValidators);
    (void)nodes[i % kValidators]->SubmitTransaction(tx, ctx);
  }

  // Measure from the last scheduled fault, but never before a warmup of
  // plain lossy operation (a churn-free plan has no transitions at all).
  const common::SimTime last_fault =
      std::max(plan.LastTransition(), 10 * kInterval);
  sim->RunUntil(last_fault);

  FaultyOutcome outcome;
  for (uint64_t k = 0; k <= kMaxRecoveryIntervals; ++k) {
    sim->RunUntil(last_fault + k * kInterval);
    if (Converged(nodes)) {
      outcome.converged = true;
      outcome.blocks_to_converge = k;
      break;
    }
  }
  for (p2p::ValidatorNode* node : nodes) {
    outcome.final_height =
        std::max(outcome.final_height, node->chain().Height());
  }
  return outcome;
}

// --- (e) helpers: crash-scripted executors through the full lifecycle. -----

struct LifecycleOutcome {
  bool completed = false;
  bool refunded = false;  // failed AND the escrow came back to the consumer
};

LifecycleOutcome RunLifecycle(size_t faulty_executors, uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  market::Marketplace market(config);
  common::Rng rng(seed * 977 + faulty_executors);

  ml::Dataset all = ml::MakeTwoGaussians(600, 4, 4.0, rng);
  auto parts = ml::PartitionWeighted(all, {1.0, 2.0, 3.0}, rng);
  for (int i = 0; i < 3; ++i) {
    market::ProviderAgent& provider =
        market.AddProvider("provider-" + std::to_string(i));
    storage::SemanticMetadata meta;
    meta.types = {"iot/sensor/temperature"};
    (void)provider.store().AddDataset("temps", parts[i], meta);
  }
  for (int i = 0; i < 3; ++i) market.AddExecutor("executor-" + std::to_string(i));
  market::ConsumerAgent& consumer = market.AddConsumer("consumer");

  // Script `faulty_executors` random executors to die at random stages.
  const market::ExecutorFault kStages[] = {
      market::ExecutorFault::kAttestation, market::ExecutorFault::kSetup,
      market::ExecutorFault::kTrain, market::ExecutorFault::kVote};
  std::vector<size_t> order = {0, 1, 2};
  rng.Shuffle(order);
  for (size_t i = 0; i < faulty_executors && i < order.size(); ++i) {
    market.executors()[order[i]]->InjectFault(kStages[rng.NextU64(4)]);
  }

  market::WorkloadSpec spec;
  spec.name = "robustness-sweep";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 100'000'000;
  spec.min_providers = 2;
  spec.executor_reward_permille = 200;

  const uint64_t consumer_before =
      market.chain().GetBalance(consumer.address());
  auto report = market.RunWorkload(consumer, spec);
  LifecycleOutcome outcome;
  if (report.ok()) {
    outcome.completed = true;
  } else {
    const uint64_t consumer_after =
        market.chain().GetBalance(consumer.address());
    // Refunded = the consumer lost at most gas, never the escrowed pool.
    outcome.refunded =
        consumer_before - consumer_after < spec.reward_pool / 2;
  }
  return outcome;
}

double Rate(uint64_t count) {
  return static_cast<double>(count) / static_cast<double>(kSeedsPerCell);
}

// (d) loss x churn -> blocks to converge; the "convergence_sweep" section.
bench::Json ConvergenceSweep() {
  std::printf("\n-- (d) fault sweep: loss x churn fraction (4 validators, "
              "proposer grace 4 intervals, 5 seeds/cell) --\n");
  std::printf("%8s %8s %12s %18s %12s\n", "loss", "churn", "converged",
              "blocks-to-converge", "max height");
  std::vector<bench::Json> cells;
  for (double loss : {0.0, 0.1, 0.2}) {
    for (double churn : {0.0, 0.25, 0.5}) {
      uint64_t converged = 0, recovery_blocks = 0, max_height = 0;
      for (uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
        const FaultyOutcome o = RunFaulty(loss, churn, seed);
        if (o.converged) {
          ++converged;
          recovery_blocks += o.blocks_to_converge;
        }
        max_height = std::max(max_height, o.final_height);
      }
      const double rate = Rate(converged);
      const double avg_blocks =
          converged > 0 ? static_cast<double>(recovery_blocks) /
                              static_cast<double>(converged)
                        : -1.0;
      std::printf("%8.2f %8.2f %11.0f%% %18.1f %12" PRIu64 "\n", loss, churn,
                  rate * 100.0, avg_blocks, max_height);
      cells.push_back(bench::Json()
                          .Add("drop_rate", loss)
                          .Add("churn_fraction", churn)
                          .Add("converged_rate", rate)
                          .Add("avg_blocks_to_converge", avg_blocks));
    }
  }
  return bench::Json()
      .Add("validators", 4)
      .Add("grace_intervals", 4)
      .Add("seeds_per_cell", kSeedsPerCell)
      .Add("cells", cells);
}

// (e) executor crashes -> lifecycle completion; the "lifecycle_completion"
// section.
bench::Json LifecycleCompletion() {
  std::printf("\n-- (e) lifecycle sweep: crash-scripted executors of 3 "
              "(5 seeds/cell) --\n");
  std::printf("%8s %12s %10s %10s\n", "faulty", "completed", "refunded",
              "stranded");
  std::vector<bench::Json> cells;
  bool any_stranded = false;
  for (size_t faulty = 0; faulty <= 3; ++faulty) {
    uint64_t completed = 0, refunded = 0;
    for (uint64_t seed = 1; seed <= kSeedsPerCell; ++seed) {
      const LifecycleOutcome o = RunLifecycle(faulty, seed);
      if (o.completed) ++completed;
      if (o.refunded) ++refunded;
    }
    const uint64_t stranded = kSeedsPerCell - completed - refunded;
    if (stranded > 0) any_stranded = true;
    std::printf("%8zu %11.0f%% %9.0f%% %9.0f%%\n", faulty,
                100.0 * Rate(completed), 100.0 * Rate(refunded),
                100.0 * Rate(stranded));
    cells.push_back(bench::Json()
                        .Add("faulty_executors", faulty)
                        .Add("completion_rate", Rate(completed))
                        .Add("refund_rate", Rate(refunded)));
  }
  std::printf("\n%s\n",
              any_stranded
                  ? "WARNING: some failed runs did not refund the escrow"
                  : "liveness: every run completed or refunded the escrow");
  return bench::Json()
      .Add("executors", 3)
      .Add("seeds_per_cell", kSeedsPerCell)
      .Add("cells", cells);
}

}  // namespace

int main() {
  bench::Banner("E11: robustness under packet loss, churn and crashes",
                "replicas reconverge after faults; a failed run refunds");
  const bool written =
      bench::WriteReportSection(kReport, "convergence_sweep",
                                ConvergenceSweep()) &&
      bench::WriteReportSection(kReport, "lifecycle_completion",
                                LifecycleCompletion());
  return written ? 0 : 1;
}
