// E16 — Byzantine accountability (paper §III-A).
//
// Section (h): 4 validators (1 adversarial) and 3 bonded executors (1
// cheating). Provable misbehaviour is slashed, withholding never is,
// honest replicas never diverge, and every executor fraud completes with
// the cheater's bond forfeited and supply conserved. Writes
// BENCH_byzantine.json.

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "market/marketplace.h"
#include "p2p/validator_network.h"

namespace {

using namespace pds2;
using common::ByzantineBehavior;

constexpr char kReport[] = "BENCH_byzantine.json";
constexpr uint64_t kByzSeeds = 3;

struct ByzantineOutcome {
  // Number of honest-node pairs that disagree on their common prefix (the
  // safety claim requires this to be exactly 0).
  uint64_t honest_divergences = 0;
  bool offender_slashed = false;   // stake gone on every honest replica
  bool supply_conserved = true;    // balances + stakes + burned invariant
  // Per-honest-node (height, head id, state digest) for the thread-count
  // determinism check: two runs are "identical" iff these match bit-for-bit.
  std::vector<std::pair<uint64_t, common::Bytes>> honest_heads;
  std::vector<common::Bytes> honest_digests;
};

ByzantineOutcome RunByzantineCell(common::ByzantineBehavior behavior,
                                  uint64_t seed,
                                  common::ThreadPool* pool = nullptr) {
  constexpr uint64_t kStake = 1'000'000;
  constexpr size_t kValidators = 4;
  constexpr size_t kOffender = 1;
  crypto::SigningKey alice = crypto::SigningKey::FromSeed(common::ToBytes("a"));
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};

  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  chain::ChainConfig chain_config;
  chain_config.proposer_grace = 4 * common::kMicrosPerSecond;
  chain_config.validator_stake = kStake;
  chain_config.thread_pool = pool;

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(kValidators, genesis,
                                       common::kMicrosPerSecond, net, seed,
                                       &nodes, chain_config);
  nodes[kOffender]->SetByzantine(behavior);
  sim->Start();
  sim->RunUntil(30 * common::kMicrosPerSecond);

  const uint64_t expected_supply = 1'000'000'000 + kValidators * kStake;
  const chain::Address offender_addr = chain::AddressFromPublicKey(
      nodes[0]->chain().validators()[kOffender]);

  ByzantineOutcome o;
  o.offender_slashed = true;
  std::vector<size_t> honest;
  for (size_t i = 0; i < kValidators; ++i) {
    if (i != kOffender) honest.push_back(i);
  }
  uint64_t min_height = UINT64_MAX;
  for (size_t i : honest) {
    min_height = std::min(min_height, nodes[i]->chain().Height());
    if (nodes[i]->chain().TotalSupply() != expected_supply) {
      o.supply_conserved = false;
    }
    if (nodes[i]->chain().StakeOf(offender_addr) != 0) {
      o.offender_slashed = false;
    }
    o.honest_heads.emplace_back(nodes[i]->chain().Height(),
                                nodes[i]->chain().LastBlockHash());
    o.honest_digests.push_back(nodes[i]->chain().StateDigest());
  }
  // Pairwise common-prefix agreement across honest replicas.
  const auto& reference = nodes[honest[0]]->chain().blocks();
  for (size_t i : honest) {
    const auto& blocks = nodes[i]->chain().blocks();
    const size_t common_len =
        std::min<size_t>({blocks.size(), reference.size(), min_height});
    for (size_t b = 0; b < common_len; ++b) {
      if (blocks[b].header.Id() != reference[b].header.Id()) {
        ++o.honest_divergences;
        break;
      }
    }
  }
  return o;
}

struct ByzantineLifecycleOutcome {
  bool completed = false;
  bool cheater_slashed = false;
  bool supply_conserved = false;
  uint64_t tokens_burned = 0;
};

// One marketplace run with 3 bonded executors, one scripted to cheat.
ByzantineLifecycleOutcome RunByzantineLifecycle(market::ExecutorFault fault,
                                                uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  market::Marketplace market(config);
  common::Rng rng(seed * 1361 + static_cast<uint64_t>(fault));

  ml::Dataset all = ml::MakeTwoGaussians(600, 4, 4.0, rng);
  auto parts = ml::PartitionWeighted(all, {1.0, 2.0, 3.0}, rng);
  for (int i = 0; i < 3; ++i) {
    market::ProviderAgent& provider =
        market.AddProvider("provider-" + std::to_string(i));
    storage::SemanticMetadata meta;
    meta.types = {"iot/sensor/temperature"};
    (void)provider.store().AddDataset("temps", parts[i], meta);
  }
  for (int i = 0; i < 3; ++i) {
    market.AddExecutor("executor-" + std::to_string(i));
  }
  market::ConsumerAgent& consumer = market.AddConsumer("consumer");
  const size_t cheater = rng.NextU64(3);
  market.executors()[cheater]->InjectFault(fault);
  const std::string cheater_name = market.executors()[cheater]->name();

  market::WorkloadSpec spec;
  spec.name = "byzantine-sweep";
  spec.requirement.required_types = {"iot/sensor"};
  spec.requirement.min_records = 10;
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 100'000'000;
  spec.min_providers = 2;
  spec.executor_reward_permille = 200;
  spec.executor_stake = 50'000'000;

  const uint64_t supply_before = market.chain().TotalSupply();
  auto report = market.RunWorkload(consumer, spec);
  ByzantineLifecycleOutcome outcome;
  outcome.supply_conserved = market.chain().TotalSupply() == supply_before;
  if (report.ok()) {
    outcome.completed = true;
    outcome.cheater_slashed =
        report->slashed_executors.count(cheater_name) > 0;
    outcome.tokens_burned = report->tokens_burned;
  }
  return outcome;
}

const char* BehaviorName(common::ByzantineBehavior b) {
  switch (b) {
    case common::ByzantineBehavior::kEquivocate: return "equivocate";
    case common::ByzantineBehavior::kInvalidStateRoot: return "invalid_root";
    case common::ByzantineBehavior::kGasCheat: return "gas_cheat";
    case common::ByzantineBehavior::kWithhold: return "withhold";
    default: return "none";
  }
}

double Rate(uint64_t count) {
  return static_cast<double>(count) / static_cast<double>(kByzSeeds);
}

// Validator behaviours: every provable behaviour must slash, honest
// replicas must never diverge, withholding must never slash. Returns the
// "validator_accountability" section, adds the validator half of the
// summary to `summary`, and reports whether every floor held.
bench::Json ValidatorAccountability(bench::Json* summary, bool* floors_ok) {
  std::printf("%14s %12s %10s %10s\n", "behavior", "divergences",
              "slashed", "conserved");
  const ByzantineBehavior kBehaviors[] = {
      ByzantineBehavior::kEquivocate, ByzantineBehavior::kInvalidStateRoot,
      ByzantineBehavior::kGasCheat, ByzantineBehavior::kWithhold};
  std::vector<bench::Json> cells;
  uint64_t total_divergences = 0, provable_cells = 0, provable_slashed = 0;
  uint64_t withhold_slashed = 0;
  bool supply_ok = true;
  for (ByzantineBehavior behavior : kBehaviors) {
    uint64_t divergences = 0, slashed = 0, conserved = 0;
    for (uint64_t seed = 1; seed <= kByzSeeds; ++seed) {
      const ByzantineOutcome o = RunByzantineCell(behavior, seed);
      divergences += o.honest_divergences;
      if (o.offender_slashed) ++slashed;
      if (o.supply_conserved) ++conserved;
    }
    total_divergences += divergences;
    if (common::IsProvable(behavior)) {
      provable_cells += kByzSeeds;
      provable_slashed += slashed;
    } else {
      withhold_slashed += slashed;
    }
    if (conserved != kByzSeeds) supply_ok = false;
    std::printf("%14s %12" PRIu64 " %9" PRIu64 "/%" PRIu64 " %8" PRIu64
                "/%" PRIu64 "\n",
                BehaviorName(behavior), divergences, slashed, kByzSeeds,
                conserved, kByzSeeds);
    cells.push_back(bench::Json()
                        .Add("behavior", BehaviorName(behavior))
                        .Add("provable", common::IsProvable(behavior))
                        .Add("honest_divergences", divergences)
                        .Add("slash_rate", Rate(slashed))
                        .Add("supply_conserved", conserved == kByzSeeds));
  }
  const double slash_rate =
      provable_cells > 0 ? static_cast<double>(provable_slashed) /
                               static_cast<double>(provable_cells)
                         : 0.0;
  summary->Add("honest_divergences", total_divergences)
      .Add("provable_slash_rate", slash_rate)
      .Add("withhold_slashed", withhold_slashed)
      .Add("supply_conserved", supply_ok);
  *floors_ok = total_divergences == 0 && slash_rate == 1.0 &&
               withhold_slashed == 0 && supply_ok;
  return bench::Json()
      .Add("validators", 4)
      .Add("byzantine", 1)
      .Add("stake", 1000000)
      .Add("seeds_per_cell", kByzSeeds)
      .Add("cells", cells);
}

// Determinism across executor pool sizes: the accountability machinery is
// consensus-critical, so 1 thread and 4 threads must reach bit-identical
// honest heads and digests.
bool ThreadsIdentical() {
  common::ThreadPool one(1), four(4);
  const ByzantineOutcome a =
      RunByzantineCell(ByzantineBehavior::kEquivocate, 1, &one);
  const ByzantineOutcome b =
      RunByzantineCell(ByzantineBehavior::kEquivocate, 1, &four);
  const bool identical = a.honest_heads == b.honest_heads &&
                         a.honest_digests == b.honest_digests;
  std::printf("1 vs 4 thread honest heads/digests: %s\n",
              identical ? "bit-identical" : "DIVERGED");
  return identical;
}

// Executor fraud: each Byzantine fault must end in a completed run, a
// slashed bond, burned tokens, and a conserved supply. Returns the
// "executor_accountability" section and whether every cell held that.
bench::Json ExecutorAccountability(bool* floors_ok) {
  std::printf("%18s %10s %10s %10s %12s\n", "executor fault", "completed",
              "slashed", "conserved", "avg burned");
  struct NamedFault {
    market::ExecutorFault fault;
    const char* name;
  };
  const NamedFault kFrauds[] = {
      {market::ExecutorFault::kWrongVote, "wrong_vote"},
      {market::ExecutorFault::kTamperedUpdate, "tampered_update"},
      {market::ExecutorFault::kFalseAttestation, "false_attestation"}};
  std::vector<bench::Json> cells;
  *floors_ok = true;
  for (const NamedFault& fraud : kFrauds) {
    uint64_t completed = 0, slashed = 0, conserved = 0, burned = 0;
    for (uint64_t seed = 1; seed <= kByzSeeds; ++seed) {
      const ByzantineLifecycleOutcome o =
          RunByzantineLifecycle(fraud.fault, seed);
      if (o.completed) ++completed;
      if (o.cheater_slashed) ++slashed;
      if (o.supply_conserved) ++conserved;
      burned += o.tokens_burned;
    }
    if (completed != kByzSeeds || slashed != kByzSeeds ||
        conserved != kByzSeeds) {
      *floors_ok = false;
    }
    std::printf("%18s %9" PRIu64 "/%" PRIu64 " %8" PRIu64 "/%" PRIu64
                " %8" PRIu64 "/%" PRIu64 " %12" PRIu64 "\n",
                fraud.name, completed, kByzSeeds, slashed, kByzSeeds,
                conserved, kByzSeeds, burned / kByzSeeds);
    cells.push_back(bench::Json()
                        .Add("fault", fraud.name)
                        .Add("completion_rate", Rate(completed))
                        .Add("slash_rate", Rate(slashed))
                        .Add("supply_conserved", conserved == kByzSeeds)
                        .Add("avg_tokens_burned", burned / kByzSeeds));
  }
  return bench::Json()
      .Add("executors", 3)
      .Add("byzantine", 1)
      .Add("executor_stake", 50000000)
      .Add("seeds_per_cell", kByzSeeds)
      .Add("cells", cells);
}

}  // namespace

int main() {
  bench::Banner("E16 (h): Byzantine accountability, 4 validators (1 "
                "adversarial), 3 bonded executors (1 cheating)",
                "provable misbehaviour is slashed; honest replicas agree");
  bench::Json summary;
  bool validators_ok = false, executors_ok = false;
  const bench::Json validators =
      ValidatorAccountability(&summary, &validators_ok);
  const bool threads_identical = ThreadsIdentical();
  const bench::Json executors = ExecutorAccountability(&executors_ok);
  summary.Add("threads_identical", threads_identical)
      .Add("executor_floors_ok", executors_ok);
  std::printf("%s\n", validators_ok && threads_identical && executors_ok
                         ? "E16 PASS: honest replicas bit-identical, every "
                           "provable offender slashed, supply conserved"
                         : "E16 FAIL: accountability floor violated");
  const bool written =
      bench::WriteReportSection(kReport, "summary", summary) &&
      bench::WriteReportSection(kReport, "validator_accountability",
                                validators) &&
      bench::WriteReportSection(kReport, "executor_accountability",
                                executors);
  return written ? 0 : 1;
}
