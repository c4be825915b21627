// Acceptance scenario for the observability subsystem: a full marketplace
// lifecycle under the executor chaos harness plus a faulty validator-network
// run, with metrics and tracing enabled end to end. The run must yield
//   - a metrics snapshot covering chain.*, p2p.*, market.* and dml.*,
//   - a hierarchical span trace carrying simulated time, in which the
//     scripted validator crash is visible, and
//   - a per-run trace export as JSON lines.

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "dml/fault_injector.h"
#include "market/marketplace.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"
#include "p2p/validator_network.h"

namespace pds2::obs {
namespace {

using common::SimTime;
using common::ToBytes;

constexpr SimTime kBlockInterval = common::kMicrosPerSecond;
// RunChaosValidatorNetwork's fault plan kills validator 0 here for good.
constexpr SimTime kValidatorCrashAt = 2 * kBlockInterval;

uint64_t CounterValue(const Snapshot& snap, const std::string& name) {
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}

bool HasCounterWithPrefix(const Snapshot& snap, const std::string& prefix) {
  for (const auto& [n, v] : snap.counters) {
    if (n.rfind(prefix, 0) == 0 && v > 0) return true;
  }
  return false;
}

const SpanRecord* FindSpan(const std::vector<SpanRecord>& spans,
                           const std::string& name) {
  for (const SpanRecord& span : spans) {
    if (span.name == name) return &span;
  }
  return nullptr;
}

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// One marketplace run under the chaos harness: 4 providers, 3 executors,
// executor-1 crashes mid-training — the surviving quorum finishes.
void RunChaosMarketplaceLifecycle() {
  market::MarketConfig config;
  market::Marketplace market(config);
  common::Rng rng(77);
  ml::Dataset all = ml::MakeTwoGaussians(1200, 4, 4.0, rng);
  auto [train, test] = ml::TrainTestSplit(all, 0.2, rng);
  auto parts = ml::PartitionWeighted(train, {1.0, 2.0, 3.0, 4.0}, rng);
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  for (int i = 0; i < 4; ++i) {
    auto& p = market.AddProvider("provider-" + std::to_string(i));
    ASSERT_TRUE(p.store().AddDataset("temps", parts[i], meta).ok());
  }
  for (int i = 0; i < 3; ++i) {
    market.AddExecutor("executor-" + std::to_string(i));
  }
  auto& consumer = market.AddConsumer("consumer");
  market.executors()[1]->InjectFault(market::ExecutorFault::kTrain);

  market::WorkloadSpec spec;
  spec.name = "obs-acceptance";
  spec.requirement.required_types = {"iot/sensor"};
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 10'000'000;
  spec.min_providers = 2;
  spec.max_providers = 16;
  spec.executor_reward_permille = 200;

  auto report = market.RunWorkload(consumer, spec);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  ASSERT_EQ(report->dropped_executors.size(), 1u);
}

// A 4-validator mesh where node 0 dies early (chaos fault plan) and 5% of
// messages drop: sync retries, grace takeover and fork resolution all fire.
void RunChaosValidatorNetwork() {
  auto alice = crypto::SigningKey::FromSeed(ToBytes("a"));
  std::vector<p2p::GenesisAlloc> genesis = {
      {chain::AddressFromPublicKey(alice.PublicKey()), 1'000'000'000}};
  dml::NetConfig net;
  net.base_latency = 20 * common::kMicrosPerMilli;
  net.latency_jitter = 10 * common::kMicrosPerMilli;
  net.drop_rate = 0.05;
  chain::ChainConfig chain_config;
  chain_config.proposer_grace = 4 * kBlockInterval;
  common::FaultPlan plan;
  plan.churn.push_back({kValidatorCrashAt, 0, false});

  std::vector<p2p::ValidatorNode*> nodes;
  auto sim = p2p::MakeValidatorNetwork(4, genesis, kBlockInterval, net,
                                       /*seed=*/5, &nodes, chain_config);
  dml::FaultInjector::Install(*sim, plan);
  sim->Start();
  chain::Transaction tx = chain::Transaction::Make(
      alice, 0,
      chain::AddressFromPublicKey(
          crypto::SigningKey::FromSeed(ToBytes("b")).PublicKey()),
      100, 100000, chain::CallPayload{});
  dml::NodeContext ctx(*sim, 1);
  ASSERT_TRUE(nodes[1]->SubmitTransaction(tx, ctx).ok());
  sim->RunUntil(20 * kBlockInterval);

  uint64_t min_height = UINT64_MAX;
  for (size_t i = 1; i < nodes.size(); ++i) {
    min_height = std::min(min_height, nodes[i]->chain().Height());
  }
  ASSERT_GT(min_height, 2u);  // the mesh made progress despite the faults
}

TEST(ObsLifecycleTraceTest, ChaosRunProducesFullTelemetryAndExports) {
  SetMetricsEnabled(true);
  SetTracingEnabled(true);
  Registry::Global().ResetValues();
  Tracer::Global().Reset();

  RunChaosMarketplaceLifecycle();
  RunChaosValidatorNetwork();

  SetMetricsEnabled(false);
  SetTracingEnabled(false);
  const Snapshot snap = Registry::Global().TakeSnapshot();
  const std::vector<SpanRecord> spans = Tracer::Global().Snapshot();

  // --- Metrics cover every instrumented subsystem. ---
  EXPECT_TRUE(HasCounterWithPrefix(snap, "chain."));
  EXPECT_TRUE(HasCounterWithPrefix(snap, "p2p."));
  EXPECT_TRUE(HasCounterWithPrefix(snap, "market."));
  EXPECT_TRUE(HasCounterWithPrefix(snap, "dml."));
  EXPECT_GT(CounterValue(snap, "chain.blocks_produced"), 0u);
  EXPECT_GT(CounterValue(snap, "chain.txs_executed"), 0u);
  EXPECT_GT(CounterValue(snap, "chain.gas_used"), 0u);
  EXPECT_GT(CounterValue(snap, "p2p.blocks_produced"), 0u);
  EXPECT_GT(CounterValue(snap, "dml.net.messages_sent"), 0u);
  EXPECT_GT(CounterValue(snap, "dml.net.messages_dropped"), 0u);
  EXPECT_EQ(CounterValue(snap, "market.workloads_completed"), 1u);
  EXPECT_EQ(CounterValue(snap, "market.executors_dropped"), 1u);
  // Block production timings flowed into a histogram.
  bool found_hist = false;
  for (const auto& [name, summary] : snap.histograms) {
    if (name == "chain.produce_block_us") {
      found_hist = summary.count > 0;
    }
  }
  EXPECT_TRUE(found_hist);

  // --- The span trace is hierarchical and carries simulated time. ---
  const SpanRecord* run = FindSpan(spans, "market.run_workload");
  ASSERT_TRUE(run != nullptr);
  EXPECT_TRUE(run->has_sim);
  EXPECT_GT(run->sim_end, run->sim_start);  // the lifecycle consumed sim time
  for (const char* stage :
       {"market.post", "market.match", "market.attest_seal",
        "market.register_executors", "market.start", "market.train_aggregate",
        "market.vote", "market.finalize", "market.publish_artifact"}) {
    const SpanRecord* span = FindSpan(spans, stage);
    ASSERT_TRUE(span != nullptr) << stage;
    EXPECT_EQ(span->parent, run->id) << stage;
    EXPECT_TRUE(span->has_sim) << stage;
    EXPECT_GE(span->sim_start, run->sim_start) << stage;
    EXPECT_LE(span->sim_end, run->sim_end) << stage;
  }
  const SpanRecord* net_run = FindSpan(spans, "dml.net.run_until");
  ASSERT_TRUE(net_run != nullptr);
  EXPECT_TRUE(net_run->has_sim);
  ASSERT_TRUE(FindSpan(spans, "chain.produce_block") != nullptr);
  ASSERT_TRUE(FindSpan(spans, "chain.apply_block") != nullptr);

  // --- The run is one causally-connected DAG across node roles. ---
  // Context propagation (message/timer envelopes, tx submit -> block
  // execute links) must stitch the whole workload into the component
  // rooted at market.run_workload, covering at least consumer, executor,
  // provider and validator roles.
  TraceDag dag(spans);
  const auto component = dag.Component(run->id);
  EXPECT_GT(component.size(), 30u);
  const auto roles = dag.NodesInComponent(run->id);
  auto count_roles_with = [&](const std::string& prefix) {
    size_t n = 0;
    for (const std::string& role : roles) {
      if (role.rfind(prefix, 0) == 0) ++n;
    }
    return n;
  };
  EXPECT_GE(count_roles_with("consumer/"), 1u);
  EXPECT_GE(count_roles_with("executor/"), 1u);
  EXPECT_GE(count_roles_with("provider/"), 1u);
  EXPECT_GE(count_roles_with("validator/"), 1u);
  EXPECT_GE(roles.size(), 3u);

  // The sim-time critical path from the workload root reaches past the
  // root itself into the stage/chain spans that gated completion.
  const auto path = dag.CriticalPathSim(run->id);
  ASSERT_GE(path.size(), 2u);
  EXPECT_EQ(path.front().id, run->id);
  common::SimTime charged_total = 0;
  for (const auto& step : path) {
    EXPECT_GE(step.sim_end, path.front().sim_start);
    charged_total += step.charged_sim_us;
  }
  // Marginal charges along the path sum to the root's causal makespan.
  EXPECT_EQ(charged_total,
            path.back().sim_end - path.front().sim_start);

  // --- The injected validator crash shows in the trace. ---
  // NetSim labels each delivery and timer span with the receiving node, and
  // only the validator network names its nodes "validator/<i>". Validator 0
  // handles events up to its crash and none after; validator 1 keeps going.
  SimTime last_v0 = 0;
  SimTime last_v1 = 0;
  size_t v0_events = 0;
  for (const SpanRecord& span : spans) {
    if (span.name != "dml.net.deliver" && span.name != "dml.net.timer") {
      continue;
    }
    if (span.node == "validator/0") {
      ++v0_events;
      last_v0 = std::max(last_v0, span.sim_start);
    } else if (span.node == "validator/1") {
      last_v1 = std::max(last_v1, span.sim_start);
    }
  }
  EXPECT_GT(v0_events, 0u);
  EXPECT_LE(last_v0, kValidatorCrashAt);
  EXPECT_GT(last_v1, kValidatorCrashAt);

  // --- Per-run trace export. ---
  {
    std::ofstream trace_out("obs_lifecycle_trace.jsonl");
    Tracer::Global().WriteJsonLines(trace_out);
  }
  const std::string trace_text = Slurp("obs_lifecycle_trace.jsonl");
  EXPECT_NE(trace_text.find("\"name\":\"market.run_workload\""),
            std::string::npos);
  EXPECT_NE(trace_text.find("\"sim_dur_us\":"), std::string::npos);

  Registry::Global().ResetValues();
  Tracer::Global().Reset();
}

}  // namespace
}  // namespace pds2::obs
