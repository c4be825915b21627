// E18 — NetSim at scale: 10^5-node churn + rumor-convergence sweep, with a
// 10^6-node smoke mode.
//
// The headline claim: the timer-wheel DES sustains simulator node counts
// three orders of magnitude past the paper experiments (E2/E3 run at tens
// of nodes) on a single CI host, in minutes, while staying bit-identical
// at 1 vs N worker threads. Each sweep cell runs a seeded push-epidemic
// (dml::RumorNode) under fault-injected churn and reports events/sec,
// sim-time to 99.9% infection of the surviving fleet, and the churn
// transition count. The determinism cell reruns one configuration at 1 and
// N threads and compares exact trajectories.
//
// Writes the "scale" section (plus metadata) of BENCH_scale.json;
// scripts/check_bench_schema.py enforces the acceptance floors (>=10^5
// nodes swept, events/sec floor, deterministic_across_threads).
//
// The 10^6-node smoke cell is on by default but skippable with
// PDS2_SCALE_NO_MILLION=1 for quick reruns; it measures raw event
// throughput at a million nodes without waiting for full convergence.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/fault.h"
#include "common/thread_pool.h"
#include "dml/fault_injector.h"
#include "dml/netsim.h"
#include "dml/rumor.h"

namespace {

using namespace pds2;
using common::SimTime;
using common::kMicrosPerMilli;
using common::kMicrosPerSecond;

struct CellResult {
  size_t nodes = 0;
  uint64_t events = 0;
  double wall_ms = 0;
  double events_per_sec = 0;
  double converge_sim_s = -1.0;  // sim time to 99.9% infected; -1 = never
  double infected_fraction = 0;
  uint64_t churn_transitions = 0;
  uint64_t fingerprint = 0;  // exact trajectory digest (determinism cell)
};

uint64_t Fingerprint(const std::vector<dml::RumorNode*>& nodes,
                     const dml::NetStats& stats) {
  uint64_t fp = 1469598103934665603ull;
  auto mix = [&fp](uint64_t v) { fp = (fp ^ v) * 1099511628211ull; };
  for (const dml::RumorNode* node : nodes) {
    mix(node->infected() ? node->infected_at() + 1 : 0);
  }
  mix(stats.events_processed);
  mix(stats.messages_sent);
  mix(stats.messages_delivered);
  mix(stats.messages_dropped);
  mix(stats.timers_dropped_offline);
  return fp;
}

/// One sweep cell: `num_nodes` rumor nodes under seeded churn, run until
/// the epidemic reaches 99.9% of nodes or `max_sim` passes.
CellResult RunCell(size_t num_nodes, size_t threads, SimTime max_sim,
                   bool with_churn, uint64_t seed) {
  dml::NetConfig net;
  net.drop_rate = 0.01;
  net.bandwidth_bytes_per_sec = 0;  // one-byte rumors; latency dominates
  dml::NetSim sim(net, seed);
  common::ThreadPool pool(threads);
  sim.EnableParallel(&pool, /*batch_window=*/1 * kMicrosPerMilli);
  sim.Reserve(num_nodes + 1);

  dml::RumorConfig rumor;
  std::vector<dml::RumorNode*> nodes;
  nodes.reserve(num_nodes);
  for (size_t i = 0; i < num_nodes; ++i) {
    auto node = std::make_unique<dml::RumorNode>(rumor);
    nodes.push_back(node.get());
    sim.AddNode(std::move(node));
  }
  nodes[0]->Seed();

  uint64_t churn_transitions = 0;
  if (with_churn) {
    common::FaultProfile profile;
    profile.crash_fraction = 0.1;
    profile.min_downtime = 1 * kMicrosPerSecond;
    profile.max_downtime = 3 * kMicrosPerSecond;
    profile.num_partitions = 0;
    const common::FaultPlan plan =
        common::FaultPlan::Random(seed, num_nodes, max_sim, profile);
    churn_transitions = plan.churn.size();
    dml::FaultInjector::Install(sim, plan);
  }

  bench::Timer timer;
  sim.Start();
  CellResult cell;
  cell.nodes = num_nodes;
  const size_t target = num_nodes - num_nodes / 1000;  // 99.9%
  const SimTime slice = 250 * kMicrosPerMilli;
  size_t infected = 0;
  for (SimTime t = slice; t <= max_sim; t += slice) {
    sim.RunUntil(t);
    infected = 0;
    for (const dml::RumorNode* node : nodes) {
      if (node->infected()) ++infected;
    }
    if (cell.converge_sim_s < 0 && infected >= target) {
      cell.converge_sim_s = static_cast<double>(t) / kMicrosPerSecond;
      break;
    }
  }
  cell.wall_ms = timer.ElapsedMs();

  const dml::NetStats stats = sim.stats();
  cell.events = stats.events_processed;
  cell.events_per_sec =
      cell.wall_ms > 0 ? 1000.0 * static_cast<double>(cell.events) /
                             cell.wall_ms
                       : 0;
  cell.infected_fraction =
      static_cast<double>(infected) / static_cast<double>(num_nodes);
  cell.churn_transitions = churn_transitions;
  cell.fingerprint = Fingerprint(nodes, stats);
  return cell;
}

}  // namespace

int main() {
  bench::Banner("E18: NetSim at scale (timer wheel + parallel partitions)",
                "10^5-node churn+rumor sweep in minutes on one host, "
                "bit-identical at 1 vs N threads, 10^6-node smoke");
  const size_t threads = common::ThreadPool::DefaultThreadCount();

  // --- (a) churn + convergence sweep up to 10^5 nodes. ----------------------
  const std::vector<size_t> sweep_nodes = {1'000, 10'000, 100'000};
  std::printf("\n-- (a) churn + rumor convergence sweep (%zu threads) --\n",
              threads);
  std::printf("%9s %12s %10s %14s %12s %10s\n", "nodes", "events", "wall ms",
              "events/s", "converge s", "infected");
  std::vector<bench::Json> sweep;
  double max_events_per_sec = 0.0;
  for (const size_t n : sweep_nodes) {
    const CellResult cell =
        RunCell(n, threads, /*max_sim=*/30 * kMicrosPerSecond,
                /*with_churn=*/true, /*seed=*/1800 + n);
    max_events_per_sec = std::max(max_events_per_sec, cell.events_per_sec);
    std::printf("%9zu %12llu %10.1f %14.0f %12.2f %9.1f%%\n", cell.nodes,
                static_cast<unsigned long long>(cell.events), cell.wall_ms,
                cell.events_per_sec, cell.converge_sim_s,
                100.0 * cell.infected_fraction);
    sweep.push_back(bench::Json()
                        .Add("nodes", cell.nodes)
                        .Add("events", cell.events)
                        .Add("wall_ms", cell.wall_ms)
                        .Add("events_per_sec", cell.events_per_sec)
                        .Add("converge_sim_s", cell.converge_sim_s)
                        .Add("infected_fraction", cell.infected_fraction)
                        .Add("churn_transitions", cell.churn_transitions));
  }

  // --- (b) determinism: same cell at 1 vs N threads. ------------------------
  std::printf("\n-- (b) determinism at 10^4 nodes: 1 vs %zu threads --\n",
              std::max<size_t>(threads, 2));
  const CellResult one =
      RunCell(10'000, 1, 10 * kMicrosPerSecond, true, /*seed=*/1881);
  const CellResult many = RunCell(10'000, std::max<size_t>(threads, 2),
                                  10 * kMicrosPerSecond, true, /*seed=*/1881);
  const bool deterministic = one.fingerprint == many.fingerprint &&
                             one.events == many.events;
  std::printf("fingerprints %016llx vs %016llx -> %s\n",
              static_cast<unsigned long long>(one.fingerprint),
              static_cast<unsigned long long>(many.fingerprint),
              deterministic ? "bit-identical" : "DIVERGED");

  // --- (c) 10^6-node smoke: raw throughput, no convergence wait. ------------
  const bool run_million = std::getenv("PDS2_SCALE_NO_MILLION") == nullptr;
  CellResult million;
  if (run_million) {
    std::printf("\n-- (c) 10^6-node smoke (2 sim-seconds, no churn) --\n");
    million = RunCell(1'000'000, threads, 2 * kMicrosPerSecond,
                      /*with_churn=*/false, /*seed=*/1806);
    std::printf("%9zu %12llu %10.1f %14.0f\n", million.nodes,
                static_cast<unsigned long long>(million.events),
                million.wall_ms, million.events_per_sec);
  } else {
    std::printf("\n-- (c) 10^6-node smoke skipped (PDS2_SCALE_NO_MILLION) --\n");
  }

  // --- report ---------------------------------------------------------------
  const bench::Json report =
      bench::Json()
          .Add("sweep", sweep)
          .Add("max_nodes", sweep_nodes.back())
          .Add("max_events_per_sec", max_events_per_sec)
          .Add("deterministic_across_threads", deterministic)
          .Add("million_smoke", bench::Json()
                                    .Add("ran", run_million)
                                    .Add("nodes", million.nodes)
                                    .Add("events", million.events)
                                    .Add("wall_ms", million.wall_ms)
                                    .Add("events_per_sec",
                                         million.events_per_sec));
  if (!bench::WriteReportSection("BENCH_scale.json", "scale", report)) {
    return 1;
  }
  return deterministic ? 0 : 1;
}
