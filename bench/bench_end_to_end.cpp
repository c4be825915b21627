// E10 — End-to-end platform feasibility (paper §II-D, §VI).
// E12 — Observability overhead on a full marketplace run.
// E19 — Health plane: sampling+rule-evaluation overhead and alert quality.
//
// The future-work section asks for "an implementation that can be used to
// test the feasibility of the platform". This harness runs the complete
// marketplace at increasing scale and reports throughput, per-phase chain
// activity, model quality and the settlement audit (escrow conservation).
// E12 then repeats one mid-size run with metrics+tracing off and on and
// reports the wall-clock delta into BENCH_observability.json. E19 attaches
// the per-block health sampler + the full default rule pack and records
// its overhead, then replays a seeded executor-fault matrix measuring
// alert precision/recall, detection latency, and 1-vs-N-thread digest
// determinism.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/thread_pool.h"
#include "market/marketplace.h"
#include "ml/metrics.h"
#include "obs/health_rules.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "obs/trace.h"

namespace {

using namespace pds2;

constexpr char kReport[] = "BENCH_observability.json";

// Adds `n` providers holding IID shards of one 6-feature dataset drawn
// from `data_seed`, `n_exec` executors and consumer "c" to `m`. The
// held-out split goes to `test` when given.
market::ConsumerAgent& Populate(market::Marketplace& m, size_t n,
                                size_t n_exec, uint64_t data_seed,
                                ml::Dataset* test = nullptr) {
  common::Rng rng(data_seed);
  ml::Dataset world = ml::MakeTwoGaussians(60 * n + 500, 6, 3.5, rng);
  auto [train, held_out] = ml::TrainTestSplit(
      world, 500.0 / static_cast<double>(world.Size()), rng);
  auto parts = ml::PartitionIid(train, n, rng);
  storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  for (size_t i = 0; i < n; ++i) {
    auto& p = m.AddProvider("p" + std::to_string(i));
    (void)p.store().AddDataset("d", parts[i], meta);
  }
  for (size_t i = 0; i < n_exec; ++i) m.AddExecutor("e" + std::to_string(i));
  if (test != nullptr) *test = std::move(held_out);
  return m.AddConsumer("c");
}

// The logistic-regression job over Populate()'s providers.
market::WorkloadSpec Spec(const char* name, size_t min_providers,
                          size_t max_providers) {
  market::WorkloadSpec spec;
  spec.name = name;
  spec.requirement.required_types = {"iot/sensor"};
  spec.model_kind = "logistic";
  spec.features = 6;
  spec.epochs = 5;
  spec.reward_pool = 1'000'000;
  spec.min_providers = min_providers;
  spec.max_providers = max_providers;
  spec.executor_reward_permille = 150;
  return spec;
}

// One full lifecycle at the E12 scale; returns wall-clock ms (negative on
// failure).
double OneLifecycleMs(uint64_t seed) {
  market::MarketConfig config;
  config.seed = seed;
  market::Marketplace m(config);
  auto& consumer = Populate(m, 8, 2, seed);
  const market::WorkloadSpec spec = Spec("e12", 8, 8);
  bench::Timer timer;
  auto report = m.RunWorkload(consumer, spec);
  return report.ok() ? timer.ElapsedMs() : -1.0;
}

bool RunE12() {
  bench::Banner("E12: observability overhead on a full marketplace run",
                "metrics+tracing add low-single-digit % to the lifecycle");
  constexpr int kTrials = 31;
  // Three arms per trial: everything off, metrics only, and metrics +
  // tracing (spans recorded AND trace contexts propagated on every NetSim
  // envelope and chain transaction). The metrics->tracing delta isolates
  // the propagation cost the acceptance budget caps at < 2%. Every trial
  // repeats one seeded lifecycle and the arm that runs first rotates per
  // trial, so warm-up and drift within a trial hit every arm alike; the
  // overheads are paired per trial (bench::PairedOverhead).
  std::vector<double> arm_ms[3];
  size_t spans_per_run = 0;
  for (int t = 0; t < kTrials; ++t) {
    for (int k = 0; k < 3; ++k) {
      const int arm = (t + k) % 3;
      obs::SetMetricsEnabled(arm >= 1);
      obs::SetTracingEnabled(arm == 2);
      arm_ms[arm].push_back(OneLifecycleMs(4200));
      if (arm == 2) {
        spans_per_run = obs::Tracer::Global().SpanCount();
        obs::Tracer::Global().Reset();
      }
    }
  }
  obs::SetMetricsEnabled(false);
  obs::SetTracingEnabled(false);
  const double off = bench::Median(arm_ms[0]);
  const double metrics_on = bench::Median(arm_ms[1]);
  const double trace_on = bench::Median(arm_ms[2]);
  const bench::Overhead overhead = bench::PairedOverhead(arm_ms[0], arm_ms[2]);
  const bench::Overhead propagation =
      bench::PairedOverhead(arm_ms[1], arm_ms[2]);
  std::printf("lifecycle median: %.1f ms off, %.1f ms metrics, %.1f ms "
              "metrics+tracing (%d trials, rotated)\n",
              off, metrics_on, trace_on, kTrials);
  std::printf("total obs overhead %.2f%% (resolution %.2f%%); trace "
              "propagation overhead %.2f%% (resolution %.2f%%); %zu "
              "spans/run\n",
              overhead.pct, overhead.resolution_pct, propagation.pct,
              propagation.resolution_pct, spans_per_run);

  const bench::Json section =
      bench::Json()
          .Add("trials", kTrials)
          .Add("lifecycle_median_ms_obs_off", off)
          .Add("lifecycle_median_ms_metrics_on", metrics_on)
          .Add("lifecycle_median_ms_obs_on", trace_on)
          .AddOverhead("enabled_overhead_pct", overhead)
          .AddOverhead("trace_propagation_overhead_pct", propagation)
          .Add("spans_per_lifecycle", spans_per_run);
  return bench::WriteReportSection(kReport, "marketplace_lifecycle_overhead",
                                   section);
}

// ---------------------------------------------------------------------------
// E19 — health plane.

// One seeded lifecycle with the health plane in one of three modes:
//   0  metrics on, no TimeSeries/monitor at all (base)
//   1  TimeSeries + monitor constructed but never attached (disabled)
//   2  attached: per-block sampling + full DefaultRules evaluation
struct HealthRun {
  double wall_ms = -1.0;
  bool run_ok = false;
  std::vector<std::string> fired;
  uint64_t digest = 0;
  uint64_t samples = 0;
  uint64_t rules = 0;
  uint64_t max_latency_samples = 0;  // fire sample - first bad sample
};

HealthRun OneHealthLifecycle(uint64_t seed, int mode,
                             const std::vector<market::ExecutorFault>& faults,
                             common::ThreadPool* pool) {
  obs::Registry::Global().ResetValues();
  constexpr size_t n = 8, n_exec = 3;
  market::MarketConfig config;
  config.seed = seed;
  config.thread_pool = pool;
  market::Marketplace m(config);
  auto& consumer = Populate(m, n, n_exec, seed);
  for (size_t i = 0; i < faults.size() && i < n_exec; ++i) {
    m.executors()[i]->InjectFault(faults[i]);
  }
  market::WorkloadSpec spec = Spec("e19", 2, n);
  spec.executor_stake = 100'000;  // a real bond, so slashes are observable

  obs::TimeSeries ts({.capacity = 4096, .max_series = 4096});
  obs::HealthMonitor monitor(&ts);
  if (mode >= 1) monitor.AddRules(obs::rules::DefaultRules());
  if (mode == 2) m.SetHealthSampling(&ts, &monitor);

  bench::Timer timer;
  auto report = m.RunWorkload(consumer, spec);
  HealthRun out;
  out.wall_ms = timer.ElapsedMs();
  out.run_ok = report.ok();
  out.fired = monitor.FiredRuleIds();
  out.digest = monitor.EventsDigest();
  out.samples = ts.SampleCount();
  out.rules = monitor.RuleCount();
  for (const obs::AlertEvent& event : monitor.Events()) {
    if (!event.fired) continue;
    out.max_latency_samples =
        std::max<uint64_t>(out.max_latency_samples,
                           event.sample_index - event.first_bad_sample);
  }
  return out;
}

bool RunE19() {
  bench::Banner("E19: health plane overhead and alert quality",
                "per-block sampling + rule evaluation <= 2%; every injected "
                "fault fires exactly its mapped alerts");
  obs::SetMetricsEnabled(true);

  // --- Overhead arms. Base has no health plane, `disabled` pays only
  // construction (never sampled), `enabled` samples + evaluates the full
  // default rule pack at every produced block. The three arms of a trial
  // share its seed and rotate which runs first; the overheads are paired
  // per trial (bench::PairedOverhead).
  constexpr int kTrials = 151;
  std::vector<double> arm_ms[3];
  uint64_t samples = 0, rules = 0;
  for (int t = 0; t < kTrials; ++t) {
    for (int k = 0; k < 3; ++k) {
      const int mode = (t + k) % 3;
      const HealthRun run = OneHealthLifecycle(
          1900 + static_cast<uint64_t>(t), mode, {}, nullptr);
      arm_ms[mode].push_back(run.wall_ms);
      if (mode == 2) {
        samples = run.samples;
        rules = run.rules;
      }
    }
  }
  const double base = bench::Median(arm_ms[0]);
  const double disabled = bench::Median(arm_ms[1]);
  const double enabled = bench::Median(arm_ms[2]);
  const bench::Overhead disabled_overhead =
      bench::PairedOverhead(arm_ms[0], arm_ms[1]);
  const bench::Overhead enabled_overhead =
      bench::PairedOverhead(arm_ms[0], arm_ms[2]);
  std::printf("lifecycle median: %.1f ms base, %.1f ms health-disabled "
              "(%.2f%% +- %.2f%%), %.1f ms health-enabled (%.2f%% +- "
              "%.2f%%)\n",
              base, disabled, disabled_overhead.pct,
              disabled_overhead.resolution_pct, enabled, enabled_overhead.pct,
              enabled_overhead.resolution_pct);
  std::printf("%llu samples/lifecycle, %llu rules evaluated per sample\n",
              static_cast<unsigned long long>(samples),
              static_cast<unsigned long long>(rules));

  // --- Seeded fault matrix: every cell must fire exactly its mapped
  // rules. Precision counts false fires, recall counts missed faults.
  struct Cell {
    const char* name;
    std::vector<market::ExecutorFault> faults;
    std::set<std::string> expected;
  };
  const std::vector<Cell> cells = {
      {"fault_free", {}, {}},
      {"train_crash",
       {market::ExecutorFault::kTrain},
       {"market.executor-dropped"}},
      {"false_attestation",
       {market::ExecutorFault::kFalseAttestation},
       {"market.attestation-fault", "market.executor-slashed"}},
      {"lost_quorum",
       {market::ExecutorFault::kVote, market::ExecutorFault::kVote},
       {"market.executor-dropped", "market.workload-aborted"}},
  };
  uint64_t tp = 0, fp = 0, fn = 0, expected_total = 0, fired_total = 0;
  uint64_t max_latency = 0;
  for (const Cell& cell : cells) {
    const HealthRun run = OneHealthLifecycle(1950, 2, cell.faults, nullptr);
    const std::set<std::string> fired(run.fired.begin(), run.fired.end());
    expected_total += cell.expected.size();
    fired_total += fired.size();
    max_latency = std::max(max_latency, run.max_latency_samples);
    for (const std::string& id : fired) {
      if (cell.expected.count(id)) ++tp;
      else ++fp;
    }
    for (const std::string& id : cell.expected) {
      if (!fired.count(id)) ++fn;
    }
    std::printf("  %-18s fired %zu/%zu expected alerts%s\n", cell.name,
                fired.size(), cell.expected.size(),
                fired == cell.expected ? "" : "  <-- MISMATCH");
  }
  const double precision =
      tp + fp == 0 ? 1.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fp);
  const double recall =
      tp + fn == 0 ? 1.0
                   : static_cast<double>(tp) / static_cast<double>(tp + fn);

  // --- Determinism: the same faulted seed at 0/1/4 pool threads must
  // produce the same alert stream digest (EventsDigest excludes wall time).
  const std::vector<market::ExecutorFault> mixed = {
      market::ExecutorFault::kFalseAttestation, market::ExecutorFault::kTrain};
  const HealthRun seq = OneHealthLifecycle(1960, 2, mixed, nullptr);
  common::ThreadPool pool1(1), pool4(4);
  const HealthRun one = OneHealthLifecycle(1960, 2, mixed, &pool1);
  const HealthRun four = OneHealthLifecycle(1960, 2, mixed, &pool4);
  const bool threads_identical = !seq.fired.empty() &&
                                 one.fired == seq.fired &&
                                 four.fired == seq.fired &&
                                 one.digest == seq.digest &&
                                 four.digest == seq.digest;
  obs::SetMetricsEnabled(false);

  std::printf("alert precision %.3f recall %.3f, max detection latency %llu "
              "sample(s), threads %s\n",
              precision, recall,
              static_cast<unsigned long long>(max_latency),
              threads_identical ? "identical" : "DIVERGED");

  const bench::Json section =
      bench::Json()
          .Add("trials", kTrials)
          .Add("lifecycle_median_ms_base", base)
          .Add("lifecycle_median_ms_health_disabled", disabled)
          .Add("lifecycle_median_ms_health_enabled", enabled)
          .AddOverheadBound("disabled_overhead_pct", disabled_overhead)
          .AddOverheadBound("enabled_overhead_pct", enabled_overhead)
          .Add("samples_per_lifecycle", samples)
          .Add("rules_per_sample", rules)
          .Add("fault_cells", cells.size())
          .Add("alerts_expected", expected_total)
          .Add("alerts_fired", fired_total)
          .Add("alert_precision", precision)
          .Add("alert_recall", recall)
          .Add("max_detection_latency_samples", max_latency)
          .Add("threads_identical", threads_identical);
  return bench::WriteReportSection(kReport, "health", section);
}

}  // namespace

int main() {
  bench::Banner("E10: end-to-end marketplace feasibility",
                "full Fig. 2 lifecycle at scale; escrow fully discharged");

  std::printf("%10s %10s | %10s %12s %10s %12s %14s\n", "providers",
              "executors", "wall ms", "gas", "blocks", "model acc",
              "escrow check");

  for (size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const size_t n_exec = std::max<size_t>(1, n / 8);
    market::MarketConfig config;
    config.seed = 1000 + n;
    market::Marketplace m(config);
    ml::Dataset test;
    auto& consumer = Populate(m, n, n_exec, n, &test);
    const market::WorkloadSpec spec = Spec("feasibility", n, n);

    bench::Timer timer;
    auto report = m.RunWorkload(consumer, spec);
    const double wall_ms = timer.ElapsedMs();
    if (!report.ok()) {
      std::printf("%10zu %10zu | FAILED: %s\n", n, n_exec,
                  report.status().ToString().c_str());
      continue;
    }

    ml::LogisticRegressionModel model(6);
    model.SetParams(report->model_params);
    const double accuracy = ml::Accuracy(model, test);

    // Settlement audit: the contract must hold zero tokens, and the paid
    // rewards must equal the pool minus (tiny) rounding dust.
    uint64_t paid = 0;
    for (const auto& [_, tokens] : report->provider_rewards) paid += tokens;
    for (const auto& [_, tokens] : report->executor_rewards) paid += tokens;
    const uint64_t stuck = m.chain().GetBalance(
        chain::ContractAddress("workload", report->instance));
    const bool conserved = stuck == 0 && paid <= spec.reward_pool &&
                           spec.reward_pool - paid < 1000;

    std::printf("%10zu %10zu | %10.1f %12llu %10llu %12.3f %14s\n", n, n_exec,
                wall_ms, static_cast<unsigned long long>(report->gas_used),
                static_cast<unsigned long long>(report->blocks_produced),
                accuracy, conserved ? "conserved" : "VIOLATED");
  }
  std::printf("\n(gas grows linearly in providers — certificate validation "
              "dominates; accuracy is flat: the same data, more finely "
              "sharded)\n");

  return RunE12() && RunE19() ? 0 : 1;
}
