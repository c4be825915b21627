// pds2_obs: offline analyzer for PDS2 run exports (spans + health records).
//
//   pds2_obs run.jsonl                 analyze an exported run
//   pds2_obs --demo                    run a seeded faulty marketplace
//                                      lifecycle in-process, with tracing
//                                      and the default health rule packs,
//                                      and analyze the export it produces
//   pds2_obs --chrome out.json ...     also emit Chrome trace_event JSON
//                                      (open in Perfetto / chrome://tracing)
//
// The trace section shows the causal DAG's shape (components, roots,
// fan-out), the roles each trace touches, the sim-time critical path from
// the workload root, and per-stage latency attribution. The health section
// shows the sampling window, each rule's fire/resolve timeline (first-bad
// sample, observed vs bound) and the fastest-moving counter series.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "market/marketplace.h"
#include "obs/health.h"
#include "obs/health_rules.h"
#include "obs/metrics.h"
#include "obs/time_series.h"
#include "obs/trace.h"
#include "obs/trace_analysis.h"

namespace {

namespace obs = pds2::obs;

// Counter series listed under "top moving counters".
constexpr size_t kTopSeries = 10;

int Usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0 << " [options] [run.jsonl | -]\n"
      << "  --demo           run a seeded faulty marketplace lifecycle with\n"
      << "                   tracing and the default health rule packs, and\n"
      << "                   analyze its export (no input file)\n"
      << "  --demo-out PATH  with --demo: write the raw JSON-lines export\n"
      << "  --chrome PATH    write Chrome trace_event JSON for Perfetto\n"
      << "  --wall           Chrome export in wall time (default: sim time)\n"
      << "  --root NAME      root the analysis at the first span named NAME\n"
      << "                   (default: market.run_workload, else first root)\n";
  return 2;
}

// The seeded chaos lifecycle from the observability acceptance test: 4
// providers, 3 executors with executor-1 crashing mid-training, one
// workload end to end, sampled per block against the default rule packs.
// Deterministic: identical invocations export identical causal skeletons
// and alert streams. Writes the spans, then the health records.
bool RunDemo(std::ostream& export_out, std::string* error) {
  namespace market = pds2::market;
  namespace ml = pds2::ml;

  obs::SetMetricsEnabled(true);
  obs::Registry::Global().ResetValues();
  obs::SetTracingEnabled(true);
  obs::Tracer::Global().Reset();

  obs::TimeSeries ts({.capacity = 512, .max_series = 2048});
  obs::HealthMonitor monitor(&ts);
  monitor.AddRules(obs::rules::DefaultRules());

  market::MarketConfig config;
  market::Marketplace m(config);
  m.SetHealthSampling(&ts, &monitor);

  pds2::common::Rng rng(77);
  ml::Dataset all = ml::MakeTwoGaussians(1200, 4, 4.0, rng);
  auto [train, test] = ml::TrainTestSplit(all, 0.2, rng);
  auto parts = ml::PartitionWeighted(train, {1.0, 2.0, 3.0, 4.0}, rng);
  pds2::storage::SemanticMetadata meta;
  meta.types = {"iot/sensor/temperature"};
  for (int i = 0; i < 4; ++i) {
    auto& p = m.AddProvider("provider-" + std::to_string(i));
    if (!p.store().AddDataset("temps", parts[i], meta).ok()) {
      *error = "demo: AddDataset failed";
      return false;
    }
  }
  for (int i = 0; i < 3; ++i) m.AddExecutor("executor-" + std::to_string(i));
  auto& consumer = m.AddConsumer("consumer");
  m.executors()[1]->InjectFault(market::ExecutorFault::kTrain);

  market::WorkloadSpec spec;
  spec.name = "pds2-obs-demo";
  spec.requirement.required_types = {"iot/sensor"};
  spec.model_kind = "logistic";
  spec.features = 4;
  spec.epochs = 4;
  spec.reward_pool = 10'000'000;
  spec.min_providers = 2;
  spec.max_providers = 16;
  spec.executor_reward_permille = 200;

  auto report = m.RunWorkload(consumer, spec);
  obs::SetTracingEnabled(false);
  obs::SetMetricsEnabled(false);
  if (!report.ok()) {
    *error = "demo workload failed: " + report.status().ToString();
    return false;
  }
  obs::Tracer::Global().WriteJsonLines(export_out);
  ts.WriteJsonLines(export_out);
  monitor.WriteJsonLines(export_out);
  return true;
}

std::string FormatSimUs(uint64_t us) {
  std::ostringstream out;
  if (us >= 1'000'000) {
    out << us / 1'000'000 << "." << (us % 1'000'000) / 100'000 << "s";
  } else if (us >= 1000) {
    out << us / 1000 << "." << (us % 1000) / 100 << "ms";
  } else {
    out << us << "us";
  }
  return out.str();
}

void PrintTraceReport(const obs::TraceDag& dag, const std::string& root_name) {
  const auto roots = dag.Roots();
  std::cout << "spans:      " << dag.size() << "\n";
  std::cout << "components: " << dag.NumComponents() << "\n";
  std::cout << "roots:      " << roots.size() << "\n";

  const obs::FanOutStats fan = dag.FanOut();
  std::cout << "edges:      " << fan.edges << " (mean out-degree "
            << fan.mean_out_degree << ", max " << fan.max_out_degree
            << " at span " << fan.max_out_degree_span << ", leaves "
            << fan.leaves << ")\n";

  // Pick the analysis root.
  const obs::SpanRecord* root = nullptr;
  if (!root_name.empty()) {
    root = dag.Find(root_name);
    if (root == nullptr) {
      std::cout << "\n(root span \"" << root_name << "\" not found)\n";
    }
  }
  if (root == nullptr) root = dag.Find("market.run_workload");
  if (root == nullptr && !roots.empty()) root = dag.Get(roots.front());
  if (root == nullptr) return;

  std::cout << "\n== trace rooted at span " << root->id << " (" << root->name
            << ") ==\n";
  std::cout << "component spans: " << dag.Component(root->id).size() << "\n";
  const auto nodes = dag.NodesInComponent(root->id);
  std::cout << "roles (" << nodes.size() << "):";
  for (const std::string& node : nodes) std::cout << " " << node;
  std::cout << "\n";

  const auto path = dag.CriticalPathSim(root->id);
  std::cout << "\ncritical path (sim time), " << path.size() << " steps:\n";
  for (const obs::CriticalPathStep& step : path) {
    std::cout << "  [" << FormatSimUs(step.sim_start) << " -> "
              << FormatSimUs(step.sim_end) << "] +"
              << FormatSimUs(step.charged_sim_us) << "  " << step.name;
    if (!step.node.empty()) std::cout << "  @" << step.node;
    std::cout << "  (span " << step.id << ")\n";
  }

  std::cout << "\nstage latency attribution (top 15 by total sim time):\n";
  const std::vector<obs::StageStat> stats = dag.StageStats();
  for (size_t i = 0; i < stats.size() && i < 15; ++i) {
    const obs::StageStat& stat = stats[i];
    std::cout << "  " << stat.name << ": count " << stat.count << ", sim total "
              << FormatSimUs(stat.total_sim_us) << ", sim max "
              << FormatSimUs(stat.max_sim_us) << ", wall total "
              << stat.total_wall_ns / 1000 << "us\n";
  }
}

void PrintHealthReport(const obs::HealthExport& health) {
  std::cout << "samples:  " << health.samples << " (retained "
            << health.retained << ", capacity " << health.capacity << ")\n";
  if (!health.sample_lines.empty()) {
    const auto& first = health.sample_lines.front();
    const auto& last = health.sample_lines.back();
    std::cout << "window:   sample " << first.index << " .. " << last.index;
    if (first.info.has_sim && last.info.has_sim) {
      std::cout << "  (sim " << FormatSimUs(first.info.sim_us) << " .. "
                << FormatSimUs(last.info.sim_us) << ")";
    }
    std::cout << "\n";
  }
  std::cout << "series:   " << health.series.size() << " ("
            << health.dropped_series << " dropped by cardinality cap)\n";

  // Per-rule timelines, each fire paired with its resolve (if any).
  std::map<std::string, std::vector<const obs::AlertEvent*>> by_rule;
  size_t fires = 0;
  for (const obs::AlertEvent& alert : health.alerts) {
    by_rule[alert.rule_id].push_back(&alert);
    if (alert.fired) ++fires;
  }
  std::cout << "alerts:   " << fires << " fire(s) across " << by_rule.size()
            << " rule(s), " << health.alerts.size() << " events total\n";
  if (!by_rule.empty()) std::cout << "\n== rule timelines ==\n";
  for (const auto& [rule, events] : by_rule) {
    std::cout << rule << "  [" << obs::SeverityName(events.back()->severity)
              << "]\n";
    bool open = false;
    for (const obs::AlertEvent* alert : events) {
      if (!alert->fired) {
        if (open) std::cout << ", resolved @sample " << alert->sample_index
                            << "\n";
        open = false;
        continue;
      }
      if (open) std::cout << "\n";  // the monitor never fires twice in a row
      open = true;
      std::cout << "  fired @sample " << alert->sample_index;
      if (alert->has_sim) {
        std::cout << " (sim " << FormatSimUs(alert->sim_us) << ")";
      }
      if (alert->first_bad_sample != alert->sample_index) {
        std::cout << ", first bad @" << alert->first_bad_sample;
      }
      std::cout << ", observed " << alert->observed << " vs bound "
                << alert->bound;
      if (!alert->detail.empty()) std::cout << " — " << alert->detail;
    }
    if (open) std::cout << ", still active at export\n";
  }

  // Fastest-moving counters over the retained window.
  std::vector<std::pair<double, std::string>> movers;
  for (const auto& [name, series] : health.series) {
    if (series.kind != "counter" || series.values.size() < 2) continue;
    const double delta = series.values.back() - series.values.front();
    if (delta > 0) movers.emplace_back(-delta, name);
  }
  std::sort(movers.begin(), movers.end());
  if (!movers.empty()) {
    std::cout << "\n== top moving counters (delta over window) ==\n";
  }
  for (size_t i = 0; i < movers.size() && i < kTopSeries; ++i) {
    std::cout << "  " << movers[i].second << ": +" << -movers[i].first << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  bool demo = false;
  bool chrome_wall = false;
  std::string chrome_path;
  std::string demo_out;
  std::string root_name;
  std::string input;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << flag << " requires an argument\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--demo") {
      demo = true;
    } else if (arg == "--demo-out") {
      demo_out = next("--demo-out");
    } else if (arg == "--chrome") {
      chrome_path = next("--chrome");
    } else if (arg == "--wall") {
      chrome_wall = true;
    } else if (arg == "--root") {
      root_name = next("--root");
    } else if (arg == "--help" || arg == "-h") {
      return Usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-' && arg != "-") {
      std::cerr << "unknown option: " << arg << "\n";
      return Usage(argv[0]);
    } else if (input.empty()) {
      input = arg;
    } else {
      return Usage(argv[0]);
    }
  }
  if (demo ? !input.empty() : input.empty()) return Usage(argv[0]);

  std::stringstream buffer;
  std::string error;
  if (demo) {
    if (!RunDemo(buffer, &error)) {
      std::cerr << error << "\n";
      return 1;
    }
    if (!demo_out.empty()) {
      std::ofstream out(demo_out);
      if (!out.is_open()) {
        std::cerr << "cannot write " << demo_out << "\n";
        return 1;
      }
      out << buffer.str();
    }
  } else if (input == "-") {
    buffer << std::cin.rdbuf();
  } else {
    std::ifstream in(input);
    if (!in.is_open()) {
      std::cerr << "cannot open " << input << "\n";
      return 1;
    }
    buffer << in.rdbuf();
  }

  obs::RunExport run;
  if (!obs::ParseExportJsonLines(buffer, &run, &error)) {
    std::cerr << (demo ? "demo export" : input) << ": " << error << "\n";
    return 1;
  }

  if (!chrome_path.empty()) {
    std::ofstream out(chrome_path);
    if (!out.is_open()) {
      std::cerr << "cannot write " << chrome_path << "\n";
      return 1;
    }
    obs::WriteChromeTrace(run, out, /*use_sim_time=*/!chrome_wall);
    std::cout << "wrote Chrome trace: " << chrome_path << "\n";
  }

  const bool has_spans = !run.spans.empty();
  if (has_spans) {
    std::cout << "== trace ==\n";
    PrintTraceReport(obs::TraceDag(std::move(run.spans)), root_name);
  }
  if (run.health.samples != 0 || !run.health.alerts.empty()) {
    std::cout << (has_spans ? "\n" : "") << "== health ==\n";
    PrintHealthReport(run.health);
  }
  return 0;
}
