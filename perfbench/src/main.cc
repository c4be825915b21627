// The repository benchmark: runs one workload for one seed and prints a
// record line (metadata, exact costs, samples) and, as the last line of
// stdout, the result JSON
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). perfbench/run.py builds this binary and forwards to it;
// perfbench/README.md documents every workload and metric.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
#include "obs/stopwatch.h"
#include "obs/trace.h"
#include "report.h"
#include "trace_split.h"

namespace perfbench {

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"lifecycle", "chain_apply",
                                                  "gossip", "reuse"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed) {
  if (name == "lifecycle") return MakeLifecycle(seed);
  if (name == "chain_apply") return MakeChainApply(seed);
  if (name == "gossip") return MakeGossip(seed);
  if (name == "reuse") return MakeReuse(seed);
  return nullptr;
}

namespace {

using namespace pds2;

/// A run keeps starting rounds until it has this many timed ops, so the
/// reported p90 has at least ten samples above it.
constexpr size_t kMinTimedOps = 100;
/// No round starts after this many seconds, whatever --seconds says.
constexpr double kMaxRunSeconds = 100.0;
/// Largest allowed gap between the summed per-layer self times and the
/// bench-timed duration of the traced ops, in percent.
constexpr double kSumTolerancePct = 1.0;
/// Threads of the chain's pool (fewer if the host has fewer cores).
constexpr size_t kPoolThreads = 2;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  size_t rounds = 0;  // 0: as many as --seconds allows
  std::string commit = "unknown";
};

bool ParseArgs(int argc, char** argv, Options* o) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    const unsigned long long n = std::strtoull(value.c_str(), &end, 10);
    const bool numeric = !value.empty() && value[0] != '-' && *end == '\0';
    if (key == "--workload") {
      const auto& names = WorkloadNames();
      o->workload = value;
      have_workload =
          std::find(names.begin(), names.end(), value) != names.end();
    } else if (key == "--seed" && numeric) {
      o->seed = n;
      have_seed = true;
    } else if (key == "--seconds" && numeric && n > 0) {
      o->seconds = static_cast<double>(n);
      have_seconds = true;
    } else if (key == "--trace" && numeric && n <= 1) {
      o->trace = n == 1;
    } else if (key == "--rounds" && numeric && n > 0) {
      o->rounds = n;
    } else if (key == "--commit") {
      o->commit = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds;
}

// --- Per-layer attribution -------------------------------------------------

/// Fig. 2 stages with their own market.* span, each a per-layer metric.
const char* const kMarketPhases[] = {
    "post",  "match", "attest_seal", "register_executors", "start",
    "train_aggregate", "vote", "finalize", "publish_artifact", "substitute"};

/// Self-time metrics in output order; together they partition a traced op.
std::vector<std::string> SelfTimeMetrics() {
  std::vector<std::string> names;
  for (const char* phase : kMarketPhases) {
    names.push_back(std::string("market.") + phase + "_ms");
  }
  for (const char* name :
       {"market.other_ms", "tee.train_ms", "tee.seal_ms", "tee.accept_ms",
        "tee.merge_ms", "chain.submit_ms", "chain.produce_ms", "chain.apply_ms",
        "chain.verify_sigs_ms", "chain.execute_ms", "chain.other_ms",
        "dml.des_ms", "dml.handler_ms", "store.fetch_ms", "trace.other_ms",
        "trace.unattributed_ms"}) {
    names.push_back(name);
  }
  return names;
}

/// Per-layer metric a span's self time is charged to.
std::string LayerOf(const std::string& span) {
  static const std::map<std::string, std::string> kLayer = {
      {"bench.op", "trace.unattributed_ms"},
      {"bench.store.fetch", "store.fetch_ms"},
      {"bench.chain.submit", "chain.submit_ms"},
      {"chain.submit_tx", "chain.submit_ms"},
      {"bench.chain.produce", "chain.produce_ms"},
      {"chain.produce_block", "chain.produce_ms"},
      {"bench.chain.apply", "chain.apply_ms"},
      {"chain.apply_block", "chain.apply_ms"},
      {"chain.verify_block_signatures", "chain.verify_sigs_ms"},
      {"chain.execute_block_txs", "chain.execute_ms"},
      {"market.executor.train", "tee.train_ms"},
      {"market.provider.prepare", "tee.seal_ms"},
      {"market.executor.accept", "tee.accept_ms"},
      {"market.executor.merge", "tee.merge_ms"},
      {"dml.net.run_until", "dml.des_ms"},
      {"dml.net.deliver", "dml.handler_ms"},
      {"dml.net.timer", "dml.handler_ms"},
  };
  if (auto it = kLayer.find(span); it != kLayer.end()) return it->second;
  for (const char* phase : kMarketPhases) {
    if (span == std::string("market.") + phase) return span + "_ms";
  }
  if (span.rfind("market.", 0) == 0) return "market.other_ms";
  if (span.rfind("chain.", 0) == 0) return "chain.other_ms";
  return "trace.other_ms";
}

/// Accumulated over the traced ops of a traced run.
struct TraceTotals {
  std::map<std::string, double> self_ms;  // per-layer metric -> total ms
  size_t ops = 0;
  double op_ms = 0.0;     // bench-timed duration of the traced ops
  double split_ms = 0.0;  // their summed self times
  uint64_t spans = 0;
  uint64_t dropped = 0;
  uint64_t improperly_nested = 0;
  // Adjacent (untraced, traced) op pairs, for the tracing overhead.
  std::vector<double> pair_untraced_ms, pair_traced_ms;
};

/// Whether op `i` of a traced run is traced. Ops are paired (0,1), (2,3),
/// ...; the traced slot alternates between pairs so that history growth
/// within a round favours neither side.
bool TracedSlot(size_t i) { return (i % 2 == 1) != ((i / 2) % 2 == 1); }

void AccumulateTrace(double op_wall_ms, TraceTotals* t) {
  obs::Tracer& tracer = obs::Tracer::Global();
  const std::vector<obs::SpanRecord> spans = tracer.Snapshot();
  const SelfTimes split = SplitSelfTime(spans, "bench.op");
  for (const auto& [name, ms] : split.by_name) {
    t->self_ms[LayerOf(name)] += ms;
    t->split_ms += ms;
  }
  t->ops += 1;
  t->op_ms += op_wall_ms;
  t->spans += spans.size();
  t->dropped += tracer.DroppedCount();
  t->improperly_nested += split.improperly_nested;
  tracer.Reset();
}

void SetObservability(bool on) {
  obs::SetMetricsEnabled(on);
  obs::SetTracingEnabled(on);
}

// --- The run ---------------------------------------------------------------

struct RunResult {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;  // integrity failures (not op failures)
  size_t rounds = 0;
  size_t ops_per_round = 0;
  double inputs_s = 0.0;
  std::vector<double> setup_s;    // per round, shared inputs included
  std::vector<double> op_ms;      // untraced ops
  std::vector<double> op_cpu_ms;  // untraced ops
  std::vector<double> round_p50_ms;  // per round, untraced ops
  std::optional<Costs> costs;     // round 0's exact costs
  /// Rounds whose counts matched round 0 but whose end state (chain head
  /// hash, NetStats digest) did not: the program's replay depended on
  /// something other than the seed.
  size_t diverged_rounds = 0;
  TraceTotals trace;
};

/// Names the counted fields in which `b` differs from `a` ("" if none).
std::string DescribeDiff(const Costs& a, const Costs& b) {
  std::string out;
  auto field = [&out](const char* name, uint64_t x, uint64_t y) {
    if (x != y) {
      out += std::string(out.empty() ? "" : ", ") + name + " " +
             std::to_string(x) + " vs " + std::to_string(y);
    }
  };
  field("gas", a.gas, b.gas);
  field("chain_bytes", a.chain_bytes, b.chain_bytes);
  field("net_bytes", a.net_bytes, b.net_bytes);
  field("blocks", a.blocks, b.blocks);
  field("txs", a.txs, b.txs);
  field("net_events", a.net_events, b.net_events);
  field("net_messages", a.net_messages, b.net_messages);
  return out;
}

RunResult Run(const Options& o, common::ThreadPool* pool) {
  RunResult r;
  obs::Stopwatch run_clock;
  obs::Stopwatch input_clock;
  std::unique_ptr<Workload> workload = MakeWorkload(o.workload, o.seed);
  r.inputs_s = input_clock.ElapsedMs() / 1e3;
  r.ops_per_round = workload->OpsPerRound();

  auto more_rounds = [&] {
    if (o.rounds > 0) return r.rounds < o.rounds;
    const double elapsed_s = run_clock.ElapsedMs() / 1e3;
    return elapsed_s < kMaxRunSeconds &&
           (r.attempted < kMinTimedOps || elapsed_s < o.seconds);
  };
  while (more_rounds()) {
    obs::Stopwatch setup_clock;
    std::unique_ptr<Round> round = workload->NewRound(pool);
    r.setup_s.push_back(r.inputs_s + setup_clock.ElapsedMs() / 1e3);

    uint64_t round_failed = 0;
    const size_t first_sample = r.op_ms.size();
    double pair_ms[2] = {0.0, 0.0};  // [untraced, traced] of the open pair
    for (size_t i = 0; i < r.ops_per_round; ++i) {
      const bool traced = o.trace && TracedSlot(i);
      if (traced) {
        obs::Tracer::Global().Reset();
        SetObservability(true);
      }
      const double cpu0 = ProcessCpuMs();
      obs::Stopwatch op_clock;
      bool ok = false;
      {
        obs::ScopedSpan span("bench.op");
        ok = round->Op(i);
      }
      const double wall_ms = op_clock.ElapsedMs();
      const double cpu_ms = ProcessCpuMs() - cpu0;
      if (traced) {
        SetObservability(false);
        AccumulateTrace(wall_ms, &r.trace);
      } else {
        r.op_ms.push_back(wall_ms);
        r.op_cpu_ms.push_back(cpu_ms);
      }
      pair_ms[traced ? 1 : 0] = wall_ms;
      if (o.trace && i % 2 == 1) {
        r.trace.pair_untraced_ms.push_back(pair_ms[0]);
        r.trace.pair_traced_ms.push_back(pair_ms[1]);
      }
      ok = round->CheckOp(i) && ok;
      r.attempted += 1;
      if (!ok) round_failed += 1;
    }
    // A failed end-of-round check means the round's outputs are wrong, so
    // every op of the round counts as failed.
    if (!round->CheckRound()) round_failed = r.ops_per_round;
    r.failed += round_failed;
    r.round_p50_ms.push_back(Median(std::vector<double>(
        r.op_ms.begin() + static_cast<std::ptrdiff_t>(first_sample),
        r.op_ms.end())));

    const Costs costs = round->costs();
    if (!r.costs.has_value()) {
      r.costs = costs;
    } else if (const std::string diff = DescribeDiff(*r.costs, costs);
               !diff.empty()) {
      r.problems.push_back("round " + std::to_string(r.rounds) +
                           " costs diverged from round 0: " + diff);
    } else if (costs.fingerprint != r.costs->fingerprint) {
      r.diverged_rounds += 1;
    }
    r.rounds += 1;
  }
  if (o.trace) {
    const TraceTotals& t = r.trace;
    if (t.dropped > 0) r.problems.push_back("tracer dropped spans");
    if (t.improperly_nested > 0) r.problems.push_back("spans not nested");
    if (t.op_ms <= 0.0 ||
        std::fabs(t.split_ms - t.op_ms) / t.op_ms * 100.0 > kSumTolerancePct) {
      r.problems.push_back("per-layer self times do not sum to the op time");
    }
  }
  return r;
}

// --- Output ----------------------------------------------------------------

double PerOp(double total, const RunResult& r) {
  return total / static_cast<double>(r.ops_per_round);
}

std::vector<Metric> EndToEndMetrics(const RunResult& r) {
  double op_total_ms = 0.0;
  for (double ms : r.op_ms) op_total_ms += ms;
  const double completed = static_cast<double>(r.attempted - r.failed);
  return {
      {"setup_s", Median(r.setup_s), "s"},
      {"op_p50_ms", Quantile(r.op_ms, 0.5), "ms"},
      {"op_p90_ms", Quantile(r.op_ms, 0.9), "ms"},
      {"ops_per_s", completed / (op_total_ms / 1e3), "1/s"},
      {"cpu_ms_per_op", Median(r.op_cpu_ms), "ms"},
      {"peak_rss_mb", PeakRssMb(), "MiB"},
      {"bytes_per_op",
       PerOp(static_cast<double>(r.costs->chain_bytes + r.costs->net_bytes), r),
       "B"},
  };
}

/// Tracing overhead from adjacent op pairs: the median paired difference
/// against the median untraced op. Its resolution is the half-width of an
/// approximate 95% interval of that median (1.58 IQR / sqrt(n)); an
/// overhead inside it is below resolution and is reported as the
/// resolution itself, an upper bound, never as a negative number.
struct Overhead {
  double pct = 0.0;
  double resolution_pct = 0.0;
  bool resolved = false;
};

Overhead TraceOverhead(const TraceTotals& t) {
  std::vector<double> diffs;
  for (size_t k = 0; k < t.pair_traced_ms.size(); ++k) {
    diffs.push_back(t.pair_traced_ms[k] - t.pair_untraced_ms[k]);
  }
  const double base = Median(t.pair_untraced_ms);
  if (base <= 0.0 || diffs.empty()) return {};
  Overhead o;
  o.pct = Median(diffs) / base * 100.0;
  o.resolution_pct = 1.58 * (Quantile(diffs, 0.75) - Quantile(diffs, 0.25)) /
                     std::sqrt(static_cast<double>(diffs.size())) / base *
                     100.0;
  o.resolved = o.pct > o.resolution_pct;
  return o;
}

std::vector<Metric> PerLayerMetrics(const RunResult& r) {
  const TraceTotals& t = r.trace;
  const double traced_ops = static_cast<double>(std::max<size_t>(t.ops, 1));
  std::vector<Metric> m;
  auto add = [&m](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
  };
  auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  for (const std::string& name : SelfTimeMetrics()) {
    auto it = t.self_ms.find(name);
    const double total = it == t.self_ms.end() ? 0.0 : it->second;
    m.push_back({name, total / traced_ops, "ms"});
  }
  add("trace.op_ms", t.op_ms / traced_ops, "ms");
  add("trace.sum_error_pct",
      ratio(std::fabs(t.split_ms - t.op_ms), t.op_ms) * 100.0, "%");
  add("trace.spans_per_op", static_cast<double>(t.spans) / traced_ops,
      "count");
  add("trace.dropped_spans", static_cast<double>(t.dropped), "count");

  // Exact counts of round 0, per op.
  const Costs& c = *r.costs;
  auto per_op = [&r](uint64_t n) { return PerOp(static_cast<double>(n), r); };
  add("chain.gas_per_op", per_op(c.gas), "gas");
  add("chain.bytes_per_op", per_op(c.chain_bytes), "B");
  add("chain.blocks_per_op", per_op(c.blocks), "count");
  add("chain.txs_per_op", per_op(c.txs), "count");
  add("dml.net_bytes_per_op", per_op(c.net_bytes), "B");
  add("dml.events_per_op", per_op(c.net_events), "count");
  add("dml.messages_per_op", per_op(c.net_messages), "count");

  // Registry counters: metrics are on only during traced ops, so each
  // total divided by the traced op count is per op.
  obs::Registry& reg = obs::Registry::Global();
  auto counter = [&reg](const char* name) {
    return static_cast<double>(reg.GetCounter(name).Value());
  };
  auto per_traced_op = [&](const char* name) {
    return counter(name) / traced_ops;
  };
  add("chain.sig_verifications_per_op",
      per_traced_op("chain.sig_verifications"), "count");
  add("chain.sig_cache_hits_per_op", per_traced_op("chain.sig_cache_hits"),
      "count");
  add("chain.parallel.lanes_per_block",
      ratio(counter("chain.parallel.lanes"),
            counter("chain.parallel.blocks_parallel")),
      "count");
  add("chain.parallel.aborts_per_op", per_traced_op("chain.parallel.aborts"),
      "count");
  add("chain.parallel.blocks_serial_per_op",
      per_traced_op("chain.parallel.blocks_serial"), "count");
  add("dml.gossip.merges_per_op", per_traced_op("dml.gossip.merges"),
      "count");
  add("store.puts_per_op", per_traced_op("store.puts"), "count");
  add("store.gets_per_op", per_traced_op("store.gets"), "count");
  // Every started workload probes the memo index once it has matched.
  add("market.substitution_hit_ratio",
      ratio(counter("market.substitution_probes_hit"),
            counter("market.workloads_started")),
      "ratio");
  add("pool.tasks_executed_per_op", per_traced_op("pool.tasks_executed"),
      "count");
  add("pool.tasks_inline_per_op", per_traced_op("pool.tasks_inline"),
      "count");

  const Overhead overhead = TraceOverhead(t);
  add("obs.trace_overhead_pct",
      overhead.resolved ? overhead.pct : overhead.resolution_pct, "%");
  add("obs.trace_overhead_resolution_pct", overhead.resolution_pct, "%");
  return m;
}

std::string RecordJson(const Options& o, const RunResult& r, size_t nproc,
                       size_t pool_threads, double ref_start_ms,
                       double ref_end_ms) {
  const Costs& c = *r.costs;
  JsonObject costs;
  costs.Add("gas", c.gas)
      .Add("chain_bytes", c.chain_bytes)
      .Add("net_bytes", c.net_bytes)
      .Add("blocks", c.blocks)
      .Add("txs", c.txs)
      .Add("net_events", c.net_events)
      .Add("net_messages", c.net_messages)
      .Add("fingerprint", c.fingerprint)
      .Add("per_op", static_cast<uint64_t>(r.ops_per_round));
  JsonObject rec;
  rec.Add("workload", o.workload)
      .Add("seed", o.seed)
      .Add("trace", o.trace)
      .Add("build_type", PERFBENCH_BUILD_TYPE)
      .Add("compiler", PERFBENCH_COMPILER)
      .Add("commit", o.commit)
      .Add("nproc", static_cast<uint64_t>(nproc))
      .Add("pool_threads", static_cast<uint64_t>(pool_threads))
      .Add("rounds", static_cast<uint64_t>(r.rounds))
      .Add("ops_per_round", static_cast<uint64_t>(r.ops_per_round))
      .Add("ops", r.attempted)
      .AddRaw("host.ref_ms", JsonArray({ref_start_ms, ref_end_ms}))
      .AddRaw("costs", costs.str())
      .Add("inputs_s", r.inputs_s)
      .AddRaw("setup_s", JsonArray(r.setup_s))
      .AddRaw("round_p50_ms", JsonArray(r.round_p50_ms))
      .Add("replay_diverged_rounds", static_cast<uint64_t>(r.diverged_rounds))
      .AddRaw("problems", JsonStrings(r.problems));
  if (o.trace) {
    rec.Add("trace_overhead",
            TraceOverhead(r.trace).resolved ? "resolved" : "below resolution");
  }
  return JsonObject().AddRaw("record", rec.str()).str();
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options o;
  if (!ParseArgs(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: pds2_perfbench --workload "
                 "lifecycle|chain_apply|gossip|reuse --seed N --seconds S "
                 "[--trace 0|1] [--rounds R] [--commit C]\n");
    return 2;
  }
  // Untraced runs measure with metrics and tracing off (their default).
  SetObservability(false);
  obs::Registry::Global().ResetValues();
  obs::Tracer::Global().Reset();

  const size_t nproc =
      static_cast<size_t>(std::max(sysconf(_SC_NPROCESSORS_ONLN), 1L));
  const size_t pool_threads = std::min(kPoolThreads, nproc);
  common::ThreadPool pool(pool_threads);

  WarmUpHost();
  const double ref_start_ms = HostRefMs();
  const RunResult r = Run(o, &pool);
  const double ref_end_ms = HostRefMs();

  const std::vector<Metric> metrics =
      o.trace ? PerLayerMetrics(r) : EndToEndMetrics(r);
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: integrity check failed: %s\n", p.c_str());
  }
  if (r.diverged_rounds > 0) {
    std::fprintf(stderr,
                 "perfbench: warning: %zu of %zu rounds replayed the seed to "
                 "a different end state\n",
                 r.diverged_rounds, r.rounds);
  }
  std::printf("%s\n",
              RecordJson(o, r, nproc, pool_threads, ref_start_ms, ref_end_ms)
                  .c_str());
  const bool correct = r.failed == 0 && r.problems.empty();
  const std::string result = JsonObject()
                                 .Add("correct", correct)
                                 .Add("attempted", r.attempted)
                                 .Add("failed", r.failed)
                                 .AddRaw("metrics", MetricsJson(metrics))
                                 .str();
  std::printf("%s\n", result.c_str());
  return 0;
}
