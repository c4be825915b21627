#ifndef PDS2_OBS_TRACE_H_
#define PDS2_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/sim_clock.h"
#include "obs/metrics.h"

namespace pds2::obs {

/// Runtime switch for span recording, independent of the metrics flag so a
/// bench can measure counters without paying for traces (and vice versa).
inline std::atomic<bool> g_tracing_enabled{false};

inline bool TracingEnabled() {
  return g_tracing_enabled.load(std::memory_order_relaxed);
}
inline void SetTracingEnabled(bool enabled) {
  g_tracing_enabled.store(enabled, std::memory_order_relaxed);
}

/// Nanoseconds since an arbitrary process-wide steady-clock epoch.
uint64_t WallNowNs();

/// A portable reference to a span, carried across causal boundaries —
/// message envelopes (NetSim / p2p), timers, chain transactions — so a span
/// opened on the receiving side can parent under the sender's span even
/// though the two run on different simulated nodes (and possibly different
/// threads). The epoch pins the ids to one Tracer generation: a context
/// that survives a Tracer::Reset is silently treated as absent.
struct TraceContext {
  uint64_t trace_id = 0;  // 0 = no trace
  uint64_t span_id = 0;   // the causal parent span
  uint64_t epoch = 0;     // Tracer generation the ids belong to

  bool valid() const { return trace_id != 0 && span_id != 0; }
};

/// The innermost open span on the calling thread (or the remote context
/// installed by a TraceContextScope), as a propagatable TraceContext.
/// Invalid (all zero) when tracing is disabled or nothing is open.
TraceContext CurrentTraceContext();

/// One recorded span. Spans carry wall-clock times always and simulated
/// times when the span was opened against a SimClock / SimTime source —
/// the DES advances sim time in jumps, so sim_start == sim_end for spans
/// that complete within one event, while lifecycle-stage spans show the
/// simulated latency the experiments care about.
struct SpanRecord {
  uint64_t id = 0;      // 1-based; 0 means "no parent"
  uint64_t parent = 0;  // causal parent (same-thread enclosing span, or the
                        // remote sender installed via TraceContextScope)
  uint64_t trace_id = 0;  // connected-trace identity, inherited from parent
  std::string name;
  std::string node;     // logical node/role label (see NodeScope), may be ""
  uint32_t thread = 0;  // small per-thread index (see ThisThreadIndex)
  /// Extra causal parents beyond `parent` — e.g. a block-apply span links
  /// to the submit context of every transaction it executes. Span ids in
  /// the same tracer generation.
  std::vector<uint64_t> links;
  uint64_t wall_start_ns = 0;
  uint64_t wall_end_ns = 0;  // 0 while the span is still open
  bool has_sim = false;
  common::SimTime sim_start = 0;
  common::SimTime sim_end = 0;
};

/// Collects hierarchical spans. Parent linkage is tracked per thread (a
/// span opened on a ThreadPool worker does not parent under a span opened
/// on the main thread unless a TraceContextScope carries the context
/// across). Begin/End take one mutex each — spans mark millisecond-scale
/// stages, not nanosecond-scale inner loops.
class Tracer {
 public:
  /// Default bound on stored spans (see SetCapacity).
  static constexpr size_t kDefaultCapacity = 1'000'000;

  /// The process-wide tracer every PDS2_TRACE_* macro records into.
  static Tracer& Global();

  /// Opens a span and returns its id. Call only while TracingEnabled().
  /// Returns 0 when the tracer is at capacity (the drop is counted in
  /// the "obs.trace.dropped" counter); children of a dropped span attach
  /// to its parent instead.
  uint64_t Begin(const char* name, bool has_sim, common::SimTime sim_start);

  /// Closes span `id` opened in generation `epoch` (no-op if a Reset
  /// happened in between).
  void End(uint64_t id, uint64_t epoch, bool has_sim,
           common::SimTime sim_end);

  /// Appends `ctx.span_id` to the links of span `id` — an extra causal
  /// parent edge in the exported DAG. No-op when either side is from a
  /// stale generation or invalid.
  void AddLink(uint64_t id, uint64_t epoch, const TraceContext& ctx);

  /// Generation stamp, bumped by Reset; guards ids across resets.
  uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  /// Caps stored SpanRecords; spans beyond the cap are dropped at Begin
  /// (counted in DroppedCount and the "obs.trace.dropped" counter) so the
  /// record vector — and span ids, which index it — stays dense. 0 means
  /// unbounded. Takes effect for subsequent Begins. Only tests change it,
  /// to reach the drop path without a million spans.
  void SetCapacity(size_t capacity);

  /// Spans dropped at Begin since the last Reset.
  uint64_t DroppedCount() const;

  /// Copy of all recorded spans (open spans have wall_end_ns == 0).
  std::vector<SpanRecord> Snapshot() const;

  size_t SpanCount() const;

  /// One JSON object per line per completed span — the per-run trace
  /// export (schema: docs/PROTOCOL.md "Run export schema"). Open spans
  /// are skipped.
  void WriteJsonLines(std::ostream& out) const;

  /// Drops every record and starts a new generation. Do not call while
  /// spans are open (their End becomes a no-op and parentage of spans
  /// opened before the reset is meaningless). Trace ids restart from 1 so
  /// two identical seeded runs export identical causal skeletons.
  void Reset();

 private:
  mutable std::mutex mu_;
  std::vector<SpanRecord> records_;
  std::atomic<uint64_t> epoch_{1};
  std::atomic<uint64_t> next_trace_id_{1};
  std::atomic<uint64_t> dropped_{0};
  size_t capacity_ = kDefaultCapacity;  // guarded by mu_
  Counter* dropped_counter_ = nullptr;  // lazily bound registry counter
};

/// RAII span handle. Construction is a single relaxed load + branch while
/// tracing is disabled. `End()` may be called early to close the span
/// before scope exit (used for sequential sibling stages inside one
/// function); the destructor then does nothing — including across an
/// intervening Tracer::Reset().
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name) { Start(name, false, 0); }

  /// Span whose sim times are read from `clock` at start and end.
  ScopedSpan(const char* name, const common::SimClock* clock)
      : clock_(clock) {
    Start(name, clock != nullptr, clock != nullptr ? clock->Now() : 0);
  }

  /// Span whose sim times are read from `*sim_now` at start and end (for
  /// owners that keep a bare SimTime instead of a SimClock).
  ScopedSpan(const char* name, const common::SimTime* sim_now)
      : sim_now_(sim_now) {
    Start(name, sim_now != nullptr, sim_now != nullptr ? *sim_now : 0);
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  ~ScopedSpan() { End(); }

  void End();

  /// Adds an extra causal parent to this span (see Tracer::AddLink).
  void AddLink(const TraceContext& ctx);

  /// This span as a propagatable context (invalid if not recording).
  TraceContext context() const { return {trace_id_, id_, epoch_}; }

  /// 0 when tracing was disabled at construction (or the span was dropped
  /// by the capacity bound).
  uint64_t id() const { return id_; }

 private:
  void Start(const char* name, bool has_sim, common::SimTime sim_start);

  uint64_t id_ = 0;
  uint64_t epoch_ = 0;
  uint64_t trace_id_ = 0;
  bool has_sim_ = false;
  const common::SimClock* clock_ = nullptr;
  const common::SimTime* sim_now_ = nullptr;
};

/// Installs a remote causal parent on the calling thread for the scope's
/// lifetime: the next span opened with an empty local stack parents under
/// `ctx.span_id` and joins `ctx.trace_id`. Used by the NetSim delivery
/// loop to stitch the sender's span to the receiver's handler spans, and
/// by ThreadPool users to carry a span across Submit(). A context from a
/// stale tracer generation (Reset in between) installs nothing.
class TraceContextScope {
 public:
  explicit TraceContextScope(const TraceContext& ctx);
  TraceContextScope(const TraceContextScope&) = delete;
  TraceContextScope& operator=(const TraceContextScope&) = delete;
  ~TraceContextScope();

 private:
  bool installed_ = false;
  uint64_t span_id_ = 0;
  uint64_t epoch_ = 0;
};

/// Labels every span opened on the calling thread during its lifetime
/// with a logical node identity ("validator/2", "provider/alice", …), so
/// the exported DAG shows which role did the work even though the whole
/// simulation runs in one process. No-op while tracing is disabled (the
/// label string is never built).
class NodeScope {
 public:
  explicit NodeScope(std::string label);
  /// Convenience forms that only concatenate when tracing is enabled.
  NodeScope(const char* prefix, const std::string& name);
  NodeScope(const char* prefix, size_t index);
  NodeScope(const NodeScope&) = delete;
  NodeScope& operator=(const NodeScope&) = delete;
  ~NodeScope();

 private:
  void Install(std::string label);

  bool installed_ = false;
  std::string saved_;
};

}  // namespace pds2::obs

#define PDS2_OBS_CONCAT_INNER(a, b) a##b
#define PDS2_OBS_CONCAT(a, b) PDS2_OBS_CONCAT_INNER(a, b)

/// Wall-clock-only span covering the rest of the enclosing scope.
#define PDS2_TRACE_SPAN(name) \
  ::pds2::obs::ScopedSpan PDS2_OBS_CONCAT(pds2_trace_span_, __COUNTER__)(name)

/// Span that also records sim time from `sim` (a const SimClock* or a
/// const SimTime*).
#define PDS2_TRACE_SPAN_SIM(name, sim)                                \
  ::pds2::obs::ScopedSpan PDS2_OBS_CONCAT(pds2_trace_span_,           \
                                          __COUNTER__)(name, sim)

#endif  // PDS2_OBS_TRACE_H_
