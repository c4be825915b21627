#include "obs/trace.h"

#include <chrono>
#include <utility>

#include "obs/json_codec.h"

namespace pds2::obs {

namespace {

// One open-span stack per thread; parent of a new span is the innermost
// still-open span *on the same thread*, or a remote context installed by a
// TraceContextScope. Entries carry the tracer epoch so stale ids left
// behind by a Tracer::Reset are ignored.
struct OpenSpan {
  uint64_t id;
  uint64_t trace_id;
  uint64_t epoch;
  bool remote;  // installed by TraceContextScope; never closed by End()
};
thread_local std::vector<OpenSpan> t_open_spans;
thread_local std::string t_node_label;

}  // namespace

uint64_t WallNowNs() {
  static const auto process_epoch = std::chrono::steady_clock::now();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - process_epoch)
          .count());
}

const std::string& CurrentNodeLabel() { return t_node_label; }

TraceContext CurrentTraceContext() {
  if (!TracingEnabled()) return {};
  const uint64_t epoch = Tracer::Global().epoch();
  for (size_t i = t_open_spans.size(); i-- > 0;) {
    const OpenSpan& open = t_open_spans[i];
    if (open.epoch != epoch) continue;  // predates a Reset
    return {open.trace_id, open.id, open.epoch};
  }
  return {};
}

Tracer& Tracer::Global() {
  static Tracer* tracer = new Tracer();  // never destroyed, like the registry
  return *tracer;
}

uint64_t Tracer::Begin(const char* name, bool has_sim,
                       common::SimTime sim_start) {
  const uint64_t now_ns = WallNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  // Read the generation under mu_, which Reset also holds: a Reset racing
  // this Begin then either empties records_ before this span is stored or
  // runs after it, never in between.
  const uint64_t epoch = this->epoch();

  uint64_t parent = 0;
  uint64_t trace_id = 0;
  while (!t_open_spans.empty() && t_open_spans.back().epoch != epoch) {
    t_open_spans.pop_back();  // stack predates a Reset
  }
  if (!t_open_spans.empty()) {
    parent = t_open_spans.back().id;
    trace_id = t_open_spans.back().trace_id;
  }

  if (capacity_ != 0 && records_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    if (dropped_counter_ == nullptr) {
      dropped_counter_ = &Registry::Global().GetCounter("obs.trace.dropped");
    }
    dropped_counter_->Add(1);
    return 0;
  }
  const uint64_t id = static_cast<uint64_t>(records_.size()) + 1;
  if (trace_id == 0) {
    trace_id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
  }
  SpanRecord record;
  record.id = id;
  record.parent = parent;
  record.trace_id = trace_id;
  record.name = name;
  record.node = t_node_label;
  record.thread = static_cast<uint32_t>(internal_metrics::ThisThreadIndex());
  record.wall_start_ns = now_ns;
  record.has_sim = has_sim;
  record.sim_start = sim_start;
  record.sim_end = sim_start;
  records_.push_back(std::move(record));
  t_open_spans.push_back({id, trace_id, epoch, /*remote=*/false});
  return id;
}

void Tracer::End(uint64_t id, uint64_t epoch, bool has_sim,
                 common::SimTime sim_end) {
  // Pop this span from the thread's open stack. Sequential stage spans that
  // call End() early always sit on top; tolerate out-of-order ends anyway.
  for (size_t i = t_open_spans.size(); i-- > 0;) {
    if (t_open_spans[i].id == id && t_open_spans[i].epoch == epoch &&
        !t_open_spans[i].remote) {
      t_open_spans.erase(t_open_spans.begin() + static_cast<long>(i));
      break;
    }
  }
  const uint64_t now_ns = WallNowNs();
  std::lock_guard<std::mutex> lock(mu_);
  // Checked under mu_: after a Reset, `id` may name a span of the new
  // generation, and stamping it would give that span an end before its start.
  if (epoch != this->epoch()) return;  // tracer was Reset since Begin
  if (id == 0 || id > records_.size()) return;
  SpanRecord& record = records_[id - 1];
  record.wall_end_ns = now_ns;
  if (has_sim && record.has_sim) record.sim_end = sim_end;
}

void Tracer::AddLink(uint64_t id, uint64_t epoch, const TraceContext& ctx) {
  if (id == 0 || !ctx.valid()) return;
  if (ctx.epoch != epoch) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (epoch != this->epoch() || id > records_.size()) return;
  records_[id - 1].links.push_back(ctx.span_id);
}

void Tracer::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = capacity;
}

size_t Tracer::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

uint64_t Tracer::DroppedCount() const {
  return dropped_.load(std::memory_order_relaxed);
}

std::vector<SpanRecord> Tracer::Snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_;
}

size_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_.size();
}

std::vector<SpanRecord> Tracer::Tail(size_t n) const {
  std::lock_guard<std::mutex> lock(mu_);
  const size_t first = records_.size() > n ? records_.size() - n : 0;
  return {records_.begin() + static_cast<long>(first), records_.end()};
}

void WriteSpanJson(std::ostream& out, const SpanRecord& record) {
  out << "{\"id\":" << record.id << ",\"parent\":" << record.parent
      << ",\"trace\":" << record.trace_id
      << ",\"name\":\"" << JsonEscape(record.name) << "\""
      << ",\"node\":\"" << JsonEscape(record.node) << "\""
      << ",\"thread\":" << record.thread;
  if (!record.links.empty()) {
    out << ",\"links\":[";
    for (size_t i = 0; i < record.links.size(); ++i) {
      out << (i == 0 ? "" : ",") << record.links[i];
    }
    out << "]";
  }
  const bool open = record.wall_end_ns == 0;
  out << ",\"wall_start_ns\":" << record.wall_start_ns;
  if (open) {
    out << ",\"open\":true";
  } else {
    out << ",\"wall_dur_ns\":" << (record.wall_end_ns - record.wall_start_ns);
  }
  if (record.has_sim) {
    out << ",\"sim_start_us\":" << record.sim_start;
    if (!open) out << ",\"sim_dur_us\":" << (record.sim_end - record.sim_start);
  }
  out << "}";
}

void Tracer::WriteJsonLines(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (const SpanRecord& record : records_) {
    if (record.wall_end_ns == 0) continue;  // still open
    WriteSpanJson(out, record);
    out << "\n";
  }
}

void Tracer::Reset() {
  std::lock_guard<std::mutex> lock(mu_);
  records_.clear();
  epoch_.fetch_add(1, std::memory_order_relaxed);
  next_trace_id_.store(1, std::memory_order_relaxed);
  dropped_.store(0, std::memory_order_relaxed);
}

void ScopedSpan::Start(const char* name, bool has_sim,
                       common::SimTime sim_start) {
  if (!TracingEnabled()) return;
  Tracer& tracer = Tracer::Global();
  has_sim_ = has_sim;
  id_ = tracer.Begin(name, has_sim, sim_start);
  if (id_ != 0) {
    // Begin left this span, stamped with its generation, on top of the
    // thread's open stack.
    trace_id_ = t_open_spans.back().trace_id;
    epoch_ = t_open_spans.back().epoch;
  }
}

void ScopedSpan::End() {
  if (id_ == 0) return;
  common::SimTime sim_end = 0;
  if (has_sim_) {
    if (clock_ != nullptr) {
      sim_end = clock_->Now();
    } else if (sim_now_ != nullptr) {
      sim_end = *sim_now_;
    }
  }
  Tracer::Global().End(id_, epoch_, has_sim_, sim_end);
  id_ = 0;
  trace_id_ = 0;
}

void ScopedSpan::AddLink(const TraceContext& ctx) {
  if (id_ == 0) return;
  Tracer::Global().AddLink(id_, epoch_, ctx);
}

TraceContextScope::TraceContextScope(const TraceContext& ctx) {
  if (!TracingEnabled() || !ctx.valid()) return;
  if (ctx.epoch != Tracer::Global().epoch()) return;  // predates a Reset
  t_open_spans.push_back({ctx.span_id, ctx.trace_id, ctx.epoch,
                          /*remote=*/true});
  installed_ = true;
  span_id_ = ctx.span_id;
  epoch_ = ctx.epoch;
}

TraceContextScope::~TraceContextScope() {
  if (!installed_) return;
  // Normally ours is the top entry (spans opened inside the scope closed
  // before it); tolerate leftovers above it from mismatched early-End use.
  for (size_t i = t_open_spans.size(); i-- > 0;) {
    const OpenSpan& open = t_open_spans[i];
    if (open.remote && open.id == span_id_ && open.epoch == epoch_) {
      t_open_spans.erase(t_open_spans.begin() + static_cast<long>(i));
      return;
    }
  }
}

NodeScope::NodeScope(std::string label) {
  if (!TracingEnabled()) return;
  Install(std::move(label));
}

NodeScope::NodeScope(const char* prefix, const std::string& name) {
  if (!TracingEnabled()) return;
  Install(std::string(prefix) + name);
}

NodeScope::NodeScope(const char* prefix, size_t index) {
  if (!TracingEnabled()) return;
  Install(std::string(prefix) + std::to_string(index));
}

void NodeScope::Install(std::string label) {
  saved_ = std::move(t_node_label);
  t_node_label = std::move(label);
  installed_ = true;
}

NodeScope::~NodeScope() {
  if (!installed_) return;
  t_node_label = std::move(saved_);
}

}  // namespace pds2::obs
