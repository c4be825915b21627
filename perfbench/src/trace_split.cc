#include "trace_split.h"

#include <algorithm>

namespace perfbench {

using pds2::obs::SpanRecord;

SelfTimes SplitSelfTime(const std::vector<SpanRecord>& spans,
                        const std::string& root) {
  SelfTimes out;
  const SpanRecord* top = nullptr;
  for (const SpanRecord& s : spans) {
    if (s.name == root && s.wall_end_ns != 0) top = &s;
  }
  if (top == nullptr) return out;

  std::vector<const SpanRecord*> inside;
  for (const SpanRecord& s : spans) {
    if (s.thread == top->thread && s.wall_end_ns != 0 &&
        s.wall_start_ns >= top->wall_start_ns &&
        s.wall_end_ns <= top->wall_end_ns) {
      inside.push_back(&s);
    }
  }
  // Outer spans first: earlier start, then later end, then the lower id
  // (a parent is opened before its child).
  std::sort(inside.begin(), inside.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              if (a->wall_start_ns != b->wall_start_ns) {
                return a->wall_start_ns < b->wall_start_ns;
              }
              if (a->wall_end_ns != b->wall_end_ns) {
                return a->wall_end_ns > b->wall_end_ns;
              }
              return a->id < b->id;
            });
  struct Open {
    const SpanRecord* span;
    uint64_t children_ns;
  };
  std::vector<Open> stack;
  auto close = [&out, &stack] {
    const Open& o = stack.back();
    const uint64_t dur = o.span->wall_end_ns - o.span->wall_start_ns;
    out.by_name[o.span->name] +=
        static_cast<double>(dur - std::min(dur, o.children_ns)) / 1e6;
    stack.pop_back();
  };
  for (const SpanRecord* s : inside) {
    while (!stack.empty() &&
           stack.back().span->wall_end_ns <= s->wall_start_ns) {
      close();
    }
    if (!stack.empty() && stack.back().span->wall_end_ns < s->wall_end_ns) {
      ++out.improperly_nested;
      continue;  // straddles its would-be parent; count it nowhere
    }
    if (!stack.empty()) {
      stack.back().children_ns += s->wall_end_ns - s->wall_start_ns;
    }
    stack.push_back({s, 0});
  }
  while (!stack.empty()) close();
  return out;
}

}  // namespace perfbench
