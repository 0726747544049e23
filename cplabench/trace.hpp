#pragma once

// In-memory span recorder for the benchmark binary. Spans are recorded only
// around the public calls the benchmark makes (and around each guarded solve
// through the CplaOptions::partition_solver hook), kept in memory, and
// written out as Chrome trace-event JSON when the run ends.
//
// Parent inference: a span opened with kInherit takes the innermost open
// span of its own thread; a thread with no open span (an OpenMP worker
// inside core::optimize) takes the tracer's ambient parent, which the
// benchmark points at the op span before calling into the flow.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace cplabench {

struct Span {
  int id = -1;
  int parent = -1;  // -1 = root
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = -1;  // -1 while open
  std::uint64_t tid = 0;
  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

class Tracer {
 public:
  static constexpr int kInherit = -2;

  explicit Tracer(bool enabled) : enabled_(enabled), origin_(clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Parent for spans opened on threads with no open span of their own.
  void set_ambient(int parent) {
    std::lock_guard<std::mutex> lock(mu_);
    ambient_ = parent;
  }

  /// Opens a span and returns its id (-1 when tracing is off).
  int begin(const std::string& name, int parent = kInherit) {
    if (!enabled_) return -1;
    const std::int64_t now = now_ns();
    std::vector<int>& stack = thread_stack();
    std::lock_guard<std::mutex> lock(mu_);
    Span s;
    s.id = static_cast<int>(spans_.size());
    s.parent = parent != kInherit ? parent : (stack.empty() ? ambient_ : stack.back());
    s.name = name;
    s.start_ns = now;
    s.tid = std::hash<std::thread::id>{}(std::this_thread::get_id());
    spans_.push_back(std::move(s));
    stack.push_back(spans_.back().id);
    return spans_.back().id;
  }

  void end(int id) {
    if (!enabled_ || id < 0) return;
    const std::int64_t now = now_ns();
    std::vector<int>& stack = thread_stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end_ns = now;
  }

  std::vector<Span> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  using clock = std::chrono::steady_clock;

  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(clock::now() - origin_).count();
  }
  // One stack per thread; a tracer is used by one run at a time, so the
  // stacks never mix spans of two tracers.
  static std::vector<int>& thread_stack() {
    thread_local std::vector<int> stack;
    return stack;
  }

  const bool enabled_;
  const clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
  int ambient_ = -1;         // guarded by mu_
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = Tracer::kInherit)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int id() const { return id_; }

 private:
  Tracer& tracer_;
  const int id_;
};

/// Self time of every span: its duration minus the part of its interval the
/// union of its children's intervals covers. Also counts nesting
/// violations: an open span, a child reaching outside its parent, or
/// children covering more than the parent's duration.
struct SelfTimes {
  std::vector<std::int64_t> self_ns;  // indexed by span id
  int violations = 0;
};

inline SelfTimes compute_self_times(const std::vector<Span>& spans) {
  SelfTimes out;
  out.self_ns.assign(spans.size(), 0);
  std::vector<std::vector<int>> children(spans.size());
  for (const Span& s : spans) {
    if (s.end_ns < s.start_ns) ++out.violations;
    if (s.parent < 0) continue;
    if (s.parent >= static_cast<int>(spans.size())) {
      ++out.violations;
      continue;
    }
    children[static_cast<std::size_t>(s.parent)].push_back(s.id);
  }
  for (const Span& s : spans) {
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (int c : children[static_cast<std::size_t>(s.id)]) {
      const Span& k = spans[static_cast<std::size_t>(c)];
      if (k.start_ns < s.start_ns || k.end_ns > s.end_ns) ++out.violations;
      iv.emplace_back(std::max(k.start_ns, s.start_ns), std::min(k.end_ns, s.end_ns));
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0, cur_a = 0, cur_b = -1;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > cur_b) {
        if (cur_b > cur_a) covered += cur_b - cur_a;
        cur_a = a;
        cur_b = b;
      } else {
        cur_b = std::max(cur_b, b);
      }
    }
    if (cur_b > cur_a) covered += cur_b - cur_a;
    if (covered > s.duration_ns()) ++out.violations;
    out.self_ns[static_cast<std::size_t>(s.id)] = s.duration_ns() - covered;
  }
  return out;
}

struct LayerRow {
  long count = 0;
  double total_ms = 0.0;
  double self_ms = 0.0;
};

/// Per-layer roll-up (span name = layer), keyed by name.
inline std::map<std::string, LayerRow> layer_table(const std::vector<Span>& spans,
                                                   const SelfTimes& self) {
  std::map<std::string, LayerRow> rows;
  for (const Span& s : spans) {
    LayerRow& r = rows[s.name];
    ++r.count;
    r.total_ms += static_cast<double>(s.duration_ns()) * 1e-6;
    r.self_ms += static_cast<double>(self.self_ns[static_cast<std::size_t>(s.id)]) * 1e-6;
  }
  return rows;
}

inline void print_layer_table(std::FILE* out, const std::map<std::string, LayerRow>& rows) {
  std::fprintf(out, "%-28s %8s %12s %12s\n", "layer (span)", "count", "total_ms", "self_ms");
  for (const auto& [name, r] : rows) {
    std::fprintf(out, "%-28s %8ld %12.3f %12.3f\n", name.c_str(), r.count, r.total_ms,
                 r.self_ms);
  }
}

/// Writes the spans as Chrome trace-event JSON ("X" complete events, one
/// track per thread). Returns false on I/O failure.
inline bool write_chrome_trace(const std::string& path, const std::vector<Span>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::map<std::uint64_t, int> tids;
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const int tid = tids.emplace(s.tid, static_cast<int>(tids.size())).first->second;
    std::fprintf(f,
                 "%s{\"name\":\"%s\",\"cat\":\"cplabench\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}",
                 i == 0 ? "" : ",", s.name.c_str(), tid, static_cast<double>(s.start_ns) * 1e-3,
                 static_cast<double>(s.duration_ns()) * 1e-3, s.id, s.parent);
  }
  std::fputs("]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace cplabench
