// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded only from the benchmark's own files, around the
// public calls into each library layer: name, start, end, parent span
// and recording thread. They stay in memory and are written out once,
// when the run ends. Self time of a span is its duration minus the part
// of its interval that its children cover (children on worker threads
// included), which is what the per-layer metrics report.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "qdi/campaign/trace_source.hpp"

namespace qdi_bench {

struct Span {
  std::string name;
  double t0 = 0.0;  ///< seconds since the tracer's origin
  double t1 = 0.0;
  int parent = -1;
  unsigned thread = 0;
  std::size_t count = 0;  ///< traces the span covered
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  double now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
  }

  /// Open a span on the calling thread. Its parent is the innermost span
  /// this thread has open, or — on a thread with none open, such as a
  /// WorkerPool worker — the span named by adopt().
  int begin(std::string name) {
    std::vector<int>& stack = open_stack();
    const int parent = stack.empty() ? adopted_.load() : stack.back();
    const unsigned tid = thread_index();
    const double t = now();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), t, t, parent, tid, 0});
    const int id = static_cast<int>(spans_.size()) - 1;
    stack.push_back(id);
    return id;
  }

  void end(int id, std::size_t count = 0) {
    const double t = now();
    std::vector<int>& stack = open_stack();
    if (!stack.empty() && stack.back() == id) stack.pop_back();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].t1 = t;
    spans_[static_cast<std::size_t>(id)].count = count;
  }

  /// Parent for spans opened on threads that have no span of their own
  /// open (worker threads spawned inside a library call).
  void adopt(int parent) { adopted_.store(parent); }

  /// Snapshot of every recorded span (call once the run is quiescent).
  std::vector<Span> spans() const {
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

  /// Write the spans as JSON lines to `path` (name, start, end, parent,
  /// thread, count). Returns false when the file cannot be written.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans()) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_s\":%.9f,\"end_s\":%.9f,"
                   "\"parent\":%d,\"thread\":%u,\"count\":%zu}\n",
                   s.name.c_str(), s.t0, s.t1, s.parent, s.thread, s.count);
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<int>& open_stack() {
    thread_local std::unordered_map<const Tracer*, std::vector<int>> stacks;
    return stacks[this];
  }

  unsigned thread_index() {
    const std::lock_guard<std::mutex> lock(mu_);
    const auto [it, inserted] = threads_.try_emplace(
        std::this_thread::get_id(), static_cast<unsigned>(threads_.size()));
    return it->second;
  }

  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;  ///< guards spans_ and threads_
  std::vector<Span> spans_;
  std::unordered_map<std::thread::id, unsigned> threads_;
  std::atomic<int> adopted_{-1};
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer& t, std::string name) : t_(t), id_(t.begin(std::move(name))) {}
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  ~Scoped() { t_.end(id_, count_); }

  int id() const noexcept { return id_; }
  void set_count(std::size_t n) noexcept { count_ = n; }

 private:
  Tracer& t_;
  int id_;
  std::size_t count_ = 0;
};

/// TraceSource decorator: one `sim.acquire_block` span per block a
/// worker acquires, so per-worker busy time is visible from outside the
/// WorkerPool. Forwards everything else to the wrapped source.
class TracingSource final : public qdi::campaign::TraceSource {
 public:
  TracingSource(std::unique_ptr<qdi::campaign::TraceSource> inner, Tracer& t)
      : inner_(std::move(inner)), t_(t) {}

  void acquire_into(const qdi::campaign::TraceRequest& req,
                    qdi::campaign::AcquiredTrace& out) override {
    acquire_block(req.seed, req.index, 1, &out);
  }
  std::size_t batch_width() const override { return inner_->batch_width(); }
  void acquire_block(std::uint64_t seed, std::size_t first, std::size_t count,
                     qdi::campaign::AcquiredTrace* out) override {
    Scoped s(t_, "sim.acquire_block");
    s.set_count(count);
    inner_->acquire_block(seed, first, count, out);
  }
  std::unique_ptr<qdi::campaign::TraceSource> clone() const override {
    return std::make_unique<TracingSource>(inner_->clone(), t_);
  }
  std::string name() const override { return inner_->name(); }

  qdi::campaign::TraceSource& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<qdi::campaign::TraceSource> inner_;
  Tracer& t_;
};

/// Length of the union of [t0, t1) intervals, clipped to [lo, hi).
inline double covered(std::vector<std::pair<double, double>> iv, double lo,
                      double hi) {
  for (auto& [a, b] : iv) {
    a = std::max(a, lo);
    b = std::min(b, hi);
  }
  std::sort(iv.begin(), iv.end());
  double total = 0.0;
  double cur_a = 0.0;
  double cur_b = -1.0;
  bool open = false;
  for (const auto& [a, b] : iv) {
    if (b <= a) continue;
    if (!open || a > cur_b) {
      if (open) total += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    } else {
      cur_b = std::max(cur_b, b);
    }
  }
  if (open) total += cur_b - cur_a;
  return total;
}

}  // namespace qdi_bench
