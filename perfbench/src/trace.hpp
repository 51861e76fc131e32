// In-memory span recorder of the benchmark.
//
// Spans are recorded from the benchmark's own code around its calls into
// the library (run_job, submit, timing launches, ...), never inside the
// library. They stay in memory during the run and are written once at the
// end: as Chrome trace-event JSON (opens in Perfetto / chrome://tracing)
// and as a per-name self-time table. A null Tracer* is "tracing off": the
// ScopedSpan guard then costs one branch.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util.hpp"

namespace perfbench {

class Tracer {
 public:
  struct Span {
    std::string name;
    double start_us = 0.0;
    double end_us = -1.0;      ///< < start_us: still open
    std::int64_t parent = -1;  ///< index of the enclosing span, -1: root
    std::int64_t job = -1;     ///< request id shared by one job's spans
    int tid = 0;
    bool on_job_track = false;  ///< recorded by add(): drawn on the job's track
  };

  struct SelfTime {
    std::string name;
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };

  Tracer() : epoch_(Clock::now()) {}

  /// Microseconds since the tracer was created.
  [[nodiscard]] double now_us() const { return to_us(Clock::now()); }
  [[nodiscard]] double to_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
  }

  /// Opens a span on the calling thread; its parent is the innermost span
  /// this thread has open. Returns the id to close it with.
  std::int64_t begin(std::string name, std::int64_t job = -1);
  void end(std::int64_t id);

  /// Records a finished span with explicit times and parent (phases the
  /// library reports as durations, e.g. JobResult::queue_ms).
  std::int64_t add(std::string name, double start_us, double end_us, std::int64_t parent,
                   std::int64_t job);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] std::vector<SelfTime> self_times() const;

  /// Writes Chrome trace-event JSON. Spans recorded by add() become
  /// nestable async events on their job's track; the rest are complete
  /// events on the recording thread's track (they nest, being LIFO per
  /// thread). False when the file cannot be written.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

 private:
  Clock::time_point epoch_;
  mutable std::mutex m_;
  std::vector<Span> spans_;
};

/// RAII span; a null tracer records nothing.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* t, std::string name, std::int64_t job = -1)
      : t_(t), id_(t != nullptr ? t->begin(std::move(name), job) : -1) {}
  ~ScopedSpan() {
    if (t_ != nullptr) t_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int64_t id_;
};

/// Self time of a span over [start, end): its duration minus the part of
/// that interval covered by the union of its children's intervals (children
/// may overlap each other or stick out of the parent).
[[nodiscard]] double self_time_us(double start, double end,
                                  std::vector<std::pair<double, double>> children);

}  // namespace perfbench
