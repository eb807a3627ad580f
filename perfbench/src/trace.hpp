// Span recorder and per-layer accumulators of the traced run.
//
// Spans live in memory while the run measures and are written once, at
// exit, as Chrome trace-event JSON (load it in chrome://tracing or
// Perfetto). Each span carries its name, start, end, the id of the span
// that caused it and the id of the timed call it belongs to.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace kpbench {

class Tracer {
 public:
  struct Span {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;  ///< -1 = a root (one timed call)
    std::int64_t call;
  };

  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  int open(const char* name, int parent, std::int64_t call) {
    spans_.push_back(Span{name, now_ns(), 0, parent, call});
    return static_cast<int>(spans_.size()) - 1;
  }
  void close(int id) { spans_[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  [[nodiscard]] double ms(int id) const {
    const Span& s = spans_[static_cast<std::size_t>(id)];
    return static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }

  /// Runs `f` inside a span and returns its duration in milliseconds.
  template <class F>
  double run(const char* name, int parent, std::int64_t call, F&& f) {
    const int id = open(name, parent, call);
    f();
    close(id);
    return ms(id);
  }

  [[nodiscard]] std::size_t size() const { return spans_.size(); }

  /// The trace file keeps the first spans only; the per-layer metrics are
  /// summed over every span.
  static constexpr std::size_t kMaxWrittenSpans = 200000;

  /// Writes the spans as complete ("X") trace events. Returns false when
  /// the file cannot be written.
  bool write_chrome_json(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - origin_)
        .count();
  }

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Sums of the replayed layer spans and counters over one traced run. The
/// metric printer normalizes them: times and round/solve counters per timed
/// call, K-Iter and MCRP effort per replayed K-Iter analysis.
struct Layers {
  double copy_ms = 0, serialize_ms = 0, repetition_ms = 0, delta_ms = 0, key_ms = 0;
  double kiter_self_ms = 0, build_ms = 0, solve_ms = 0, cert_ms = 0, combine_ms = 0;
  /// The timed calls' own K-Iter build and solve time (Analysis::build_ms
  /// and solve_ms), so that api.self_ms subtracts the solver time of the
  /// very execution it was part of rather than of a replay.
  double solver_ms = 0;
  /// Share of the solve chain (serialization, repetition vector, K-Iter,
  /// critical-cycle certificate) that counts against a call's wall time.
  /// Where the pool solves a call's analyses in parallel it is an estimate,
  /// 1/workers, which assumes the pool scales perfectly.
  double solve_share = 1;
  double kiter_runs = 0, rounds = 0, arcs = 0;
  double mcrp_iterations = 0, mcrp_exact = 0, mcrp_howard = 0;
  double patched_rounds = 0, payload_rounds = 0, rebuilt_rounds = 0, region_exact = 0;

  // Service counters (ServiceStats deltas over the timed calls).
  double hits = 0, misses = 0, evictions = 0, steals = 0, executed = 0, requests = 0;
  double needed_solves = 0;  ///< contents that had to be solved at least once
  std::vector<double> queue_ms;  ///< Analysis::queue_ms of every queued request

  double replay_ms = 0;  ///< wall time the traced run spent replaying
};

}  // namespace kpbench
