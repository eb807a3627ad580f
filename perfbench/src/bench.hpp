// Shared declarations of the benchmark program: run options, what one run
// measures, the reference oracle, and the four workloads.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "gen/categories.hpp"
#include "trace.hpp"
#include "util/rng.hpp"

namespace kpbench {

using kp::i64;
using kp::u64;

struct RunOptions {
  std::string workload;
  u64 seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string reference_dir = "perfbench/reference";
  std::string out_dir = ".bench_build";
};

/// Size of the distinct inputs a workload analyzes (the run record).
struct InputStats {
  i64 graphs = 0;
  i64 tasks = 0;
  i64 buffers = 0;
  double sum_q = 0;
  i64 final_arcs = 0;  ///< constraint arcs at the final K, summed
};

/// A uniform sample of at most `capacity` recorded values (Vitter's
/// Algorithm R); below capacity it keeps every value. Its storage is
/// allocated and written in full up front, so a run's peak resident memory
/// does not depend on how many values the run records.
template <class T>
class Reservoir {
 public:
  Reservoir(std::size_t capacity, const T& fill, u64 seed) : slots_(capacity, fill), rng_(seed) {}

  void add(const T& v) {
    if (seen_ < slots_.size()) {
      slots_[seen_] = v;
    } else if (const auto j = static_cast<std::size_t>(rng_.uniform(0, static_cast<i64>(seen_)));
               j < slots_.size()) {
      slots_[j] = v;
    }
    ++seen_;
  }
  [[nodiscard]] std::span<const T> kept() const {
    return {slots_.data(), std::min(seen_, slots_.size())};
  }

 private:
  std::vector<T> slots_;
  std::size_t seen_ = 0;
  kp::Rng rng_;
};

struct CallSample {
  double ms;    ///< wall time of the call
  int input;    ///< distinct-input index of the call
  int answers;  ///< correct answers the call returned
};

/// Everything one run measured.
struct RunData {
  std::vector<double> setup_s;  ///< one entry per set-up repetition
  double prime_s = 0;           ///< untimed priming calls after set-up
  /// Timed calls. 2^19 samples hold every call of a 30 s run with room for
  /// a library several times faster than today's.
  Reservoir<CallSample> calls{std::size_t{1} << 19, CallSample{-1.0, -1, 0}, 0xCA11};
  i64 attempted = 0;            ///< timed calls
  i64 failed = 0;               ///< calls with a wrong answer, an exception or a budget hit
  i64 answers = 0;              ///< correct answers (analyses, variants, scenario states)
  double timed_ms = 0;
  int workers = 0;
  int pinned_cpu = -1;          ///< the CPU the run is pinned to, or -1
  InputStats inputs;
  Layers layers;
  std::vector<std::string> failures;  ///< the first few failure messages

  /// Records a timed call of distinct input `input` and its correct answers.
  void record(int input, double ms, i64 good) {
    calls.add({ms, input, static_cast<int>(good)});
    answers += good;
  }

  void fail(std::string why) {
    ++failed;
    if (failures.size() < 8) failures.push_back(std::move(why));
  }
};

inline double ms_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(std::chrono::steady_clock::now() - t0)
      .count();
}

// ---- reference oracle (reference.cpp) ---------------------------------------

/// One expected answer. A Quality::AchievableBound entry is a bound: an
/// answer matches when it is a value whose throughput is at least the
/// bound's (an exact value included).
struct Expected {
  kp::Outcome outcome = kp::Outcome::Budget;
  kp::Quality quality = kp::Quality::None;
  kp::Rational period;
};

/// Empty when `a` matches `e`, else why not.
[[nodiscard]] std::string mismatch(const kp::Analysis& a, const Expected& e);

[[nodiscard]] Expected expected_of(const kp::Analysis& a);

/// A committed reference row: expected answer plus the input's size.
struct ReferenceRow {
  std::string name;
  Expected expected;
  i64 tasks = 0, buffers = 0, final_arcs = 0;
  double sum_q = 0;
};

/// Loads `<dir>/<workload>.tsv`; throws std::runtime_error when missing or
/// malformed.
[[nodiscard]] std::vector<ReferenceRow> load_reference(const std::string& dir,
                                                       const std::string& workload);

/// Recomputes both committed reference files into `dir` with K-Iter and
/// cross-checks them against SymbolicExecution and Expansion. Returns the
/// number of cross-method mismatches.
int make_reference(const std::string& dir);

// ---- inputs shared by the workloads and the reference (workloads.cpp) -------

/// Table 1's 225 SDF graphs, in table order.
[[nodiscard]] std::vector<kp::NamedGraph> paper_sdf_inputs();
/// Table 2's 15 rows, in table order.
[[nodiscard]] std::vector<kp::NamedGraph> paper_csdf_inputs();
[[nodiscard]] kp::AnalysisOptions paper_sdf_options();
[[nodiscard]] kp::AnalysisOptions paper_csdf_options();

/// Constraint arcs of the final K-Iter round on the serialized graph.
[[nodiscard]] i64 final_constraint_arcs(const kp::CsdfGraph& g, const kp::AnalysisOptions& o);

// ---- workloads (workloads.cpp) ----------------------------------------------

RunData run_paper_sdf(const RunOptions& opt, Tracer* tracer);
RunData run_paper_csdf(const RunOptions& opt, Tracer* tracer);
RunData run_serve_dup(const RunOptions& opt, Tracer* tracer);
RunData run_dse_sweep(const RunOptions& opt, Tracer* tracer);

}  // namespace kpbench
