#include "scenario/simulate.hpp"

#include <algorithm>
#include <string>

#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "sim/selftimed.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kp {

namespace {

void validate_path(const ScenarioGraph& s, std::span<const std::int32_t> path) {
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (path[i] < 0 || path[i] >= s.transition_count()) {
      throw ModelError("scenario '" + s.name + "': path[" + std::to_string(i) + "] = " +
                       std::to_string(path[i]) + " is not a transition id (have " +
                       std::to_string(s.transition_count()) + ")");
    }
    if (i > 0) {
      const ScenarioTransition& prev = s.transitions[static_cast<std::size_t>(path[i - 1])];
      const ScenarioTransition& cur = s.transitions[static_cast<std::size_t>(path[i])];
      if (prev.to != cur.from) {
        throw ModelError("scenario '" + s.name + "': path[" + std::to_string(i) +
                         "] starts at state " + std::to_string(cur.from) + " but path[" +
                         std::to_string(i - 1) + "] ends at state " + std::to_string(prev.to));
      }
    }
  }
}

}  // namespace

ModeSequenceResult simulate_mode_sequence(const ScenarioGraph& s,
                                          std::span<const std::int32_t> path,
                                          const ModeSequenceOptions& options) {
  validate_scenario(s);
  validate_path(s, path);

  ModeSequenceResult out;
  Stopwatch clock;

  // Serialize the base once (the simulator needs the self-buffers as real
  // buffers), keep ONE materialized variant graph for the whole walk and
  // morph it between modes by revert + apply (O(delta), no per-visit copy). The round-trip
  // bit-identity of apply/revert (tests/test_variants.cpp) is what makes
  // this safe.
  const CsdfGraph prepared =
      options.serialize_tasks ? add_serialization_buffers(s.base) : s.base;
  CsdfGraph work = prepared;
  std::int32_t applied = -1;

  // Repetition vectors per state, computed on first visit (only a rates
  // delta can change them, but recomputing per visit would dominate short
  // dwells on larger graphs).
  const auto n = static_cast<std::size_t>(s.state_count());
  std::vector<std::uint8_t> rv_ready(n, 0);
  std::vector<RepetitionVector> rvs(n);

  out.steps.reserve(path.size());
  for (const std::int32_t tid : path) {
    const ScenarioTransition& t = s.transitions[static_cast<std::size_t>(tid)];
    const std::int32_t u = t.from;
    const ScenarioState& mode = s.states[static_cast<std::size_t>(u)];

    if (applied != u) {
      if (applied >= 0) {
        revert_delta(work, s.states[static_cast<std::size_t>(applied)].delta, prepared);
      }
      apply_delta(work, mode.delta);
      applied = u;
    }
    if (rv_ready[static_cast<std::size_t>(u)] == 0) {
      rvs[static_cast<std::size_t>(u)] = compute_repetition_vector(work);
      rv_ready[static_cast<std::size_t>(u)] = 1;
    }

    SimOptions sim;
    sim.max_firings_per_instant = options.max_firings_per_instant;
    sim.poll = options.poll;
    sim.poll_ctx = options.poll_ctx;
    if (options.time_budget_ms >= 0.0) {
      sim.time_budget_ms = std::max(0.0, options.time_budget_ms - clock.elapsed_ms());
    }
    const IterationRun run =
        execute_iterations(work, rvs[static_cast<std::size_t>(u)], mode.iterations, sim);
    if (run.status == RunStatus::Deadlock) {
      out.status = ModeSimStatus::Deadlock;
      out.deadlock_state = u;
      return out;
    }
    if (run.status == RunStatus::Budget) {
      out.status = ModeSimStatus::Budget;
      return out;
    }

    out.steps.push_back(ModeStep{tid, u, out.total_time, run.makespan, mode.iterations});
    out.total_time = checked_add(out.total_time, checked_add(run.makespan, t.delay));
    out.total_iterations = checked_add(out.total_iterations, mode.iterations);
  }

  out.status = ModeSimStatus::Completed;
  if (out.total_iterations > 0) {
    out.observed_period = Rational(i128{out.total_time}, i128{out.total_iterations});
  }
  if (out.total_time > 0) {
    out.observed_throughput = Rational(i128{out.total_iterations}, i128{out.total_time});
  }
  return out;
}

Rational analytic_path_period(const ScenarioGraph& s, std::span<const std::int32_t> path,
                              std::span<const Analysis> per_state) {
  validate_scenario(s);
  validate_path(s, path);
  if (per_state.size() != static_cast<std::size_t>(s.state_count())) {
    throw ModelError("scenario '" + s.name + "': analytic_path_period needs one Analysis per " +
                     "state (got " + std::to_string(per_state.size()) + " for " +
                     std::to_string(s.state_count()) + " states)");
  }
  Rational time{0};
  i64 iters = 0;
  for (const std::int32_t tid : path) {
    const ScenarioTransition& t = s.transitions[static_cast<std::size_t>(tid)];
    const ScenarioState& mode = s.states[static_cast<std::size_t>(t.from)];
    const Analysis& a = per_state[static_cast<std::size_t>(t.from)];
    Rational omega{0};
    if (a.outcome == Outcome::Value && a.quality == Quality::Exact) {
      omega = a.period;
    } else if (a.outcome != Outcome::Unbounded) {
      throw ModelError("scenario '" + s.name + "': state " + std::to_string(t.from) + " ('" +
                       mode.name + "') is not solved exactly; no analytic bound for this path");
    }
    time += Rational{mode.iterations} * omega + Rational{t.delay};
    iters = checked_add(iters, mode.iterations);
  }
  if (iters == 0) return Rational{0};
  return time / Rational{iters};
}

}  // namespace kp
