// Multi-mode (scenario-aware) CSDF analysis.
//
// Real streaming applications switch modes at runtime: a radio alternates
// synchronization and decoding, a codec switches frame types. Following the
// FSM-based scenario model of Skelin/Geilen (arXiv:1404.0089) and the
// multi-mode graphs of Jung/Oh/Ha (arXiv:1603.05775), a ScenarioGraph is a
// finite state machine whose states are CSDF *variants* of one base graph —
// each state carries a GraphDelta (model/transform.hpp), so per-state
// steady-state analysis rides the cross-variant constraint cache and solver
// warm starts of ThroughputService::analyze_variants — and whose transitions
// carry the time lost during a mode switch (pipeline flush, reconfiguration).
//
// Worst-case throughput over scenario sequences. A run of the application
// is a walk of the FSM from the initial state; visiting state s executes
// s.iterations complete graph iterations of the variant, then pays the
// transition's delay. Long-run throughput of an infinite walk is governed by
// the cycle it settles into, so the worst case over all runs is the minimum
// over reachable FSM cycles C of
//
//     rate(C) = (Σ_{s in C} iterations_s) /
//               (Σ_{s in C} iterations_s·Ω_s + Σ_{e in C} delay_e),
//
// with Ω_s the state's exact steady-state period. Equivalently 1/λ* where
// λ* is the maximum cycle ratio of the FSM with arc value
// iterations_src·Ω_src + delay and arc transit iterations_src — computed
// here exactly (Rational arithmetic) by cycle-cancelling ratio iteration on
// the shared exact positive-cycle kernel (has_positive_cycle,
// mcrp/cycle_ratio.hpp), so the reported binding cycle is the slowest mode
// loop itself, not a float approximation of it. When several cycles tie
// for the maximum, which of them is reported is deterministic but
// unspecified; worst_period does not depend on it.
//
// The bound is sound for the self-timed execution semantics of
// scenario/simulate.hpp (modes run to quiescence, then switch): n complete
// iterations of a variant that return its marking to the initial one can
// never finish faster than n·Ω_s, hence any concrete walk's observed
// throughput is at most the analytic rate of the walk, and the binding
// cycle's rate bounds every long-run execution. It is *tight* when the
// binding cycle's states reach steady state without a transient (e.g.
// single-wavefront graphs, or dwell counts large enough to amortize the
// pipeline fill); see README "Multi-mode scenarios".
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "api/analysis.hpp"
#include "model/csdf.hpp"
#include "model/transform.hpp"

namespace kp {

/// One FSM state = one mode: the base graph with `delta` applied, executed
/// for `iterations` complete graph iterations per visit.
struct ScenarioState {
  std::string name;
  GraphDelta delta{};   ///< edits against the scenario's base graph
  i64 iterations = 1;   ///< dwell: complete iterations per visit, >= 1
};

/// Directed mode switch. `delay` is the wall-clock cost of the switch
/// (>= 0, integer time units — same unit as task durations); parallel
/// transitions between the same states are allowed (the worst-case analysis
/// takes the costlier one, the simulator executes the one it is given).
struct ScenarioTransition {
  std::int32_t from = -1;
  std::int32_t to = -1;
  i64 delay = 0;
};

/// FSM of CSDF variants. Plain aggregate: fill the fields directly or use
/// the add_* helpers (which validate eagerly); validate_scenario re-checks
/// everything, so hand-filled graphs get the same errors, just later.
struct ScenarioGraph {
  std::string name{"scenario"};
  CsdfGraph base;
  std::vector<ScenarioState> states;
  std::vector<ScenarioTransition> transitions;
  std::int32_t initial_state = 0;

  /// Appends a state and returns its id. Throws ModelError on a bad delta
  /// target or iterations < 1.
  std::int32_t add_state(std::string state_name, GraphDelta delta = {}, i64 iterations = 1);

  /// Appends a transition and returns its id. Throws ModelError on bad
  /// endpoints or delay < 0.
  std::int32_t add_transition(std::int32_t from, std::int32_t to, i64 delay = 0);

  [[nodiscard]] std::int32_t state_count() const noexcept {
    return static_cast<std::int32_t>(states.size());
  }
  [[nodiscard]] std::int32_t transition_count() const noexcept {
    return static_cast<std::int32_t>(transitions.size());
  }
};

/// Structural validation: at least one state, initial_state in range, every
/// state's iterations >= 1 and delta targets valid against `base`, every
/// transition's endpoints in range and delay >= 0. Throws ModelError naming
/// the offending state/transition index and field
/// ("scenario 'radio': transitions[3].to = 7 out of range ...").
void validate_scenario(const ScenarioGraph& s);

enum class ScenarioStatus {
  Bounded,    ///< worst_period/worst_throughput are exact
  Deadlock,   ///< some reachable state deadlocks: long-run throughput 0
  Unbounded,  ///< no reachable cycle costs time (all Ω = 0, all delays 0)
  NoCycle,    ///< no reachable FSM cycle: every walk terminates
  Budget,     ///< some reachable state's analysis hit a budget / cancel
};

struct ScenarioAnalysis {
  ScenarioStatus status = ScenarioStatus::Budget;

  /// λ*: max over reachable FSM cycles of time-per-iteration; valid when
  /// Bounded. worst_throughput = 1/λ* (0 for Deadlock/Unbounded/NoCycle —
  /// check `status`).
  Rational worst_period;
  Rational worst_throughput;

  /// The binding (slowest) cycle when Bounded: state ids in cycle order,
  /// rotated to start at the smallest id, and the transition ids taken
  /// between them (binding_transitions[i] goes binding_cycle[i] ->
  /// binding_cycle[(i+1) % size]). Feed binding_transitions to
  /// simulate_mode_sequence to execute the worst-case loop.
  std::vector<std::int32_t> binding_cycle;
  std::vector<std::int32_t> binding_transitions;

  /// For Deadlock/Budget: the first reachable state (smallest id) whose
  /// analysis deadlocked / was cut short. -1 otherwise.
  std::int32_t blocking_state = -1;

  /// Per-state analyses, index-aligned with ScenarioGraph::states (also for
  /// unreachable states, which never affect the verdict).
  std::vector<Analysis> states;

  /// Reachability from initial_state (1 = reachable), index-aligned.
  std::vector<std::uint8_t> reachable;
  std::int32_t reachable_states = 0;

  std::string detail;       ///< human-readable summary
  double elapsed_ms = 0.0;  ///< total wall-clock of the scenario analysis
};

/// Pure combine step: given per-state analyses (index-aligned with
/// s.states; per-state periods must be exact where used — see the status
/// rules in the header comment), computes reachability, runs the exact
/// max-cycle-ratio pass over the reachable FSM and fills every field above
/// except elapsed_ms. Deterministic: depends only on `s` and the value
/// fields of `per_state`.
[[nodiscard]] ScenarioAnalysis scenario_worst_case(const ScenarioGraph& s,
                                                   std::vector<Analysis> per_state);

/// One-shot convenience: per-state throughput via an inline (single-worker)
/// ThroughputService::analyze_scenario, then the combine above. Callers
/// needing deadlines, cancellation or a worker pool should hold a
/// ThroughputService and build a ScenarioRequest (api/service.hpp).
[[nodiscard]] ScenarioAnalysis worst_case_throughput(const ScenarioGraph& s,
                                                     Method method = Method::KIter,
                                                     const AnalysisOptions& options = {});

}  // namespace kp
