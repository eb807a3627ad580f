#include "scenario/scenario.hpp"

#include <algorithm>
#include <span>
#include <sstream>
#include <utility>

#include "api/service.hpp"
#include "graph/digraph.hpp"
#include "mcrp/cycle_ratio.hpp"
#include "util/error.hpp"
#include "util/stopwatch.hpp"

namespace kp {

namespace {

std::string scn(const ScenarioGraph& s) { return "scenario '" + s.name + "': "; }

void check_state(const ScenarioGraph& s, const ScenarioState& st, std::size_t index) {
  if (st.iterations < 1) {
    throw ModelError(scn(s) + "states[" + std::to_string(index) + "] ('" + st.name +
                     "').iterations = " + std::to_string(st.iterations) + " (must be >= 1)");
  }
  try {
    validate_delta_targets(s.base, st.delta);
  } catch (const Error& err) {
    throw ModelError(scn(s) + "states[" + std::to_string(index) + "] ('" + st.name +
                     "').delta: " + err.what());
  }
}

void check_transition(const ScenarioGraph& s, const ScenarioTransition& t, std::size_t index) {
  const std::string ctx = scn(s) + "transitions[" + std::to_string(index) + "]";
  if (t.from < 0 || t.from >= s.state_count()) {
    throw ModelError(ctx + ".from = " + std::to_string(t.from) + " out of range [0, " +
                     std::to_string(s.state_count()) + ")");
  }
  if (t.to < 0 || t.to >= s.state_count()) {
    throw ModelError(ctx + ".to = " + std::to_string(t.to) + " out of range [0, " +
                     std::to_string(s.state_count()) + ")");
  }
  if (t.delay < 0) {
    throw ModelError(ctx + ".delay = " + std::to_string(t.delay) + " (must be >= 0)");
  }
}

/// Exact ratio λ = (Σ value) / (Σ transit) of one FSM cycle.
Rational cycle_ratio(std::span<const std::int32_t> arcs, const std::vector<Rational>& value,
                     const std::vector<i64>& transit) {
  Rational v{0};
  i64 t = 0;
  for (const std::int32_t a : arcs) {
    v += value[static_cast<std::size_t>(a)];
    t = checked_add(t, transit[static_cast<std::size_t>(a)]);
  }
  return v / Rational{t};
}

/// Rotates a cycle's arcs so the smallest source state comes first — a
/// canonical form, so warm/cold and any thread count report the same cycle.
void canonicalize_cycle(const Digraph& fsm, std::vector<std::int32_t>& arcs) {
  std::size_t best = 0;
  for (std::size_t i = 1; i < arcs.size(); ++i) {
    if (fsm.arc_unchecked(arcs[i]).src < fsm.arc_unchecked(arcs[best]).src) best = i;
  }
  std::rotate(arcs.begin(), arcs.begin() + static_cast<std::ptrdiff_t>(best), arcs.end());
}

}  // namespace

std::int32_t ScenarioGraph::add_state(std::string state_name, GraphDelta delta, i64 iterations) {
  ScenarioState st{std::move(state_name), std::move(delta), iterations};
  check_state(*this, st, states.size());
  states.push_back(std::move(st));
  return state_count() - 1;
}

std::int32_t ScenarioGraph::add_transition(std::int32_t from, std::int32_t to, i64 delay) {
  ScenarioTransition t{from, to, delay};
  check_transition(*this, t, transitions.size());
  transitions.push_back(t);
  return transition_count() - 1;
}

void validate_scenario(const ScenarioGraph& s) {
  if (s.states.empty()) throw ModelError(scn(s) + "needs at least one state");
  if (s.initial_state < 0 || s.initial_state >= s.state_count()) {
    throw ModelError(scn(s) + "initial_state = " + std::to_string(s.initial_state) +
                     " out of range [0, " + std::to_string(s.state_count()) + ")");
  }
  for (std::size_t i = 0; i < s.states.size(); ++i) check_state(s, s.states[i], i);
  for (std::size_t i = 0; i < s.transitions.size(); ++i) check_transition(s, s.transitions[i], i);
}

ScenarioAnalysis scenario_worst_case(const ScenarioGraph& s, std::vector<Analysis> per_state) {
  validate_scenario(s);
  const auto n = static_cast<std::size_t>(s.state_count());
  if (per_state.size() != n) {
    throw ModelError(scn(s) + "scenario_worst_case needs one Analysis per state (got " +
                     std::to_string(per_state.size()) + " for " + std::to_string(n) + " states)");
  }

  ScenarioAnalysis out;
  out.states = std::move(per_state);

  // FSM digraph; arc ids coincide with transition ids.
  Digraph fsm(s.state_count());
  for (const ScenarioTransition& t : s.transitions) fsm.add_arc(t.from, t.to);
  fsm.finalize();

  // Reachability from the initial state.
  out.reachable.assign(n, 0);
  std::vector<std::int32_t> stack{s.initial_state};
  out.reachable[static_cast<std::size_t>(s.initial_state)] = 1;
  while (!stack.empty()) {
    const std::int32_t v = stack.back();
    stack.pop_back();
    for (const std::int32_t a : fsm.out_span(v)) {
      const std::int32_t w = fsm.arc_unchecked(a).dst;
      if (out.reachable[static_cast<std::size_t>(w)] == 0) {
        out.reachable[static_cast<std::size_t>(w)] = 1;
        stack.push_back(w);
      }
    }
  }
  for (const std::uint8_t r : out.reachable) out.reachable_states += r;

  std::ostringstream detail;
  detail << "reachable=" << out.reachable_states << "/" << n;

  // Verdict scan over reachable states. Deadlock dominates (the walk can
  // reach a state that never completes a visit); any state not solved
  // EXACTLY — budget, cancel, NoSolution, or an achievable-bound value —
  // forfeits the bound: a pessimistic Ω would yield a "worst case" an ASAP
  // execution can beat.
  std::vector<Rational> omega(n, Rational{0});
  std::int32_t deadlock_state = -1;
  std::int32_t unsolved_state = -1;
  for (std::size_t i = 0; i < n; ++i) {
    if (out.reachable[i] == 0) continue;
    const Analysis& a = out.states[i];
    switch (a.outcome) {
      case Outcome::Deadlock:
        if (deadlock_state < 0) deadlock_state = static_cast<std::int32_t>(i);
        break;
      case Outcome::Unbounded:
        break;  // rate-unconstrained mode: contributes Ω = 0
      case Outcome::Value:
        if (a.quality == Quality::Exact) {
          omega[i] = a.period;
        } else if (unsolved_state < 0) {
          unsolved_state = static_cast<std::int32_t>(i);
        }
        break;
      case Outcome::NoSolution:
      case Outcome::Budget:
        if (unsolved_state < 0) unsolved_state = static_cast<std::int32_t>(i);
        break;
    }
  }
  if (deadlock_state >= 0) {
    out.status = ScenarioStatus::Deadlock;
    out.blocking_state = deadlock_state;
    out.worst_period = Rational{0};
    out.worst_throughput = Rational{0};
    detail << " deadlock at state " << deadlock_state << " ('"
           << s.states[static_cast<std::size_t>(deadlock_state)].name << "')";
    out.detail = detail.str();
    return out;
  }
  if (unsolved_state >= 0) {
    out.status = ScenarioStatus::Budget;
    out.blocking_state = unsolved_state;
    detail << " state " << unsolved_state << " ('"
           << s.states[static_cast<std::size_t>(unsolved_state)].name
           << "') not solved exactly";
    out.detail = detail.str();
    return out;
  }

  // Arc value/transit for the max-cycle-ratio pass: visiting `from` costs
  // iterations·Ω_from plus the switch delay, and advances iterations·1
  // graph iterations.
  std::vector<Rational> value(static_cast<std::size_t>(fsm.arc_count()));
  std::vector<i64> transit(static_cast<std::size_t>(fsm.arc_count()));
  for (std::size_t a = 0; a < value.size(); ++a) {
    const ScenarioTransition& t = s.transitions[a];
    const ScenarioState& from = s.states[static_cast<std::size_t>(t.from)];
    value[a] = Rational{from.iterations} * omega[static_cast<std::size_t>(t.from)] +
               Rational{t.delay};
    transit[a] = from.iterations;
  }

  // Exact max cycle ratio over reachable cycles by cycle-cancelling on the
  // shared positive-cycle kernel (mcrp/cycle_ratio.hpp). Reachability is
  // forward-closed, so a cycle is wholly reachable or wholly unreachable;
  // weight -1 on every transition leaving an unreachable state keeps
  // unreachable cycles negative.
  std::vector<Rational> weight(value.size());
  McrpScratch scratch;
  auto positive_cycle_at = [&](const Rational& lambda) {
    for (std::size_t a = 0; a < weight.size(); ++a) {
      weight[a] = out.reachable[static_cast<std::size_t>(s.transitions[a].from)] != 0
                      ? value[a] - lambda * Rational{transit[a]}
                      : Rational{-1};
    }
    return has_positive_cycle(fsm, weight, scratch);
  };
  // At λ = -1 every reachable transition weighs value + transit >= 1, so a
  // positive cycle exists iff a reachable cycle does.
  if (!positive_cycle_at(Rational{-1})) {
    out.status = ScenarioStatus::NoCycle;
    out.worst_period = Rational{0};
    out.worst_throughput = Rational{0};
    detail << " no reachable FSM cycle (every walk terminates)";
    out.detail = detail.str();
    return out;
  }
  // λ rises from 0 to the ratio of each positive cycle found under
  // value - λ·transit; when none is left, λ is the maximum and the last
  // cycle binds it. λ strictly increases through the finite set of
  // simple-cycle ratios, so the loop terminates.
  Rational lambda{0};
  std::vector<std::int32_t> binding;
  while (positive_cycle_at(lambda)) {
    Rational next = cycle_ratio(scratch.bf_cycle, value, transit);
    if (!(next > lambda)) {
      throw SolverError("scenario cycle ratio: λ did not strictly increase (invariant breach)");
    }
    lambda = std::move(next);
    binding.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
  }
  if (lambda.is_zero()) {
    // Every reachable cycle is free: all its modes are rate-unconstrained
    // and all its switches instantaneous.
    out.status = ScenarioStatus::Unbounded;
    out.worst_period = Rational{0};
    out.worst_throughput = Rational{0};
    detail << " binding cycle costs no time (unbounded rate)";
    out.detail = detail.str();
    return out;
  }

  canonicalize_cycle(fsm, binding);
  out.status = ScenarioStatus::Bounded;
  out.worst_period = lambda;
  out.worst_throughput = lambda.reciprocal();
  out.binding_transitions = std::move(binding);
  out.binding_cycle.reserve(out.binding_transitions.size());
  for (const std::int32_t a : out.binding_transitions) {
    out.binding_cycle.push_back(fsm.arc_unchecked(a).src);
  }
  detail << " binding_cycle=[";
  for (std::size_t i = 0; i < out.binding_cycle.size(); ++i) {
    detail << (i == 0 ? "" : ",") << out.binding_cycle[i];
  }
  detail << "] period=" << out.worst_period.to_string();
  out.detail = detail.str();
  return out;
}

ScenarioAnalysis worst_case_throughput(const ScenarioGraph& s, Method method,
                                       const AnalysisOptions& options) {
  ThroughputService service(ServiceOptions{0});
  ScenarioRequest request;
  request.scenario = s;
  request.method = method;
  request.options = options;
  return service.analyze_scenario(request);
}

}  // namespace kp
