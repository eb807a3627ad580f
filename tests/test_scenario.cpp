// The ScenarioGraph subsystem end to end:
//
//   1. Validation errors name the offending state/transition index and field.
//   2. Hand-computed two-mode scenario: exact binding cycle, worst period
//      13/3, and a transient-free replay where the simulator meets the
//      bound exactly (tightness).
//   3. Verdict rules: a reachable deadlocking mode dominates; an
//      unreachable one is ignored; NoCycle; delay-only cycles; Unbounded;
//      cancelled requests collapse to Budget.
//   4. execute_iterations barrier semantics: visits compose (marking
//      returns to the initial one).
//   5. Acceptance: analyze_scenario is deterministic across thread counts
//      {0,2,5} and bit-identical warm vs cold; on >= 50 random scenarios
//      the mode-sequence simulator never observes throughput above the
//      analytic worst-case bound (binding-cycle replays AND random walks).
//   6. The combine step against a brute-force cycle enumeration on 3000
//      random FSMs: verdict, exact worst period and a realizing binding
//      cycle.
#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "api/service.hpp"
#include "gen/scenario_gen.hpp"
#include "scenario/scenario.hpp"
#include "scenario/simulate.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

/// One serialized task with a unit self-loop: Ω equals the task duration,
/// executions have no pipeline transient — the sharpest lens for
/// hand-computed scenario arithmetic.
CsdfGraph single_task_base(i64 duration) {
  CsdfGraph g("one");
  const TaskId t = g.add_task("t", duration);
  g.add_buffer("self", t, t, 1, 1, 1);
  return g;
}

GraphDelta retime(TaskId task, std::vector<i64> durations) {
  GraphDelta d;
  d.exec_times.push_back({task, std::move(durations)});
  return d;
}

template <typename Fn>
std::string thrown_message(Fn&& fn) {
  try {
    fn();
  } catch (const ModelError& e) {
    return e.what();
  }
  return {};
}

void expect_same_scenario(const ScenarioAnalysis& got, const ScenarioAnalysis& ref,
                          const std::string& context) {
  EXPECT_EQ(got.status, ref.status) << context;
  EXPECT_EQ(got.worst_period, ref.worst_period) << context;
  EXPECT_EQ(got.worst_throughput, ref.worst_throughput) << context;
  EXPECT_EQ(got.binding_cycle, ref.binding_cycle) << context;
  EXPECT_EQ(got.binding_transitions, ref.binding_transitions) << context;
  EXPECT_EQ(got.blocking_state, ref.blocking_state) << context;
  EXPECT_EQ(got.reachable, ref.reachable) << context;
  EXPECT_EQ(got.detail, ref.detail) << context;
  ASSERT_EQ(got.states.size(), ref.states.size()) << context;
  for (std::size_t i = 0; i < got.states.size(); ++i) {
    const std::string state_ctx = context + " state " + std::to_string(i);
    EXPECT_EQ(got.states[i].outcome, ref.states[i].outcome) << state_ctx;
    EXPECT_EQ(got.states[i].quality, ref.states[i].quality) << state_ctx;
    EXPECT_EQ(got.states[i].period, ref.states[i].period) << state_ctx;
    EXPECT_EQ(got.states[i].throughput, ref.states[i].throughput) << state_ctx;
  }
}

std::vector<std::int32_t> repeat_cycle(const std::vector<std::int32_t>& cycle, int times) {
  std::vector<std::int32_t> path;
  for (int r = 0; r < times; ++r) path.insert(path.end(), cycle.begin(), cycle.end());
  return path;
}

// ---- 1. validation ----------------------------------------------------------

TEST(Scenario, ValidationNamesOffendingIndexAndField) {
  ScenarioGraph s;
  s.name = "val";
  s.base = single_task_base(2);
  EXPECT_THROW(validate_scenario(s), ModelError);  // no states

  s.add_state("m0");
  s.initial_state = 3;
  std::string msg = thrown_message([&] { validate_scenario(s); });
  EXPECT_NE(msg.find("initial_state = 3"), std::string::npos) << msg;
  s.initial_state = 0;

  msg = thrown_message([&] { s.add_transition(0, 7); });
  EXPECT_NE(msg.find("transitions[0].to = 7"), std::string::npos) << msg;
  msg = thrown_message([&] { s.add_transition(-1, 0); });
  EXPECT_NE(msg.find("transitions[0].from = -1"), std::string::npos) << msg;
  msg = thrown_message([&] { s.add_transition(0, 0, -2); });
  EXPECT_NE(msg.find("transitions[0].delay = -2"), std::string::npos) << msg;
  EXPECT_EQ(s.transition_count(), 0);

  // A delta naming a task the base lacks: state index AND edit position.
  msg = thrown_message([&] { s.add_state("bad", retime(9, {1})); });
  EXPECT_NE(msg.find("states[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("exec_times[0]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("task 9"), std::string::npos) << msg;

  // Hand-filled structs get the same checks from validate_scenario.
  s.states.push_back(ScenarioState{"dw", {}, 0});
  msg = thrown_message([&] { validate_scenario(s); });
  EXPECT_NE(msg.find("states[1]"), std::string::npos) << msg;
  EXPECT_NE(msg.find("iterations = 0"), std::string::npos) << msg;

  // An invalid path is reported with its position too.
  s.states.pop_back();
  s.add_transition(0, 0, 1);
  msg = thrown_message([&] {
    (void)simulate_mode_sequence(s, std::vector<std::int32_t>{0, 5});
  });
  EXPECT_NE(msg.find("path[1] = 5"), std::string::npos) << msg;
}

// ---- 2. hand-computed worst case + tightness --------------------------------

TEST(Scenario, TwoModeWorstCaseHandComputedAndTight) {
  ScenarioGraph s;
  s.name = "two-mode";
  s.base = single_task_base(2);
  const std::int32_t fast = s.add_state("fast", {}, 2);           // Ω = 2, dwell 2
  const std::int32_t slow = s.add_state("slow", retime(0, {5}));  // Ω = 5, dwell 1
  (void)s.add_transition(fast, fast, 0);
  const std::int32_t t_fs = s.add_transition(fast, slow, 3);
  const std::int32_t t_sf = s.add_transition(slow, fast, 1);

  const ScenarioAnalysis a = worst_case_throughput(s);
  ASSERT_EQ(a.status, ScenarioStatus::Bounded);
  EXPECT_EQ(a.states[static_cast<std::size_t>(fast)].period, Rational{2});
  EXPECT_EQ(a.states[static_cast<std::size_t>(slow)].period, Rational{5});
  EXPECT_EQ(a.reachable_states, 2);
  // Cycles: fast self-loop (2·2+0)/2 = 2; fast->slow->fast
  // (2·2+3 + 1·5+1)/(2+1) = 13/3. The worst one binds.
  EXPECT_EQ(a.worst_period, Rational::of(13, 3));
  EXPECT_EQ(a.worst_throughput, Rational::of(3, 13));
  EXPECT_EQ(a.binding_cycle, (std::vector<std::int32_t>{fast, slow}));
  EXPECT_EQ(a.binding_transitions, (std::vector<std::int32_t>{t_fs, t_sf}));

  // Single-task modes have no pipeline transient, so replaying the binding
  // cycle meets the bound EXACTLY: 4 rounds of (4 + 3) + (5 + 1) = 52 time
  // for 12 iterations.
  const std::vector<std::int32_t> path = repeat_cycle(a.binding_transitions, 4);
  const ModeSequenceResult sim = simulate_mode_sequence(s, path);
  ASSERT_EQ(sim.status, ModeSimStatus::Completed);
  EXPECT_EQ(sim.total_time, 52);
  EXPECT_EQ(sim.total_iterations, 12);
  EXPECT_EQ(sim.observed_period, a.worst_period);
  EXPECT_EQ(sim.observed_throughput, a.worst_throughput);
  ASSERT_EQ(sim.steps.size(), 8u);
  EXPECT_EQ(sim.steps[0].makespan, 4);  // dwell 2 × duration 2, serialized
  EXPECT_EQ(sim.steps[1].makespan, 5);

  // The analytic per-path bound agrees with the cycle ratio on this path.
  EXPECT_EQ(analytic_path_period(s, path, a.states), a.worst_period);
}

// ---- 3. verdict rules -------------------------------------------------------

TEST(Scenario, ReachableDeadlockDominatesAndSimulatorConfirms) {
  ScenarioGraph s;
  s.name = "dead";
  s.base = single_task_base(2);
  GraphDelta starve;
  starve.markings.push_back({0, 0});  // empty the self-loop: no firing ever
  const std::int32_t ok = s.add_state("ok");
  const std::int32_t dead = s.add_state("dead", std::move(starve));
  (void)s.add_transition(ok, ok, 1);
  const std::int32_t into = s.add_transition(ok, dead, 0);
  const std::int32_t stay = s.add_transition(dead, dead, 0);

  const ScenarioAnalysis a = worst_case_throughput(s);
  EXPECT_EQ(a.status, ScenarioStatus::Deadlock);
  EXPECT_EQ(a.blocking_state, dead);
  EXPECT_EQ(a.worst_throughput, Rational{0});

  // KIter proved the mode dead; the ASAP simulator must stall there too.
  const ModeSequenceResult sim =
      simulate_mode_sequence(s, std::vector<std::int32_t>{into, stay});
  EXPECT_EQ(sim.status, ModeSimStatus::Deadlock);
  EXPECT_EQ(sim.deadlock_state, dead);

  // Unreachable deadlock is ignored: cut ok->dead and the verdict is the
  // ok self-loop's rate, (1·2 + 1)/1 = 3.
  ScenarioGraph cut = s;
  cut.transitions.erase(cut.transitions.begin() + into);
  const ScenarioAnalysis b = worst_case_throughput(cut);
  ASSERT_EQ(b.status, ScenarioStatus::Bounded);
  EXPECT_EQ(b.worst_period, Rational{3});
  EXPECT_EQ(b.reachable_states, 1);
}

TEST(Scenario, NoCycleDelayOnlyCycleAndUnbounded) {
  // A lone task with no buffer at all: rate-unconstrained when analyzed
  // with auto-concurrency (serialize_tasks off) — Ω contributes 0.
  CsdfGraph free_base("free");
  (void)free_base.add_task("t", 3);
  AnalysisOptions opt;
  opt.serialize_tasks = false;

  ScenarioGraph s;
  s.name = "free";
  s.base = free_base;
  (void)s.add_state("m0");
  (void)s.add_state("m1");
  (void)s.add_transition(0, 1, 5);

  const ScenarioAnalysis a = worst_case_throughput(s, Method::KIter, opt);
  EXPECT_EQ(a.status, ScenarioStatus::NoCycle);
  EXPECT_EQ(a.states[0].outcome, Outcome::Unbounded);

  // Closing the loop makes the switches the only time cost:
  // (0+5 + 0+5)/2 = 5 per iteration.
  ScenarioGraph loop = s;
  (void)loop.add_transition(1, 0, 5);
  const ScenarioAnalysis b = worst_case_throughput(loop, Method::KIter, opt);
  ASSERT_EQ(b.status, ScenarioStatus::Bounded);
  EXPECT_EQ(b.worst_period, Rational{5});

  // With free switches too, nothing limits the rate.
  ScenarioGraph zero = loop;
  for (ScenarioTransition& t : zero.transitions) t.delay = 0;
  EXPECT_EQ(worst_case_throughput(zero, Method::KIter, opt).status, ScenarioStatus::Unbounded);
}

TEST(Scenario, CancelledScenarioReportsBudget) {
  ScenarioGraph s;
  s.base = single_task_base(2);
  (void)s.add_state("m");
  (void)s.add_transition(0, 0, 1);

  ThroughputService service(ServiceOptions{0});
  ScenarioRequest request;
  request.scenario = s;
  request.cancel = CancelToken::create();
  request.cancel.cancel();
  const ScenarioAnalysis a = service.analyze_scenario(request);
  EXPECT_EQ(a.status, ScenarioStatus::Budget);
  EXPECT_EQ(a.blocking_state, 0);
}

// ---- 4. visits compose (the quiescence barrier restores the marking) --------

TEST(Scenario, ExecuteIterationsComposesAcrossVisits) {
  CsdfGraph pipe("pipe");
  const TaskId a = pipe.add_task("a", 2);
  const TaskId b = pipe.add_task("b", 3);
  pipe.add_buffer("ab", a, b, 1, 1, 0);
  pipe.add_buffer("ba", b, a, 1, 1, 2);

  ScenarioGraph s;
  s.name = "pipe";
  s.base = pipe;
  (void)s.add_state("m");
  const std::int32_t stay = s.add_transition(0, 0, 0);

  const ScenarioAnalysis analysis = worst_case_throughput(s);
  ASSERT_EQ(analysis.status, ScenarioStatus::Bounded);

  const ModeSequenceResult once = simulate_mode_sequence(s, std::vector<std::int32_t>{stay});
  const ModeSequenceResult twice =
      simulate_mode_sequence(s, std::vector<std::int32_t>{stay, stay});
  ASSERT_EQ(once.status, ModeSimStatus::Completed);
  ASSERT_EQ(twice.status, ModeSimStatus::Completed);
  // Each visit starts from the variant's initial marking (the barrier
  // restored it), so makespans are identical visit to visit.
  EXPECT_EQ(twice.total_time, 2 * once.total_time);
  EXPECT_EQ(twice.steps[0].makespan, twice.steps[1].makespan);
  // And a visit can never beat dwell·Ω.
  EXPECT_GE(once.observed_period, analysis.states[0].period);
}

// ---- 5. acceptance: determinism, warm/cold identity, sim <= bound ----------

TEST(Scenario, DeterministicAcrossThreadCountsAndWarmCold) {
  Rng rng(2026);
  RandomScenarioOptions opt;
  opt.min_states = 5;
  opt.max_states = 9;
  const ScenarioGraph s = random_scenario(rng, opt);

  ScenarioRequest request;
  request.scenario = s;
  ThroughputService inline_service(ServiceOptions{0});
  const ScenarioAnalysis ref = inline_service.analyze_scenario(request);
  ASSERT_EQ(ref.status, ScenarioStatus::Bounded);
  ASSERT_FALSE(ref.binding_cycle.empty());

  for (const int threads : {2, 5}) {
    ThroughputService pool(ServiceOptions{threads});
    const ScenarioAnalysis got = pool.analyze_scenario(request);
    expect_same_scenario(got, ref, std::to_string(threads) + " threads");
  }

  ScenarioRequest cold = request;
  cold.warm_start = false;
  const ScenarioAnalysis coldr = inline_service.analyze_scenario(cold);
  expect_same_scenario(coldr, ref, "warm vs cold");
}

TEST(Scenario, SimulatorNeverBeatsWorstCaseBoundOnRandomScenarios) {
  int checked = 0;
  for (u64 seed = 1; checked < 50; ++seed) {
    Rng rng(seed);
    RandomScenarioOptions opt;
    opt.base.min_tasks = 2;
    opt.base.max_tasks = 5;
    opt.base.max_phases = 2;
    opt.base.max_q = 4;
    const ScenarioGraph s = random_scenario(rng, opt);

    const ScenarioAnalysis a = worst_case_throughput(s);
    ASSERT_EQ(a.status, ScenarioStatus::Bounded) << "seed " << seed;
    ASSERT_FALSE(a.binding_transitions.empty()) << "seed " << seed;

    // Replaying the binding cycle can never exceed the worst-case bound.
    const ModeSequenceResult sim = simulate_mode_sequence(s, repeat_cycle(a.binding_transitions, 3));
    ASSERT_EQ(sim.status, ModeSimStatus::Completed) << "seed " << seed;
    EXPECT_GE(sim.observed_period, a.worst_period)
        << "seed " << seed << ": simulated " << sim.observed_period.to_string()
        << " beats the bound " << a.worst_period.to_string();

    // Nor can any concrete walk beat its own analytic rate.
    std::vector<std::vector<std::int32_t>> out_of(static_cast<std::size_t>(s.state_count()));
    for (std::int32_t t = 0; t < s.transition_count(); ++t) {
      out_of[static_cast<std::size_t>(s.transitions[static_cast<std::size_t>(t)].from)]
          .push_back(t);
    }
    std::vector<std::int32_t> walk;
    std::int32_t at = s.initial_state;
    for (int hop = 0; hop < 8; ++hop) {
      const std::int32_t t =
          static_cast<std::int32_t>(out_of[static_cast<std::size_t>(at)][static_cast<std::size_t>(
              rng.uniform(0, static_cast<i64>(out_of[static_cast<std::size_t>(at)].size()) - 1))]);
      walk.push_back(t);
      at = s.transitions[static_cast<std::size_t>(t)].to;
    }
    const ModeSequenceResult walked = simulate_mode_sequence(s, walk);
    ASSERT_EQ(walked.status, ModeSimStatus::Completed) << "seed " << seed;
    EXPECT_GE(walked.observed_period, analytic_path_period(s, walk, a.states))
        << "seed " << seed;
    ++checked;
  }
}

/// Brute-force oracle for scenario_worst_case's cycle pass: the max ratio
/// Σ value / Σ transit over every simple cycle through reachable states
/// (nullopt when none), by enumerating the transition paths that close at
/// their smallest state.
std::optional<Rational> brute_worst_period(const ScenarioGraph& s,
                                           const std::vector<Rational>& omega,
                                           const std::vector<std::uint8_t>& reachable) {
  std::optional<Rational> best;
  std::vector<std::int8_t> on_path(static_cast<std::size_t>(s.state_count()), 0);
  const auto dfs = [&](const auto& self, std::int32_t start, std::int32_t v, const Rational& value,
                       i64 transit) -> void {
    for (const ScenarioTransition& t : s.transitions) {
      if (t.from != v) continue;
      const i64 dwell = s.states[static_cast<std::size_t>(v)].iterations;
      const Rational next_value = value + Rational{dwell} * omega[static_cast<std::size_t>(v)] +
                                  Rational{t.delay};
      const i64 next_transit = transit + dwell;
      if (t.to == start) {
        const Rational ratio = next_value / Rational{next_transit};
        if (!best || ratio > *best) best = ratio;
      } else if (t.to > start && on_path[static_cast<std::size_t>(t.to)] == 0) {
        on_path[static_cast<std::size_t>(t.to)] = 1;
        self(self, start, t.to, next_value, next_transit);
        on_path[static_cast<std::size_t>(t.to)] = 0;
      }
    }
  };
  for (std::int32_t v = 0; v < s.state_count(); ++v) {
    if (reachable[static_cast<std::size_t>(v)] == 0) continue;
    on_path[static_cast<std::size_t>(v)] = 1;
    dfs(dfs, v, v, Rational{0}, 0);
    on_path[static_cast<std::size_t>(v)] = 0;
  }
  return best;
}

TEST(Scenario, WorstCaseMatchesBruteForceOnRandomFsms) {
  // Random FSMs with self-loops and parallel transitions over hand-built
  // per-state analyses (exact Ω with small denominators, or Unbounded);
  // the combine step must reproduce the enumerated verdict and period, and
  // report a binding cycle that realizes it.
  Rng rng(1404);
  int bounded = 0;
  int unbounded = 0;
  int no_cycle = 0;
  for (int round = 0; round < 3000; ++round) {
    ScenarioGraph s;
    s.base = single_task_base(1);
    const auto n = static_cast<std::int32_t>(rng.uniform(1, 6));
    std::vector<Analysis> per_state(static_cast<std::size_t>(n));
    std::vector<Rational> omega(static_cast<std::size_t>(n), Rational{0});
    for (std::int32_t v = 0; v < n; ++v) {
      (void)s.add_state("m" + std::to_string(v), {}, rng.uniform(1, 3));
      Analysis& a = per_state[static_cast<std::size_t>(v)];
      if (rng.chance(1, 4)) {
        a.outcome = Outcome::Unbounded;
      } else {
        a.outcome = Outcome::Value;
        a.quality = Quality::Exact;
        a.period = Rational::of(rng.uniform(1, 40), rng.uniform(1, 7));
        a.throughput = a.period.reciprocal();
        omega[static_cast<std::size_t>(v)] = a.period;
      }
    }
    const i64 transitions = rng.uniform(0, 10);
    for (i64 i = 0; i < transitions; ++i) {
      (void)s.add_transition(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                             static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                             rng.chance(1, 3) ? 0 : rng.uniform(0, 25));
    }
    s.initial_state = static_cast<std::int32_t>(rng.uniform(0, n - 1));

    const ScenarioAnalysis got = scenario_worst_case(s, per_state);
    const std::string ctx = "round " + std::to_string(round);
    const std::optional<Rational> want = brute_worst_period(s, omega, got.reachable);
    if (!want) {
      EXPECT_EQ(got.status, ScenarioStatus::NoCycle) << ctx;
      ++no_cycle;
      continue;
    }
    if (want->is_zero()) {
      EXPECT_EQ(got.status, ScenarioStatus::Unbounded) << ctx;
      ++unbounded;
      continue;
    }
    ++bounded;
    ASSERT_EQ(got.status, ScenarioStatus::Bounded) << ctx;
    EXPECT_EQ(got.worst_period, *want) << ctx;
    EXPECT_EQ(got.worst_throughput, want->reciprocal()) << ctx;

    // The binding cycle: closed, consistent with binding_transitions, on
    // reachable states, rotated to its smallest state, and its own ratio
    // is the reported period.
    const std::vector<std::int32_t>& ts = got.binding_transitions;
    ASSERT_FALSE(ts.empty()) << ctx;
    ASSERT_EQ(got.binding_cycle.size(), ts.size()) << ctx;
    Rational value{0};
    i64 transit = 0;
    for (std::size_t i = 0; i < ts.size(); ++i) {
      const ScenarioTransition& t = s.transitions[static_cast<std::size_t>(ts[i])];
      const std::int32_t v = got.binding_cycle[i];
      EXPECT_EQ(t.from, v) << ctx;
      EXPECT_EQ(t.to, got.binding_cycle[(i + 1) % ts.size()]) << ctx;
      EXPECT_EQ(got.reachable[static_cast<std::size_t>(v)], 1) << ctx;
      EXPECT_GE(v, got.binding_cycle.front()) << ctx;
      const i64 dwell = s.states[static_cast<std::size_t>(v)].iterations;
      value += Rational{dwell} * omega[static_cast<std::size_t>(v)] + Rational{t.delay};
      transit += dwell;
    }
    EXPECT_EQ(value / Rational{transit}, got.worst_period) << ctx;
  }
  // Every verdict was exercised.
  EXPECT_GT(bounded, 1000);
  EXPECT_GT(unbounded, 10);
  EXPECT_GT(no_cycle, 500);
}

}  // namespace
}  // namespace kp
