// Tests for K-Iter (Algorithm 1) — the paper's contribution — including
// the central cross-validation property: K-Iter's exact throughput equals
// symbolic execution's on every random live CSDF graph.
#include <gtest/gtest.h>

#include "core/kiter.hpp"
#include "core/verify.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/transform.hpp"
#include "sim/selftimed.hpp"

namespace kp {
namespace {

CsdfGraph serialized_figure2() { return add_serialization_buffers(figure2_graph()); }

TEST(KIter, Figure2OptimalPeriod13) {
  const KIterResult r = kiter_throughput(serialized_figure2());
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.period, Rational{13});
  EXPECT_EQ(r.throughput, Rational::of(1, 13));
}

TEST(KIter, Figure2ConvergesInThreeRounds) {
  KIterOptions options;
  options.record_trace = true;
  const KIterResult r = kiter_throughput(serialized_figure2(), options);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.rounds, 3);
  ASSERT_EQ(r.trace.size(), 3u);
  // Round 1 is the 1-periodic bound (Ω = 18), strictly worse than optimal.
  EXPECT_EQ(r.trace.front().k, (std::vector<i64>{1, 1, 1, 1}));
  EXPECT_EQ(r.trace.front().period, Rational{18});
  EXPECT_FALSE(r.trace.front().optimality_passed);
  EXPECT_TRUE(r.trace.back().optimality_passed);
}

TEST(KIter, FinalKDividesRepetitionVector) {
  const CsdfGraph g = serialized_figure2();
  const RepetitionVector rv = compute_repetition_vector(g);
  const KIterResult r = kiter_throughput(g, rv, {});
  for (TaskId t = 0; t < g.task_count(); ++t) {
    EXPECT_EQ(rv.of(t) % r.k[static_cast<std::size_t>(t)], 0)
        << "K_t must divide q_t (task " << g.task(t).name << ")";
  }
}

TEST(KIter, ReportsCriticalCircuit) {
  const KIterResult r = kiter_throughput(serialized_figure2());
  EXPECT_FALSE(r.critical_tasks.empty());
  EXPECT_FALSE(r.critical_description.empty());
}

TEST(KIter, ScheduleVerifies) {
  const CsdfGraph g = serialized_figure2();
  const RepetitionVector rv = compute_repetition_vector(g);
  const KIterResult r = kiter_throughput(g, rv, {});
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  const ScheduleCheck check = verify_schedule_by_simulation(g, rv, r.schedule);
  EXPECT_TRUE(check.ok) << check.violation;
}

TEST(KIter, DeadlockDetected) {
  const CsdfGraph g = add_serialization_buffers(figure2_deadlocked());
  const KIterResult r = kiter_throughput(g);
  EXPECT_EQ(r.status, ThroughputStatus::Deadlock);
  EXPECT_TRUE(r.throughput.is_zero());
}

TEST(KIter, UnboundedWithoutSerialization) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 3);
  const TaskId b = g.add_task("b", 4);
  g.add_buffer("", a, b, 1, 1, 0);
  const KIterResult r = kiter_throughput(g);
  EXPECT_EQ(r.status, ThroughputStatus::Unbounded);
}

TEST(KIter, InconsistentGraphThrows) {
  CsdfGraph g;
  const TaskId a = g.add_task("a", 1);
  const TaskId b = g.add_task("b", 1);
  g.add_buffer("", a, b, 2, 3, 0);
  g.add_buffer("", a, b, 1, 1, 0);
  EXPECT_THROW((void)kiter_throughput(g), ModelError);
}

TEST(KIter, ResourceLimitHonest) {
  KIterOptions options;
  options.max_constraint_pairs = 10;  // absurdly small
  const KIterResult r = kiter_throughput(serialized_figure2(), options);
  EXPECT_EQ(r.status, ThroughputStatus::ResourceLimit);
  EXPECT_FALSE(r.has_feasible_bound);  // the budget blocked even round 1
}

TEST(KIter, ResourceLimitAfterFirstRoundKeepsBound) {
  KIterOptions options;
  options.max_constraint_pairs = 60;  // lets K=1 through, blocks growth
  const KIterResult r = kiter_throughput(serialized_figure2(), options);
  ASSERT_EQ(r.status, ThroughputStatus::ResourceLimit);
  ASSERT_TRUE(r.has_feasible_bound);
  EXPECT_EQ(r.period, Rational{18});  // the 1-periodic achievable bound
}

TEST(KIter, SerialRuleMatchesSerializedGraphOnEveryExit) {
  // The rule reaches every evaluator, the best-bound schedule
  // re-evaluation of a structural ResourceLimit exit included, and the
  // estimates gate rounds exactly as the serialized graph's do.
  KIterOptions optimal;
  KIterOptions no_round;
  no_round.max_constraint_pairs = 10;
  KIterOptions one_round;
  one_round.max_constraint_pairs = 60;
  KIterOptions max_rounds;
  max_rounds.max_rounds = 1;
  for (const KIterOptions& options : {optimal, no_round, one_round, max_rounds}) {
    const KIterResult rule = kiter_throughput(figure2_graph(), options, /*serialize=*/true);
    const KIterResult edit = kiter_throughput(serialized_figure2(), options);
    EXPECT_EQ(rule.status, edit.status);
    EXPECT_EQ(rule.has_feasible_bound, edit.has_feasible_bound);
    EXPECT_EQ(rule.period, edit.period);
    EXPECT_EQ(rule.k, edit.k);
    EXPECT_EQ(rule.rounds, edit.rounds);
    EXPECT_EQ(rule.critical_tasks, edit.critical_tasks);
    EXPECT_EQ(rule.critical_description, edit.critical_description);
    EXPECT_EQ(rule.schedule.k, edit.schedule.k);
    EXPECT_EQ(rule.schedule.period, edit.schedule.period);
    EXPECT_EQ(rule.schedule.starts, edit.schedule.starts);
    EXPECT_EQ(rule.schedule.task_periods, edit.schedule.task_periods);
  }
}

TEST(KIter, HsdfConvergesInOneRound) {
  // For HSDF, q̄_t = 1 everywhere: the first critical circuit passes the
  // optimality test (this is why LgTransient is trivial for K-Iter).
  CsdfGraph g;
  const TaskId a = g.add_task("a", 2);
  const TaskId b = g.add_task("b", 3);
  const TaskId c = g.add_task("c", 4);
  g.add_buffer("", a, b, 1, 1, 0);
  g.add_buffer("", b, c, 1, 1, 0);
  g.add_buffer("", c, a, 1, 1, 2);
  KIterOptions options;
  options.record_trace = true;
  const KIterResult r = kiter_throughput(g, options);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  EXPECT_EQ(r.rounds, 1);
  // Ring: Ω = (2+3+4)/2 tokens = 9/2.
  EXPECT_EQ(r.period, Rational::of(9, 2));
}

TEST(KIter, TinyPipelineThroughput) {
  // prod -(2:3)-> cons, feedback capacity 6: q = [3, 2], serialized.
  const CsdfGraph g = add_serialization_buffers(tiny_pipeline());
  const KIterResult r = kiter_throughput(g);
  ASSERT_EQ(r.status, ThroughputStatus::Optimal);
  const RepetitionVector rv = compute_repetition_vector(g);
  const SimResult sim = symbolic_execution_throughput(g, rv);
  ASSERT_EQ(sim.status, SimStatus::Periodic);
  EXPECT_EQ(r.period, sim.period);
}

// The paper's central claim, as a property: K-Iter is *exact*. On every
// random live serialized CSDF graph its throughput equals the symbolic
// execution baseline's (and its schedule validates).
struct SweepConfig {
  u64 seed;
  std::int32_t max_phases;
  i64 max_q;
};

class KIterVsSymbolic : public ::testing::TestWithParam<SweepConfig> {};

TEST_P(KIterVsSymbolic, ThroughputsAgree) {
  const SweepConfig config = GetParam();
  Rng rng(config.seed);
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 7;
  options.max_phases = config.max_phases;
  options.max_q = config.max_q;
  int checked = 0;
  for (int round = 0; round < 20; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    const KIterResult kiter = kiter_throughput(g, rv, {});
    SimOptions sim_options;
    sim_options.max_states = 2000000;
    const SimResult sim = symbolic_execution_throughput(g, rv, sim_options);
    if (sim.status == SimStatus::Budget) continue;  // too big to cross-check

    if (kiter.status == ThroughputStatus::Deadlock) {
      EXPECT_EQ(sim.status, SimStatus::Deadlock) << "round " << round;
      continue;
    }
    ASSERT_EQ(kiter.status, ThroughputStatus::Optimal) << "round " << round;
    ASSERT_EQ(sim.status, SimStatus::Periodic) << "round " << round;
    EXPECT_EQ(kiter.period, sim.period)
        << "round " << round << " kiter=" << kiter.period.to_string()
        << " sim=" << sim.period.to_string();
    ++checked;

    const ScheduleCheck check = verify_schedule_by_simulation(g, rv, kiter.schedule, 2);
    EXPECT_TRUE(check.ok) << "round " << round << ": " << check.violation;
  }
  EXPECT_GT(checked, 5);  // the sweep must actually exercise the property
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KIterVsSymbolic,
    ::testing::Values(SweepConfig{101, 1, 4}, SweepConfig{102, 1, 8}, SweepConfig{103, 2, 4},
                      SweepConfig{104, 3, 4}, SweepConfig{105, 3, 6}, SweepConfig{106, 4, 3},
                      SweepConfig{107, 2, 8}, SweepConfig{108, 3, 8}));

// Deadlock property: K-Iter and the simulator agree on starved graphs.
class DeadlockAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(DeadlockAgreement, KIterMatchesSimulator) {
  Rng rng(GetParam());
  RandomCsdfOptions options;
  options.min_tasks = 3;
  options.max_tasks = 6;
  options.max_phases = 2;
  options.max_q = 4;
  options.starve_one_cycle = true;
  int deadlocks = 0;
  for (int round = 0; round < 15; ++round) {
    const CsdfGraph g = add_serialization_buffers(random_csdf(rng, options));
    const RepetitionVector rv = compute_repetition_vector(g);
    const KIterResult kiter = kiter_throughput(g, rv, {});
    const SimResult sim = symbolic_execution_throughput(g, rv);
    if (sim.status == SimStatus::Budget) continue;
    if (kiter.status == ThroughputStatus::Deadlock) {
      ++deadlocks;
      EXPECT_EQ(sim.status, SimStatus::Deadlock) << "round " << round;
    } else {
      ASSERT_EQ(kiter.status, ThroughputStatus::Optimal);
      ASSERT_EQ(sim.status, SimStatus::Periodic) << "round " << round;
      EXPECT_EQ(kiter.period, sim.period) << "round " << round;
    }
  }
  (void)deadlocks;  // starvation usually but not always deadlocks
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadlockAgreement, ::testing::Values(201, 202, 203, 204));

}  // namespace
}  // namespace kp
