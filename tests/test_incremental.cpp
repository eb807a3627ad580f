// The incremental constraint-graph engine (core/constraints.hpp,
// ConstraintGraphCache):
//
//   1. Round-by-round equivalence on 100+ random CSDFGs driven through the
//      real K-Iter K sequences: after every round the patched graph is
//      byte-identical (same arc ids, payloads, node maps) to a fresh stride
//      build, arc-multiset-identical to the brute-force reference build,
//      and its MCRP value matches the reference solve.
//   2. The worst case — a critical circuit covering every task — falls back
//      to a recorded full rebuild and still matches.
//   3. kiter_throughput with incremental on is bit-identical to the
//      non-incremental path (status, period, K, rounds, schedule).
//   4. A warm patched round performs zero heap allocations (the
//      KIterWorkspace contract extends to the ping-pong splice target).
//   5. KIterResult::rounds counts completed rounds only, identically on
//      mid-build and mid-patch aborts (== trace.size()).
//   6. The serial rule patches exactly like the graph edit it replaces:
//      on every Table-1 graph and on random graphs with some self-loops,
//      every K-Iter round (and a durations-only and a marking variant after
//      it) gives the same graph, CSR, patch estimate and round counters as
//      the same rounds over add_serialization_buffers(g); a q change
//      regenerates the serial block; and the rule setting is part of the
//      cache key.
#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>
#include <vector>

#include "alloc_hook.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/kperiodic.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "mcrp/cycle_ratio.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "serial_rule.hpp"

namespace kp {
namespace {

using ArcTuple = std::tuple<std::int32_t, std::int32_t, i64, Rational>;

/// Sorted (src, dst, cost, time) tuples — the arc multiset.
std::vector<ArcTuple> canonical_arcs(const ConstraintGraph& cg) {
  std::vector<ArcTuple> out;
  out.reserve(static_cast<std::size_t>(cg.graph.arc_count()));
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto& arc = cg.graph.graph().arc(a);
    out.emplace_back(arc.src, arc.dst, cg.graph.cost(a), cg.graph.time(a));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// The patched graph must be arc-FOR-arc identical to a fresh stride build:
/// same arc ids in the same order with the same payloads, and the same node
/// maps — the strongest form of the equivalence the engine promises.
void expect_identical(const ConstraintGraph& patched, const ConstraintGraph& fresh,
                      const std::string& context) {
  ASSERT_EQ(patched.graph.node_count(), fresh.graph.node_count()) << context;
  ASSERT_EQ(patched.graph.arc_count(), fresh.graph.arc_count()) << context;
  EXPECT_EQ(patched.k, fresh.k) << context;
  EXPECT_EQ(patched.task_first_node, fresh.task_first_node) << context;
  EXPECT_EQ(patched.node_task, fresh.node_task) << context;
  EXPECT_EQ(patched.node_phase, fresh.node_phase) << context;
  EXPECT_EQ(patched.node_iter, fresh.node_iter) << context;
  for (std::int32_t a = 0; a < fresh.graph.arc_count(); ++a) {
    const auto& pa = patched.graph.graph().arc(a);
    const auto& fa = fresh.graph.graph().arc(a);
    ASSERT_TRUE(pa.src == fa.src && pa.dst == fa.dst &&
                patched.graph.cost(a) == fresh.graph.cost(a) &&
                patched.graph.time(a) == fresh.graph.time(a))
        << context << " arc " << a;
  }
}

RandomCsdfOptions small_graphs() {
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 8;
  options.max_phases = 3;
  options.max_q = 8;
  return options;
}

// ---- 1. round-by-round equivalence on real K-Iter sequences ----------------

TEST(Incremental, RandomizedRoundByRoundEquivalence) {
  KIterWorkspace ws;  // shared across graphs: also exercises invalidation
  i64 total_patched = 0;
  i64 total_rebuilt = 0;
  int checked = 0;
  for (u64 seed = 1; checked < 110; ++seed) {
    Rng rng(seed);
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    // The real K sequence this graph goes through, from the full-rebuild
    // path (ground truth, no cache involved).
    KIterOptions trace_options;
    trace_options.incremental = false;
    trace_options.record_trace = true;
    const KIterResult traced = kiter_throughput(g, rv, trace_options);
    if (traced.trace.empty()) continue;

    ws.cache.invalidate();  // new graph through the shared workspace
    const i64 patched_before = ws.cache.patched_rounds;
    const i64 rebuilt_before = ws.cache.rebuilt_rounds;
    for (std::size_t round = 0; round < traced.trace.size(); ++round) {
      const std::vector<i64>& k = traced.trace[round].k;
      const KEvalStatus status =
          evaluate_k_periodic_round_incremental(g, rv, k, McrpOptions{}, ws);
      ASSERT_NE(status, KEvalStatus::Aborted);

      const std::string context =
          "seed " + std::to_string(seed) + " round " + std::to_string(round);
      const ConstraintGraph fresh = build_constraint_graph(g, rv, k);
      expect_identical(ws.constraints, fresh, context);

      const ConstraintGraph reference = build_constraint_graph_reference(g, rv, k);
      EXPECT_EQ(canonical_arcs(ws.constraints), canonical_arcs(reference)) << context;

      McrpOptions mcrp;
      mcrp.compute_potentials = false;
      const McrpResult ref_solved = solve_max_cycle_ratio(reference.graph, mcrp);
      EXPECT_EQ(ws.solved.status, ref_solved.status) << context;
      if (ref_solved.status == McrpStatus::Optimal) {
        EXPECT_EQ(ws.solved.ratio, ref_solved.ratio) << context;
      }
    }
    total_patched += ws.cache.patched_rounds - patched_before;
    total_rebuilt += ws.cache.rebuilt_rounds - rebuilt_before;
    ++checked;
  }
  // The suite must exercise the splice path, not keep falling back.
  EXPECT_GT(total_patched, 0);
  EXPECT_GT(total_rebuilt, 0);
}

// ---- 2. worst case: every task on the critical circuit ---------------------

TEST(Incremental, FullCoverageRoundFallsBackToRebuildAndMatches) {
  // Two tasks in one cycle: any K update touches both, so every buffer is
  // touched and the patch degenerates to a recorded full rebuild.
  CsdfGraph g;
  const TaskId a = g.add_task("a", std::vector<i64>{2, 1});
  const TaskId b = g.add_task("b", 3);
  g.add_buffer("ab", a, b, std::vector<i64>{2, 1}, std::vector<i64>{1}, 0);
  g.add_buffer("ba", b, a, std::vector<i64>{1}, std::vector<i64>{1, 2}, 3);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);

  KIterWorkspace ws;
  const std::vector<std::vector<i64>> ks = {{1, 1}, {2, 3}, {4, 9}, {8, 9}};
  for (std::size_t round = 0; round < ks.size(); ++round) {
    const i64 rebuilt_before = ws.cache.rebuilt_rounds;
    const KEvalStatus status =
        evaluate_k_periodic_round_incremental(g, rv, ks[round], McrpOptions{}, ws);
    ASSERT_NE(status, KEvalStatus::Aborted);
    const std::string context = "round " + std::to_string(round);
    expect_identical(ws.constraints, build_constraint_graph(g, rv, ks[round]), context);
    EXPECT_EQ(canonical_arcs(ws.constraints),
              canonical_arcs(build_constraint_graph_reference(g, rv, ks[round])))
        << context;
    if (round > 0) {
      // Both K entries changed: no buffer survives, so this must have been
      // a full rebuild, and the cache must be valid again afterwards.
      EXPECT_EQ(ws.cache.rebuilt_rounds, rebuilt_before + 1) << context;
    }
  }
  EXPECT_EQ(ws.cache.patched_rounds, 0);
}

TEST(Incremental, PartialCoverageUsesThePatchPath) {
  // gcd_ring: bumping only task b's K leaves buffers ca and sc untouched.
  const CsdfGraph g = gcd_ring(12);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);

  KIterWorkspace ws;
  ASSERT_NE(evaluate_k_periodic_round_incremental(g, rv, {1, 3, 4}, McrpOptions{}, ws),
            KEvalStatus::Aborted);
  ASSERT_NE(evaluate_k_periodic_round_incremental(g, rv, {1, 6, 4}, McrpOptions{}, ws),
            KEvalStatus::Aborted);
  EXPECT_EQ(ws.cache.patched_rounds, 1);
  expect_identical(ws.constraints, build_constraint_graph(g, rv, {1, 6, 4}), "patched");
}

// ---- 3. K-Iter results bit-identical with and without the engine -----------

TEST(Incremental, KIterMatchesNonIncrementalOnRandomGraphs) {
  KIterWorkspace ws_inc;
  KIterWorkspace ws_full;
  int checked = 0;
  for (u64 seed = 100; checked < 60; ++seed) {
    Rng rng(seed);
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    KIterOptions inc;
    inc.incremental = true;
    KIterOptions full;
    full.incremental = false;
    const KIterResult a = kiter_throughput(g, rv, inc, ws_inc);
    const KIterResult b = kiter_throughput(g, rv, full, ws_full);
    EXPECT_EQ(a.status, b.status) << "seed " << seed;
    EXPECT_EQ(a.period, b.period) << "seed " << seed;
    EXPECT_EQ(a.throughput, b.throughput) << "seed " << seed;
    EXPECT_EQ(a.k, b.k) << "seed " << seed;
    EXPECT_EQ(a.rounds, b.rounds) << "seed " << seed;
    EXPECT_EQ(a.critical_tasks, b.critical_tasks) << "seed " << seed;
    EXPECT_EQ(a.schedule.starts, b.schedule.starts) << "seed " << seed;
    EXPECT_EQ(a.schedule.task_periods, b.schedule.task_periods) << "seed " << seed;
    ++checked;
  }
}

TEST(Incremental, DeadlockAndUnboundedMatchToo) {
  Rng rng(42);
  RandomCsdfOptions options = small_graphs();
  options.starve_one_cycle = true;  // deadlock-heavy population
  for (int round = 0; round < 25; ++round) {
    const CsdfGraph g = random_csdf(rng, options);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    KIterOptions inc;
    inc.incremental = true;
    KIterOptions full;
    full.incremental = false;
    const KIterResult a = kiter_throughput(g, rv, inc);
    const KIterResult b = kiter_throughput(g, rv, full);
    EXPECT_EQ(a.status, b.status) << "round " << round;
    EXPECT_EQ(a.period, b.period) << "round " << round;
    EXPECT_EQ(a.k, b.k) << "round " << round;
    EXPECT_EQ(a.rounds, b.rounds) << "round " << round;
  }
}

// ---- 4. zero allocations on warm patched rounds ----------------------------

TEST(Incremental, WarmPatchedRoundDoesNotAllocate) {
  const CsdfGraph g = gcd_ring(32);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  // Only task b's K flips between the two vectors, so every round after the
  // first is a patch. Four warm-up rounds fill both sides of the ping-pong
  // (each side serves every other round) at both sizes.
  const std::vector<i64> ka{1, 16, 32};
  const std::vector<i64> kb{1, 32, 32};
  const McrpOptions mcrp;

  KIterWorkspace ws;
  (void)evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws);
  (void)evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws);
  (void)evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws);
  (void)evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws);
  ASSERT_GE(ws.cache.patched_rounds, 3);

  const std::uint64_t before = g_alloc_count.load();
  const KEvalStatus sa = evaluate_k_periodic_round_incremental(g, rv, ka, mcrp, ws);
  const KEvalStatus sb = evaluate_k_periodic_round_incremental(g, rv, kb, mcrp, ws);
  const std::uint64_t after = g_alloc_count.load();

  EXPECT_EQ(sa, KEvalStatus::Feasible);
  EXPECT_EQ(sb, KEvalStatus::Feasible);
  EXPECT_EQ(after - before, 0u) << "a warm patch+solve round must not touch the heap";
}

// ---- 5. rounds accounting across abort paths (mid-build == mid-patch) ------

TEST(Incremental, AbortedRoundIsNeverCountedOnEitherPath) {
  // Fire the cancel hook at every possible poll index and check, for both
  // generation paths, that KIterResult::rounds equals the number of rounds
  // that actually completed (== trace.size()).
  const CsdfGraph g = gcd_ring(24);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);

  struct FireAt {
    i64 polls_left;
    static bool hook(void* ctx) { return --static_cast<FireAt*>(ctx)->polls_left < 0; }
  };

  for (const bool incremental : {false, true}) {
    // An unbounded run to learn how many polls a full run makes.
    FireAt probe{1 << 30};
    KIterOptions options;
    options.incremental = incremental;
    options.record_trace = true;
    options.poll = &FireAt::hook;
    options.poll_ctx = &probe;
    options.poll_row_stride = 1;  // poll every producer row: max abort points
    const KIterResult complete = kiter_throughput(g, rv, options);
    ASSERT_NE(complete.status, ThroughputStatus::ResourceLimit);
    const i64 total_polls = (1 << 30) - probe.polls_left;
    ASSERT_GT(total_polls, 2);

    for (i64 fire = 0; fire < total_polls; ++fire) {
      FireAt state{fire};
      options.poll_ctx = &state;
      const KIterResult r = kiter_throughput(g, rv, options);
      ASSERT_EQ(r.status, ThroughputStatus::ResourceLimit)
          << "incremental=" << incremental << " fire=" << fire;
      EXPECT_TRUE(r.cancelled);
      EXPECT_EQ(r.rounds, static_cast<int>(r.trace.size()))
          << "incremental=" << incremental << " fire=" << fire;
      EXPECT_LE(r.rounds, complete.rounds);
    }
  }
}

// ---- workspace reuse across graphs (cache must re-key) ---------------------

TEST(Incremental, WorkspaceReuseAcrossDifferentGraphsMatchesFreshRuns) {
  KIterWorkspace shared;
  Rng rng(7);
  for (int round = 0; round < 20; ++round) {
    const CsdfGraph g = random_csdf(rng, small_graphs());
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    const KIterResult with_shared = kiter_throughput(g, rv, KIterOptions{}, shared);
    const KIterResult fresh = kiter_throughput(g, rv, KIterOptions{});
    EXPECT_EQ(with_shared.status, fresh.status) << "round " << round;
    EXPECT_EQ(with_shared.period, fresh.period) << "round " << round;
    EXPECT_EQ(with_shared.k, fresh.k) << "round " << round;
    EXPECT_EQ(with_shared.rounds, fresh.rounds) << "round " << round;
  }
}

// ---- 6. the serial rule on the patch path ------------------------------------

/// Runs one incremental round of (g, k) with the rule on `rule` and of
/// (serialized, k) without it on `edit`, checks the patch estimate both
/// price beforehand, then the graphs and what the round did.
void expect_rule_round_matches_edit(const CsdfGraph& g, const CsdfGraph& serialized,
                                    const RepetitionVector& rv, const std::vector<i64>& k,
                                    KIterWorkspace& rule, KIterWorkspace& edit,
                                    const std::string& context) {
  EXPECT_EQ(constraint_patch_work_estimate(g, rv, rule.constraints.k, k, rule.cache, true),
            constraint_patch_work_estimate(serialized, rv, edit.constraints.k, k, edit.cache))
      << context;
  const i64 patched = rule.cache.patched_rounds - edit.cache.patched_rounds;
  const i64 rebuilt = rule.cache.rebuilt_rounds - edit.cache.rebuilt_rounds;
  const i64 payload = rule.cache.payload_rounds - edit.cache.payload_rounds;
  ASSERT_NE(evaluate_k_periodic_round_incremental(g, rv, k, McrpOptions{}, rule, nullptr, true),
            KEvalStatus::Aborted);
  ASSERT_NE(evaluate_k_periodic_round_incremental(serialized, rv, k, McrpOptions{}, edit),
            KEvalStatus::Aborted);
  expect_same_constraint_graph(rule.constraints, edit.constraints, context);
  EXPECT_EQ(rule.cache.patched_rounds - edit.cache.patched_rounds, patched) << context;
  EXPECT_EQ(rule.cache.rebuilt_rounds - edit.cache.rebuilt_rounds, rebuilt) << context;
  EXPECT_EQ(rule.cache.payload_rounds - edit.cache.payload_rounds, payload) << context;
  EXPECT_EQ(rule.cache.last_regenerated_buffers, edit.cache.last_regenerated_buffers) << context;
}

TEST(Incremental, SerialRuleMatchesSerializedGraphOnEveryPatchedRound) {
  std::vector<NamedGraph> graphs = table1_graphs();
  Rng rng(20261020);
  for (int i = 0; i < 100; ++i) {
    graphs.push_back({"random " + std::to_string(i), random_csdf_with_self_loops(rng)});
  }
  // Shared across graphs, like a service worker's: a new graph re-keys.
  KIterWorkspace rule;
  KIterWorkspace edit;
  i64 patched_before = rule.cache.patched_rounds;
  i64 payload_before = rule.cache.payload_rounds;
  for (const NamedGraph& ng : graphs) {
    CsdfGraph g = ng.graph;
    CsdfGraph serialized = add_serialization_buffers(g);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent) << ng.name;
    KIterOptions options;
    options.record_trace = true;
    options.incremental = false;
    const KIterResult traced = kiter_throughput(serialized, rv, options);
    for (std::size_t round = 0; round < traced.trace.size(); ++round) {
      expect_rule_round_matches_edit(g, serialized, rv, traced.trace[round].k, rule, edit,
                                     ng.name + " round " + std::to_string(round));
    }
    const std::vector<i64>& k = traced.trace.back().k;
    // Same-shaped variants at the final K: new durations on task 0 (a
    // payload patch: serial block recosted), then a new marking on buffer 0
    // (a content patch). Both graphs take the same edits at the same ids.
    std::vector<i64> durations = g.task(0).durations;
    for (i64& d : durations) d += 3;
    g.set_durations(0, durations);
    serialized.set_durations(0, durations);
    expect_rule_round_matches_edit(g, serialized, rv, k, rule, edit, ng.name + " durations");
    if (g.buffer_count() > 0) {
      const i64 m0 = g.buffer(0).initial_tokens + 1;
      g.set_initial_tokens(0, m0);
      serialized.set_initial_tokens(0, m0);
      expect_rule_round_matches_edit(g, serialized, rv, k, rule, edit, ng.name + " marking");
    }
  }
  EXPECT_GT(rule.cache.patched_rounds, patched_before);
  EXPECT_GT(rule.cache.payload_rounds, payload_before);
}

TEST(Incremental, SerialBlockRegeneratesWhenOnlyQChanges) {
  // a -> b -> c; retuning b -> c from 1:1 to 2:1 doubles q_c only. The
  // serial blocks of a and b splice over; c's is regenerated with H = 1/2.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 2);
  const TaskId b = g.add_task("b", std::vector<i64>{1, 4});
  const TaskId c = g.add_task("c", 3);
  g.add_buffer("ab", a, b, std::vector<i64>{2}, std::vector<i64>{1, 1}, 0);
  g.add_buffer("bc", b, c, std::vector<i64>{1, 0}, std::vector<i64>{1}, 0);
  g.add_buffer("ca", c, a, 1, 1, 2);
  CsdfGraph serialized = add_serialization_buffers(g);
  KIterWorkspace rule;
  KIterWorkspace edit;
  const std::vector<i64> k{1, 1, 1};
  RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  expect_rule_round_matches_edit(g, serialized, rv, k, rule, edit, "before");

  g.set_rates(1, std::vector<i64>{1, 1}, std::vector<i64>{1});
  serialized.set_rates(1, std::vector<i64>{1, 1}, std::vector<i64>{1});
  g.set_rates(2, std::vector<i64>{1}, std::vector<i64>{2});
  serialized.set_rates(2, std::vector<i64>{1}, std::vector<i64>{2});
  rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  ASSERT_EQ(rv.q, (std::vector<i64>{1, 1, 2}));
  const i64 patched = rule.cache.patched_rounds;
  expect_rule_round_matches_edit(g, serialized, rv, k, rule, edit, "after");
  EXPECT_EQ(rule.cache.patched_rounds, patched + 1);
  // Buffers bc and ca changed, and c's serial block (q_c moved).
  EXPECT_EQ(rule.cache.last_regenerated_buffers, 3);
  const std::int32_t last = rule.constraints.graph.arc_count() - 1;
  EXPECT_EQ(rule.constraints.graph.time(last), Rational::of(1, 2));
}

TEST(Incremental, SerialRuleSettingIsPartOfTheCacheKey) {
  // One workspace alternates the rule on and off over figure 2 and a
  // same-shaped variant; every run must equal a cold one. If the setting
  // were not keyed, a run would splice the other setting's spans (with or
  // without the serial blocks) and its final graph would differ.
  const CsdfGraph g = figure2_graph();
  CsdfGraph variant = g;
  variant.set_durations(1, std::vector<i64>{2, 1, 3});
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_NE(kiter_throughput(g, rv, {}, true).period, kiter_throughput(g, rv, {}, false).period);

  KIterWorkspace ws;
  struct Step {
    const CsdfGraph* graph;
    bool serialize;
  };
  const Step steps[] = {{&g, true},        {&g, false}, {&variant, true}, {&g, true},
                        {&variant, false}, {&g, false}, {&variant, true}};
  for (std::size_t i = 0; i < std::size(steps); ++i) {
    const Step& step = steps[i];
    const std::string context = "step " + std::to_string(i);
    const KIterResult warm = kiter_throughput(*step.graph, rv, {}, ws, step.serialize);
    const KIterResult cold = kiter_throughput(*step.graph, rv, {}, step.serialize);
    EXPECT_EQ(warm.status, cold.status) << context;
    EXPECT_EQ(warm.period, cold.period) << context;
    EXPECT_EQ(warm.k, cold.k) << context;
    EXPECT_EQ(warm.rounds, cold.rounds) << context;
    EXPECT_EQ(warm.critical_tasks, cold.critical_tasks) << context;
    expect_same_constraint_graph(
        ws.constraints, build_constraint_graph(*step.graph, rv, warm.k, step.serialize), context);
  }
}

}  // namespace
}  // namespace kp
