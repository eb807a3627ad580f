// Tests for Theorem-2 constraint generation and its §3.2 K-extension.
//
// The central property: building the constraint graph of G directly with
// periodicity vector K must coincide (same arcs, costs, and — up to the
// folded lcm(K) normalization — times) with building the constraint graph
// of the explicitly duplicated G̃ with K = 1.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "serial_rule.hpp"

namespace kp {
namespace {

std::vector<i64> ones(const CsdfGraph& g) {
  return std::vector<i64>(static_cast<std::size_t>(g.task_count()), 1);
}

TEST(Constraints, TinyPipelineHandComputed) {
  // prod -(1 token? no: m0=0, rates 1:1)-> cons plus reverse with 1 token.
  CsdfGraph g;
  const TaskId p = g.add_task("p", 2);
  const TaskId c = g.add_task("c", 3);
  g.add_buffer("d", p, c, 1, 1, 0);
  g.add_buffer("s", c, p, 1, 1, 1);
  const RepetitionVector rv = compute_repetition_vector(g);
  const ConstraintGraph cg = build_constraint_graph(g, rv, ones(g));
  ASSERT_EQ(cg.graph.node_count(), 2);
  ASSERT_EQ(cg.graph.arc_count(), 2);
  // Forward buffer (m0=0): Q = 1-1-0+1 = 1, gcd=1, α=⌈0⌉=0, β=⌊0⌋=0:
  // arc p->c with L=2, H = -0/(1·1) = 0.
  // Reverse buffer (m0=1): Q = 1-1-1+1 = 0, α=⌈-1⌉=-1, β=⌊-1⌋=-1:
  // arc c->p with L=3, H = 1/(1·1) = 1.
  std::map<std::pair<std::int32_t, std::int32_t>, std::pair<i64, Rational>> arcs;
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto& arc = cg.graph.graph().arc(a);
    arcs[{arc.src, arc.dst}] = {cg.graph.cost(a), cg.graph.time(a)};
  }
  const auto fwd = arcs.find({0, 1});
  ASSERT_NE(fwd, arcs.end());
  EXPECT_EQ(fwd->second.first, 2);
  EXPECT_EQ(fwd->second.second, Rational{0});
  const auto bwd = arcs.find({1, 0});
  ASSERT_NE(bwd, arcs.end());
  EXPECT_EQ(bwd->second.first, 3);
  EXPECT_EQ(bwd->second.second, Rational{1});
  // Period of this loop: (2+3)/(0+1) = 5.
}

TEST(Constraints, ZeroRatePhasePairsProduceNoArc) {
  // A phase that writes (or reads) nothing imposes no precedence: pairs
  // with min(in(p), out(p')) = 0 always have α > β and are skipped.
  CsdfGraph g;
  const TaskId a = g.add_task("a", std::vector<i64>{1, 1});
  const TaskId b = g.add_task("b", 1);
  g.add_buffer("", a, b, std::vector<i64>{0, 2}, std::vector<i64>{2}, 0);
  const ConstraintGraph cg = build_constraint_graph(g, compute_repetition_vector(g), ones(g));
  for (std::int32_t arc = 0; arc < cg.graph.arc_count(); ++arc) {
    const auto src = static_cast<std::size_t>(cg.graph.graph().arc(arc).src);
    EXPECT_NE(cg.node_phase[src], 1) << "zero-rate phase 1 must generate no constraint";
  }
  EXPECT_EQ(cg.graph.arc_count(), 1);  // only <a_2> -> <b_1>
}

TEST(Constraints, SaturatedBufferStillGeneratesLooseArc) {
  // A huge marking does not remove the Theorem-2 pair (gcd = 1 keeps
  // α == β), it just makes H large — the constraint is present but loose.
  CsdfGraph g;
  const TaskId a = g.add_task("a", 1);
  const TaskId b = g.add_task("b", 1);
  g.add_buffer("", a, b, 1, 1, 1000);
  const ConstraintGraph cg = build_constraint_graph(g, compute_repetition_vector(g), ones(g));
  ASSERT_EQ(cg.graph.arc_count(), 1);
  EXPECT_EQ(cg.graph.time(0), Rational{1000});  // H = -β = -(−1000)
}

TEST(Constraints, NodeMapsCoverAllDuplicatedPhases) {
  const CsdfGraph g = figure2_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  const std::vector<i64> k{2, 1, 3, 1};
  const ConstraintGraph cg = build_constraint_graph(g, rv, k);
  // Nodes: 2·2 + 1·3 + 3·1 + 1·1 = 11.
  ASSERT_EQ(cg.graph.node_count(), 11);
  for (TaskId t = 0; t < g.task_count(); ++t) {
    const std::int32_t phi = g.phases(t);
    for (i64 iter = 1; iter <= k[static_cast<std::size_t>(t)]; ++iter) {
      for (std::int32_t ph = 1; ph <= phi; ++ph) {
        const std::int32_t node =
            cg.node_of(t, static_cast<std::int32_t>(iter), ph, phi);
        EXPECT_EQ(cg.node_task[static_cast<std::size_t>(node)], t);
        EXPECT_EQ(cg.node_phase[static_cast<std::size_t>(node)], ph);
        EXPECT_EQ(cg.node_iter[static_cast<std::size_t>(node)], iter);
      }
    }
  }
}

TEST(Constraints, CostsAreSourcePhaseDurations) {
  const CsdfGraph g = figure2_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  const ConstraintGraph cg = build_constraint_graph(g, rv, ones(g));
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto src = static_cast<std::size_t>(cg.graph.graph().arc(a).src);
    EXPECT_EQ(cg.graph.cost(a), g.duration(cg.node_task[src], cg.node_phase[src]));
  }
}

TEST(Constraints, PairCountFormula) {
  const CsdfGraph g = figure2_graph();
  // K=1: Σ_b φ(src)·φ(dst) = 2·3 + 3·1 + 1·2 + 2·1 + 1·1 = 14.
  EXPECT_EQ(constraint_pair_count(g, {1, 1, 1, 1}), 14);
  // K=[2,1,1,1]: A's pairs double where A participates:
  // 4·3 + 3·1 + 1·4 + 4·1 + 1·1 = 24.
  EXPECT_EQ(constraint_pair_count(g, {2, 1, 1, 1}), 24);
}

TEST(Constraints, RejectsBadInput) {
  const CsdfGraph g = figure2_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  EXPECT_THROW((void)build_constraint_graph(g, rv, {1, 1}), ModelError);
  EXPECT_THROW((void)build_constraint_graph(g, rv, {0, 1, 1, 1}), ModelError);
  RepetitionVector bad;
  bad.consistent = false;
  EXPECT_THROW((void)build_constraint_graph(g, bad, {1, 1, 1, 1}), ModelError);
}

TEST(Constraints, TasksOnCircuitDeduplicates) {
  const CsdfGraph g = figure2_graph();
  const RepetitionVector rv = compute_repetition_vector(g);
  const ConstraintGraph cg = build_constraint_graph(g, rv, {2, 2, 2, 1});
  std::vector<std::int32_t> all_arcs(static_cast<std::size_t>(cg.graph.arc_count()));
  for (std::size_t i = 0; i < all_arcs.size(); ++i) all_arcs[i] = static_cast<std::int32_t>(i);
  const std::vector<TaskId> tasks = cg.tasks_on_circuit(all_arcs);
  EXPECT_LE(tasks.size(), 4u);
  // No duplicates.
  std::vector<TaskId> sorted = tasks;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end());
}

/// Canonical arc multiset for comparison: (src-node, dst-node, L, H).
std::vector<std::tuple<std::int32_t, std::int32_t, i64, Rational>> canonical_arcs(
    const ConstraintGraph& cg, const Rational& time_scale) {
  std::vector<std::tuple<std::int32_t, std::int32_t, i64, Rational>> out;
  for (std::int32_t a = 0; a < cg.graph.arc_count(); ++a) {
    const auto& arc = cg.graph.graph().arc(a);
    out.emplace_back(arc.src, arc.dst, cg.graph.cost(a), cg.graph.time(a) * time_scale);
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The §3.2 equivalence: direct K-generation == explicit G̃ with K = 1.
// Our direct generation folds the lcm(K) factor out of H, so the explicit
// version's times must be multiplied by lcm(K) to match.
class DuplicationEquivalence : public ::testing::TestWithParam<u64> {};

TEST_P(DuplicationEquivalence, DirectMatchesExplicit) {
  Rng rng(GetParam());
  for (int round = 0; round < 10; ++round) {
    RandomCsdfOptions options;
    options.min_tasks = 2;
    options.max_tasks = 5;
    options.max_phases = 3;
    options.max_q = 4;
    const CsdfGraph g = random_csdf(rng, options);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);

    std::vector<i64> k(static_cast<std::size_t>(g.task_count()));
    for (auto& v : k) v = rng.uniform(1, 4);

    const ConstraintGraph direct = build_constraint_graph(g, rv, k);

    const CsdfGraph expanded = expand_phases(g, k);
    const RepetitionVector rv2 = compute_repetition_vector(expanded);
    ASSERT_TRUE(rv2.consistent);
    const ConstraintGraph explicit_k1 = build_constraint_graph(
        expanded, rv2, std::vector<i64>(static_cast<std::size_t>(g.task_count()), 1));

    ASSERT_EQ(direct.graph.node_count(), explicit_k1.graph.node_count());
    // Direct build: H = -β/(q_t·i_b). Explicit build on G̃ with its own
    // *minimal* repetition vector rv2: H = -β/(rv2_t·K_t·i_b). The scale
    // between the two is rv2_t·K_t/q_t, constant across tasks (it equals
    // lcm(K)/c where c is the common factor the minimization removed).
    const Rational scale(checked_mul(i128{rv2.of(0)}, i128{k[0]}), i128{rv.of(0)});
    EXPECT_EQ(canonical_arcs(direct, Rational{1}), canonical_arcs(explicit_k1, scale))
        << "round " << round;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DuplicationEquivalence, ::testing::Values(51, 52, 53, 54, 55));

// ---- the serial rule ≡ add_serialization_buffers ----------------------------

/// Builds (g, k) with the serial rule and (add_serialization_buffers(g), k)
/// without it: identical graphs, pair counts and work estimates.
void expect_rule_matches_edit(const CsdfGraph& g, const CsdfGraph& serialized,
                              const RepetitionVector& rv, const std::vector<i64>& k,
                              const std::string& context) {
  expect_same_constraint_graph(build_constraint_graph(g, rv, k, /*serialize=*/true),
                               build_constraint_graph(serialized, rv, k), context);
  EXPECT_EQ(constraint_pair_count(g, k, true), constraint_pair_count(serialized, k)) << context;
  EXPECT_EQ(constraint_work_estimate(g, k, true), constraint_work_estimate(serialized, k))
      << context;
}

/// Every K a K-Iter run over the serialized graph visits.
void expect_rule_matches_edit_along_kiter(const CsdfGraph& g, const std::string& what) {
  const CsdfGraph serialized = add_serialization_buffers(g);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent) << what;
  ASSERT_EQ(compute_repetition_vector(serialized).q, rv.q) << what;
  KIterOptions options;
  options.record_trace = true;
  options.incremental = false;
  const KIterResult traced = kiter_throughput(serialized, rv, options);
  ASSERT_FALSE(traced.trace.empty()) << what;
  for (std::size_t round = 0; round < traced.trace.size(); ++round) {
    expect_rule_matches_edit(g, serialized, rv, traced.trace[round].k,
                             what + " round " + std::to_string(round));
  }
}

TEST(SerialRule, MatchesSerializedGraphOnTable1) {
  for (const NamedGraph& ng : table1_graphs()) expect_rule_matches_edit_along_kiter(ng.graph, ng.name);
}

TEST(SerialRule, MatchesSerializedGraphOnRandomCsdfWithSelfLoops) {
  Rng rng(20261019);
  int skipped_some = 0;
  for (int i = 0; i < 150; ++i) {
    const CsdfGraph g = random_csdf_with_self_loops(rng);
    const std::string what = "random graph " + std::to_string(i);
    expect_rule_matches_edit_along_kiter(g, what);
    // Random K too, not only the ones K-Iter visits (any K >= 1 is a valid
    // build input).
    const CsdfGraph serialized = add_serialization_buffers(g);
    const RepetitionVector rv = compute_repetition_vector(g);
    std::vector<i64> k(static_cast<std::size_t>(g.task_count()));
    for (i64& v : k) v = rng.uniform(1, 6);
    expect_rule_matches_edit(g, serialized, rv, k, what + " random K");
    skipped_some += serialized.buffer_count() < g.buffer_count() + g.task_count();
  }
  EXPECT_GT(skipped_some, 0);  // some tasks came with their own self-loop
}

TEST(SerialRule, ClosedFormEstimatesOverKAndPhaseCounts) {
  // One task, φ phases, no buffers: the serial block alone, at every
  // (K_t, φ) corner of the work estimate's closed form.
  for (std::int32_t phi = 1; phi <= 5; ++phi) {
    for (i64 kt = 1; kt <= 12; ++kt) {
      CsdfGraph g;
      std::vector<i64> durations(static_cast<std::size_t>(phi));
      for (std::size_t p = 0; p < durations.size(); ++p) durations[p] = static_cast<i64>(p) + 2;
      (void)g.add_task("t", durations);
      const std::string what = "phi=" + std::to_string(phi) + " K=" + std::to_string(kt);
      expect_rule_matches_edit(g, add_serialization_buffers(g), compute_repetition_vector(g),
                               {kt}, what);
    }
  }
}

TEST(SerialRule, HandComputedBlock) {
  // Task B of figure 2 (3 phases, q = 4) at K_B = 2: six arcs in node
  // order, L = the source phase's duration, H = 0 except the wrap-around
  // arc, H = K_B / q_B = 1/2.
  CsdfGraph g = figure2_graph();
  const TaskId b = *g.find_task("B");
  g.set_durations(b, std::vector<i64>{2, 3, 5});
  const RepetitionVector rv = compute_repetition_vector(g);
  std::vector<i64> k(static_cast<std::size_t>(g.task_count()), 1);
  k[static_cast<std::size_t>(b)] = 2;
  const ConstraintGraph plain = build_constraint_graph(g, rv, k);
  const ConstraintGraph cg = build_constraint_graph(g, rv, k, /*serialize=*/true);
  // Serial blocks follow the real buffers in task order: A's block
  // (K_A·φ(A) = 2 arcs) comes first.
  std::int32_t arc = plain.graph.arc_count() + static_cast<std::int32_t>(k[0]) * g.phases(0);
  const std::int32_t first = cg.task_first_node[static_cast<std::size_t>(b)];
  for (std::int32_t i = 0; i < 6; ++i, ++arc) {
    const auto& e = cg.graph.graph().arc(arc);
    EXPECT_EQ(e.src, first + i);
    EXPECT_EQ(e.dst, i < 5 ? first + i + 1 : first);
    EXPECT_EQ(cg.graph.cost(arc), g.duration(b, i % 3 + 1));
    EXPECT_EQ(cg.graph.time(arc), i < 5 ? Rational{0} : Rational::of(1, 2));
  }
}

}  // namespace
}  // namespace kp
