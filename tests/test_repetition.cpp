// Tests for consistency analysis and the repetition vector (§2.2).
#include <gtest/gtest.h>

#include "gen/categories.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "gen/scenario_gen.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"

namespace kp {
namespace {

TEST(Repetition, Figure2) {
  const RepetitionVector rv = compute_repetition_vector(figure2_graph());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 4, 6, 1}));
  EXPECT_EQ(rv.sum, 14);
}

TEST(Repetition, Figure1) {
  // i_b = 6, o_b = 7 => q = [7, 6].
  const RepetitionVector rv = compute_repetition_vector(figure1_buffer());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{7, 6}));
}

TEST(Repetition, SamplerateConverterClassicVector) {
  const RepetitionVector rv = compute_repetition_vector(samplerate_converter());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{147, 147, 98, 28, 32, 160}));
  EXPECT_EQ(rv.sum, 612);
}

TEST(Repetition, H263Decoder) {
  const RepetitionVector rv = compute_repetition_vector(h263_decoder());
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{1, 2376, 2376, 1}));
  EXPECT_EQ(rv.sum, 4754);  // the Table-1 maximum
}

TEST(Repetition, InconsistentGraphDetected) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  g.add_buffer("", a, b, 2, 3, 0);
  g.add_buffer("", a, b, 1, 1, 0);  // contradicts 2:3
  const RepetitionVector rv = compute_repetition_vector(g);
  EXPECT_FALSE(rv.consistent);
  EXPECT_FALSE(rv.failure_reason.empty());
}

TEST(Repetition, InconsistentCycleDetected) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const TaskId c = g.add_task("C", 1);
  g.add_buffer("", a, b, 2, 1, 0);   // q_b = 2 q_a
  g.add_buffer("", b, c, 2, 1, 0);   // q_c = 4 q_a
  g.add_buffer("", c, a, 2, 1, 0);   // forces q_a = 8 q_a: inconsistent
  EXPECT_FALSE(compute_repetition_vector(g).consistent);
}

TEST(Repetition, EmptyGraph) {
  const RepetitionVector rv = compute_repetition_vector(CsdfGraph{});
  EXPECT_TRUE(rv.consistent);
  EXPECT_TRUE(rv.q.empty());
}

TEST(Repetition, SingleTaskNoBuffers) {
  CsdfGraph g;
  g.add_task("A", 1);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{1}));
}

TEST(Repetition, DisconnectedComponentsNormalizedIndependently) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const TaskId c = g.add_task("C", 1);
  const TaskId d = g.add_task("D", 1);
  g.add_buffer("", a, b, 2, 3, 0);  // q = [3, 2]
  g.add_buffer("", c, d, 5, 1, 0);  // q = [1, 5]
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 2, 1, 5}));
}

TEST(Repetition, SelfLoopAlwaysBalanced) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", std::vector<i64>{1, 1});
  g.add_buffer("", a, a, std::vector<i64>{1, 1}, std::vector<i64>{1, 1}, 1);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{1}));
}

TEST(Repetition, UnbalancedSelfLoopFailsVerification) {
  // The rate propagation skips self-loops (they constrain no other task);
  // the pass over every buffer must still reject one with i_b != o_b.
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", std::vector<i64>{1, 1});
  g.add_buffer("ab", a, b, std::vector<i64>{2}, std::vector<i64>{1, 1}, 0);
  g.add_buffer("ba", b, a, std::vector<i64>{1, 1}, std::vector<i64>{2}, 2);
  g.add_buffer("b-self", b, b, std::vector<i64>{1, 1}, std::vector<i64>{2, 1}, 3);
  const RepetitionVector rv = compute_repetition_vector(g);
  EXPECT_FALSE(rv.consistent);
  EXPECT_NE(rv.failure_reason.find("'b-self' violates"), std::string::npos) << rv.failure_reason;

  // The same self-loop alone, on a task with no other buffer.
  CsdfGraph lone;
  const TaskId t = lone.add_task("T", 1);
  lone.add_buffer("t-self", t, t, 2, 1, 1);
  EXPECT_FALSE(compute_repetition_vector(lone).consistent);
}

/// Every graph family src/gen/ produces, a few seeds/sizes each.
std::vector<NamedGraph> every_generator() {
  std::vector<NamedGraph> all = make_actual_dsp();
  for (auto&& part : {make_mimic_dsp(20160605, 10), make_lg_hsdf(20160606, 8),
                      make_lg_transient(20160607, 8), make_csdf_applications(),
                      make_csdf_synthetic()}) {
    all.insert(all.end(), part.begin(), part.end());
  }
  for (const NamedGraph& ng : make_csdf_applications()) {
    all.push_back({ng.name + " (fixed buffers)", with_buffer_capacities(ng.graph)});
  }
  all.push_back({"gcd_ring(12)", gcd_ring(12)});
  all.push_back({"figure1_buffer", figure1_buffer()});
  all.push_back({"figure2", figure2_graph()});
  all.push_back({"figure2_deadlocked", figure2_deadlocked()});
  all.push_back({"tiny_pipeline", tiny_pipeline()});
  all.push_back({"no_onep_schedule", no_onep_schedule_graph()});
  Rng rng(2016);
  for (int i = 0; i < 10; ++i) {
    all.push_back({"random_csdf " + std::to_string(i), random_csdf(rng)});
    all.push_back({"random_sdf " + std::to_string(i), random_sdf(rng)});
    all.push_back({"random_scenario " + std::to_string(i), random_scenario(rng).base});
  }
  return all;
}

TEST(Repetition, SerializationLeavesQUnchanged) {
  for (const NamedGraph& ng : every_generator()) {
    const RepetitionVector plain = compute_repetition_vector(ng.graph);
    const RepetitionVector serialized =
        compute_repetition_vector(add_serialization_buffers(ng.graph));
    EXPECT_EQ(serialized.consistent, plain.consistent) << ng.name;
    EXPECT_EQ(serialized.q, plain.q) << ng.name;
    EXPECT_TRUE(serialized.sum == plain.sum) << ng.name;
  }
}

TEST(Repetition, CsdfUsesTotalRates) {
  // CSDF consistency uses the per-iteration totals i_b, o_b.
  CsdfGraph g;
  const TaskId a = g.add_task("A", std::vector<i64>{1, 1, 1});
  const TaskId b = g.add_task("B", std::vector<i64>{1, 1});
  g.add_buffer("", a, b, std::vector<i64>{2, 3, 1}, std::vector<i64>{2, 5}, 0);
  const RepetitionVector rv = compute_repetition_vector(g);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{7, 6}));
}

// Property sweep: generated graphs are consistent, the vector balances
// every buffer, and it is minimal (component-wise gcd is 1).
class RepetitionProperty : public ::testing::TestWithParam<u64> {};

TEST_P(RepetitionProperty, BalanceAndMinimality) {
  Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const CsdfGraph g = random_csdf(rng);
    const RepetitionVector rv = compute_repetition_vector(g);
    ASSERT_TRUE(rv.consistent);
    for (const Buffer& b : g.buffers()) {
      EXPECT_EQ(checked_mul(i128{rv.of(b.src)}, i128{b.total_prod}),
                checked_mul(i128{rv.of(b.dst)}, i128{b.total_cons}))
          << "buffer " << b.name;
    }
    for (const i64 q : rv.q) EXPECT_GE(q, 1);
    // Connected generator output: whole-vector gcd must be 1 (minimality).
    i64 gcd_all = 0;
    for (const i64 q : rv.q) gcd_all = gcd64(gcd_all, q);
    EXPECT_EQ(gcd_all, 1);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RepetitionProperty, ::testing::Values(21, 22, 23, 24, 25));

}  // namespace
}  // namespace kp
