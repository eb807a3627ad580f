// Tests for model transformations: serialization self-buffers (against an
// add_buffer construction, and leaving the shared original untouched),
// buffer capacities (reverse arcs) and the §3.2 phase duplication.
#include <gtest/gtest.h>

#include "core/constraints.hpp"
#include "gen/categories.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"

namespace kp {
namespace {

TEST(Serialize, AddsOneSelfBufferPerTask) {
  const CsdfGraph g = figure2_graph();
  const CsdfGraph s = add_serialization_buffers(g);
  EXPECT_EQ(s.task_count(), g.task_count());
  EXPECT_EQ(s.buffer_count(), g.buffer_count() + g.task_count());
  for (TaskId t = 0; t < s.task_count(); ++t) {
    int self = 0;
    for (const BufferId b : s.out_buffers(t)) self += s.buffer(b).is_self_loop();
    EXPECT_EQ(self, 1) << "task " << s.task(t).name;
  }
}

TEST(Serialize, SelfBufferShape) {
  const CsdfGraph s = add_serialization_buffers(figure2_graph());
  const TaskId b = *s.find_task("B");
  for (const BufferId id : s.out_buffers(b)) {
    const Buffer& buf = s.buffer(id);
    if (!buf.is_self_loop()) continue;
    EXPECT_EQ(buf.prod, (std::vector<i64>{1, 1, 1}));
    EXPECT_EQ(buf.cons, (std::vector<i64>{1, 1, 1}));
    EXPECT_EQ(buf.initial_tokens, 1);
  }
}

TEST(Serialize, Idempotent) {
  const CsdfGraph once = add_serialization_buffers(figure2_graph());
  const CsdfGraph twice = add_serialization_buffers(once);
  EXPECT_EQ(twice.buffer_count(), once.buffer_count());
}

TEST(Serialize, PreservesConsistency) {
  const CsdfGraph s = add_serialization_buffers(figure2_graph());
  const RepetitionVector rv = compute_repetition_vector(s);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 4, 6, 1}));
}

/// Flattened graph content (core/constraints.hpp). It leaves names out, and
/// the serialization buffers are known by name, so buffer_names compares
/// those.
std::vector<i64> content_words(const CsdfGraph& g) {
  std::vector<i64> words;
  append_content_snapshot(g, words);
  return words;
}

std::vector<std::string> buffer_names(const CsdfGraph& g) {
  std::vector<std::string> names;
  for (const Buffer& b : g.buffers()) names.push_back(b.name);
  return names;
}

/// add_serialization_buffers must give exactly the graph add_buffer builds
/// by hand on a copy — every original buffer at its id, then one "serial:"
/// buffer per task without a self-loop, in task order — and leave its
/// argument, whose storage both copies share until their first add,
/// unchanged.
void expect_serialization_matches_add_buffer(const CsdfGraph& g, const std::string& what) {
  const std::vector<i64> before = content_words(g);
  const CsdfGraph serialized = add_serialization_buffers(g);
  CsdfGraph by_hand = g;
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (g.has_self_loop(t)) continue;
    const auto phi = static_cast<std::size_t>(g.phases(t));
    (void)by_hand.add_buffer("serial:" + g.task(t).name, t, t, std::vector<i64>(phi, 1),
                             std::vector<i64>(phi, 1), 1);
  }
  EXPECT_EQ(content_words(serialized), content_words(by_hand)) << what;
  EXPECT_EQ(buffer_names(serialized), buffer_names(by_hand)) << what;
  EXPECT_EQ(content_words(g), before) << what;
  EXPECT_EQ(serialized.name(), g.name()) << what;
  ASSERT_GE(serialized.buffer_count(), g.buffer_count()) << what;
  for (BufferId b = 0; b < g.buffer_count(); ++b) {
    const Buffer& orig = g.buffer(b);
    const Buffer& after = serialized.buffer(b);
    EXPECT_EQ(after.name, orig.name) << what << " buffer " << b;
    EXPECT_EQ(after.src, orig.src) << what << " buffer " << b;
    EXPECT_EQ(after.dst, orig.dst) << what << " buffer " << b;
    EXPECT_EQ(after.prod, orig.prod) << what << " buffer " << b;
    EXPECT_EQ(after.cons, orig.cons) << what << " buffer " << b;
    EXPECT_EQ(after.initial_tokens, orig.initial_tokens) << what << " buffer " << b;
  }
  for (TaskId t = 0; t < serialized.task_count(); ++t) {
    EXPECT_TRUE(serialized.has_self_loop(t)) << what << " task " << serialized.task(t).name;
  }
}

TEST(Serialize, MatchesAddBufferOnTable1Generators) {
  std::vector<NamedGraph> graphs = make_actual_dsp();
  for (auto&& part : {make_mimic_dsp(20160605, 25), make_lg_hsdf(20160606, 15),
                      make_lg_transient(20160607, 15)}) {
    graphs.insert(graphs.end(), part.begin(), part.end());
  }
  for (const NamedGraph& ng : graphs) expect_serialization_matches_add_buffer(ng.graph, ng.name);
}

TEST(Serialize, SkipsTasksThatHaveASelfLoop) {
  CsdfGraph g("partly-serialized");
  const TaskId a = g.add_task("A", std::vector<i64>{1, 2});
  const TaskId b = g.add_task("B", 3);
  const TaskId c = g.add_task("C", std::vector<i64>{1, 1, 1});
  g.add_buffer("ab", a, b, std::vector<i64>{1, 1}, std::vector<i64>{2}, 0);
  g.add_buffer("a-self", a, a, std::vector<i64>{1, 1}, std::vector<i64>{1, 1}, 2);
  g.add_buffer("bc", b, c, std::vector<i64>{3}, std::vector<i64>{1, 1, 1}, 0);
  g.add_buffer("ca", c, a, std::vector<i64>{1, 0, 1}, std::vector<i64>{1, 1}, 4);
  g.add_buffer("c-self", c, c, std::vector<i64>{1, 1, 1}, std::vector<i64>{1, 1, 1}, 1);
  expect_serialization_matches_add_buffer(g, g.name());

  const CsdfGraph s = add_serialization_buffers(g);
  ASSERT_EQ(s.buffer_count(), g.buffer_count() + 1);  // only B lacked one
  const Buffer& added = s.buffer(g.buffer_count());
  EXPECT_EQ(added.name, "serial:B");
  EXPECT_EQ(added.src, b);
  EXPECT_EQ(added.dst, b);
  EXPECT_EQ(added.initial_tokens, 1);
  for (const TaskId t : {a, b, c}) {
    int self = 0;
    for (const BufferId id : s.out_buffers(t)) self += s.buffer(id).is_self_loop();
    EXPECT_EQ(self, 1) << "task " << s.task(t).name;
  }

  // A second pass finds a self-loop on every task and adds nothing.
  EXPECT_EQ(content_words(add_serialization_buffers(s)), content_words(s));

  // gcd_ring serializes its high-rate tasks itself.
  expect_serialization_matches_add_buffer(gcd_ring(6), "gcd_ring(6)");
}

TEST(Capacities, AddsReverseArcs) {
  const CsdfGraph g = figure2_graph();
  std::vector<i64> caps(static_cast<std::size_t>(g.buffer_count()), 100);
  const CsdfGraph bounded = apply_buffer_capacities(g, caps);
  EXPECT_EQ(bounded.buffer_count(), 2 * g.buffer_count());
  // Reverse arc of "A->B" runs B->A with swapped rate vectors and
  // marking cap - M0.
  bool found = false;
  for (const Buffer& b : bounded.buffers()) {
    if (b.name != "space:A->B") continue;
    found = true;
    EXPECT_EQ(bounded.task(b.src).name, "B");
    EXPECT_EQ(bounded.task(b.dst).name, "A");
    EXPECT_EQ(b.prod, (std::vector<i64>{1, 1, 4}));
    EXPECT_EQ(b.cons, (std::vector<i64>{3, 5}));
    EXPECT_EQ(b.initial_tokens, 100);
  }
  EXPECT_TRUE(found);
}

TEST(Capacities, PreservesConsistency) {
  const CsdfGraph g = figure2_graph();
  const CsdfGraph bounded = apply_default_buffer_capacities(g);
  const RepetitionVector rv = compute_repetition_vector(bounded);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 4, 6, 1}));
}

TEST(Capacities, NegativeMeansUnbounded) {
  const CsdfGraph g = figure2_graph();
  std::vector<i64> caps(static_cast<std::size_t>(g.buffer_count()), -1);
  const CsdfGraph bounded = apply_buffer_capacities(g, caps);
  EXPECT_EQ(bounded.buffer_count(), g.buffer_count());
}

TEST(Capacities, BelowMarkingThrows) {
  const CsdfGraph g = figure2_graph();  // buffer "A->D" holds 13 tokens
  std::vector<i64> caps(static_cast<std::size_t>(g.buffer_count()), 5);
  EXPECT_THROW((void)apply_buffer_capacities(g, caps), ModelError);
}

TEST(Capacities, ArityChecked) {
  EXPECT_THROW((void)apply_buffer_capacities(figure2_graph(), {1, 2}), ModelError);
}

TEST(Capacities, SelfLoopsNotReversed) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  g.add_buffer("self", a, a, 1, 1, 1);
  std::vector<i64> caps{10};
  const CsdfGraph bounded = apply_buffer_capacities(g, caps);
  EXPECT_EQ(bounded.buffer_count(), 1);
}

TEST(ExpandPhases, Figure2K2111) {
  const CsdfGraph g = figure2_graph();
  const CsdfGraph x = expand_phases(g, {2, 1, 1, 1});
  EXPECT_EQ(x.phases(*x.find_task("A")), 4);
  EXPECT_EQ(x.phases(*x.find_task("B")), 3);
  const Buffer& ab = x.buffer(0);
  EXPECT_EQ(ab.prod, (std::vector<i64>{3, 5, 3, 5}));     // [in]^2
  EXPECT_EQ(ab.cons, (std::vector<i64>{1, 1, 4}));        // unchanged
  EXPECT_EQ(ab.initial_tokens, 0);
  EXPECT_EQ(x.task(*x.find_task("A")).durations, (std::vector<i64>{1, 1, 1, 1}));
}

TEST(ExpandPhases, RepetitionVectorDividesByK) {
  // q̃_t = q_t · lcm(K)/K_t — for K = [2,1,1,1] on q = [3,4,6,1]:
  // q̃ = [3, 8, 12, 2].
  const CsdfGraph x = expand_phases(figure2_graph(), {2, 1, 1, 1});
  const RepetitionVector rv = compute_repetition_vector(x);
  ASSERT_TRUE(rv.consistent);
  EXPECT_EQ(rv.q, (std::vector<i64>{3, 8, 12, 2}));
}

TEST(ExpandPhases, IdentityForUnitK) {
  const CsdfGraph g = figure2_graph();
  const CsdfGraph x = expand_phases(g, {1, 1, 1, 1});
  EXPECT_EQ(x.total_phases(), g.total_phases());
  EXPECT_EQ(compute_repetition_vector(x).q, compute_repetition_vector(g).q);
}

TEST(ExpandPhases, Validation) {
  EXPECT_THROW((void)expand_phases(figure2_graph(), {1, 1}), ModelError);
  EXPECT_THROW((void)expand_phases(figure2_graph(), {0, 1, 1, 1}), ModelError);
}

// Property sweep: phase expansion keeps graphs consistent and scales total
// phases exactly.
class ExpandProperty : public ::testing::TestWithParam<u64> {};

TEST_P(ExpandProperty, ConsistencyPreserved) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const CsdfGraph g = random_csdf(rng);
    std::vector<i64> k(static_cast<std::size_t>(g.task_count()));
    for (auto& v : k) v = rng.uniform(1, 4);
    const CsdfGraph x = expand_phases(g, k);
    i64 expected_phases = 0;
    for (TaskId t = 0; t < g.task_count(); ++t) {
      expected_phases += k[static_cast<std::size_t>(t)] * g.phases(t);
    }
    EXPECT_EQ(x.total_phases(), expected_phases);
    EXPECT_TRUE(compute_repetition_vector(x).consistent);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExpandProperty, ::testing::Values(31, 32, 33));

}  // namespace
}  // namespace kp
