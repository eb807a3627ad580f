// Shared fixtures for the serial-rule identity tests (test_constraints,
// test_incremental, test_service): the constraint builder's serial rule
// must give, arc for arc, the graph built over add_serialization_buffers(g).
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/constraints.hpp"
#include "gen/categories.hpp"
#include "gen/random_csdf.hpp"

namespace kp {

/// The 225 graphs of Table 1, as bench/bench_table1.cpp generates them.
inline std::vector<NamedGraph> table1_graphs() {
  std::vector<NamedGraph> graphs = make_actual_dsp();
  for (auto&& part : {make_mimic_dsp(20160605, 100), make_lg_hsdf(20160606, 60),
                      make_lg_transient(20160607, 60)}) {
    graphs.insert(graphs.end(), part.begin(), part.end());
  }
  return graphs;
}

/// A random live CSDFG where about a third of the tasks already carry a
/// self-loop (random per-phase rates, enough tokens for one iteration), so
/// the rule must skip exactly those tasks.
inline CsdfGraph random_csdf_with_self_loops(Rng& rng) {
  RandomCsdfOptions options;
  options.min_tasks = 2;
  options.max_tasks = 8;
  options.max_phases = 3;
  options.max_q = 8;
  CsdfGraph g = random_csdf(rng, options);
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (!rng.chance(1, 3)) continue;
    std::vector<i64> rates(static_cast<std::size_t>(g.phases(t)));
    i64 total = 0;
    for (i64& r : rates) total += r = rng.uniform(1, 3);
    (void)g.add_buffer("self", t, t, rates, rates, total + rng.uniform(0, 2));
  }
  return g;
}

/// Arc-for-arc identity: node maps, arc ids with endpoints and payloads,
/// and the CSR adjacency of every node.
inline void expect_same_constraint_graph(const ConstraintGraph& a, const ConstraintGraph& b,
                                         const std::string& context) {
  ASSERT_EQ(a.graph.node_count(), b.graph.node_count()) << context;
  ASSERT_EQ(a.graph.arc_count(), b.graph.arc_count()) << context;
  EXPECT_EQ(a.k, b.k) << context;
  EXPECT_EQ(a.task_first_node, b.task_first_node) << context;
  EXPECT_EQ(a.node_task, b.node_task) << context;
  EXPECT_EQ(a.node_phase, b.node_phase) << context;
  EXPECT_EQ(a.node_iter, b.node_iter) << context;
  for (std::int32_t e = 0; e < a.graph.arc_count(); ++e) {
    const auto& x = a.graph.graph().arc(e);
    const auto& y = b.graph.graph().arc(e);
    ASSERT_TRUE(x.src == y.src && x.dst == y.dst && a.graph.cost(e) == b.graph.cost(e) &&
                a.graph.time(e) == b.graph.time(e))
        << context << " arc " << e;
  }
  const Digraph& da = a.graph.graph();
  const Digraph& db = b.graph.graph();
  for (std::int32_t v = 0; v < a.graph.node_count(); ++v) {
    const auto ao = da.out_arcs(v);
    const auto bo = db.out_arcs(v);
    const auto ai = da.in_arcs(v);
    const auto bi = db.in_arcs(v);
    ASSERT_TRUE(std::equal(ao.begin(), ao.end(), bo.begin(), bo.end()) &&
                std::equal(ai.begin(), ai.end(), bi.begin(), bi.end()))
        << context << " node " << v;
  }
}

}  // namespace kp
