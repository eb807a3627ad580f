// Tests for the CSDF model (model/csdf.hpp): construction, validation,
// the paper's token-count formulas, and the copy-on-write storage (copies
// share, the first mutation detaches, a throwing mutator detaches nothing,
// copying allocates nothing, and concurrent copies of one graph are
// race-free — run this binary under -fsanitize=thread for the last).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "api/service.hpp"
#include "core/constraints.hpp"
#include "gen/categories.hpp"
#include "gen/paper_examples.hpp"
#include "model/csdf.hpp"
#include "model/transform.hpp"

namespace kp {
namespace {

TEST(Model, AddTaskBasics) {
  CsdfGraph g("t");
  const TaskId a = g.add_task("A", std::vector<i64>{1, 2});
  EXPECT_EQ(g.task_count(), 1);
  EXPECT_EQ(g.phases(a), 2);
  EXPECT_EQ(g.duration(a, 1), 1);
  EXPECT_EQ(g.duration(a, 2), 2);
  EXPECT_EQ(g.task(a).name, "A");
}

TEST(Model, TaskValidation) {
  CsdfGraph g;
  EXPECT_THROW((void)g.add_task("", std::vector<i64>{1}), ModelError);
  EXPECT_THROW((void)g.add_task("A", std::vector<i64>{}), ModelError);
  EXPECT_THROW((void)g.add_task("A", std::vector<i64>{-1}), ModelError);
  (void)g.add_task("A", std::vector<i64>{0});  // zero durations are legal
  EXPECT_THROW((void)g.add_task("A", std::vector<i64>{1}), ModelError);  // duplicate
}

TEST(Model, BufferValidation) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", std::vector<i64>{1, 1});
  const TaskId b = g.add_task("B", std::vector<i64>{1});
  // Wrong vector sizes.
  EXPECT_THROW((void)g.add_buffer("x", a, b, std::vector<i64>{1}, std::vector<i64>{1}, 0),
               ModelError);
  EXPECT_THROW((void)g.add_buffer("x", a, b, std::vector<i64>{1, 1}, std::vector<i64>{1, 1}, 0),
               ModelError);
  // Negative marking / rates.
  EXPECT_THROW((void)g.add_buffer("x", a, b, std::vector<i64>{1, 1}, std::vector<i64>{1}, -1),
               ModelError);
  EXPECT_THROW((void)g.add_buffer("x", a, b, std::vector<i64>{-1, 2}, std::vector<i64>{1}, 0),
               ModelError);
  // Zero totals.
  EXPECT_THROW((void)g.add_buffer("x", a, b, std::vector<i64>{0, 0}, std::vector<i64>{1}, 0),
               ModelError);
  EXPECT_THROW((void)g.add_buffer("x", a, b, std::vector<i64>{1, 1}, std::vector<i64>{0}, 0),
               ModelError);
  // Bad ids.
  EXPECT_THROW((void)g.add_buffer("x", a, 7, std::vector<i64>{1, 1}, std::vector<i64>{1}, 0),
               ModelError);
}

TEST(Model, BufferDerivedValues) {
  CsdfGraph g = figure1_buffer();  // in=[2,3,1], out=[2,5]
  const Buffer& b = g.buffer(0);
  EXPECT_EQ(b.total_prod, 6);
  EXPECT_EQ(b.total_cons, 7);
  EXPECT_EQ(b.cum_prod, (std::vector<i64>{0, 2, 5, 6}));
  EXPECT_EQ(b.cum_cons, (std::vector<i64>{0, 2, 7}));
}

TEST(Model, PaperFigure1TokenCounts) {
  // §3.1's worked example: <t'_2,1> can follow <t_1,2> because
  // M0 + Ia<t_1,2> - Oa<t'_2,1> = 0 + 8 - 7 >= 0.
  CsdfGraph g = figure1_buffer();
  EXPECT_EQ(g.produced_until(0, 1, 2), 8);  // Ia<t1,2> = 2 + 1*6
  EXPECT_EQ(g.consumed_until(0, 2, 1), 7);  // Oa<t'2,1> = 7
  EXPECT_GE(i128{0} + g.produced_until(0, 1, 2) - g.consumed_until(0, 2, 1), 0);
  // More samples of the cumulative formulas.
  EXPECT_EQ(g.produced_until(0, 3, 1), 6);
  EXPECT_EQ(g.produced_until(0, 2, 3), 17);  // 5 + 2*6
  EXPECT_EQ(g.consumed_until(0, 1, 4), 23);  // 2 + 3*7
}

TEST(Model, TokenCountPhaseBoundsChecked) {
  CsdfGraph g = figure1_buffer();
  EXPECT_THROW((void)g.produced_until(0, 0, 1), ModelError);
  EXPECT_THROW((void)g.produced_until(0, 4, 1), ModelError);
  EXPECT_THROW((void)g.consumed_until(0, 3, 1), ModelError);
}

TEST(Model, AutoGeneratedBufferNames) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  const TaskId b = g.add_task("B", 1);
  const BufferId id = g.add_buffer("", a, b, 1, 1, 0);
  EXPECT_EQ(g.buffer(id).name, "A->B#0");
}

TEST(Model, ScalarRateConvenience) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", std::vector<i64>{1, 1});
  const TaskId b = g.add_task("B", 1);
  const BufferId id = g.add_buffer("x", a, b, 3, 2, 5);
  EXPECT_EQ(g.buffer(id).prod, (std::vector<i64>{3, 3}));  // per phase
  EXPECT_EQ(g.buffer(id).cons, (std::vector<i64>{2}));
  EXPECT_EQ(g.buffer(id).initial_tokens, 5);
}

TEST(Model, InOutBufferLists) {
  CsdfGraph g = figure2_graph();
  const TaskId a = *g.find_task("A");
  const TaskId c = *g.find_task("C");
  EXPECT_EQ(g.out_buffers(a).size(), 2u);  // A->B, A->D
  EXPECT_EQ(g.in_buffers(a).size(), 1u);   // C->A
  EXPECT_EQ(g.in_buffers(c).size(), 2u);   // B->C, D->C
}

TEST(Model, SelfLoopAppearsInBothLists) {
  CsdfGraph g;
  const TaskId a = g.add_task("A", 1);
  g.add_buffer("self", a, a, 1, 1, 1);
  EXPECT_EQ(g.out_buffers(a).size(), 1u);
  EXPECT_EQ(g.in_buffers(a).size(), 1u);
  EXPECT_TRUE(g.buffer(0).is_self_loop());
}

TEST(Model, FindTask) {
  CsdfGraph g = figure2_graph();
  EXPECT_TRUE(g.find_task("A").has_value());
  EXPECT_FALSE(g.find_task("nope").has_value());
}

TEST(Model, SdfHsdfClassification) {
  CsdfGraph csdf = figure2_graph();
  EXPECT_FALSE(csdf.is_sdf());
  EXPECT_FALSE(csdf.is_hsdf());

  CsdfGraph sdf;
  const TaskId a = sdf.add_task("A", 1);
  const TaskId b = sdf.add_task("B", 2);
  sdf.add_buffer("", a, b, 2, 3, 0);
  EXPECT_TRUE(sdf.is_sdf());
  EXPECT_FALSE(sdf.is_hsdf());

  CsdfGraph hsdf;
  const TaskId x = hsdf.add_task("X", 1);
  const TaskId y = hsdf.add_task("Y", 2);
  hsdf.add_buffer("", x, y, 1, 1, 0);
  EXPECT_TRUE(hsdf.is_hsdf());
}

TEST(Model, TotalPhases) {
  CsdfGraph g = figure2_graph();
  EXPECT_EQ(g.total_phases(), 2 + 3 + 1 + 1);
}

TEST(Model, Figure2Shape) {
  CsdfGraph g = figure2_graph();
  EXPECT_EQ(g.task_count(), 4);
  EXPECT_EQ(g.buffer_count(), 5);
}


// ---- copy-on-write storage --------------------------------------------------

/// What a graph reads as: its exact content words and its name.
struct Snapshot {
  std::vector<i64> words;
  std::string name;
  bool operator==(const Snapshot&) const = default;
};

Snapshot snapshot(const CsdfGraph& g) {
  Snapshot s;
  append_content_snapshot(g, s.words);
  s.name = g.name();
  return s;
}

bool shares_storage(const CsdfGraph& a, const CsdfGraph& b) {
  return &a.tasks() == &b.tasks();
}

/// One successful edit per public mutator, each changing what the graph
/// reads as.
std::vector<std::pair<std::string, std::function<void(CsdfGraph&)>>> mutators() {
  return {
      {"add_task", [](CsdfGraph& g) { (void)g.add_task("Z", 4); }},
      {"add_buffer", [](CsdfGraph& g) { (void)g.add_buffer("z", 2, 3, 1, 1, 0); }},
      {"set_name", [](CsdfGraph& g) { g.set_name("renamed"); }},
      {"set_durations",
       [](CsdfGraph& g) {
         g.set_durations(0, std::vector<i64>(static_cast<std::size_t>(g.phases(0)), 9));
       }},
      {"set_initial_tokens",
       [](CsdfGraph& g) { g.set_initial_tokens(0, g.buffer(0).initial_tokens + 5); }},
      {"set_rates",
       [](CsdfGraph& g) {
         std::vector<i64> prod = g.buffer(0).prod;
         std::vector<i64> cons = g.buffer(0).cons;
         for (i64& r : prod) r += 1;
         for (i64& r : cons) r += 2;
         g.set_rates(0, prod, cons);
       }},
  };
}

/// add_serialization_buffers' result built in place through add_buffer: a
/// unit one-token self-buffer on every task without a self-loop, several
/// growths of the buffer and adjacency vectors of one graph that may share
/// its storage.
void add_unit_self_loops(CsdfGraph& g) {
  for (TaskId t = 0; t < g.task_count(); ++t) {
    if (g.has_self_loop(t)) continue;
    const auto phi = static_cast<std::size_t>(g.phases(t));
    (void)g.add_buffer("serial:" + g.task(t).name, t, t, std::vector<i64>(phi, 1),
                       std::vector<i64>(phi, 1), 1);
  }
}

TEST(CopyOnWrite, CopiesShareUntilOneIsMutated) {
  const CsdfGraph original = figure2_graph();
  CsdfGraph copy = original;
  EXPECT_TRUE(shares_storage(copy, original));
  CsdfGraph assigned;
  assigned = copy;
  EXPECT_TRUE(shares_storage(assigned, original));
  copy.set_name("detached");
  EXPECT_FALSE(shares_storage(copy, original));
  EXPECT_TRUE(shares_storage(assigned, original));
  // The sole owner of its storage mutates in place.
  const std::vector<Task>* storage = &copy.tasks();
  copy.set_initial_tokens(0, 7);
  EXPECT_EQ(&copy.tasks(), storage);
}

TEST(CopyOnWrite, StorageIdIsSharedByCopiesAndChangesWhenAMutatorDetaches) {
  const CsdfGraph original = figure2_graph();
  ASSERT_NE(original.storage_id(), nullptr);
  for (const auto& [what, mutate] : mutators()) {
    CsdfGraph copy = original;
    EXPECT_EQ(copy.storage_id(), original.storage_id()) << what;
    mutate(copy);
    EXPECT_NE(copy.storage_id(), original.storage_id()) << what;
    EXPECT_NE(copy.storage_id(), nullptr) << what;
  }
  // A graph without storage has no id, so two empty graphs never look shared;
  // two separately built graphs never share one either.
  const CsdfGraph empty;
  EXPECT_EQ(empty.storage_id(), nullptr);
  CsdfGraph moved = original;
  const CsdfGraph taken = std::move(moved);
  EXPECT_EQ(moved.storage_id(), nullptr);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(taken.storage_id(), original.storage_id());
  EXPECT_NE(figure2_graph().storage_id(), original.storage_id());
}

TEST(CopyOnWrite, EachMutatorOnACopyLeavesTheOriginalUnchanged) {
  for (const auto& [what, mutate] : mutators()) {
    const CsdfGraph original = figure2_graph();
    const Snapshot before = snapshot(original);
    CsdfGraph copy = original;
    mutate(copy);
    EXPECT_EQ(snapshot(original), before) << what;
    EXPECT_NE(snapshot(copy), before) << what;
  }
}

TEST(CopyOnWrite, EachMutatorOnTheOriginalLeavesACopyUnchanged) {
  for (const auto& [what, mutate] : mutators()) {
    CsdfGraph original = figure2_graph();
    const CsdfGraph copy = original;
    const Snapshot before = snapshot(copy);
    mutate(original);
    EXPECT_EQ(snapshot(copy), before) << what;
    EXPECT_NE(snapshot(original), before) << what;
  }
}

TEST(CopyOnWrite, TransformsOnACopyLeaveTheOriginalUnchanged) {
  const CsdfGraph original = figure2_graph();
  const Snapshot before = snapshot(original);

  const CsdfGraph serialized = add_serialization_buffers(original);
  EXPECT_EQ(serialized.buffer_count(), original.buffer_count() + original.task_count());
  EXPECT_EQ(snapshot(original), before);

  CsdfGraph grown = original;
  add_unit_self_loops(grown);
  EXPECT_EQ(snapshot(grown), snapshot(serialized));
  EXPECT_EQ(snapshot(original), before);

  GraphDelta delta;
  delta.exec_times.push_back({1, std::vector<i64>(static_cast<std::size_t>(original.phases(1)), 11)});
  delta.markings.push_back({2, original.buffer(2).initial_tokens + 3});
  delta.rates.push_back({0, std::vector<i64>(original.buffer(0).prod.size(), 2),
                         std::vector<i64>(original.buffer(0).cons.size(), 3)});
  CsdfGraph variant = original;
  apply_delta(variant, delta);
  EXPECT_NE(snapshot(variant), before);
  EXPECT_EQ(snapshot(original), before);
  revert_delta(variant, delta, original);
  EXPECT_EQ(snapshot(variant), before);
  EXPECT_EQ(snapshot(original), before);

  const CsdfGraph copy = original;
  const CsdfGraph bounded =
      apply_buffer_capacities(copy, std::vector<i64>(static_cast<std::size_t>(copy.buffer_count()), 40));
  EXPECT_GT(bounded.buffer_count(), copy.buffer_count());
  EXPECT_EQ(snapshot(copy), before);
  EXPECT_EQ(snapshot(original), before);
}

TEST(CopyOnWrite, TransformsOnTheOriginalLeaveACopyUnchanged) {
  GraphDelta delta;
  delta.exec_times.push_back({0, std::vector<i64>(2, 5)});
  delta.markings.push_back({1, 9});

  CsdfGraph original = figure2_graph();
  const CsdfGraph copy = original;
  const Snapshot before = snapshot(copy);
  add_unit_self_loops(original);
  apply_delta(original, delta);
  EXPECT_EQ(snapshot(copy), before);
  EXPECT_NE(snapshot(original), before);
}

TEST(CopyOnWrite, SettersAcceptSpansOfTheGraphsOwnSharedStorage) {
  // The span arguments point into the block the setter detaches from; the
  // setter keeps it alive until it returns.
  CsdfGraph g = figure2_graph();
  const Snapshot before = snapshot(g);
  const CsdfGraph other = g;
  g.set_durations(0, g.task(0).durations);
  EXPECT_EQ(snapshot(g), before);
  CsdfGraph h = other;
  h.set_rates(1, h.buffer(1).prod, h.buffer(1).cons);
  EXPECT_EQ(snapshot(h), before);
  EXPECT_FALSE(shares_storage(g, other));
  EXPECT_FALSE(shares_storage(h, other));
}

TEST(CopyOnWrite, ThrowingMutatorOnASharedCopyLeavesBothUnchanged) {
  const std::vector<std::pair<std::string, std::function<void(CsdfGraph&)>>> bad = {
      {"add_task empty name", [](CsdfGraph& g) { (void)g.add_task("", 1); }},
      {"add_task duplicate", [](CsdfGraph& g) { (void)g.add_task("A", 1); }},
      {"add_buffer bad id", [](CsdfGraph& g) { (void)g.add_buffer("z", 0, 17, 1, 1, 0); }},
      {"add_buffer bad arity",
       [](CsdfGraph& g) {
         (void)g.add_buffer("z", 2, 3, std::vector<i64>{1, 1}, std::vector<i64>{1}, 0);
       }},
      {"set_durations negative",
       [](CsdfGraph& g) {
         g.set_durations(0, std::vector<i64>(static_cast<std::size_t>(g.phases(0)), -1));
       }},
      {"set_initial_tokens negative", [](CsdfGraph& g) { g.set_initial_tokens(0, -1); }},
      {"set_rates zero total",
       [](CsdfGraph& g) {
         g.set_rates(0, std::vector<i64>(g.buffer(0).prod.size(), 0), g.buffer(0).cons);
       }},
  };
  for (const auto& [what, mutate] : bad) {
    const CsdfGraph original = figure2_graph();
    const Snapshot before = snapshot(original);
    CsdfGraph copy = original;
    EXPECT_THROW(mutate(copy), ModelError) << what;
    EXPECT_EQ(snapshot(copy), before) << what;
    EXPECT_EQ(snapshot(original), before) << what;
    // Validation runs before the detach: a rejected edit copies nothing.
    EXPECT_TRUE(shares_storage(copy, original)) << what;
  }
}

TEST(CopyOnWrite, MovedFromGraphIsTheEmptyGraph) {
  CsdfGraph source = figure2_graph();
  const Snapshot full = snapshot(source);
  CsdfGraph target = std::move(source);
  EXPECT_EQ(snapshot(target), full);
  const Snapshot empty = snapshot(CsdfGraph{});
  EXPECT_EQ(empty.name, "csdf");
  EXPECT_EQ(snapshot(source), empty);  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(source.task_count(), 0);
  EXPECT_EQ(source.buffer_count(), 0);
  EXPECT_TRUE(source.tasks().empty());
  EXPECT_TRUE(source.buffers().empty());
  EXPECT_EQ(source.find_task("A"), std::nullopt);
  EXPECT_THROW((void)source.task(0), ModelError);
  EXPECT_EQ(source.total_phases(), 0);

  CsdfGraph assigned = figure1_buffer();
  assigned = std::move(target);
  EXPECT_EQ(snapshot(assigned), full);
  EXPECT_EQ(snapshot(target), empty);  // NOLINT(bugprone-use-after-move)

  // A moved-from graph is a valid empty graph: it can be built up again.
  const TaskId a = source.add_task("A", 2);
  EXPECT_EQ(source.task_count(), 1);
  EXPECT_EQ(source.duration(a, 1), 2);
  EXPECT_EQ(source.name(), "csdf");
}

TEST(CopyOnWrite, CopyingAndBuildingRequestsAllocateNothing) {
  const CsdfGraph g = figure2_graph();
  const AnalysisRequest prototype{.graph = g};
  const std::uint64_t before = g_alloc_count.load();
  {
    const CsdfGraph empty;
    CsdfGraph copy = g;
    CsdfGraph assigned;
    assigned = copy;
    CsdfGraph moved = std::move(copy);
    const AnalysisRequest request{.graph = g};
    AnalysisRequest assigned_request;
    assigned_request.graph = g;
    const AnalysisRequest copied_request = prototype;
    std::vector<AnalysisRequest> requests(3);
    for (AnalysisRequest& r : requests) r.graph = moved;
  }
  // The vector of requests above is the one allocation in the scope.
  EXPECT_EQ(g_alloc_count.load() - before, 1u);
}

TEST(CopyOnWrite, ConcurrentCopiesOfOneSharedGraphAreRaceFree) {
  // A Table-1 application graph whose solve takes a K-growth round, shared
  // by every thread.
  const std::vector<NamedGraph> table1 = make_actual_dsp();
  const auto mp3 = std::find_if(table1.begin(), table1.end(),
                                [](const NamedGraph& ng) { return ng.name == "mp3playback"; });
  ASSERT_NE(mp3, table1.end());
  const CsdfGraph original = mp3->graph;
  const Snapshot before = snapshot(original);
  const Analysis reference = analyze_throughput(original, Method::KIter);
  ASSERT_EQ(reference.outcome, Outcome::Value);

  std::atomic<int> running{4};
  std::atomic<int> wrong{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < 500; ++i) {
        CsdfGraph copy = original;
        add_unit_self_loops(copy);
        const Analysis a = analyze_throughput(copy, Method::KIter);
        if (a.period != reference.period || a.detail != reference.detail) ++wrong;
      }
      --running;
    });
  }
  int reads = 0;
  while (running.load() > 0 || reads == 0) {
    if (snapshot(original) != before || original.buffer_count() != mp3->graph.buffer_count()) {
      ++wrong;
    }
    ++reads;
    std::this_thread::yield();
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(wrong.load(), 0);
  EXPECT_EQ(snapshot(original), before);
}

TEST(CopyOnWrite, LastOwnerOnAnotherThreadHandsTheStorageOver) {
  // The other owner reads and then drops its reference on its own thread;
  // the survivor's next mutation may then write the block in place. Under
  // ThreadSanitizer this checks that the uniqueness test synchronizes with
  // the other thread's release.
  for (int round = 0; round < 100; ++round) {
    CsdfGraph survivor = figure2_graph();
    CsdfGraph other = survivor;
    std::thread reader([g = std::move(other)]() mutable {
      std::vector<i64> words;
      append_content_snapshot(g, words);
      g = CsdfGraph{};
    });
    survivor.set_initial_tokens(0, round);
    survivor.set_durations(3, std::vector<i64>{static_cast<i64>(round)});
    reader.join();
    survivor.set_initial_tokens(1, round);
    EXPECT_EQ(survivor.buffer(0).initial_tokens, round);
    EXPECT_EQ(survivor.buffer(1).initial_tokens, round);
  }
}

}  // namespace
}  // namespace kp
