// Tests for the batch/async ThroughputService (api/service.hpp) and the
// cooperative deadline/cancellation plumbing underneath it:
//
//   * analyze_batch is deterministic: 1, 2 and 8 worker threads return
//     byte-identical outcome/period/K sequences, equal to sequential
//     analyze_throughput, on a 200-graph random sweep that mixes Value,
//     Deadlock, Unbounded and (deterministic) Budget requests — all served
//     through long-lived per-worker workspaces;
//   * submit()/wait() returns the same results asynchronously, matching
//     analyze_batch and analyze bit-for-bit on Table-1 graphs (critical
//     cycles through the serialization self-loops included), and shares
//     their result-cache entries;
//   * K-Iter's serial rule is the graph edit: on every Table-1 graph and
//     the quick Table-2 rows, analyze(g) equals analyze of
//     add_serialization_buffers(g) with serialize_tasks off, field for
//     field;
//   * a CancelToken fired mid-run (from inside the poll chain, so the test
//     is deterministic) stops K-Iter with Outcome::Budget and does not
//     disturb the other requests of the batch;
//   * a zero deadline returns Budget without running a full round;
//   * the ConstraintPoll aborts constraint generation mid-round;
//   * method_from_name is the inverse of method_name;
//   * requests share their graph's storage with the caller (copy-on-write):
//     a 2400-request batch over 240 shared graphs is bit-identical to the
//     same batch over detached copies, and a caller mutating its graph
//     after submit() does not change that ticket's result;
//   * a fresh result-cache key costs one allocation and keeps its words;
//   * the K-Iter detail strings are pinned byte for byte.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "alloc_hook.hpp"
#include "api/service.hpp"
#include "core/constraints.hpp"
#include "gen/categories.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"
#include "model/repetition.hpp"
#include "model/transform.hpp"
#include "serial_rule.hpp"
#include "util/hash.hpp"

namespace kp {
namespace {

// ---- method_from_name -------------------------------------------------------

TEST(MethodFromName, InvertsMethodName) {
  for (const Method m : {Method::KIter, Method::Periodic, Method::SymbolicExecution,
                         Method::Expansion}) {
    const auto parsed = method_from_name(method_name(m));
    ASSERT_TRUE(parsed.has_value()) << method_name(m);
    EXPECT_EQ(*parsed, m);
  }
}

TEST(MethodFromName, AcceptsCommonAliases) {
  EXPECT_EQ(method_from_name("kiter"), Method::KIter);
  EXPECT_EQ(method_from_name("K-ITER"), Method::KIter);
  EXPECT_EQ(method_from_name("periodic"), Method::Periodic);
  EXPECT_EQ(method_from_name("1-periodic"), Method::Periodic);
  EXPECT_EQ(method_from_name("symbolic"), Method::SymbolicExecution);
  EXPECT_EQ(method_from_name("sim"), Method::SymbolicExecution);
  EXPECT_EQ(method_from_name("expansion"), Method::Expansion);
  EXPECT_EQ(method_from_name("hsdf"), Method::Expansion);
}

TEST(MethodFromName, RejectsUnknown) {
  EXPECT_FALSE(method_from_name("").has_value());
  EXPECT_FALSE(method_from_name("montecarlo").has_value());
  EXPECT_FALSE(method_from_name("k iter extra").has_value());
}

// ---- batch determinism ------------------------------------------------------

/// The 200-request sweep of the acceptance criteria: mostly random live
/// CSDFGs, with deterministic Deadlock / Unbounded / Budget requests mixed
/// in at fixed positions.
std::vector<AnalysisRequest> make_sweep_requests(int count) {
  Rng rng(20260729);
  RandomCsdfOptions gen;
  gen.min_tasks = 2;
  gen.max_tasks = 6;
  gen.max_phases = 2;
  gen.max_q = 4;

  std::vector<AnalysisRequest> requests;
  requests.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    AnalysisRequest req;
    req.method = Method::KIter;
    if (i % 17 == 5) {
      req.graph = figure2_deadlocked();  // -> Outcome::Deadlock
    } else if (i % 17 == 11) {
      // Acyclic pipeline without serialization -> Outcome::Unbounded.
      CsdfGraph g;
      const TaskId a = g.add_task("a", 3);
      const TaskId b = g.add_task("b", 5);
      g.add_buffer("", a, b, 1, 1, 0);
      req.graph = std::move(g);
      req.options.serialize_tasks = false;
    } else if (i % 17 == 14) {
      // A size budget that blocks even round 1 -> deterministic Budget.
      req.graph = figure2_graph();
      req.options.kiter.max_constraint_pairs = 10;
    } else {
      req.graph = random_csdf(rng, gen);
    }
    requests.push_back(std::move(req));
  }
  return requests;
}

/// The determinism contract: everything except the timing/worker metadata.
void expect_same_analysis(const Analysis& a, const Analysis& b, int index) {
  EXPECT_EQ(a.outcome, b.outcome) << "request " << index;
  EXPECT_EQ(a.quality, b.quality) << "request " << index;
  EXPECT_EQ(a.period, b.period) << "request " << index;
  EXPECT_EQ(a.throughput, b.throughput) << "request " << index;
  EXPECT_EQ(a.detail, b.detail) << "request " << index;  // rounds= + final K
}

TEST(ThroughputService, BatchMatchesSequentialAcrossThreadCounts) {
  const std::vector<AnalysisRequest> requests = make_sweep_requests(200);

  // Sequential reference through the one-shot wrapper (fresh workspace per
  // call — the strictest comparison against warm per-worker workspaces).
  std::vector<Analysis> sequential;
  sequential.reserve(requests.size());
  for (const AnalysisRequest& req : requests) {
    sequential.push_back(analyze_throughput(req.graph, req.method, req.options));
  }
  int value_count = 0;
  int deadlock_count = 0;
  int unbounded_count = 0;
  int budget_count = 0;
  for (const Analysis& a : sequential) {
    value_count += (a.outcome == Outcome::Value);
    deadlock_count += (a.outcome == Outcome::Deadlock);
    unbounded_count += (a.outcome == Outcome::Unbounded);
    budget_count += (a.outcome == Outcome::Budget);
  }
  // The sweep must actually exercise the mixed-outcome paths.
  EXPECT_GT(value_count, 100);
  EXPECT_GE(deadlock_count, 11);
  EXPECT_GE(unbounded_count, 11);
  EXPECT_GE(budget_count, 11);

  for (const int threads : {1, 2, 8}) {
    ThroughputService service(ServiceOptions{.threads = threads});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size()) << threads << " threads";
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_same_analysis(batch[i], sequential[i], static_cast<int>(i));
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
      EXPECT_GE(batch[i].worker_id, 0);
      EXPECT_LT(batch[i].worker_id, threads);
    }
  }
}

TEST(ThroughputService, RepeatedBatchOnWarmWorkspacesIsIdentical) {
  const std::vector<AnalysisRequest> requests = make_sweep_requests(40);
  ThroughputService service(ServiceOptions{.threads = 2});
  const std::vector<Analysis> first = service.analyze_batch(requests);
  const std::vector<Analysis> second = service.analyze_batch(requests);
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t i = 0; i < first.size(); ++i) {
    expect_same_analysis(first[i], second[i], static_cast<int>(i));
  }
}

// ---- async submit/wait ------------------------------------------------------

TEST(ThroughputService, SubmitWaitMatchesOneShot) {
  ThroughputService service(ServiceOptions{.threads = 2});
  std::vector<i64> tickets;
  const std::vector<AnalysisRequest> requests = make_sweep_requests(20);
  for (const AnalysisRequest& req : requests) {
    AnalysisRequest copy = req;
    tickets.push_back(service.submit(std::move(copy)));
  }
  // Collect in reverse order: wait() must work regardless of completion
  // or collection order.
  for (std::size_t i = requests.size(); i-- > 0;) {
    const Analysis a = service.wait(tickets[i]);
    const Analysis ref =
        analyze_throughput(requests[i].graph, requests[i].method, requests[i].options);
    expect_same_analysis(a, ref, static_cast<int>(i));
    EXPECT_EQ(a.request_id, tickets[i]);
  }
  EXPECT_THROW((void)service.wait(tickets[0]), SolverError);  // already collected
  EXPECT_THROW((void)service.wait(99999), SolverError);       // never issued
}

/// Everything a solve returns, not only the value fields: solver effort
/// and the critical-cycle certificate too.
void expect_same_solve(const Analysis& a, const Analysis& b, const std::string& what) {
  EXPECT_EQ(a.outcome, b.outcome) << what;
  EXPECT_EQ(a.quality, b.quality) << what;
  EXPECT_EQ(a.period, b.period) << what;
  EXPECT_EQ(a.throughput, b.throughput) << what;
  EXPECT_EQ(a.detail, b.detail) << what;
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.mcrp_iterations, b.mcrp_iterations) << what;
  EXPECT_EQ(a.howard_iterations, b.howard_iterations) << what;
  EXPECT_EQ(a.critical_cycle.coeffs, b.critical_cycle.coeffs) << what;
  EXPECT_EQ(a.critical_cycle.tasks, b.critical_cycle.tasks) << what;
  EXPECT_EQ(a.critical_cycle.k, b.critical_cycle.k) << what;
  EXPECT_EQ(a.critical_cycle.cycle_cost, b.critical_cycle.cycle_cost) << what;
  EXPECT_EQ(a.critical_cycle.cycle_time, b.critical_cycle.cycle_time) << what;
  EXPECT_EQ(a.critical_cycle.ratio, b.critical_cycle.ratio) << what;
}

std::vector<i64> content_words(const CsdfGraph& g) {
  std::vector<i64> words;
  append_content_snapshot(g, words);
  return words;
}

TEST(ThroughputService, SubmitMatchesBatchAndAnalyzeOnTable1) {
  std::vector<NamedGraph> graphs = make_actual_dsp();
  for (auto&& part : {make_mimic_dsp(20160605, 12), make_lg_hsdf(20160606, 8),
                      make_lg_transient(20160607, 8)}) {
    graphs.insert(graphs.end(), part.begin(), part.end());
  }
  AnalysisOptions options;  // serialize_tasks on, as in Table 1
  options.kiter.max_constraint_pairs = i128{20} * 1000 * 1000;
  std::vector<AnalysisRequest> requests;
  for (const NamedGraph& ng : graphs) {
    requests.push_back(AnalysisRequest{.graph = ng.graph, .options = options});
  }

  // Cache off, so every entry point runs its own solve, each on a graph
  // object sharing the caller's storage.
  ThroughputService service(ServiceOptions{.threads = 2, .result_cache_capacity = 0});
  const std::vector<Analysis> batch = service.analyze_batch(requests);
  int bound_by_serialization = 0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const CsdfGraph& g = requests[i].graph;
    const std::vector<i64> before = content_words(g);
    AnalysisRequest copy = requests[i];
    const Analysis submitted = service.wait(service.submit(std::move(copy)));
    const Analysis inline_run = service.analyze(g, Method::KIter, options);
    expect_same_solve(submitted, batch[i], graphs[i].name + " (submit)");
    expect_same_solve(inline_run, batch[i], graphs[i].name + " (analyze)");
    // The caller's graph, copied into the request, comes back unmodified.
    EXPECT_EQ(content_words(g), before) << graphs[i].name;
    EXPECT_EQ(g.buffer_count(), graphs[i].graph.buffer_count()) << graphs[i].name;
    // A one-task critical cycle on a task the input gives no self-loop
    // runs through the serial rule's arcs.
    const std::vector<TaskId>& cycle = submitted.critical_cycle.tasks;
    if (cycle.size() == 1 && !g.has_self_loop(cycle.front())) ++bound_by_serialization;
  }
  EXPECT_GT(bound_by_serialization, 0);
  EXPECT_EQ(service.stats().cache_hits + service.stats().cache_misses, 0u);
}

TEST(ThroughputService, KIterSerialRuleMatchesSerializedGraph) {
  // K-Iter serializes by a constraint rule; the baseline methods analyze
  // add_serialization_buffers' copy. The two must agree field for field:
  // every Table-1 graph, and every Table-2 row except Echo with fixed
  // buffers (the one that takes seconds).
  std::vector<NamedGraph> graphs = table1_graphs();
  for (auto&& part : {make_csdf_applications(), make_csdf_synthetic()}) {
    graphs.insert(graphs.end(), part.begin(), part.end());
  }
  for (const NamedGraph& ng : make_csdf_applications()) {
    if (ng.name == "Echo") continue;
    graphs.push_back({ng.name + " (fixed buffers)", with_buffer_capacities(ng.graph)});
  }
  ASSERT_EQ(graphs.size(), 225u + 14u);
  ThroughputService service(ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  AnalysisOptions edited;
  edited.serialize_tasks = false;
  for (const NamedGraph& ng : graphs) {
    const Analysis by_rule = service.analyze(ng.graph, Method::KIter, AnalysisOptions{});
    const Analysis by_edit =
        service.analyze(add_serialization_buffers(ng.graph), Method::KIter, edited);
    expect_same_solve(by_rule, by_edit, ng.name);
  }
}

TEST(ThroughputService, SubmittedRequestSharesCacheEntryWithBatchAndAnalyze) {
  // The key of a submitted request is its content and options, so an
  // identical batch or inline request hits its entry.
  ThroughputService service(ServiceOptions{.threads = 2});
  const AnalysisRequest req{.graph = make_actual_dsp().front().graph};
  const Analysis submitted = service.wait(service.submit(AnalysisRequest(req)));
  ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 0u);

  const std::vector<Analysis> batch = service.analyze_batch(std::span(&req, 1));
  s = service.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 1u);
  expect_same_solve(batch.front(), submitted, "batch after submit");

  const Analysis inline_run = service.analyze(req.graph, req.method, req.options);
  s = service.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_hits, 2u);
  expect_same_solve(inline_run, submitted, "analyze after submit");
  EXPECT_EQ(s.jobs_executed, 1u);
}

TEST(ThroughputService, InlineModeServesEverything) {
  ThroughputService service(ServiceOptions{.threads = 0});
  EXPECT_TRUE(service.inline_mode());
  EXPECT_EQ(service.worker_count(), 1);
  const i64 ticket = service.submit(AnalysisRequest{.graph = figure2_graph()});
  const Analysis a = service.wait(ticket);
  EXPECT_EQ(a.outcome, Outcome::Value);
  EXPECT_EQ(a.period, Rational{13});
}

TEST(ThroughputService, ExceptionsPropagateFromWorkers) {
  // Expansion on CSDF throws ModelError; the worker must forward it.
  ThroughputService service(ServiceOptions{.threads = 2});
  const i64 ticket = service.submit(
      AnalysisRequest{.graph = figure2_graph(), .method = Method::Expansion});
  EXPECT_THROW((void)service.wait(ticket), ModelError);

  // Identical throwing requests on a wider pool: twins that join the
  // owner's in-flight solve must receive the owner's exception too.
  ThroughputService wide(ServiceOptions{.threads = 4});
  std::vector<i64> tickets;
  for (int i = 0; i < 8; ++i) {
    tickets.push_back(
        wide.submit(AnalysisRequest{.graph = figure2_graph(), .method = Method::Expansion}));
  }
  for (const i64 t : tickets) EXPECT_THROW((void)wide.wait(t), ModelError);
  const ServiceStats s = wide.stats();
  EXPECT_EQ(s.cache_hits + s.cache_misses, tickets.size());
}

// ---- cancellation and deadlines ---------------------------------------------

TEST(CancelToken, DefaultIsInert) {
  const CancelToken inert;
  EXPECT_FALSE(inert.cancellable());
  EXPECT_FALSE(inert.cancelled());
  inert.cancel();  // no-op, must not crash
  EXPECT_FALSE(inert.cancelled());

  const CancelToken token = CancelToken::create();
  const CancelToken copy = token;
  EXPECT_FALSE(copy.cancelled());
  token.cancel();
  EXPECT_TRUE(copy.cancelled());  // all copies observe the same flag
}

TEST(ThroughputService, PreCancelledRequestSkipsExecution) {
  ThroughputService service(ServiceOptions{.threads = 1});
  AnalysisRequest req{.graph = figure2_graph()};
  req.cancel = CancelToken::create();
  req.cancel.cancel();
  const std::vector<Analysis> results = service.analyze_batch({&req, 1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Outcome::Budget);
  EXPECT_NE(results[0].detail.find("cancelled"), std::string::npos);
}

/// Cancels its token after `fire_after` poll-hook calls: a deterministic
/// "the user clicks cancel mid-run" stand-in (the service polls the token
/// between K-Iter rounds and inside constraint generation).
struct MidRunCanceller {
  CancelToken token = CancelToken::create();
  std::atomic<int> polls{0};
  int fire_after = 3;

  static bool hook(void* ctx) {
    auto& self = *static_cast<MidRunCanceller*>(ctx);
    if (++self.polls >= self.fire_after) self.token.cancel();
    return false;  // the cancellation travels via the token, not the hook
  }
};

TEST(ThroughputService, MidRunCancellationReturnsBudgetWithoutAbortingOthers) {
  // A graph with enough rounds/rows that the poll chain fires several
  // times: the gcd ring needs a K-growth round over a 64x64 pair space.
  MidRunCanceller canceller;
  canceller.fire_after = 2;

  std::vector<AnalysisRequest> requests;
  for (int i = 0; i < 6; ++i) {
    AnalysisRequest req{.graph = figure2_graph()};
    requests.push_back(std::move(req));
  }
  AnalysisRequest doomed{.graph = gcd_ring(64)};
  doomed.cancel = canceller.token;
  doomed.options.kiter.poll = &MidRunCanceller::hook;
  doomed.options.kiter.poll_ctx = &canceller;
  doomed.options.kiter.poll_row_stride = 8;
  requests.insert(requests.begin() + 3, std::move(doomed));

  ThroughputService service(ServiceOptions{.threads = 2});
  const std::vector<Analysis> results = service.analyze_batch(requests);
  ASSERT_EQ(results.size(), 7u);

  EXPECT_EQ(results[3].outcome, Outcome::Budget);
  EXPECT_NE(results[3].detail.find("cancelled"), std::string::npos);
  EXPECT_GE(canceller.polls.load(), canceller.fire_after);

  // Every other request of the batch still completed normally.
  for (const std::size_t i : {0u, 1u, 2u, 4u, 5u, 6u}) {
    EXPECT_EQ(results[i].outcome, Outcome::Value) << "request " << i;
    EXPECT_EQ(results[i].period, Rational{13}) << "request " << i;
  }
}

TEST(ThroughputService, SymbolicExecutionCancelsMidExploration) {
  // The token is polled once per explored state inside the symbolic
  // engine's sweep (not just before execution starts): cancel it from the
  // sim's own poll hook and the exploration must stop as Budget with the
  // cancellation noted, well under the state budget.
  MidRunCanceller canceller;
  ThroughputService service(ServiceOptions{.threads = 0});
  AnalysisOptions options;
  options.sim.poll = &MidRunCanceller::hook;
  options.sim.poll_ctx = &canceller;
  const Analysis a = service.analyze(gcd_ring(24), Method::SymbolicExecution, options, -1.0,
                                     canceller.token);
  EXPECT_EQ(a.outcome, Outcome::Budget);
  EXPECT_NE(a.detail.find("cancelled"), std::string::npos) << a.detail;
  EXPECT_GE(canceller.polls.load(), canceller.fire_after);
}

TEST(ThroughputService, ZeroDeadlineReturnsBudget) {
  ThroughputService service(ServiceOptions{.threads = 1});
  AnalysisRequest req{.graph = gcd_ring(64)};
  req.deadline_ms = 0.0;  // over budget at the very first poll
  const std::vector<Analysis> results = service.analyze_batch({&req, 1});
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0].outcome, Outcome::Budget);
}

TEST(KIter, PollHookCancelsBetweenRoundsAndSetsCancelled) {
  MidRunCanceller canceller;
  canceller.fire_after = 2;
  KIterOptions options;
  // Route the cancellation through the hook directly (no service): the
  // hook returning true must stop the run and mark it cancelled.
  options.poll = +[](void* ctx) {
    auto& self = *static_cast<MidRunCanceller*>(ctx);
    return ++self.polls >= self.fire_after;
  };
  options.poll_ctx = &canceller;
  options.poll_row_stride = 8;
  const CsdfGraph g = gcd_ring(64);
  const KIterResult r = kiter_throughput(g, compute_repetition_vector(g), options);
  EXPECT_EQ(r.status, ThroughputStatus::ResourceLimit);
  EXPECT_TRUE(r.cancelled);
}

// ---- in-generation abort (the one-stride-batch overshoot bound) -------------

TEST(ConstraintPoll, AbortsGenerationMidRound) {
  const CsdfGraph g = gcd_ring(129);
  const RepetitionVector rv = compute_repetition_vector(g);
  const std::vector<i64> k{1, 129, 129};

  std::atomic<int> polls{0};
  ConstraintPoll poll;
  poll.fn = +[](void* ctx) { return ++*static_cast<std::atomic<int>*>(ctx) >= 3; };
  poll.ctx = &polls;
  poll.row_stride = 16;

  ConstraintGraph cg;
  EXPECT_FALSE(build_constraint_graph_into(g, rv, k, cg, &poll));
  EXPECT_EQ(polls.load(), 3);

  // Without a poll (or with one that never fires) the build completes and
  // the graph is the usual one.
  ConstraintGraph full;
  EXPECT_TRUE(build_constraint_graph_into(g, rv, k, full));
  EXPECT_GT(full.graph.arc_count(), 0);
  polls = 0;
  ConstraintPoll tame;
  tame.fn = +[](void* ctx) {
    ++*static_cast<std::atomic<int>*>(ctx);
    return false;
  };
  tame.ctx = &polls;
  tame.row_stride = 16;
  ConstraintGraph polled;
  EXPECT_TRUE(build_constraint_graph_into(g, rv, k, polled, &tame));
  EXPECT_GT(polls.load(), 0);
  EXPECT_EQ(polled.graph.arc_count(), full.graph.arc_count());
}


// ---- copy-on-write requests ---------------------------------------------------

bool shares_storage(const CsdfGraph& a, const CsdfGraph& b) {
  return &a.tasks() == &b.tasks();
}

TEST(ThroughputService, SharedGraphBatchMatchesDetachedGraphBatch) {
  Rng rng(20261018);
  RandomCsdfOptions gen;
  gen.min_tasks = 2;
  gen.max_tasks = 6;
  gen.max_phases = 2;
  gen.max_q = 4;
  std::vector<CsdfGraph> graphs;
  std::vector<std::vector<i64>> before;
  for (int i = 0; i < 240; ++i) {
    graphs.push_back(random_csdf(rng, gen));
    before.push_back(content_words(graphs.back()));
  }

  // Request i reads graph pick[i]: ten requests per graph, in a shuffled
  // order. The shared batch points at the graphs' own storage; the detached
  // batch forces a private copy per request with a no-op edit.
  std::vector<AnalysisRequest> shared;
  std::vector<AnalysisRequest> detached;
  for (int i = 0; i < 2400; ++i) {
    const CsdfGraph& g = graphs[static_cast<std::size_t>((i * 97 + i / 240) % 240)];
    shared.push_back(AnalysisRequest{.graph = g});
    ASSERT_TRUE(shares_storage(shared.back().graph, g));
    AnalysisRequest own{.graph = g};
    own.graph.set_initial_tokens(0, own.graph.buffer(0).initial_tokens);
    ASSERT_FALSE(shares_storage(own.graph, g));
    detached.push_back(std::move(own));
  }

  ThroughputService shared_service(ServiceOptions{.threads = 4});
  ThroughputService detached_service(ServiceOptions{.threads = 4});
  const std::vector<Analysis> from_shared = shared_service.analyze_batch(shared);
  const std::vector<Analysis> from_detached = detached_service.analyze_batch(detached);
  ASSERT_EQ(from_shared.size(), shared.size());
  ASSERT_EQ(from_detached.size(), detached.size());
  for (std::size_t i = 0; i < shared.size(); ++i) {
    expect_same_solve(from_shared[i], from_detached[i], "request " + std::to_string(i));
  }
  const ServiceStats a = shared_service.stats();
  const ServiceStats b = detached_service.stats();
  EXPECT_EQ(a.cache_hits + a.cache_misses, shared.size());
  EXPECT_EQ(a.cache_misses, b.cache_misses);
  EXPECT_LE(a.cache_misses, graphs.size());

  // No request wrote to the storage it shares: the callers' graphs are
  // untouched.
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    EXPECT_EQ(content_words(graphs[i]), before[i]) << "graph " << i;
  }
}

TEST(ThroughputService, CallerMutationAfterSubmitDoesNotChangeTheTicket) {
  const CsdfGraph pristine = figure2_graph();
  const Analysis reference = analyze_throughput(pristine, Method::KIter);
  ASSERT_EQ(reference.period, Rational{13});
  for (const std::size_t cache : {std::size_t{0}, std::size_t{4096}}) {
    ThroughputService service(ServiceOptions{.threads = 2, .result_cache_capacity = cache});
    std::vector<i64> tickets;
    for (int i = 0; i < 20; ++i) {
      CsdfGraph g = pristine;
      tickets.push_back(service.submit(AnalysisRequest{.graph = g}));
      // Edits that change the answer, made while the request may still be
      // queued or running on a worker.
      g.set_durations(0, std::vector<i64>(static_cast<std::size_t>(g.phases(0)), 40 + i));
      g.set_initial_tokens(1, g.buffer(1).initial_tokens + 1);
      g = add_serialization_buffers(g);
      EXPECT_NE(analyze_throughput(g, Method::KIter).period, reference.period);
    }
    for (const i64 t : tickets) expect_same_solve(service.wait(t), reference, "ticket");
  }
}

// ---- result-cache keys ------------------------------------------------------

TEST(RequestKey, FreshKeyAllocatesOnceAndKeepsItsWords) {
  // figure1_buffer's key under default options, word for word: the method
  // and option words, then the content snapshot (2 tasks of 3 and 2
  // phases with unit durations; one buffer 0 -> 1, M0 = 0, rates
  // [2,3,1] / [2,5]).
  const std::vector<i64> snapshot_words = {2, 3, 2, 1, 1, 1, 1, 1, 1, 0, 1, 0, 2, 3, 1, 2, 5};
  const std::vector<std::pair<Method, std::vector<i64>>> option_words = {
      {Method::KIter, {0, 1, 0, 1, 0, 1048576, 1, 0, 200000000, 1048576}},
      {Method::Periodic, {1, 1, 1, 0, 1048576}},
      {Method::SymbolicExecution, {2, 1, 250000, 10000000}},
      {Method::Expansion, {3, 1, 2000000, 20000000}},
  };
  const CsdfGraph figure1 = figure1_buffer();
  ASSERT_EQ(content_words(figure1), snapshot_words);
  for (const auto& [method, prefix] : option_words) {
    ContentKey key;
    const std::uint64_t before = g_alloc_count.load();
    build_request_key(figure1, method, AnalysisOptions{}, key);
    EXPECT_EQ(g_alloc_count.load() - before, 1u) << method_name(method);
    std::vector<i64> want = prefix;
    want.insert(want.end(), snapshot_words.begin(), snapshot_words.end());
    EXPECT_EQ(key.words, want) << method_name(method);
    EXPECT_EQ(key.digest, hash_span(key.words));
  }

  // Every Table-1 graph: one allocation, an exact reservation, and the
  // content snapshot as the key's tail.
  std::vector<NamedGraph> graphs = make_actual_dsp();
  for (auto&& part : {make_mimic_dsp(20160605, 12), make_lg_hsdf(20160606, 8),
                      make_lg_transient(20160607, 8)}) {
    graphs.insert(graphs.end(), part.begin(), part.end());
  }
  for (const NamedGraph& ng : graphs) {
    const std::vector<i64> words = content_words(ng.graph);
    EXPECT_EQ(content_snapshot_size(ng.graph), words.size()) << ng.name;
    for (const auto& [method, prefix] : option_words) {
      ContentKey key;
      const std::uint64_t before = g_alloc_count.load();
      build_request_key(ng.graph, method, AnalysisOptions{}, key);
      EXPECT_EQ(g_alloc_count.load() - before, 1u) << ng.name;
      EXPECT_EQ(key.words.capacity(), key.words.size()) << ng.name;
      ASSERT_EQ(key.words.size(), prefix.size() + words.size()) << ng.name;
      EXPECT_TRUE(std::equal(words.begin(), words.end(), key.words.begin() +
                                                             static_cast<std::ptrdiff_t>(prefix.size())))
          << ng.name;
    }
  }
}

// ---- detail strings ---------------------------------------------------------

TEST(AnalysisDetail, KIterStringsArePinned) {
  ThroughputService service(ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  const auto detail = [&](const CsdfGraph& g, const AnalysisOptions& o) {
    return service.analyze(g, Method::KIter, o).detail;
  };
  // All-ones K.
  EXPECT_EQ(detail(figure1_buffer(), {}), "rounds=1 K=1");
  // A few non-1 entries.
  EXPECT_EQ(detail(figure2_graph(), {}), "rounds=3 K={t0:3,t1:4,t2:6} (3 tasks >1)");
  // Cut with ",..." once the K rendering passes 60 characters.
  EXPECT_EQ(detail(synthetic_graph(1), {}),
            "rounds=3 K={t0:32,t1:32,t2:32,t3:32,t4:32,t5:32,t6:32,t7:32,t8:32,t9:32,...} "
            "(25 tasks >1)");
  AnalysisOptions one_round;
  one_round.kiter.max_rounds = 1;
  EXPECT_EQ(detail(figure2_graph(), one_round),
            "rounds=1 K={t0:3,t2:6} (2 tasks >1) (budget hit; best feasible bound reported)");
  AnalysisOptions stop;
  stop.kiter.poll = +[](void*) { return true; };
  EXPECT_EQ(detail(gcd_ring(64), stop), "rounds=0 K=1 (cancelled)");
}

}  // namespace
}  // namespace kp
