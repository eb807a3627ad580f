// Tests for the serving-scale dispatch layer of ThroughputService
// (api/service.hpp): the content-addressed result cache, the sharded
// work-stealing queues, and the ServiceStats observability surface.
//
//   * a cache hit is bit-identical to a cold solve — outcome, period,
//     throughput, detail string AND the critical-cycle cert — compared
//     against a cache-disabled service;
//   * mutating a caller's graph after submit() never poisons the cache
//     (the key is snapshotted from the content the service owns);
//   * a capacity-1 cache evicts strict LRU, deterministically;
//   * wall-clock-racing requests (deadline, cancel token, poll hook, time
//     budget) are never cached, in either direction;
//   * options no Analysis field reads (compute_potentials, record_trace)
//     stay out of the key, so flipping them hits the first solve;
//   * analyze_batch stays deterministic across thread counts, shard
//     layouts and cache on/off, with duplicates mixed in so the late-hit
//     and in-flight-join paths are exercised — single-flight keeps the
//     solve and hit counts exact at any width;
//   * a one-worker service with multiple shards must steal everything the
//     round-robin dealt to foreign shards — a deterministic steal count;
//   * stats() is coherent after a batch: executed counts, histogram
//     totals, monotone percentiles, per-shard depth high-water marks;
//   * analyze_batch collapses in-batch duplicates before dispatch: each
//     distinct cacheable content is solved once whether its duplicates
//     share the leader's storage or only its content, requests with other
//     options or wall-clock controls are never collapsed, a duplicated
//     throwing request still throws, and two concurrent batches with
//     overlapping content still solve each distinct content once.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "api/service.hpp"
#include "gen/categories.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/paper_examples.hpp"
#include "gen/random_csdf.hpp"

namespace kp {
namespace {

/// Full value-level identity, including the fields the result cache must
/// replay exactly: detail string, counters and the critical-cycle cert.
void expect_identical_analysis(const Analysis& a, const Analysis& b, int index) {
  EXPECT_EQ(a.method, b.method) << "request " << index;
  EXPECT_EQ(a.outcome, b.outcome) << "request " << index;
  EXPECT_EQ(a.quality, b.quality) << "request " << index;
  EXPECT_EQ(a.period, b.period) << "request " << index;
  EXPECT_EQ(a.throughput, b.throughput) << "request " << index;
  EXPECT_EQ(a.detail, b.detail) << "request " << index;
  EXPECT_EQ(a.rounds, b.rounds) << "request " << index;
  EXPECT_EQ(a.critical_cycle.coeffs, b.critical_cycle.coeffs) << "request " << index;
  EXPECT_EQ(a.critical_cycle.tasks, b.critical_cycle.tasks) << "request " << index;
  EXPECT_EQ(a.critical_cycle.k, b.critical_cycle.k) << "request " << index;
  EXPECT_EQ(a.critical_cycle.cycle_cost, b.critical_cycle.cycle_cost) << "request " << index;
  EXPECT_EQ(a.critical_cycle.cycle_time, b.critical_cycle.cycle_time) << "request " << index;
  EXPECT_EQ(a.critical_cycle.ratio, b.critical_cycle.ratio) << "request " << index;
}

std::vector<CsdfGraph> make_unique_graphs(int count, u64 seed) {
  Rng rng(seed);
  RandomCsdfOptions gen;
  gen.min_tasks = 3;
  gen.max_tasks = 7;
  gen.max_phases = 3;
  gen.max_q = 5;
  std::vector<CsdfGraph> graphs;
  graphs.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) graphs.push_back(random_csdf(rng, gen));
  return graphs;
}

// ---- cache hit identity -----------------------------------------------------

TEST(ServingCache, HitIsBitIdenticalToColdSolve) {
  const std::vector<CsdfGraph> graphs = make_unique_graphs(25, 20260808);

  ThroughputService cold(ServiceOptions{.threads = 2, .result_cache_capacity = 0});
  ThroughputService cached(ServiceOptions{.threads = 2});

  std::vector<AnalysisRequest> requests;
  for (const CsdfGraph& g : graphs) {
    AnalysisRequest req;
    req.graph = g;
    requests.push_back(std::move(req));
  }
  const std::vector<Analysis> reference = cold.analyze_batch(requests);
  const std::vector<Analysis> first = cached.analyze_batch(requests);
  const std::vector<Analysis> second = cached.analyze_batch(requests);  // all hits

  const ServiceStats stats = cached.stats();
  EXPECT_GE(stats.cache_hits, graphs.size());  // the whole second pass
  EXPECT_GT(stats.cache_misses, 0u);
  EXPECT_GT(stats.cache_size, 0u);
  for (std::size_t i = 0; i < graphs.size(); ++i) {
    expect_identical_analysis(first[i], reference[i], static_cast<int>(i));
    expect_identical_analysis(second[i], reference[i], static_cast<int>(i));
    EXPECT_EQ(second[i].request_id, static_cast<i64>(i));
  }
}

TEST(ServingCache, HitsServeEveryOutcomeKind) {
  // Deadlock, Unbounded and structural-Budget analyses are deterministic
  // too — the cache must replay them, not just Value results.
  std::vector<AnalysisRequest> requests;
  {
    AnalysisRequest req;
    req.graph = figure2_deadlocked();
    requests.push_back(std::move(req));
  }
  {
    CsdfGraph g;
    const TaskId a = g.add_task("a", 3);
    const TaskId b = g.add_task("b", 5);
    g.add_buffer("", a, b, 1, 1, 0);
    AnalysisRequest req;
    req.graph = std::move(g);
    req.options.serialize_tasks = false;  // acyclic -> Unbounded
    requests.push_back(std::move(req));
  }
  {
    AnalysisRequest req;
    req.graph = figure2_graph();
    req.options.kiter.max_constraint_pairs = 10;  // structural Budget
    requests.push_back(std::move(req));
  }

  ThroughputService service(ServiceOptions{.threads = 1});
  const std::vector<Analysis> first = service.analyze_batch(requests);
  const std::vector<Analysis> second = service.analyze_batch(requests);
  ASSERT_EQ(first.size(), 3u);
  EXPECT_EQ(first[0].outcome, Outcome::Deadlock);
  EXPECT_EQ(first[1].outcome, Outcome::Unbounded);
  EXPECT_EQ(first[2].outcome, Outcome::Budget);
  for (int i = 0; i < 3; ++i) expect_identical_analysis(second[i], first[i], i);
  EXPECT_GE(service.stats().cache_hits, 3u);
}

// ---- cache key snapshots content, not references ----------------------------

TEST(ServingCache, MutatingSubmittedGraphNeverPoisonsCache) {
  ThroughputService service(ServiceOptions{.threads = 2});
  CsdfGraph g = figure2_graph();

  AnalysisRequest req;
  req.graph = g;  // copy: the caller keeps mutating its own g below
  const i64 t1 = service.submit(std::move(req));
  const Analysis original = service.wait(t1);
  ASSERT_EQ(original.outcome, Outcome::Value);

  // Mutate the caller's graph and resubmit: the service must key on the NEW
  // content and solve it, not serve the stale entry.
  std::vector<i64> durations = g.task(0).durations;
  durations[0] += 17;
  g.set_durations(0, durations);
  AnalysisRequest mutated;
  mutated.graph = g;
  const i64 t2 = service.submit(std::move(mutated));
  const Analysis changed = service.wait(t2);
  ASSERT_EQ(changed.outcome, Outcome::Value);
  EXPECT_NE(changed.period, original.period) << "mutated graph must re-solve, not hit";

  // And the original content must still be served correctly (a hit now).
  AnalysisRequest again;
  again.graph = figure2_graph();
  const i64 t3 = service.submit(std::move(again));
  const Analysis replay = service.wait(t3);
  expect_identical_analysis(replay, original, 0);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

// ---- LRU eviction -----------------------------------------------------------

TEST(ServingCache, CapacityOneEvictsStrictLru) {
  // capacity 1 = one stripe of one entry: exact global LRU, fully
  // deterministic in inline mode.
  ThroughputService service(ServiceOptions{.threads = 0, .result_cache_capacity = 1});
  const CsdfGraph a = figure2_graph();
  const CsdfGraph b = gcd_ring(6);

  (void)service.analyze(a, Method::KIter);  // miss, cached
  ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_misses, 1u);
  EXPECT_EQ(s.cache_size, 1u);

  (void)service.analyze(b, Method::KIter);  // miss, evicts a
  s = service.stats();
  EXPECT_EQ(s.cache_misses, 2u);
  EXPECT_GE(s.cache_evictions, 1u);
  EXPECT_EQ(s.cache_size, 1u);

  (void)service.analyze(b, Method::KIter);  // hit
  s = service.stats();
  EXPECT_EQ(s.cache_hits, 1u);

  (void)service.analyze(a, Method::KIter);  // evicted -> miss again
  s = service.stats();
  EXPECT_EQ(s.cache_hits, 1u);
  EXPECT_EQ(s.cache_misses, 3u);
  EXPECT_EQ(s.cache_capacity, 1u);
  EXPECT_DOUBLE_EQ(s.hit_rate(), 0.25);
}

// ---- wall-clock requests are uncacheable ------------------------------------

TEST(ServingCache, WallClockAndCancellableRequestsAreNeverCached) {
  ThroughputService service(ServiceOptions{.threads = 1});
  const CsdfGraph g = figure2_graph();

  // Generous deadline: the solve succeeds, but its outcome raced a clock.
  (void)service.analyze(g, Method::KIter, {}, /*deadline_ms=*/60000.0);
  (void)service.analyze(g, Method::KIter, {}, /*deadline_ms=*/60000.0);

  // Cancellable token (never fired): still uncacheable by construction.
  const CancelToken token = CancelToken::create();
  (void)service.analyze(g, Method::KIter, {}, -1.0, token);

  // Engine-level wall-clock budget.
  AnalysisOptions budgeted;
  budgeted.kiter.time_budget_ms = 60000.0;
  (void)service.analyze(g, Method::KIter, budgeted);

  // Symbolic execution with a time budget.
  AnalysisOptions sim_budgeted;
  sim_budgeted.sim.time_budget_ms = 60000.0;
  (void)service.analyze(g, Method::SymbolicExecution, sim_budgeted);

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.cache_misses, 0u);
  EXPECT_EQ(s.cache_size, 0u);
  EXPECT_EQ(s.jobs_executed, 5u);
}

TEST(ServingCache, OptionsNoAnalysisReadsShareOneEntry) {
  // McrpOptions::compute_potentials (no runner extracts a schedule) and
  // KIterOptions::record_trace (run_kiter turns it off) change no Analysis
  // field, so they stay out of the request key: a request that differs only
  // in them is a hit on the first one's solve.
  for (const Method method : {Method::KIter, Method::Periodic}) {
    SCOPED_TRACE("method " + std::to_string(static_cast<int>(method)));
    const AnalysisRequest plain{.graph = figure2_graph(), .method = method};
    AnalysisRequest flipped{.graph = figure2_graph(), .method = method};
    flipped.options.kiter.mcrp.compute_potentials = !plain.options.kiter.mcrp.compute_potentials;
    flipped.options.kiter.record_trace = !plain.options.kiter.record_trace;
    ASSERT_NE(plain.graph.storage_id(), flipped.graph.storage_id());

    ThroughputService service(ServiceOptions{.threads = 1});
    const Analysis first = service.analyze_batch(std::span(&plain, 1))[0];
    const Analysis second = service.analyze_batch(std::span(&flipped, 1))[0];
    expect_identical_analysis(second, first, 1);
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.jobs_executed, 1u);
    EXPECT_EQ(s.cache_misses, 1u);
    EXPECT_EQ(s.cache_hits, 1u);
  }
}

// ---- determinism across threads, shards and cache setting -------------------

TEST(ServingDispatch, BatchDeterministicAcrossThreadsShardsAndCache) {
  // 20 unique graphs, each requested three times: the duplicate copies
  // exercise the late-hit path (the twins are already queued when the first
  // copy completes).
  const std::vector<CsdfGraph> graphs = make_unique_graphs(20, 20260807);
  std::vector<AnalysisRequest> requests;
  for (int rep = 0; rep < 3; ++rep) {
    for (const CsdfGraph& g : graphs) {
      AnalysisRequest req;
      req.graph = g;
      requests.push_back(std::move(req));
    }
  }

  ThroughputService reference_service(
      ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  const std::vector<Analysis> reference = reference_service.analyze_batch(requests);

  struct Config {
    int threads;
    int shards;
    std::size_t cache;
  };
  for (const Config c : {Config{0, 0, 4096}, Config{2, 0, 4096}, Config{2, 5, 4096},
                         Config{5, 0, 4096}, Config{5, 2, 0}}) {
    ThroughputService service(ServiceOptions{
        .threads = c.threads, .queue_shards = c.shards, .result_cache_capacity = c.cache});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical_analysis(batch[i], reference[i], static_cast<int>(i));
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
    }
    if (c.cache > 0) {
      // 40 duplicate requests must be served by the cache, not re-solved.
      const ServiceStats s = service.stats();
      EXPECT_LE(s.jobs_executed, graphs.size() + 1);
      EXPECT_GE(s.cache_hits, 2 * graphs.size());
      EXPECT_EQ(s.cache_hits + s.cache_misses, requests.size());
    }
  }
}

// ---- work stealing ----------------------------------------------------------

TEST(ServingDispatch, OneWorkerMustStealFromForeignShards) {
  // One worker owns shard 0; the batch is dealt round-robin over 4 shards,
  // so ~3/4 of the jobs can only be reached by stealing. Deterministic:
  // there is nobody else to take them.
  ThroughputService service(
      ServiceOptions{.threads = 1, .queue_shards = 4, .result_cache_capacity = 0});
  const std::vector<CsdfGraph> graphs = make_unique_graphs(24, 20260806);
  std::vector<AnalysisRequest> requests;
  for (const CsdfGraph& g : graphs) {
    AnalysisRequest req;
    req.graph = g;
    requests.push_back(std::move(req));
  }
  const std::vector<Analysis> batch = service.analyze_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());
  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_executed, requests.size());
  EXPECT_GE(s.steals, requests.size() / 2);  // exactly 18 of 24 here
  ASSERT_EQ(s.shard_depth_high_water.size(), 4u);
  for (const u64 depth : s.shard_depth_high_water) EXPECT_GE(depth, 1u);
}

TEST(ServingDispatch, SubmitRoutesByContentAndServesTicketsFromCache) {
  ThroughputService service(ServiceOptions{.threads = 2, .queue_shards = 3});
  const CsdfGraph g = gcd_ring(5);

  AnalysisRequest first;
  first.graph = g;
  const Analysis cold = service.wait(service.submit(std::move(first)));
  ASSERT_EQ(cold.outcome, Outcome::Value);

  // Identical content: the ticket is completed from the cache before
  // submit() even returns.
  AnalysisRequest twin;
  twin.graph = g;
  const i64 ticket = service.submit(std::move(twin));
  const Analysis warm = service.wait(ticket);
  expect_identical_analysis(warm, cold, 0);
  EXPECT_EQ(warm.request_id, ticket);
  EXPECT_EQ(warm.queue_ms, 0.0);
  EXPECT_GE(service.stats().cache_hits, 1u);
}

// ---- stats surface ----------------------------------------------------------

TEST(ServingStats, SnapshotIsCoherentAfterBatch) {
  ThroughputService service(ServiceOptions{.threads = 2});
  const std::vector<CsdfGraph> graphs = make_unique_graphs(30, 20260804);
  std::vector<AnalysisRequest> requests;
  for (const CsdfGraph& g : graphs) {
    AnalysisRequest req;
    req.graph = g;
    requests.push_back(std::move(req));
  }
  const std::vector<Analysis> batch = service.analyze_batch(requests);
  ASSERT_EQ(batch.size(), requests.size());

  const ServiceStats s = service.stats();
  EXPECT_EQ(s.jobs_executed, s.cache_misses);  // all unique, all cacheable
  EXPECT_EQ(s.cache_hits + s.cache_misses, requests.size());
  EXPECT_EQ(s.solve.total(), s.jobs_executed);
  EXPECT_GE(s.queue.total(), s.jobs_executed);  // every dequeued job
  EXPECT_LE(s.queue.percentile_ms(0.50), s.queue.percentile_ms(0.99));
  EXPECT_LE(s.solve.percentile_ms(0.50), s.solve.percentile_ms(0.99));
  EXPECT_GT(s.solve.percentile_ms(0.99), 0.0);
  EXPECT_EQ(s.shard_depth_high_water.size(),
            static_cast<std::size_t>(service.shard_count()));
  u64 max_depth = 0;
  for (const u64 d : s.shard_depth_high_water) max_depth = std::max(max_depth, d);
  EXPECT_GE(max_depth, 1u);
  EXPECT_EQ(s.cache_capacity, 4096u);
  EXPECT_GE(s.hit_rate(), 0.0);
  EXPECT_LE(s.hit_rate(), 1.0);
}

// ---- in-batch duplicate collapse --------------------------------------------

/// The number of distinct result-cache identities among the requests.
std::size_t distinct_contents(const std::vector<AnalysisRequest>& requests) {
  std::set<std::vector<i64>> keys;
  for (const AnalysisRequest& r : requests) {
    ContentKey key;
    build_request_key(r.graph, r.method, r.options, key);
    keys.insert(std::move(key.words));
  }
  return keys.size();
}

/// A copy of g with its own storage block: equal content, another id.
CsdfGraph detached_copy(const CsdfGraph& g) {
  CsdfGraph copy = g;
  copy.set_name(g.name());
  EXPECT_NE(copy.storage_id(), g.storage_id());
  return copy;
}

/// Table-1 graphs (ActualDSP, a few MimicDSP) and random CSDF graphs; each
/// is requested once as itself, then again through copies sharing its
/// storage and through detached copies, shuffled together.
std::vector<AnalysisRequest> duplicate_heavy_batch() {
  std::vector<CsdfGraph> graphs;
  for (NamedGraph& ng : make_actual_dsp()) graphs.push_back(std::move(ng.graph));
  for (NamedGraph& ng : make_mimic_dsp(20261019, 4)) graphs.push_back(std::move(ng.graph));
  for (CsdfGraph& g : make_unique_graphs(12, 20261020)) graphs.push_back(std::move(g));
  std::vector<AnalysisRequest> requests;
  for (int rep = 0; rep < 4; ++rep) {
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      AnalysisRequest req;
      req.graph = rep == 2 && i % 2 == 0 ? detached_copy(graphs[i]) : graphs[i];
      requests.push_back(std::move(req));
    }
  }
  Rng rng(20261021);
  rng.shuffle(requests);
  return requests;
}

TEST(ServingCollapse, DuplicatesMatchACacheOffReferenceAndSolveOnce) {
  const std::vector<AnalysisRequest> requests = duplicate_heavy_batch();
  const std::size_t distinct = distinct_contents(requests);
  ASSERT_LT(distinct, requests.size());

  ThroughputService reference_service(
      ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  const std::vector<Analysis> reference = reference_service.analyze_batch(requests);
  EXPECT_EQ(reference_service.stats().jobs_executed, requests.size());

  for (const int threads : {0, 2, 5}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThroughputService service(ServiceOptions{.threads = threads});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    // The first request of each content leads; every later one duplicates.
    std::set<std::vector<i64>> seen;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical_analysis(batch[i], reference[i], static_cast<int>(i));
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
      ContentKey key;
      build_request_key(requests[i].graph, requests[i].method, requests[i].options, key);
      if (!seen.insert(std::move(key.words)).second) {
        EXPECT_EQ(batch[i].queue_ms, 0.0) << "duplicate " << i;
      }
    }
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.jobs_executed, distinct);
    EXPECT_EQ(s.cache_misses, distinct);
    EXPECT_EQ(s.cache_hits + s.cache_misses, requests.size());
  }
}

TEST(ServingCollapse, SameStorageWithOtherOptionsIsNotCollapsed) {
  const CsdfGraph g = figure2_graph();
  std::vector<AnalysisRequest> requests;
  for (int rep = 0; rep < 2; ++rep) {
    requests.push_back(AnalysisRequest{.graph = g});
    AnalysisRequest unserialized{.graph = g};
    unserialized.options.serialize_tasks = false;
    requests.push_back(std::move(unserialized));
    AnalysisRequest one_round{.graph = g};
    one_round.options.kiter.max_rounds = 1;
    requests.push_back(std::move(one_round));
    requests.push_back(AnalysisRequest{.graph = g, .method = Method::Periodic});
    requests.push_back(AnalysisRequest{.graph = g, .method = Method::SymbolicExecution});
  }
  for (const AnalysisRequest& r : requests) ASSERT_EQ(r.graph.storage_id(), g.storage_id());

  ThroughputService reference_service(
      ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  const std::vector<Analysis> reference = reference_service.analyze_batch(requests);
  for (const int threads : {0, 2, 5}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThroughputService service(ServiceOptions{.threads = threads});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      expect_identical_analysis(batch[i], reference[i], static_cast<int>(i));
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
    }
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.jobs_executed, 5u);  // one per option set, not one per storage block
    EXPECT_EQ(s.cache_misses, 5u);
    EXPECT_EQ(s.cache_hits, 5u);
  }
}

TEST(ServingCollapse, UncacheableRequestsAndCacheOffBatchesAreNeverCollapsed) {
  const CsdfGraph g = gcd_ring(5);
  const CancelToken token = CancelToken::create();  // never fired
  std::vector<AnalysisRequest> requests;
  for (int rep = 0; rep < 3; ++rep) {
    requests.push_back(AnalysisRequest{.graph = g, .deadline_ms = 60000.0});
    requests.push_back(AnalysisRequest{.graph = g, .cancel = token});
  }
  for (const int threads : {0, 2, 5}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThroughputService service(ServiceOptions{.threads = threads});
    const std::vector<Analysis> batch = service.analyze_batch(requests);
    ASSERT_EQ(batch.size(), requests.size());
    for (std::size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ(batch[i].outcome, Outcome::Value);
      EXPECT_EQ(batch[i].request_id, static_cast<i64>(i));
    }
    ServiceStats s = service.stats();
    EXPECT_EQ(s.jobs_executed, requests.size());
    EXPECT_EQ(s.cache_hits, 0u);
    EXPECT_EQ(s.cache_misses, 0u);

    // Cache off: plain requests with one storage block all solve.
    ThroughputService off(ServiceOptions{.threads = threads, .result_cache_capacity = 0});
    const std::vector<AnalysisRequest> plain(6, AnalysisRequest{.graph = g});
    const std::vector<Analysis> off_batch = off.analyze_batch(plain);
    for (std::size_t i = 0; i < off_batch.size(); ++i) {
      expect_identical_analysis(off_batch[i], off_batch[0], static_cast<int>(i));
      EXPECT_EQ(off_batch[i].request_id, static_cast<i64>(i));
    }
    s = off.stats();
    EXPECT_EQ(s.jobs_executed, plain.size());
    EXPECT_EQ(s.cache_hits + s.cache_misses, 0u);
  }
}

TEST(ServingCollapse, DuplicatedThrowingRequestStillThrows) {
  // Expansion on a CSDF graph throws ModelError; its duplicates, sharing
  // storage or not, ride on the one throwing solve.
  const CsdfGraph g = figure2_graph();
  const std::vector<AnalysisRequest> requests{
      AnalysisRequest{.graph = g, .method = Method::Expansion},
      AnalysisRequest{.graph = gcd_ring(4)},
      AnalysisRequest{.graph = g, .method = Method::Expansion},
      AnalysisRequest{.graph = detached_copy(g), .method = Method::Expansion},
  };
  for (const int threads : {0, 2, 5}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThroughputService service(ServiceOptions{.threads = threads});
    EXPECT_THROW((void)service.analyze_batch(requests), ModelError);
    // A throwing solve is not counted as executed, but it was a miss.
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.jobs_executed, 1u);
    EXPECT_EQ(s.cache_misses, 2u);
    EXPECT_EQ(s.cache_hits, 2u);
  }
}

TEST(ServingCollapse, ConcurrentBatchesWithOverlappingContentSolveEachContentOnce) {
  // Two callers at once: batch A holds graphs [0, 30), batch B [15, 45),
  // each graph three times (once through a detached copy). In-batch
  // collapse leaves one leader per content and batch; single-flight and
  // the cache must still solve each distinct content exactly once.
  const std::vector<CsdfGraph> graphs = make_unique_graphs(45, 20261022);
  const auto make_batch = [&](std::size_t lo, std::size_t hi) {
    std::vector<AnalysisRequest> batch;
    for (int rep = 0; rep < 3; ++rep) {
      for (std::size_t i = lo; i < hi; ++i) {
        batch.push_back(AnalysisRequest{.graph = rep == 1 ? detached_copy(graphs[i]) : graphs[i]});
      }
    }
    return batch;
  };
  const std::vector<AnalysisRequest> a = make_batch(0, 30);
  const std::vector<AnalysisRequest> b = make_batch(15, 45);
  const std::size_t distinct = distinct_contents(make_batch(0, 45));

  ThroughputService reference_service(
      ServiceOptions{.threads = 0, .result_cache_capacity = 0});
  const std::vector<Analysis> ref_a = reference_service.analyze_batch(a);
  const std::vector<Analysis> ref_b = reference_service.analyze_batch(b);

  for (const int threads : {0, 2, 5}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ThroughputService service(ServiceOptions{.threads = threads});
    std::vector<Analysis> out_a;
    std::vector<Analysis> out_b;
    std::thread other([&] { out_b = service.analyze_batch(b); });
    out_a = service.analyze_batch(a);
    other.join();
    ASSERT_EQ(out_a.size(), a.size());
    ASSERT_EQ(out_b.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      expect_identical_analysis(out_a[i], ref_a[i], static_cast<int>(i));
      EXPECT_EQ(out_a[i].request_id, static_cast<i64>(i));
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      expect_identical_analysis(out_b[i], ref_b[i], static_cast<int>(i));
      EXPECT_EQ(out_b[i].request_id, static_cast<i64>(i));
    }
    const ServiceStats s = service.stats();
    EXPECT_EQ(s.jobs_executed, distinct);
    EXPECT_EQ(s.cache_misses, distinct);
    EXPECT_EQ(s.cache_hits + s.cache_misses, a.size() + b.size());
  }
}

}  // namespace
}  // namespace kp
