// The four workloads. Each builds its inputs from the seed, sets up a
// service, computes or loads the expected answers, then runs timed calls
// until the run's seconds are used up, checking every answer. Further
// set-ups are timed between passes (set-up time is the median).
//
// Traced runs time the same calls and, after each call, replay its steps
// from this file through the library's public functions, one span per
// layer. Replays run outside the timed call, so the call times of a traced
// run are comparable to an untraced one; end-to-end metrics still come from
// untraced runs only.
#include <sched.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <numeric>
#include <stdexcept>

#include "bench.hpp"
#include "core/constraints.hpp"
#include "core/kiter.hpp"
#include "core/regions.hpp"
#include "gen/csdf_apps.hpp"
#include "gen/random_csdf.hpp"
#include "gen/scenario_gen.hpp"
#include "model/repetition.hpp"
#include "model/stats.hpp"
#include "model/transform.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace kpbench {

namespace {

using Clock = std::chrono::steady_clock;

/// Set-ups per run; setup_s reports their median.
constexpr std::size_t kSetupReps = 15;

template <class T>
void shuffle(std::vector<T>& v, kp::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(i) - 1))]);
  }
}

std::vector<int> iota_order(std::size_t n) {
  std::vector<int> v(n);
  std::iota(v.begin(), v.end(), 0);
  return v;
}

/// Pins the calling thread, and every thread it starts from now on, to the
/// CPU it runs on; returns that CPU, or -1 when the host refuses. Used by
/// the workloads with one client and at most one worker: on a virtual
/// machine, waking a thread on another CPU costs a host-dependent wake-up,
/// and a thread that moves between CPUs leaves its warm caches behind.
int pin_to_current_cpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0 ? cpu : -1;
}

/// Times one set-up into d.setup_s and returns its state. `make` builds
/// the inputs and the service and makes the warm-up call.
template <class Make>
auto set_up(RunData& d, Make&& make) {
  const Clock::time_point t0 = Clock::now();
  auto st = make();
  d.setup_s.push_back(ms_since(t0) / 1000.0);
  return st;
}

/// Runs whole passes until `seconds` of wall time have passed (at least
/// one). Between passes it times the run's other set-ups, spread evenly
/// over the run, each into a state that is dropped at once: a virtual CPU's
/// speed drifts over seconds as its host core is shared, and set-ups made
/// back to back would all sample the same stretch of it.
template <class Make, class PassFn>
void run_passes(RunData& d, double seconds, Make&& make, PassFn&& pass) {
  const Clock::time_point t0 = Clock::now();
  const double setup_every_ms = seconds * 1000.0 / kSetupReps;
  do {
    pass();
    if (d.setup_s.size() < kSetupReps &&
        ms_since(t0) >= static_cast<double>(d.setup_s.size()) * setup_every_ms) {
      (void)set_up(d, make);
    }
  } while (ms_since(t0) < seconds * 1000.0);
  while (d.setup_s.size() < kSetupReps) (void)set_up(d, make);
}

/// Times one call `f(span, call_id)` (a "call" span when tracing) into
/// `ms`; the caller checks its answers and records it with RunData::record.
/// Returns why it threw, or "".
template <class F>
std::string time_call(RunData& d, Tracer* tr, int& span, double& ms, F&& f) {
  const i64 call_id = d.attempted;
  span = tr != nullptr ? tr->open("call", -1, call_id) : -1;
  std::string why;
  const Clock::time_point t0 = Clock::now();
  try {
    f(span, call_id);
  } catch (const std::exception& ex) {
    why = std::string("threw: ") + ex.what();
  }
  ms = ms_since(t0);
  if (tr != nullptr) tr->close(span);
  ++d.attempted;
  d.timed_ms += ms;
  return why;
}

void add_stats(InputStats& s, const kp::CsdfGraph& g, i64 final_arcs) {
  const kp::GraphStats st = kp::graph_stats(g);
  ++s.graphs;
  s.tasks += st.tasks;
  s.buffers += st.buffers;
  s.sum_q += static_cast<double>(st.sum_q);
  s.final_arcs += final_arcs;
}

/// Service counters over the timed calls.
void add_service_delta(Layers& l, const kp::ServiceStats& before, const kp::ServiceStats& after) {
  l.hits += static_cast<double>(after.cache_hits - before.cache_hits);
  l.misses += static_cast<double>(after.cache_misses - before.cache_misses);
  l.evictions += static_cast<double>(after.cache_evictions - before.cache_evictions);
  l.steals += static_cast<double>(after.steals - before.steals);
  l.executed += static_cast<double>(after.jobs_executed - before.jobs_executed);
}

/// Traced runs only: api.queue_p50_ms is a per-layer metric, and an
/// untraced run keeps no per-request record.
void record_queue(Layers& l, const kp::Analysis& a) {
  // Dispatch-time cache hits are never queued and report exactly 0.
  if (a.queue_ms > 0.0) l.queue_ms.push_back(a.queue_ms);
}

/// The option words the service puts in front of a KIter request's content
/// snapshot in its result-cache key, in the same order.
void append_kiter_option_words(const kp::AnalysisOptions& o, std::vector<i64>& w) {
  const kp::KIterOptions& k = o.kiter;
  w.push_back(static_cast<i64>(kp::Method::KIter));
  w.push_back(o.serialize_tasks ? 1 : 0);
  w.push_back(static_cast<i64>(k.policy));
  w.push_back(k.mcrp.accelerate_with_double ? 1 : 0);
  w.push_back(k.mcrp.howard_warm_start ? 1 : 0);
  w.push_back(k.mcrp.compute_potentials ? 1 : 0);
  w.push_back(k.mcrp.max_iterations);
  w.push_back(k.incremental ? 1 : 0);
  w.push_back(static_cast<i64>(k.max_constraint_pairs >> 64));
  w.push_back(static_cast<i64>(static_cast<u64>(k.max_constraint_pairs)));
  w.push_back(k.max_rounds);
  w.push_back(k.record_trace ? 1 : 0);
}

/// Replays calls layer by layer on the benchmark's own workspaces.
class Replayer {
 public:
  Replayer(Tracer& tracer, Layers& layers) : tr_(tracer), l_(layers) {}

  /// One K-Iter analysis of an already serialized graph: K-Iter on a warm
  /// workspace (span core.kiter; its self time is the span minus the build
  /// and solve time the same run reports), then its round trajectory,
  /// recorded by an untimed record_trace run, replayed through the
  /// incremental constraint builder and the MCRP solver (children
  /// core.constraints.build and mcrp.solve). An Optimal run's critical-cycle
  /// certificate, which the service reads off the same workspace, follows
  /// as span core.regions.cert. Returns the timed K-Iter result.
  kp::KIterResult kiter(int parent, i64 call, const kp::CsdfGraph& g,
                        const kp::RepetitionVector& rv, kp::KIterOptions o) {
    o.want_schedule = false;
    o.record_trace = false;
    const kp::ConstraintGraphCache& c = kiter_ws_.cache;
    const i64 patched = c.patched_rounds, payload = c.payload_rounds, rebuilt = c.rebuilt_rounds;
    kp::KIterResult r;
    const int kid = tr_.open("core.kiter", parent, call);
    r = kp::kiter_throughput(g, rv, o, kiter_ws_);
    tr_.close(kid);
    l_.kiter_self_ms += tr_.ms(kid) - r.build_ms - r.solve_ms;
    l_.patched_rounds += static_cast<double>(c.patched_rounds - patched);
    l_.payload_rounds += static_cast<double>(c.payload_rounds - payload);
    l_.rebuilt_rounds += static_cast<double>(c.rebuilt_rounds - rebuilt);
    l_.kiter_runs += 1;
    l_.rounds += r.rounds;
    if (r.status == kp::ThroughputStatus::Optimal) {
      l_.cert_ms += tr_.run("core.regions.cert", parent, call, [&] {
        (void)kp::extract_critical_cycle_cert(kiter_ws_.constraints, kiter_ws_.solved);
      });
    }

    kp::KIterOptions t = o;
    t.record_trace = true;
    const kp::KIterResult traj = kp::kiter_throughput(g, rv, t, trace_ws_);
    kp::McrpOptions m = o.mcrp;
    m.compute_potentials = false;
    for (const kp::KIterRound& round : traj.trace) {
      l_.build_ms += tr_.run("core.constraints.build", kid, call, [&] {
        (void)kp::build_constraint_graph_incremental(g, rv, round.k, cg_, cache_);
      });
      l_.solve_ms += tr_.run("mcrp.solve", kid, call,
                             [&] { kp::solve_max_cycle_ratio(cg_.graph, m, scratch_, solved_); });
      l_.mcrp_iterations += solved_.iterations;
      l_.mcrp_exact += solved_.exact_iterations;
      l_.mcrp_howard += solved_.howard_iterations;
    }
    if (!traj.trace.empty()) l_.arcs += static_cast<double>(cg_.graph.arc_count());
    return r;
  }

  /// The steps the service takes to solve one single-graph KIter request:
  /// optionally the caller's graph copy, then serialization, the repetition
  /// vector and K-Iter.
  void request(int parent, i64 call, const kp::CsdfGraph& graph, const kp::AnalysisOptions& o,
               bool with_copy) {
    kp::CsdfGraph copy;
    if (with_copy) {
      l_.copy_ms += tr_.run("model.copy", parent, call, [&] { copy = graph; });
    }
    const kp::CsdfGraph& src = with_copy ? copy : graph;
    kp::CsdfGraph ser;
    l_.serialize_ms +=
        tr_.run("model.serialize", parent, call, [&] { ser = kp::add_serialization_buffers(src); });
    kp::RepetitionVector rv;
    l_.repetition_ms +=
        tr_.run("model.repetition", parent, call, [&] { rv = kp::compute_repetition_vector(ser); });
    reset_warm();
    (void)kiter(parent, call, ser, rv, o.kiter);
  }

  /// The result-cache keys of a batch's KIter requests (option words,
  /// content snapshot and digest), in one span.
  void keys(int parent, i64 call, const std::vector<kp::CsdfGraph>& graphs,
            const std::vector<int>& ids, const kp::AnalysisOptions& o) {
    l_.key_ms += tr_.run("api.key", parent, call, [&] {
      for (const int id : ids) {
        key_.words.clear();
        append_kiter_option_words(o, key_.words);
        kp::append_content_snapshot(graphs[static_cast<std::size_t>(id)], key_.words);
        key_.finalize();
      }
    });
  }

  /// A variant sweep's steps, in index order on one workspace: the base is
  /// serialized and copied once, each replayed variant is reached by
  /// reverting the previous delta and applying its own, and K-Iter is
  /// warm-started from the previous Optimal variant's K with Howard warm
  /// starts on, as VariantBatch::warm_start does. `only` (when non-null)
  /// limits the replay to the variants it flags.
  void variants(int parent, i64 call, const kp::CsdfGraph& base,
                const std::vector<kp::GraphDelta>& deltas, const kp::AnalysisOptions& o,
                const std::vector<char>* only) {
    kp::CsdfGraph prepared;
    l_.serialize_ms += tr_.run("model.serialize", parent, call,
                               [&] { prepared = kp::add_serialization_buffers(base); });
    kp::CsdfGraph variant;
    l_.copy_ms += tr_.run("model.copy", parent, call, [&] { variant = prepared; });
    reset_warm();
    std::ptrdiff_t applied = -1;
    for (std::size_t i = 0; i < deltas.size(); ++i) {
      if (only != nullptr && !(*only)[i]) continue;
      l_.delta_ms += tr_.run("model.delta", parent, call, [&] {
        if (applied >= 0) {
          kp::revert_delta(variant, deltas[static_cast<std::size_t>(applied)], prepared);
        }
        kp::apply_delta(variant, deltas[i]);
      });
      applied = static_cast<std::ptrdiff_t>(i);
      kp::RepetitionVector rv;
      l_.repetition_ms += tr_.run("model.repetition", parent, call,
                                  [&] { rv = kp::compute_repetition_vector(variant); });
      kp::KIterOptions ko = o.kiter;
      ko.mcrp.howard_warm_start = true;
      if (warm_valid_) ko.initial_k = &warm_k_;
      kp::KIterResult r = kiter(parent, call, variant, rv, ko);
      if (r.status == kp::ThroughputStatus::Optimal) {
        warm_k_ = std::move(r.k);
        warm_valid_ = true;
      } else {
        reset_warm();
      }
    }
  }

 private:
  void reset_warm() {
    warm_valid_ = false;
    kiter_ws_.reset_solver_warm_start();
    trace_ws_.reset_solver_warm_start();
    scratch_.reset_warm_start();
  }

  Tracer& tr_;
  Layers& l_;
  kp::KIterWorkspace kiter_ws_;
  kp::KIterWorkspace trace_ws_;
  kp::ConstraintGraph cg_;
  kp::ConstraintGraphCache cache_;
  kp::McrpScratch scratch_;
  kp::McrpResult solved_;
  kp::ContentKey key_;
  std::vector<i64> warm_k_;
  bool warm_valid_ = false;
};

/// The reference answer of a cold, single-worker, cache-off solve.
Expected cold_expected(const kp::CsdfGraph& g, const kp::AnalysisOptions& o) {
  return expected_of(kp::analyze_throughput(g, kp::Method::KIter, o));
}

// ---- paper-sdf / paper-csdf ---------------------------------------------------

RunData run_paper(const RunOptions& opt, Tracer* tr, const std::string& workload,
                  std::vector<kp::NamedGraph> (*make_inputs)(), const kp::AnalysisOptions& options) {
  RunData d;
  const std::vector<ReferenceRow> ref = load_reference(opt.reference_dir, workload);
  // The client and the service's worker share one CPU: each hand-off is a
  // switch on that CPU, not a cross-CPU wake-up.
  d.pinned_cpu = pin_to_current_cpu();

  struct State {
    std::vector<kp::NamedGraph> inputs;
    std::unique_ptr<kp::ThroughputService> service;
  };
  auto call = [&](State& st, int input) {
    kp::AnalysisRequest req{.graph = st.inputs[static_cast<std::size_t>(input)].graph,
                            .method = kp::Method::KIter,
                            .options = options};
    const i64 ticket = st.service->submit(std::move(req));
    return st.service->wait(ticket);
  };

  auto make = [&] {
    auto s = std::make_unique<State>();
    s->inputs = make_inputs();
    kp::ServiceOptions so;
    so.threads = 1;
    so.result_cache_capacity = 0;
    s->service = std::make_unique<kp::ThroughputService>(so);
    (void)call(*s, 0);  // warm-up
    return s;
  };
  const std::unique_ptr<State> st = set_up(d, make);
  if (ref.size() != st->inputs.size()) {
    throw std::runtime_error(workload + ": reference has " + std::to_string(ref.size()) +
                             " rows for " + std::to_string(st->inputs.size()) + " inputs");
  }
  for (std::size_t i = 0; i < ref.size(); ++i) {
    if (ref[i].name != st->inputs[i].name) {
      throw std::runtime_error(workload + ": reference row " + std::to_string(i) + " is '" +
                               ref[i].name + "', input is '" + st->inputs[i].name + "'");
    }
    ++d.inputs.graphs;
    d.inputs.tasks += ref[i].tasks;
    d.inputs.buffers += ref[i].buffers;
    d.inputs.sum_q += ref[i].sum_q;
    d.inputs.final_arcs += ref[i].final_arcs;
  }
  d.workers = st->service->worker_count();
  // Priming: one untimed call per input, so that no timed call pays a
  // first touch (Echo with fixed buffers takes ~20% longer cold).
  const Clock::time_point p0 = Clock::now();
  for (std::size_t i = 0; i < st->inputs.size(); ++i) (void)call(*st, static_cast<int>(i));
  d.prime_s = ms_since(p0) / 1000.0;

  std::unique_ptr<Replayer> replay;
  if (tr != nullptr) replay = std::make_unique<Replayer>(*tr, d.layers);
  kp::Rng rng(opt.seed);
  std::vector<int> order = iota_order(st->inputs.size());
  const kp::ServiceStats before = st->service->stats();
  run_passes(d, opt.seconds, make, [&] {
    shuffle(order, rng);
    for (const int input : order) {
      kp::Analysis a;
      int span = -1;
      double ms = 0;
      std::string why = time_call(d, tr, span, ms, [&](int, i64) { a = call(*st, input); });
      if (why.empty()) why = mismatch(a, ref[static_cast<std::size_t>(input)].expected);
      d.record(input, ms, why.empty() ? 1 : 0);
      if (!why.empty()) d.fail(st->inputs[static_cast<std::size_t>(input)].name + ": " + why);
      d.layers.requests += 1;
      d.layers.needed_solves += 1;  // the cache is off: every call is a solve
      d.layers.solver_ms += a.build_ms + a.solve_ms;
      if (replay) {
        record_queue(d.layers, a);
        // The result cache is off, so the service builds no key.
        const Clock::time_point r0 = Clock::now();
        replay->request(span, d.attempted - 1, st->inputs[static_cast<std::size_t>(input)].graph,
                        options, /*with_copy=*/true);
        d.layers.replay_ms += ms_since(r0);
      }
    }
  });
  add_service_delta(d.layers, before, st->service->stats());
  return d;
}

// ---- serve-dup -----------------------------------------------------------------
//
// Duplicate-heavy serving traffic, built on the repeat-mix of
// bench/bench_batch: a batch is kBatch requests over kDistinct distinct
// graphs (90% of the requests repeat content of the same batch), and the
// graphs are shaped like that section's pool. A new graph stays in the
// traffic for ten batches: each batch introduces kFresh graphs and requests
// the kDistinct most recently introduced ones, so nine in ten of its
// distinct contents were seen in an earlier batch (dispatch hits) and the
// rest are new (misses, late hits, concurrent twin solves). Every distinct
// content is requested once; the other requests draw its recency rank
// from a Zipf law of exponent kZipf, newest most popular. The catalog holds
// twice the service's default cache capacity, so a graph that comes round
// again has been evicted and is new again; priming runs the stream until
// the cache is full, so every timed batch fills and evicts. README.md
// gives the source of each number, or says it is an assumption.

constexpr int kBatch = 2400;
constexpr int kDistinct = 240;
constexpr int kFresh = kDistinct / 10;
constexpr double kZipf = 0.8;
constexpr int kBatchesPerPass = 10;

struct ServeStream {
  u64 seed;
  i64 catalog;
  std::vector<double> zipf_cdf;  ///< over recency ranks, rank 0 = newest

  ServeStream(u64 s, i64 catalog_size) : seed(s), catalog(catalog_size) {
    double acc = 0;
    for (int r = 0; r < kDistinct; ++r) {
      acc += std::pow(r + 1.0, -kZipf);
      zipf_cdf.push_back(acc);
    }
    for (double& c : zipf_cdf) c /= acc;
  }

  /// Catalog ids of batch b (a pure function of seed and b); `fresh` gets
  /// the ids the batch introduces.
  void batch(i64 b, std::vector<int>& ids, std::vector<int>& fresh) const {
    kp::Rng rng(seed * 0x9E3779B97F4A7C15ULL + static_cast<u64>(b) + 1);
    const i64 newest = (b + 1) * kFresh - 1;  // stream position of the newest graph
    const i64 live = std::min<i64>(kDistinct, newest + 1);
    auto id = [&](i64 rank) { return static_cast<int>((newest - rank) % catalog); };
    fresh.clear();
    for (int r = 0; r < kFresh; ++r) fresh.push_back(id(r));
    ids.clear();
    for (i64 r = 0; r < live; ++r) ids.push_back(id(r));
    while (static_cast<int>(ids.size()) < kBatch) {
      const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53;
      const i64 rank = std::lower_bound(zipf_cdf.begin(), zipf_cdf.end(), u) - zipf_cdf.begin();
      if (rank < live) ids.push_back(id(rank));
    }
    shuffle(ids, rng);
  }
};

/// The graph shape of bench/bench_batch's repeat-mix pool.
std::vector<kp::CsdfGraph> serve_catalog(u64 seed, i64 size) {
  kp::Rng rng(seed);
  kp::RandomCsdfOptions gen;
  gen.min_tasks = 5;
  gen.max_tasks = 10;
  gen.max_phases = 3;
  gen.max_q = 8;
  std::vector<kp::CsdfGraph> catalog;
  catalog.reserve(static_cast<std::size_t>(size));
  for (i64 i = 0; i < size; ++i) catalog.push_back(kp::random_csdf(rng, gen));
  return catalog;
}

}  // namespace

RunData run_serve_dup(const RunOptions& opt, Tracer* tr) {
  RunData d;
  const kp::AnalysisOptions options;
  const kp::ServiceOptions service_options;  // one worker per core, cache on
  const auto cache_capacity = static_cast<i64>(service_options.result_cache_capacity);
  const ServeStream stream(opt.seed, 2 * cache_capacity);
  struct State {
    std::vector<kp::CsdfGraph> catalog;
    std::unique_ptr<kp::ThroughputService> service;
  };
  std::vector<int> ids, fresh;
  std::vector<kp::AnalysisRequest> reqs;
  // One call as a client makes it: the batch's requests are built, copying
  // each graph, and analyzed. `copy_ms` (when tracing) times the building.
  auto call = [&](State& st, int parent, i64 call_id, double* copy_ms) {
    const int cs = copy_ms != nullptr ? tr->open("model.copy", parent, call_id) : -1;
    reqs.clear();
    reqs.reserve(ids.size());
    for (const int id : ids) {
      reqs.push_back(kp::AnalysisRequest{.graph = st.catalog[static_cast<std::size_t>(id)],
                                         .method = kp::Method::KIter,
                                         .options = options});
    }
    if (cs >= 0) {
      tr->close(cs);
      *copy_ms += tr->ms(cs);
    }
    std::vector<kp::Analysis> results = st.service->analyze_batch(reqs);
    reqs.clear();
    return results;
  };

  auto make = [&] {
    auto s = std::make_unique<State>();
    s->catalog = serve_catalog(opt.seed, stream.catalog);
    s->service = std::make_unique<kp::ThroughputService>(service_options);
    stream.batch(0, ids, fresh);
    (void)call(*s, -1, 0, nullptr);  // warm-up: the stream's first batch
    return s;
  };
  const std::unique_ptr<State> st = set_up(d, make);
  d.workers = st->service->worker_count();

  std::vector<Expected> expected;
  expected.reserve(st->catalog.size());
  for (const kp::CsdfGraph& g : st->catalog) {
    expected.push_back(cold_expected(g, options));
    add_stats(d.inputs, g, final_constraint_arcs(g, options));
  }

  // Priming, untimed: the stream's next batches until the cache is full.
  // Only the last ten are sent whole; before them, sending each batch's
  // new graphs alone leaves the cache as the whole batches would.
  const Clock::time_point p0 = Clock::now();
  const i64 prime_batches = cache_capacity / kFresh + 1;
  i64 b = 1;
  for (; b <= prime_batches; ++b) {
    stream.batch(b, ids, fresh);
    if (b + 10 <= prime_batches) ids = fresh;
    (void)call(*st, -1, 0, nullptr);
  }
  d.prime_s = ms_since(p0) / 1000.0;

  std::unique_ptr<Replayer> replay;
  if (tr != nullptr) replay = std::make_unique<Replayer>(*tr, d.layers);
  double copy_ms = 0;  // request building inside the traced calls
  const kp::ServiceStats before = st->service->stats();
  auto one_batch = [&] {
    stream.batch(b, ids, fresh);
    std::vector<kp::Analysis> results;
    int span = -1;
    double ms = 0;
    std::string why = time_call(d, tr, span, ms, [&](int parent, i64 call_id) {
      results = call(*st, parent, call_id, tr != nullptr ? &copy_ms : nullptr);
    });
    const i64 call_id = d.attempted - 1;
    i64 good = 0;
    if (why.empty() && results.size() != ids.size()) why = "wrong result count";
    for (std::size_t j = 0; why.empty() && j < ids.size(); ++j) {
      const std::string w = mismatch(results[j], expected[static_cast<std::size_t>(ids[j])]);
      if (!w.empty()) {
        why = "catalog graph " + std::to_string(ids[j]) + ": " + w;
      } else {
        ++good;
      }
    }
    d.record(static_cast<int>(b), ms, good);
    if (!why.empty()) d.fail("batch " + std::to_string(b) + ": " + why);
    d.layers.requests += static_cast<double>(ids.size());
    d.layers.needed_solves += kFresh;
    if (replay) {
      const Clock::time_point r0 = Clock::now();
      for (const kp::Analysis& r : results) record_queue(d.layers, r);
      replay->keys(span, call_id, st->catalog, ids, options);
      std::vector<char> counted(fresh.size(), 0);
      for (std::size_t j = 0; j < results.size(); ++j) {
        const auto f = std::find(fresh.begin(), fresh.end(), ids[j]) - fresh.begin();
        if (f == static_cast<std::ptrdiff_t>(fresh.size()) || counted[static_cast<std::size_t>(f)]) {
          continue;
        }
        counted[static_cast<std::size_t>(f)] = 1;
        d.layers.solver_ms += results[j].build_ms + results[j].solve_ms;
      }
      for (const int id : fresh) {
        replay->request(span, call_id, st->catalog[static_cast<std::size_t>(id)], options,
                        /*with_copy=*/false);
      }
      d.layers.replay_ms += ms_since(r0);
    }
    ++b;
  };
  run_passes(d, opt.seconds, make, [&] {
    for (int k = 0; k < kBatchesPerPass; ++k) one_batch();
  });
  add_service_delta(d.layers, before, st->service->stats());
  d.layers.copy_ms = copy_ms;
  // The pool solves a batch's new contents in parallel: an estimate.
  d.layers.solve_share = 1.0 / d.workers;
  return d;
}

namespace {

// ---- dse-sweep -------------------------------------------------------------------
//
// Parametric design-space exploration on the Table-2 applications whose
// sweeps take a few milliseconds: Echo with fixed buffers (seconds per
// analysis) and H264Encoder (60 ms per capacity sweep, which would be two
// thirds of a pass) are left out. Buffer-capacity sweeps (marking
// deltas on the reverse "space:" buffers), execution-time ray sweeps
// served once per point and once symbolically, and random multi-mode
// scenarios.

// Several short sweeps per base, each on its own seed-chosen buffer or
// task, keep a pass's cost close to the same from seed to seed.
constexpr int kCapacitySweeps = 4;
constexpr int kCapacityPoints = 8;
constexpr int kRays = 3;
constexpr int kRayPoints = 12;
constexpr int kScenarios = 16;

struct DseCall {
  enum Kind { Capacity, Ray, RaySymbolic, Scenario } kind = Capacity;
  std::string name;
  kp::CsdfGraph base;
  std::vector<kp::GraphDelta> deltas;
  kp::ScenarioGraph scenario;
  std::vector<Expected> expected;  ///< per variant, or per scenario state
  kp::ScenarioStatus scenario_status = kp::ScenarioStatus::Budget;
  kp::Rational scenario_period;
};

std::vector<DseCall> dse_calls(u64 seed) {
  kp::Rng rng(seed);
  std::vector<DseCall> calls;
  for (const kp::NamedGraph& app : kp::make_csdf_applications()) {
    if (app.name == "H264Encoder") continue;
    for (int k = 0; app.name != "Echo" && k < kCapacitySweeps; ++k) {
      DseCall c;
      c.kind = DseCall::Capacity;
      c.name = app.name + " capacity sweep " + std::to_string(k);
      c.base = kp::with_buffer_capacities(app.graph);
      const i64 first_reverse = app.graph.buffer_count();
      const auto r =
          static_cast<kp::BufferId>(rng.uniform(first_reverse, c.base.buffer_count() - 1));
      const kp::Buffer& rb = c.base.buffer(r);
      const i64 step = std::max<i64>(1, (rb.total_prod + rb.total_cons) / 4);
      for (int j = 0; j < kCapacityPoints; ++j) {
        kp::GraphDelta delta;
        delta.markings.push_back({r, rb.initial_tokens + j * step});
        c.deltas.push_back(std::move(delta));
      }
      calls.push_back(std::move(c));
    }
    for (int k = 0; k < kRays; ++k) {
      kp::ExecTimeRay ray;
      kp::ExecTimeRay::Axis axis;
      axis.task = static_cast<kp::TaskId>(rng.uniform(0, app.graph.task_count() - 1));
      axis.base = app.graph.task(axis.task).durations;
      for (const i64 dur : axis.base) {
        axis.step.push_back(std::max<i64>(1, dur / 8) * rng.uniform(1, 3));
      }
      ray.axes.push_back(std::move(axis));
      std::vector<i64> s(kRayPoints);
      for (int j = 0; j < kRayPoints; ++j) s[static_cast<std::size_t>(j)] = j;
      DseCall c;
      c.kind = DseCall::Ray;
      c.name = app.name + " exec-time ray " + std::to_string(k);
      c.base = app.graph;
      c.deltas = kp::exec_time_sweep(app.graph, ray, s);
      DseCall sym = c;
      sym.kind = DseCall::RaySymbolic;
      sym.name += " (symbolic)";
      calls.push_back(std::move(c));
      calls.push_back(std::move(sym));
    }
  }
  for (int i = 0; i < kScenarios; ++i) {
    DseCall c;
    c.kind = DseCall::Scenario;
    c.name = "scenario " + std::to_string(i);
    c.scenario = kp::random_scenario(rng);
    calls.push_back(std::move(c));
  }
  return calls;
}

/// Cold per-point answers: every variant (or scenario state) solved on its
/// own by a fresh single-worker, cache-off service, and the scenario verdict
/// combined from those.
void dse_expected(DseCall& c, const kp::AnalysisOptions& o, InputStats& stats) {
  const kp::CsdfGraph& base = c.kind == DseCall::Scenario ? c.scenario.base : c.base;
  std::vector<kp::Analysis> cold;
  auto solve = [&](const kp::GraphDelta& delta) {
    const kp::CsdfGraph v = kp::make_variant(base, delta);
    cold.push_back(kp::analyze_throughput(v, kp::Method::KIter, o));
    c.expected.push_back(expected_of(cold.back()));
    add_stats(stats, v, final_constraint_arcs(v, o));
  };
  if (c.kind == DseCall::Scenario) {
    for (const kp::ScenarioState& s : c.scenario.states) solve(s.delta);
    const kp::ScenarioAnalysis w = kp::scenario_worst_case(c.scenario, std::move(cold));
    c.scenario_status = w.status;
    c.scenario_period = w.worst_period;
  } else {
    for (const kp::GraphDelta& delta : c.deltas) solve(delta);
  }
}

}  // namespace

RunData run_dse_sweep(const RunOptions& opt, Tracer* tr) {
  RunData d;
  d.pinned_cpu = pin_to_current_cpu();
  const kp::AnalysisOptions options;
  struct State {
    std::vector<DseCall> calls;
    std::unique_ptr<kp::ThroughputService> service;
  };
  struct Answer {
    std::vector<kp::Analysis> variants;
    kp::ScenarioAnalysis scenario;
  };
  // One call as a client makes it: the batch or scenario request is built,
  // copying the base and the deltas, and analyzed. `copy_ms` (when tracing)
  // times the building.
  auto call = [&](State& st, const DseCall& c, int parent, i64 call_id, double* copy_ms) {
    Answer out;
    const int cs = copy_ms != nullptr ? tr->open("model.copy", parent, call_id) : -1;
    auto built = [&] {
      if (cs < 0) return;
      tr->close(cs);
      *copy_ms += tr->ms(cs);
    };
    if (c.kind == DseCall::Scenario) {
      kp::ScenarioRequest req;
      req.scenario = c.scenario;
      built();
      out.scenario = st.service->analyze_scenario(req);
    } else {
      kp::VariantBatch batch;
      batch.base = c.base;
      batch.deltas = c.deltas;
      batch.symbolic = c.kind == DseCall::RaySymbolic;
      built();
      out.variants = st.service->analyze_variants(batch);
    }
    return out;
  };

  auto make = [&] {
    auto s = std::make_unique<State>();
    s->calls = dse_calls(opt.seed);
    kp::ServiceOptions so;
    so.threads = 0;  // inline: every request runs on the client's thread
    s->service = std::make_unique<kp::ThroughputService>(so);
    (void)call(*s, s->calls.front(), -1, 0, nullptr);  // warm-up
    return s;
  };
  const std::unique_ptr<State> st = set_up(d, make);
  d.workers = 0;  // inline
  for (DseCall& c : st->calls) dse_expected(c, options, d.inputs);
  // Priming: one untimed call per input.
  const Clock::time_point p0 = Clock::now();
  for (const DseCall& c : st->calls) (void)call(*st, c, -1, 0, nullptr);
  d.prime_s = ms_since(p0) / 1000.0;

  std::unique_ptr<Replayer> replay;
  if (tr != nullptr) replay = std::make_unique<Replayer>(*tr, d.layers);
  double copy_ms = 0;
  kp::Rng rng(opt.seed ^ 0x5DEECE66DULL);
  std::vector<int> order = iota_order(st->calls.size());
  const kp::ServiceStats before = st->service->stats();
  run_passes(d, opt.seconds, make, [&] {
    shuffle(order, rng);
    for (const int input : order) {
      const DseCall& c = st->calls[static_cast<std::size_t>(input)];
      Answer a;
      int span = -1;
      double ms = 0;
      std::string why = time_call(d, tr, span, ms, [&](int parent, i64 call_id) {
        a = call(*st, c, parent, call_id, tr != nullptr ? &copy_ms : nullptr);
      });
      const i64 call_id = d.attempted - 1;

      const std::vector<kp::Analysis>& got =
          c.kind == DseCall::Scenario ? a.scenario.states : a.variants;
      if (why.empty() && got.size() != c.expected.size()) why = "wrong result count";
      if (why.empty() && c.kind == DseCall::Scenario &&
          (a.scenario.status != c.scenario_status ||
           (c.scenario_status == kp::ScenarioStatus::Bounded &&
            a.scenario.worst_period != c.scenario_period))) {
        why = "scenario verdict differs from the cold combine";
      }
      i64 good = 0;
      std::vector<char> exact_solved(got.size(), 0);
      for (std::size_t j = 0; why.empty() && j < got.size(); ++j) {
        const std::string w = mismatch(got[j], c.expected[j]);
        if (!w.empty()) {
          why = "variant " + std::to_string(j) + ": " + w;
        } else {
          ++good;
        }
        exact_solved[j] = got[j].detail.rfind("symbolic region", 0) != 0;
      }
      d.record(input, ms, good);
      if (!why.empty()) d.fail(c.name + ": " + why);
      d.layers.requests += static_cast<double>(got.size());
      // Variants bypass the result cache; symbolic sweeps run on the
      // caller without queued jobs.
      if (c.kind != DseCall::RaySymbolic) d.layers.needed_solves += static_cast<double>(got.size());
      for (const kp::Analysis& r : got) d.layers.solver_ms += r.build_ms + r.solve_ms;

      if (replay) {
        for (const kp::Analysis& r : got) record_queue(d.layers, r);
        const Clock::time_point r0 = Clock::now();
        if (c.kind == DseCall::Scenario) {
          std::vector<kp::GraphDelta> deltas;
          for (const kp::ScenarioState& s : c.scenario.states) deltas.push_back(s.delta);
          replay->variants(span, call_id, c.scenario.base, deltas, options, nullptr);
          std::vector<kp::Analysis> states = a.scenario.states;
          d.layers.combine_ms += tr->run("scenario.combine", span, call_id, [&] {
            (void)kp::scenario_worst_case(c.scenario, std::move(states));
          });
        } else if (c.kind == DseCall::RaySymbolic) {
          for (const char e : exact_solved) d.layers.region_exact += e;
          replay->variants(span, call_id, c.base, c.deltas, options, &exact_solved);
        } else {
          replay->variants(span, call_id, c.base, c.deltas, options, nullptr);
        }
        d.layers.replay_ms += ms_since(r0);
      }
    }
  });
  add_service_delta(d.layers, before, st->service->stats());
  d.layers.copy_ms += copy_ms;
  return d;
}



std::vector<kp::NamedGraph> paper_sdf_inputs() {
  std::vector<kp::NamedGraph> all = kp::make_actual_dsp();
  for (auto&& part : {kp::make_mimic_dsp(20160605, 100), kp::make_lg_hsdf(20160606, 60),
                      kp::make_lg_transient(20160607, 60)}) {
    all.insert(all.end(), part.begin(), part.end());
  }
  return all;
}

std::vector<kp::NamedGraph> paper_csdf_inputs() {
  std::vector<kp::NamedGraph> rows;
  for (const kp::NamedGraph& ng : kp::make_csdf_applications()) {
    rows.push_back({ng.name + " (no buffer size)", ng.graph});
  }
  for (const kp::NamedGraph& ng : kp::make_csdf_applications()) {
    rows.push_back({ng.name + " (fixed buffers)", kp::with_buffer_capacities(ng.graph)});
  }
  for (const kp::NamedGraph& ng : kp::make_csdf_synthetic()) rows.push_back(ng);
  return rows;
}

// The structural pair caps of bench/bench_table1 and bench_table2; neither
// suite sets a wall-clock budget, so every answer is a pure function of the
// input (graph2 stops at this cap, deterministically).
kp::AnalysisOptions paper_sdf_options() {
  kp::AnalysisOptions o;
  o.kiter.max_constraint_pairs = kp::i128{20} * 1000 * 1000;
  return o;
}

kp::AnalysisOptions paper_csdf_options() {
  kp::AnalysisOptions o;
  o.kiter.max_constraint_pairs = kp::i128{30} * 1000 * 1000;
  return o;
}

i64 final_constraint_arcs(const kp::CsdfGraph& g, const kp::AnalysisOptions& o) {
  const kp::CsdfGraph ser = o.serialize_tasks ? kp::add_serialization_buffers(g) : g;
  const kp::RepetitionVector rv = kp::compute_repetition_vector(ser);
  if (!rv.consistent) return 0;
  kp::KIterOptions k = o.kiter;
  k.record_trace = true;
  k.want_schedule = false;
  const kp::KIterResult r = kp::kiter_throughput(ser, rv, k);
  return r.trace.empty() ? 0 : r.trace.back().constraint_arcs;
}

RunData run_paper_sdf(const RunOptions& opt, Tracer* tracer) {
  return run_paper(opt, tracer, "paper-sdf", &paper_sdf_inputs, paper_sdf_options());
}

RunData run_paper_csdf(const RunOptions& opt, Tracer* tracer) {
  return run_paper(opt, tracer, "paper-csdf", &paper_csdf_inputs, paper_csdf_options());
}

}  // namespace kpbench
