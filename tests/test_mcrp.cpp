// Tests for the MCRP solvers: the exact cycle-ratio engine, Howard's
// policy iteration and Karp's max cycle mean, cross-checked on random
// instances; the exact positive-cycle kernel (has_positive_cycle) against
// the optimal ratio and brute-force cycle enumeration, on integer and
// Rational labels; and the schedule potentials against the Rational
// worklist relaxation they replaced, bit for bit.
#include <gtest/gtest.h>

#include <array>
#include <deque>
#include <optional>
#include <vector>

#include "mcrp/cycle_ratio.hpp"
#include "mcrp/howard.hpp"
#include "mcrp/karp.hpp"
#include "util/rng.hpp"

namespace kp {
namespace {

BivaluedGraph single_loop(i64 cost, const Rational& time) {
  BivaluedGraph g(1);
  g.add_arc(0, 0, cost, time);
  return g;
}

TEST(CycleRatio, SelfLoop) {
  const McrpResult r = solve_max_cycle_ratio(single_loop(6, Rational{2}));
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_EQ(r.ratio, Rational{3});
  EXPECT_EQ(r.critical_cycle.size(), 1u);
}

TEST(CycleRatio, PicksMaxOfTwoLoops) {
  BivaluedGraph g(2);
  g.add_arc(0, 0, 3, Rational{1});                 // ratio 3
  g.add_arc(1, 1, 10, Rational{4});                // ratio 5/2 < 3
  const McrpResult r = solve_max_cycle_ratio(g);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_EQ(r.ratio, Rational{3});
}

TEST(CycleRatio, TwoArcCycleExactFraction) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 5, Rational::of(1, 3));
  g.add_arc(1, 0, 2, Rational::of(1, 7));
  const McrpResult r = solve_max_cycle_ratio(g);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  // (5+2) / (1/3+1/7) = 7 / (10/21) = 147/10
  EXPECT_EQ(r.ratio, Rational::of(147, 10));
  EXPECT_EQ(r.critical_cycle.size(), 2u);
}

TEST(CycleRatio, NoCycle) {
  BivaluedGraph g(3);
  g.add_arc(0, 1, 5, Rational{1});
  g.add_arc(1, 2, 5, Rational{1});
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::NoCycle);
}

TEST(CycleRatio, InfeasibleNegativeTime) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 1, Rational{1});
  g.add_arc(1, 0, 1, Rational{-2});  // H(c) = -1 < 0, L(c) = 2 > 0
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
  EXPECT_EQ(r.critical_cycle.size(), 2u);
}

TEST(CycleRatio, InfeasibleZeroTimePositiveCost) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 1, Rational{1});
  g.add_arc(1, 0, 1, Rational{-1});  // H(c) = 0, L(c) = 2
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
}

TEST(CycleRatio, InfeasibleHiddenBehindFeasibleLoop) {
  // The negative-H circuit has weight 0 at λ=0 and only becomes visible
  // once λ rises — the solver must still find it.
  BivaluedGraph g(3);
  g.add_arc(0, 0, 4, Rational{2});   // feasible, ratio 2
  g.add_arc(1, 2, 3, Rational{1});
  g.add_arc(2, 1, 3, Rational{-2});  // H(c) = -1 < 0: infeasible
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
}

TEST(CycleRatio, ZeroCostCircuitsGiveZeroRatio) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 0, Rational{1});
  g.add_arc(1, 0, 0, Rational{1});
  const McrpResult r = solve_max_cycle_ratio(g);
  ASSERT_EQ(r.status, McrpStatus::Optimal);
  EXPECT_TRUE(r.ratio.is_zero());
  EXPECT_FALSE(r.critical_cycle.empty());
}

TEST(CycleRatio, ZeroCostNegativeTimeIsInfeasible) {
  // L(c) = 0, H(c) < 0 admits only the degenerate Ω = 0.
  BivaluedGraph g(2);
  g.add_arc(0, 1, 0, Rational{1});
  g.add_arc(1, 0, 0, Rational{-2});
  const McrpResult r = solve_max_cycle_ratio(g);
  EXPECT_EQ(r.status, McrpStatus::Infeasible);
}

TEST(CycleRatio, PotentialsSatisfyAllConstraints) {
  Rng rng(99);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 15));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 3 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 10),
                Rational(rng.uniform(1, 8), rng.uniform(1, 4)));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    ASSERT_EQ(r.potentials.size(), static_cast<std::size_t>(n));
    for (std::int32_t a = 0; a < g.arc_count(); ++a) {
      const auto& arc = g.graph().arc(a);
      const Rational lhs = r.potentials[static_cast<std::size_t>(arc.dst)] -
                           r.potentials[static_cast<std::size_t>(arc.src)];
      const Rational rhs = Rational{g.cost(a)} - r.ratio * g.time(a);
      EXPECT_GE(lhs, rhs) << "arc " << a << " round " << round;
    }
  }
}

TEST(CycleRatio, CriticalCycleAchievesRatio) {
  Rng rng(123);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 12));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 2 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(1, 9),
                Rational(rng.uniform(1, 9), 1));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    const Rational check =
        Rational(i128{g.cycle_cost(r.critical_cycle)}, 1) / g.cycle_time(r.critical_cycle);
    EXPECT_EQ(check, r.ratio);
    // The cycle is an actual path: consecutive arcs share endpoints.
    for (std::size_t i = 0; i < r.critical_cycle.size(); ++i) {
      const auto& cur = g.graph().arc(r.critical_cycle[i]);
      const auto& nxt = g.graph().arc(r.critical_cycle[(i + 1) % r.critical_cycle.size()]);
      EXPECT_EQ(cur.dst, nxt.src);
    }
  }
}

/// Random bi-valued graph with exactly `sccs` non-trivial strongly
/// connected components: rings of 1..5 nodes with random chords, chained by
/// forward-only arcs. With `force_infeasible`, one node gets a zero-H
/// positive-L self-loop (an unsatisfiable circuit).
BivaluedGraph random_clustered_bivalued(Rng& rng, std::int32_t sccs, bool force_infeasible) {
  std::vector<std::int32_t> first(static_cast<std::size_t>(sccs) + 1, 0);
  std::int32_t total = 0;
  for (std::int32_t c = 0; c < sccs; ++c) {
    first[static_cast<std::size_t>(c)] = total;
    total += static_cast<std::int32_t>(rng.uniform(1, 5));
  }
  first[static_cast<std::size_t>(sccs)] = total;
  BivaluedGraph g(total);
  const auto rnd_time = [&] { return Rational::of(rng.uniform(1, 6), rng.uniform(1, 4)); };
  for (std::int32_t c = 0; c < sccs; ++c) {
    const std::int32_t lo = first[static_cast<std::size_t>(c)];
    const std::int32_t m = first[static_cast<std::size_t>(c) + 1] - lo;
    if (m == 1) {
      g.add_arc(lo, lo, rng.uniform(0, 12), rnd_time());
      continue;
    }
    for (std::int32_t t = 0; t < m; ++t) {
      g.add_arc(lo + t, lo + (t + 1) % m, rng.uniform(0, 12), rnd_time());
    }
    for (std::int32_t t = 0; t < m; ++t) {
      if (rng.chance(1, 3)) {
        g.add_arc(lo + t, lo + static_cast<std::int32_t>(rng.uniform(0, m - 1)),
                  rng.uniform(0, 12), rnd_time());
      }
    }
  }
  for (std::int32_t c = 0; c + 1 < sccs; ++c) {
    g.add_arc(first[static_cast<std::size_t>(c)], first[static_cast<std::size_t>(c) + 1],
              rng.uniform(0, 12), rnd_time());
  }
  if (force_infeasible) {
    const auto v = static_cast<std::int32_t>(rng.uniform(0, total - 1));
    g.add_arc(v, v, 1 + rng.uniform(0, 5), Rational{0});
  }
  return g;
}

/// The reported circuit must realize the reported verdict: an Optimal
/// non-zero ratio is the circuit's L/H, an Infeasible witness has H < 0 or
/// H == 0 with L > 0.
void expect_cycle_certifies(const BivaluedGraph& g, const McrpResult& r) {
  if (r.status == McrpStatus::Optimal && !r.ratio.is_zero()) {
    ASSERT_FALSE(r.critical_cycle.empty());
    const Rational h = g.cycle_time(r.critical_cycle);
    ASSERT_FALSE(h.is_zero());
    EXPECT_EQ(Rational(i128{g.cycle_cost(r.critical_cycle)}, i128{1}) / h, r.ratio);
  } else if (r.status == McrpStatus::Infeasible) {
    ASSERT_FALSE(r.critical_cycle.empty());
    const Rational h = g.cycle_time(r.critical_cycle);
    const i64 l = g.cycle_cost(r.critical_cycle);
    EXPECT_TRUE(h < Rational{0} || (h.is_zero() && l > 0));
  }
}

TEST(CycleRatio, ExactModeMatchesAccelerated) {
  McrpOptions pure;
  pure.accelerate_with_double = false;
  Rng rng(321);
  for (int round = 0; round < 10; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(4, 14));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 3 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 20),
                Rational(rng.uniform(1, 12), rng.uniform(1, 5)));
    }
    const McrpResult fast = solve_max_cycle_ratio(g);
    const McrpResult slow = solve_max_cycle_ratio(g, pure);
    ASSERT_EQ(fast.status, slow.status);
    EXPECT_EQ(fast.ratio, slow.ratio);
  }
  // Multi-SCC inputs spanning 2..64 components, some forced infeasible:
  // the max must be taken across components, and a witness in any one
  // component condemns the whole graph.
  Rng multi(77);
  int infeasible_seen = 0;
  for (int round = 0; round < 110; ++round) {
    const auto sccs = static_cast<std::int32_t>(multi.uniform(2, 64));
    const bool force_infeasible = multi.chance(1, 8);
    const BivaluedGraph g = random_clustered_bivalued(multi, sccs, force_infeasible);
    infeasible_seen += force_infeasible;
    const McrpResult fast = solve_max_cycle_ratio(g);
    const McrpResult slow = solve_max_cycle_ratio(g, pure);
    ASSERT_EQ(fast.status, slow.status) << "round " << round;
    ASSERT_NE(fast.status, McrpStatus::NoCycle);
    if (force_infeasible) EXPECT_EQ(fast.status, McrpStatus::Infeasible);
    if (fast.status == McrpStatus::Optimal) EXPECT_EQ(fast.ratio, slow.ratio);
    expect_cycle_certifies(g, fast);
    expect_cycle_certifies(g, slow);
  }
  EXPECT_GT(infeasible_seen, 0);  // the sweep exercised the Infeasible path
}

TEST(CycleRatio, ExhaustingMaxIterationsThrows) {
  // Loops of ratio 1 and 3: the exact phase needs two improvements from
  // λ = 0, so a bound of 0 or 1 must not yield a (wrong) Optimal ratio.
  BivaluedGraph g(2);
  g.add_arc(0, 0, 1, Rational{1});
  g.add_arc(1, 1, 3, Rational{1});
  for (const bool potentials : {false, true}) {
    McrpOptions opt;
    opt.accelerate_with_double = false;
    opt.compute_potentials = potentials;
    for (const int bound : {0, 1}) {
      opt.max_iterations = bound;
      EXPECT_THROW((void)solve_max_cycle_ratio(g, opt), SolverError) << "bound " << bound;
    }
    opt.max_iterations = 100;
    const McrpResult r = solve_max_cycle_ratio(g, opt);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    EXPECT_EQ(r.ratio, Rational{3});
  }
}

/// Digraph with the same arcs as `bg`, for the plain-Digraph overload.
Digraph plain_copy(const BivaluedGraph& bg) {
  Digraph g(bg.node_count());
  for (const Digraph::Arc& a : bg.graph().arcs()) g.add_arc(a.src, a.dst);
  return g;
}

/// Total weight of `cycle` after checking it is a closed walk of `g`.
Rational closed_cycle_weight(const Digraph& g, const std::vector<std::int32_t>& cycle,
                             const std::vector<Rational>& w) {
  EXPECT_FALSE(cycle.empty());
  Rational sum{0};
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    EXPECT_EQ(g.arc(cycle[i]).dst, g.arc(cycle[(i + 1) % cycle.size()]).src);
    sum += w[static_cast<std::size_t>(cycle[i])];
  }
  return sum;
}

TEST(PositiveCycle, DecidesEveryCircuitBelowTheOptimalRatio) {
  // At λ < λ* the critical circuit is positive under L - λ·H; at λ >= λ*
  // no circuit is. One scratch serves every probe on a graph (warm core
  // reuse via the layout stamp), a fresh one the Digraph overload.
  Rng rng(4242);
  int checks = 0;
  for (int round = 0; round < 200; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(1, 12));
    BivaluedGraph g(n);
    const i64 arcs = rng.uniform(n, 3 * n);
    for (i64 i = 0; i < arcs; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 15),
                Rational::of(rng.uniform(1, 9), rng.uniform(1, 4)));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    if (r.status != McrpStatus::Optimal) continue;
    const Digraph plain = plain_copy(g);
    McrpScratch scratch;
    std::vector<Rational> w(static_cast<std::size_t>(g.arc_count()));
    for (const Rational& delta : {Rational::of(-1, 7), Rational{0}, Rational::of(1, 5)}) {
      const Rational lambda = r.ratio + delta;
      for (std::int32_t a = 0; a < g.arc_count(); ++a) {
        w[static_cast<std::size_t>(a)] = Rational{g.cost(a)} - lambda * g.time(a);
      }
      const bool expected = delta.sign() < 0;
      ASSERT_EQ(has_positive_cycle(g, w, scratch), expected) << "round " << round;
      if (expected) {
        EXPECT_GT(closed_cycle_weight(g.graph(), scratch.bf_cycle, w), Rational{0});
      }
      McrpScratch cold;
      ASSERT_EQ(has_positive_cycle(plain, w, cold), expected) << "round " << round;
      if (expected) EXPECT_GT(closed_cycle_weight(plain, cold.bf_cycle, w), Rational{0});
      ++checks;
    }
  }
  EXPECT_GT(checks, 300);
}

TEST(PositiveCycle, WitnessFoundAfterParentLinksAreOverwritten) {
  // On this graph the relaxation reaches a walk of n arcs after later
  // relaxations already overwrote the parent links of its positive loop;
  // the search must relax on until the parent graph holds a cycle again.
  const std::vector<std::array<i64, 4>> arcs = {
      {0, 1, 19, 2}, {2, 1, 12, 1}, {1, 1, 1, 2},  {0, 1, 11, 1}, {1, 3, 5, 1},
      {1, 1, -10, 3}, {3, 0, 19, 2}, {3, 2, -6, 1}, {0, 2, -5, 1}, {2, 0, 7, 2}};
  BivaluedGraph g(4);
  std::vector<Rational> w;
  for (const auto& [src, dst, num, den] : arcs) {
    g.add_arc(static_cast<std::int32_t>(src), static_cast<std::int32_t>(dst), 0, Rational{1});
    w.push_back(Rational::of(num, den));
  }
  McrpScratch scratch;
  ASSERT_TRUE(has_positive_cycle(g, w, scratch));
  EXPECT_GT(closed_cycle_weight(g.graph(), scratch.bf_cycle, w), Rational{0});
  McrpScratch plain_scratch;
  ASSERT_TRUE(has_positive_cycle(plain_copy(g), w, plain_scratch));
  EXPECT_GT(closed_cycle_weight(g.graph(), plain_scratch.bf_cycle, w), Rational{0});
}

/// Max total weight over the simple cycles of `g` (nullopt if acyclic), by
/// enumerating every arc path that closes at its smallest node.
std::optional<Rational> brute_max_cycle_weight(const Digraph& g, const std::vector<Rational>& w) {
  std::optional<Rational> best;
  std::vector<std::int8_t> on_path(static_cast<std::size_t>(g.node_count()), 0);
  const auto dfs = [&](const auto& self, std::int32_t start, std::int32_t v,
                       const Rational& sum) -> void {
    for (const std::int32_t a : g.out_arcs(v)) {
      const std::int32_t d = g.arc(a).dst;
      const Rational next = sum + w[static_cast<std::size_t>(a)];
      if (d == start) {
        if (!best || next > *best) best = next;
      } else if (d > start && on_path[static_cast<std::size_t>(d)] == 0) {
        on_path[static_cast<std::size_t>(d)] = 1;
        self(self, start, d, next);
        on_path[static_cast<std::size_t>(d)] = 0;
      }
    }
  };
  for (std::int32_t s = 0; s < g.node_count(); ++s) {
    on_path[static_cast<std::size_t>(s)] = 1;
    dfs(dfs, s, s, Rational{0});
    on_path[static_cast<std::size_t>(s)] = 0;
  }
  return best;
}

/// The first `count` (at most 16) primes above 2^25, shuffled by `rng`.
std::vector<i64> shuffled_large_primes(Rng& rng, std::size_t count) {
  static const std::vector<i64> first = [] {
    std::vector<i64> out;
    for (i64 c = (i64{1} << 25) + 1; out.size() < 16; c += 2) {
      bool prime = true;
      for (i64 f = 3; f * f <= c && prime; f += 2) prime = c % f != 0;
      if (prime) out.push_back(c);
    }
    return out;
  }();
  std::vector<i64> primes(first.begin(), first.begin() + static_cast<std::ptrdiff_t>(count));
  for (std::size_t i = primes.size() - 1; i > 0; --i) {
    std::swap(primes[i], primes[static_cast<std::size_t>(rng.uniform(0, static_cast<i64>(i)))]);
  }
  return primes;
}

/// Throws OverflowError iff the weights' common denominator leaves i128.
void common_denominator(const std::vector<Rational>& w) {
  i128 common = 1;
  for (const Rational& x : w) common = lcm128(common, x.den());
}

TEST(PositiveCycle, RationalFallbackMatchesBruteForce) {
  // Weights r/p with a distinct prime p > 2^25 per arc: with >= 6 arcs in
  // the one SCC the common denominator exceeds 2^150, so the scaled-i128
  // path cannot run and the Rational labels decide.
  Rng rng(2718);
  int positive = 0;
  for (int round = 0; round < 500; ++round) {
    BivaluedGraph g(4);
    for (std::int32_t v = 0; v < 4; ++v) g.add_arc(v, (v + 1) % 4, 0, Rational{1});
    const i64 extra = rng.uniform(2, 6);
    for (i64 i = 0; i < extra; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, 3)),
                static_cast<std::int32_t>(rng.uniform(0, 3)), 0, Rational{1});
    }
    const std::vector<i64> dens = shuffled_large_primes(rng, 10);
    std::vector<Rational> w;
    for (std::int32_t a = 0; a < g.arc_count(); ++a) {
      const i64 p = dens[static_cast<std::size_t>(a)];
      w.push_back(Rational::of(rng.uniform(-2 * p, p), p));
    }
    EXPECT_THROW(common_denominator(w), OverflowError);

    const std::optional<Rational> best = brute_max_cycle_weight(g.graph(), w);
    ASSERT_TRUE(best.has_value());  // the ring is a cycle
    const bool expected = best->sign() > 0;
    positive += expected;
    McrpScratch scratch;
    ASSERT_EQ(has_positive_cycle(g, w, scratch), expected) << "round " << round;
    if (expected) EXPECT_GT(closed_cycle_weight(g.graph(), scratch.bf_cycle, w), Rational{0});
    McrpScratch plain_scratch;
    EXPECT_EQ(has_positive_cycle(plain_copy(g), w, plain_scratch), expected) << "round " << round;
  }
  // Both verdicts were exercised.
  EXPECT_GT(positive, 50);
  EXPECT_LT(positive, 450);
}

/// The Rational worklist relaxation that compute_mcrp_potentials ran before
/// it moved onto the shared label kernel, kept as the reference: zero-source
/// longest paths over every arc under L - λ·H. Throws SolverError when a
/// positive circuit keeps it from converging.
std::vector<Rational> reference_potentials(const BivaluedGraph& bg, const Rational& lambda) {
  const Digraph& g = bg.graph();
  const auto n = static_cast<std::size_t>(g.node_count());
  std::vector<Rational> out(n, Rational{0});
  std::vector<std::int8_t> queued(n, 1);
  std::deque<std::int32_t> queue;
  for (std::int32_t v = 0; v < g.node_count(); ++v) queue.push_back(v);
  const i128 guard_limit = (i128{g.node_count()} + 1) * (i128{g.arc_count()} + 1);
  i128 guard = 0;
  while (!queue.empty()) {
    const std::int32_t u = queue.front();
    queue.pop_front();
    queued[static_cast<std::size_t>(u)] = 0;
    for (const std::int32_t a : g.out_arcs(u)) {
      if (++guard > guard_limit) throw SolverError("reference potentials did not converge");
      const auto v = static_cast<std::size_t>(g.arc(a).dst);
      Rational cand = out[static_cast<std::size_t>(u)] + Rational{bg.cost(a)} - lambda * bg.time(a);
      if (cand > out[v]) {
        out[v] = std::move(cand);
        if (!queued[v]) {
          queued[v] = 1;
          queue.push_back(static_cast<std::int32_t>(v));
        }
      }
    }
  }
  return out;
}

/// Bit-for-bit label identity: numerator and denominator of every entry.
void expect_same_labels(const std::vector<Rational>& got, const std::vector<Rational>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t v = 0; v < got.size(); ++v) {
    EXPECT_TRUE(got[v].num() == want[v].num() && got[v].den() == want[v].den())
        << "node " << v << ": " << got[v] << " vs " << want[v];
  }
}

/// Both potentials entry points against the reference at the solved ratio:
/// the solve's own pass, and a standalone pass on a fresh scratch.
void expect_reference_potentials(const BivaluedGraph& g, const McrpResult& r) {
  const std::vector<Rational> want = reference_potentials(g, r.ratio);
  expect_same_labels(r.potentials, want);
  McrpScratch scratch;
  std::vector<Rational> standalone;
  compute_mcrp_potentials(g, r.ratio, scratch, standalone);
  expect_same_labels(standalone, want);
}

/// Ring 0 -> 1 -> ... -> n-1 -> 0 of unit-H arcs plus random integer-H
/// chords, so λ* >= 1, and 6..8 zero-cost self-loops whose H denominators
/// are distinct primes above 2^25. At any λ > 0 each loop weighs -λ·H < 0
/// and keeps its prime, so the common denominator of the weights L - λ·H
/// exceeds 2^150 and the Rational labels decide; a negative loop never
/// raises a label, so no label sums two primes and none leaves i128.
BivaluedGraph prime_loop_graph(Rng& rng) {
  const std::int32_t n = 4;
  BivaluedGraph g(n);
  for (std::int32_t v = 0; v < n; ++v) g.add_arc(v, (v + 1) % n, rng.uniform(1, 20), Rational{1});
  const i64 chords = rng.uniform(0, 3);
  for (i64 i = 0; i < chords; ++i) {
    g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
              static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 20),
              Rational{rng.uniform(1, 3)});
  }
  const std::vector<i64> dens = shuffled_large_primes(rng, 8);
  const i64 loops = rng.uniform(6, 8);
  for (i64 i = 0; i < loops; ++i) {
    const i64 p = dens[static_cast<std::size_t>(i)];
    const auto v = static_cast<std::int32_t>(rng.uniform(0, n - 1));
    g.add_arc(v, v, 0, Rational::of(p + rng.uniform(1, p - 1), p));
  }
  return g;
}

/// Per-arc weights L - λ·H.
std::vector<Rational> ratio_weights(const BivaluedGraph& g, const Rational& lambda) {
  std::vector<Rational> w;
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    w.push_back(Rational{g.cost(a)} - lambda * g.time(a));
  }
  return w;
}

TEST(Potentials, MatchTheRationalWorklistReference) {
  Rng rng(8086);
  // Random cyclic graphs, some costs negative.
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("cyclic round " + std::to_string(round));
    const auto n = static_cast<std::int32_t>(rng.uniform(2, 16));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 3 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(-3, 12),
                Rational::of(rng.uniform(1, 8), rng.uniform(1, 5)));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    expect_reference_potentials(g, r);
  }
  // Acyclic graphs: NoCycle, potentials are the longest paths under L.
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("acyclic round " + std::to_string(round));
    const auto n = static_cast<std::int32_t>(rng.uniform(2, 16));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 2 * n; ++i) {
      const auto u = static_cast<std::int32_t>(rng.uniform(0, n - 2));
      g.add_arc(u, static_cast<std::int32_t>(rng.uniform(u + 1, n - 1)), rng.uniform(-5, 12),
                Rational::of(rng.uniform(1, 8), rng.uniform(1, 5)));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::NoCycle);
    expect_reference_potentials(g, r);
  }
  // Zero-cost circuits (λ = 0) feeding acyclic arcs of positive cost.
  for (int round = 0; round < 30; ++round) {
    SCOPED_TRACE("zero-cost round " + std::to_string(round));
    const auto ring = static_cast<std::int32_t>(rng.uniform(1, 6));
    const auto n = ring + static_cast<std::int32_t>(rng.uniform(1, 6));
    BivaluedGraph g(n);
    for (std::int32_t v = 0; v < ring; ++v) {
      g.add_arc(v, (v + 1) % ring, 0, Rational::of(rng.uniform(1, 8), rng.uniform(1, 5)));
    }
    for (std::int32_t v = ring; v < n; ++v) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, v - 1)), v, rng.uniform(0, 12),
                Rational::of(rng.uniform(-3, 8), rng.uniform(1, 5)));
    }
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    ASSERT_TRUE(r.ratio.is_zero());
    EXPECT_FALSE(r.critical_cycle.empty());
    expect_reference_potentials(g, r);
  }
  // Prime-denominator graphs: the Rational fallback relaxes the labels.
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("prime round " + std::to_string(round));
    const BivaluedGraph g = prime_loop_graph(rng);
    const McrpResult r = solve_max_cycle_ratio(g);
    ASSERT_EQ(r.status, McrpStatus::Optimal);
    EXPECT_THROW(common_denominator(ratio_weights(g, r.ratio)), OverflowError);
    expect_reference_potentials(g, r);
  }
}

TEST(Potentials, LambdaBelowTheOptimumThrows) {
  Rng rng(6502);
  int checks = 0;
  for (int round = 0; round < 40; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(1, 12));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 2 * n + 1; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 12),
                Rational::of(rng.uniform(1, 8), rng.uniform(1, 4)));
    }
    const BivaluedGraph primed = prime_loop_graph(rng);
    for (const BivaluedGraph* graph : std::array<const BivaluedGraph*, 2>{&g, &primed}) {
      const McrpResult r = solve_max_cycle_ratio(*graph);
      ASSERT_EQ(r.status, McrpStatus::Optimal);
      const Rational below = r.ratio - Rational::of(1, 7);
      McrpScratch scratch;
      std::vector<Rational> potentials;
      EXPECT_THROW(compute_mcrp_potentials(*graph, below, scratch, potentials), SolverError)
          << "round " << round;
      EXPECT_THROW((void)reference_potentials(*graph, below), SolverError) << "round " << round;
      ++checks;
    }
  }
  EXPECT_EQ(checks, 80);
}

/// Arc ids of the core a scratch's last label pass relaxed, in core order.
std::vector<std::int32_t> core_arc_ids(const McrpScratch& scratch) {
  std::vector<std::int32_t> ids;
  for (const McrpScratch::ArcRef& a : scratch.cyclic) ids.push_back(a.id);
  return ids;
}

TEST(Potentials, PassLeavesNoCoreALaterCallReuses) {
  // The potentials pass relaxes a core of all arcs. A scratch that just ran
  // one must answer a later stamp-matched warm solve and a later
  // has_positive_cycle exactly as a scratch that never ran it: the same
  // cold-derived SCC core, hence the same circuits and iteration counts.
  McrpOptions warm;
  warm.howard_warm_start = true;
  warm.compute_potentials = false;
  McrpOptions warm_with_potentials = warm;
  warm_with_potentials.compute_potentials = true;
  Rng rng(1729);
  for (int round = 0; round < 60; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    BivaluedGraph g =
        random_clustered_bivalued(rng, static_cast<std::int32_t>(rng.uniform(2, 10)), false);
    McrpScratch ran_potentials;
    McrpScratch never;
    McrpResult a;
    McrpResult b;
    solve_max_cycle_ratio(g, warm_with_potentials, ran_potentials, a);
    solve_max_cycle_ratio(g, warm, never, b);
    ASSERT_EQ(a.status, McrpStatus::Optimal);
    // Rewrite some L costs: the layout stamp holds, so warm solves may
    // reuse what the scratch recorded.
    for (std::int32_t arc = 0; arc < g.arc_count(); ++arc) {
      if (rng.chance(1, 3)) g.set_cost(arc, rng.uniform(0, 12));
    }
    solve_max_cycle_ratio(g, warm, ran_potentials, a);
    solve_max_cycle_ratio(g, warm, never, b);
    ASSERT_EQ(a.status, b.status);
    EXPECT_EQ(core_arc_ids(ran_potentials), core_arc_ids(never));
    EXPECT_EQ(a.ratio, b.ratio);
    EXPECT_EQ(a.critical_cycle, b.critical_cycle);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(a.exact_iterations, b.exact_iterations);
    EXPECT_EQ(a.howard_iterations, b.howard_iterations);

    std::vector<Rational> potentials;
    compute_mcrp_potentials(g, a.ratio, ran_potentials, potentials);
    const std::vector<Rational> w = ratio_weights(g, a.ratio - Rational::of(1, 7));
    McrpScratch fresh;
    ASSERT_TRUE(has_positive_cycle(g, w, ran_potentials));
    ASSERT_TRUE(has_positive_cycle(g, w, fresh));
    EXPECT_EQ(core_arc_ids(ran_potentials), core_arc_ids(fresh));
    EXPECT_EQ(ran_potentials.bf_cycle, fresh.bf_cycle);
  }
}

TEST(CycleRatio, RationalFallbackMatchesBruteForce) {
  // On the prime-denominator graphs the exact phase runs on Rational
  // labels; its ratio must be the brute-force maximum — no circuit is
  // positive under L - λ·H and the best one weighs exactly 0 — and its
  // critical circuit a closed walk realizing it.
  Rng rng(1234);
  for (int round = 0; round < 100; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    const BivaluedGraph g = prime_loop_graph(rng);
    for (const bool accelerate : {true, false}) {
      McrpOptions options;
      options.accelerate_with_double = accelerate;
      const McrpResult r = solve_max_cycle_ratio(g, options);
      ASSERT_EQ(r.status, McrpStatus::Optimal);
      const std::vector<Rational> w = ratio_weights(g, r.ratio);
      EXPECT_THROW(common_denominator(w), OverflowError);
      const std::optional<Rational> best = brute_max_cycle_weight(g.graph(), w);
      ASSERT_TRUE(best.has_value());
      EXPECT_TRUE(best->is_zero()) << *best;
      EXPECT_EQ(closed_cycle_weight(g.graph(), r.critical_cycle, w), Rational{0});
      expect_cycle_certifies(g, r);
    }
  }
}

TEST(Howard, SelfLoop) {
  const HowardResult r = howard_max_ratio(single_loop(6, Rational{2}));
  ASSERT_EQ(r.status, HowardResult::Status::Optimal);
  EXPECT_NEAR(r.ratio, 3.0, 1e-9);
}

TEST(Howard, NoCycle) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 1, Rational{1});
  EXPECT_EQ(howard_max_ratio(g).status, HowardResult::Status::NoCycle);
}

TEST(Howard, InfeasibleCandidateReported) {
  BivaluedGraph g(2);
  g.add_arc(0, 1, 1, Rational{1});
  g.add_arc(1, 0, 1, Rational{-1});
  const HowardResult r = howard_max_ratio(g);
  EXPECT_EQ(r.status, HowardResult::Status::InfeasibleCandidate);
}

TEST(Howard, AgreesWithExactOnRandomGraphs) {
  Rng rng(777);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 20));
    BivaluedGraph g(n);
    for (i64 i = 0; i < 3 * n; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)), rng.uniform(0, 15),
                Rational(rng.uniform(1, 10), 1));
    }
    const McrpResult exact = solve_max_cycle_ratio(g);
    const HowardResult howard = howard_max_ratio(g);
    ASSERT_EQ(exact.status, McrpStatus::Optimal);
    ASSERT_EQ(howard.status, HowardResult::Status::Optimal) << "round " << round;
    EXPECT_NEAR(howard.ratio, exact.ratio.to_double(), 1e-6) << "round " << round;
  }
}

TEST(Karp, SimpleCycleMean) {
  Digraph g(3);
  std::vector<i64> w;
  g.add_arc(0, 1);
  w.push_back(2);
  g.add_arc(1, 2);
  w.push_back(4);
  g.add_arc(2, 0);
  w.push_back(3);
  const KarpResult r = karp_max_cycle_mean(g, w);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.max_cycle_mean, Rational{3});  // (2+4+3)/3
  EXPECT_EQ(r.cycle_arcs.size(), 3u);
}

TEST(Karp, PicksHeavierLoop) {
  Digraph g(3);
  std::vector<i64> w;
  g.add_arc(0, 0);
  w.push_back(5);
  g.add_arc(1, 2);
  w.push_back(9);
  g.add_arc(2, 1);
  w.push_back(2);
  const KarpResult r = karp_max_cycle_mean(g, w);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.max_cycle_mean, Rational::of(11, 2));
}

TEST(Karp, NoCycle) {
  Digraph g(2);
  std::vector<i64> w;
  g.add_arc(0, 1);
  w.push_back(1);
  EXPECT_FALSE(karp_max_cycle_mean(g, w).has_cycle);
}

TEST(Karp, WeightArityChecked) {
  Digraph g(2);
  g.add_arc(0, 1);
  EXPECT_THROW((void)karp_max_cycle_mean(g, {}), ModelError);
}

// Pins the oversized-SCC fallback: above the node threshold the component
// is routed through the exact cycle-ratio solver instead of throwing (the
// old behavior) and the value — including with negative weights, which the
// fallback must shift around the ratio solver's λ >= 0 clamp — matches the
// DP path bit for bit.
TEST(Karp, OversizedSccFallsBackToExactSolver) {
  Rng rng(321);
  for (int round = 0; round < 20; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(4, 20));
    Digraph g(n);
    std::vector<i64> w;
    // A big cycle through everything plus chords, so one SCC spans all of
    // g; mixed-sign weights exercise the shift.
    for (std::int32_t t = 0; t < n; ++t) {
      g.add_arc(t, (t + 1) % n);
      w.push_back(rng.uniform(-20, 20));
    }
    const i64 chords = rng.uniform(0, 2 * n);
    for (i64 i = 0; i < chords; ++i) {
      g.add_arc(static_cast<std::int32_t>(rng.uniform(0, n - 1)),
                static_cast<std::int32_t>(rng.uniform(0, n - 1)));
      w.push_back(rng.uniform(-20, 20));
    }
    const KarpResult dp = karp_max_cycle_mean(g, w);
    // Threshold 1 forces every non-trivial SCC through the fallback.
    const KarpResult fb = karp_max_cycle_mean(g, w, 1);
    ASSERT_EQ(dp.has_cycle, fb.has_cycle);
    ASSERT_TRUE(fb.has_cycle);
    EXPECT_EQ(fb.max_cycle_mean, dp.max_cycle_mean) << "round " << round;
    // The fallback's circuit realizes the reported mean exactly.
    i64 wc = 0;
    for (const auto a : fb.cycle_arcs) wc += w[static_cast<std::size_t>(a)];
    EXPECT_EQ(Rational(wc, static_cast<i128>(fb.cycle_arcs.size())), fb.max_cycle_mean);
  }
}

TEST(Karp, FallbackCoversMultiSccMix) {
  // Two SCCs: a 3-cycle (mean 3) and a 2-cycle (mean 11/2); with the
  // threshold between their sizes only the larger one takes the fallback,
  // and the merged maximum is still exact.
  Digraph g(5);
  std::vector<i64> w;
  g.add_arc(0, 1);
  w.push_back(2);
  g.add_arc(1, 2);
  w.push_back(4);
  g.add_arc(2, 0);
  w.push_back(3);
  g.add_arc(3, 4);
  w.push_back(9);
  g.add_arc(4, 3);
  w.push_back(2);
  g.add_arc(2, 3);  // bridge, no new cycle
  w.push_back(100);
  const KarpResult r = karp_max_cycle_mean(g, w, 2);
  ASSERT_TRUE(r.has_cycle);
  EXPECT_EQ(r.max_cycle_mean, Rational::of(11, 2));
}

// Cross-check sweep: on unit-time graphs, cycle ratio == cycle mean, so
// the exact solver, Howard and Karp must agree.
class SolverAgreement : public ::testing::TestWithParam<u64> {};

TEST_P(SolverAgreement, RatioEqualsMeanOnUnitTimeGraphs) {
  Rng rng(GetParam());
  for (int round = 0; round < 15; ++round) {
    const auto n = static_cast<std::int32_t>(rng.uniform(3, 25));
    Digraph dg(n);
    BivaluedGraph bg(n);
    std::vector<i64> weights;
    const i64 arcs = rng.uniform(n, 4 * n);
    for (i64 i = 0; i < arcs; ++i) {
      const auto s = static_cast<std::int32_t>(rng.uniform(0, n - 1));
      const auto d = static_cast<std::int32_t>(rng.uniform(0, n - 1));
      const i64 w = rng.uniform(0, 50);
      dg.add_arc(s, d);
      weights.push_back(w);
      bg.add_arc(s, d, w, Rational{1});
    }
    const KarpResult karp = karp_max_cycle_mean(dg, weights);
    const McrpResult exact = solve_max_cycle_ratio(bg);
    if (!karp.has_cycle) {
      EXPECT_EQ(exact.status, McrpStatus::NoCycle);
      continue;
    }
    ASSERT_EQ(exact.status, McrpStatus::Optimal);
    EXPECT_EQ(exact.ratio, karp.max_cycle_mean) << "round " << round;
    // Karp's extracted circuit achieves its reported mean.
    i64 wc = 0;
    for (const auto a : karp.cycle_arcs) wc += weights[static_cast<std::size_t>(a)];
    EXPECT_EQ(Rational(wc, static_cast<i128>(karp.cycle_arcs.size())), karp.max_cycle_mean);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SolverAgreement, ::testing::Values(41, 42, 43, 44, 45));

}  // namespace
}  // namespace kp
