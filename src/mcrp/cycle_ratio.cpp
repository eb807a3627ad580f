#include "mcrp/cycle_ratio.hpp"

#include <algorithm>
#include <cmath>

#include "graph/csr.hpp"
#include "graph/scc.hpp"
#include "util/error.hpp"

namespace kp {

namespace {

using ArcRef = McrpScratch::ArcRef;

/// Fixed-capacity FIFO over a scratch vector. At most one entry per node is
/// queued at a time (callers guard with a `queued` flag), so capacity
/// node_count + 1 never overflows and the buffer is reused allocation-free.
class RingQueue {
 public:
  RingQueue(std::vector<std::int32_t>& buf, std::int32_t capacity)
      : buf_(buf), cap_(static_cast<std::size_t>(capacity) + 1) {
    buf_.resize(cap_);
  }

  [[nodiscard]] bool empty() const noexcept { return head_ == tail_; }

  void push(std::int32_t v) noexcept {
    buf_[tail_] = v;
    tail_ = (tail_ + 1) % cap_;
  }

  std::int32_t pop() noexcept {
    const std::int32_t v = buf_[head_];
    head_ = (head_ + 1) % cap_;
    return v;
  }

 private:
  std::vector<std::int32_t>& buf_;
  std::size_t cap_;
  std::size_t head_ = 0;
  std::size_t tail_ = 0;
};

/// Finds any cycle in the parent-pointer graph (node -> src of its parent
/// arc). Writes the cycle's arc indices (into scratch.cyclic) in forward
/// traversal order to scratch.cycle_local; returns false if acyclic.
bool parent_graph_cycle(std::int32_t n, McrpScratch& s) {
  s.color.assign(static_cast<std::size_t>(n), 0);  // 0 new, 1 active, 2 done
  s.cycle_local.clear();
  for (std::int32_t start = 0; start < n; ++start) {
    if (s.color[static_cast<std::size_t>(start)] != 0 ||
        s.parent[static_cast<std::size_t>(start)] < 0) {
      continue;
    }
    s.path.clear();
    std::int32_t v = start;
    while (v >= 0 && s.color[static_cast<std::size_t>(v)] == 0) {
      s.color[static_cast<std::size_t>(v)] = 1;
      s.path.push_back(v);
      const std::int32_t pa = s.parent[static_cast<std::size_t>(v)];
      v = pa < 0 ? -1 : s.cyclic[static_cast<std::size_t>(pa)].src;
    }
    if (v >= 0 && s.color[static_cast<std::size_t>(v)] == 1) {
      // Cycle: the suffix of `path` starting at v. The walk visits cycle
      // nodes in reverse traversal order, so collecting each node's parent
      // arc while iterating the path backwards (stopping at v, then adding
      // v's own parent arc) yields the forward arc order.
      for (auto rit = s.path.rbegin(); rit != s.path.rend() && *rit != v; ++rit) {
        s.cycle_local.push_back(s.parent[static_cast<std::size_t>(*rit)]);
      }
      s.cycle_local.push_back(s.parent[static_cast<std::size_t>(v)]);
      for (const std::int32_t u : s.path) s.color[static_cast<std::size_t>(u)] = 2;
      return true;
    }
    for (const std::int32_t u : s.path) s.color[static_cast<std::size_t>(u)] = 2;
  }
  return false;
}

/// Queue-based (SPFA-style) longest-path relaxation with all-zero sources
/// over the scratch's core (scratch.cyclic + its CSR). Detects whether a
/// positive-weight cycle exists under `weights` (indexed like
/// scratch.cyclic) and extracts one into scratch.bf_cycle (original arc
/// ids, traversal order). Near-linear on the no-positive-cycle case that
/// dominates the improvement loop, O(n·m) worst case like round-based
/// Bellman–Ford. `Label` is Rational, or i128 for weights pre-scaled to a
/// common denominator — the caller then guarantees 2(n+1)·max|weight|
/// fits i128, which bounds every label (see the cycle search below).
template <typename Label>
bool bf_positive_cycle(std::int32_t n, const std::vector<Label>& weights, std::vector<Label>& dist,
                       McrpScratch& s) {
  dist.assign(static_cast<std::size_t>(n), Label{});
  s.parent.assign(static_cast<std::size_t>(n), -1);
  // Arc count of the relaxation walk that realized each label.
  s.len.assign(static_cast<std::size_t>(n), 0);
  s.queued.assign(static_cast<std::size_t>(n), 0);
  s.bf_cycle.clear();
  std::int32_t check_in = 1;  // long-walk relaxations until the next cycle search
  RingQueue queue(s.ring, n);
  for (std::int32_t v = 0; v < n; ++v) {
    if (s.out_offsets[static_cast<std::size_t>(v)] !=
        s.out_offsets[static_cast<std::size_t>(v) + 1]) {
      queue.push(v);
      s.queued[static_cast<std::size_t>(v)] = 1;
    }
  }

  while (!queue.empty()) {
    const std::int32_t u = queue.pop();
    s.queued[static_cast<std::size_t>(u)] = 0;
    const auto lo = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u)]);
    const auto hi = static_cast<std::size_t>(s.out_offsets[static_cast<std::size_t>(u) + 1]);
    for (std::size_t k = lo; k < hi; ++k) {
      const std::int32_t i = s.out_ids[k];
      const ArcRef& a = s.cyclic[static_cast<std::size_t>(i)];
      Label cand = dist[static_cast<std::size_t>(a.src)] + weights[static_cast<std::size_t>(i)];
      if (!(cand > dist[static_cast<std::size_t>(a.dst)])) continue;
      dist[static_cast<std::size_t>(a.dst)] = std::move(cand);
      s.parent[static_cast<std::size_t>(a.dst)] = i;
      s.len[static_cast<std::size_t>(a.dst)] = s.len[static_cast<std::size_t>(a.src)] + 1;
      // A label realized by a walk of n arcs proves a positive cycle: the
      // walk repeats a node, and a non-positive loop could not have raised
      // the label. Its parent links usually still form that cycle, but later
      // relaxations may have overwritten them; then relax on and search
      // again after n more long-walk relaxations. Labels only rise, and an
      // acyclic parent graph bounds each by its tree path's weight, so once
      // one exceeds every simple-path weight P the parent graph stays cyclic
      // (any cycle in it is positive) and the next search finds it. Labels
      // reach at most P + (n+1)·max|weight| by then.
      if (s.len[static_cast<std::size_t>(a.dst)] >= n && --check_in == 0) {
        if (parent_graph_cycle(n, s)) {
          s.bf_cycle.reserve(s.cycle_local.size());
          for (const std::int32_t local : s.cycle_local) {
            s.bf_cycle.push_back(s.cyclic[static_cast<std::size_t>(local)].id);
          }
          return true;
        }
        check_in = n;
      }
      if (!s.queued[static_cast<std::size_t>(a.dst)]) {
        s.queued[static_cast<std::size_t>(a.dst)] = 1;
        queue.push(a.dst);
      }
    }
  }
  return false;
}

/// True if the circuit makes the constraint system unsatisfiable for every
/// positive period: H(c) < 0, or H(c) == 0 with L(c) > 0.
bool is_infeasible_circuit(i64 cost, const Rational& time) {
  return time.sign() < 0 || (time.is_zero() && cost > 0);
}

/// (Re)derives the scratch's core — the arcs a label pass relaxes — and its
/// CSR adjacency for `g` (which must be finalized). With `scc_filter` it is
/// the SCC-restricted cyclic core, and `stamp` is recorded as the warm key
/// so a later stamp-matching solve or positive-cycle check reuses it (stamp
/// 0 records nothing). Without it the core is every arc (the potentials
/// pass) and no key is recorded, so no call mistakes it for a cyclic core.
void derive_core(const Digraph& g, std::uint64_t stamp, McrpScratch& scratch,
                 bool scc_filter = true) {
  const std::int32_t n = g.node_count();
  scratch.warm_stamp = 0;
  // Circuits live inside strongly connected components; restrict the
  // cycle search to arcs whose endpoints share an SCC.
  if (scc_filter) strongly_connected_components(g, scratch.scc, scratch.scc_result);
  const std::vector<std::int32_t>& component = scratch.scc_result.component_of;
  scratch.cyclic.clear();
  const std::span<const Digraph::Arc> all_arcs = g.arcs();
  for (std::int32_t a = 0; a < g.arc_count(); ++a) {
    const auto& e = all_arcs[static_cast<std::size_t>(a)];
    if (!scc_filter || component[static_cast<std::size_t>(e.src)] ==
                           component[static_cast<std::size_t>(e.dst)]) {
      scratch.cyclic.push_back(ArcRef{a, e.src, e.dst});
    }
  }
  if (!scratch.cyclic.empty()) {
    build_csr_index(n, scratch.cyclic, [](const ArcRef& a) { return a.src; },
                    scratch.out_offsets, scratch.out_ids, scratch.cursor);
  }
  scratch.warm_stamp = scc_filter ? stamp : 0;
  scratch.warm_nodes = n;
  scratch.warm_arcs = g.arc_count();
}

/// True when the scratch's cyclic core + CSR were derived from a graph with
/// this exact layout (node/arc topology and H payloads; L costs free).
bool core_reusable(const Digraph& g, std::uint64_t stamp, const McrpScratch& scratch) {
  return scratch.warm_stamp != 0 && scratch.warm_stamp == stamp &&
         scratch.warm_nodes == g.node_count() && scratch.warm_arcs == g.arc_count();
}

/// w_λ(e) = L(e) - λ·H(e), the arc weight of the improvement loop and the
/// potentials.
Rational ratio_weight(const BivaluedGraph& bg, const Rational& lambda, std::size_t arc) {
  return Rational(i128{bg.costs()[arc]}, 1) - lambda * bg.times()[arc];
}

/// The one label pass: bf_positive_cycle over the scratch's core under the
/// Rational weights `weight(arc id)`, gathered core-indexed into
/// scratch.weights. Integer first: every weight is scaled by the lcm of
/// their denominators — a positive factor, so every comparison, parent link
/// and found circuit is the Rational pass's — and i128 labels are relaxed.
/// Falls back to Rational labels when the scaling leaves no headroom for
/// label sums (|label| <= 2(n+1)·max|weight| must stay clear of the i128
/// range). `*scale` receives the factor, so a label reads back as
/// int_dist[v] / scale; 0 means Rational labels, in scratch.dist.
template <typename Weight>
bool relax_labels(std::int32_t n, McrpScratch& s, const Weight& weight, i128* scale = nullptr) {
  s.weights.resize(s.cyclic.size());
  for (std::size_t i = 0; i < s.cyclic.size(); ++i) {
    s.weights[i] = weight(static_cast<std::size_t>(s.cyclic[i].id));
  }
  i128 common = 1;
  try {
    for (const Rational& w : s.weights) common = lcm128(common, w.den());
    s.int_weights.resize(s.weights.size());
    i128 max_abs = 0;
    for (std::size_t i = 0; i < s.weights.size(); ++i) {
      const Rational& w = s.weights[i];
      s.int_weights[i] = checked_mul(w.num(), common / w.den());
      max_abs = std::max(max_abs, abs128(s.int_weights[i]));
    }
    constexpr i128 k_i128_max = static_cast<i128>((~static_cast<unsigned __int128>(0)) >> 1);
    if (max_abs > k_i128_max / (2 * (i128{n} + 1))) throw_overflow("label scale");
  } catch (const OverflowError&) {
    common = 0;  // magnitudes too large to scale: exact rationals decide
  }
  if (scale != nullptr) *scale = common;
  return common != 0 ? bf_positive_cycle(n, s.int_weights, s.int_dist, s)
                     : bf_positive_cycle(n, s.weights, s.dist, s);
}

/// Both has_positive_cycle overloads: `stamp` keys the cyclic-core reuse
/// (0 = always derive cold).
bool positive_cycle(const Digraph& g, std::uint64_t stamp, std::span<const Rational> weights,
                    McrpScratch& scratch) {
  g.finalize();
  if (weights.size() != static_cast<std::size_t>(g.arc_count())) {
    throw SolverError("has_positive_cycle: one weight per arc required");
  }
  if (!core_reusable(g, stamp, scratch)) derive_core(g, stamp, scratch);
  if (scratch.cyclic.empty()) return false;
  return relax_labels(g.node_count(), scratch, [&](std::size_t arc) { return weights[arc]; });
}

}  // namespace

McrpResult solve_max_cycle_ratio(const BivaluedGraph& bg, const McrpOptions& options) {
  McrpScratch scratch;
  McrpResult result;
  solve_max_cycle_ratio(bg, options, scratch, result);
  return result;
}

void solve_max_cycle_ratio(const BivaluedGraph& bg, const McrpOptions& options,
                           McrpScratch& scratch, McrpResult& out) {
  out.status = McrpStatus::NoCycle;
  out.ratio = Rational{0};
  out.critical_cycle.clear();
  out.potentials.clear();
  out.iterations = 0;
  out.exact_iterations = 0;
  out.howard_iterations = 0;

  const Digraph& g = bg.graph();
  const std::int32_t n = g.node_count();
  g.finalize();
  const std::span<const Rational> times = bg.times();

  // The cyclic core and its CSR depend only on topology, which the layout
  // stamp certifies unchanged (only L costs may have been rewritten via
  // set_cost since the scratch last saw this graph) — so a warm solve
  // skips the SCC pass and both derivations. Recorded unconditionally
  // after a cold derivation so a later warm call can reuse it.
  const std::uint64_t stamp = bg.layout_stamp();
  const bool reuse_core = options.howard_warm_start && core_reusable(g, stamp, scratch);
  if (!reuse_core) derive_core(g, stamp, scratch);
  auto& cyclic = scratch.cyclic;

  Rational lambda{0};
  auto& critical = scratch.critical;
  critical.clear();

  auto exact_cycle_ratio = [&](std::span<const std::int32_t> cycle, i64& cost_out,
                               Rational& time_out) {
    cost_out = bg.cycle_cost(cycle);
    time_out = bg.cycle_time(cycle);
  };

  if (!cyclic.empty()) {
    // ---- accelerated phase: Howard warm start ------------------------------
    // Double-precision policy iteration usually lands on (or next to) the
    // critical circuit; its candidate's *exact* ratio seeds λ so the exact
    // phase typically needs a single confirming pass. Purely best-effort:
    // any numeric trouble just falls through to the exact phase.
    if (options.accelerate_with_double) {
      try {
        howard_max_ratio(bg, kHowardDefaultMaxIterations, scratch.howard, scratch.howard_result,
                         options.howard_warm_start);
        const HowardResult& howard = scratch.howard_result;
        out.howard_iterations = howard.iterations;
        if (!howard.cycle.empty()) {
          i64 lc = 0;
          Rational hc;
          exact_cycle_ratio(howard.cycle, lc, hc);
          if (is_infeasible_circuit(lc, hc)) {
            out.status = McrpStatus::Infeasible;
            out.critical_cycle.assign(howard.cycle.begin(), howard.cycle.end());
            out.iterations = howard.iterations;
            return;
          }
          if (hc.sign() > 0) {
            Rational candidate = Rational(i128{lc}, 1) / hc;
            if (candidate > lambda) {
              lambda = std::move(candidate);
              critical.assign(howard.cycle.begin(), howard.cycle.end());
            }
          }
          out.iterations += howard.iterations;
        }
      } catch (const SolverError&) {
        // fall through to the exact phase from λ = 0
      }
    }

    // ---- exact phase: the result is determined here ------------------------
    const auto w_lambda = [&](std::size_t arc) { return ratio_weight(bg, lambda, arc); };
    for (int iter = 0;; ++iter) {
      if (!relax_labels(n, scratch, w_lambda)) break;
      i64 lc = 0;
      Rational hc;
      exact_cycle_ratio(scratch.bf_cycle, lc, hc);
      if (is_infeasible_circuit(lc, hc)) {
        out.status = McrpStatus::Infeasible;
        out.critical_cycle.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        out.iterations += 1;
        return;
      }
      if (hc.sign() <= 0) {
        throw SolverError("exact BF produced a zero-cost zero-time 'positive' circuit");
      }
      Rational candidate = Rational(i128{lc}, 1) / hc;
      if (!(candidate > lambda)) {
        throw SolverError("cycle-ratio improvement made no progress (invariant breach)");
      }
      if (iter >= options.max_iterations) {
        throw SolverError("cycle-ratio improvement exceeded max_iterations");
      }
      lambda = std::move(candidate);
      critical.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
      ++out.iterations;
      ++out.exact_iterations;
    }

    // λ == 0 corner: all circuits have zero total cost. Circuits with
    // negative H are then invisible to the improvement loop (their weight is
    // exactly zero at λ = 0) but still make the system infeasible; probe for
    // them with weights -H. Also try to surface a zero-ratio critical
    // circuit (weights +H) so callers can run the optimality test.
    if (lambda.is_zero()) {
      if (relax_labels(n, scratch, [&](std::size_t arc) { return -times[arc]; })) {
        out.status = McrpStatus::Infeasible;
        out.critical_cycle.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        return;
      }
      if (critical.empty()) {
        if (relax_labels(n, scratch, [&](std::size_t arc) { return times[arc]; })) {
          critical.assign(scratch.bf_cycle.begin(), scratch.bf_cycle.end());
        }
      }
    }
  }

  out.status = cyclic.empty() ? McrpStatus::NoCycle : McrpStatus::Optimal;
  if (out.status == McrpStatus::Optimal && critical.empty() && !lambda.is_zero()) {
    throw SolverError("optimal ratio without critical circuit (invariant breach)");
  }
  out.ratio = lambda;
  out.critical_cycle.assign(critical.begin(), critical.end());

  // ---- potentials: valid start times at the optimum ------------------------
  if (options.compute_potentials) {
    compute_mcrp_potentials(bg, lambda, scratch, out.potentials);
  }
}

bool has_positive_cycle(const BivaluedGraph& bg, std::span<const Rational> weights,
                        McrpScratch& scratch) {
  return positive_cycle(bg.graph(), bg.layout_stamp(), weights, scratch);
}

bool has_positive_cycle(const Digraph& g, std::span<const Rational> weights,
                        McrpScratch& scratch) {
  return positive_cycle(g, 0, weights, scratch);
}

void compute_mcrp_potentials(const BivaluedGraph& bg, const Rational& lambda,
                             McrpScratch& scratch, std::vector<Rational>& out) {
  const Digraph& g = bg.graph();
  const std::int32_t n = g.node_count();
  g.finalize();
  out.assign(static_cast<std::size_t>(n), Rational{0});
  // The kernel's zero-source labels over *all* arcs: their least fixed
  // point is unique, so it does not depend on the relaxation order.
  derive_core(g, 0, scratch, /*scc_filter=*/false);
  if (scratch.cyclic.empty()) return;
  i128 scale = 0;
  if (relax_labels(n, scratch, [&](std::size_t arc) { return ratio_weight(bg, lambda, arc); },
                   &scale)) {
    throw SolverError("potentials: a circuit is positive at lambda (below the max cycle ratio)");
  }
  for (std::size_t v = 0; v < out.size(); ++v) {
    out[v] = scale != 0 ? Rational(scratch.int_dist[v], scale) : scratch.dist[v];
  }
}

}  // namespace kp
