#include "model/repetition.hpp"

#include <vector>

namespace kp {

RepetitionVector compute_repetition_vector(const CsdfGraph& g) {
  RepetitionVector result;
  const std::int32_t n = g.task_count();
  result.q.assign(static_cast<std::size_t>(n), 0);
  if (n == 0) {
    result.consistent = true;
    return result;
  }

  // Fractional rate f_t per task, propagated over the undirected adjacency:
  // buffer (t -> t') forces f_t' = f_t * i_b / o_b.
  std::vector<Rational> f(static_cast<std::size_t>(n));
  std::vector<bool> visited(static_cast<std::size_t>(n), false);
  std::vector<std::int32_t> component(static_cast<std::size_t>(n), -1);
  std::int32_t component_count = 0;

  std::vector<TaskId> queue;
  for (TaskId root = 0; root < n; ++root) {
    if (visited[static_cast<std::size_t>(root)]) continue;
    const std::int32_t comp = component_count++;
    f[static_cast<std::size_t>(root)] = Rational{1};
    visited[static_cast<std::size_t>(root)] = true;
    component[static_cast<std::size_t>(root)] = comp;
    queue.clear();
    queue.push_back(root);
    while (!queue.empty()) {
      const TaskId t = queue.back();
      queue.pop_back();
      auto relax = [&](TaskId other, const Rational& required) {
        if (!visited[static_cast<std::size_t>(other)]) {
          visited[static_cast<std::size_t>(other)] = true;
          component[static_cast<std::size_t>(other)] = comp;
          f[static_cast<std::size_t>(other)] = required;
          queue.push_back(other);
        } else if (f[static_cast<std::size_t>(other)] != required) {
          result.consistent = false;
          result.failure_reason = "rate mismatch at task '" + g.task(other).name + "'";
          return false;
        }
        return true;
      };
      // Self-loops constrain no other task, so they are skipped here; the
      // verification pass below still rejects one whose rates differ.
      for (const BufferId bid : g.out_buffers(t)) {
        const Buffer& b = g.buffer(bid);
        if (b.is_self_loop()) continue;
        // q_src * i_b = q_dst * o_b  =>  f_dst = f_src * i_b / o_b
        const Rational required =
            f[static_cast<std::size_t>(t)] * Rational(b.total_prod, b.total_cons);
        if (!relax(b.dst, required)) return result;
      }
      for (const BufferId bid : g.in_buffers(t)) {
        const Buffer& b = g.buffer(bid);
        if (b.is_self_loop()) continue;
        const Rational required =
            f[static_cast<std::size_t>(t)] * Rational(b.total_cons, b.total_prod);
        if (!relax(b.src, required)) return result;
      }
    }
  }

  // Scale each component to the smallest integer vector.
  for (std::int32_t comp = 0; comp < component_count; ++comp) {
    i128 den_lcm = 1;
    for (TaskId t = 0; t < n; ++t) {
      if (component[static_cast<std::size_t>(t)] != comp) continue;
      den_lcm = lcm128(den_lcm, f[static_cast<std::size_t>(t)].den());
    }
    i128 num_gcd = 0;
    std::vector<i128> scaled(static_cast<std::size_t>(n), 0);
    for (TaskId t = 0; t < n; ++t) {
      if (component[static_cast<std::size_t>(t)] != comp) continue;
      const Rational& ft = f[static_cast<std::size_t>(t)];
      const i128 v = checked_mul(ft.num(), den_lcm / ft.den());
      scaled[static_cast<std::size_t>(t)] = v;
      num_gcd = gcd128(num_gcd, v);
    }
    for (TaskId t = 0; t < n; ++t) {
      if (component[static_cast<std::size_t>(t)] != comp) continue;
      result.q[static_cast<std::size_t>(t)] = narrow64(scaled[static_cast<std::size_t>(t)] / num_gcd);
    }
  }

  // Verify every buffer (covers non-tree arcs and multi-arc disagreements).
  for (const Buffer& b : g.buffers()) {
    const i128 lhs = checked_mul(i128{result.q[static_cast<std::size_t>(b.src)]}, i128{b.total_prod});
    const i128 rhs = checked_mul(i128{result.q[static_cast<std::size_t>(b.dst)]}, i128{b.total_cons});
    if (lhs != rhs) {
      result.consistent = false;
      result.failure_reason = "buffer '" + b.name + "' violates q_t*i_b = q_t'*o_b";
      return result;
    }
  }

  result.consistent = true;
  result.sum = 0;
  for (const i64 qt : result.q) result.sum = checked_add(result.sum, i128{qt});
  return result;
}

}  // namespace kp
