// Cyclo-Static Dataflow Graph model (§2.1 of the paper).
//
// A CSDFG G = (T, B): tasks decomposed into phases with integer durations;
// buffers (t -> t') carrying an initial marking M0 and cyclically repeating
// per-phase production (in_b) and consumption (out_b) rate vectors.
// Data are consumed *before* a phase executes and produced at its *end*
// (§3.1) — the simulator and the constraint generator share this timing.
//
// An SDF graph is the single-phase special case; HSDF additionally has all
// rates equal to one.
//
// CsdfGraph is a value type with shared, copy-on-write storage. A copy is
// O(1): it shares the source's storage and allocates nothing. The first
// mutation of a graph whose storage is shared detaches it (one deep copy);
// later mutations of the now-unique graph work in place. A reference
// returned by an accessor (task(), buffers(), name(), ...) stays valid until
// that same graph object is mutated or destroyed. Thread-safety is as for
// std::string: distinct graph objects — copies of one another included —
// may be read, mutated and destroyed concurrently on distinct threads, but
// one graph object must never be mutated concurrently with any other use.
// A default-constructed or moved-from graph holds no storage and reads as
// the empty graph named "csdf".
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/checked.hpp"
#include "util/error.hpp"

namespace kp {

using TaskId = std::int32_t;
using BufferId = std::int32_t;

/// One task t with phases 1..phi(t); phase p has duration d(t_p) >= 0.
struct Task {
  std::string name;
  std::vector<i64> durations;  // size phi(t) >= 1

  [[nodiscard]] std::int32_t phases() const noexcept {
    return static_cast<std::int32_t>(durations.size());
  }
};

/// One buffer b = (src -> dst). Cached cumulative rates make the paper's
/// Ia/Oa token-count formulas O(1).
struct Buffer {
  std::string name;
  TaskId src = -1;
  TaskId dst = -1;
  std::vector<i64> prod;  // in_b, indexed by src phase (size phi(src))
  std::vector<i64> cons;  // out_b, indexed by dst phase (size phi(dst))
  i64 initial_tokens = 0;  // M0(b)

  // Derived (filled by CsdfGraph::add_buffer):
  i64 total_prod = 0;           // i_b = sum(prod)
  i64 total_cons = 0;           // o_b = sum(cons)
  std::vector<i64> cum_prod;    // cum_prod[p] = sum_{a<=p} prod[a], 1-based size phi+1
  std::vector<i64> cum_cons;    // likewise for cons

  [[nodiscard]] bool is_self_loop() const noexcept { return src == dst; }
};

class CsdfGraph {
 public:
  CsdfGraph() noexcept = default;
  explicit CsdfGraph(std::string name);
  CsdfGraph(const CsdfGraph& other) noexcept;
  CsdfGraph(CsdfGraph&& other) noexcept : data_(std::exchange(other.data_, nullptr)) {}
  CsdfGraph& operator=(const CsdfGraph& other) noexcept;
  CsdfGraph& operator=(CsdfGraph&& other) noexcept;
  ~CsdfGraph() { release(data_); }

  // ---- construction ------------------------------------------------------

  /// Adds a task with one duration per phase (at least one phase).
  /// Task names must be unique and non-empty.
  TaskId add_task(std::string name, std::vector<i64> phase_durations);

  /// Single-phase (SDF) convenience.
  TaskId add_task(std::string name, i64 duration) {
    return add_task(std::move(name), std::vector<i64>{duration});
  }

  /// Adds a buffer src -> dst. `prod` must have phi(src) entries, `cons`
  /// phi(dst) entries; totals must be positive; marking must be >= 0.
  /// An empty name is auto-generated.
  BufferId add_buffer(std::string name, TaskId src, TaskId dst, std::vector<i64> prod,
                      std::vector<i64> cons, i64 initial_tokens);

  /// SDF convenience: scalar rates.
  BufferId add_buffer(std::string name, TaskId src, TaskId dst, i64 prod_rate, i64 cons_rate,
                      i64 initial_tokens);

  // ---- parametric mutation (model/transform.hpp, GraphDelta) --------------
  // Design-space exploration perturbs one knob of an otherwise-fixed graph
  // thousands of times; on an unshared graph these setters mutate in place
  // (retaining every vector's storage) instead of forcing a full-graph copy
  // per variant.
  // None of them may change the graph's shape: phase counts, task/buffer
  // counts and endpoints are construction-time decisions.

  /// Replaces t's phase durations. `durations` must have exactly phi(t)
  /// entries, each >= 0 (changing the phase count is a structural edit).
  void set_durations(TaskId t, std::span<const i64> durations);

  /// Replaces b's initial marking (>= 0).
  void set_initial_tokens(BufferId b, i64 tokens);

  /// Replaces b's rate vectors (sizes phi(src) / phi(dst), totals positive)
  /// and recomputes the cached totals and cumulative sums in place.
  void set_rates(BufferId b, std::span<const i64> prod, std::span<const i64> cons);

  // ---- access --------------------------------------------------------------

  [[nodiscard]] const std::string& name() const noexcept { return view().name; }
  void set_name(std::string n);

  [[nodiscard]] std::int32_t task_count() const noexcept {
    return data_ != nullptr ? static_cast<std::int32_t>(data_->tasks.size()) : 0;
  }
  [[nodiscard]] std::int32_t buffer_count() const noexcept {
    return data_ != nullptr ? static_cast<std::int32_t>(data_->buffers.size()) : 0;
  }

  [[nodiscard]] const Task& task(TaskId t) const;
  [[nodiscard]] const Buffer& buffer(BufferId b) const;
  [[nodiscard]] const std::vector<Task>& tasks() const noexcept { return view().tasks; }
  [[nodiscard]] const std::vector<Buffer>& buffers() const noexcept { return view().buffers; }

  [[nodiscard]] std::int32_t phases(TaskId t) const { return task(t).phases(); }

  /// d(t_p), 1-based phase index.
  [[nodiscard]] i64 duration(TaskId t, std::int32_t phase) const;

  /// Buffers entering / leaving a task (includes self-loops in both).
  [[nodiscard]] const std::vector<BufferId>& out_buffers(TaskId t) const;
  [[nodiscard]] const std::vector<BufferId>& in_buffers(TaskId t) const;

  /// True when some buffer of t is a self-loop (task serialization, in
  /// add_serialization_buffers or the constraint builder's serial rule,
  /// leaves such a task alone).
  [[nodiscard]] bool has_self_loop(TaskId t) const;

  [[nodiscard]] std::optional<TaskId> find_task(std::string_view name) const noexcept;

  /// The identity of this graph's storage block. Equal ids imply equal
  /// content: copies share the block until one of them is mutated, and a
  /// shared block is never mutated (only a sole holder edits in place, and
  /// keeps its id). Null when the graph holds no block (default-constructed
  /// or moved-from). An id names a block only while some graph holds it:
  /// once the last holder lets go, the address may be reused.
  [[nodiscard]] const void* storage_id() const noexcept { return data_; }

  // ---- the paper's token-count formulas (§3.1) -----------------------------

  /// Ia<t_p, n>: total data produced into b at the completion of the n-th
  /// execution of phase p of the producer (1-based p and n).
  [[nodiscard]] i128 produced_until(BufferId b, std::int32_t p, i128 n) const;

  /// Oa<t'_p', n'>: total data consumed from b at the completion of the
  /// n'-th execution of phase p' of the consumer.
  [[nodiscard]] i128 consumed_until(BufferId b, std::int32_t p, i128 n) const;

  /// True when every task has exactly one phase (the graph is an SDFG).
  [[nodiscard]] bool is_sdf() const noexcept;

  /// True when is_sdf() and all rates are 1 (the graph is an HSDFG).
  [[nodiscard]] bool is_hsdf() const noexcept;

  /// Sum of phi(t) over tasks.
  [[nodiscard]] i64 total_phases() const noexcept;

 private:
  /// The shared storage block. `refs` counts the graphs pointing at it; a
  /// clone starts with a count of one.
  struct Data {
    std::atomic<std::uint32_t> refs{1};
    std::string name{"csdf"};
    std::vector<Task> tasks;
    std::vector<Buffer> buffers;
    std::vector<std::vector<BufferId>> out_by_task;
    std::vector<std::vector<BufferId>> in_by_task;

    Data() = default;
    Data(const Data& other);
    Data& operator=(const Data&) = delete;
  };

  /// Holds the reference to the block a mutator detached from until the
  /// mutator returns, so arguments that alias the old storage (a span of
  /// this graph's own durations, say) stay valid for the whole call.
  struct Detached {
    Data* data = nullptr;
    ~Detached() { release(data); }
  };

  /// The storage every accessor reads; a shared empty block when there is
  /// none.
  [[nodiscard]] const Data& view() const noexcept {
    return data_ != nullptr ? *data_ : empty_data();
  }
  [[nodiscard]] static const Data& empty_data() noexcept;

  /// Makes this graph the sole owner of its storage and returns it: clones
  /// the block when it is shared (handing the old reference to `detached`)
  /// and allocates one when there is none. Every mutator validates first,
  /// then calls own(), then writes only through the returned block: a
  /// reference taken from the graph before own() names the old block.
  Data& own(Detached& detached);

  static void release(Data* data) noexcept;

  Data* data_ = nullptr;
};

}  // namespace kp
