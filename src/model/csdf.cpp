#include "model/csdf.hpp"

#include <algorithm>

namespace kp {

// ---- shared storage ---------------------------------------------------------
//
// The count is intrusive so that own() can decide uniqueness with an acquire
// load: the last other owner drops its reference with a release decrement
// (after its final read of the block), and the acquire load that sees the
// count at one synchronizes with that decrement, so writing in place cannot
// race those reads. No standalone fences: the decrement itself is acq_rel,
// which ThreadSanitizer models.

CsdfGraph::Data::Data(const Data& other)
    : name(other.name),
      tasks(other.tasks),
      buffers(other.buffers),
      out_by_task(other.out_by_task),
      in_by_task(other.in_by_task) {}

CsdfGraph::CsdfGraph(std::string name) : data_(new Data()) { data_->name = std::move(name); }

CsdfGraph::CsdfGraph(const CsdfGraph& other) noexcept : data_(other.data_) {
  if (data_ != nullptr) data_->refs.fetch_add(1, std::memory_order_relaxed);
}

CsdfGraph& CsdfGraph::operator=(const CsdfGraph& other) noexcept {
  if (other.data_ != nullptr) other.data_->refs.fetch_add(1, std::memory_order_relaxed);
  release(std::exchange(data_, other.data_));
  return *this;
}

CsdfGraph& CsdfGraph::operator=(CsdfGraph&& other) noexcept {
  if (this != &other) release(std::exchange(data_, std::exchange(other.data_, nullptr)));
  return *this;
}

void CsdfGraph::release(Data* data) noexcept {
  if (data != nullptr && data->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) delete data;
}

const CsdfGraph::Data& CsdfGraph::empty_data() noexcept {
  static const Data empty;
  return empty;
}

CsdfGraph::Data& CsdfGraph::own(Detached& detached) {
  if (data_ == nullptr) {
    data_ = new Data();
  } else if (data_->refs.load(std::memory_order_acquire) != 1) {
    Data* fresh = new Data(*data_);
    detached.data = std::exchange(data_, fresh);
  }
  return *data_;
}

// ---- construction -----------------------------------------------------------

TaskId CsdfGraph::add_task(std::string name, std::vector<i64> phase_durations) {
  if (name.empty()) throw ModelError("task name must be non-empty");
  if (find_task(name)) throw ModelError("duplicate task name '" + name + "'");
  if (phase_durations.empty()) throw ModelError("task '" + name + "' needs at least one phase");
  for (const i64 d : phase_durations) {
    if (d < 0) throw ModelError("task '" + name + "' has a negative phase duration");
  }
  Detached detached;
  Data& data = own(detached);
  data.tasks.push_back(Task{std::move(name), std::move(phase_durations)});
  data.out_by_task.emplace_back();
  data.in_by_task.emplace_back();
  return task_count() - 1;
}

BufferId CsdfGraph::add_buffer(std::string name, TaskId src, TaskId dst, std::vector<i64> prod,
                               std::vector<i64> cons, i64 initial_tokens) {
  const Task& s = task(src);
  const Task& d = task(dst);
  if (name.empty()) name = s.name + "->" + d.name + "#" + std::to_string(buffer_count());
  if (static_cast<std::int32_t>(prod.size()) != s.phases()) {
    throw ModelError("buffer '" + name + "': production vector size " +
                     std::to_string(prod.size()) + " != phi(" + s.name + ") = " +
                     std::to_string(s.phases()));
  }
  if (static_cast<std::int32_t>(cons.size()) != d.phases()) {
    throw ModelError("buffer '" + name + "': consumption vector size " +
                     std::to_string(cons.size()) + " != phi(" + d.name + ") = " +
                     std::to_string(d.phases()));
  }
  if (initial_tokens < 0) throw ModelError("buffer '" + name + "': negative marking");

  Buffer b;
  b.name = std::move(name);
  b.src = src;
  b.dst = dst;
  b.prod = std::move(prod);
  b.cons = std::move(cons);
  b.initial_tokens = initial_tokens;

  b.cum_prod.assign(b.prod.size() + 1, 0);
  for (std::size_t p = 0; p < b.prod.size(); ++p) {
    if (b.prod[p] < 0) throw ModelError("buffer '" + b.name + "': negative production rate");
    b.cum_prod[p + 1] = checked_add(b.cum_prod[p], b.prod[p]);
  }
  b.total_prod = b.cum_prod.back();

  b.cum_cons.assign(b.cons.size() + 1, 0);
  for (std::size_t p = 0; p < b.cons.size(); ++p) {
    if (b.cons[p] < 0) throw ModelError("buffer '" + b.name + "': negative consumption rate");
    b.cum_cons[p + 1] = checked_add(b.cum_cons[p], b.cons[p]);
  }
  b.total_cons = b.cum_cons.back();

  if (b.total_prod <= 0) throw ModelError("buffer '" + b.name + "': i_b must be positive");
  if (b.total_cons <= 0) throw ModelError("buffer '" + b.name + "': o_b must be positive");

  // `s` and `d` name the pre-own() block: not used past this point.
  Detached detached;
  Data& data = own(detached);
  data.buffers.push_back(std::move(b));
  const BufferId id = buffer_count() - 1;
  data.out_by_task[static_cast<std::size_t>(src)].push_back(id);
  data.in_by_task[static_cast<std::size_t>(dst)].push_back(id);
  return id;
}

BufferId CsdfGraph::add_buffer(std::string name, TaskId src, TaskId dst, i64 prod_rate,
                               i64 cons_rate, i64 initial_tokens) {
  // Scalar rates are shorthand for "the same rate every phase"; most useful
  // for SDF tasks but well-defined for multi-phase endpoints too.
  const std::vector<i64> prod(static_cast<std::size_t>(task(src).phases()), prod_rate);
  const std::vector<i64> cons(static_cast<std::size_t>(task(dst).phases()), cons_rate);
  return add_buffer(std::move(name), src, dst, prod, cons, initial_tokens);
}

void CsdfGraph::set_durations(TaskId t, std::span<const i64> durations) {
  const Task& tk = task(t);  // bounds check
  if (static_cast<std::int32_t>(durations.size()) != tk.phases()) {
    throw ModelError("set_durations: task '" + tk.name + "' has " +
                     std::to_string(tk.phases()) + " phases, got " +
                     std::to_string(durations.size()) + " durations");
  }
  for (const i64 d : durations) {
    if (d < 0) throw ModelError("set_durations: task '" + tk.name + "' given a negative duration");
  }
  Detached detached;
  own(detached).tasks[static_cast<std::size_t>(t)].durations.assign(durations.begin(),
                                                                    durations.end());
}

void CsdfGraph::set_initial_tokens(BufferId b, i64 tokens) {
  const Buffer& buf = buffer(b);  // bounds check
  if (tokens < 0) throw ModelError("set_initial_tokens: buffer '" + buf.name + "': negative marking");
  Detached detached;
  own(detached).buffers[static_cast<std::size_t>(b)].initial_tokens = tokens;
}

void CsdfGraph::set_rates(BufferId b, std::span<const i64> prod, std::span<const i64> cons) {
  const Buffer& ref = buffer(b);  // bounds check
  if (prod.size() != ref.prod.size()) {
    throw ModelError("set_rates: buffer '" + ref.name + "': production vector size " +
                     std::to_string(prod.size()) + " != phi(src) = " +
                     std::to_string(ref.prod.size()));
  }
  if (cons.size() != ref.cons.size()) {
    throw ModelError("set_rates: buffer '" + ref.name + "': consumption vector size " +
                     std::to_string(cons.size()) + " != phi(dst) = " +
                     std::to_string(ref.cons.size()));
  }
  // Validate before mutating so a throw leaves the buffer untouched.
  i64 total_prod = 0;
  for (const i64 r : prod) {
    if (r < 0) throw ModelError("set_rates: buffer '" + ref.name + "': negative production rate");
    total_prod = checked_add(total_prod, r);
  }
  i64 total_cons = 0;
  for (const i64 r : cons) {
    if (r < 0) throw ModelError("set_rates: buffer '" + ref.name + "': negative consumption rate");
    total_cons = checked_add(total_cons, r);
  }
  if (total_prod <= 0) throw ModelError("set_rates: buffer '" + ref.name + "': i_b must be positive");
  if (total_cons <= 0) throw ModelError("set_rates: buffer '" + ref.name + "': o_b must be positive");

  Detached detached;
  Buffer& buf = own(detached).buffers[static_cast<std::size_t>(b)];
  buf.prod.assign(prod.begin(), prod.end());
  buf.cons.assign(cons.begin(), cons.end());
  buf.total_prod = total_prod;
  buf.total_cons = total_cons;
  for (std::size_t p = 0; p < buf.prod.size(); ++p) {
    buf.cum_prod[p + 1] = buf.cum_prod[p] + buf.prod[p];
  }
  for (std::size_t p = 0; p < buf.cons.size(); ++p) {
    buf.cum_cons[p + 1] = buf.cum_cons[p] + buf.cons[p];
  }
}

void CsdfGraph::set_name(std::string n) {
  Detached detached;
  own(detached).name = std::move(n);
}

// ---- access -----------------------------------------------------------------

const Task& CsdfGraph::task(TaskId t) const {
  if (t < 0 || t >= task_count()) throw ModelError("bad task id " + std::to_string(t));
  return data_->tasks[static_cast<std::size_t>(t)];
}

const Buffer& CsdfGraph::buffer(BufferId b) const {
  if (b < 0 || b >= buffer_count()) throw ModelError("bad buffer id " + std::to_string(b));
  return data_->buffers[static_cast<std::size_t>(b)];
}

i64 CsdfGraph::duration(TaskId t, std::int32_t phase) const {
  const Task& tk = task(t);
  if (phase < 1 || phase > tk.phases()) {
    throw ModelError("bad phase " + std::to_string(phase) + " for task '" + tk.name + "'");
  }
  return tk.durations[static_cast<std::size_t>(phase - 1)];
}

const std::vector<BufferId>& CsdfGraph::out_buffers(TaskId t) const {
  (void)task(t);  // bounds check
  return data_->out_by_task[static_cast<std::size_t>(t)];
}

const std::vector<BufferId>& CsdfGraph::in_buffers(TaskId t) const {
  (void)task(t);  // bounds check
  return data_->in_by_task[static_cast<std::size_t>(t)];
}

bool CsdfGraph::has_self_loop(TaskId t) const {
  const std::vector<BufferId>& outs = out_buffers(t);
  return std::any_of(outs.begin(), outs.end(), [&](BufferId b) {
    return data_->buffers[static_cast<std::size_t>(b)].is_self_loop();
  });
}

std::optional<TaskId> CsdfGraph::find_task(std::string_view name) const noexcept {
  const std::vector<Task>& ts = tasks();
  for (std::size_t t = 0; t < ts.size(); ++t) {
    if (ts[t].name == name) return static_cast<TaskId>(t);
  }
  return std::nullopt;
}

i128 CsdfGraph::produced_until(BufferId b, std::int32_t p, i128 n) const {
  const Buffer& buf = buffer(b);
  if (p < 1 || p > static_cast<std::int32_t>(buf.prod.size())) {
    throw ModelError("produced_until: bad phase");
  }
  return i128{buf.cum_prod[static_cast<std::size_t>(p)]} +
         checked_mul(n - 1, i128{buf.total_prod});
}

i128 CsdfGraph::consumed_until(BufferId b, std::int32_t p, i128 n) const {
  const Buffer& buf = buffer(b);
  if (p < 1 || p > static_cast<std::int32_t>(buf.cons.size())) {
    throw ModelError("consumed_until: bad phase");
  }
  return i128{buf.cum_cons[static_cast<std::size_t>(p)]} +
         checked_mul(n - 1, i128{buf.total_cons});
}

bool CsdfGraph::is_sdf() const noexcept {
  return std::all_of(tasks().begin(), tasks().end(),
                     [](const Task& t) { return t.phases() == 1; });
}

bool CsdfGraph::is_hsdf() const noexcept {
  if (!is_sdf()) return false;
  return std::all_of(buffers().begin(), buffers().end(), [](const Buffer& b) {
    return b.total_prod == 1 && b.total_cons == 1;
  });
}

i64 CsdfGraph::total_phases() const noexcept {
  i64 sum = 0;
  for (const auto& t : tasks()) sum += t.phases();
  return sum;
}

}  // namespace kp
