// kpbench — runs one benchmark workload and prints its metrics.
//
//   kpbench --workload <paper-sdf|paper-csdf|serve-dup|dse-sweep> --seed <n>
//           --seconds <s> --trace <0|1> [--reference-dir <dir>] [--out-dir <dir>]
//   kpbench --make-reference <dir>
//
// The last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with the end-to-end metrics when --trace 0 and the per-layer metrics when
// --trace 1. Earlier lines carry the run record (seed, core count, workers,
// clients, pinned CPU, input statistics, as-observed rate and median call,
// call p99, failed share) and, when tracing, the tracing overhead. The
// traced run also writes its spans to <out-dir>/trace-<workload>-<seed>.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include "bench.hpp"

namespace kpbench {

bool Tracer::write_chrome_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[\n";
  for (std::size_t i = 0; i < std::min(spans_.size(), kMaxWrittenSpans); ++i) {
    const Span& s = spans_[i];
    char buf[320];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%zu,\"parent\":%d,\"call\":%lld}}\n",
                  i == 0 ? "" : ",", s.name, static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i, s.parent,
                  static_cast<long long>(s.call));
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

namespace {

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Nearest-rank percentile.
double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::clamp<std::size_t>(rank, 1, v.size()) - 1];
}

std::vector<double> call_ms(const RunData& d) {
  std::vector<double> ms;
  for (const CallSample& c : d.calls.kept()) ms.push_back(c.ms);
  return ms;
}

/// Each distinct input's fastest call of the run, by input. Timing noise
/// on a shared host only ever adds time to a call of fixed work, so the
/// fastest of an input's calls is the steadiest estimate of its cost
/// (README.md gives the measurements).
std::map<int, CallSample> fastest_calls(const RunData& d) {
  std::map<int, CallSample> best;
  for (const CallSample& c : d.calls.kept()) {
    const auto [it, added] = best.emplace(c.input, c);
    if (!added && c.ms < it->second.ms) it->second = c;
  }
  return best;
}

/// Correct answers per second when every input's call takes its fastest time.
double fastest_rate(const std::map<int, CallSample>& best) {
  double answers = 0, ms = 0;
  for (const auto& [input, c] : best) {
    answers += c.answers;
    ms += c.ms;
  }
  return ms > 0 ? answers / (ms / 1000.0) : 0;
}

std::vector<double> fastest_ms(const std::map<int, CallSample>& best) {
  std::vector<double> ms;
  for (const auto& [input, c] : best) ms.push_back(c.ms);
  return ms;
}

double geomean(const std::vector<double>& v) {
  double log_sum = 0;
  for (const double x : v) log_sum += std::log(std::max(x, 1e-9));
  return v.empty() ? 0 : std::exp(log_sum / static_cast<double>(v.size()));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// `rss_mb` is read as the run returns, before the metrics are computed.
std::vector<Metric> end_to_end(const RunData& d, double rss_mb) {
  const std::map<int, CallSample> best = fastest_calls(d);
  return {
      {"setup_s", median(d.setup_s), "s"},
      {"analyses_per_s", fastest_rate(best), "1/s"},
      {"call_p50_ms", median(fastest_ms(best)), "ms"},
      {"call_geomean_ms", geomean(fastest_ms(best)), "ms"},
      {"peak_rss_mb", rss_mb, "MB"},
  };
}

std::vector<Metric> per_layer(const RunData& d) {
  const Layers& l = d.layers;
  const double calls = std::max<double>(1, static_cast<double>(d.attempted));
  const double runs = std::max<double>(1, l.kiter_runs);
  const double cacheable = l.hits + l.misses;
  // Call time minus the replayed children, with the calls' own solver time
  // standing in for the replayed build and solve.
  const double api_self = d.timed_ms - l.copy_ms - l.key_ms - l.delta_ms - l.combine_ms -
                          l.solve_share * (l.serialize_ms + l.repetition_ms + l.kiter_self_ms +
                                           l.solver_ms + l.cert_ms);
  return {
      {"model.copy_ms", l.copy_ms / calls, "ms"},
      {"model.serialize_ms", l.serialize_ms / calls, "ms"},
      {"model.repetition_ms", l.repetition_ms / calls, "ms"},
      {"model.delta_ms", l.delta_ms / calls, "ms"},
      {"api.key_ms", l.key_ms / calls, "ms"},
      {"api.self_ms", api_self / calls, "ms"},
      {"api.hit_rate", cacheable > 0 ? l.hits / cacheable : 0, "ratio"},
      {"api.useful_solve_frac", l.executed > 0 ? l.needed_solves / l.executed : 1, "ratio"},
      {"api.steals_per_1k", l.requests > 0 ? 1000.0 * l.steals / l.requests : 0, "1/1k"},
      {"api.queue_p50_ms", median(l.queue_ms), "ms"},
      {"api.evictions", l.evictions / calls, "count"},
      {"core.kiter.rounds", l.rounds / runs, "count"},
      {"core.kiter.self_ms", l.kiter_self_ms / calls, "ms"},
      {"core.constraints.build_ms", l.build_ms / calls, "ms"},
      {"core.constraints.arcs", l.arcs / runs, "count"},
      {"core.constraints.patched_rounds", l.patched_rounds / calls, "count"},
      {"core.constraints.payload_rounds", l.payload_rounds / calls, "count"},
      {"core.constraints.rebuilt_rounds", l.rebuilt_rounds / calls, "count"},
      {"mcrp.solve_ms", l.solve_ms / calls, "ms"},
      {"mcrp.iterations", l.mcrp_iterations / runs, "count"},
      {"mcrp.exact_iterations", l.mcrp_exact / runs, "count"},
      {"mcrp.howard_iterations", l.mcrp_howard / runs, "count"},
      {"core.regions.exact_solves", l.region_exact / calls, "count"},
      {"core.regions.cert_ms", l.cert_ms / calls, "ms"},
      {"scenario.combine_ms", l.combine_ms / calls, "ms"},
  };
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void print_run_record(const RunOptions& opt, const RunData& d) {
  // Every workload drives its service from one closed-loop client. The
  // wall_ figures are over every timed call, not each input's fastest.
  std::ostringstream o;
  o << "run-record {\"workload\":" << json_string(opt.workload) << ",\"seed\":" << opt.seed
    << ",\"seconds\":" << json_number(opt.seconds) << ",\"trace\":" << (opt.trace ? 1 : 0)
    << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"workers\":" << d.workers
    << ",\"clients\":1,\"pinned_cpu\":" << d.pinned_cpu
    << ",\"inputs\":{\"graphs\":" << d.inputs.graphs
    << ",\"tasks\":" << d.inputs.tasks << ",\"buffers\":" << d.inputs.buffers
    << ",\"sum_q\":" << json_number(d.inputs.sum_q) << ",\"final_arcs\":" << d.inputs.final_arcs
    << "},\"calls\":" << d.attempted << ",\"wall_analyses_per_s\":"
    << json_number(d.timed_ms > 0 ? static_cast<double>(d.answers) / (d.timed_ms / 1000.0) : 0)
    << ",\"wall_call_p50_ms\":" << json_number(median(call_ms(d)))
    << ",\"call_p99_ms\":" << json_number(percentile(call_ms(d), 0.99))
    << ",\"call_p99_samples\":" << d.calls.kept().size()
    << ",\"answers\":" << d.answers << ",\"failed_frac\":"
    << json_number(d.attempted > 0 ? static_cast<double>(d.failed) / d.attempted : 0)
    << ",\"prime_s\":" << json_number(d.prime_s) << ",\"setup_runs_s\":[";
  for (std::size_t i = 0; i < d.setup_s.size(); ++i) {
    o << (i ? "," : "") << json_number(d.setup_s[i]);
  }
  o << "]}";
  std::cout << o.str() << '\n';
  for (const std::string& f : d.failures) std::cout << "FAILED " << f << '\n';
}

void print_result(const RunData& d, const std::vector<Metric>& metrics) {
  std::ostringstream o;
  o << "{\"correct\": " << (d.failed == 0 && d.attempted > 0 ? "true" : "false")
    << ", \"attempted\": " << d.attempted << ", \"failed\": " << d.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    o << (i ? ", " : "") << json_string(metrics[i].name) << ": {\"value\": "
      << json_number(metrics[i].value) << ", \"unit\": " << json_string(metrics[i].unit) << "}";
  }
  o << "}}";
  std::cout << o.str() << std::endl;
}

int usage() {
  std::cerr << "usage: kpbench --workload <paper-sdf|paper-csdf|serve-dup|dse-sweep> --seed <n> "
               "--seconds <s> --trace <0|1> [--reference-dir <dir>] [--out-dir <dir>]\n"
               "       kpbench --make-reference <dir>\n";
  return 2;
}

}  // namespace

}  // namespace kpbench

int main(int argc, char** argv) {
  using namespace kpbench;
  RunOptions opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string a = argv[i];
      if (i + 1 >= argc) return usage();
      const std::string v = argv[++i];
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v == "1";
      } else if (a == "--reference-dir") {
        opt.reference_dir = v;
      } else if (a == "--out-dir") {
        opt.out_dir = v;
      } else if (a == "--make-reference") {
        return make_reference(v) == 0 ? 0 : 1;
      } else {
        return usage();
      }
    }
    RunData (*run)(const RunOptions&, Tracer*) = nullptr;
    if (opt.workload == "paper-sdf") run = &run_paper_sdf;
    if (opt.workload == "paper-csdf") run = &run_paper_csdf;
    if (opt.workload == "serve-dup") run = &run_serve_dup;
    if (opt.workload == "dse-sweep") run = &run_dse_sweep;
    if (run == nullptr || !(opt.seconds > 0)) return usage();

    Tracer tracer;
    const RunData d = run(opt, opt.trace ? &tracer : nullptr);
    const double rss_mb = peak_rss_mb();
    print_run_record(opt, d);
    if (opt.trace) {
      const std::string path =
          opt.out_dir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".json";
      if (!tracer.write_chrome_json(path)) {
        std::cerr << "kpbench: cannot write " << path << '\n';
        return 1;
      }
      std::printf("trace: %zu of %zu spans written to %s\n",
                  std::min(tracer.size(), Tracer::kMaxWrittenSpans), tracer.size(), path.c_str());
      std::printf("tracing overhead (%s): replay %.4f ms per call on top of %.4f ms per timed "
                  "call (+%.1f%% wall time)\n",
                  opt.workload.c_str(), d.layers.replay_ms / std::max<double>(1, d.attempted),
                  d.timed_ms / std::max<double>(1, d.attempted),
                  d.timed_ms > 0 ? 100.0 * d.layers.replay_ms / d.timed_ms : 0.0);
    }
    print_result(d, opt.trace ? per_layer(d) : end_to_end(d, rss_mb));
    return 0;
  } catch (const std::exception& ex) {
    std::cerr << "kpbench: " << ex.what() << '\n';
    return 1;
  }
}
