// The reference oracle: committed expected answers for the paper suites,
// and the comparison every workload applies to every answer.
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"
#include "model/stats.hpp"
#include "util/checked.hpp"

namespace kpbench {

namespace {

const char* outcome_word(kp::Outcome o) {
  switch (o) {
    case kp::Outcome::Value: return "value";
    case kp::Outcome::NoSolution: return "no-solution";
    case kp::Outcome::Deadlock: return "deadlock";
    case kp::Outcome::Unbounded: return "unbounded";
    case kp::Outcome::Budget: return "budget";
  }
  return "?";
}

const char* quality_word(kp::Quality q) {
  switch (q) {
    case kp::Quality::Exact: return "exact";
    case kp::Quality::AchievableBound: return "bound";
    case kp::Quality::None: return "none";
  }
  return "?";
}

kp::Outcome parse_outcome(const std::string& s) {
  for (kp::Outcome o : {kp::Outcome::Value, kp::Outcome::NoSolution, kp::Outcome::Deadlock,
                        kp::Outcome::Unbounded, kp::Outcome::Budget}) {
    if (s == outcome_word(o)) return o;
  }
  throw std::runtime_error("bad outcome '" + s + "'");
}

kp::Quality parse_quality(const std::string& s) {
  for (kp::Quality q : {kp::Quality::Exact, kp::Quality::AchievableBound, kp::Quality::None}) {
    if (s == quality_word(q)) return q;
  }
  throw std::runtime_error("bad quality '" + s + "'");
}

kp::i128 parse_i128(const std::string& s) {
  if (s.empty()) throw std::runtime_error("empty integer");
  std::size_t i = 0;
  const bool neg = s[0] == '-';
  if (neg) i = 1;
  if (i == s.size()) throw std::runtime_error("bad integer '" + s + "'");
  kp::i128 v = 0;
  for (; i < s.size(); ++i) {
    if (s[i] < '0' || s[i] > '9' || v > (kp::i128{1} << 120)) {
      throw std::runtime_error("bad integer '" + s + "'");
    }
    v = v * 10 + (s[i] - '0');
  }
  return neg ? -v : v;
}

kp::Rational parse_rational(const std::string& s) {
  const std::size_t slash = s.find('/');
  if (slash == std::string::npos) return kp::Rational(parse_i128(s), 1);
  return kp::Rational(parse_i128(s.substr(0, slash)), parse_i128(s.substr(slash + 1)));
}

std::string describe(const kp::Analysis& a) {
  std::string s = std::string(outcome_word(a.outcome)) + "/" + quality_word(a.quality);
  if (a.outcome == kp::Outcome::Value) {
    s += ' ';
    s += a.period.to_string();
  }
  return s;
}

}  // namespace

Expected expected_of(const kp::Analysis& a) { return Expected{a.outcome, a.quality, a.period}; }

std::string mismatch(const kp::Analysis& a, const Expected& e) {
  if (e.quality == kp::Quality::AchievableBound) {
    // A smaller period is a higher throughput; exact or bound, it must not
    // fall below the committed bound.
    if (a.outcome == kp::Outcome::Value && a.quality != kp::Quality::None &&
        a.period <= e.period) {
      return {};
    }
    return "got " + describe(a) + ", expected a value with period <= " + e.period.to_string();
  }
  if (a.outcome == e.outcome && a.quality == e.quality &&
      (a.outcome != kp::Outcome::Value || a.period == e.period)) {
    return {};
  }
  kp::Analysis want;
  want.outcome = e.outcome;
  want.quality = e.quality;
  want.period = e.period;
  return "got " + describe(a) + ", expected " + describe(want);
}

std::vector<ReferenceRow> load_reference(const std::string& dir, const std::string& workload) {
  const std::string path = dir + "/" + workload + ".tsv";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read reference " + path);
  std::vector<ReferenceRow> rows;
  std::string line;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::vector<std::string> f;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, '\t')) f.push_back(cell);
    try {
      if (f.size() < 8) throw std::runtime_error("expected at least 8 columns");
      ReferenceRow r;
      r.name = f[0];
      r.expected.outcome = parse_outcome(f[1]);
      r.expected.quality = parse_quality(f[2]);
      if (r.expected.outcome == kp::Outcome::Value) r.expected.period = parse_rational(f[3]);
      r.tasks = static_cast<i64>(parse_i128(f[4]));
      r.buffers = static_cast<i64>(parse_i128(f[5]));
      r.sum_q = std::stod(f[6]);
      r.final_arcs = static_cast<i64>(parse_i128(f[7]));
      rows.push_back(std::move(r));
    } catch (const std::exception& ex) {
      throw std::runtime_error(path + ":" + std::to_string(line_no) + ": " + ex.what());
    }
  }
  return rows;
}

namespace {

/// "agree" or "MISMATCH" when both methods give an exact value; otherwise
/// what the other method gave ("bound", "budget", ...) or "unchecked".
std::string cross_check(const kp::Analysis& kiter, const kp::Analysis& other) {
  if (other.outcome != kp::Outcome::Value || other.quality != kp::Quality::Exact) {
    return other.outcome == kp::Outcome::Value ? "bound" : outcome_word(other.outcome);
  }
  if (kiter.outcome != kp::Outcome::Value || kiter.quality != kp::Quality::Exact) {
    return "unchecked";
  }
  return kiter.period == other.period ? "agree" : "MISMATCH";
}

int write_suite(const std::string& dir, const std::string& workload,
                const std::vector<kp::NamedGraph>& inputs, const kp::AnalysisOptions& kiter_opts,
                const kp::AnalysisOptions& baseline_opts, bool with_expansion) {
  const std::string path = dir + "/" + workload + ".tsv";
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write " + path);
  out << "# Expected K-Iter answers of the " << workload << " workload, one row per input.\n"
         "# Regenerate with: kpbench --make-reference <dir>. 'bound' rows hold an\n"
         "# achievable period; a later answer passes if its period is <= it.\n"
         "# symbolic/expansion: cross-check of the K-Iter value against that method.\n"
         "# name\toutcome\tquality\tperiod\ttasks\tbuffers\tsum_q\tfinal_arcs\tsymbolic\t"
         "expansion\n";
  int mismatches = 0;
  for (const kp::NamedGraph& ng : inputs) {
    const kp::Analysis k = kp::analyze_throughput(ng.graph, kp::Method::KIter, kiter_opts);
    const kp::Analysis s =
        kp::analyze_throughput(ng.graph, kp::Method::SymbolicExecution, baseline_opts);
    const std::string sym = cross_check(k, s);
    std::string exp = "n/a";
    if (with_expansion) {
      exp = cross_check(k, kp::analyze_throughput(ng.graph, kp::Method::Expansion, baseline_opts));
    }
    mismatches += (sym == "MISMATCH") + (exp == "MISMATCH");
    const kp::GraphStats st = kp::graph_stats(ng.graph);
    out << ng.name << '\t' << outcome_word(k.outcome) << '\t' << quality_word(k.quality) << '\t'
        << (k.outcome == kp::Outcome::Value ? k.period.to_string() : "-") << '\t' << st.tasks
        << '\t' << st.buffers << '\t' << kp::to_string(st.sum_q) << '\t'
        << final_constraint_arcs(ng.graph, kiter_opts) << '\t' << sym << '\t' << exp << '\n';
    std::cerr << workload << ' ' << ng.name << ": " << describe(k) << " symbolic=" << sym
              << " expansion=" << exp << '\n';
  }
  return mismatches;
}

}  // namespace

int make_reference(const std::string& dir) {
  // Budgets of the baselines follow bench/bench_table1 and bench_table2;
  // they bound only the cross-check methods, never the K-Iter answer.
  kp::AnalysisOptions sdf_base;
  sdf_base.sim.max_states = 200000;
  sdf_base.sim.time_budget_ms = 10000;
  sdf_base.expansion_max_nodes = 300000;
  sdf_base.expansion_max_arcs = 3000000;
  kp::AnalysisOptions csdf_base;
  csdf_base.sim.max_states = 400000;
  csdf_base.sim.time_budget_ms = 30000;
  int mismatches = write_suite(dir, "paper-sdf", paper_sdf_inputs(), paper_sdf_options(),
                               sdf_base, /*with_expansion=*/true);
  mismatches += write_suite(dir, "paper-csdf", paper_csdf_inputs(), paper_csdf_options(),
                            csdf_base, /*with_expansion=*/false);
  std::cerr << "cross-method mismatches: " << mismatches << '\n';
  return mismatches;
}

}  // namespace kpbench
