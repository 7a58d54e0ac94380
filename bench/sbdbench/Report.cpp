//===- bench/sbdbench/Report.cpp - Metrics, statistics, compare -----------===//

#include "Bench.h"

#include "policy/Json.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>

using namespace sbd;
using namespace sbdbench;

const std::vector<MetricDef> &sbdbench::endToEndMetrics() {
  // Bounds from calibration.json: max(initial, 2 x same-seed spread,
  // seed-sweep spread), capped at 0.25. The reference host's speed drifts
  // by 10-30% within minutes, which puts every timing bound at the cap;
  // peak RSS moves up to 13% with the seed and the heap layout.
  static const std::vector<MetricDef> Defs = {
      {"throughput_qps", "queries/s", true, 0.25},
      {"latency_p50_us", "us", false, 0.25},
      {"latency_p99_us", "us", false, 0.25},
      {"setup_s", "s", false, 0.25},
      {"peak_rss_mb", "MiB", false, 0.25},
  };
  return Defs;
}

const std::vector<MetricDef> &sbdbench::layerMetrics() {
  static const std::vector<MetricDef> Defs = {
      {"portfolio.stack_build_ns", "ns/query", false, 0},
      {"portfolio.check_sat_ns", "ns/query", false, 0},
      {"portfolio.antimirov_routed_frac", "fraction", false, 0},
      {"portfolio.antimirov_answered_frac", "fraction", false, 0},
      {"re.parse_ns", "ns/query", false, 0},
      {"re.parse_errors", "count", false, 0},
      {"analysis.analyze_ns", "ns/query", false, 0},
      {"analysis.nodes_visited", "count/query", false, 0},
      {"analysis.cache_hits", "count/query", true, 0},
      {"solver.matches_word_ns", "ns/query", false, 0},
      {"solver.steps", "count/query", false, 0},
      {"solver.dense_row_hits", "count/query", true, 0},
      {"solver.peak_frontier", "count", false, 0},
      {"core.derivative_calls", "count/query", false, 0},
      {"core.dnf_calls", "count/query", false, 0},
      {"core.dnf_branches_explored", "count/query", false, 0},
      {"core.dnf_branches_pruned", "count/query", true, 0},
      {"core.arcs_enumerated", "count/query", false, 0},
      {"core.memo_hit_ratio", "fraction", true, 0},
      {"core.intern_hit_ratio", "fraction", true, 0},
      {"core.arena_nodes", "count/query", false, 0},
      {"core.dfa_states_built", "count/query", false, 0},
      {"charset.minterm_computations", "count/query", false, 0},
      {"charset.alphabet_minterms", "count/query", false, 0},
      {"compile.promotions", "count/query", false, 0},
      {"compile.chars_scanned", "count/query", false, 0},
      {"smt.sexpr_parse_ns", "ns/query", false, 0},
      {"smt.command_ns", "ns/query", false, 0},
      {"smt.check_sat_ns", "ns/query", false, 0},
      {"smt.reset_ns", "ns/query", false, 0},
      {"smt.stack_recycles", "count", false, 0},
      {"smt.front_end_share", "fraction", false, 0},
      {"cache.hits", "count", true, 0},
      {"cache.misses", "count", false, 0},
      {"cache.inserts", "count", false, 0},
      {"cache.evictions", "count", false, 0},
      {"cache.revalidation_failures", "count", false, 0},
      {"cache.hit_ratio", "fraction", true, 0},
      {"cache.hit_check_sat_ns", "ns", false, 0},
      {"cache.miss_check_sat_ns", "ns", false, 0},
      {"dist.spawn_ns", "ns", false, 0},
      {"dist.submit_blocked_ns", "ns/query", false, 0},
      {"dist.drain_ns", "ns/query", false, 0},
      {"dist.worker_busy_frac", "fraction", true, 0},
      {"dist.overhead_ns_per_query", "ns/query", false, 0},
      {"dist.dispatched", "count", false, 0},
      {"dist.steals", "count", false, 0},
      {"dist.requeues", "count", false, 0},
      {"dist.worker_crashes", "count", false, 0},
      {"dist.lost", "count", false, 0},
      {"trace.overhead_frac", "fraction", false, 0},
      {"trace.layer_sum_frac", "fraction", true, 0},
  };
  return Defs;
}

int64_t sbdbench::percentile(const std::vector<int64_t> &Sorted, double P) {
  if (Sorted.empty())
    return 0;
  const size_t Rank = static_cast<size_t>(
      std::ceil(P * static_cast<double>(Sorted.size())));
  return Sorted[std::clamp<size_t>(Rank, 1, Sorted.size()) - 1];
}

Quartiles sbdbench::quartiles(std::vector<double> V) {
  Quartiles Q;
  if (V.empty())
    return Q;
  std::sort(V.begin(), V.end());
  const long Len = static_cast<long>(V.size());
  if (Len == 1) {
    Q.Q1 = Q.Median = Q.Q3 = V[0];
    return Q;
  }
  // statistics.quantiles(..., n=4, method='exclusive').
  double Cuts[3];
  for (long I = 1; I <= 3; ++I) {
    long J = std::clamp(I * (Len + 1) / 4, 1L, Len - 1);
    long Delta = I * (Len + 1) - J * 4;
    const double Lo = V[static_cast<size_t>(J - 1)];
    const double Hi = V[static_cast<size_t>(J)];
    Cuts[I - 1] = (Lo * static_cast<double>(4 - Delta) +
                   Hi * static_cast<double>(Delta)) /
                  4.0;
  }
  Q.Q1 = Cuts[0];
  Q.Median = Cuts[1];
  Q.Q3 = Cuts[2];
  return Q;
}

std::string sbdbench::num(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

//===----------------------------------------------------------------------===//
// Workload process -> parent serialization
//===----------------------------------------------------------------------===//

std::string sbdbench::encodeRun(const RunResult &R) {
  std::string Out;
  auto map = [&](char Tag, const MetricMap &M) {
    for (const auto &[K, V] : M)
      Out += std::string(1, Tag) + " " + K + " " + num(V) + "\n";
  };
  map('e', R.EndToEnd);
  map('i', R.Info);
  map('l', R.Layers);
  map('c', R.Counts);
  Out += "n " + std::to_string(R.Attempted) + " " + std::to_string(R.Failed) +
         " " + std::to_string(R.Wrong) + " " + std::to_string(R.Unverified) +
         "\n";
  for (const std::string &E : R.Errors)
    Out += "x " + E + "\n";
  return Out;
}

RunResult sbdbench::decodeRun(const std::string &Text) {
  RunResult R;
  std::istringstream In(Text);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.size() < 2)
      continue;
    std::istringstream F(Line.substr(2));
    std::string Key;
    double V = 0;
    switch (Line[0]) {
    case 'e':
    case 'i':
    case 'l':
    case 'c': {
      F >> Key >> V;
      MetricMap &M = Line[0] == 'e'   ? R.EndToEnd
                     : Line[0] == 'i' ? R.Info
                     : Line[0] == 'l' ? R.Layers
                                      : R.Counts;
      M[Key] = V;
      break;
    }
    case 'n':
      F >> R.Attempted >> R.Failed >> R.Wrong >> R.Unverified;
      break;
    case 'x':
      R.Errors.push_back(Line.substr(2));
      break;
    }
  }
  return R;
}

//===----------------------------------------------------------------------===//
// Layer table
//===----------------------------------------------------------------------===//

bool sbdbench::writeLayerTable(const std::string &Path,
                               const std::string &Workload, const Recorder &Rec,
                               const PassResult &Traced,
                               const MetricMap &Layers) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  const size_t N = Traced.Verdicts.size();
  Out << "{\"workload\": \"" << Workload << "\", \"queries\": " << N
      << ", \"pass_ns\": " << Traced.WallNs << ",\n \"layers\": [";
  bool First = true;
  for (const Recorder::LayerTotal &T : Rec.totals()) {
    Out << (First ? "\n  " : ",\n  ") << "{\"name\": \"" << T.Name
        << "\", \"spans\": " << T.Spans << ", \"self_ns\": " << T.SelfNs
        << ", \"self_ns_per_query\": "
        << num(N ? static_cast<double>(T.SelfNs) / static_cast<double>(N) : 0)
        << ", \"share_of_pass\": "
        << num(Traced.WallNs ? static_cast<double>(T.SelfNs) /
                                   static_cast<double>(Traced.WallNs)
                             : 0)
        << "}";
    First = false;
  }
  Out << "],\n \"metrics\": {";
  First = true;
  for (const auto &[Name, V] : Layers) {
    Out << (First ? "\n  " : ",\n  ") << "\"" << Name << "\": " << num(V);
    First = false;
  }
  Out << "}}\n";
  return static_cast<bool>(Out);
}

//===----------------------------------------------------------------------===//
// --compare
//===----------------------------------------------------------------------===//

namespace {

/// workload -> metric -> one value per run, from `--json` run files.
using RunTable =
    std::map<std::string, std::map<std::string, std::vector<double>>>;

bool loadRunFile(const std::string &Path, RunTable &Out) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "sbdbench: cannot read %s\n", Path.c_str());
    return false;
  }
  std::stringstream SS;
  SS << In.rdbuf();
  JsonParseResult P = parseJson(SS.str());
  const JsonValue *Runs = P.Ok ? P.Value.get("runs") : nullptr;
  if (!Runs || !Runs->isObject()) {
    std::fprintf(stderr, "sbdbench: %s is not a --json run file\n",
                 Path.c_str());
    return false;
  }
  for (const auto &[Workload, List] : Runs->asObject())
    for (const JsonValue &Run : List.asArray())
      for (const auto &[Metric, V] : Run.asObject())
        Out[Workload][Metric].push_back(V.asNumber());
  return true;
}

/// Appends the runs of every file in the comma-separated \p Paths, in order.
bool loadRuns(const std::string &Paths, RunTable &Out) {
  std::stringstream List(Paths);
  std::string Path;
  while (std::getline(List, Path, ','))
    if (!loadRunFile(Path, Out))
      return false;
  return true;
}

} // namespace

int sbdbench::compareRuns(const std::string &ParentPath,
                          const std::string &ChangePath) {
  RunTable Parent, Change;
  if (!loadRuns(ParentPath, Parent) || !loadRuns(ChangePath, Change))
    return 2;
  bool Regressed = false;
  std::printf("%-13s %-15s %24s %24s %7s  %s\n", "workload", "metric",
              "parent median [q1, q3]", "change median [q1, q3]", "wins",
              "verdict");
  for (const auto &[Workload, PMetrics] : Parent) {
    for (const MetricDef &D : endToEndMetrics()) {
      auto PIt = PMetrics.find(D.Name);
      if (PIt == PMetrics.end() || !Change.count(Workload) ||
          !Change[Workload].count(D.Name))
        continue;
      const std::vector<double> &P = PIt->second;
      const std::vector<double> &C = Change[Workload][D.Name];
      auto better = [&](double A, double B) {
        return D.HigherIsBetter ? A > B : A < B;
      };
      const size_t Pairs = std::min(P.size(), C.size());
      size_t Wins = 0;
      for (size_t I = 0; I != Pairs; ++I)
        Wins += better(C[I], P[I]) ? 1 : 0;
      const Quartiles PQ = quartiles(P), CQ = quartiles(C);
      const double Spread =
          PQ.Median != 0 ? (PQ.Q3 - PQ.Q1) / std::fabs(PQ.Median) : 0;
      const double Worse = PQ.Median != 0
                               ? (D.HigherIsBetter ? PQ.Median - CQ.Median
                                                   : CQ.Median - PQ.Median) /
                                     std::fabs(PQ.Median)
                               : 0;
      const bool AllBetter = std::all_of(C.begin(), C.end(), [&](double X) {
        return std::all_of(P.begin(), P.end(),
                           [&](double Y) { return better(X, Y); });
      });
      const char *Verdict;
      if (Worse > D.Bound) {
        Verdict = "REGRESSED (worse than bound)";
        Regressed = true;
      } else if (Spread > D.Bound && !AllBetter) {
        Verdict = "unresolved (spread exceeds bound)";
      } else if (10 * Wins >= 9 * Pairs && Pairs &&
                 std::fabs(CQ.Median - PQ.Median) > PQ.Q3 - PQ.Q1 &&
                 better(CQ.Median, PQ.Median)) {
        Verdict = "improved";
      } else {
        Verdict = "within bound";
      }
      char PBuf[64], CBuf[64], WBuf[16];
      std::snprintf(PBuf, sizeof(PBuf), "%.4g [%.4g, %.4g]", PQ.Median, PQ.Q1,
                    PQ.Q3);
      std::snprintf(CBuf, sizeof(CBuf), "%.4g [%.4g, %.4g]", CQ.Median, CQ.Q1,
                    CQ.Q3);
      std::snprintf(WBuf, sizeof(WBuf), "%zu/%zu", Wins, Pairs);
      std::printf("%-13s %-15s %24s %24s %7s  %s\n", Workload.c_str(), D.Name,
                  PBuf, CBuf, WBuf, Verdict);
    }
  }
  return Regressed ? 1 : 0;
}
