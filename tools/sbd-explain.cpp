//===- tools/sbd-explain.cpp - Slow-query record replay ---------------------===//
///
/// \file
/// Reads slow-query records (the JSONL lines PortfolioSolver::checkSat
/// appends through obs::SlowQueryLog, schema in DESIGN.md §13), replays
/// the captured SMT-LIB script through the full front end, and prints the
/// record's profile: the analyzer's features, where the query's wall-clock
/// and arena nodes went, and its cache-hit attribution.
///
///   sbd-explain <slow.jsonl>            explain the last record
///   sbd-explain --index N <slow.jsonl>  explain the N-th record (0-based)
///   sbd-explain --list <slow.jsonl>     one summary line per record
///   sbd-explain --no-replay ...         skip the replay (offline use)
///   sbd-explain --json ...              machine-readable explain report
///
//===----------------------------------------------------------------------===//

#include "policy/Json.h"
#include "smt/SmtSolver.h"
#include "support/Metrics.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace sbd;

namespace {

struct Args {
  std::string Path;
  long Index = -1; ///< -1 = last record
  bool List = false;
  bool Replay = true;
  bool Json = false;
};

int usage(const char *Prog) {
  std::fprintf(stderr,
               "usage: %s [--index n] [--list] [--no-replay] [--json] "
               "<slow.jsonl>\n"
               "Replays a slow-query record captured via --slow-log / "
               "--slow-threshold-us\nand prints where the query spent its "
               "time and nodes.\n",
               Prog);
  return 2;
}

/// Reads every well-formed JSONL record from the artifact file.
std::vector<JsonValue> readArtifacts(const std::string &Path,
                                     std::string &Error) {
  std::vector<JsonValue> Out;
  std::ifstream In(Path);
  if (!In) {
    Error = "cannot open " + Path;
    return Out;
  }
  std::string Line;
  size_t LineNo = 0;
  while (std::getline(In, Line)) {
    ++LineNo;
    if (Line.empty())
      continue;
    JsonParseResult R = parseJson(Line);
    if (!R.Ok || !R.Value.isObject()) {
      std::fprintf(stderr, "warning: %s:%zu: skipping malformed record (%s)\n",
                   Path.c_str(), LineNo, R.Error.c_str());
      continue;
    }
    Out.push_back(std::move(R.Value));
  }
  return Out;
}

std::string getString(const JsonValue &A, const char *Key) {
  const JsonValue *V = A.get(Key);
  return V && V->isString() ? V->asString() : std::string();
}

double getNumber(const JsonValue &A, const char *Key) {
  const JsonValue *V = A.get(Key);
  return V && V->kind() == JsonValue::Kind::Number ? V->asNumber() : 0;
}

/// Phase table from the captured (or replayed) stats object.
void printPhaseProfile(const JsonValue &Stats, double TotalUs) {
  struct Row {
    const char *Key;
    const char *Label;
  };
  const Row Rows[] = {
      {"parse_us", "parse"}, {"derive_us", "derive"},
      {"dnf_us", "dnf"},     {"scan_us", "scan"},
      {"search_us", "search (residual)"},
  };
  std::printf("engine %s: %.0f solver steps, peak frontier %.0f\n",
              getString(Stats, "engine").c_str(),
              getNumber(Stats, "solver_steps"),
              getNumber(Stats, "peak_frontier"));
  std::printf("where the time went (total %.1f ms):\n", TotalUs / 1000.0);
  for (const Row &R : Rows) {
    double Us = getNumber(Stats, R.Key);
    double Pct = TotalUs > 0 ? Us / TotalUs * 100.0 : 0;
    std::printf("  %-18s %10.1f ms %5.1f%%\n", R.Label, Us / 1000.0, Pct);
  }
  double Minterm = getNumber(Stats, "minterm_us");
  if (Minterm > 0)
    std::printf("  %-18s %10.1f ms (inside derive/dnf)\n", "minterms",
                Minterm / 1000.0);
  double Memo = getNumber(Stats, "memo_hits");
  double MemoMiss = getNumber(Stats, "memo_misses");
  double Intern = getNumber(Stats, "intern_hits");
  double InternMiss = getNumber(Stats, "intern_misses");
  std::printf("cache attribution:\n");
  std::printf("  memo   hits=%.0f misses=%.0f hit-rate=%.1f%%\n", Memo,
              MemoMiss, Memo + MemoMiss > 0 ? Memo / (Memo + MemoMiss) * 100 : 0);
  std::printf("  intern hits=%.0f misses=%.0f hit-rate=%.1f%%\n", Intern,
              InternMiss,
              Intern + InternMiss > 0 ? Intern / (Intern + InternMiss) * 100
                                      : 0);
  std::printf("  arena nodes allocated: %.0f\n", getNumber(Stats, "arena_nodes"));
}

/// Pre-solve analyzer verdict captured in the artifact (features key,
/// embedded since the analyzer landed — older artifacts print nothing).
void printFeatures(const JsonValue &F) {
  std::printf("pre-solve analysis:\n");
  std::printf("  class=%s risk=%.0f tree=%.0f dag=%.0f star-height=%.0f "
              "bool-depth=%.0f compl-depth=%.0f\n",
              getString(F, "class").c_str(), getNumber(F, "risk"),
              getNumber(F, "tree_size"), getNumber(F, "dag_size"),
              getNumber(F, "star_height"), getNumber(F, "boolean_depth"),
              getNumber(F, "compl_depth"));
  std::printf("  counter-blowup<=%.0f distinct-preds=%.0f minterms<=%.0f "
              "nullable=%s\n",
              getNumber(F, "counter_blowup"), getNumber(F, "distinct_preds"),
              getNumber(F, "minterm_bound"),
              [&] {
                const JsonValue *V = F.get("nullable");
                return V && V->kind() == JsonValue::Kind::Bool && V->asBool();
              }()
                  ? "yes"
                  : "no");
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  for (int I = 1; I < Argc; ++I) {
    if (!std::strcmp(Argv[I], "--index")) {
      if (I + 1 >= Argc)
        return usage(Argv[0]);
      A.Index = std::atol(Argv[++I]);
    } else if (!std::strcmp(Argv[I], "--list"))
      A.List = true;
    else if (!std::strcmp(Argv[I], "--no-replay"))
      A.Replay = false;
    else if (!std::strcmp(Argv[I], "--json"))
      A.Json = true;
    else if (Argv[I][0] == '-')
      return usage(Argv[0]);
    else if (A.Path.empty())
      A.Path = Argv[I];
    else
      return usage(Argv[0]);
  }
  if (A.Path.empty())
    return usage(Argv[0]);

  std::string Error;
  std::vector<JsonValue> Records = readArtifacts(A.Path, Error);
  if (!Error.empty()) {
    std::fprintf(stderr, "error: %s\n", Error.c_str());
    return 1;
  }
  if (Records.empty()) {
    std::fprintf(stderr, "error: %s holds no artifacts\n", A.Path.c_str());
    return 1;
  }

  if (A.List) {
    for (size_t I = 0; I != Records.size(); ++I) {
      const JsonValue &R = Records[I];
      std::printf("[%zu] status=%s stop=%s total_us=%.0f states=%.0f "
                  "strategy=%s\n",
                  I, getString(R, "status").c_str(),
                  getString(R, "stop_reason").c_str(), getNumber(R, "total_us"),
                  getNumber(R, "states"), getString(R, "strategy").c_str());
    }
    return 0;
  }

  size_t Idx = A.Index < 0 ? Records.size() - 1 : static_cast<size_t>(A.Index);
  if (Idx >= Records.size()) {
    std::fprintf(stderr, "error: index %zu out of range (%zu artifacts)\n",
                 Idx, Records.size());
    return 1;
  }
  const JsonValue &R = Records[Idx];

  // Replay: run the captured script through the full SMT front end on a
  // fresh stack and diff the registry around it — the replay's own cache
  // attribution, independent of whatever state the original run had.
  std::string ReplayStatus;
  std::string ReplayStatsJson = "{}";
  int64_t ReplayUs = 0;
  if (A.Replay) {
    const std::string Script = getString(R, "script");
    if (Script.empty()) {
      std::fprintf(stderr,
                   "warning: artifact has no script; skipping replay\n");
    } else {
      RegexManager M;
      TrManager T(M);
      DerivativeEngine E(M, T);
      RegexSolver S(E);
      SmtSolver Smt(S);
      SolveOptions Opts;
      Opts.TimeoutMs = static_cast<int64_t>(getNumber(R, "timeout_ms"));
      Opts.MaxStates = static_cast<size_t>(getNumber(R, "max_states"));
      if (getString(R, "strategy") == "dfs")
        Opts.Strategy = SearchStrategy::Dfs;
      SmtResult Res = Smt.solveScript(Script, Opts);
      ReplayStatus = statusName(Res.Status);
      ReplayStatsJson = Res.Stats.json();
      ReplayUs = Res.Stats.TotalUs;
    }
  }

  if (A.Json) {
    // Machine-readable explain report: the artifact verbatim plus the
    // replay outcome (contract checked by scripts/ci/obs_overhead.sh).
    std::string Out = "{\"artifact_index\": " + std::to_string(Idx);
    Out += ", \"artifact_count\": " + std::to_string(Records.size());
    Out += ", \"status\": \"" + getString(R, "status") + "\"";
    Out += ", \"stop_reason\": \"" + getString(R, "stop_reason") + "\"";
    Out +=
        ", \"total_us\": " + std::to_string((long long)getNumber(R, "total_us"));
    Out += ", \"states\": " + std::to_string((long long)getNumber(R, "states"));
    Out += ", \"replayed\": ";
    Out += (A.Replay && !ReplayStatus.empty()) ? "true" : "false";
    Out += ", \"replay_status\": \"" + ReplayStatus + "\"";
    Out += ", \"replay_total_us\": " + std::to_string(ReplayUs);
    Out += ", \"replay_stats\": " + ReplayStatsJson;
    Out += "}";
    std::printf("%s\n", Out.c_str());
    return 0;
  }

  std::printf("== sbd-explain: artifact %zu of %zu (%s) ==\n", Idx,
              Records.size(), A.Path.c_str());
  std::printf("pattern:  %s\n", getString(R, "pattern").c_str());
  std::printf("verdict:  %s (stop=%s) in %.1f ms, %0.f states, "
              "strategy=%s timeout=%.0fms max-states=%.0f\n",
              getString(R, "status").c_str(),
              getString(R, "stop_reason").c_str(),
              getNumber(R, "total_us") / 1000.0, getNumber(R, "states"),
              getString(R, "strategy").c_str(), getNumber(R, "timeout_ms"),
              getNumber(R, "max_states"));

  if (const JsonValue *F = R.get("features"); F && F->isObject())
    printFeatures(*F);

  if (const JsonValue *Stats = R.get("stats"); Stats && Stats->isObject())
    printPhaseProfile(*Stats, getNumber(R, "total_us"));

  if (A.Replay) {
    if (ReplayStatus.empty()) {
      std::printf("replay: skipped\n");
    } else {
      std::printf("replay: status=%s in %.1f ms (fresh stack; captured run "
                  "took %.1f ms)\n",
                  ReplayStatus.c_str(), ReplayUs / 1000.0,
                  getNumber(R, "total_us") / 1000.0);
    }
  }
  return 0;
}
