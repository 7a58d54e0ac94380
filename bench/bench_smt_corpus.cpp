//===- bench/bench_smt_corpus.cpp - Full-stack SMT front-end benchmark -------===//
///
/// \file
/// Measures the complete dZ3-like stack the way an external user drives it:
/// every corpus instance is rendered to an SMT-LIB script and solved
/// through parse → theory compile → implicant enumeration → derivative
/// solver, and the per-group cost is compared against invoking the regex
/// solver directly. The difference is the front-end overhead — which the
/// paper's architecture claims is small because the regex theory does the
/// heavy lifting.
///
/// It is also the one harness with observation flags, on top of the
/// shared ones (BenchArgs.h); scripts/ci/bench_debug.sh and
/// scripts/ci/obs_overhead.sh drive them:
///   --stats-json <file>      write the merged counter registry, the
///                            histogram registry (p50/p90/p99), and the
///                            summed per-query SolveStats as one JSON document
///   --slow-log <file>        append a JSONL record for every answer at least
///                            as slow as the threshold (replay them with
///                            tools/sbd-explain)
///   --slow-threshold-us <n>  that threshold; 0 (the default) takes every
///                            answer
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "Workloads.h"

#include "re/RegexParser.h"
#include "re/SmtPrinter.h"
#include "smt/SmtSolver.h"
#include "portfolio/BatchSolver.h"
#include "portfolio/SlowQueryLog.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <cstdio>

using namespace sbd;

namespace {

/// The observation flags only this harness takes.
struct ObsArgs {
  std::string StatsJsonFile;
  std::string SlowLogFile;
  int64_t SlowThresholdUs = 0;

  static constexpr const char *Usage =
      " [--stats-json file] [--slow-log file] [--slow-threshold-us n]";

  /// Takes this harness's flags out of \p Argv, compacting it in place, and
  /// leaves the rest to BenchArgs::parse.
  static ObsArgs take(int &Argc, char **Argv) {
    ObsArgs A;
    int Kept = 1;
    for (int I = 1; I < Argc; ++I) {
      const char *Flag = Argv[I];
      if (std::strcmp(Flag, "--stats-json") &&
          std::strcmp(Flag, "--slow-log") &&
          std::strcmp(Flag, "--slow-threshold-us")) {
        Argv[Kept++] = Argv[I];
        continue;
      }
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        std::exit(1);
      }
      const char *Value = Argv[++I];
      if (!std::strcmp(Flag, "--stats-json"))
        A.StatsJsonFile = Value;
      else if (!std::strcmp(Flag, "--slow-log"))
        A.SlowLogFile = Value;
      else
        A.SlowThresholdUs = std::atoll(Value);
    }
    Argc = Kept;
    return A;
  }

  /// Call before the measured work: resets the counter and histogram
  /// registries so the stats dump covers exactly this run, and arms the
  /// slow-query log when --slow-log was given.
  void begin() const {
    obs::MetricsRegistry::global().reset();
    obs::HistogramRegistry::global().reset();
    if (!SlowLogFile.empty())
      obs::SlowQueryLog::global().configure({SlowThresholdUs, SlowLogFile});
  }

  /// Call after the measured work (worker threads joined): writes the
  /// stats JSON when requested. \p Aggregate is the per-query SolveStats
  /// summed over the run. Returns false if it could not be written.
  bool end(const SolveStats &Aggregate) const {
    if (StatsJsonFile.empty())
      return true;
    std::string Doc = "{\n  \"counters\": ";
    Doc += obs::MetricsRegistry::global().snapshot().json();
    Doc += ",\n  \"histograms\": ";
    Doc += obs::HistogramRegistry::global().snapshot().json();
    Doc += ",\n  \"aggregate\": ";
    Doc += Aggregate.json();
    Doc += "\n}\n";
    std::FILE *F = std::fopen(StatsJsonFile.c_str(), "w");
    if (!F) {
      std::fprintf(stderr, "error: cannot write stats to %s\n",
                   StatsJsonFile.c_str());
      return false;
    }
    std::fwrite(Doc.data(), 1, Doc.size(), F);
    std::fclose(F);
    std::printf("stats: wrote %s\n", StatsJsonFile.c_str());
    return true;
  }
};

struct GroupStats {
  size_t Total = 0;
  size_t Agree = 0;
  size_t Unknown = 0;
  double DirectMs = 0;
  double ViaSmtMs = 0;
  CacheStats Cache;
  SolveStats Work; ///< summed per-query stats of the direct path
};

GroupStats runGroup(const std::vector<BenchSuite> &Suites,
                    const SolveOptions &Opts, unsigned Threads) {
  GroupStats Stats;
  SolveOptions Dz3 = Opts;
  Dz3.Strategy = SearchStrategy::Dfs;

  // Direct path: every instance is an independent query, fanned out over
  // the batch front end (one thread-local arena stack per worker; with
  // --threads 1 this runs inline and matches the sequential path).
  std::vector<const BenchInstance *> Instances;
  std::vector<BatchQuery> Queries;
  for (const BenchSuite &Suite : Suites) {
    for (const BenchInstance &Inst : Suite.Instances) {
      Instances.push_back(&Inst);
      Queries.push_back({Inst.Pattern, Dz3});
    }
  }
  Stats.Total = Instances.size();

  BatchOptions BatchOpts;
  BatchOpts.NumThreads = Threads;
  BatchSolver Batch(BatchOpts);
  std::vector<BatchResult> Direct = Batch.solveAll(Queries);
  Stats.Cache += Batch.stats();
  for (const BatchResult &R : Direct) {
    Stats.Work += R.Result.Stats;
    if (R.ParseOk)
      Stats.DirectMs += static_cast<double>(R.Result.TimeUs) / 1000.0;
  }

  // Via-SMT path: render each instance to an SMT-LIB script and solve it
  // through the full parse → compile → enumerate front end (sequential;
  // the comparison is front-end overhead, not parallel speedup).
  for (size_t I = 0; I != Instances.size(); ++I) {
    if (!Direct[I].ParseOk)
      continue;
    const BenchInstance &Inst = *Instances[I];
    RegexManager M;
    RegexParseResult Parsed = parseRegex(M, Inst.Pattern);
    if (!Parsed.Ok)
      continue;
    std::string Script = regexToSmtScript(M, Parsed.Value, Inst.ExpectedSat);
    RegexManager M2;
    TrManager T2(M2);
    DerivativeEngine E2(M2, T2);
    RegexSolver Solver2(E2);
    SmtSolver Smt(Solver2);
    Stopwatch SmtWatch;
    SmtResult Via = Smt.solveScript(Script, Dz3);
    Stats.ViaSmtMs += SmtWatch.elapsedSec() * 1000.0;

    SolveStatus DirectStatus = Direct[I].Result.Status;
    bool DirectKnown = DirectStatus == SolveStatus::Sat ||
                       DirectStatus == SolveStatus::Unsat;
    bool ViaKnown = Via.Status == SolveStatus::Sat ||
                    Via.Status == SolveStatus::Unsat;
    if (!DirectKnown || !ViaKnown)
      ++Stats.Unknown;
    else if (DirectStatus == Via.Status)
      ++Stats.Agree;
  }
  return Stats;
}

} // namespace

int main(int Argc, char **Argv) {
  const ObsArgs Obs = ObsArgs::take(Argc, Argv);
  BenchArgs Args = BenchArgs::parse(Argc, Argv, ObsArgs::Usage);

  struct Group {
    const char *Name;
    std::vector<BenchSuite> Suites;
  };
  std::vector<Group> Groups;
  Groups.push_back({"NB", nonBooleanSuites(Args.Scale, Args.Seed)});
  Groups.push_back({"B", booleanSuites(Args.Scale, Args.Seed)});
  Groups.push_back({"H", handwrittenSuites()});

  Obs.begin();
  std::printf("== Full-stack SMT front end vs direct solver ==\n");
  std::printf("scale=%.3f timeout=%lldms threads=%u\n\n", Args.Scale,
              static_cast<long long>(Args.Opts.TimeoutMs), Args.Threads);
  std::printf("%-4s %7s %8s %8s %12s %12s %10s\n", "grp", "total", "agree",
              "unknown", "direct(ms)", "via-smt(ms)", "overhead");
  SolveStats Agg;
  for (const Group &G : Groups) {
    GroupStats S = runGroup(G.Suites, Args.Opts, Args.Threads);
    Agg += S.Work;
    double Overhead =
        S.DirectMs > 0 ? (S.ViaSmtMs - S.DirectMs) / S.DirectMs * 100.0 : 0;
    std::printf("%-4s %7zu %8zu %8zu %12.1f %12.1f %9.1f%%\n", G.Name,
                S.Total, S.Agree, S.Unknown, S.DirectMs, S.ViaSmtMs,
                Overhead);
    std::printf("     cache: %s\n", S.Cache.summary().c_str());
  }
  std::printf("\nagree counts instances where the script path and the\n"
              "direct path return the same sat/unsat verdict (they must,\n"
              "modulo budget); overhead is the front end's relative cost.\n");

  return Obs.end(Agg) ? 0 : 1;
}
