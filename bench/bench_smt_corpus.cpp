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
/// It is also the corpus run behind the observation flags (--trace,
/// --stats-json, --slow-log, --expo) that scripts/ci/bench_debug.sh and
/// scripts/ci/obs_overhead.sh drive.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "Workloads.h"

#include "re/RegexParser.h"
#include "re/SmtPrinter.h"
#include "smt/SmtSolver.h"
#include "portfolio/BatchSolver.h"
#include "support/Stopwatch.h"

#include <cstdio>

using namespace sbd;

namespace {

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
  BenchArgs Args = BenchArgs::parse(Argc, Argv);

  struct Group {
    const char *Name;
    std::vector<BenchSuite> Suites;
  };
  std::vector<Group> Groups;
  Groups.push_back({"NB", nonBooleanSuites(Args.Scale, Args.Seed)});
  Groups.push_back({"B", booleanSuites(Args.Scale, Args.Seed)});
  Groups.push_back({"H", handwrittenSuites()});

  Args.beginObservation();
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

  return Args.endObservation(Agg) ? 0 : 1;
}
