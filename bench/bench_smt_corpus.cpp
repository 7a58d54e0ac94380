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
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"
#include "Workloads.h"

#include "cache/VerdictCache.h"
#include "re/RegexParser.h"
#include "re/SmtPrinter.h"
#include "smt/SmtSolver.h"
#include "portfolio/BatchSolver.h"
#include "support/Stopwatch.h"

#include <algorithm>
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
  // Keep arenas (and the persistent derivative graph) warm across the
  // group's queries: repeated vertices reuse their memoized δdnf and the
  // dead-state facts of earlier queries.
  BatchOpts.ReuseArenas = true;
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

/// Resident-session measurement (DESIGN.md §15): the whole corpus is
/// replayed twice through ONE persistent SmtSession with a verdict cache
/// attached, instances separated by (reset) — exactly the way the
/// sbd-server front end is driven. Pass 1 is cold (every check solves),
/// pass 2 is warm (every check should be a cache hit), so the cold/warm
/// latency split is the cache's measured payoff.
struct SessionStats {
  size_t Instances = 0;
  size_t Mismatches = 0; ///< warm verdict differed from cold (must be 0)
  double ColdMs = 0, WarmMs = 0;
  std::vector<int64_t> ColdUs, WarmUs; ///< per-instance check latencies
  cache::VerdictCacheCounters Cache;
};

int64_t percentileUs(std::vector<int64_t> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  size_t Idx = static_cast<size_t>(P * static_cast<double>(V.size() - 1));
  return V[Idx];
}

SessionStats runSessionPasses(const std::vector<std::string> &Scripts,
                              const SolveOptions &Opts) {
  SessionStats Stats;
  Stats.Instances = Scripts.size();

  cache::VerdictCache Cache;
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver Solver(E);
  SmtSession Session(Solver, Opts);
  Session.setVerdictCache(&Cache);

  std::vector<SolveStatus> ColdStatus(Scripts.size(), SolveStatus::Unknown);
  for (int Pass = 0; Pass != 2; ++Pass) {
    for (size_t I = 0; I != Scripts.size(); ++I) {
      Stopwatch W;
      Session.executeAll(Scripts[I]);
      int64_t Us = W.elapsedUs();
      SolveStatus Got = Session.lastResult().Status;
      Session.executeAll("(reset)"); // arena and cache stay warm
      if (Pass == 0) {
        Stats.ColdMs += static_cast<double>(Us) / 1000.0;
        Stats.ColdUs.push_back(Us);
        ColdStatus[I] = Got;
      } else {
        Stats.WarmMs += static_cast<double>(Us) / 1000.0;
        Stats.WarmUs.push_back(Us);
        if (Got != ColdStatus[I])
          ++Stats.Mismatches;
      }
    }
  }
  Stats.Cache = Cache.counters();
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
  std::vector<GroupStats> Results;
  for (const Group &G : Groups) {
    GroupStats S = runGroup(G.Suites, Args.Opts, Args.Threads);
    Agg += S.Work;
    Results.push_back(S);
    double Overhead =
        S.DirectMs > 0 ? (S.ViaSmtMs - S.DirectMs) / S.DirectMs * 100.0 : 0;
    std::printf("%-4s %7zu %8zu %8zu %12.1f %12.1f %9.1f%%\n", G.Name,
                S.Total, S.Agree, S.Unknown, S.DirectMs, S.ViaSmtMs,
                Overhead);
    std::printf("     cache: %s\n", S.Cache.summary().c_str());
  }
  std::printf("\n");
  printPhaseTable(Agg);

  // Session cold/warm replay over the whole corpus.
  std::vector<std::string> Scripts;
  {
    RegexManager M;
    for (const Group &G : Groups)
      for (const BenchSuite &Suite : G.Suites)
        for (const BenchInstance &Inst : Suite.Instances) {
          RegexParseResult Parsed = parseRegex(M, Inst.Pattern);
          if (Parsed.Ok)
            Scripts.push_back(
                regexToSmtScript(M, Parsed.Value, Inst.ExpectedSat));
        }
  }
  SolveOptions SessionOpts = Args.Opts;
  SessionOpts.Strategy = SearchStrategy::Dfs;
  SessionStats Sess = runSessionPasses(Scripts, SessionOpts);
  std::printf("\n== Resident session: corpus replayed twice, one arena ==\n");
  std::printf("instances=%zu cold=%.1fms warm=%.1fms speedup=%.1fx "
              "mismatches=%zu\n",
              Sess.Instances, Sess.ColdMs, Sess.WarmMs,
              Sess.WarmMs > 0 ? Sess.ColdMs / Sess.WarmMs : 0.0,
              Sess.Mismatches);
  std::printf("cold p50/p90/p99 = %lld/%lld/%lld us, "
              "warm p50/p90/p99 = %lld/%lld/%lld us\n",
              static_cast<long long>(percentileUs(Sess.ColdUs, 0.50)),
              static_cast<long long>(percentileUs(Sess.ColdUs, 0.90)),
              static_cast<long long>(percentileUs(Sess.ColdUs, 0.99)),
              static_cast<long long>(percentileUs(Sess.WarmUs, 0.50)),
              static_cast<long long>(percentileUs(Sess.WarmUs, 0.90)),
              static_cast<long long>(percentileUs(Sess.WarmUs, 0.99)));
  std::printf("verdict cache: hits=%llu misses=%llu inserts=%llu "
              "evictions=%llu size=%zu hit-rate=%.1f%%\n",
              static_cast<unsigned long long>(Sess.Cache.Hits),
              static_cast<unsigned long long>(Sess.Cache.Misses),
              static_cast<unsigned long long>(Sess.Cache.Inserts),
              static_cast<unsigned long long>(Sess.Cache.Evictions),
              Sess.Cache.Size, Sess.Cache.hitRate() * 100.0);

  std::printf("\nagree counts instances where the script path and the\n"
              "direct path return the same sat/unsat verdict (they must,\n"
              "modulo budget); overhead is the front end's relative cost.\n");

  bool Ok = Args.endObservation(Agg);
  if (!Args.JsonFile.empty()) {
    std::string Doc = "{\n  \"groups\": [";
    for (size_t I = 0; I != Groups.size(); ++I) {
      const GroupStats &S = Results[I];
      char Buf[256];
      std::snprintf(Buf, sizeof(Buf),
                    "%s\n    {\"name\": \"%s\", \"total\": %zu, "
                    "\"agree\": %zu, \"unknown\": %zu, "
                    "\"direct_ms\": %.3f, \"via_smt_ms\": %.3f}",
                    I ? "," : "", Groups[I].Name, S.Total, S.Agree,
                    S.Unknown, S.DirectMs, S.ViaSmtMs);
      Doc += Buf;
    }
    Doc += "\n  ],\n  \"session\": ";
    {
      char Buf[512];
      std::snprintf(
          Buf, sizeof(Buf),
          "{\"instances\": %zu, \"mismatches\": %zu, "
          "\"cold_ms\": %.3f, \"warm_ms\": %.3f, "
          "\"cold_p50_us\": %lld, \"cold_p90_us\": %lld, "
          "\"cold_p99_us\": %lld, \"warm_p50_us\": %lld, "
          "\"warm_p90_us\": %lld, \"warm_p99_us\": %lld, "
          "\"cache_hits\": %llu, \"cache_misses\": %llu, "
          "\"cache_inserts\": %llu}",
          Sess.Instances, Sess.Mismatches, Sess.ColdMs, Sess.WarmMs,
          static_cast<long long>(percentileUs(Sess.ColdUs, 0.50)),
          static_cast<long long>(percentileUs(Sess.ColdUs, 0.90)),
          static_cast<long long>(percentileUs(Sess.ColdUs, 0.99)),
          static_cast<long long>(percentileUs(Sess.WarmUs, 0.50)),
          static_cast<long long>(percentileUs(Sess.WarmUs, 0.90)),
          static_cast<long long>(percentileUs(Sess.WarmUs, 0.99)),
          static_cast<unsigned long long>(Sess.Cache.Hits),
          static_cast<unsigned long long>(Sess.Cache.Misses),
          static_cast<unsigned long long>(Sess.Cache.Inserts));
      Doc += Buf;
    }
    Doc += ",\n  \"counters\": ";
    Doc += obs::MetricsRegistry::global().snapshot().json();
    Doc += ",\n  \"histograms\": ";
    Doc += obs::HistogramRegistry::global().snapshot().json();
    Doc += ",\n  \"aggregate\": ";
    Doc += Agg.json();
    Doc += "\n}\n";
    std::FILE *F = std::fopen(Args.JsonFile.c_str(), "w");
    if (F) {
      std::fwrite(Doc.data(), 1, Doc.size(), F);
      std::fclose(F);
      std::printf("json: wrote %s\n", Args.JsonFile.c_str());
    } else {
      std::fprintf(stderr, "error: cannot write %s\n",
                   Args.JsonFile.c_str());
      Ok = false;
    }
  }
  return Ok ? 0 : 1;
}
