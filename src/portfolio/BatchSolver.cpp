//===- portfolio/BatchSolver.cpp - Parallel batch solving front end ---------===//

#include "portfolio/BatchSolver.h"

#include "re/RegexParser.h"
#include "portfolio/SolverStack.h"
#include "support/Exposition.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

using namespace sbd;
using portfolio::SolverStack;

BatchResult portfolio::solveOnStack(SolverStack &W, const BatchQuery &Q,
                                    bool /*ignored*/) {
  BatchResult Out;
  obs::ScopedSpan Span("query", "batch");
  Span.arg("pattern", Q.Pattern);
  Stopwatch ParseTimer;
  RegexParseResult Parsed = parseRegex(W.M, Q.Pattern);
  int64_t ParseUs = ParseTimer.elapsedUs();
  SBD_OBS_ADD(ParseTimeUs, ParseUs);
  if (!Parsed.Ok) {
    Out.ParseError = Parsed.Error;
    Out.Result.Status = SolveStatus::Unsupported;
    Out.Result.Stop = StopReason::ParseError;
    Out.Result.Note = "parse error: " + Parsed.Error;
    Out.Result.Stats.ParseUs = ParseUs;
    Out.Result.Stats.TotalUs = ParseUs;
    return Out;
  }
  Out.ParseOk = true;
  Out.Result = W.P.checkSat(Parsed.Value, Q.Opts);
  // Sat witnesses are re-validated by the classical derivative walk
  // (matchesWord, §8.1). This is a pure guard: verdicts and witnesses are
  // unchanged on the (only observed) passing path, and a divergence is
  // downgraded to Unknown rather than shipping an invalid witness. The
  // check stays here, not inside PortfolioSolver: sbdbench's traced pass
  // mirrors this function step by step (DESIGN.md §15).
  if (Out.Result.isSat()) {
#if SBD_OBS
    const obs::MetricShard ScanBefore = obs::tlsShard();
#endif
    bool Valid = W.S.matchesWord(Parsed.Value, Out.Result.Witness);
#if SBD_OBS
    // The check runs after checkSat returned, so attribute its scan time to
    // the query here (same thread-local-shard diff the solver uses).
    Out.Result.Stats.ScanUs += static_cast<int64_t>(
        obs::tlsShard().since(ScanBefore).get(obs::Counter::ScanTimeUs));
#endif
    if (!Valid) {
      Out.Result.Status = SolveStatus::Unknown;
      Out.Result.Note = "witness failed the derivative membership check";
    }
  }
  Out.Result.Stats.ParseUs = ParseUs;
  Out.Result.Stats.TotalUs += ParseUs;
  Out.Result.TimeUs += ParseUs;
  return Out;
}

namespace {

/// Buckets every result's SolveStats by the engine that produced it.
std::vector<EnginePhaseRow>
bucketByEngine(const std::vector<BatchResult> &Results) {
  EnginePhaseRow Rows[NumSolveEngines];
  for (size_t I = 0; I != NumSolveEngines; ++I)
    Rows[I].Engine = static_cast<SolveEngine>(I);
  for (const BatchResult &R : Results) {
    if (!R.ParseOk)
      continue;
    EnginePhaseRow &Row = Rows[static_cast<size_t>(R.Result.Stats.Engine)];
    ++Row.Queries;
    Row.Stats += R.Result.Stats;
  }
  std::vector<EnginePhaseRow> Out;
  for (size_t I = 0; I != NumSolveEngines; ++I)
    if (Rows[I].Queries)
      Out.push_back(Rows[I]);
  return Out;
}

} // namespace

std::vector<BatchResult>
BatchSolver::solveAll(const std::vector<BatchQuery> &Queries) {
  std::vector<BatchResult> Results(Queries.size());
  Stats.reset();
  Phases.clear();

  // The work loop every worker runs: claim the next unprocessed query index
  // and solve it on this worker's stack. Results are written to disjoint
  // slots, so no synchronization beyond the claim counter is needed.
  std::atomic<size_t> Next{0};
  std::mutex StatsMutex;
  auto workLoop = [&] {
    auto W = std::make_unique<SolverStack>();
    CacheStats Local;
    bool Dirty = false;
    for (size_t I = Next.fetch_add(1, std::memory_order_relaxed);
         I < Queries.size();
         I = Next.fetch_add(1, std::memory_order_relaxed)) {
      bool Recycle =
          Dirty &&
          (!Opts.ReuseArenas ||
           (Opts.ArenaNodeBudget && W->M.numNodes() > Opts.ArenaNodeBudget));
      if (Recycle) {
        Local += W->stats();
        W = std::make_unique<SolverStack>();
      }
      Results[I] = solveOnStack(*W, Queries[I]);
      Dirty = true;
      // Safe point for SIGUSR1-driven exposition dumps (one relaxed load
      // when no dump is pending).
      obs::pollExposition();
    }
    Local += W->stats();
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stats += Local;
  };

  unsigned Threads = Opts.NumThreads;
  if (Threads <= 1 || Queries.size() <= 1) {
    workLoop();
    Phases = bucketByEngine(Results);
    return Results;
  }
  if (Threads > Queries.size())
    Threads = static_cast<unsigned>(Queries.size());

  std::vector<std::thread> Pool;
  Pool.reserve(Threads);
  for (unsigned I = 0; I != Threads; ++I)
    Pool.emplace_back(workLoop);
  for (std::thread &Th : Pool)
    Th.join();
  Phases = bucketByEngine(Results);
  return Results;
}
