//===- portfolio/BatchSolver.cpp - Parallel batch solving front end ---------===//

#include "portfolio/BatchSolver.h"

#include "re/RegexParser.h"
#include "portfolio/SolverStack.h"
#include "support/Stopwatch.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <thread>

using namespace sbd;
using portfolio::SolverStack;

BatchResult portfolio::solveOnStack(SolverStack &W, const BatchQuery &Q,
                                    bool /*ignored*/) {
  BatchResult Out;
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
  Out.Result.Stats.ParseUs = ParseUs;
  Out.Result.Stats.TotalUs += ParseUs;
  Out.Result.TimeUs += ParseUs;
  return Out;
}

std::vector<BatchResult>
BatchSolver::solveAll(const std::vector<BatchQuery> &Queries) {
  std::vector<BatchResult> Results(Queries.size());
  Stats.reset();

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
      if (Dirty) {
        Local += W->stats();
        W = std::make_unique<SolverStack>();
      }
      Results[I] = solveOnStack(*W, Queries[I]);
      Dirty = true;
    }
    Local += W->stats();
    std::lock_guard<std::mutex> Lock(StatsMutex);
    Stats += Local;
  };

  unsigned Threads = Opts.NumThreads;
  if (Threads <= 1 || Queries.size() <= 1) {
    workLoop();
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
  return Results;
}
