//===- portfolio/BatchSolver.h - Parallel batch solving front end -----------===//
///
/// \file
/// Serving-stack front end: takes N independent regex satisfiability
/// queries (surface-syntax patterns, so queries are self-contained and not
/// tied to any caller-side arena) and fans them out over a small worker
/// pool. Each worker owns a full thread-local solver stack — RegexManager,
/// TrManager, DerivativeEngine, RegexSolver — so the hot path runs with
/// zero locks and zero shared mutable state; handles never cross managers
/// (the "thread-local arena rule", DESIGN.md §7).
///
/// Queries carry their own `SolveOptions` (deadline, state budget,
/// strategy); results come back in input order regardless of scheduling.
/// Each worker recycles its stack after every query, so a query's budget
/// counts only its own states, and verdicts and witnesses are the same for
/// every thread count (a BFS witness is the shortlex-least word, whatever
/// the arena solved before).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_PORTFOLIO_BATCHSOLVER_H
#define SBD_PORTFOLIO_BATCHSOLVER_H

#include "solver/SolverResult.h"
#include "support/Metrics.h"

#include <cstddef>
#include <string>
#include <vector>

namespace sbd {

/// One independent satisfiability query.
struct BatchQuery {
  /// Extended regex in the surface syntax accepted by RegexParser.
  std::string Pattern;
  /// Per-query budget (deadline, state cap, search strategy).
  SolveOptions Opts;
};

/// Result for one query, at the query's input position.
struct BatchResult {
  /// False when the pattern failed to parse; `ParseError` explains why and
  /// `Result.Status` is Unsupported.
  bool ParseOk = false;
  std::string ParseError;
  SolveResult Result;
};

/// Pool configuration.
struct BatchOptions {
  /// Worker threads; 0 or 1 solves inline on the calling thread.
  unsigned NumThreads = 1;
};

/// Fans independent queries over thread-local solver stacks.
class BatchSolver {
public:
  explicit BatchSolver(BatchOptions Options = {}) : Opts(Options) {}

  /// Solves all queries; `result[i]` answers `Queries[i]`.
  std::vector<BatchResult> solveAll(const std::vector<BatchQuery> &Queries);

  /// Aggregated interning/memo counters across all workers of the last
  /// solveAll() call (regex arena + transition arena + engine memos).
  const CacheStats &stats() const { return Stats; }

private:
  BatchOptions Opts;
  CacheStats Stats;
};

} // namespace sbd

#endif // SBD_PORTFOLIO_BATCHSOLVER_H
