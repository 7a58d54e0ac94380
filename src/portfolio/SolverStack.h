//===- portfolio/SolverStack.h - One worker's full solver stack -------------===//
///
/// \file
/// The rebuildable per-worker solver stack shared by every batch front end:
/// `BatchSolver`'s thread workers, the `src/dist` worker processes, and
/// (shape-wise) `sbd-server`'s resident stack. Members are constructed in
/// declaration order, so the references wired through the constructors are
/// valid; the struct is non-movable and lives behind a unique_ptr — a
/// "recycle" is building a fresh one (hash-consing needs stable node ids,
/// so arenas only ever grow; see DESIGN.md §7).
///
/// `solveOnStack` is the one query execution path all of them share: parse
/// on the stack's arena, route through the analyzer-driven portfolio, and
/// revalidate Sat witnesses with the classical derivative walk (§8.1) on
/// the stack's engine.
/// Keeping it single-sourced is what makes "1-process and N-process runs
/// produce byte-identical verdict streams" (DESIGN.md §16) a structural
/// property rather than a test-enforced accident.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_PORTFOLIO_SOLVERSTACK_H
#define SBD_PORTFOLIO_SOLVERSTACK_H

#include "portfolio/BatchSolver.h"
#include "portfolio/Portfolio.h"

namespace sbd {
namespace portfolio {

/// One worker's solver stack: arena, transition arena, derivative engine,
/// solver, and the portfolio front end sharing them.
struct SolverStack {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
  PortfolioSolver P{S};

  SolverStack() = default;
  SolverStack(const SolverStack &) = delete;
  SolverStack &operator=(const SolverStack &) = delete;

  /// Interning + memo counters accumulated in this stack so far.
  CacheStats stats() const {
    CacheStats Out;
    Out += M.stats();
    Out += T.stats();
    Out += E.stats();
    return Out;
  }
};

/// Solves one query on the given stack. \p LongLived marks stacks that
/// survive across queries (ReuseArenas), where eager dense-row recording
/// pays for itself on the very next shared vertex. Sat witnesses are
/// revalidated by RegexSolver::matchesWord, one classical derivative step
/// per witness character (DESIGN.md §15); a failed revalidation is
/// downgraded to Unknown rather than shipping an invalid witness.
BatchResult solveOnStack(SolverStack &W, const BatchQuery &Q, bool LongLived);

} // namespace portfolio
} // namespace sbd

#endif // SBD_PORTFOLIO_SOLVERSTACK_H
