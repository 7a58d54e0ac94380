//===- portfolio/Portfolio.cpp - Analyzer-driven engine selection -----------===//

#include "portfolio/Portfolio.h"

#include "portfolio/SlowQueryLog.h"
#include "support/Stopwatch.h"

using namespace sbd;
using namespace sbd::portfolio;

// Routing thresholds (DESIGN.md §14). Antimirov's partial-derivative BFS
// wins on small positive iteration-only patterns — at most ♯(R)+1 NFA
// states, no DNF transformation — but its per-query closure rebuild loses
// to the derivative engine's per-regex δdnf memo as patterns grow, so the
// gate is deliberately tight (tuned on bench_smt_corpus).
namespace {
constexpr uint32_t AntimirovMaxDag = 48;
constexpr uint32_t AntimirovMaxPreds = 16;
constexpr uint64_t AntimirovMaxBlowup = 16;
} // namespace

RouteDecision portfolio::planRoute(const analysis::RegexFeatures &F,
                                   const SolveOptions &Opts) {
  RouteDecision D;
  // Only the derivative engine implements the DFS strategy knob; honoring
  // the caller's search order outranks any routing win.
  if (Opts.Strategy == SearchStrategy::Dfs) {
    D.Engine = SolveEngine::DerivDfs;
    D.Reason = "dfs_strategy_pinned";
    return D;
  }
  if (F.Class == analysis::ReClass::Adversarial) {
    // Derivative engine under the admission cap: it degrades gracefully
    // (budgeted Unknown) where the eager constructions blow up first.
    D.Reason = "adversarial_capped";
    return D;
  }
  if (F.Class == analysis::ReClass::KleeneOnly && F.DagSize <= AntimirovMaxDag &&
      F.DistinctPreds <= AntimirovMaxPreds &&
      F.CounterBlowup <= AntimirovMaxBlowup) {
    D.Engine = SolveEngine::Antimirov;
    D.Reason = "small_positive_iteration";
    return D;
  }
  // Literal/Sparse queries are near-free on the derivative engine (a warm
  // arena reuses their δdnf memos); Boolean/counter-heavy ones are
  // outside the baselines' efficient fragment. BrzMinterm and the eager
  // DFA constructions are dominated on every class (see DESIGN.md §14) and
  // are never auto-selected.
  return D;
}

SolveResult PortfolioSolver::checkSat(Re R, const SolveOptions &Opts) {
  // Cross-query verdict cache (DESIGN.md §15). The probe runs before the
  // analyzer: a hit skips analysis, routing, and solving entirely, except
  // the first hit of an Unsat entry read from disk. An empty key means the
  // canonical print exceeded the key cap — skip.
  Stopwatch HitTimer;
  std::string CacheKey;
  std::optional<cache::CachedVerdict> Hit;
  if (Cache) {
    CacheKey = cache::canonicalVerdictKey(M, R, Opts);
    Hit = Cache->lookup(CacheKey);
  }
  // An Unsat entry read from disk had no solve in this process: the solve
  // below re-proves it, and its insert marks the entry proven.
  const bool Reprove = Hit && !Hit->Sat && !Hit->Proven;
  const bool Served = Hit && !Reprove;

  SolveResult Out;
  if (Served) {
    Out.Stats.Engine = SolveEngine::VerdictCache;
    Out.Status = Hit->Sat ? SolveStatus::Sat : SolveStatus::Unsat;
    Out.Witness = std::move(Hit->Witness);
  } else {
    Out = solve(R, Opts);
  }

  // The verdict gate: every Sat answer, fresh or cached, is replayed once
  // through the classical derivative walk (matchesWord, §8.1), which shares
  // no δ or δdnf memo with the engines. A rejection is a hard error — the
  // engine, the entry or the check is wrong, and re-solving would paper
  // over it.
  const char *Rejected = nullptr;
  if (Out.isSat()) {
    Stopwatch ScanTimer;
    const bool Valid = S.matchesWord(R, Out.Witness);
    Out.Stats.ScanUs += ScanTimer.elapsedUs();
    if (!Valid)
      Rejected = Served ? "cached witness failed derivative revalidation"
                        : "witness failed derivative revalidation";
    else if (Reprove)
      // The fresh solve contradicts the loaded Unsat entry. An Unknown is
      // served as is and leaves the entry unproven.
      Rejected = "cached unsat failed revalidation: a fresh solve found a "
                 "witness";
  }
  if (Rejected) {
    if (Hit)
      Cache->noteRevalidationFailure(CacheKey);
    Out.Status = SolveStatus::Unknown;
    Out.Stop = StopReason::RevalidationFailed;
    Out.Note = Rejected;
    Out.Witness.clear();
  } else if (!Served && !CacheKey.empty() && (Out.isSat() || Out.isUnsat())) {
    // Memoize definite verdicts only: Unknown/Unsupported depend on budgets
    // and fragment coverage, not on the language, so they must never be
    // served cross-query.
    cache::CachedVerdict V;
    V.Sat = Out.isSat();
    V.Witness = Out.Witness;
    Cache->insert(CacheKey, std::move(V));
  }
  if (Served) {
    Out.TimeUs = HitTimer.elapsedUs();
    Out.Stats.TotalUs = Out.TimeUs;
  }
#if SBD_OBS
  // The slow-query log filters every answer here, at the one exit all
  // engines and the verdict cache share (DESIGN.md §13).
  obs::SlowQueryLog &Slow = obs::SlowQueryLog::global();
  if (Slow.shouldCapture(Out.Stats.TotalUs))
    Slow.append(
        obs::slowQueryRecord(M, R, Opts, Out, S.analyzer().analyze(R)));
#endif
  return Out;
}

SolveResult PortfolioSolver::solve(Re R, const SolveOptions &Opts) {
  Stopwatch AnalysisTimer;
  // A reference is safe: records never move (RegexAnalyzer pages), and
  // Anti.solve below reads the same record from the same analyzer.
  const analysis::RegexFeatures &Feat = S.analyzer().analyze(R);
  const int64_t AnalysisUs = AnalysisTimer.elapsedUs();
  if (planRoute(Feat, Opts).Engine == SolveEngine::Antimirov) {
    SolveResult R1 = Anti.solve(R, Opts);
    if (R1.Status == SolveStatus::Sat || R1.Status == SolveStatus::Unsat) {
      R1.Stats.PredictedClass = analysis::reClassName(Feat.Class);
      R1.Stats.RiskScore = Feat.Risk;
      R1.Stats.PredictedStates = analysis::predictedStateBound(Feat);
      R1.Stats.AnalysisUs = AnalysisUs;
      return R1;
    }
    // Non-answer (budget, timeout, fragment): the derivative engine is the
    // completeness backstop, so routing can never lose a verdict.
  }
  return S.checkSat(R, Opts);
}
