//===- portfolio/Portfolio.cpp - Analyzer-driven engine selection -----------===//

#include "portfolio/Portfolio.h"

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
  std::string CacheKey;
  bool Reprove = false;
  if (Cache) {
    Stopwatch HitTimer;
    CacheKey = cache::canonicalVerdictKey(M, R, Opts);
    std::optional<cache::CachedVerdict> Hit = Cache->lookup(CacheKey);
    // An Unsat entry read from disk had no solve in this process: the solve
    // below re-proves it, and its insert marks the entry proven.
    Reprove = Hit && !Hit->Sat && !Hit->Proven;
    if (Hit && !Reprove) {
      SolveResult Out;
      Out.Stats.Engine = SolveEngine::VerdictCache;
      if (Hit->Sat) {
        // The cache is untrusted: replay the witness through the classical
        // derivative walk (matchesWord) before serving. A rejection is a
        // hard error — the entry (or the check) is wrong, and re-solving
        // would paper over it.
        if (!S.matchesWord(R, Hit->Witness)) {
          Cache->noteRevalidationFailure(CacheKey);
          Out.Status = SolveStatus::Unknown;
          Out.Stop = StopReason::CacheRevalidationFailed;
          Out.Note = "cached witness failed derivative revalidation";
          Out.TimeUs = HitTimer.elapsedUs();
          Out.Stats.TotalUs = Out.TimeUs;
          return Out;
        }
        Out.Status = SolveStatus::Sat;
        Out.Witness = Hit->Witness;
      } else {
        Out.Status = SolveStatus::Unsat;
      }
      Out.TimeUs = HitTimer.elapsedUs();
      Out.Stats.TotalUs = Out.TimeUs;
      return Out;
    }
  }

  Stopwatch AnalysisTimer;
  // A reference is safe: records never move (RegexAnalyzer pages), and
  // Anti.solve below reads the same record from the same analyzer.
  const analysis::RegexFeatures &Feat = S.analyzer().analyze(R);
  const int64_t AnalysisUs = AnalysisTimer.elapsedUs();
  RouteDecision D = planRoute(Feat, Opts);

  SolveResult Out;
  bool Solved = false;
  if (D.Engine == SolveEngine::Antimirov) {
    SolveResult R1 = Anti.solve(R, Opts);
    if (R1.Status == SolveStatus::Sat || R1.Status == SolveStatus::Unsat) {
      R1.Stats.PredictedClass = analysis::reClassName(Feat.Class);
      R1.Stats.RiskScore = Feat.Risk;
      R1.Stats.PredictedStates = analysis::predictedStateBound(Feat);
      R1.Stats.AnalysisUs = AnalysisUs;
      Out = std::move(R1);
      Solved = true;
    }
    // Non-answer (budget, timeout, fragment): the derivative engine is the
    // completeness backstop, so routing can never lose a verdict.
  }
  if (!Solved)
    Out = S.checkSat(R, Opts);

  if (Reprove && Out.isSat()) {
    // The fresh solve contradicts the loaded Unsat entry: the same hard
    // error as a rejected cached witness. An Unknown is served as is and
    // leaves the entry unproven.
    Cache->noteRevalidationFailure(CacheKey);
    Out.Status = SolveStatus::Unknown;
    Out.Stop = StopReason::CacheRevalidationFailed;
    Out.Note = "cached unsat failed revalidation: a fresh solve found a "
               "witness";
    Out.Witness.clear();
    return Out;
  }

  // Memoize definite verdicts only: Unknown/Unsupported depend on budgets
  // and fragment coverage, not on the language, so they must never be
  // served cross-query.
  if (Cache && !CacheKey.empty() &&
      (Out.Status == SolveStatus::Sat || Out.Status == SolveStatus::Unsat)) {
    cache::CachedVerdict V;
    V.Sat = Out.isSat();
    V.Witness = Out.Witness;
    Cache->insert(CacheKey, std::move(V));
  }
  return Out;
}
