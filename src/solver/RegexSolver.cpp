//===- solver/RegexSolver.cpp - Decision procedure (Section 5) --------------===//
// sbd-lint: hot-path

#include "solver/RegexSolver.h"

#include "analysis/AuditHooks.h"
#include "solver/WitnessSearch.h"
#include "support/Histogram.h"
#include "support/Stopwatch.h"

#include <algorithm>

using namespace sbd;

SolveResult RegexSolver::checkSat(Re R, const SolveOptions &OptsIn) {
  Stopwatch Timer;
  SolveResult Result;
  Result.Stats.Engine = OptsIn.Strategy == SearchStrategy::Dfs
                            ? SolveEngine::DerivDfs
                            : SolveEngine::DerivBfs;

  // The δdnf product memos pay off within one query's distributions; a warm
  // arena that kept them would grow them by every query it ever solved.
  T.dropProductMemos();

  // Per-query attribution: queries never migrate threads, so the diff of
  // this thread's metric shard (and of the owning arenas' cache counters)
  // over the query is exactly this query's work.
#if SBD_OBS
  const obs::MetricShard ShardBefore = obs::tlsShard();
#endif
  CacheStats CacheBefore = M.stats();
  CacheBefore += T.stats();
  CacheBefore += Engine.stats();
  const size_t NodesBefore = M.numNodes() + T.numNodes();

  // Pre-solve static analysis (DESIGN.md §14): features feed the recorded
  // prediction below and the admission-control cap. Memoized per node, so
  // repeat queries cost one dense-vector lookup.
  Stopwatch AnalysisTimer;
  const analysis::RegexFeatures Feat = Analyzer.analyze(R);
  const int64_t AnalysisUs = AnalysisTimer.elapsedUs();

  // Admission control: a query the analyzer classifies as Adversarial and
  // that arrives without its own state budget gets a hard cap before it can
  // burn arena memory; everything else keeps the caller's budget.
  SolveOptions Opts = OptsIn;
  if (Feat.Class == analysis::ReClass::Adversarial && Opts.MaxStates == 0) {
    Opts.MaxStates = AdmissionMaxStates;
    SBD_OBS_INC(AdmissionFlagged);
  }

  size_t Steps = 0;
  uint64_t TimeoutChecks = 0;
  size_t PeakFrontier = 0;

  /// Settles Dead and fills Result.Stats/TimeUs; every return path goes
  /// through here, so the next query's bot rule sees this one's dead ends.
  auto finalize = [&] {
    Graph.settleDead();
    Result.TimeUs = Timer.elapsedUs();
    SolveStats &St = Result.Stats;
    St.TotalUs = Result.TimeUs;
    St.SolverSteps = Steps;
    St.TimeoutChecks = TimeoutChecks;
    St.PeakFrontier = PeakFrontier;
    CacheStats CacheDiff = M.stats();
    CacheDiff += T.stats();
    CacheDiff += Engine.stats();
    CacheDiff.InternHits -= CacheBefore.InternHits;
    CacheDiff.InternMisses -= CacheBefore.InternMisses;
    CacheDiff.MemoHits -= CacheBefore.MemoHits;
    CacheDiff.MemoMisses -= CacheBefore.MemoMisses;
    CacheDiff.ProbeSteps -= CacheBefore.ProbeSteps;
    CacheDiff.Lookups -= CacheBefore.Lookups;
    St.InternHits = CacheDiff.InternHits;
    St.InternMisses = CacheDiff.InternMisses;
    St.MemoHits = CacheDiff.MemoHits;
    St.MemoMisses = CacheDiff.MemoMisses;
    St.ArenaNodes = M.numNodes() + T.numNodes() - NodesBefore;
    St.PredictedClass = analysis::reClassName(Feat.Class);
    St.RiskScore = Feat.Risk;
    St.PredictedStates = analysis::predictedStateBound(Feat);
    St.AnalysisUs = AnalysisUs;
#if SBD_OBS
    obs::MetricShard Diff = obs::tlsShard().since(ShardBefore);
#define SBD_COPY_Copy(Member) St.Member = Diff.get(obs::Counter::Member);
#define SBD_COPY_Set(Member)
#define SBD_COPY_C(Type, Member, Stat, How) SBD_COPY_##How(Member)
#define SBD_COPY_T(Type, Member, Stat, Key, Id)                                \
  St.Member = static_cast<Type>(Diff.get(obs::Counter::Id));
#define SBD_COPY_F(...)
    SBD_SOLVE_STATS_FIELDS(SBD_COPY_C, SBD_COPY_T, SBD_COPY_F)
#undef SBD_COPY_F
#undef SBD_COPY_T
#undef SBD_COPY_C
#undef SBD_COPY_Set
#undef SBD_COPY_Copy
    // MintermUs is informational only: computeMinterms runs *inside* the
    // derive/DNF regions, so it is excluded from the residual.
    int64_t Attributed = St.DeriveUs + St.DnfUs;
    St.SearchUs = St.TotalUs > Attributed ? St.TotalUs - Attributed : 0;
    // Fold this query's contribution into the process-wide registry under
    // the unified counter names.
    obs::MetricShard &Shard = obs::tlsShard();
    CacheDiff.foldInto(Shard);
    Shard.add(obs::Counter::SolverSteps, Steps);
    Shard.add(obs::Counter::TimeoutChecks, TimeoutChecks);
    Shard.add(obs::Counter::QueriesSolved, 1);
    Shard.add(obs::Counter::SolveTimeUs, static_cast<uint64_t>(St.TotalUs));
    Shard.add(obs::Counter::SearchTimeUs, static_cast<uint64_t>(St.SearchUs));
    SBD_OBS_HIST(SolveLatencyUs, St.TotalUs);
    SBD_OBS_HIST(SolveArenaNodes, St.ArenaNodes);
#endif
    // SBD_AUDIT builds: re-verify the similarity/NNF invariants over both
    // live arenas before handing the result back (compiles out by default).
    SBD_AUDIT_CHECKSAT_EXIT(M, T);
  };

  // Deadline discipline: the clock is read every (CheckMask+1) steps, and
  // the mask adapts — when the gap between two reads exceeds the target
  // slice (an eighth of the budget, capped at 10ms) the mask halves, so
  // slow derivative steps tighten the checking cadence instead of letting
  // the query overshoot its budget; fast steps relax it back toward 1/64.
  // Large DNF expansions additionally force an immediate check.
  const int64_t BudgetUs = Opts.TimeoutMs > 0 ? Opts.TimeoutMs * 1000 : 0;
  const int64_t SliceUs =
      BudgetUs > 0 ? std::max<int64_t>(
                         100, std::min<int64_t>(BudgetUs / 8, 10000))
                   : 0;
  uint64_t CheckMask = 0x3F;
  int64_t LastCheckUs = 0;
  auto timeExpired = [&]() -> bool {
    if (BudgetUs <= 0)
      return false;
    ++TimeoutChecks;
    int64_t Now = Timer.elapsedUs();
    int64_t SinceLast = Now - LastCheckUs;
    LastCheckUs = Now;
    if (SinceLast > SliceUs)
      CheckMask >>= 1;
    else if (SinceLast * 4 < SliceUs && CheckMask < 0x3F)
      CheckMask = CheckMask * 2 + 1;
    return Now >= BudgetUs;
  };
  /// Arc-count threshold above which an expansion forces a clock check.
  constexpr size_t BigExpansion = 16;

  // The der/ite/or/ere rules over the graph G: a vertex is a regex goal for
  // some suffix s_k.. of the string, ν(r) closes it (ere rule), a proven
  // dead end is never expanded (bot rule), and an expansion unfolds
  // δdnf(r), records it in G (upd rule) and takes one character per
  // satisfiable branch guard (ite rule).
  auto kind = [&](Re Next) {
    if (M.nullable(Next))
      return VertexKind::Final;
    return Graph.isDead(Next) ? VertexKind::Dead : VertexKind::Open;
  };
  auto proceed = [&](size_t Reached, size_t Open) {
    if (Open > PeakFrontier)
      PeakFrontier = Open;
    if (Opts.MaxStates && Reached > Opts.MaxStates)
      return WitnessSearch::stop(Result, StopReason::StateBudget,
                                 "state budget exhausted");
    if ((++Steps & CheckMask) == 0 && timeExpired())
      return WitnessSearch::stop(Result, StopReason::Timeout, "timeout");
    return true;
  };
  std::vector<Re> Targets;
  auto expand = [&](Re Cur, std::vector<SearchArc> &Out) {
    std::span<const TrArcSample> Arcs =
        T.arcSamples(Engine.derivativeDnf(Cur));
    SBD_OBS_HIST(DnfExpansionArcs, Arcs.size());
    if (Arcs.size() >= BigExpansion && timeExpired())
      return WitnessSearch::stop(Result, StopReason::Timeout, "timeout");
    Targets.clear();
    for (const TrArcSample &A : Arcs) {
      Targets.push_back(A.Target);
      Out.push_back(SearchArc{A.Ch, A.Target});
    }
    Graph.close(Cur, Targets);
    return true;
  };

  Graph.addVertex(R);
  WitnessSearch().run(R, Opts.Strategy, Result, kind, proceed, expand);
  // An exhausted search closed the whole reachable component without a
  // final vertex: R is a dead end, hence unsatisfiable (Theorem 5.2).
  finalize();
  assert((!Result.isUnsat() || Graph.isDead(R)) &&
         "exhausted exploration must prove deadness");
  return Result;
}

SolveResult
RegexSolver::checkMembership(const std::vector<MembershipLiteral> &Literals,
                             const SolveOptions &Opts) {
  // in(s,r1) ∧ ¬in(s,r2) ∧ …  ⇒  in(s, r1 & ~r2 & …)   (Section 2)
  std::vector<Re> Parts;
  Parts.reserve(Literals.size());
  for (const MembershipLiteral &L : Literals)
    Parts.push_back(L.Positive ? L.Regex : M.complement(L.Regex));
  return checkSat(M.interList(std::move(Parts)), Opts);
}

SolveResult RegexSolver::checkContains(Re A, Re B, const SolveOptions &Opts) {
  return checkSat(M.diff(A, B), Opts);
}

SolveResult RegexSolver::checkEquivalent(Re A, Re B,
                                         const SolveOptions &Opts) {
  // r1 ≡ r2 iff (r1 & ~r2) | (r2 & ~r1) ≡ ⊥.
  return checkSat(M.union_(M.diff(A, B), M.diff(B, A)), Opts);
}

RegexSolver::CaseSplit RegexSolver::caseSplit(Re R) {
  CaseSplit Out;
  Out.EmptyCase = M.nullable(R);
  Out.Arcs = T.arcs(Engine.derivativeDnf(R));
  // upd rule: record the derivative targets and close the vertex.
  std::vector<Re> Targets;
  Targets.reserve(Out.Arcs.size());
  for (const TrArc &A : Out.Arcs)
    Targets.push_back(A.Target);
  Graph.addVertex(R);
  Graph.close(R, Targets);
  Graph.settleDead();
  return Out;
}

Re RegexSolver::positionConstraint(const std::vector<CharSet> &Positions) {
  std::vector<Re> Parts;
  Parts.reserve(Positions.size() + 1);
  for (const CharSet &S : Positions)
    Parts.push_back(M.pred(S));
  Parts.push_back(M.top());
  return M.concatList(Parts);
}

bool RegexSolver::matchesWord(Re R, const std::vector<uint32_t> &Word) {
#if SBD_OBS
  Stopwatch ScanTimer;
#endif
  const bool Ok = Engine.matches(R, Word);
  SBD_OBS_ADD(ScanTimeUs, ScanTimer.elapsedUs());
  return Ok;
}
