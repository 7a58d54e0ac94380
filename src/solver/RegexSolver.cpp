//===- solver/RegexSolver.cpp - Decision procedure (Section 5) --------------===//

#include "solver/RegexSolver.h"

#include "analysis/AuditHooks.h"
#include "re/SmtPrinter.h"
#include "solver/SlowQueryLog.h"
#include "support/Histogram.h"
#include "support/Stopwatch.h"
#include "support/Trace.h"

#include <algorithm>
#include <deque>
#include <unordered_map>

using namespace sbd;

namespace {

/// Per-query BFS bookkeeping: how a regex vertex was first reached.
struct Reached {
  Re Parent;
  uint32_t Ch;
  uint32_t Depth;
};

} // namespace

SolveResult RegexSolver::checkSat(Re R, const SolveOptions &OptsIn) {
  Stopwatch Timer;
  SolveResult Result;
  Result.Stats.Engine = OptsIn.Strategy == SearchStrategy::Dfs
                            ? SolveEngine::DerivDfs
                            : SolveEngine::DerivBfs;
  obs::ScopedSpan Span("checkSat", "solver");

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
#if SBD_OBS
  // Frontier tracing feeds the slow-query explain artifact; it only runs
  // when a capture trigger is armed (one relaxed load per query).
  const bool SlowArmed = obs::SlowQueryLog::global().armed();
  obs::FrontierTrace Frontier;
#endif

  /// Fills Result.Stats/TimeUs; every return path goes through here.
  auto finalize = [&] {
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
    int64_t Attributed = St.DeriveUs + St.DnfUs + St.CacheProbeUs;
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
    if (obs::SlowQueryLog::global().shouldCapture(St.TotalUs, St.ArenaNodes)) {
      obs::SlowQueryArtifact A;
      A.Pattern = regexToSmtTerm(M, R);
      std::optional<bool> Expected;
      if (Result.Status == SolveStatus::Sat)
        Expected = true;
      else if (Result.Status == SolveStatus::Unsat)
        Expected = false;
      A.Script = regexToSmtScript(M, R, Expected);
      A.Strategy = Opts.Strategy == SearchStrategy::Dfs ? "dfs" : "bfs";
      A.TimeoutMs = Opts.TimeoutMs;
      A.MaxStates = Opts.MaxStates;
      A.Status = statusName(Result.Status);
      A.StopReason = stopReasonName(Result.Stop);
      A.TotalUs = St.TotalUs;
      A.States = Result.StatesExplored;
      A.FrontierStride = Frontier.Stride;
      A.Frontier = Frontier.Samples;
      A.TopCounters = obs::topCounterDeltas(Diff);
      A.StatsJson = St.json();
      A.FeaturesJson = Feat.json();
      obs::SlowQueryLog::global().capture(std::move(A));
    }
#endif
    Span.arg("status", std::string(statusName(Result.Status)));
    Span.arg("states", static_cast<uint64_t>(Result.StatesExplored));
    // SBD_AUDIT builds: re-verify the similarity/NNF invariants over both
    // live arenas before handing the result back (compiles out by default).
    SBD_AUDIT_CHECKSAT_EXIT(M, T);
  };

  // Breadth-first unfolding of the der/ite/or/ere rules. Each queue entry is
  // a regex goal for some suffix s_k.. of the string; depth = k.
  std::deque<Re> Queue;
  std::unordered_map<uint32_t, Reached> Visited; // Re.Id -> how reached

  auto finishSat = [&](Re Final) {
    // Reconstruct the witness by walking parents back to R.
    std::vector<uint32_t> Word;
    Re Cur = Final;
    while (true) {
      const Reached &Info = Visited.at(Cur.Id);
      if (Info.Depth == 0)
        break; // reached the root goal
      Word.push_back(Info.Ch);
      Cur = Info.Parent;
    }
    std::reverse(Word.begin(), Word.end());
    Result.Status = SolveStatus::Sat;
    Result.Witness = std::move(Word);
    Result.StatesExplored = Visited.size();
    finalize();
    return Result;
  };

  Graph.addVertex(R);
  Visited.emplace(R.Id, Reached{R, 0, 0});

  // der rule, ε case: |s| = 0 ∧ ν(r).
  if (M.nullable(R))
    return finishSat(R);
  if (Graph.isDead(R)) {
    // bot rule: r was already proven a dead end by an earlier query.
    Result.Status = SolveStatus::Unsat;
    Result.StatesExplored = Visited.size();
    finalize();
    return Result;
  }
  Queue.push_back(R);

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

  while (!Queue.empty()) {
    if (Queue.size() > PeakFrontier)
      PeakFrontier = Queue.size();
#if SBD_OBS
    if (SlowArmed)
      Frontier.push(Queue.size());
#endif
    // Budget checks (time checked adaptively to keep it off the hot path).
    if (Opts.MaxStates && Visited.size() > Opts.MaxStates) {
      Result.Status = SolveStatus::Unknown;
      Result.Stop = StopReason::StateBudget;
      Result.Note = "state budget exhausted";
      break;
    }
    if ((++Steps & CheckMask) == 0 && timeExpired()) {
      Result.Status = SolveStatus::Unknown;
      Result.Stop = StopReason::Timeout;
      Result.Note = "timeout";
      break;
    }

    bool Dfs = Opts.Strategy == SearchStrategy::Dfs;
    Re Cur = Dfs ? Queue.back() : Queue.front();
    if (Dfs)
      Queue.pop_back();
    else
      Queue.pop_front();
    uint32_t Depth = Visited.at(Cur.Id).Depth;

    // Replay fast path: an earlier query already expanded Cur and recorded
    // its dense successor row (witness char, target Re.Id pairs). Replaying
    // the row skips δdnf construction, arc extraction, sorting, and guard
    // sampling entirely. Soundness: Q(δdnf) is deterministic per regex, the
    // row stores every arc (no determinization — lazy alternation is
    // preserved), and witnesses stay valid because guards are interned.
    if (const std::vector<uint32_t> *Row = Graph.arcRow(Cur)) {
      SBD_OBS_INC(DenseRowHits);
#if SBD_OBS
      Stopwatch ProbeTimer;
#endif
      SBD_AUDIT_DENSE_ROW(T, Engine.derivativeDnf(Cur), *Row, Cur.Id);
      for (size_t I = 0; I < Row->size(); I += 2) {
        uint32_t Ch = (*Row)[I];
        Re Next{(*Row)[I + 1]};
        if (Visited.count(Next.Id))
          continue;
        Visited.emplace(Next.Id, Reached{Cur, Ch, Depth + 1});
        if (M.nullable(Next)) {
          SBD_OBS_ADD(CacheProbeTimeUs, ProbeTimer.elapsedUs());
          return finishSat(Next);
        }
        if (Graph.isDead(Next))
          continue; // bot rule
        Queue.push_back(Next);
      }
      SBD_OBS_ADD(CacheProbeTimeUs, ProbeTimer.elapsedUs());
      continue;
    }

    // der rule, |s| > 0 case: unfold δdnf(Cur) and upd the graph.
    Tr Dnf = Engine.derivativeDnf(Cur);
    std::vector<TrArc> Arcs = T.arcs(Dnf);
    SBD_OBS_HIST(DnfExpansionArcs, Arcs.size());
    if (Arcs.size() >= BigExpansion && timeExpired()) {
      Result.Status = SolveStatus::Unknown;
      Result.Stop = StopReason::Timeout;
      Result.Note = "timeout";
      break;
    }
    if (Opts.PreferSimplerArcs) {
      // DFS pops from the back, so order large-to-small to explore the
      // syntactically smallest residue first; BFS gains the same bias in
      // dequeue order by sorting small-to-large.
      std::stable_sort(Arcs.begin(), Arcs.end(),
                       [&](const TrArc &A, const TrArc &B) {
                         uint32_t SA = M.node(A.Target).Size;
                         uint32_t SB = M.node(B.Target).Size;
                         return Dfs ? SA > SB : SA < SB;
                       });
    }
    // Record the dense row when this is a *re*-expansion (the vertex was
    // already closed by an earlier query or caseSplit): a vertex seen twice
    // is likely to be seen again, and recording on the second pass keeps
    // one-shot queries free of per-vertex row allocations. Long-lived
    // stacks opt into first-expansion recording instead.
    bool RecordRow = Opts.EagerRowRecording || Graph.isClosed(Cur);
    std::vector<Re> Targets;
    std::vector<uint32_t> Chars;
    Targets.reserve(Arcs.size());
    if (RecordRow)
      Chars.reserve(Arcs.size());
    for (const TrArc &A : Arcs) {
      Targets.push_back(A.Target);
      if (RecordRow) {
        // Witnesses for the whole row (not just unvisited arcs) so later
        // queries can replay it verbatim.
        auto Ch = A.Guard.sample();
        assert(Ch && "arcs must carry satisfiable guards");
        Chars.push_back(*Ch);
      }
    }
    if (RecordRow)
      Graph.closeWithRow(Cur, Targets, Chars);
    else
      Graph.close(Cur, Targets);

    for (size_t I = 0; I != Targets.size(); ++I) {
      Re Next = Targets[I];
      if (Visited.count(Next.Id))
        continue;
      // ite rule: the branch guard must be satisfiable — arcs() guarantees
      // it; pick a concrete representative for the witness.
      uint32_t Ch;
      if (RecordRow) {
        Ch = Chars[I];
      } else {
        auto Sampled = Arcs[I].Guard.sample();
        assert(Sampled && "arcs must carry satisfiable guards");
        Ch = *Sampled;
      }
      Visited.emplace(Next.Id, Reached{Cur, Ch, Depth + 1});
      // ere rule: in(s_{k+1}.., Next); ε sub-case checked on dequeue.
      if (M.nullable(Next))
        return finishSat(Next);
      if (Graph.isDead(Next))
        continue; // bot rule
      Queue.push_back(Next);
    }
  }

  if (Result.Status == SolveStatus::Unknown && !Result.Note.empty()) {
    Result.StatesExplored = Visited.size();
    finalize();
    return Result;
  }

  // The whole reachable component is closed and contains no final vertex:
  // R is a dead end, hence unsatisfiable (Theorem 5.2).
  Result.Status = SolveStatus::Unsat;
  Result.StatesExplored = Visited.size();
  finalize();
  assert(Graph.isDead(R) && "exhausted exploration must prove deadness");
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
  for (PooledMatcher &P : MatcherPool)
    if (P.ReId == R.Id)
      return P.Matcher->matches(Word);
  if (MatcherPool.size() == MaxPooledMatchers)
    MatcherPool.clear(); // wholesale flush: matchers rebuild lazily
  CachedMatcher::Options MO;
  // Validation words are short, so the promotion clock is set low — a
  // regex validated a handful of times earns the compiled table — and the
  // closure cap tight, so pathological patterns stay on the lazy path.
  MO.PromoteAfterChars = 512;
  MO.CompileMaxStates = 512;
  MatcherPool.push_back(
      {R.Id, std::make_unique<CachedMatcher>(Engine, R, MO)});
  return MatcherPool.back().Matcher->matches(Word);
}
