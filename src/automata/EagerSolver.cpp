//===- automata/EagerSolver.cpp - Eager automata baseline -------------------===//

#include "automata/EagerSolver.h"

#include "support/Debug.h"
#include "support/Stopwatch.h"

using namespace sbd;

std::optional<Snfa> EagerSolver::compileNfa(Re R, size_t MaxStates,
                                            bool &TimedOut) {
  if (DeadlineMs > 0 && Timer->elapsedMs() > DeadlineMs) {
    TimedOut = true;
    return std::nullopt;
  }

  // Plain RE subtrees compile directly (the cheap path a classic solver
  // also has). The fragment test is an O(1) analyzer feature lookup after
  // the first fold — the old per-recursion-level isPlainRe tree walk made
  // this quadratic on deep terms.
  const analysis::RegexFeatures &F = Analyzer.analyze(R);
  if (F.NumCompl == 0 && F.NumInter == 0) {
    auto A = compileReToNfa(M, R, MaxStates);
    if (A)
      StatesBuilt += A->numStates();
    return A;
  }

  const RegexNode &N = M.node(R);
  switch (N.Kind) {
  case RegexKind::Union:
  case RegexKind::Inter: {
    bool IsUnion = N.Kind == RegexKind::Union;
    if (Pol == Policy::NfaProduct && !IsUnion) {
      // Ablation policy: intersection as an NFA product.
      std::optional<Snfa> Acc;
      for (Re Kid : M.kids(R)) {
        auto A = compileNfa(Kid, MaxStates, TimedOut);
        if (!A)
          return std::nullopt;
        if (!Acc) {
          Acc = std::move(A);
          continue;
        }
        Acc = Snfa::product(*Acc, *A, MaxStates);
        if (!Acc)
          return std::nullopt;
        StatesBuilt += Acc->numStates();
      }
      return Acc;
    }
    // Classic policy: DFA product at every Boolean node.
    bool Minimize = Pol == Policy::DeterminizeMinimize;
    std::optional<Sdfa> Acc;
    for (Re Kid : M.kids(R)) {
      auto A = compileNfa(Kid, MaxStates, TimedOut);
      if (!A)
        return std::nullopt;
      auto D = Sdfa::determinize(*A, MaxStates);
      if (!D)
        return std::nullopt;
      StatesBuilt += D->numStates();
      if (Minimize)
        D = D->minimize();
      if (!Acc) {
        Acc = std::move(D);
        continue;
      }
      Acc = Sdfa::product(*Acc, *D, IsUnion, MaxStates);
      if (!Acc)
        return std::nullopt;
      StatesBuilt += Acc->numStates();
      if (Minimize)
        Acc = Acc->minimize();
    }
    return Acc->toNfa();
  }
  case RegexKind::Compl: {
    auto A = compileNfa(M.kid(R, 0), MaxStates, TimedOut);
    if (!A)
      return std::nullopt;
    auto D = Sdfa::determinize(*A, MaxStates);
    if (!D)
      return std::nullopt;
    StatesBuilt += D->numStates();
    if (Pol == Policy::DeterminizeMinimize)
      D = D->minimize();
    return D->complement().toNfa();
  }
  case RegexKind::Concat: {
    auto A = compileNfa(M.kid(R, 0), MaxStates, TimedOut);
    auto B = compileNfa(M.kid(R, 1), MaxStates, TimedOut);
    if (!A || !B)
      return std::nullopt;
    Snfa C = Snfa::concat(*A, *B);
    if (MaxStates && C.numStates() > MaxStates)
      return std::nullopt;
    StatesBuilt += C.numStates();
    return C;
  }
  case RegexKind::Star: {
    auto A = compileNfa(M.kid(R, 0), MaxStates, TimedOut);
    if (!A)
      return std::nullopt;
    Snfa S = Snfa::star(*A);
    if (MaxStates && S.numStates() > MaxStates)
      return std::nullopt;
    StatesBuilt += S.numStates();
    return S;
  }
  case RegexKind::Loop: {
    // Unroll the loop over the compiled body.
    auto Body = compileNfa(M.kid(R, 0), MaxStates, TimedOut);
    if (!Body)
      return std::nullopt;
    Snfa Acc = Snfa::epsilon();
    for (uint32_t I = 0; I != N.LoopMin; ++I) {
      Acc = Snfa::concat(Acc, *Body);
      if (MaxStates && Acc.numStates() > MaxStates)
        return std::nullopt;
    }
    if (N.LoopMax == LoopInf) {
      Acc = Snfa::concat(Acc, Snfa::star(*Body));
    } else {
      Snfa OptBody = Snfa::alternate(*Body, Snfa::epsilon());
      for (uint32_t I = N.LoopMin; I != N.LoopMax; ++I) {
        Acc = Snfa::concat(Acc, OptBody);
        if (MaxStates && Acc.numStates() > MaxStates)
          return std::nullopt;
      }
    }
    StatesBuilt += Acc.numStates();
    return Acc;
  }
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    sbd_unreachable("leaf kinds are plain RE and handled above");
  }
  sbd_unreachable("covered switch");
}

std::optional<Sdfa> EagerSolver::compileDfa(Re R, size_t MaxStates) {
  Stopwatch Watch;
  Timer = &Watch;
  DeadlineMs = 0; // deterministic: bounded by states, never wall clock
  StatesBuilt = 0;
  bool TimedOut = false;
  auto A = compileNfa(R, MaxStates, TimedOut);
  Timer = nullptr;
  if (!A)
    return std::nullopt;
  auto D = Sdfa::determinize(*A, MaxStates);
  if (D)
    StatesBuilt += D->numStates();
  return D;
}

SolveResult EagerSolver::solve(Re R, const SolveOptions &Opts) {
  Stopwatch Watch;
  Timer = &Watch;
  DeadlineMs = Opts.TimeoutMs;
  StatesBuilt = 0;

  SolveResult Result;
  Result.Stats.Engine = SolveEngine::Eager;
  bool TimedOut = false;
  auto A = compileNfa(R, Opts.MaxStates, TimedOut);
  if (!A) {
    Result.Status = SolveStatus::Unknown;
    Result.Stop = TimedOut ? StopReason::Timeout : StopReason::StateBudget;
    Result.Note = TimedOut ? "timeout" : "state budget exhausted";
    Result.StatesExplored = StatesBuilt;
    Result.TimeUs = Watch.elapsedUs();
    Result.Stats.TotalUs = Result.TimeUs;
    Result.Stats.SearchUs = Result.TimeUs;
    Timer = nullptr;
    return Result;
  }
  // Emptiness of the final automaton is plain reachability — no
  // determinization needed at this point.
  auto Witness = A->findWitness();
  if (Witness) {
    Result.Status = SolveStatus::Sat;
    Result.Witness = std::move(*Witness);
  } else {
    Result.Status = SolveStatus::Unsat;
  }
  Result.StatesExplored = StatesBuilt;
  Result.TimeUs = Watch.elapsedUs();
  Result.Stats.TotalUs = Result.TimeUs;
  Result.Stats.SearchUs = Result.TimeUs;
  Timer = nullptr;
  return Result;
}
