//===- baselines/AntimirovSolver.cpp - Partial-derivative baseline ----------===//

#include "baselines/AntimirovSolver.h"

#include "support/Debug.h"
#include "solver/WitnessSearch.h"
#include "support/Stopwatch.h"

#include <deque>
#include <unordered_map>

using namespace sbd;

bool sbd::linearForm(RegexManager &M, Re R, std::vector<LinearArc> &Out) {
  // Copy the node record: recursive calls below may grow the arena. Children
  // are read with kid() for the same reason.
  const RegexNode N = M.node(R);
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
    return true;
  case RegexKind::Pred:
    Out.push_back({M.predSet(R), M.epsilon()});
    return true;
  case RegexKind::Concat: {
    Re A = M.kid(R, 0), B = M.kid(R, 1);
    std::vector<LinearArc> Left;
    if (!linearForm(M, A, Left))
      return false;
    for (LinearArc &Arc : Left)
      Out.push_back({std::move(Arc.Guard), M.concat(Arc.Target, B)});
    if (M.nullable(A) && !linearForm(M, B, Out))
      return false;
    return true;
  }
  case RegexKind::Star: {
    std::vector<LinearArc> Body;
    if (!linearForm(M, M.kid(R, 0), Body))
      return false;
    for (LinearArc &Arc : Body)
      Out.push_back({std::move(Arc.Guard), M.concat(Arc.Target, R)});
    return true;
  }
  case RegexKind::Loop: {
    Re BodyRe = M.kid(R, 0);
    uint32_t Min = N.LoopMin == 0 ? 0 : N.LoopMin - 1;
    uint32_t Max = N.LoopMax == LoopInf ? LoopInf : N.LoopMax - 1;
    Re Rest = M.loop(BodyRe, Min, Max);
    std::vector<LinearArc> Body;
    if (!linearForm(M, BodyRe, Body))
      return false;
    for (LinearArc &Arc : Body)
      Out.push_back({std::move(Arc.Guard), M.concat(Arc.Target, Rest)});
    return true;
  }
  case RegexKind::Union: {
    for (size_t I = 0; I != N.NumKids; ++I)
      if (!linearForm(M, M.kid(R, I), Out))
        return false;
    return true;
  }
  case RegexKind::Inter: {
    // Pairwise product of the children's linear forms ([17]).
    std::vector<LinearArc> Acc;
    bool First = true;
    for (size_t I = 0; I != N.NumKids; ++I) {
      std::vector<LinearArc> KidArcs;
      if (!linearForm(M, M.kid(R, I), KidArcs))
        return false;
      if (First) {
        Acc = std::move(KidArcs);
        First = false;
        continue;
      }
      std::vector<LinearArc> Next;
      for (const LinearArc &A : Acc)
        for (const LinearArc &B : KidArcs) {
          CharSet G = A.Guard.intersectWith(B.Guard);
          if (G.isEmpty())
            continue;
          Re Target = M.inter(A.Target, B.Target);
          if (Target == M.empty())
            continue;
          Next.push_back({std::move(G), Target});
        }
      Acc = std::move(Next);
    }
    Out.insert(Out.end(), Acc.begin(), Acc.end());
    return true;
  }
  case RegexKind::Compl:
    return false; // not in the positive fragment
  }
  sbd_unreachable("covered switch");
}

std::optional<Snfa> sbd::buildPartialDerivativeNfa(RegexManager &M, Re R,
                                                   size_t MaxStates) {
  Snfa A;
  std::unordered_map<uint32_t, uint32_t> Index; // Re.Id -> state
  std::deque<Re> Work;
  auto intern = [&](Re State) -> std::optional<uint32_t> {
    auto It = Index.find(State.Id);
    if (It != Index.end())
      return It->second;
    if (MaxStates && A.numStates() >= MaxStates)
      return std::nullopt;
    uint32_t Idx = static_cast<uint32_t>(A.numStates());
    A.Trans.emplace_back();
    A.Final.push_back(M.nullable(State));
    Index.emplace(State.Id, Idx);
    Work.push_back(State);
    return Idx;
  };
  auto Init = intern(R);
  if (!Init)
    return std::nullopt;
  A.Initial = {*Init};
  while (!Work.empty()) {
    Re Cur = Work.front();
    Work.pop_front();
    uint32_t From = Index.at(Cur.Id);
    std::vector<LinearArc> Arcs;
    if (!linearForm(M, Cur, Arcs))
      return std::nullopt; // complement is outside the fragment
    for (const LinearArc &Arc : Arcs) {
      if (Arc.Target == M.empty())
        continue;
      auto To = intern(Arc.Target);
      if (!To)
        return std::nullopt;
      A.Trans[From].push_back({Arc.Guard, *To});
    }
  }
  return A;
}

SolveResult AntimirovSolver::solve(Re R, const SolveOptions &Opts) {
  Stopwatch Timer;
  SolveResult Result;
  Result.Stats.Engine = SolveEngine::Antimirov;

  if (Analyzer.analyze(R).NumCompl != 0) {
    Result.Status = SolveStatus::Unsupported;
    Result.Stop = StopReason::UnsupportedFragment;
    Result.Note = "complement is outside the partial-derivative fragment";
    return Result;
  }

  // Budgets as in the derivative solver, minus its adaptive clock: the
  // deadline is read every 64 expansions.
  size_t Steps = 0;
  auto kind = [&](Re Next) {
    return M.nullable(Next) ? VertexKind::Final : VertexKind::Open;
  };
  auto proceed = [&](size_t Reached, size_t) {
    if (Opts.MaxStates && Reached > Opts.MaxStates)
      return WitnessSearch::stop(Result, StopReason::StateBudget,
                                 "state budget exhausted");
    if (Opts.TimeoutMs > 0 && (++Steps & 0x3F) == 0 &&
        Timer.elapsedMs() > Opts.TimeoutMs)
      return WitnessSearch::stop(Result, StopReason::Timeout, "timeout");
    return true;
  };
  std::vector<LinearArc> Lin;
  auto expand = [&](Re Cur, std::vector<SearchArc> &Out) {
    Lin.clear();
    if (!linearForm(M, Cur, Lin))
      return WitnessSearch::stop(
          Result, StopReason::UnsupportedFragment,
          "complement is outside the partial-derivative fragment");
    for (const LinearArc &Arc : Lin)
      if (Arc.Target != M.empty())
        Out.push_back(SearchArc{*Arc.Guard.sample(), Arc.Target});
    return true;
  };

  WitnessSearch().run(R, SearchStrategy::Bfs, Result, kind, proceed, expand);
  Result.Stats.SolverSteps = Result.StatesExplored;
  Result.TimeUs = Timer.elapsedUs();
  Result.Stats.TotalUs = Result.TimeUs;
  Result.Stats.SearchUs = Result.TimeUs;
  return Result;
}
