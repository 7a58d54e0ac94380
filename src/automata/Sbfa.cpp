//===- automata/Sbfa.cpp - Symbolic Boolean Finite Automata -----------------===//

#include "automata/Sbfa.h"

#include "support/Debug.h"

#include <deque>

using namespace sbd;

void Sbfa::collectAtomics(Re R, std::vector<Re> &Out) const {
  const RegexManager &M = Engine->regexManager();
  switch (M.kind(R)) {
  case RegexKind::Union:
  case RegexKind::Inter:
  case RegexKind::Compl:
    for (Re Kid : M.kids(R))
      collectAtomics(Kid, Out);
    return;
  default:
    Out.push_back(R);
    return;
  }
}

uint32_t Sbfa::internState(Re R) {
  auto It = StateIndex.find(R.Id);
  if (It != StateIndex.end())
    return It->second;
  uint32_t Idx = static_cast<uint32_t>(States.size());
  States.push_back(R);
  Delta.push_back(Tr{}); // filled when the state is expanded
  Final.push_back(Engine->regexManager().nullable(R));
  StateIndex.emplace(R.Id, Idx);
  return Idx;
}

std::optional<Sbfa> Sbfa::build(DerivativeEngine &Engine, Re R,
                                size_t MaxStates) {
  RegexManager &M = Engine.regexManager();
  TrManager &T = Engine.trManager();

  Sbfa A(Engine);
  // Q always contains the trivial states; ι = R is a state too (the only
  // one that may carry Boolean structure).
  A.Bottom = A.internState(M.empty());
  A.Top = A.internState(M.top());
  A.Initial = A.internState(R);
  // ∆(q⊥) = q⊥ and ∆(.*) = .* — both are fixed points of δ.
  A.Delta[A.Bottom] = T.bot();
  A.Delta[A.Top] = T.topLeaf();

  std::deque<uint32_t> Work;
  if (A.Initial != A.Bottom && A.Initial != A.Top)
    Work.push_back(A.Initial);
  while (!Work.empty()) {
    uint32_t Q = Work.front();
    Work.pop_front();
    Tr D = Engine.derivative(A.States[Q]);
    A.Delta[Q] = D;
    // Terminals: descend through the TR structure *and* through the
    // Boolean structure of its ERE leaves.
    std::vector<Re> Leaves;
    T.collectLeaves(D, Leaves, /*IncludeTrivial=*/false);
    std::vector<Re> Atomics;
    for (Re Leaf : Leaves)
      A.collectAtomics(Leaf, Atomics);
    for (Re Atomic : Atomics) {
      if (Atomic == M.empty() || Atomic == M.top() ||
          A.StateIndex.count(Atomic.Id))
        continue;
      if (MaxStates && A.States.size() >= MaxStates)
        return std::nullopt;
      Work.push_back(A.internState(Atomic));
    }
  }
  // ι is the state of R itself (the one state allowed to carry Boolean
  // structure); the first step through ∆(ι) = δ(R) moves to atomic states.
  A.InitialExpr = A.configInitial(*A.Exprs);
  return A;
}

std::optional<uint32_t> Sbfa::stateOf(Re R) const {
  auto It = StateIndex.find(R.Id);
  if (It == StateIndex.end())
    return std::nullopt;
  return It->second;
}

BE Sbfa::leafToExpr(BoolExprManager &B, Re R) const {
  const RegexManager &M = Engine->regexManager();
  if (R == M.empty())
    return B.falseExpr();
  if (R == M.top())
    return B.trueExpr();
  switch (M.kind(R)) {
  case RegexKind::Union:
  case RegexKind::Inter: {
    std::vector<BE> Kids;
    for (Re Kid : M.kids(R))
      Kids.push_back(leafToExpr(B, Kid));
    return M.kind(R) == RegexKind::Union ? B.or_(std::move(Kids))
                                         : B.and_(std::move(Kids));
  }
  case RegexKind::Compl:
    return B.not_(leafToExpr(B, M.kid(R, 0)));
  default: {
    auto It = StateIndex.find(R.Id);
    assert(It != StateIndex.end() && "atomic leaf is not a state");
    return B.atom(It->second);
  }
  }
}

BE Sbfa::trToExpr(BoolExprManager &B, Tr Node, uint32_t Ch) const {
  const TrManager &T = Engine->trManager();
  const TrNode &N = T.node(Node);
  switch (N.Kind) {
  case TrKind::Leaf:
    return leafToExpr(B, N.LeafRe);
  case TrKind::Ite:
    return trToExpr(B, T.kid(Node, T.condSet(Node).contains(Ch) ? 0 : 1),
                    Ch);
  case TrKind::Union:
  case TrKind::Inter: {
    std::vector<BE> Kids;
    Kids.reserve(N.NumKids);
    for (Tr Kid : T.kids(Node))
      Kids.push_back(trToExpr(B, Kid, Ch));
    return N.Kind == TrKind::Union ? B.or_(std::move(Kids))
                                   : B.and_(std::move(Kids));
  }
  }
  sbd_unreachable("covered switch");
}

BE Sbfa::configAfter(BoolExprManager &B, uint32_t State, uint32_t Ch) const {
  return trToExpr(B, Delta[State], Ch);
}

bool Sbfa::accepts(const std::vector<uint32_t> &Word) {
  BoolExprManager &B = *Exprs;
  BE Config = InitialExpr;
  for (uint32_t Ch : Word) {
    // The run configuration is an element of B(Q); one step substitutes
    // every state atom q by the Boolean combination ∆(q)(Ch).
    Config = B.substitute(
        Config, [&](uint32_t State) { return configAfter(B, State, Ch); });
    // False (q⊥) and True (.*) are fixed points of substitution: the rest
    // of the word cannot change the outcome.
    if (Config == B.falseExpr())
      return false;
    if (Config == B.trueExpr())
      return true;
  }
  return B.eval(Config, [&](uint32_t State) { return Final[State]; });
}
