//===- core/TransitionRegex.cpp - Transition regexes ------------------------===//
// sbd-lint: hot-path

#include "core/TransitionRegex.h"

#include "analysis/AuditHooks.h"
#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>
#include <set>

using namespace sbd;

TrManager::TrManager(RegexManager &Mgr) : M(Mgr) {
  BotTr = leaf(M.empty());
  TopTr = leaf(M.top());
}

Tr TrManager::intern(TrNode Node, std::span<const Tr> Kids) {
  assert((Kids.empty() || Kids.data() < KidPool.data() ||
          Kids.data() >= KidPool.data() + KidPool.size()) &&
         "intern's kid span must not alias the kid pool");
  // Kept in sync with audit::detail::recomputeTrHash.
  uint64_t H = hashMix(static_cast<uint64_t>(Node.Kind));
  H = hashCombine(H, Node.LeafRe.Id);
  H = hashCombine(H, Node.Cond.Id);
  for (Tr Kid : Kids)
    H = hashCombine(H, Kid.Id);
  Node.Hash = H;
#if SBD_AUDIT
  const size_t SizeBefore = Nodes.size();
#endif
  uint32_t Id = ConsTable.findOrInsert(
      H,
      [&](uint32_t Cand) {
        const TrNode &Other = Nodes[Cand];
        return Other.Kind == Node.Kind && Other.LeafRe == Node.LeafRe &&
               Other.Cond == Node.Cond && Other.NumKids == Kids.size() &&
               std::equal(Kids.begin(), Kids.end(),
                          KidPool.begin() + Other.KidsBegin);
      },
      [&] {
        uint32_t NewId = static_cast<uint32_t>(Nodes.size());
        Node.KidsBegin = static_cast<uint32_t>(KidPool.size());
        Node.NumKids = static_cast<uint32_t>(Kids.size());
        KidPool.insert(KidPool.end(), Kids.begin(), Kids.end());
        Nodes.push_back(Node);
        return NewId;
      },
      Stats);
#if SBD_AUDIT
  if (Nodes.size() != SizeBefore)
    SBD_AUDIT_TR_NODE(*this, Tr{Id});
#endif
  return Tr{Id};
}

void TrManager::reserve(size_t NumNodes) {
  Nodes.reserve(NumNodes);
  KidPool.reserve(NumNodes * 2);
  ConsTable.reserve(NumNodes);
}

void TrManager::clearCaches() {
  NegateMemo.clear();
  DnfMemo.clear();
  dropProductMemos();
}

void TrManager::dropProductMemos() {
  // Assigning empty tables frees their slots: clear() would keep them and
  // cost their full capacity on every query.
  UnderMemo = FlatMap64();
  InterMemo = FlatMap<IdTriple>();
}

Tr TrManager::leaf(Re R) {
  TrNode N;
  N.Kind = TrKind::Leaf;
  N.LeafRe = R;
  return intern(N);
}

Tr TrManager::ite(PredId Cond, Tr T, Tr F) {
  if (Cond == PredPool::Top)
    return T;
  if (Cond == PredPool::Bot)
    return F;
  // Collapse directly nested conditionals on the same predicate:
  // if(φ, if(φ,a,b), f) = if(φ, a, f) and dually for the false branch.
  if (kind(T) == TrKind::Ite && node(T).Cond == Cond)
    T = kid(T, 0);
  if (kind(F) == TrKind::Ite && node(F).Cond == Cond)
    F = kid(F, 1);
  if (T == F)
    return T;
  TrNode N;
  N.Kind = TrKind::Ite;
  N.Cond = Cond;
  const Tr Kids[2] = {T, F};
  return intern(N, Kids);
}

Tr TrManager::union_(std::span<const Tr> Ts) {
  return makeBoolean(TrKind::Union, Ts);
}

Tr TrManager::inter(std::span<const Tr> Ts) {
  return makeBoolean(TrKind::Inter, Ts);
}

Tr TrManager::makeBoolean(TrKind K, std::span<const Tr> Ts) {
  const bool IsUnion = K == TrKind::Union;
  std::vector<Tr> &Flat = FlatScratch;
  Flat.clear();
  for (Tr T : Ts) {
    if (kind(T) == K) {
      std::span<const Tr> Inner = kids(T);
      Flat.insert(Flat.end(), Inner.begin(), Inner.end());
    } else {
      Flat.push_back(T);
    }
  }
  // Merge all ERE leaves through the regex algebra; this also handles the
  // unit (⊥ for |, .* for &) and the absorbing element (.* for |, ⊥ for &).
  std::vector<Re> &LeafRes = LeafScratch;
  std::vector<Tr> &Kids = KidScratch;
  LeafRes.clear();
  Kids.clear();
  for (Tr T : Flat) {
    if (kind(T) == TrKind::Leaf)
      LeafRes.push_back(node(T).LeafRe);
    else
      Kids.push_back(T);
  }
  if (!LeafRes.empty()) {
    Re Merged = IsUnion ? M.unionList(LeafRes) : M.interList(LeafRes);
    if (Merged == (IsUnion ? M.top() : M.empty()))
      return IsUnion ? TopTr : BotTr;
    if (Merged != (IsUnion ? M.empty() : M.top()))
      Kids.push_back(leaf(Merged));
  }
  std::sort(Kids.begin(), Kids.end());
  Kids.erase(std::unique(Kids.begin(), Kids.end()), Kids.end());
  if (Kids.empty())
    return IsUnion ? BotTr : TopTr;
  if (Kids.size() == 1)
    return Kids[0];
  TrNode N;
  N.Kind = K;
  return intern(N, Kids);
}

Tr TrManager::popBoolean(TrKind K, size_t Base) {
  // makeBoolean copies its operands into FlatScratch before it builds
  // anything, so the span may point into KidStack.
  const Tr Result = makeBoolean(K, std::span<const Tr>(KidStack).subspan(Base));
  KidStack.resize(Base);
  return Result;
}

Tr TrManager::negate(Tr T) {
  if (T.Id < NegateMemo.size() && NegateMemo[T.Id] != MissingId) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{NegateMemo[T.Id]};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  // Copy the node record (it holds no heap member): recursive calls below
  // may grow the arena and invalidate references into it. Children are
  // read with kid() for the same reason.
  const TrNode N = node(T);
  Tr Result;
  switch (N.Kind) {
  case TrKind::Leaf:
    Result = leaf(M.complement(N.LeafRe));
    break;
  case TrKind::Ite: {
    Tr Then = negate(kid(T, 0));
    Tr Else = negate(kid(T, 1));
    Result = ite(N.Cond, Then, Else);
    break;
  }
  case TrKind::Union:
  case TrKind::Inter: {
    const size_t Base = KidStack.size();
    for (size_t I = 0; I != N.NumKids; ++I)
      KidStack.push_back(negate(kid(T, I)));
    Result = popBoolean(
        N.Kind == TrKind::Union ? TrKind::Inter : TrKind::Union, Base);
    break;
  }
  }
  if (NegateMemo.size() <= T.Id)
    NegateMemo.resize(Nodes.size(), MissingId);
  NegateMemo[T.Id] = Result.Id;
  return Result;
}

Tr TrManager::concatRe(Tr T, Re R) {
  if (R == M.empty())
    return BotTr; // every leaf becomes L·∅ = ∅
  if (R == M.epsilon())
    return T;
  const TrNode N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    return leaf(M.concat(N.LeafRe, R));
  case TrKind::Ite: {
    Tr ElseC = concatRe(kid(T, 1), R); // else first, as in dnfUnderStep
    Tr ThenC = concatRe(kid(T, 0), R);
    return ite(N.Cond, ThenC, ElseC);
  }
  case TrKind::Union: {
    const size_t Base = KidStack.size();
    for (size_t I = 0; I != N.NumKids; ++I)
      KidStack.push_back(concatRe(kid(T, I), R));
    return popBoolean(TrKind::Union, Base);
  }
  case TrKind::Inter:
    // (τ & ρ) · R = lift(τ & ρ) · R — the one place lifting is required.
    return concatRe(dnf(T), R);
  }
  sbd_unreachable("covered switch");
}

Re TrManager::apply(Tr T, uint32_t Ch) const {
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    return N.LeafRe;
  case TrKind::Ite:
    return condSet(T).contains(Ch) ? apply(kid(T, 0), Ch)
                                   : apply(kid(T, 1), Ch);
  case TrKind::Union:
  case TrKind::Inter: {
    // Only the regex arena grows below, so the TR kid span stays valid.
    std::vector<Re> Rs;
    Rs.reserve(N.NumKids);
    for (Tr Kid : kids(T))
      Rs.push_back(apply(Kid, Ch));
    return N.Kind == TrKind::Union ? M.unionList(Rs) : M.interList(Rs);
  }
  }
  sbd_unreachable("covered switch");
}

Tr TrManager::dnf(Tr T) {
  if (T.Id < DnfMemo.size() && DnfMemo[T.Id] != MissingId) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{DnfMemo[T.Id]};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  Tr Result = dnfUnder(T, PredPool::Top);
  if (DnfMemo.size() <= T.Id)
    DnfMemo.resize(Nodes.size(), MissingId);
  DnfMemo[T.Id] = Result.Id;
  SBD_AUDIT_DNF(*this, Result);
  return Result;
}

Tr TrManager::dnfUnder(Tr T, PredId Path) {
  assert(Path != PredPool::Bot && "dnfUnder requires a satisfiable path");
  if (kind(T) == TrKind::Leaf)
    return T;
  const uint64_t Key = static_cast<uint64_t>(T.Id) << 32 | Path.Id;
  if (const uint32_t *Hit = UnderMemo.find(Key)) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{*Hit};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  Tr Result = dnfUnderStep(T, Path);
  UnderMemo.insert(Key, Result.Id);
  return Result;
}

Tr TrManager::dnfUnderStep(Tr T, PredId Path) {
  const TrNode N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    sbd_unreachable("dnfUnder returns leaves itself");
  case TrKind::Ite: {
    Tr Then = kid(T, 0), Else = kid(T, 1);
    PredId PathT = M.preds().conj(Path, N.Cond);
    PredId PathF = M.preds().minus(Path, N.Cond);
    if (PathT == PredPool::Bot) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return dnfUnder(Else, Path); // the then-branch is dead here
    }
    if (PathF == PredPool::Bot) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return dnfUnder(Then, Path); // the else-branch is dead here
    }
    SBD_OBS_ADD(DnfBranchesExplored, 2);
    // Else before then: node ids follow interning order, and arc order, DFS
    // witnesses and state counts follow node ids, so this order matters. Every
    // recursive ite construction in this file uses it, so ids do not depend
    // on the compiler's argument evaluation order.
    Tr ElseD = dnfUnder(Else, PathF);
    Tr ThenD = dnfUnder(Then, PathT);
    return ite(N.Cond, ThenD, ElseD);
  }
  case TrKind::Union: {
    const size_t Base = KidStack.size();
    for (size_t I = 0; I != N.NumKids; ++I)
      KidStack.push_back(dnfUnder(kid(T, I), Path));
    return popBoolean(TrKind::Union, Base);
  }
  case TrKind::Inter: {
    Tr Acc = dnfUnder(kid(T, 0), Path);
    for (size_t I = 1; I != N.NumKids; ++I)
      Acc = interDnf(Acc, kid(T, I), Path);
    return Acc;
  }
  }
  sbd_unreachable("covered switch");
}

Tr TrManager::leafInterDnf(Re A, Tr B) {
  const TrNode N = node(B);
  switch (N.Kind) {
  case TrKind::Leaf:
    return leaf(M.inter(A, N.LeafRe));
  case TrKind::Ite: {
    Tr ElseD = leafInterDnf(A, kid(B, 1)); // else first, as in dnfUnderStep
    Tr ThenD = leafInterDnf(A, kid(B, 0));
    return ite(N.Cond, ThenD, ElseD);
  }
  case TrKind::Union: {
    const size_t Base = KidStack.size();
    for (size_t I = 0; I != N.NumKids; ++I)
      KidStack.push_back(leafInterDnf(A, kid(B, I)));
    return popBoolean(TrKind::Union, Base);
  }
  case TrKind::Inter:
    sbd_unreachable("leafInterDnf requires a DNF operand");
  }
  sbd_unreachable("covered switch");
}

Tr TrManager::interDnf(Tr A, Tr B, PredId Path) {
  if (A == BotTr)
    return BotTr;
  if (A == TopTr)
    return dnfUnder(B, Path);
  const IdTriple Key{A.Id, B.Id, Path.Id};
  if (const uint32_t *Hit = InterMemo.find(Key)) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{*Hit};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  Tr Result = interDnfStep(A, B, Path);
  InterMemo.insert(Key, Result.Id);
  return Result;
}

Tr TrManager::interDnfStep(Tr A, Tr B, PredId Path) {
  const TrNode N = node(A);
  switch (N.Kind) {
  case TrKind::Leaf: {
    Tr Bd = dnfUnder(B, Path);
    return leafInterDnf(N.LeafRe, Bd);
  }
  case TrKind::Ite: {
    Tr Then = kid(A, 0), Else = kid(A, 1);
    PredId PathT = M.preds().conj(Path, N.Cond);
    PredId PathF = M.preds().minus(Path, N.Cond);
    if (PathT == PredPool::Bot) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return interDnf(Else, B, Path);
    }
    if (PathF == PredPool::Bot) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return interDnf(Then, B, Path);
    }
    SBD_OBS_ADD(DnfBranchesExplored, 2);
    // Else before then, as in dnfUnderStep.
    Tr ElseD = interDnf(Else, B, PathF);
    Tr ThenD = interDnf(Then, B, PathT);
    return ite(N.Cond, ThenD, ElseD);
  }
  case TrKind::Union: {
    const size_t Base = KidStack.size();
    for (size_t I = 0; I != N.NumKids; ++I)
      KidStack.push_back(interDnf(kid(A, I), B, Path));
    return popBoolean(TrKind::Union, Base);
  }
  case TrKind::Inter:
    sbd_unreachable("interDnf's first operand must be in DNF");
  }
  sbd_unreachable("covered switch");
}

bool TrManager::isDnf(Tr T) const {
  if (kind(T) == TrKind::Inter)
    return false;
  for (Tr Kid : kids(T))
    if (!isDnf(Kid))
      return false;
  return true;
}

void TrManager::collectLeaves(Tr T, std::vector<Re> &Out,
                              bool IncludeTrivial) const {
  std::set<uint32_t> Seen;
  std::vector<Tr> Stack = {T};
  std::set<uint32_t> Visited;
  for (Re R : Out)
    Seen.insert(R.Id);
  while (!Stack.empty()) {
    Tr Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur.Id).second)
      continue;
    const TrNode &N = node(Cur);
    if (N.Kind == TrKind::Leaf) {
      Re R = N.LeafRe;
      if (!IncludeTrivial && (R == M.empty() || R == M.top()))
        continue;
      if (Seen.insert(R.Id).second)
        Out.push_back(R);
      continue;
    }
    for (Tr Kid : kids(Cur))
      Stack.push_back(Kid);
  }
}

void TrManager::collectArcs(Tr T, PredId Guard) {
  // Only the predicate pool grows below, so the kid spans stay valid.
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    if (N.LeafRe != M.empty())
      RawArcs.push_back({Guard, N.LeafRe});
    return;
  case TrKind::Ite: {
    PredId GuardT = M.preds().conj(Guard, N.Cond);
    PredId GuardF = M.preds().minus(Guard, N.Cond);
    if (GuardT != PredPool::Bot)
      collectArcs(kid(T, 0), GuardT);
    if (GuardF != PredPool::Bot)
      collectArcs(kid(T, 1), GuardF);
    return;
  }
  case TrKind::Union:
    for (Tr Kid : kids(T))
      collectArcs(Kid, Guard);
    return;
  case TrKind::Inter:
    sbd_unreachable("arcs() requires a DNF transition regex");
  }
  sbd_unreachable("covered switch");
}

template <class FirstFn, class MoreFn>
void TrManager::mergeArcs(Tr T, FirstFn First, MoreFn More) {
  RawArcs.clear();
  collectArcs(T, PredPool::Top);
  // The walk interns no regex node, so every target has a slot.
  if (ArcIndex.size() < M.numNodes())
    ArcIndex.resize(M.numNodes(), MissingId);
  uint32_t NumArcs = 0;
  for (const auto &[Guard, Target] : RawArcs) {
    uint32_t &At = ArcIndex[Target.Id];
    if (At == MissingId) {
      At = NumArcs++;
      First(Guard, Target);
    } else {
      More(At, Guard);
    }
  }
  for (const auto &Raw : RawArcs)
    ArcIndex[Raw.second.Id] = MissingId;
  SBD_OBS_ADD(ArcsEnumerated, NumArcs);
}

std::vector<TrArc> TrManager::arcs(Tr T) {
  // A merged guard is a temporary set, not interned: interning every
  // partial union would keep n²/2 intervals for n arcs into one target.
  std::vector<TrArc> Out;
  mergeArcs(
      T,
      [&](PredId Guard, Re Target) {
        Out.push_back({M.preds().set(Guard), Target});
      },
      [&](uint32_t At, PredId Guard) {
        Out[At].Guard = Out[At].Guard.unionWith(M.preds().set(Guard));
      });
  return Out;
}

std::span<const TrArcSample> TrManager::arcSamples(Tr T) {
  // Guards are satisfiable, so every sample() has a value.
  Samples.clear();
  mergeArcs(
      T,
      [&](PredId Guard, Re Target) {
        Samples.push_back({*M.preds().set(Guard).sample(), Target});
      },
      [&](uint32_t At, PredId Guard) {
        const uint32_t Ch = *M.preds().set(Guard).sample();
        if (witnessLess(Ch, Samples[At].Ch))
          Samples[At].Ch = Ch;
      });
  return Samples;
}

void TrManager::collectGuards(Tr T, std::vector<CharSet> &Out) const {
  std::set<CharSet> Seen(Out.begin(), Out.end());
  std::vector<Tr> Stack = {T};
  std::set<uint32_t> Visited;
  while (!Stack.empty()) {
    Tr Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur.Id).second)
      continue;
    if (kind(Cur) == TrKind::Ite && Seen.insert(condSet(Cur)).second)
      Out.push_back(condSet(Cur));
    for (Tr Kid : kids(Cur))
      Stack.push_back(Kid);
  }
}

std::string TrManager::toString(Tr T) const {
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    return M.toString(N.LeafRe);
  case TrKind::Ite:
    return "if(" + condSet(T).str() + ", " + toString(kid(T, 0)) + ", " +
           toString(kid(T, 1)) + ")";
  case TrKind::Union:
  case TrKind::Inter: {
    std::string Sep = N.Kind == TrKind::Union ? " | " : " & ";
    std::string Out = "(";
    for (size_t I = 0; I != N.NumKids; ++I) {
      if (I)
        Out += Sep;
      Out += toString(kid(T, I));
    }
    Out += ')';
    return Out;
  }
  }
  sbd_unreachable("covered switch");
}
