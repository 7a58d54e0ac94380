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

Tr TrManager::intern(TrNode Node) {
  uint64_t H = hashMix(static_cast<uint64_t>(Node.Kind));
  H = hashCombine(H, Node.LeafRe.Id);
  H = hashCombine(H, Node.Cond.hash());
  for (Tr Kid : Node.Kids)
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
               Other.Cond == Node.Cond && Other.Kids == Node.Kids;
      },
      [&] {
        uint32_t NewId = static_cast<uint32_t>(Nodes.size());
        Nodes.push_back(std::move(Node));
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
  PairIds = FlatMap64();
  InterMemo = FlatMap64();
  Paths.clear();
  PathTable = InternTable();
}

uint32_t TrManager::internPath(const CharSet &Path, uint32_t &PathId) {
  if (PathId != MissingId)
    return PathId;
  // dnf() hands out FullPathId before the pool holds anything, so the
  // pool's first entry must be the full path.
  if (Paths.empty() && !Path.isFull()) {
    uint32_t Full = MissingId;
    internPath(CharSet::full(), Full);
  }
  PathId = PathTable.findOrInsert(
      Path.hash(), [&](uint32_t Id) { return Paths[Id] == Path; },
      [&] {
        uint32_t Id = static_cast<uint32_t>(Paths.size());
        Paths.push_back(Path);
        return Id;
      },
      PathStats);
  return PathId;
}

Tr TrManager::leaf(Re R) {
  TrNode N;
  N.Kind = TrKind::Leaf;
  N.LeafRe = R;
  return intern(std::move(N));
}

Tr TrManager::ite(const CharSet &Cond, Tr T, Tr F) {
  if (Cond.isFull())
    return T;
  if (Cond.isEmpty())
    return F;
  // Collapse directly nested conditionals on the same predicate:
  // if(φ, if(φ,a,b), f) = if(φ, a, f) and dually for the false branch.
  if (kind(T) == TrKind::Ite && node(T).Cond == Cond)
    T = node(T).Kids[0];
  if (kind(F) == TrKind::Ite && node(F).Cond == Cond)
    F = node(F).Kids[1];
  if (T == F)
    return T;
  TrNode N;
  N.Kind = TrKind::Ite;
  N.Cond = Cond;
  N.Kids = {T, F};
  return intern(std::move(N));
}

Tr TrManager::union_(std::vector<Tr> Ts) {
  std::vector<Tr> Flat;
  for (Tr T : Ts) {
    if (kind(T) == TrKind::Union)
      Flat.insert(Flat.end(), node(T).Kids.begin(), node(T).Kids.end());
    else
      Flat.push_back(T);
  }
  // Merge all ERE leaves through the regex algebra; this also handles the
  // unit (⊥) and absorbing (.*) elements.
  std::vector<Re> LeafRes;
  std::vector<Tr> Kids;
  for (Tr T : Flat) {
    if (kind(T) == TrKind::Leaf)
      LeafRes.push_back(node(T).LeafRe);
    else
      Kids.push_back(T);
  }
  if (!LeafRes.empty()) {
    Re Merged = M.unionList(std::move(LeafRes));
    if (Merged == M.top())
      return TopTr;
    if (Merged != M.empty())
      Kids.push_back(leaf(Merged));
  }
  std::sort(Kids.begin(), Kids.end());
  Kids.erase(std::unique(Kids.begin(), Kids.end()), Kids.end());
  if (Kids.empty())
    return BotTr;
  if (Kids.size() == 1)
    return Kids[0];
  TrNode N;
  N.Kind = TrKind::Union;
  N.Kids = std::move(Kids);
  return intern(std::move(N));
}

Tr TrManager::inter(std::vector<Tr> Ts) {
  std::vector<Tr> Flat;
  for (Tr T : Ts) {
    if (kind(T) == TrKind::Inter)
      Flat.insert(Flat.end(), node(T).Kids.begin(), node(T).Kids.end());
    else
      Flat.push_back(T);
  }
  std::vector<Re> LeafRes;
  std::vector<Tr> Kids;
  for (Tr T : Flat) {
    if (kind(T) == TrKind::Leaf)
      LeafRes.push_back(node(T).LeafRe);
    else
      Kids.push_back(T);
  }
  if (!LeafRes.empty()) {
    Re Merged = M.interList(std::move(LeafRes));
    if (Merged == M.empty())
      return BotTr;
    if (Merged != M.top())
      Kids.push_back(leaf(Merged));
  }
  std::sort(Kids.begin(), Kids.end());
  Kids.erase(std::unique(Kids.begin(), Kids.end()), Kids.end());
  if (Kids.empty())
    return TopTr;
  if (Kids.size() == 1)
    return Kids[0];
  TrNode N;
  N.Kind = TrKind::Inter;
  N.Kids = std::move(Kids);
  return intern(std::move(N));
}

Tr TrManager::negate(Tr T) {
  if (T.Id < NegateMemo.size() && NegateMemo[T.Id] != MissingId) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{NegateMemo[T.Id]};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  // Copy the node: recursive calls below may grow the arena and invalidate
  // references into it.
  TrNode N = node(T);
  Tr Result;
  switch (N.Kind) {
  case TrKind::Leaf:
    Result = leaf(M.complement(N.LeafRe));
    break;
  case TrKind::Ite: {
    Tr Then = negate(N.Kids[0]);
    Tr Else = negate(N.Kids[1]);
    Result = ite(N.Cond, Then, Else);
    break;
  }
  case TrKind::Union: {
    std::vector<Tr> Kids = N.Kids;
    for (Tr &Kid : Kids)
      Kid = negate(Kid);
    Result = inter(std::move(Kids));
    break;
  }
  case TrKind::Inter: {
    std::vector<Tr> Kids = N.Kids;
    for (Tr &Kid : Kids)
      Kid = negate(Kid);
    Result = union_(std::move(Kids));
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
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    return leaf(M.concat(N.LeafRe, R));
  case TrKind::Ite: {
    Tr Then = node(T).Kids[0], Else = node(T).Kids[1];
    CharSet Cond = node(T).Cond;
    Tr ElseC = concatRe(Else, R); // else first, as in dnfUnderStep
    Tr ThenC = concatRe(Then, R);
    return ite(Cond, ThenC, ElseC);
  }
  case TrKind::Union: {
    std::vector<Tr> Kids = N.Kids;
    for (Tr &Kid : Kids)
      Kid = concatRe(Kid, R);
    return union_(std::move(Kids));
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
    return N.Cond.contains(Ch) ? apply(N.Kids[0], Ch) : apply(N.Kids[1], Ch);
  case TrKind::Union: {
    std::vector<Re> Rs;
    Rs.reserve(N.Kids.size());
    for (Tr Kid : N.Kids)
      Rs.push_back(apply(Kid, Ch));
    return M.unionList(std::move(Rs));
  }
  case TrKind::Inter: {
    std::vector<Re> Rs;
    Rs.reserve(N.Kids.size());
    for (Tr Kid : N.Kids)
      Rs.push_back(apply(Kid, Ch));
    return M.interList(std::move(Rs));
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
  Tr Result = dnfUnder(T, CharSet::full(), FullPathId);
  if (DnfMemo.size() <= T.Id)
    DnfMemo.resize(Nodes.size(), MissingId);
  DnfMemo[T.Id] = Result.Id;
  SBD_AUDIT_DNF(*this, Result);
  return Result;
}

Tr TrManager::dnfUnder(Tr T, const CharSet &Path, uint32_t PathId) {
  assert(!Path.isEmpty() && "dnfUnder requires a satisfiable path");
  if (kind(T) == TrKind::Leaf)
    return T;
  const uint64_t Key =
      static_cast<uint64_t>(T.Id) << 32 | internPath(Path, PathId);
  if (const uint32_t *Hit = UnderMemo.find(Key)) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{*Hit};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  Tr Result = dnfUnderStep(T, Path, PathId);
  UnderMemo.insert(Key, Result.Id);
  return Result;
}

Tr TrManager::dnfUnderStep(Tr T, const CharSet &Path, uint32_t PathId) {
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    sbd_unreachable("dnfUnder returns leaves itself");
  case TrKind::Ite: {
    CharSet Cond = N.Cond;
    Tr Then = N.Kids[0], Else = N.Kids[1];
    CharSet PathT = Path.intersectWith(Cond);
    CharSet PathF = Path.minus(Cond);
    if (PathT.isEmpty()) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return dnfUnder(Else, Path, PathId); // the then-branch is dead here
    }
    if (PathF.isEmpty()) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return dnfUnder(Then, Path, PathId); // the else-branch is dead here
    }
    SBD_OBS_ADD(DnfBranchesExplored, 2);
    // Else before then: node ids follow interning order, and arc order, DFS
    // witnesses and state counts follow node ids, so this order matters. Every
    // recursive ite construction in this file uses it, so ids do not depend
    // on the compiler's argument evaluation order.
    Tr ElseD = dnfUnder(Else, PathF, MissingId);
    Tr ThenD = dnfUnder(Then, PathT, MissingId);
    return ite(Cond, ThenD, ElseD);
  }
  case TrKind::Union: {
    std::vector<Tr> Kids = N.Kids;
    for (Tr &Kid : Kids)
      Kid = dnfUnder(Kid, Path, PathId);
    return union_(std::move(Kids));
  }
  case TrKind::Inter: {
    std::vector<Tr> Kids = N.Kids;
    Tr Acc = dnfUnder(Kids[0], Path, PathId);
    for (size_t I = 1; I != Kids.size(); ++I)
      Acc = interDnf(Acc, Kids[I], Path, PathId);
    return Acc;
  }
  }
  sbd_unreachable("covered switch");
}

Tr TrManager::leafInterDnf(Re A, Tr B) {
  const TrNode &N = node(B);
  switch (N.Kind) {
  case TrKind::Leaf:
    return leaf(M.inter(A, N.LeafRe));
  case TrKind::Ite: {
    CharSet Cond = N.Cond;
    Tr Then = N.Kids[0], Else = N.Kids[1];
    Tr ElseD = leafInterDnf(A, Else); // else first, as in dnfUnderStep
    Tr ThenD = leafInterDnf(A, Then);
    return ite(Cond, ThenD, ElseD);
  }
  case TrKind::Union: {
    std::vector<Tr> Kids = N.Kids;
    for (Tr &Kid : Kids)
      Kid = leafInterDnf(A, Kid);
    return union_(std::move(Kids));
  }
  case TrKind::Inter:
    sbd_unreachable("leafInterDnf requires a DNF operand");
  }
  sbd_unreachable("covered switch");
}

Tr TrManager::interDnf(Tr A, Tr B, const CharSet &Path, uint32_t PathId) {
  if (A == BotTr)
    return BotTr;
  if (A == TopTr)
    return dnfUnder(B, Path, PathId);
  const uint64_t Pair = static_cast<uint64_t>(A.Id) << 32 | B.Id;
  uint32_t PairId;
  if (const uint32_t *Known = PairIds.find(Pair)) {
    PairId = *Known;
  } else {
    PairId = static_cast<uint32_t>(PairIds.size());
    PairIds.insert(Pair, PairId);
  }
  const uint64_t Key =
      static_cast<uint64_t>(PairId) << 32 | internPath(Path, PathId);
  if (const uint32_t *Hit = InterMemo.find(Key)) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{*Hit};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  Tr Result = interDnfStep(A, B, Path, PathId);
  InterMemo.insert(Key, Result.Id);
  return Result;
}

Tr TrManager::interDnfStep(Tr A, Tr B, const CharSet &Path, uint32_t PathId) {
  const TrNode &N = node(A);
  switch (N.Kind) {
  case TrKind::Leaf: {
    Re LeafRe = N.LeafRe; // copy before dnfUnder can grow the arena
    Tr Bd = dnfUnder(B, Path, PathId);
    return leafInterDnf(LeafRe, Bd);
  }
  case TrKind::Ite: {
    CharSet Cond = N.Cond;
    Tr Then = N.Kids[0], Else = N.Kids[1];
    CharSet PathT = Path.intersectWith(Cond);
    CharSet PathF = Path.minus(Cond);
    if (PathT.isEmpty()) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return interDnf(Else, B, Path, PathId);
    }
    if (PathF.isEmpty()) {
      SBD_OBS_INC(DnfBranchesPruned);
      SBD_OBS_INC(DnfBranchesExplored);
      return interDnf(Then, B, Path, PathId);
    }
    SBD_OBS_ADD(DnfBranchesExplored, 2);
    // Else before then, as in dnfUnderStep.
    Tr ElseD = interDnf(Else, B, PathF, MissingId);
    Tr ThenD = interDnf(Then, B, PathT, MissingId);
    return ite(Cond, ThenD, ElseD);
  }
  case TrKind::Union: {
    std::vector<Tr> Kids = N.Kids;
    for (Tr &Kid : Kids)
      Kid = interDnf(Kid, B, Path, PathId);
    return union_(std::move(Kids));
  }
  case TrKind::Inter:
    sbd_unreachable("interDnf's first operand must be in DNF");
  }
  sbd_unreachable("covered switch");
}

bool TrManager::isDnf(Tr T) const {
  const TrNode &N = node(T);
  if (N.Kind == TrKind::Inter)
    return false;
  for (Tr Kid : N.Kids)
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
    for (Tr Kid : N.Kids)
      Stack.push_back(Kid);
  }
}

void TrManager::collectArcs(Tr T, const CharSet &Guard,
                            std::vector<TrArc> &Out) const {
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    if (N.LeafRe != M.empty())
      Out.push_back({Guard, N.LeafRe});
    return;
  case TrKind::Ite: {
    CharSet GuardT = Guard.intersectWith(N.Cond);
    CharSet GuardF = Guard.minus(N.Cond);
    if (!GuardT.isEmpty())
      collectArcs(N.Kids[0], GuardT, Out);
    if (!GuardF.isEmpty())
      collectArcs(N.Kids[1], GuardF, Out);
    return;
  }
  case TrKind::Union:
    for (Tr Kid : N.Kids)
      collectArcs(Kid, Guard, Out);
    return;
  case TrKind::Inter:
    sbd_unreachable("arcs() requires a DNF transition regex");
  }
  sbd_unreachable("covered switch");
}

std::vector<TrArc> TrManager::arcs(Tr T) const {
  std::vector<TrArc> Raw;
  collectArcs(T, CharSet::full(), Raw);
  // Merge arcs by target, preserving first-appearance order.
  std::vector<TrArc> Out;
  FlatMap64 Index; // Target.Id -> index in Out
  for (TrArc &A : Raw) {
    if (const uint32_t *At = Index.find(A.Target.Id)) {
      Out[*At].Guard = Out[*At].Guard.unionWith(A.Guard);
    } else {
      Index.insert(A.Target.Id, static_cast<uint32_t>(Out.size()));
      Out.push_back(std::move(A));
    }
  }
  SBD_OBS_ADD(ArcsEnumerated, Out.size());
  return Out;
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
    const TrNode &N = node(Cur);
    if (N.Kind == TrKind::Ite && Seen.insert(N.Cond).second)
      Out.push_back(N.Cond);
    for (Tr Kid : N.Kids)
      Stack.push_back(Kid);
  }
}

std::string TrManager::toString(Tr T) const {
  const TrNode &N = node(T);
  switch (N.Kind) {
  case TrKind::Leaf:
    return M.toString(N.LeafRe);
  case TrKind::Ite:
    return "if(" + N.Cond.str() + ", " + toString(N.Kids[0]) + ", " +
           toString(N.Kids[1]) + ")";
  case TrKind::Union:
  case TrKind::Inter: {
    std::string Sep = N.Kind == TrKind::Union ? " | " : " & ";
    std::string Out = "(";
    for (size_t I = 0; I != N.Kids.size(); ++I) {
      if (I)
        Out += Sep;
      Out += toString(N.Kids[I]);
    }
    Out += ')';
    return Out;
  }
  }
  sbd_unreachable("covered switch");
}
