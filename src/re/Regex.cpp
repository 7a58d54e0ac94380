//===- re/Regex.cpp - Symbolic extended regular expressions ----------------===//
// sbd-lint: hot-path

#include "re/Regex.h"

#include "analysis/AuditHooks.h"
#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>
#include <set>

using namespace sbd;

PredPool::PredPool() {
  // ⊥ and ⊤ first, so their ids are the constants Bot and Top.
  intern(CharSet());
  intern(CharSet::full());
}

PredId PredPool::intern(const CharSet &Set) {
  return PredId{Table.findOrInsert(
      Set.hash(), [&](uint32_t Id) { return Sets[Id] == Set; },
      [&] {
        uint32_t Id = static_cast<uint32_t>(Sets.size());
        Sets.push_back(Set);
        return Id;
      },
      Stats)};
}

bool PredPool::hullsDisjoint(PredId A, PredId B) const {
  const std::vector<CharRange> &RA = Sets[A.Id].ranges();
  const std::vector<CharRange> &RB = Sets[B.Id].ranges();
  return RA.back().Hi < RB.front().Lo || RB.back().Hi < RA.front().Lo;
}

PredId PredPool::conj(PredId A, PredId B) {
  if (A == B || B == Top || A == Bot)
    return A;
  if (A == Top || B == Bot)
    return B;
  if (hullsDisjoint(A, B))
    return Bot;
  return apply(Op::And, A, B);
}

PredId PredPool::disj(PredId A, PredId B) {
  if (A == B || B == Bot || A == Top)
    return A;
  if (A == Bot || B == Top)
    return B;
  return apply(Op::Or, A, B);
}

PredId PredPool::minus(PredId A, PredId B) {
  if (A == B || A == Bot || B == Top)
    return Bot;
  if (B == Bot || hullsDisjoint(A, B))
    return A;
  return apply(Op::Minus, A, B);
}

PredId PredPool::apply(Op O, PredId A, PredId B) {
  // ∧ and ∨ commute: one memo entry serves both operand orders.
  if (O != Op::Minus && B < A)
    std::swap(A, B);
  FlatMap64 &Memo =
      O == Op::And ? AndMemo : (O == Op::Or ? OrMemo : MinusMemo);
  const uint64_t Key = static_cast<uint64_t>(A.Id) << 32 | B.Id;
  if (const uint32_t *Hit = Memo.find(Key))
    return PredId{*Hit};
  // Compute before interning: intern() may move the sets A and B name.
  const CharSet &SA = Sets[A.Id], &SB = Sets[B.Id];
  CharSet Result = O == Op::And  ? SA.intersectWith(SB)
                   : O == Op::Or ? SA.unionWith(SB)
                                 : SA.minus(SB);
  PredId Out = intern(Result);
  if (Memo.size() >= MaxMemoEntries)
    Memo = FlatMap64(); // frees the slots, as dropProductMemos does
  Memo.insert(Key, Out.Id);
  return Out;
}

RegexManager::RegexManager() {
  // Intern the distinguished terms once, in a fixed order, so their ids are
  // stable across runs.
  RegexNode EmptyNode;
  EmptyNode.Kind = RegexKind::Empty;
  EmptyNode.Nullable = false;
  EmptyNode.Size = 1;
  EmptyNode.NumPreds = 0;
  EmptyNode.StarHeight = 0;
  EmptyRe = intern(EmptyNode);

  RegexNode EpsNode;
  EpsNode.Kind = RegexKind::Epsilon;
  EpsNode.Nullable = true;
  EpsNode.Size = 1;
  EpsNode.NumPreds = 0;
  EpsNode.StarHeight = 0;
  EpsilonRe = intern(EpsNode);

  AnyCharRe = pred(CharSet::full());
  TopRe = star(AnyCharRe);
}

void RegexManager::countPredLookup(PredId P) {
  SBD_OBS_STAT_INC(Stats, Lookups);
  if (PredLeafSeen.size() <= P.Id)
    PredLeafSeen.resize(Preds.size(), false);
  if (PredLeafSeen[P.Id]) {
    SBD_OBS_STAT_INC(Stats, InternHits);
    return;
  }
  PredLeafSeen[P.Id] = true;
  SBD_OBS_STAT_INC(Stats, InternMisses);
}

/// The structural hash: kind, predicate, loop bounds and kid ids. Kept in
/// sync with audit::detail::recomputeReHash.
static uint64_t hashNode(const RegexNode &Node, std::span<const Re> Kids) {
  uint64_t H = hashMix(static_cast<uint64_t>(Node.Kind));
  H = hashCombine(H, Node.Pred.Id);
  H = hashCombine(H, Node.LoopMin);
  H = hashCombine(H, Node.LoopMax);
  for (Re Kid : Kids)
    H = hashCombine(H, Kid.Id);
  return H;
}

Re RegexManager::intern(RegexNode Node, std::span<const Re> Kids) {
  assert((Kids.empty() || Kids.data() < KidPool.data() ||
          Kids.data() >= KidPool.data() + KidPool.size()) &&
         "intern's kid span must not alias the kid pool");
  uint64_t H = hashNode(Node, Kids);
  Node.Hash = H;
#if SBD_AUDIT
  const size_t SizeBefore = Nodes.size();
#endif
  uint32_t Id = ConsTable.findOrInsert(
      H,
      [&](uint32_t Cand) {
        const RegexNode &O = Nodes[Cand];
        return O.Kind == Node.Kind && O.Pred == Node.Pred &&
               O.LoopMin == Node.LoopMin && O.LoopMax == Node.LoopMax &&
               O.NumKids == Kids.size() &&
               std::equal(Kids.begin(), Kids.end(),
                          KidPool.begin() + O.KidsBegin);
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
    SBD_AUDIT_RE_NODE(*this, Re{Id});
#endif
  return Re{Id};
}

void RegexManager::reserve(size_t NumNodes) {
  Nodes.reserve(NumNodes);
  KidPool.reserve(NumNodes * 2);
  ConsTable.reserve(NumNodes);
}

const CharSet &RegexManager::predSet(Re R) const {
  const RegexNode &N = node(R);
  assert(N.Kind == RegexKind::Pred && "predSet on non-predicate node");
  return Preds.set(N.Pred);
}

Re RegexManager::pred(const CharSet &Set) {
  if (Set.isEmpty())
    return EmptyRe;
  return pred(Preds.intern(Set));
}

Re RegexManager::pred(PredId P) {
  if (P == PredPool::Bot)
    return EmptyRe;
  countPredLookup(P);
  RegexNode N;
  N.Kind = RegexKind::Pred;
  N.Nullable = false;
  N.Pred = P;
  N.Size = 1;
  N.NumPreds = 1;
  N.StarHeight = 0;
  return intern(N);
}

Re RegexManager::word(const std::vector<uint32_t> &Cps) {
  Re Result = EpsilonRe;
  for (auto It = Cps.rbegin(); It != Cps.rend(); ++It)
    Result = concat(chr(*It), Result);
  return Result;
}

Re RegexManager::literal(const std::string &Ascii) {
  std::vector<uint32_t> Cps(Ascii.begin(), Ascii.end());
  return word(Cps);
}

Re RegexManager::concat(Re A, Re B) {
  if (A == EmptyRe || B == EmptyRe)
    return EmptyRe;
  if (A == EpsilonRe)
    return B;
  if (B == EpsilonRe)
    return A;
  // Right-associate: peel the left spine of A iteratively (A may be a long
  // chain; recursion would be O(|A|) deep).
  std::vector<Re> Spine;
  Re Cursor = A;
  while (kind(Cursor) == RegexKind::Concat) {
    Spine.push_back(kid(Cursor, 0));
    Cursor = kid(Cursor, 1);
  }
  Spine.push_back(Cursor);
  Re Result = B;
  for (auto It = Spine.rbegin(); It != Spine.rend(); ++It) {
    Re Left = *It;
    assert(kind(Left) != RegexKind::Concat && "left spine not flat");
    RegexNode N;
    N.Kind = RegexKind::Concat;
    N.Nullable = nullable(Left) && nullable(Result);
    N.Size = 1 + node(Left).Size + node(Result).Size;
    N.NumPreds = node(Left).NumPreds + node(Result).NumPreds;
    N.StarHeight = std::max(node(Left).StarHeight, node(Result).StarHeight);
    const Re Kids[2] = {Left, Result};
    Result = intern(N, Kids);
  }
  return Result;
}

Re RegexManager::concatList(const std::vector<Re> &Rs) {
  Re Result = EpsilonRe;
  for (auto It = Rs.rbegin(); It != Rs.rend(); ++It)
    Result = concat(*It, Result);
  return Result;
}

Re RegexManager::star(Re R) {
  if (R == EpsilonRe || R == EmptyRe)
    return EpsilonRe;
  if (kind(R) == RegexKind::Star)
    return R; // (R*)* = R*
  // (R{m,n})* = R* when m <= 1: the generators include R itself.
  if (kind(R) == RegexKind::Loop && node(R).LoopMin <= 1)
    return star(kid(R, 0));
  RegexNode N;
  N.Kind = RegexKind::Star;
  N.Nullable = true;
  N.Size = 1 + node(R).Size;
  N.NumPreds = node(R).NumPreds;
  N.StarHeight = 1 + node(R).StarHeight;
  return intern(N, {&R, 1});
}

Re RegexManager::loop(Re R, uint32_t Min, uint32_t Max) {
  assert(Min <= Max && "inverted loop bounds");
  // For nullable bodies the powers form an increasing chain, so
  // R{m,n} = R{0,n} (Section 3 semantics).
  if (nullable(R))
    Min = 0;
  if (Max == 0)
    return EpsilonRe;
  if (R == EpsilonRe)
    return EpsilonRe;
  if (R == EmptyRe)
    return Min == 0 ? EpsilonRe : EmptyRe;
  if (Min == 1 && Max == 1)
    return R;
  if (Min == 0 && Max == LoopInf)
    return star(R);
  // (S*){0,n} = S* — Min is already 0 here because Star is nullable.
  if (kind(R) == RegexKind::Star)
    return R;
  RegexNode N;
  N.Kind = RegexKind::Loop;
  N.LoopMin = Min;
  N.LoopMax = Max;
  N.Nullable = Min == 0;
  N.Size = 1 + node(R).Size;
  N.NumPreds = node(R).NumPreds;
  N.StarHeight = node(R).StarHeight + (Max == LoopInf ? 1 : 0);
  return intern(N, {&R, 1});
}

void RegexManager::flattenInto(RegexKind K, Re R, std::vector<Re> &Out) const {
  if (kind(R) != K) {
    Out.push_back(R);
    return;
  }
  for (Re Kid : kids(R))
    Out.push_back(Kid); // children of an interned |/& node are already flat
}

PredId RegexManager::mergePreds(bool IsUnion, std::span<const PredId> Ps) {
  if (Ps.size() == 1)
    return Ps[0];
  if (Ps.size() == 2)
    return IsUnion ? Preds.disj(Ps[0], Ps[1]) : Preds.conj(Ps[0], Ps[1]);
  // More than two merge in one temporary set and only the result is
  // interned: folding through the memo would intern every partial result,
  // n²/2 intervals for a union of n separate characters.
  if (IsUnion) {
    std::vector<CharRange> All;
    for (PredId P : Ps) {
      const std::vector<CharRange> &Rs = Preds.set(P).ranges();
      All.insert(All.end(), Rs.begin(), Rs.end());
    }
    return Preds.intern(CharSet::fromRanges(std::move(All)));
  }
  CharSet Acc = Preds.set(Ps[0]);
  for (size_t I = 1; I != Ps.size() && !Acc.isEmpty(); ++I)
    Acc = Acc.intersectWith(Preds.set(Ps[I]));
  return Preds.intern(Acc);
}

Re RegexManager::makeBoolean(RegexKind K, std::span<const Re> Rs) {
  assert((K == RegexKind::Union || K == RegexKind::Inter) &&
         "makeBoolean is only for | and &");
  bool IsUnion = K == RegexKind::Union;
  Re Unit = IsUnion ? EmptyRe : TopRe;      // dropped
  Re Absorber = IsUnion ? TopRe : EmptyRe;  // dominates

  std::vector<Re> &Flat = FlatScratch;
  Flat.clear();
  for (Re R : Rs)
    flattenInto(K, R, Flat);

  // Merge predicate leaves into the character algebra and filter units.
  std::vector<PredId> &PredKids = PredScratch;
  PredKids.clear();
  std::vector<Re> &Kids = KidScratch;
  Kids.clear();
  for (Re R : Flat) {
    if (R == Absorber)
      return Absorber;
    if (R == Unit)
      continue;
    if (kind(R) == RegexKind::Pred)
      PredKids.push_back(node(R).Pred);
    else
      Kids.push_back(R);
  }
  if (!PredKids.empty()) {
    Re Merged = pred(mergePreds(IsUnion, PredKids)); // ⊥ on an empty ∧
    if (Merged == Absorber)
      return Absorber;
    if (Merged != Unit)
      Kids.push_back(Merged);
  }

  std::sort(Kids.begin(), Kids.end());
  Kids.erase(std::unique(Kids.begin(), Kids.end()), Kids.end());

  // ε & X = ε if ν(X) else ⊥; ε | X = X when ν(X).
  if (!IsUnion) {
    bool HasEps = std::binary_search(Kids.begin(), Kids.end(), EpsilonRe);
    if (HasEps) {
      for (Re R : Kids)
        if (!nullable(R))
          return EmptyRe;
      return EpsilonRe;
    }
  } else {
    bool HasEps = std::binary_search(Kids.begin(), Kids.end(), EpsilonRe);
    if (HasEps) {
      bool OtherNullable = false;
      for (Re R : Kids)
        if (R != EpsilonRe && nullable(R)) {
          OtherNullable = true;
          break;
        }
      if (OtherNullable)
        Kids.erase(std::find(Kids.begin(), Kids.end(), EpsilonRe));
    }
  }

  // X op ~X collapses to the absorber (R | ~R = .*; R & ~R = ⊥). When the
  // complemented operand has this same Boolean kind its children were
  // flattened into Kids, so check for them instead.
  for (Re R : Kids) {
    if (kind(R) != RegexKind::Compl)
      continue;
    Re Op = kid(R, 0);
    if (std::binary_search(Kids.begin(), Kids.end(), Op))
      return Absorber;
    if (kind(Op) == K) {
      bool AllPresent = true;
      for (Re OpKid : kids(Op))
        if (!std::binary_search(Kids.begin(), Kids.end(), OpKid)) {
          AllPresent = false;
          break;
        }
      if (AllPresent)
        return Absorber;
    }
  }

  // Absorption/subsumption: in a union, X&Y&Z is subsumed by X&Y (and by
  // the plain kid X); dually in an intersection, X|Y|Z is subsumed by X|Y.
  // A dual-kind kid A is dropped when the member set of some other kid B is
  // a subset of A's member set (members of a non-dual kid are just {kid}).
  // Nothing is interned during the scan, so the kid-pool spans stay valid.
  RegexKind Dual = IsUnion ? RegexKind::Inter : RegexKind::Union;
  auto members = [&](size_t I) -> std::span<const Re> {
    if (kind(Kids[I]) == Dual)
      return kids(Kids[I]); // sorted by construction
    return {&Kids[I], 1};
  };
  std::vector<uint8_t> &Drop = DropScratch;
  Drop.assign(Kids.size(), 0);
  bool AnyDropped = false;
  for (size_t I = 0; I != Kids.size(); ++I) {
    if (kind(Kids[I]) != Dual)
      continue;
    std::span<const Re> Mine = members(I);
    for (size_t J = 0; J != Kids.size() && !Drop[I]; ++J) {
      if (I == J || Drop[J])
        continue;
      std::span<const Re> Other = members(J);
      if (Other.size() < Mine.size() &&
          std::includes(Mine.begin(), Mine.end(), Other.begin(),
                        Other.end())) {
        Drop[I] = true;
        AnyDropped = true;
      }
    }
  }
  if (AnyDropped) {
    size_t Kept = 0;
    for (size_t I = 0; I != Kids.size(); ++I)
      if (!Drop[I])
        Kids[Kept++] = Kids[I];
    Kids.resize(Kept);
  }

  if (Kids.empty())
    return Unit;
  if (Kids.size() == 1)
    return Kids[0];

  RegexNode N;
  N.Kind = K;
  N.Size = 1;
  N.NumPreds = 0;
  N.StarHeight = 0;
  N.Nullable = !IsUnion;
  for (Re R : Kids) {
    N.Size += node(R).Size;
    N.NumPreds += node(R).NumPreds;
    N.StarHeight = std::max(N.StarHeight, node(R).StarHeight);
    if (IsUnion)
      N.Nullable = N.Nullable || nullable(R);
    else
      N.Nullable = N.Nullable && nullable(R);
  }
  return intern(N, Kids);
}

Re RegexManager::union_(Re A, Re B) {
  const Re Rs[2] = {A, B};
  return makeBoolean(RegexKind::Union, Rs);
}

Re RegexManager::unionList(std::span<const Re> Rs) {
  return makeBoolean(RegexKind::Union, Rs);
}

Re RegexManager::inter(Re A, Re B) {
  const Re Rs[2] = {A, B};
  return makeBoolean(RegexKind::Inter, Rs);
}

Re RegexManager::interList(std::span<const Re> Rs) {
  return makeBoolean(RegexKind::Inter, Rs);
}

Re RegexManager::complement(Re R) {
  if (kind(R) == RegexKind::Compl)
    return kid(R, 0); // ~~R = R
  if (R == EmptyRe)
    return TopRe; // ~⊥ = .*
  if (R == TopRe)
    return EmptyRe; // ~.* = ⊥
  RegexNode N;
  N.Kind = RegexKind::Compl;
  N.Nullable = !nullable(R);
  N.Size = 1 + node(R).Size;
  N.NumPreds = node(R).NumPreds;
  N.StarHeight = node(R).StarHeight;
  return intern(N, {&R, 1});
}

bool RegexManager::isClean(Re R) const {
  if (R == EmptyRe)
    return false;
  for (Re Kid : kids(R))
    if (!isClean(Kid))
      return false;
  return true;
}

bool RegexManager::isNormalized(Re R) const {
  const RegexNode &N = node(R);
  if (N.Kind == RegexKind::Concat && kind(kid(R, 0)) == RegexKind::Concat)
    return false;
  for (Re Kid : kids(R))
    if (!isNormalized(Kid))
      return false;
  return true;
}

bool RegexManager::isPlainRe(Re R) const {
  const RegexNode &N = node(R);
  if (N.Kind == RegexKind::Compl || N.Kind == RegexKind::Inter)
    return false;
  for (Re Kid : kids(R))
    if (!isPlainRe(Kid))
      return false;
  return true;
}

bool RegexManager::isBooleanOverRe(Re R) const {
  const RegexNode &N = node(R);
  switch (N.Kind) {
  case RegexKind::Compl:
  case RegexKind::Union:
  case RegexKind::Inter: {
    for (Re Kid : kids(R))
      if (!isBooleanOverRe(Kid))
        return false;
    return true;
  }
  default:
    return isPlainRe(R);
  }
}

bool RegexManager::isLoopFree(Re R) const {
  const RegexNode &N = node(R);
  if (N.Kind == RegexKind::Loop)
    return false;
  for (Re Kid : kids(R))
    if (!isLoopFree(Kid))
      return false;
  return true;
}

std::vector<CharSet> RegexManager::collectPredicates(Re R) const {
  std::set<uint32_t> Seen;
  std::vector<CharSet> Out;
  std::vector<Re> Stack = {R};
  std::set<uint32_t> Visited;
  while (!Stack.empty()) {
    Re Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur.Id).second)
      continue;
    const RegexNode &N = node(Cur);
    if (N.Kind == RegexKind::Pred && Seen.insert(N.Pred.Id).second)
      Out.push_back(Preds.set(N.Pred));
    for (Re Kid : kids(Cur))
      Stack.push_back(Kid);
  }
  return Out;
}

/// Printing precedence: Union(0) < Inter(1) < Concat(2) < Compl(3) <
/// Postfix(4) < Atom(5).
static int nodePrec(RegexKind K) {
  switch (K) {
  case RegexKind::Union:
    return 0;
  case RegexKind::Inter:
    return 1;
  case RegexKind::Concat:
    return 2;
  case RegexKind::Compl:
    return 3;
  case RegexKind::Star:
  case RegexKind::Loop:
    return 4;
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    return 5;
  }
  sbd_unreachable("covered switch");
}

void RegexManager::printPrec(Re R, int ParentPrec, std::string &Out,
                             size_t Limit) const {
  if (Out.size() > Limit)
    return;
  const RegexNode &N = node(R);
  int Prec = nodePrec(N.Kind);
  bool Paren = Prec < ParentPrec;
  if (Paren)
    Out += '(';
  switch (N.Kind) {
  case RegexKind::Empty:
    Out += "[]";
    break;
  case RegexKind::Epsilon:
    Out += "()";
    break;
  case RegexKind::Pred:
    Out += Preds.set(N.Pred).str();
    break;
  case RegexKind::Concat: {
    // Loop along the right spine (one link per literal character): a
    // Concat tail at precedence 2 prints bare, so no frame per link.
    Re Cur = R;
    while (kind(Cur) == RegexKind::Concat) {
      printPrec(kid(Cur, 0), 3, Out, Limit);
      Cur = kid(Cur, 1);
    }
    printPrec(Cur, 2, Out, Limit);
    break;
  }
  case RegexKind::Star:
    printPrec(kid(R, 0), 5, Out, Limit);
    Out += '*';
    break;
  case RegexKind::Loop: {
    printPrec(kid(R, 0), 5, Out, Limit);
    Out += '{';
    Out += std::to_string(N.LoopMin);
    if (N.LoopMax == LoopInf) {
      Out += ",}";
    } else if (N.LoopMax != N.LoopMin) {
      Out += ',';
      Out += std::to_string(N.LoopMax);
      Out += '}';
    } else {
      Out += '}';
    }
    break;
  }
  case RegexKind::Union:
    for (size_t I = 0; I != N.NumKids; ++I) {
      if (I)
        Out += '|';
      printPrec(kid(R, I), 1, Out, Limit);
    }
    break;
  case RegexKind::Inter:
    for (size_t I = 0; I != N.NumKids; ++I) {
      if (I)
        Out += '&';
      printPrec(kid(R, I), 2, Out, Limit);
    }
    break;
  case RegexKind::Compl:
    Out += '~';
    printPrec(kid(R, 0), 4, Out, Limit);
    break;
  }
  if (Paren)
    Out += ')';
}

std::string RegexManager::toString(Re R, size_t MaxBytes) const {
  std::string Out;
  printPrec(R, 0, Out, MaxBytes);
  return Out;
}
