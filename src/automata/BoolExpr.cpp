//===- automata/BoolExpr.cpp - Boolean state combinations -------------------===//

#include "automata/BoolExpr.h"

#include "support/Debug.h"
#include "support/Hashing.h"

#include <algorithm>
#include <set>

using namespace sbd;

BoolExprManager::BoolExprManager() {
  BoolExprNode F;
  F.Kind = BoolExprKind::False;
  FalseBe = intern(std::move(F));
  BoolExprNode T;
  T.Kind = BoolExprKind::True;
  TrueBe = intern(std::move(T));
}

BE BoolExprManager::intern(BoolExprNode Node) {
  uint64_t H = hashMix(static_cast<uint64_t>(Node.Kind));
  H = hashCombine(H, Node.Atom);
  for (BE Kid : Node.Kids)
    H = hashCombine(H, Kid.Id);
  auto &Bucket = ConsTable[H];
  for (uint32_t Id : Bucket) {
    const BoolExprNode &Other = Nodes[Id];
    if (Other.Kind == Node.Kind && Other.Atom == Node.Atom &&
        Other.Kids == Node.Kids)
      return BE{Id};
  }
  uint32_t Id = static_cast<uint32_t>(Nodes.size());
  Nodes.push_back(std::move(Node));
  Bucket.push_back(Id);
  return BE{Id};
}

BE BoolExprManager::atom(uint32_t A) {
  BoolExprNode N;
  N.Kind = BoolExprKind::Atom;
  N.Atom = A;
  return intern(std::move(N));
}

BE BoolExprManager::makeBool(BoolExprKind K, std::vector<BE> Kids) {
  bool IsAnd = K == BoolExprKind::And;
  BE Unit = IsAnd ? TrueBe : FalseBe;
  BE Absorber = IsAnd ? FalseBe : TrueBe;
  std::vector<BE> Flat;
  for (BE E : Kids) {
    if (node(E).Kind == K)
      Flat.insert(Flat.end(), node(E).Kids.begin(), node(E).Kids.end());
    else
      Flat.push_back(E);
  }
  std::vector<BE> Out;
  for (BE E : Flat) {
    if (E == Absorber)
      return Absorber;
    if (E != Unit)
      Out.push_back(E);
  }
  std::sort(Out.begin(), Out.end());
  Out.erase(std::unique(Out.begin(), Out.end()), Out.end());
  // x ∧ ¬x = false, x ∨ ¬x = true.
  for (BE E : Out)
    if (node(E).Kind == BoolExprKind::Not &&
        std::binary_search(Out.begin(), Out.end(), node(E).Kids[0]))
      return Absorber;
  if (Out.empty())
    return Unit;
  if (Out.size() == 1)
    return Out[0];
  BoolExprNode N;
  N.Kind = K;
  N.Kids = std::move(Out);
  return intern(std::move(N));
}

BE BoolExprManager::and_(std::vector<BE> Kids) {
  return makeBool(BoolExprKind::And, std::move(Kids));
}

BE BoolExprManager::or_(std::vector<BE> Kids) {
  return makeBool(BoolExprKind::Or, std::move(Kids));
}

BE BoolExprManager::not_(BE A) {
  if (A == FalseBe)
    return TrueBe;
  if (A == TrueBe)
    return FalseBe;
  if (node(A).Kind == BoolExprKind::Not)
    return node(A).Kids[0];
  BoolExprNode N;
  N.Kind = BoolExprKind::Not;
  N.Kids = {A};
  return intern(std::move(N));
}

bool BoolExprManager::eval(BE E,
                           const std::function<bool(uint32_t)> &Assign) const {
  const BoolExprNode &N = node(E);
  switch (N.Kind) {
  case BoolExprKind::False:
    return false;
  case BoolExprKind::True:
    return true;
  case BoolExprKind::Atom:
    return Assign(N.Atom);
  case BoolExprKind::And:
    for (BE Kid : N.Kids)
      if (!eval(Kid, Assign))
        return false;
    return true;
  case BoolExprKind::Or:
    for (BE Kid : N.Kids)
      if (eval(Kid, Assign))
        return true;
    return false;
  case BoolExprKind::Not:
    return !eval(N.Kids[0], Assign);
  }
  sbd_unreachable("covered switch");
}

BE BoolExprManager::substitute(BE E,
                               const std::function<BE(uint32_t)> &Map) {
  // Copy: recursion can grow the arena.
  BoolExprNode N = node(E);
  switch (N.Kind) {
  case BoolExprKind::False:
  case BoolExprKind::True:
    return E;
  case BoolExprKind::Atom:
    return Map(N.Atom);
  case BoolExprKind::And:
  case BoolExprKind::Or: {
    std::vector<BE> Kids = N.Kids;
    for (BE &Kid : Kids)
      Kid = substitute(Kid, Map);
    return N.Kind == BoolExprKind::And ? and_(std::move(Kids))
                                       : or_(std::move(Kids));
  }
  case BoolExprKind::Not:
    return not_(substitute(N.Kids[0], Map));
  }
  sbd_unreachable("covered switch");
}

bool BoolExprManager::isPositive(BE E) const {
  const BoolExprNode &N = node(E);
  if (N.Kind == BoolExprKind::Not)
    return false;
  for (BE Kid : N.Kids)
    if (!isPositive(Kid))
      return false;
  return true;
}

std::vector<uint32_t> BoolExprManager::atoms(BE E) const {
  std::set<uint32_t> Found;
  std::vector<BE> Stack = {E};
  std::set<uint32_t> Visited;
  while (!Stack.empty()) {
    BE Cur = Stack.back();
    Stack.pop_back();
    if (!Visited.insert(Cur.Id).second)
      continue;
    const BoolExprNode &N = node(Cur);
    if (N.Kind == BoolExprKind::Atom)
      Found.insert(N.Atom);
    for (BE Kid : N.Kids)
      Stack.push_back(Kid);
  }
  return std::vector<uint32_t>(Found.begin(), Found.end());
}

std::string BoolExprManager::toString(
    BE E, const std::function<std::string(uint32_t)> &Name) const {
  const BoolExprNode &N = node(E);
  switch (N.Kind) {
  case BoolExprKind::False:
    return "false";
  case BoolExprKind::True:
    return "true";
  case BoolExprKind::Atom:
    return Name(N.Atom);
  case BoolExprKind::And:
  case BoolExprKind::Or: {
    std::string Sep = N.Kind == BoolExprKind::And ? " & " : " | ";
    std::string Out = "(";
    for (size_t I = 0; I != N.Kids.size(); ++I) {
      if (I)
        Out += Sep;
      Out += toString(N.Kids[I], Name);
    }
    return Out + ")";
  }
  case BoolExprKind::Not: {
    std::string Out = "~";
    return Out.append(toString(N.Kids[0], Name));
  }
  }
  sbd_unreachable("covered switch");
}
