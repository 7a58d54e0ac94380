//===- core/Derivatives.cpp - Symbolic and classical derivatives ------------===//
// sbd-lint: hot-path

#include "core/Derivatives.h"

#include "support/Debug.h"
#include "support/Stopwatch.h"
#include "support/Unicode.h"

using namespace sbd;

Tr DerivativeEngine::derivative(Re R) {
  SBD_OBS_INC(DerivativeCalls);
  if (R.Id < DerivMemo.size() && DerivMemo[R.Id] != MissingId) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{DerivMemo[R.Id]};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);

  // Copy the node record (it holds no heap member): recursive calls may
  // grow the regex arena and invalidate references into it. Children are
  // read with kid() for the same reason.
  const RegexNode N = M.node(R);
  Tr Result;
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
    Result = T.bot();
    break;
  case RegexKind::Pred:
    // δ(φ) = if(φ, ε, ⊥)
    Result = T.ite(N.Pred, T.leaf(M.epsilon()), T.bot());
    break;
  case RegexKind::Concat: {
    Re A = M.kid(R, 0), B = M.kid(R, 1);
    Tr DA = T.concatRe(derivative(A), B);
    if (M.nullable(A))
      Result = T.union2(DA, derivative(B));
    else
      Result = DA;
    break;
  }
  case RegexKind::Star:
    // δ(R*) = δ(R) · R*
    Result = T.concatRe(derivative(M.kid(R, 0)), R);
    break;
  case RegexKind::Loop: {
    // δ(R{m,n}) = δ(R) · R{max(m,1)-1, n-1}; the loop constructor has
    // normalized m to 0 when R is nullable, making this rule exact.
    Re Body = M.kid(R, 0);
    uint32_t Min = N.LoopMin == 0 ? 0 : N.LoopMin - 1;
    uint32_t Max = N.LoopMax == LoopInf ? LoopInf : N.LoopMax - 1;
    // Two statements, the loop first: interning order decides node ids.
    Re Rest = M.loop(Body, Min, Max);
    Result = T.concatRe(derivative(Body), Rest);
    break;
  }
  case RegexKind::Union:
  case RegexKind::Inter: {
    const size_t Base = KidStack.size();
    for (size_t I = 0; I != N.NumKids; ++I)
      KidStack.push_back(derivative(M.kid(R, I)));
    const auto Kids = std::span<const Tr>(KidStack).subspan(Base);
    Result = N.Kind == RegexKind::Union ? T.union_(Kids) : T.inter(Kids);
    KidStack.resize(Base);
    break;
  }
  case RegexKind::Compl:
    // δ(~R) = ~δ(R), realized through the negation dual (Lemma 4.2).
    Result = T.negate(derivative(M.kid(R, 0)));
    break;
  }
  if (DerivMemo.size() <= R.Id)
    DerivMemo.resize(M.numNodes(), MissingId);
  DerivMemo[R.Id] = Result.Id;
  return Result;
}

Tr DerivativeEngine::derivativeDnf(Re R) {
  SBD_OBS_INC(DnfCalls);
  if (R.Id < DnfMemo.size() && DnfMemo[R.Id] != MissingId) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Tr{DnfMemo[R.Id]};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  // Phase attribution on the miss path only: memo hits stay a bare table
  // lookup, while misses do real work that dwarfs the two clock reads.
  // DNF work triggered *inside* δ (the lift rule of concatRe) lands in the
  // derive bucket — documented in DESIGN.md §8.
#if SBD_OBS
  Stopwatch PhaseTimer;
  Tr D = derivative(R);
  SBD_OBS_ADD(DeriveTimeUs, PhaseTimer.elapsedUs());
  PhaseTimer.reset();
  Tr Result = T.dnf(D);
  SBD_OBS_ADD(DnfTimeUs, PhaseTimer.elapsedUs());
#else
  Tr Result = T.dnf(derivative(R));
#endif
  if (DnfMemo.size() <= R.Id)
    DnfMemo.resize(M.numNodes(), MissingId);
  DnfMemo[R.Id] = Result.Id;
  return Result;
}

void DerivativeEngine::clearCaches() {
  DerivMemo.clear();
  DnfMemo.clear();
  BrzMemo.clear();
  T.clearCaches();
}

Re DerivativeEngine::brzozowski(Re R, uint32_t Ch) {
  // (id, char) memo: repeated matching walks the same derivative chains.
  SBD_OBS_INC(BrzozowskiCalls);
  assert(Ch <= MaxCodePoint && "character outside the code-point domain");
  uint64_t Key = (static_cast<uint64_t>(R.Id) << 21) | Ch;
  if (const uint32_t *Hit = BrzMemo.find(Key)) {
    SBD_OBS_STAT_INC(Stats, MemoHits);
    return Re{*Hit};
  }
  SBD_OBS_STAT_INC(Stats, MemoMisses);
  Re Out = brzozowskiUncached(R, Ch);
  BrzMemo.insert(Key, Out.Id);
  return Out;
}

Re DerivativeEngine::brzozowskiUncached(Re R, uint32_t Ch) {
  const RegexNode N = M.node(R); // a copy: recursion may grow the arena

  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
    return M.empty();
  case RegexKind::Pred:
    return M.predSet(R).contains(Ch) ? M.epsilon() : M.empty();
  case RegexKind::Concat: {
    Re A = M.kid(R, 0), B = M.kid(R, 1);
    Re DA = M.concat(brzozowski(A, Ch), B);
    if (M.nullable(A))
      return M.union_(DA, brzozowski(B, Ch));
    return DA;
  }
  case RegexKind::Star:
    return M.concat(brzozowski(M.kid(R, 0), Ch), R);
  case RegexKind::Loop: {
    Re Body = M.kid(R, 0);
    uint32_t Min = N.LoopMin == 0 ? 0 : N.LoopMin - 1;
    uint32_t Max = N.LoopMax == LoopInf ? LoopInf : N.LoopMax - 1;
    Re Rest = M.loop(Body, Min, Max); // first, as in derivative()
    return M.concat(brzozowski(Body, Ch), Rest);
  }
  case RegexKind::Union:
  case RegexKind::Inter: {
    std::vector<Re> Kids(N.NumKids);
    for (size_t I = 0; I != Kids.size(); ++I)
      Kids[I] = brzozowski(M.kid(R, I), Ch);
    return N.Kind == RegexKind::Union ? M.unionList(Kids) : M.interList(Kids);
  }
  case RegexKind::Compl:
    return M.complement(brzozowski(M.kid(R, 0), Ch));
  }
  sbd_unreachable("covered switch");
}

Re DerivativeEngine::derivativeOfWord(Re R, const std::vector<uint32_t> &Word) {
  Re Cur = R;
  for (uint32_t Ch : Word) {
    if (Cur == M.empty())
      return Cur; // D_w(⊥) = ⊥ for any suffix
    Cur = brzozowski(Cur, Ch);
  }
  return Cur;
}

bool DerivativeEngine::matches(Re R, const std::vector<uint32_t> &Word) {
  Re Cur = R;
  for (uint32_t Ch : Word) {
    if (Cur == M.empty())
      return false; // short-circuit a dead end
    // Every language is over [0, MaxCodePoint]. Words can come from an
    // untrusted source (a loaded verdict cache), and brzozowski() requires
    // an in-domain character: its memo key has 21 bits for it.
    if (Ch > MaxCodePoint)
      return false;
    Cur = brzozowski(Cur, Ch);
  }
  return M.nullable(Cur);
}

bool DerivativeEngine::matches(Re R, const std::string &Utf8) {
  return matches(R, fromUtf8(Utf8));
}
