//===- fuzz/Shrinker.cpp - Greedy structural counterexample shrinking ------===//

#include "fuzz/Shrinker.h"

#include "support/Metrics.h"

using namespace sbd;
using namespace sbd::fuzz;

/// One-step reductions of R: replace R by a child, drop one operand of an
/// n-ary node, collapse to ε/⊥, or recursively reduce one subterm in place.
/// Smart constructors may collapse a rebuilt candidate below the one-step
/// estimate — that is fine, the caller filters on strict size decrease.
void Shrinker::reduceInto(Re R, std::vector<Re> &Out) {
  // Copy the node record: interning candidates below may grow the node
  // arena and would invalidate a reference into it. Children are read with
  // kid(), or copied out of the kid pool for the n-ary case.
  const RegexNode N = M.node(R);
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    return; // leaves are already minimal
  case RegexKind::Concat: {
    Re A = M.kid(R, 0), B = M.kid(R, 1);
    Out.push_back(A);
    Out.push_back(B);
    for (Re Av : reductions(A))
      Out.push_back(M.concat(Av, B));
    for (Re Bv : reductions(B))
      Out.push_back(M.concat(A, Bv));
    break;
  }
  case RegexKind::Star: {
    Re Kid = M.kid(R, 0);
    Out.push_back(Kid);
    for (Re Kv : reductions(Kid))
      Out.push_back(M.star(Kv));
    break;
  }
  case RegexKind::Loop: {
    Re Kid = M.kid(R, 0);
    Out.push_back(Kid);
    for (Re Kv : reductions(Kid))
      Out.push_back(M.loop(Kv, N.LoopMin, N.LoopMax));
    break;
  }
  case RegexKind::Compl: {
    Re Kid = M.kid(R, 0);
    Out.push_back(Kid);
    for (Re Kv : reductions(Kid))
      Out.push_back(M.complement(Kv));
    break;
  }
  case RegexKind::Union:
  case RegexKind::Inter: {
    bool IsUnion = N.Kind == RegexKind::Union;
    const std::vector<Re> Ops(M.kids(R).begin(), M.kids(R).end());
    for (Re K : Ops)
      Out.push_back(K);
    // Drop one operand.
    for (size_t I = 0; I != Ops.size(); ++I) {
      std::vector<Re> Rest;
      for (size_t J = 0; J != Ops.size(); ++J)
        if (J != I)
          Rest.push_back(Ops[J]);
      Out.push_back(IsUnion ? M.unionList(Rest) : M.interList(Rest));
    }
    // Reduce one operand in place.
    for (size_t I = 0; I != Ops.size(); ++I) {
      for (Re Kv : reductions(Ops[I])) {
        std::vector<Re> Kids = Ops;
        Kids[I] = Kv;
        Out.push_back(IsUnion ? M.unionList(Kids) : M.interList(Kids));
      }
    }
    break;
  }
  }
  // Collapse the whole subterm.
  Out.push_back(M.epsilon());
  Out.push_back(M.empty());
}

std::vector<Re> Shrinker::reductions(Re R) {
  std::vector<Re> Raw;
  reduceInto(R, Raw);
  uint32_t Bound = M.node(R).Size;
  std::vector<Re> Out;
  for (Re C : Raw) {
    if (M.node(C).Size >= Bound)
      continue;
    bool Seen = false;
    for (Re P : Out)
      if (P == C) {
        Seen = true;
        break;
      }
    if (!Seen)
      Out.push_back(C);
  }
  return Out;
}

ShrinkResult Shrinker::shrink(Re R, const std::vector<uint32_t> &Word,
                              const FailurePredicate &StillFails,
                              uint32_t MaxSteps) {
  ShrinkResult Res;
  Res.Pattern = R;
  Res.Word = Word;

  bool Progress = true;
  while (Progress && Res.Steps < MaxSteps) {
    Progress = false;

    // Regex pass: take the first strictly smaller reduction that still
    // fails, then restart from the new (smaller) term.
    for (Re C : reductions(Res.Pattern)) {
      ++Res.Attempts;
      if (StillFails(C, Res.Word)) {
        Res.Pattern = C;
        ++Res.Steps;
        SBD_OBS_INC(FuzzShrinkSteps);
        Progress = true;
        break;
      }
    }
    if (Progress)
      continue;

    // Word pass: drop one character (strictly shorter) ...
    for (size_t I = 0; I != Res.Word.size() && !Progress; ++I) {
      std::vector<uint32_t> C = Res.Word;
      C.erase(C.begin() + static_cast<ptrdiff_t>(I));
      ++Res.Attempts;
      if (StillFails(Res.Pattern, C)) {
        Res.Word = std::move(C);
        ++Res.Steps;
        SBD_OBS_INC(FuzzShrinkSteps);
        Progress = true;
      }
    }
    // ... or canonicalize one character downward ('a', then '0'), which
    // strictly decreases the pointwise order, so this too terminates.
    static const uint32_t Canon[] = {'a', '0'};
    for (size_t I = 0; I != Res.Word.size() && !Progress; ++I) {
      for (uint32_t Target : Canon) {
        if (Res.Word[I] <= Target)
          continue;
        std::vector<uint32_t> C = Res.Word;
        C[I] = Target;
        ++Res.Attempts;
        if (StillFails(Res.Pattern, C)) {
          Res.Word = std::move(C);
          ++Res.Steps;
          SBD_OBS_INC(FuzzShrinkSteps);
          Progress = true;
          break;
        }
      }
    }
  }
  return Res;
}
