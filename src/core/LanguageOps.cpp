//===- core/LanguageOps.cpp - Language-level operations ----------------------===//

#include "core/LanguageOps.h"

#include "support/Debug.h"

#include <algorithm>
#include <cassert>
#include <deque>
#include <functional>
#include <unordered_map>

using namespace sbd;

Re sbd::reverseRegex(RegexManager &M, Re R) {
  // Copy the node record: recursive calls may grow the arena. Children are
  // read with kid() for the same reason.
  const RegexNode N = M.node(R);
  switch (N.Kind) {
  case RegexKind::Empty:
  case RegexKind::Epsilon:
  case RegexKind::Pred:
    return R;
  case RegexKind::Concat: {
    Re A = reverseRegex(M, M.kid(R, 0));
    Re B = reverseRegex(M, M.kid(R, 1));
    return M.concat(B, A);
  }
  case RegexKind::Star:
    return M.star(reverseRegex(M, M.kid(R, 0)));
  case RegexKind::Loop:
    return M.loop(reverseRegex(M, M.kid(R, 0)), N.LoopMin, N.LoopMax);
  case RegexKind::Union:
  case RegexKind::Inter: {
    std::vector<Re> Kids(N.NumKids);
    for (size_t I = 0; I != Kids.size(); ++I)
      Kids[I] = reverseRegex(M, M.kid(R, I));
    return N.Kind == RegexKind::Union ? M.unionList(Kids) : M.interList(Kids);
  }
  case RegexKind::Compl:
    // Reversal is a bijection on Σ*, so it commutes with complement.
    return M.complement(reverseRegex(M, M.kid(R, 0)));
  }
  sbd_unreachable("covered switch");
}

std::optional<std::pair<size_t, size_t>>
sbd::findFirstMatch(DerivativeEngine &Engine, Re R,
                    const std::vector<uint32_t> &Word) {
  RegexManager &M = Engine.regexManager();

  // Pass 1 (forward): run `.*R`; the first position where the running
  // derivative is nullable is the earliest end of any match.
  Re Seek = M.concat(M.top(), R);
  std::optional<size_t> End;
  if (M.nullable(Seek)) {
    End = 0;
  } else {
    Re Cur = Seek;
    for (size_t I = 0; I != Word.size(); ++I) {
      Cur = Engine.brzozowski(Cur, Word[I]);
      if (M.nullable(Cur)) {
        End = I + 1;
        break;
      }
      if (Cur == M.empty())
        return std::nullopt; // (possible only if L(R) = ∅)
    }
  }
  if (!End)
    return std::nullopt;

  // Pass 2 (backward): scan reverse(R) over Word[End-1], Word[End-2], …;
  // every nullable point marks a valid start; keep the smallest.
  Re Rev = reverseRegex(M, R);
  size_t Start = *End; // matches ending at End with empty span
  if (!M.nullable(Rev) && *End == 0)
    return std::nullopt; // defensive; nullable(R) == nullable(Rev)
  Re Cur = Rev;
  for (size_t I = *End; I-- > 0;) {
    Cur = Engine.brzozowski(Cur, Word[I]);
    if (Cur == M.empty())
      break;
    if (M.nullable(Cur))
      Start = I;
  }
  if (Start == *End && !M.nullable(R))
    return std::nullopt; // defensive; pass 1 guarantees a start exists
  return std::make_pair(Start, *End);
}

namespace {

uint64_t addSat(uint64_t A, uint64_t B) {
  uint64_t S = A + B;
  return S < A ? UINT64_MAX : S;
}

uint64_t mulSat(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > UINT64_MAX / B)
    return UINT64_MAX;
  return A * B;
}

} // namespace

std::optional<uint64_t> sbd::countWordsOfLength(DerivativeEngine &Engine,
                                                Re R, size_t Len,
                                                size_t MaxStates) {
  RegexManager &M = Engine.regexManager();
  TrManager &T = Engine.trManager();

  // Deterministic per-state transition summary: elementary guard blocks
  // (arcs from union branches may overlap, so per-block targets are merged
  // through the regex union — otherwise words would be double counted).
  struct DState {
    bool Accepting;
    bool Expanded = false;
    std::vector<std::pair<uint64_t, uint32_t>> Out; // (block size, target)
  };
  std::vector<DState> States;
  std::vector<Re> StateRe;
  std::unordered_map<uint32_t, uint32_t> Index;

  auto intern = [&](Re State) -> std::optional<uint32_t> {
    auto It = Index.find(State.Id);
    if (It != Index.end())
      return It->second;
    if (MaxStates && States.size() >= MaxStates)
      return std::nullopt;
    uint32_t Idx = static_cast<uint32_t>(States.size());
    States.push_back({M.nullable(State), false, {}});
    StateRe.push_back(State);
    Index.emplace(State.Id, Idx);
    return Idx;
  };

  std::function<std::optional<bool>(uint32_t)> Expand =
      [&](uint32_t Idx) -> std::optional<bool> {
    if (States[Idx].Expanded)
      return true;
    std::vector<TrArc> Arcs = T.arcs(Engine.derivativeDnf(StateRe[Idx]));
    std::vector<uint32_t> Bounds;
    for (const TrArc &A : Arcs)
      for (const CharRange &Rg : A.Guard.ranges()) {
        Bounds.push_back(Rg.Lo);
        if (Rg.Hi < MaxCodePoint)
          Bounds.push_back(Rg.Hi + 1);
      }
    std::sort(Bounds.begin(), Bounds.end());
    Bounds.erase(std::unique(Bounds.begin(), Bounds.end()), Bounds.end());
    std::vector<std::pair<uint64_t, uint32_t>> Out;
    for (size_t I = 0; I != Bounds.size(); ++I) {
      uint32_t Lo = Bounds[I];
      uint32_t Hi =
          (I + 1 < Bounds.size()) ? Bounds[I + 1] - 1 : MaxCodePoint;
      std::vector<Re> Targets;
      for (const TrArc &A : Arcs)
        if (A.Guard.contains(Lo))
          Targets.push_back(A.Target);
      if (Targets.empty())
        continue;
      Re Next = M.unionList(std::move(Targets));
      if (Next == M.empty())
        continue;
      auto To = intern(Next);
      if (!To)
        return std::nullopt;
      Out.push_back({static_cast<uint64_t>(Hi) - Lo + 1, *To});
    }
    States[Idx].Out = std::move(Out);
    States[Idx].Expanded = true;
    return true;
  };

  auto Init = intern(R);
  if (!Init)
    return std::nullopt;

  // Close the deterministic state space first (expansion appends states;
  // the loop naturally covers them), then run the DP over the fixed set.
  for (uint32_t Q = 0; Q != States.size(); ++Q)
    if (!Expand(Q).has_value())
      return std::nullopt;

  std::vector<uint64_t> Prev(States.size()), Cur(States.size());
  for (uint32_t Q = 0; Q != States.size(); ++Q)
    Prev[Q] = States[Q].Accepting ? 1 : 0; // count(q, 0)
  for (size_t N = 1; N <= Len; ++N) {
    for (uint32_t Q = 0; Q != States.size(); ++Q) {
      uint64_t Total = 0;
      for (const auto &[BlockSize, To] : States[Q].Out)
        Total = addSat(Total, mulSat(BlockSize, Prev[To]));
      Cur[Q] = Total;
    }
    std::swap(Prev, Cur);
  }
  return Prev[*Init];
}

std::vector<std::vector<uint32_t>>
sbd::enumerateLanguage(DerivativeEngine &Engine, Re R, size_t MaxWords,
                       size_t MaxStates) {
  RegexManager &M = Engine.regexManager();
  TrManager &T = Engine.trManager();
  if (MaxStates == 0)
    MaxStates = 10 * MaxWords + 100;

  std::vector<std::vector<uint32_t>> Out;
  if (MaxWords == 0)
    return Out;

  // Breadth-first over (regex, word-so-far) configurations. Words are
  // built from sampled guard representatives; distinct configurations can
  // share a regex (different spellings), so the key is the pair.
  struct Config {
    Re State;
    std::vector<uint32_t> Word;
  };
  std::deque<Config> Queue;
  Queue.push_back({R, {}});
  size_t Explored = 0;

  while (!Queue.empty() && Out.size() < MaxWords && Explored < MaxStates) {
    Config Cur = std::move(Queue.front());
    Queue.pop_front();
    ++Explored;
    if (M.nullable(Cur.State)) {
      bool Fresh = true;
      for (const auto &W : Out)
        if (W == Cur.Word) {
          Fresh = false;
          break;
        }
      if (Fresh)
        Out.push_back(Cur.Word);
      if (Out.size() >= MaxWords)
        break;
    }
    for (const TrArc &Arc : T.arcs(Engine.derivativeDnf(Cur.State))) {
      // Small guards are enumerated exhaustively so finite languages come
      // out complete; large classes contribute one readable representative.
      std::vector<uint32_t> Chars;
      if (Arc.Guard.count() <= 4) {
        for (const CharRange &Rg : Arc.Guard.ranges())
          for (uint32_t C = Rg.Lo; C <= Rg.Hi; ++C)
            Chars.push_back(C);
      } else {
        auto Ch = Arc.Guard.sample();
        assert(Ch && "arc guards are satisfiable");
        Chars.push_back(*Ch);
      }
      for (uint32_t Ch : Chars) {
        Config Next;
        Next.State = Arc.Target;
        Next.Word = Cur.Word;
        Next.Word.push_back(Ch);
        Queue.push_back(std::move(Next));
      }
    }
  }
  return Out;
}
