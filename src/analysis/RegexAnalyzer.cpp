//===- analysis/RegexAnalyzer.cpp - Pre-solve structural analysis -----------===//

#include "analysis/RegexAnalyzer.h"

#include "support/Debug.h"
#include "support/Metrics.h"

#include <algorithm>

using namespace sbd;
using namespace sbd::analysis;

const char *sbd::analysis::reClassName(ReClass C) {
  switch (C) {
  case ReClass::Literal:
    return "literal";
  case ReClass::Sparse:
    return "sparse";
  case ReClass::KleeneOnly:
    return "kleene_only";
  case ReClass::BooleanHeavy:
    return "boolean_heavy";
  case ReClass::CounterHeavy:
    return "counter_heavy";
  case ReClass::Adversarial:
    return "adversarial";
  }
  return "?";
}

namespace {

uint32_t satAdd32(uint32_t A, uint32_t B) {
  return A > UINT32_MAX - B ? UINT32_MAX : A + B;
}

uint64_t satMul64(uint64_t A, uint64_t B) {
  if (A == 0 || B == 0)
    return 0;
  if (A > BlowupSat / B)
    return BlowupSat;
  uint64_t P = A * B;
  return P > BlowupSat ? BlowupSat : P;
}

uint32_t floorLog2(uint64_t V) {
  uint32_t L = 0;
  while (V >>= 1)
    ++L;
  return L;
}

/// The risk formula of DESIGN.md §14. Integer-only so the score is
/// bit-identical across platforms and manager rebuilds.
uint32_t riskScore(const RegexFeatures &F) {
  uint64_t R = 0;
  // Nested unbounded iteration: the classic ReDoS shape.
  if (F.StarHeight >= 2)
    R += std::min<uint64_t>(50, 25 * (uint64_t(F.StarHeight) - 1));
  // Bounded-counter unrolling pressure, log-scaled.
  R += std::min<uint64_t>(40, 10 * floorLog2(F.CounterBlowup));
  // Complement under iteration forces determinization of the loop body.
  if (F.StarHeight > 0)
    R += 15 * std::min<uint32_t>(4, F.ComplDepth);
  // Raw pattern bulk: large trees cost states even without blow-up.
  R += std::min<uint64_t>(10, F.TreeSize / 64);
  // Wide predicate alphabets multiply the minterm partition.
  if (F.NumPred > 8)
    R += std::min<uint64_t>(10, (uint64_t(F.NumPred) - 8) * 2);
  return static_cast<uint32_t>(std::min<uint64_t>(100, R));
}

/// First-match classification over the feature record (DESIGN.md §14).
ReClass classify(const RegexFeatures &F) {
  if (F.Risk >= RiskAdversarial)
    return ReClass::Adversarial;
  if (F.CounterBlowup > CounterHeavyBlowup)
    return ReClass::CounterHeavy;
  if (F.NumCompl > 0 || F.NumInter > 0)
    return ReClass::BooleanHeavy;
  if (F.PrefixExact && F.PrefixComplete && !F.EmptyLang)
    return ReClass::Literal;
  if (F.NumStar > 0 || F.NumLoop > 0)
    return ReClass::KleeneOnly;
  return ReClass::Sparse;
}

/// Copies Src's prefix word into F starting at F.PrefixLen, clamping at the
/// cap. Returns false when truncation happened.
bool appendPrefix(RegexFeatures &F, const uint32_t *Word, uint32_t Len) {
  uint32_t I = 0;
  for (; I != Len && F.PrefixLen < RegexFeatures::PrefixCap; ++I)
    F.Prefix[F.PrefixLen++] = Word[I];
  return I == Len;
}

} // namespace

const RegexFeatures &RegexAnalyzer::analyze(Re R) {
  if (done(R.Id) && record(R.Id).DagSize != 0) {
    SBD_OBS_INC(AnalysisCacheHits);
    return record(R.Id);
  }
  fold(R);
  return record(R.Id);
}

void RegexAnalyzer::fold(Re Root) {
  size_t N = M.numNodes();
  while (Pages.size() * PageSize < N)
    Pages.push_back(std::make_unique<Page>());
  if (Mark.size() < N)
    Mark.resize(N, 0);

  // Iterative post-order over the not-yet-folded sub-DAG. Explicit stack:
  // literal patterns intern as right-nested concat chains as deep as the
  // word is long, which would overflow the call stack.
  struct Frame {
    Re Node;
    uint32_t NextKid;
  };
  std::vector<Frame> Stack;
  Stack.push_back({Root, 0});
  while (!Stack.empty()) {
    Frame &F = Stack.back();
    if (done(F.Node.Id)) {
      Stack.pop_back();
      continue;
    }
    const RegexNode &Node = M.node(F.Node);
    if (F.NextKid < Node.NumKids) {
      Re Kid = M.kid(F.Node, F.NextKid++);
      if (!done(Kid.Id))
        Stack.push_back({Kid, 0});
      continue;
    }
    // All kids folded: synthesize this node's record.
    RegexFeatures R;
    R.TreeSize = Node.Size;
    R.StarHeight = Node.StarHeight;
    R.Nullable = Node.Nullable;
    for (Re Kid : M.kids(F.Node)) {
      const RegexFeatures &K = record(Kid.Id);
      R.NumPred = satAdd32(R.NumPred, K.NumPred);
      R.NumConcat = satAdd32(R.NumConcat, K.NumConcat);
      R.NumStar = satAdd32(R.NumStar, K.NumStar);
      R.NumLoop = satAdd32(R.NumLoop, K.NumLoop);
      R.NumUnion = satAdd32(R.NumUnion, K.NumUnion);
      R.NumInter = satAdd32(R.NumInter, K.NumInter);
      R.NumCompl = satAdd32(R.NumCompl, K.NumCompl);
      R.BooleanDepth = std::max(R.BooleanDepth, K.BooleanDepth);
      R.ComplDepth = std::max(R.ComplDepth, K.ComplDepth);
      R.MaxLoopBound = std::max(R.MaxLoopBound, K.MaxLoopBound);
      R.CounterBlowup = std::max(R.CounterBlowup, K.CounterBlowup);
    }

    switch (Node.Kind) {
    case RegexKind::Empty:
      R.EmptyLang = true;
      break;
    case RegexKind::Epsilon:
      R.PrefixExact = true;
      break;
    case RegexKind::Pred: {
      R.NumPred = satAdd32(R.NumPred, 1);
      const CharSet &P = M.predSet(F.Node);
      if (P.count() == 1) {
        auto C = P.sample();
        if (!C)
          sbd_unreachable("singleton CharSet must sample");
        R.Prefix[0] = *C;
        R.PrefixLen = 1;
        R.PrefixExact = true;
      }
      break;
    }
    case RegexKind::Concat: {
      R.NumConcat = satAdd32(R.NumConcat, 1);
      const RegexFeatures &A = record(M.kid(F.Node, 0).Id);
      const RegexFeatures &B = record(M.kid(F.Node, 1).Id);
      if (A.EmptyLang || B.EmptyLang) {
        R.EmptyLang = true;
        break;
      }
      if (A.PrefixExact && A.PrefixComplete) {
        // L(A) = {w}: every word of A·B starts with w ++ prefix(B).
        bool Fit = appendPrefix(R, A.Prefix, A.PrefixLen);
        Fit = Fit && appendPrefix(R, B.Prefix, B.PrefixLen);
        R.PrefixComplete = Fit && B.PrefixComplete;
        R.PrefixExact = Fit && B.PrefixExact && B.PrefixComplete;
      } else {
        // prefix(A) prefixes every a ∈ A, hence every a·b. (A nullable
        // forces prefix(A) = ε, so this stays sound for short words.)
        appendPrefix(R, A.Prefix, A.PrefixLen);
        R.PrefixComplete = A.PrefixComplete;
      }
      break;
    }
    case RegexKind::Star:
      R.NumStar = satAdd32(R.NumStar, 1);
      break;
    case RegexKind::Loop: {
      R.NumLoop = satAdd32(R.NumLoop, 1);
      const RegexFeatures &K = record(M.kid(F.Node, 0).Id);
      uint32_t Hi = Node.LoopMax == LoopInf ? Node.LoopMin : Node.LoopMax;
      R.MaxLoopBound = std::max(R.MaxLoopBound, std::max(Node.LoopMin, Hi));
      // Blow-up multiplier: the loop's upper repetition count (its min for
      // {m,}, whose tail behaves like a star).
      R.CounterBlowup =
          satMul64(K.CounterBlowup, std::max<uint64_t>(1, Hi));
      if (K.EmptyLang && Node.LoopMin > 0) {
        R.EmptyLang = true;
      } else if (Node.LoopMin > 0 && K.PrefixExact && K.PrefixComplete) {
        // Body is the single word w: the loop must start with w^min.
        bool Fit = true;
        for (uint32_t I = 0; Fit && I != Node.LoopMin; ++I)
          Fit = appendPrefix(R, K.Prefix, K.PrefixLen);
        R.PrefixComplete = Fit;
        R.PrefixExact = Fit && Node.LoopMin == Node.LoopMax;
      } else if (Node.LoopMin > 0) {
        appendPrefix(R, K.Prefix, K.PrefixLen);
        R.PrefixComplete = K.PrefixComplete;
      }
      break;
    }
    case RegexKind::Union: {
      R.NumUnion = satAdd32(R.NumUnion, 1);
      // Longest common prefix over the kids that can contribute words.
      bool First = true;
      bool AllComplete = true;
      for (Re Kid : M.kids(F.Node)) {
        const RegexFeatures &K = record(Kid.Id);
        if (K.EmptyLang)
          continue;
        AllComplete = AllComplete && K.PrefixComplete;
        if (First) {
          appendPrefix(R, K.Prefix, K.PrefixLen);
          First = false;
          continue;
        }
        uint32_t L = 0;
        while (L < R.PrefixLen && L < K.PrefixLen &&
               R.Prefix[L] == K.Prefix[L])
          ++L;
        R.PrefixLen = L;
      }
      if (First) // every kid was provably empty (smart ctors collapse this)
        R.EmptyLang = true;
      R.PrefixComplete = AllComplete;
      break;
    }
    case RegexKind::Inter: {
      R.NumInter = satAdd32(R.NumInter, 1);
      R.BooleanDepth = satAdd32(R.BooleanDepth, 1);
      // L ⊆ L(kid) for every kid: any kid's prefix is sound; keep the
      // longest. (If the kids conflict the language is empty and every
      // prefix claim holds vacuously.)
      const RegexFeatures *Best = nullptr;
      for (Re Kid : M.kids(F.Node)) {
        const RegexFeatures &K = record(Kid.Id);
        if (K.EmptyLang)
          R.EmptyLang = true;
        if (!Best || K.PrefixLen > Best->PrefixLen)
          Best = &K;
      }
      if (Best && !R.EmptyLang) {
        appendPrefix(R, Best->Prefix, Best->PrefixLen);
        R.PrefixComplete = Best->PrefixComplete;
      }
      break;
    }
    case RegexKind::Compl:
      R.NumCompl = satAdd32(R.NumCompl, 1);
      R.BooleanDepth = satAdd32(R.BooleanDepth, 1);
      R.ComplDepth = satAdd32(R.ComplDepth, 1);
      break;
    }

    // ν(R) ⇒ ε ∈ L(R) ⇒ the only sound required prefix is ε.
    if (Node.Nullable && R.PrefixLen > 0) {
      R.PrefixLen = 0;
      R.PrefixExact = false;
      R.PrefixComplete = true;
      std::fill(std::begin(R.Prefix), std::end(R.Prefix), 0u);
    }
    if (R.EmptyLang) {
      R.PrefixLen = 0;
      R.PrefixExact = false;
      R.PrefixComplete = true;
      std::fill(std::begin(R.Prefix), std::end(R.Prefix), 0u);
    }

    R.Risk = riskScore(R);
    R.Class = classify(R);
    record(F.Node.Id) = R;
    Pages[F.Node.Id >> PageBits]->Done |= uint64_t(1)
                                          << (F.Node.Id & (PageSize - 1));
    ++NodesAnalyzed;
    SBD_OBS_INC(AnalysisNodesVisited);
    Stack.pop_back();
  }

  // Root-level DAG statistics for the requested node: distinct reachable
  // ids and distinct predicate CharSets, via one epoch-stamped walk. These
  // are only exact for `Root` itself (sub-records keep the values from
  // when they were a fold root, or zero); the router and the CLI only read
  // them at the root.
  RegexFeatures &RootF = record(Root.Id);
  if (RootF.DagSize == 0) {
    ++Epoch;
    PredIdxs.clear();
    uint32_t Count = 0;
    Walk.assign(1, Root);
    Mark[Root.Id] = Epoch;
    while (!Walk.empty()) {
      Re Cur = Walk.back();
      Walk.pop_back();
      ++Count;
      const RegexNode &Node = M.node(Cur);
      if (Node.Kind == RegexKind::Pred)
        PredIdxs.push_back(Node.Pred.Id);
      for (Re Kid : M.kids(Cur))
        if (Mark[Kid.Id] != Epoch) {
          Mark[Kid.Id] = Epoch;
          Walk.push_back(Kid);
        }
    }
    std::sort(PredIdxs.begin(), PredIdxs.end());
    RootF.DagSize = Count;
    RootF.DistinctPreds = static_cast<uint32_t>(
        std::unique(PredIdxs.begin(), PredIdxs.end()) - PredIdxs.begin());
    RootF.MintermBound = uint64_t(1)
                         << std::min<uint32_t>(30, RootF.DistinctPreds);
  }
}

uint64_t sbd::analysis::predictedStateBound(const RegexFeatures &F) {
  constexpr uint64_t Cap = uint64_t(1) << 30;
  uint64_t Dag = std::max<uint64_t>(1, F.DagSize);
  if (F.CounterBlowup > Cap / Dag)
    return Cap;
  return std::min(Cap, Dag * F.CounterBlowup);
}

std::string RegexFeatures::json() const {
  char Buf[640];
  int N = std::snprintf(
      Buf, sizeof(Buf),
      "{\"class\": \"%s\", \"risk\": %u, \"tree_size\": %u, "
      "\"dag_size\": %u, \"star_height\": %u, \"boolean_depth\": %u, "
      "\"compl_depth\": %u, \"counter_blowup\": %llu, "
      "\"max_loop_bound\": %u, \"distinct_preds\": %u, "
      "\"minterm_bound\": %llu, \"nullable\": %s, \"empty_lang\": %s, "
      "\"counts\": {\"pred\": %u, \"concat\": %u, \"star\": %u, "
      "\"loop\": %u, \"union\": %u, \"inter\": %u, \"compl\": %u}, "
      "\"prefix_len\": %u, \"prefix_exact\": %s, \"prefix_complete\": %s, "
      "\"prefix\": [",
      reClassName(Class), Risk, TreeSize, DagSize, StarHeight, BooleanDepth,
      ComplDepth, static_cast<unsigned long long>(CounterBlowup),
      MaxLoopBound, DistinctPreds,
      static_cast<unsigned long long>(MintermBound),
      Nullable ? "true" : "false", EmptyLang ? "true" : "false", NumPred,
      NumConcat, NumStar, NumLoop, NumUnion, NumInter, NumCompl, PrefixLen,
      PrefixExact ? "true" : "false", PrefixComplete ? "true" : "false");
  if (N <= 0 || static_cast<size_t>(N) >= sizeof(Buf))
    sbd_unreachable("features JSON truncated");
  std::string Out(Buf, static_cast<size_t>(N));
  for (uint32_t I = 0; I != PrefixLen; ++I) {
    if (I)
      Out += ", ";
    Out += std::to_string(Prefix[I]);
  }
  Out += "]}";
  return Out;
}
