//===- automata/Glushkov.cpp - Plain RE → symbolic NFA ----------------------===//

#include "automata/Glushkov.h"

#include "support/Debug.h"

using namespace sbd;

namespace {

class Compiler {
public:
  Compiler(const RegexManager &Mgr, size_t StateLimit)
      : M(Mgr), MaxStates(StateLimit) {}

  std::optional<Snfa> compile(Re R) {
    const RegexNode &N = M.node(R);
    switch (N.Kind) {
    case RegexKind::Empty:
      return checked(Snfa::empty());
    case RegexKind::Epsilon:
      return checked(Snfa::epsilon());
    case RegexKind::Pred:
      return checked(Snfa::pred(M.predSet(R)));
    case RegexKind::Concat: {
      auto A = compile(M.kid(R, 0));
      auto B = compile(M.kid(R, 1));
      if (!A || !B)
        return std::nullopt;
      return checked(Snfa::concat(*A, *B));
    }
    case RegexKind::Star: {
      auto A = compile(M.kid(R, 0));
      if (!A)
        return std::nullopt;
      return checked(Snfa::star(*A));
    }
    case RegexKind::Loop: {
      auto Body = compile(M.kid(R, 0));
      if (!Body)
        return std::nullopt;
      // r{m,n} = r^m · (ε|r)^(n-m); r{m,∞} = r^m · r*.
      Snfa Acc = Snfa::epsilon();
      for (uint32_t I = 0; I != N.LoopMin; ++I) {
        Acc = Snfa::concat(Acc, *Body);
        if (!within(Acc))
          return std::nullopt;
      }
      if (N.LoopMax == LoopInf) {
        Acc = Snfa::concat(Acc, Snfa::star(*Body));
      } else {
        Snfa OptBody = Snfa::alternate(*Body, Snfa::epsilon());
        for (uint32_t I = N.LoopMin; I != N.LoopMax; ++I) {
          Acc = Snfa::concat(Acc, OptBody);
          if (!within(Acc))
            return std::nullopt;
        }
      }
      return checked(std::move(Acc));
    }
    case RegexKind::Union: {
      Snfa Acc = Snfa::empty();
      for (Re Kid : M.kids(R)) {
        auto A = compile(Kid);
        if (!A)
          return std::nullopt;
        Acc = Snfa::alternate(Acc, *A);
        if (!within(Acc))
          return std::nullopt;
      }
      return checked(std::move(Acc));
    }
    case RegexKind::Inter:
    case RegexKind::Compl:
      return std::nullopt; // not in the plain RE fragment
    }
    sbd_unreachable("covered switch");
  }

private:
  bool within(const Snfa &A) const {
    return MaxStates == 0 || A.numStates() <= MaxStates;
  }

  std::optional<Snfa> checked(Snfa A) const {
    if (!within(A))
      return std::nullopt;
    return A;
  }

  const RegexManager &M;
  size_t MaxStates;
};

} // namespace

std::optional<Snfa> sbd::compileReToNfa(const RegexManager &M, Re R,
                                        size_t MaxStates) {
  Compiler C(M, MaxStates);
  return C.compile(R);
}
