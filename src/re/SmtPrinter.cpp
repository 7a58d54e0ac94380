//===- re/SmtPrinter.cpp - Regex → SMT-LIB term rendering -------------------===//

#include "re/SmtPrinter.h"

#include "support/Debug.h"
#include "support/Unicode.h"

#include <cstdio>

using namespace sbd;

std::string sbd::smtStringLiteral(const std::vector<uint32_t> &Word) {
  std::string Out = "\"";
  for (uint32_t Cp : Word) {
    if (Cp == '"') {
      Out += "\"\""; // SMT-LIB doubles quotes
      continue;
    }
    if (Cp >= 0x20 && Cp <= 0x7E && Cp != '\\') {
      Out.push_back(static_cast<char>(Cp));
      continue;
    }
    char Buf[16];
    std::snprintf(Buf, sizeof(Buf), "\\u{%X}", Cp);
    Out += Buf;
  }
  Out += '"';
  return Out;
}

std::vector<uint32_t> sbd::decodeSmtString(const std::string &Contents) {
  std::vector<uint32_t> Raw = fromUtf8(Contents);
  std::vector<uint32_t> Out;
  size_t I = 0;
  auto hexVal = [](uint32_t C) -> int {
    if (C >= '0' && C <= '9')
      return static_cast<int>(C - '0');
    if (C >= 'a' && C <= 'f')
      return static_cast<int>(C - 'a' + 10);
    if (C >= 'A' && C <= 'F')
      return static_cast<int>(C - 'A' + 10);
    return -1;
  };
  while (I < Raw.size()) {
    if (Raw[I] != '\\' || I + 1 >= Raw.size() || Raw[I + 1] != 'u') {
      Out.push_back(Raw[I++]);
      continue;
    }
    // \u{H+} or \uHHHH; anything malformed stays literal.
    size_t J = I + 2;
    uint32_t Value = 0;
    bool Ok = false;
    if (J < Raw.size() && Raw[J] == '{') {
      size_t K = J + 1;
      int Digits = 0;
      while (K < Raw.size() && Raw[K] != '}') {
        int D = hexVal(Raw[K]);
        if (D < 0 || ++Digits > 6)
          break;
        Value = Value * 16 + static_cast<uint32_t>(D);
        ++K;
      }
      if (K < Raw.size() && Raw[K] == '}' && Digits > 0 &&
          Value <= MaxCodePoint) {
        Ok = true;
        J = K + 1;
      }
    } else if (J + 3 < Raw.size()) {
      Value = 0;
      Ok = true;
      for (size_t K = J; K != J + 4; ++K) {
        int D = hexVal(Raw[K]);
        if (D < 0) {
          Ok = false;
          break;
        }
        Value = Value * 16 + static_cast<uint32_t>(D);
      }
      if (Ok)
        J = J + 4;
    }
    if (Ok) {
      Out.push_back(Value);
      I = J;
    } else {
      Out.push_back(Raw[I++]);
    }
  }
  return Out;
}

namespace {

/// A single code point as an SMT string literal.
std::string charLiteral(uint32_t Cp) { return smtStringLiteral({Cp}); }

std::string predToTerm(const CharSet &Set) {
  if (Set.isEmpty())
    return "re.none";
  if (Set.isFull())
    return "re.allchar";
  std::string Out;
  size_t Count = 0;
  for (const CharRange &R : Set.ranges()) {
    std::string Piece =
        R.Lo == R.Hi
            ? "(str.to_re " + charLiteral(R.Lo) + ")"
            : "(re.range " + charLiteral(R.Lo) + " " + charLiteral(R.Hi) +
                  ")";
    if (Count == 0)
      Out = Piece;
    else
      Out += " " + Piece;
    ++Count;
  }
  if (Count == 1)
    return Out;
  return "(re.union " + Out + ")";
}

std::string toTerm(const RegexManager &M, Re R);

/// Renders a concatenation spine, packing runs of singleton characters into
/// one str.to_re literal.
std::string concatToTerm(const RegexManager &M, Re R) {
  std::vector<std::string> Parts;
  std::vector<uint32_t> PendingLiteral;
  auto flush = [&]() {
    if (PendingLiteral.empty())
      return;
    Parts.push_back("(str.to_re " + smtStringLiteral(PendingLiteral) + ")");
    PendingLiteral.clear();
  };
  Re Cur = R;
  while (true) {
    Re Head = Cur;
    bool HasTail = M.kind(Cur) == RegexKind::Concat;
    if (HasTail)
      Head = M.kid(Cur, 0);
    if (M.kind(Head) == RegexKind::Pred && M.predSet(Head).count() == 1) {
      PendingLiteral.push_back(*M.predSet(Head).minElement());
    } else {
      flush();
      Parts.push_back(toTerm(M, Head));
    }
    if (!HasTail)
      break;
    Cur = M.kid(Cur, 1);
  }
  flush();
  if (Parts.size() == 1)
    return Parts[0];
  std::string Out = "(re.++";
  for (const std::string &P : Parts)
    Out += " " + P;
  return Out + ")";
}

std::string toTerm(const RegexManager &M, Re R) {
  const RegexNode &N = M.node(R);
  switch (N.Kind) {
  case RegexKind::Empty:
    return "re.none";
  case RegexKind::Epsilon:
    return "(str.to_re \"\")";
  case RegexKind::Pred:
    if (M.predSet(R).count() == 1)
      return "(str.to_re " + charLiteral(*M.predSet(R).minElement()) + ")";
    return predToTerm(M.predSet(R));
  case RegexKind::Concat:
    return concatToTerm(M, R);
  case RegexKind::Star: {
    Re Kid = M.kid(R, 0);
    if (M.kind(Kid) == RegexKind::Pred && M.predSet(Kid).isFull())
      return "re.all";
    return "(re.* " + toTerm(M, Kid) + ")";
  }
  case RegexKind::Loop: {
    std::string Body = toTerm(M, M.kid(R, 0));
    if (N.LoopMax == LoopInf) {
      if (N.LoopMin == 1)
        return "(re.+ " + Body + ")";
      // r{m,∞} = r{m,m} · r*.
      return "(re.++ ((_ re.loop " + std::to_string(N.LoopMin) + " " +
             std::to_string(N.LoopMin) + ") " + Body + ") (re.* " + Body +
             "))";
    }
    if (N.LoopMin == 0 && N.LoopMax == 1)
      return "(re.opt " + Body + ")";
    return "((_ re.loop " + std::to_string(N.LoopMin) + " " +
           std::to_string(N.LoopMax) + ") " + Body + ")";
  }
  case RegexKind::Union:
  case RegexKind::Inter: {
    std::string Out =
        N.Kind == RegexKind::Union ? "(re.union" : "(re.inter";
    for (Re Kid : M.kids(R))
      Out.append(" ").append(toTerm(M, Kid));
    return Out + ")";
  }
  case RegexKind::Compl:
    return "(re.comp " + toTerm(M, M.kid(R, 0)) + ")";
  }
  sbd_unreachable("covered switch");
}

} // namespace

std::string sbd::regexToSmtTerm(const RegexManager &M, Re R) {
  return toTerm(M, R);
}

std::string sbd::regexToSmtScript(const RegexManager &M, Re R,
                                  std::optional<bool> ExpectedSat,
                                  const std::string &VarName) {
  std::string Out = "(set-logic QF_S)\n";
  if (ExpectedSat.has_value())
    Out += std::string("(set-info :status ") +
           (*ExpectedSat ? "sat" : "unsat") + ")\n";
  Out += "(declare-const " + VarName + " String)\n";
  Out += "(assert (str.in_re " + VarName + " " + regexToSmtTerm(M, R) +
         "))\n";
  Out += "(check-sat)\n";
  return Out;
}
