//===- re/RegexParser.cpp - Textual regex syntax ----------------------------===//

#include "re/RegexParser.h"

#include "support/Debug.h"
#include "support/Unicode.h"

#include <cstdio>
#include <cstdlib>

using namespace sbd;

namespace {

/// Recursive-descent parser over decoded code points.
class Parser {
public:
  Parser(RegexManager &Mgr, const std::string &Pattern)
      : M(Mgr), In(fromUtf8(Pattern)) {}

  RegexParseResult run() {
    Re R = parseUnion();
    if (!Failed && Pos != In.size())
      fail("unexpected character");
    RegexParseResult Result;
    Result.Ok = !Failed;
    Result.Value = R;
    Result.Error = Err;
    Result.ErrorPos = ErrPos;
    return Result;
  }

private:
  RegexManager &M;
  std::vector<uint32_t> In;
  size_t Pos = 0;
  bool Failed = false;
  std::string Err;
  size_t ErrPos = 0;
  size_t Depth = 0; ///< open '(' and '~' around the current position

  bool atEnd() const { return Pos >= In.size(); }
  uint32_t peek() const { return atEnd() ? 0 : In[Pos]; }
  uint32_t take() { return In[Pos++]; }
  bool consumeIf(uint32_t C) {
    if (atEnd() || In[Pos] != C)
      return false;
    ++Pos;
    return true;
  }

  /// Counts one more open '(' or '~'; past MaxRegexNesting it fails the
  /// parse instead, before the recursion can exhaust the stack.
  bool enterNesting() {
    if (Depth == MaxRegexNesting) {
      fail("nesting too deep (limit " + std::to_string(MaxRegexNesting) +
           ")");
      return false;
    }
    ++Depth;
    return true;
  }

  Re fail(const std::string &Msg) {
    if (!Failed) {
      Failed = true;
      Err = Msg;
      ErrPos = Pos;
    }
    return M.empty();
  }

  Re parseUnion() {
    return parseOperands('|', &Parser::parseInter, &RegexManager::unionList);
  }

  Re parseInter() {
    return parseOperands('&', &Parser::parseConcat, &RegexManager::interList);
  }

  /// Operand (Op Operand)*, built by one n-ary call: folding pairwise would
  /// intern every partial result and cost quadratic time in the operands.
  Re parseOperands(char Op, Re (Parser::*Operand)(),
                   Re (RegexManager::*Build)(std::span<const Re>)) {
    Re First = (this->*Operand)();
    if (Failed || !consumeIf(Op))
      return First;
    std::vector<Re> Operands{First};
    do
      Operands.push_back((this->*Operand)());
    while (!Failed && consumeIf(Op));
    return (M.*Build)(Operands);
  }

  bool startsAtom() const {
    if (atEnd())
      return false;
    switch (peek()) {
    case '|':
    case '&':
    case ')':
    case '*':
    case '+':
    case '?':
    case '{':
    case '}':
    case ']':
      return false;
    default:
      return true;
    }
  }

  Re parseConcat() {
    if (!startsAtom())
      return fail("expected a regex term");
    Re R = parseUnary();
    std::vector<Re> Parts = {R};
    while (!Failed && startsAtom())
      Parts.push_back(parseUnary());
    return M.concatList(Parts);
  }

  Re parseUnary() {
    if (consumeIf('~')) {
      if (!enterNesting())
        return M.empty();
      Re R = M.complement(parseUnary());
      --Depth;
      return R;
    }
    return parsePostfix();
  }

  Re parsePostfix() {
    Re R = parseAtom();
    while (!Failed && !atEnd()) {
      if (consumeIf('*')) {
        R = M.star(R);
        continue;
      }
      if (consumeIf('+')) {
        R = M.plus(R);
        continue;
      }
      if (consumeIf('?')) {
        R = M.opt(R);
        continue;
      }
      if (peek() == '{') {
        ++Pos;
        R = parseLoopSuffix(R);
        continue;
      }
      break;
    }
    return R;
  }

  /// Parses the "m (',' n?)? '}'" part of a loop; '{' already consumed.
  Re parseLoopSuffix(Re R) {
    uint32_t Min = 0;
    if (!parseNumber(Min))
      return fail("expected a number in loop bound");
    uint32_t Max = Min;
    if (consumeIf(',')) {
      if (peek() == '}')
        Max = LoopInf;
      else if (!parseNumber(Max))
        return fail("expected a number in loop bound");
    }
    if (!consumeIf('}'))
      return fail("expected '}' to close loop");
    if (Max != LoopInf && Min > Max)
      return fail("loop bounds out of order");
    return M.loop(R, Min, Max);
  }

  bool parseNumber(uint32_t &Out) {
    if (atEnd() || peek() < '0' || peek() > '9')
      return false;
    uint64_t V = 0;
    while (!atEnd() && peek() >= '0' && peek() <= '9') {
      V = V * 10 + (take() - '0');
      if (V > 1000000) // guard absurd loop bounds
        return false;
    }
    Out = static_cast<uint32_t>(V);
    return true;
  }

  Re parseAtom() {
    if (atEnd())
      return fail("unexpected end of pattern");
    uint32_t C = take();
    switch (C) {
    case '(': {
      if (consumeIf(')'))
        return M.epsilon(); // '()' denotes ε
      if (!enterNesting())
        return M.empty();
      Re R = parseUnion();
      --Depth;
      if (!consumeIf(')'))
        return fail("expected ')'");
      return R;
    }
    case '[':
      return parseClass();
    case '.':
      return M.anyChar();
    case '\\': {
      CharSet S;
      if (!parseEscape(S))
        return fail("bad escape");
      return M.pred(S);
    }
    default:
      return M.chr(C);
    }
  }

  /// Parses an escape sequence after the backslash. Returns the denoted
  /// character set.
  bool parseEscape(CharSet &Out) {
    if (atEnd())
      return false;
    uint32_t C = take();
    switch (C) {
    case 'd':
      Out = CharSet::digit();
      return true;
    case 'D':
      Out = CharSet::digit().complement();
      return true;
    case 'w':
      Out = CharSet::word();
      return true;
    case 'W':
      Out = CharSet::word().complement();
      return true;
    case 's':
      Out = CharSet::space();
      return true;
    case 'S':
      Out = CharSet::space().complement();
      return true;
    case 't':
      Out = CharSet::singleton('\t');
      return true;
    case 'n':
      Out = CharSet::singleton('\n');
      return true;
    case 'r':
      Out = CharSet::singleton('\r');
      return true;
    case 'f':
      Out = CharSet::singleton('\f');
      return true;
    case 'v':
      Out = CharSet::singleton('\v');
      return true;
    case '0':
      Out = CharSet::singleton(0);
      return true;
    case 'x': {
      uint32_t V;
      if (!parseHex(2, V))
        return false;
      Out = CharSet::singleton(V);
      return true;
    }
    case 'u': {
      uint32_t V;
      if (!parseHex(4, V))
        return false;
      Out = CharSet::singleton(V);
      return true;
    }
    case 'U': {
      if (!consumeIf('{'))
        return false;
      uint32_t V = 0;
      int Digits = 0;
      while (!atEnd() && peek() != '}') {
        int D = hexDigit(take());
        if (D < 0)
          return false;
        V = V * 16 + static_cast<uint32_t>(D);
        if (++Digits > 6 || V > MaxCodePoint)
          return false;
      }
      if (Digits == 0 || !consumeIf('}'))
        return false;
      Out = CharSet::singleton(V);
      return true;
    }
    default:
      // Backslash before anything else denotes that literal character.
      Out = CharSet::singleton(C);
      return true;
    }
  }

  static int hexDigit(uint32_t C) {
    if (C >= '0' && C <= '9')
      return static_cast<int>(C - '0');
    if (C >= 'a' && C <= 'f')
      return static_cast<int>(C - 'a' + 10);
    if (C >= 'A' && C <= 'F')
      return static_cast<int>(C - 'A' + 10);
    return -1;
  }

  bool parseHex(int Digits, uint32_t &Out) {
    uint32_t V = 0;
    for (int I = 0; I != Digits; ++I) {
      if (atEnd())
        return false;
      int D = hexDigit(take());
      if (D < 0)
        return false;
      V = V * 16 + static_cast<uint32_t>(D);
    }
    Out = V;
    return true;
  }

  /// Parses a character class; '[' already consumed.
  Re parseClass() {
    bool Negate = consumeIf('^');
    CharSet Acc;
    // '[]' is the empty set; '[^]' is the full set.
    while (!atEnd() && peek() != ']') {
      CharSet First;
      if (!parseClassAtom(First))
        return fail("bad character class");
      // A range 'a-z' requires the lhs to be a single character.
      if (!atEnd() && peek() == '-' && Pos + 1 < In.size() &&
          In[Pos + 1] != ']') {
        ++Pos; // consume '-'
        CharSet Second;
        if (!parseClassAtom(Second))
          return fail("bad character class range");
        auto Lo = First.minElement();
        auto Hi = Second.minElement();
        if (!Lo || !Hi || First.count() != 1 || Second.count() != 1 ||
            *Lo > *Hi)
          return fail("bad character class range");
        Acc = Acc.unionWith(CharSet::range(*Lo, *Hi));
        continue;
      }
      Acc = Acc.unionWith(First);
    }
    if (!consumeIf(']'))
      return fail("expected ']'");
    if (Negate)
      Acc = Acc.complement();
    return M.pred(Acc);
  }

  bool parseClassAtom(CharSet &Out) {
    if (atEnd())
      return false;
    uint32_t C = take();
    if (C == '\\')
      return parseEscape(Out);
    Out = CharSet::singleton(C);
    return true;
  }
};

} // namespace

RegexParseResult sbd::parseRegex(RegexManager &Manager,
                                 const std::string &Pattern) {
  Parser P(Manager, Pattern);
  return P.run();
}

Re sbd::parseRegexOrDie(RegexManager &Manager, const std::string &Pattern) {
  RegexParseResult R = parseRegex(Manager, Pattern);
  if (!R.Ok) {
    std::fprintf(stderr, "regex parse error: %s at offset %zu in \"%s\"\n",
                 R.Error.c_str(), R.ErrorPos, Pattern.c_str());
    std::abort();
  }
  return R.Value;
}
