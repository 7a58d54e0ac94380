//===- smt/SExpr.cpp - S-expression reader -----------------------------------===//

#include "smt/SExpr.h"

#include <cctype>
#include <charconv>
#include <system_error>

using namespace sbd;

namespace {

class Reader {
public:
  explicit Reader(const std::string &Text) : In(Text) {}

  SExprParseResult run() {
    SExprParseResult R;
    skipTrivia();
    while (!atEnd() && !Failed) {
      R.Forms.push_back(parseOne());
      skipTrivia();
    }
    R.Ok = !Failed;
    R.Error = Err;
    R.ErrorPos = ErrPos;
    return R;
  }

private:
  const std::string &In;
  size_t Pos = 0;
  bool Failed = false;
  std::string Err;
  size_t ErrPos = 0;
  size_t Depth = 0; ///< lists open around the current position

  bool atEnd() const { return Pos >= In.size(); }
  char peek() const { return In[Pos]; }

  void fail(const std::string &Msg) {
    if (!Failed) {
      Failed = true;
      Err = Msg;
      ErrPos = Pos;
    }
  }

  void skipTrivia() {
    while (!atEnd()) {
      char C = peek();
      if (std::isspace(static_cast<unsigned char>(C))) {
        ++Pos;
        continue;
      }
      if (C == ';') {
        while (!atEnd() && peek() != '\n')
          ++Pos;
        continue;
      }
      break;
    }
  }

  static bool isSymbolChar(char C) {
    if (std::isalnum(static_cast<unsigned char>(C)))
      return true;
    // SMT-LIB simple-symbol characters (':' admits keywords like :status).
    return std::string("~!@$%^&*_-+=<>.?/:").find(C) != std::string::npos;
  }

  SExpr parseOne() {
    skipTrivia();
    if (atEnd()) {
      fail("unexpected end of input");
      return SExpr{};
    }
    char C = peek();
    if (C == '(') {
      if (Depth == MaxSExprNesting) {
        fail("nesting too deep (limit " + std::to_string(MaxSExprNesting) +
             ")");
        return SExpr{};
      }
      ++Pos;
      ++Depth;
      SExpr L;
      L.K = SExpr::Kind::List;
      skipTrivia();
      while (!atEnd() && peek() != ')') {
        L.Kids.push_back(parseOne());
        if (Failed)
          return L;
        skipTrivia();
      }
      --Depth;
      if (atEnd()) {
        fail("expected ')'");
        return L;
      }
      ++Pos; // ')'
      return L;
    }
    if (C == ')') {
      fail("unexpected ')'");
      return SExpr{};
    }
    if (C == '"')
      return parseString();
    if (C == '|')
      return parseQuotedSymbol();
    return parseAtom();
  }

  SExpr parseString() {
    ++Pos; // opening quote
    SExpr S;
    S.K = SExpr::Kind::String;
    while (!atEnd()) {
      char C = In[Pos++];
      if (C == '"') {
        // SMT-LIB escapes a quote by doubling it.
        if (!atEnd() && peek() == '"') {
          S.Text.push_back('"');
          ++Pos;
          continue;
        }
        return S;
      }
      S.Text.push_back(C);
    }
    fail("unterminated string literal");
    return S;
  }

  SExpr parseQuotedSymbol() {
    ++Pos; // opening '|'
    SExpr S;
    S.K = SExpr::Kind::Symbol;
    while (!atEnd()) {
      char C = In[Pos++];
      if (C == '|')
        return S;
      S.Text.push_back(C);
    }
    fail("unterminated quoted symbol");
    return S;
  }

  SExpr parseAtom() {
    size_t Start = Pos;
    while (!atEnd() && isSymbolChar(peek()))
      ++Pos;
    if (Pos == Start) {
      fail("unexpected character");
      ++Pos;
      return SExpr{};
    }
    std::string Text = In.substr(Start, Pos - Start);
    // Numerals (with optional leading '-').
    bool Numeric = !Text.empty();
    size_t DigitsFrom = Text[0] == '-' && Text.size() > 1 ? 1 : 0;
    for (size_t I = DigitsFrom; I != Text.size(); ++I)
      if (!std::isdigit(static_cast<unsigned char>(Text[I]))) {
        Numeric = false;
        break;
      }
    if (Text == "-")
      Numeric = false;
    SExpr A;
    if (Numeric) {
      A.K = SExpr::Kind::Number;
      auto [End, Ec] =
          std::from_chars(Text.data(), Text.data() + Text.size(), A.Number);
      if (Ec != std::errc() || End != Text.data() + Text.size()) {
        fail("numeral out of range: " + Text);
        return SExpr{};
      }
      A.Text = std::move(Text);
    } else {
      A.K = SExpr::Kind::Symbol;
      A.Text = std::move(Text);
    }
    return A;
  }
};

} // namespace

SExprParseResult sbd::parseSExprs(const std::string &Input) {
  Reader R(Input);
  return R.run();
}
