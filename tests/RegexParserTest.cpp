//===- tests/RegexParserTest.cpp - Regex surface-syntax tests --------------===//

#include "re/RegexParser.h"

#include "core/Derivatives.h"
#include "solver/RegexSolver.h"

#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class ParserTest : public ::testing::Test {
protected:
  RegexManager M;

  Re parse(const std::string &S) { return parseRegexOrDie(M, S); }

  void expectError(const std::string &S) {
    RegexParseResult R = parseRegex(M, S);
    EXPECT_FALSE(R.Ok) << "expected a parse error for: " << S;
  }
};

TEST_F(ParserTest, Literals) {
  EXPECT_EQ(parse("a"), M.chr('a'));
  EXPECT_EQ(parse("abc"), M.literal("abc"));
  EXPECT_EQ(parse("."), M.anyChar());
  EXPECT_EQ(parse("()"), M.epsilon());
  EXPECT_EQ(parse("[]"), M.empty());
}

TEST_F(ParserTest, EscapesAndClasses) {
  EXPECT_EQ(parse("\\d"), M.pred(CharSet::digit()));
  EXPECT_EQ(parse("\\w"), M.pred(CharSet::word()));
  EXPECT_EQ(parse("\\s"), M.pred(CharSet::space()));
  EXPECT_EQ(parse("\\D"), M.pred(CharSet::digit().complement()));
  EXPECT_EQ(parse("\\."), M.chr('.'));
  EXPECT_EQ(parse("\\*"), M.chr('*'));
  EXPECT_EQ(parse("\\n"), M.chr('\n'));
  EXPECT_EQ(parse("\\x41"), M.chr('A'));
  EXPECT_EQ(parse("\\u0041"), M.chr('A'));
  EXPECT_EQ(parse("\\U{1F600}"), M.chr(0x1F600));

  EXPECT_EQ(parse("[a-z]"), M.pred(CharSet::range('a', 'z')));
  EXPECT_EQ(parse("[a-zA-Z]"), M.pred(CharSet::asciiLetter()));
  EXPECT_EQ(parse("[abc]"),
            M.pred(CharSet::fromRanges({{'a', 'c'}})));
  EXPECT_EQ(parse("[^a-z]"),
            M.pred(CharSet::range('a', 'z').complement()));
  EXPECT_EQ(parse("[\\d_]"),
            M.pred(CharSet::digit().unionWith(CharSet::singleton('_'))));
  EXPECT_EQ(parse("[^]"), M.anyChar());
  // '-' at the edges is literal.
  EXPECT_EQ(parse("[-a]"),
            M.pred(CharSet::singleton('-').unionWith(CharSet::singleton('a'))));
  EXPECT_EQ(parse("[a-]"),
            M.pred(CharSet::singleton('-').unionWith(CharSet::singleton('a'))));
}

TEST_F(ParserTest, Operators) {
  Re A = M.chr('a'), B = M.chr('b');
  EXPECT_EQ(parse("a|b"), M.union_(A, B));
  EXPECT_EQ(parse("a&b"), M.inter(A, B));
  EXPECT_EQ(parse("ab"), M.concat(A, B));
  EXPECT_EQ(parse("a*"), M.star(A));
  EXPECT_EQ(parse("a+"), M.plus(A));
  EXPECT_EQ(parse("a?"), M.opt(A));
  EXPECT_EQ(parse("~a"), M.complement(A));
  EXPECT_EQ(parse("~~a"), A);
  EXPECT_EQ(parse(".*"), M.top());
}

TEST_F(ParserTest, Loops) {
  Re A = M.chr('a');
  EXPECT_EQ(parse("a{3}"), M.loop(A, 3, 3));
  EXPECT_EQ(parse("a{2,5}"), M.loop(A, 2, 5));
  EXPECT_EQ(parse("a{2,}"), M.loop(A, 2, LoopInf));
  EXPECT_EQ(parse("a{0,1}"), M.opt(A));
}

TEST_F(ParserTest, Precedence) {
  Re A = M.chr('a'), B = M.chr('b'), C = M.chr('c');
  // Concat binds tighter than & binds tighter than |.
  EXPECT_EQ(parse("ab|c"), M.union_(M.concat(A, B), C));
  EXPECT_EQ(parse("a|b&c"), M.union_(A, M.inter(B, C)));
  EXPECT_EQ(parse("(a|b)c"), M.concat(M.union_(A, B), C));
  // Postfix binds tighter than ~; ~ binds tighter than concat.
  EXPECT_EQ(parse("~a*"), M.complement(M.star(A)));
  EXPECT_EQ(parse("(~a)*"), M.star(M.complement(A)));
  EXPECT_EQ(parse("~ab"), M.concat(M.complement(A), B));
  EXPECT_EQ(parse("~(ab)"), M.complement(M.concat(A, B)));
}

TEST_F(ParserTest, PaperExamples) {
  // The running example of Section 2.
  Re R1 = parse(".*\\d.*");
  Re R2 = parse("~(.*01.*)");
  EXPECT_EQ(R2, M.complement(parse(".*01.*")));
  Re R = M.inter(R1, R2);
  EXPECT_FALSE(M.nullable(R1));
  EXPECT_TRUE(M.nullable(R2));
  EXPECT_FALSE(M.nullable(R));

  // The date format of Fig. 1.
  Re Date = parse("\\d{4}-[a-zA-Z]{3}-\\d{2}");
  EXPECT_FALSE(M.nullable(Date));
  EXPECT_TRUE(M.isPlainRe(Date));

  // The blowup family.
  Re Blow = parse("(.*a.{100})&(.*b.{100})");
  EXPECT_TRUE(M.isBooleanOverRe(Blow));
  EXPECT_FALSE(M.isPlainRe(Blow));
}

TEST_F(ParserTest, Errors) {
  expectError("");
  expectError("a|");
  expectError("(a");
  expectError("a)");
  expectError("*a");
  expectError("a{2");
  expectError("a{5,2}");
  expectError("[a");
  expectError("a\\");
  expectError("~");
  expectError("a**b)");
}

TEST_F(ParserTest, NestingCap) {
  auto Parens = [](size_t Depth) {
    return std::string(Depth, '(') + "a" + std::string(Depth, ')');
  };
  auto Chain = [](size_t Depth) { // a(a(a...)): one concat per level
    std::string Out;
    for (size_t I = 0; I != Depth; ++I)
      Out += "(a";
    return Out + std::string(Depth, ')');
  };
  // Exactly at the cap both shapes parse, and the solver, which recurses
  // over the parsed term, still answers.
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver S(E);
  for (const std::string &P : {Parens(MaxRegexNesting), Chain(MaxRegexNesting),
                               std::string(MaxRegexNesting, '~') + "a"}) {
    RegexParseResult R = parseRegex(M, P);
    ASSERT_TRUE(R.Ok) << R.Error;
    EXPECT_TRUE(S.checkSat(R.Value).isSat());
  }
  // One level deeper, including the 20,000-deep input that used to
  // overflow the stack, is a parse error.
  for (const std::string &P :
       {Parens(MaxRegexNesting + 1), Chain(MaxRegexNesting + 1),
        std::string(MaxRegexNesting + 1, '~') + "a", Parens(20000)}) {
    RegexParseResult R = parseRegex(M, P);
    EXPECT_FALSE(R.Ok);
    EXPECT_NE(R.Error.find("nesting too deep"), std::string::npos) << R.Error;
  }
}

TEST_F(ParserTest, RoundTripFixedCorpus) {
  const char *Patterns[] = {
      "abc",
      "a|b|c",
      "a&b&c",
      "(a|b)*",
      "~(ab)",
      ".*\\d.*",
      "\\d{4}-[a-zA-Z]{3}-\\d{2}",
      "(.*a.{5})&(.*b.{5})",
      "~(.*01.*)&.*\\d.*",
      "[a-f0-9]+",
      "(ab|cd){2,7}",
      "a{3,}",
      "~a*",
      "x(y|())z",
  };
  for (const char *P : Patterns) {
    Re First = parse(P);
    std::string Printed = M.toString(First);
    Re Second = parse(Printed);
    EXPECT_EQ(First, Second) << "round trip failed for \"" << P
                             << "\" printed as \"" << Printed << "\"";
  }
}

// Character-class rendering round-trips through the parser for arbitrary
// sets — the property that makes RegexManager::toString a faithful printer.
class ClassRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ClassRoundTripTest, CharSetStrParsesBack) {
  RegexManager M;
  Rng R(GetParam());
  for (int I = 0; I != 40; ++I) {
    std::vector<CharRange> Rs;
    size_t N = R.below(6);
    for (size_t J = 0; J != N; ++J) {
      uint32_t Lo = static_cast<uint32_t>(R.below(MaxCodePoint));
      uint32_t Hi = std::min<uint32_t>(
          Lo + static_cast<uint32_t>(R.below(300)), MaxCodePoint);
      Rs.push_back({Lo, Hi});
    }
    CharSet S = CharSet::fromRanges(std::move(Rs));
    Re Direct = M.pred(S);
    RegexParseResult Parsed = parseRegex(M, S.str());
    ASSERT_TRUE(Parsed.Ok) << "failed to parse rendered class: " << S.str();
    EXPECT_EQ(Parsed.Value, Direct) << S.str();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ClassRoundTripTest,
                         ::testing::Range<uint64_t>(1, 16));

// Round-trip property over random regexes: print then reparse is identity.
class ParserRoundTripTest : public ::testing::TestWithParam<uint64_t> {};

Re randomRegex(RegexManager &M, Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.below(5)) {
    case 0:
      return M.chr(static_cast<uint32_t>('a' + R.below(26)));
    case 1:
      return M.pred(CharSet::digit());
    case 2:
      return M.pred(CharSet::range('a', 'f'));
    case 3:
      return M.epsilon();
    default:
      return M.anyChar();
    }
  }
  switch (R.below(7)) {
  case 0:
    return M.concat(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 1:
    return M.union_(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 2:
    return M.inter(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 3:
    return M.star(randomRegex(M, R, Depth - 1));
  case 4:
    return M.complement(randomRegex(M, R, Depth - 1));
  case 5: {
    uint32_t Min = static_cast<uint32_t>(R.below(4));
    uint32_t Max = Min + 1 + static_cast<uint32_t>(R.below(4));
    return M.loop(randomRegex(M, R, Depth - 1), Min, Max);
  }
  default:
    return randomRegex(M, R, 0);
  }
}

TEST_P(ParserRoundTripTest, PrintParseIdentity) {
  RegexManager M;
  Rng R(GetParam());
  for (int I = 0; I != 20; ++I) {
    Re Term = randomRegex(M, R, 4);
    std::string Printed = M.toString(Term);
    RegexParseResult Parsed = parseRegex(M, Printed);
    ASSERT_TRUE(Parsed.Ok) << "failed to reparse \"" << Printed << "\": "
                           << Parsed.Error;
    EXPECT_EQ(Parsed.Value, Term) << "round trip changed \"" << Printed
                                  << "\" into \""
                                  << M.toString(Parsed.Value) << "\"";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ParserRoundTripTest,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
