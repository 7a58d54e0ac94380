//===- tests/BaselinesTest.cpp - Classical baseline solver tests -------------===//

#include "baselines/AntimirovSolver.h"
#include "baselines/BrzozowskiMintermSolver.h"

#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class BaselinesTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Reference{E};
  BrzozowskiMintermSolver Brz{E};
  analysis::RegexAnalyzer Analyzer{M};
  AntimirovSolver Anti{M, Analyzer};

  Re re(const std::string &Pat) { return parseRegexOrDie(M, Pat); }
};

TEST_F(BaselinesTest, LinearFormBasics) {
  std::vector<LinearArc> Arcs;
  ASSERT_TRUE(linearForm(M, re("ab"), Arcs));
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(Arcs[0].Guard, CharSet::singleton('a'));
  EXPECT_EQ(Arcs[0].Target, re("b"));

  Arcs.clear();
  ASSERT_TRUE(linearForm(M, re("a*b"), Arcs));
  EXPECT_EQ(Arcs.size(), 2u); // a → a*b, b → ε

  Arcs.clear();
  ASSERT_TRUE(linearForm(M, re("(a|b)c"), Arcs));
  // The union of predicates merges to one class: [ab] → c.
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(Arcs[0].Target, re("c"));

  Arcs.clear();
  EXPECT_FALSE(linearForm(M, re("~(ab)"), Arcs));
}

TEST_F(BaselinesTest, LinearFormIntersectionProduct) {
  std::vector<LinearArc> Arcs;
  ASSERT_TRUE(linearForm(M, re("(.*a.*)&(.*b.*)"), Arcs));
  // Pairwise products with satisfiable guards and nonempty targets only.
  for (const LinearArc &Arc : Arcs) {
    EXPECT_FALSE(Arc.Guard.isEmpty());
    EXPECT_NE(Arc.Target, M.empty());
  }
}

TEST_F(BaselinesTest, PartialDerivativeNfaAcceptance) {
  Rng Rand(23);
  const char *Patterns[] = {"(a|b)*abb", "a(b|c)*d?", "a{2,4}b{0,2}",
                            "\\d+[a-f]*", "(ab)*|(ba)*",
                            "(.*a.*)&(.*b.*)"};
  static const uint32_t Alphabet[] = {'a', 'b', 'c', 'd', '5', 'f'};
  TrManager T2(M);
  DerivativeEngine E2(M, T2);
  for (const char *P : Patterns) {
    Re R = re(P);
    auto A = buildPartialDerivativeNfa(M, R);
    ASSERT_TRUE(A.has_value()) << P;
    for (int I = 0; I != 60; ++I) {
      std::vector<uint32_t> W;
      size_t Len = Rand.below(7);
      for (size_t J = 0; J != Len; ++J)
        W.push_back(Alphabet[Rand.below(std::size(Alphabet))]);
      EXPECT_EQ(A->accepts(W), E2.matches(R, W)) << P;
    }
  }
}

TEST_F(BaselinesTest, PartialDerivativeNfaIsCompact) {
  // Antimirov: for plain RE, at most ♯(R)+1 partial derivatives.
  const char *Patterns[] = {"(a|b)*abb", "a(b|c)*d?", "abcdef",
                            "(ab|cd)*(e|f)"};
  for (const char *P : Patterns) {
    Re R = re(P);
    auto Pd = buildPartialDerivativeNfa(M, R);
    ASSERT_TRUE(Pd.has_value());
    EXPECT_LE(Pd->numStates(), size_t(M.node(R).NumPreds) + 1) << P;
  }
}

TEST_F(BaselinesTest, PartialDerivativeNfaRejectsComplement) {
  EXPECT_FALSE(buildPartialDerivativeNfa(M, re("~(ab)")).has_value());
  auto Budget = buildPartialDerivativeNfa(M, re("(a|b){0,40}c"), 3);
  EXPECT_FALSE(Budget.has_value()); // state budget
}

TEST_F(BaselinesTest, AntimirovAgreesOnPositiveFragment) {
  const char *Patterns[] = {
      "abc", "a+&b+", "(ab)+&(ba)+", "(.*a.*)&(.*b.*)", "a{2,4}&a{5,6}",
      "(aa)+&a(aa)*",  "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)",
      "(.*a.{3})&(.*b.{3})",
  };
  for (const char *P : Patterns) {
    Re R = re(P);
    SolveResult Ref = Reference.checkSat(R);
    SolveResult Got = Anti.solve(R);
    ASSERT_NE(Got.Status, SolveStatus::Unknown) << P;
    EXPECT_EQ(Got.Status, Ref.Status) << P;
    if (Got.isSat()) {
      EXPECT_TRUE(E.matches(R, Got.Witness)) << P;
    }
  }
}

TEST_F(BaselinesTest, AntimirovRejectsComplement) {
  EXPECT_EQ(Anti.solve(re("~(ab)")).Status, SolveStatus::Unsupported);
  EXPECT_EQ(Anti.solve(re("a&~(b)")).Status, SolveStatus::Unsupported);
  // ...even when the complement is buried.
  EXPECT_EQ(Anti.solve(re("x(y|~(z))*")).Status, SolveStatus::Unsupported);
}

TEST_F(BaselinesTest, BrzozowskiMintermHandlesFullEre) {
  const char *Patterns[] = {
      "abc",      "a+&b+",      "~(ab)",       "~(.*)",
      "(.*\\d.*)&~(.*01.*)",    "(ab)+&(ba)+", "~(a*)&a{0,3}",
  };
  for (const char *P : Patterns) {
    Re R = re(P);
    SolveResult Ref = Reference.checkSat(R);
    SolveResult Got = Brz.solve(R);
    ASSERT_NE(Got.Status, SolveStatus::Unknown) << P;
    EXPECT_EQ(Got.Status, Ref.Status) << P;
    if (Got.isSat()) {
      EXPECT_TRUE(E.matches(R, Got.Witness)) << P;
    }
  }
}

TEST_F(BaselinesTest, BudgetsReportUnknown) {
  SolveOptions Opts;
  Opts.MaxStates = 3;
  EXPECT_EQ(Brz.solve(re("a{50}"), Opts).Status, SolveStatus::Unknown);
  EXPECT_EQ(Anti.solve(re("a{50}"), Opts).Status, SolveStatus::Unknown);
}

/// Cross-solver agreement on random positive regex pairs — four independent
/// implementations must agree on sat/unsat.
class CrossSolverTest : public ::testing::TestWithParam<uint64_t> {};

Re randomPositive(RegexManager &M, Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.below(4)) {
    case 0:
      return M.chr(static_cast<uint32_t>('a' + R.below(2)));
    case 1:
      return M.pred(CharSet::digit());
    case 2:
      return M.epsilon();
    default:
      return M.anyChar();
    }
  }
  switch (R.below(6)) {
  case 0:
  case 1:
    return M.concat(randomPositive(M, R, Depth - 1),
                    randomPositive(M, R, Depth - 1));
  case 2:
    return M.union_(randomPositive(M, R, Depth - 1),
                    randomPositive(M, R, Depth - 1));
  case 3:
    return M.star(randomPositive(M, R, Depth - 1));
  case 4: {
    uint32_t Min = static_cast<uint32_t>(R.below(3));
    return M.loop(randomPositive(M, R, Depth - 1), Min,
                  Min + 1 + static_cast<uint32_t>(R.below(2)));
  }
  default:
    return randomPositive(M, R, 0);
  }
}

TEST_P(CrossSolverTest, FourSolversAgreeOnIntersections) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver Reference(E);
  BrzozowskiMintermSolver Brz(E);
  analysis::RegexAnalyzer Analyzer(M);
  AntimirovSolver Anti(M, Analyzer);

  Rng Rand(GetParam());
  for (int I = 0; I != 6; ++I) {
    Re A = randomPositive(M, Rand, 3);
    Re B = randomPositive(M, Rand, 3);
    Re R = M.inter(A, B);
    SolveOptions Opts;
    Opts.MaxStates = 50000;
    SolveResult Ref = Reference.checkSat(R, Opts);
    if (Ref.Status == SolveStatus::Unknown)
      continue;
    SolveResult GotB = Brz.solve(R, Opts);
    SolveResult GotA = Anti.solve(R, Opts);
    if (GotB.Status != SolveStatus::Unknown) {
      EXPECT_EQ(GotB.Status, Ref.Status) << M.toString(R);
    }
    if (GotA.Status != SolveStatus::Unknown) {
      EXPECT_EQ(GotA.Status, Ref.Status) << M.toString(R);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CrossSolverTest,
                         ::testing::Range<uint64_t>(1, 21));

} // namespace
