//===- tests/SmtTest.cpp - SMT-LIB front end tests ---------------------------===//

#include "smt/SmtSolver.h"

#include "cache/VerdictCache.h"
#include "core/Derivatives.h"
#include "re/RegexParser.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class SmtTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  SmtResult run(const std::string &Script) {
    return Smt.solveScript(Script);
  }

  /// Looks up a model value.
  std::string modelValue(const SmtResult &R, const std::string &Var) {
    for (const auto &[V, Value] : R.Model)
      if (V == Var)
        return Value;
    ADD_FAILURE() << "no model value for " << Var;
    return "";
  }
};

TEST(SExprTest, ReaderBasics) {
  auto R = parseSExprs("(assert (= x \"a b\")) ; comment\n(check-sat)");
  ASSERT_TRUE(R.Ok);
  ASSERT_EQ(R.Forms.size(), 2u);
  EXPECT_TRUE(R.Forms[0].Kids[0].isSymbol("assert"));
  EXPECT_EQ(R.Forms[0].Kids[1].Kids[2].Text, "a b");
  EXPECT_TRUE(R.Forms[1].Kids[0].isSymbol("check-sat"));
}

TEST(SExprTest, NumbersStringsKeywords) {
  auto R = parseSExprs("(foo -42 17 :status |quoted sym| \"q\"\"q\")");
  ASSERT_TRUE(R.Ok);
  const SExpr &F = R.Forms[0];
  EXPECT_EQ(F.Kids[1].Number, -42);
  EXPECT_EQ(F.Kids[2].Number, 17);
  EXPECT_TRUE(F.Kids[3].isSymbol(":status"));
  EXPECT_EQ(F.Kids[4].Text, "quoted sym");
  EXPECT_EQ(F.Kids[5].Text, "q\"q"); // doubled-quote escape
}

TEST(SExprTest, Errors) {
  EXPECT_FALSE(parseSExprs("(unclosed").Ok);
  EXPECT_FALSE(parseSExprs("\"unterminated").Ok);
  EXPECT_FALSE(parseSExprs(")").Ok);
}

TEST(SExprTest, NumeralsOutsideInt64AreParseErrors) {
  auto Min = parseSExprs("(x -9223372036854775808 9223372036854775807)");
  ASSERT_TRUE(Min.Ok);
  EXPECT_EQ(Min.Forms[0].Kids[1].Number, INT64_MIN);
  EXPECT_EQ(Min.Forms[0].Kids[2].Number, INT64_MAX);
  for (const char *Text : {"(push 12345678901234567890)",
                           "(x 9223372036854775808)",
                           "(x -9223372036854775809)"}) {
    auto R = parseSExprs(Text);
    EXPECT_FALSE(R.Ok) << Text;
    EXPECT_EQ(R.Error.rfind("numeral out of range", 0), 0u) << R.Error;
  }
}

TEST_F(SmtTest, SimpleMembershipSat) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ (str.to_re "ab") (re.* (re.range "c" "d")))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::string V = modelValue(R, "s");
  Re Pattern = parseRegexOrDie(M, "ab[c-d]*");
  EXPECT_TRUE(E.matches(Pattern, V));
}

TEST_F(SmtTest, ConjunctionBecomesIntersection) {
  // in(s, .*a.*) ∧ in(s, .*b.*) ∧ ¬in(s, .*c.*)
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ re.all (str.to_re "a") re.all)))
    (assert (str.in_re s (re.++ re.all (str.to_re "b") re.all)))
    (assert (not (str.in_re s (re.++ re.all (str.to_re "c") re.all))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::string V = modelValue(R, "s");
  EXPECT_NE(V.find('a'), std::string::npos);
  EXPECT_NE(V.find('b'), std::string::npos);
  EXPECT_EQ(V.find('c'), std::string::npos);
}

TEST_F(SmtTest, UnsatConjunction) {
  SmtResult R = run(R"(
    (set-info :status unsat)
    (declare-const s String)
    (assert (str.in_re s (re.+ (str.to_re "a"))))
    (assert (str.in_re s (re.+ (str.to_re "b"))))
    (check-sat))");
  EXPECT_EQ(R.Status, SolveStatus::Unsat);
  ASSERT_TRUE(R.ExpectedSat.has_value());
  EXPECT_FALSE(*R.ExpectedSat);
}

TEST_F(SmtTest, DisjunctionEnumeratesImplicants) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (or (str.in_re s (str.to_re "no"))
                (str.in_re s (str.to_re "yes"))))
    (assert (not (str.in_re s (str.to_re "no"))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "yes");
}

TEST_F(SmtTest, ImplicationAndEquality) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (=> (str.in_re s (re.* (re.range "a" "z"))) (= s "ok")))
    (assert (str.in_re s (re.+ (re.range "a" "z"))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "ok");
}

TEST_F(SmtTest, LengthConstraintsCompileToLoops) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "ab"))))
    (assert (>= (str.len s) 3))
    (assert (<= (str.len s) 5))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "abab");

  SmtResult U = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "ab"))))
    (assert (= (str.len s) 3))
    (check-sat))");
  EXPECT_EQ(U.Status, SolveStatus::Unsat);
}

TEST_F(SmtTest, ReversedLengthComparison) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (< 2 (str.len s)))
    (assert (str.in_re s (re.* (str.to_re "x"))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_GE(modelValue(R, "s").size(), 3u);
}

TEST_F(SmtTest, MultipleVariablesAreIndependent) {
  SmtResult R = run(R"(
    (declare-const a String)
    (declare-const b String)
    (assert (str.in_re a (str.to_re "left")))
    (assert (str.in_re b (str.to_re "right")))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "a"), "left");
  EXPECT_EQ(modelValue(R, "b"), "right");
}

TEST_F(SmtTest, CrossVariableDisjunction) {
  // (in(a, X) ∧ in(b, Y)) ∨ (in(a, Y) ∧ in(b, X)) with X empty forces the
  // branch where a gets Y.
  SmtResult R = run(R"(
    (declare-const a String)
    (declare-const b String)
    (assert (or (and (str.in_re a re.none) (str.in_re b (str.to_re "y")))
                (and (str.in_re a (str.to_re "q")) (str.in_re b (str.to_re "x")))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "a"), "q");
  EXPECT_EQ(modelValue(R, "b"), "x");
}

TEST_F(SmtTest, StringPredicates) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.prefixof "ab" s))
    (assert (str.suffixof "yz" s))
    (assert (str.contains s "mid"))
    (assert (= (str.len s) 9))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::string V = modelValue(R, "s");
  EXPECT_EQ(V.substr(0, 2), "ab");
  EXPECT_EQ(V.substr(7), "yz");
  EXPECT_NE(V.find("mid"), std::string::npos);
}

TEST_F(SmtTest, ReCompAndDiff) {
  SmtResult R = run(R"(
    (set-info :status sat)
    (declare-const s String)
    (assert (str.in_re s (re.diff (re.+ (re.range "0" "9"))
                                  (re.++ (str.to_re "0") re.all))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::string V = modelValue(R, "s");
  ASSERT_FALSE(V.empty());
  EXPECT_NE(V[0], '0');

  SmtResult U = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.comp re.all)))
    (check-sat))");
  EXPECT_EQ(U.Status, SolveStatus::Unsat);
}

TEST_F(SmtTest, IndexedAndLegacyLoops) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s ((_ re.loop 2 3) (str.to_re "ab"))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "abab");

  SmtResult L = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.loop (str.to_re "ab") 2 3)))
    (check-sat))");
  ASSERT_EQ(L.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(L, "s"), "abab");
}

/// Script integers are int64; loop bounds, lengths and indices are
/// uint32_t with LoopInf = 4294967295 meaning "unbounded". A value that
/// does not fit is Unsupported, never wrapped into a different constraint.
TEST_F(SmtTest, OutOfRangeIntegersAreUnsupportedNotWrapped) {
  const char *Asserts[] = {
      // 4294967297 wraps to 1: "a" would be reported as a model.
      R"((assert (str.in_re s ((_ re.loop 4294967297 4294967297)
                                (str.to_re "a"))))
         (assert (<= (str.len s) 10)))",
      R"((assert (str.in_re s (re.loop (str.to_re "a") 4294967297 4294967297)))
         (assert (<= (str.len s) 10)))",
      // 4294967295 is LoopInf: the complement of a* intersected with a*.
      R"((assert (str.in_re s (re.inter
                   (re.comp ((_ re.loop 0 4294967295) (str.to_re "a")))
                   (re.* (str.to_re "a"))))))",
      // 4294967296 wraps to 0.
      R"((assert (str.in_re s (re.++ re.all (str.to_re "a") re.all)))
         (assert (<= (str.len s) 4294967296)))",
      R"((assert (= (str.len s) 4294967296)))",
      R"((assert (>= (str.len s) 4294967295)))",
      // K + 1 is LoopInf, and K + 1 overflows int64.
      R"((assert (> (str.len s) 4294967294)))",
      R"((assert (> (str.len s) 9223372036854775807)))",
      R"((assert (= (str.at s 4294967296) "b")))",
      R"((assert (= (str.to_code (str.at s 4294967296)) 98)))",
  };
  for (const char *A : Asserts) {
    SmtResult R = run(std::string("(declare-const s String)\n") + A +
                      "\n(check-sat)");
    EXPECT_EQ(R.Status, SolveStatus::Unsupported) << A;
    EXPECT_NE(R.Note.find("out of range"), std::string::npos)
        << A << ": " << R.Note;
    EXPECT_TRUE(R.Model.empty()) << A;
  }
  // The largest bound below LoopInf still compiles.
  SmtResult Edge = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ re.all (str.to_re "a") re.all)))
    (assert (< (str.len s) 4294967295))
    (check-sat))");
  ASSERT_EQ(Edge.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(Edge, "s"), "a");
}

TEST_F(SmtTest, PushPastTheDepthCapIsUnsupported) {
  SmtResult R = run(R"(
    (declare-const s String)
    (push 1000000000000)
    (check-sat))");
  EXPECT_EQ(R.Status, SolveStatus::Unsupported);
  EXPECT_NE(R.Note.find("push depth over limit"), std::string::npos)
      << R.Note;
}

TEST_F(SmtTest, Fig1DatePolicyScript) {
  const char *Script = R"(
    (set-info :status sat)
    (declare-const date String)
    (assert (str.in_re date
      (re.++ ((_ re.loop 4 4) (re.range "0" "9"))
             (str.to_re "-")
             ((_ re.loop 3 3) (re.union (re.range "a" "z") (re.range "A" "Z")))
             (str.to_re "-")
             ((_ re.loop 2 2) (re.range "0" "9")))))
    (assert (or (str.in_re date (re.++ (str.to_re "2019") re.all))
                (str.in_re date (re.++ (str.to_re "2020") re.all))))
    (check-sat))";
  SmtResult R = run(Script);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  Re Shape = parseRegexOrDie(M, "\\d{4}-[a-zA-Z]{3}-\\d{2}");
  EXPECT_TRUE(E.matches(Shape, modelValue(R, "date")));
  std::string Y = modelValue(R, "date").substr(0, 4);
  EXPECT_TRUE(Y == "2019" || Y == "2020");
}

TEST_F(SmtTest, StrAtPositionConstraints) {
  // The Section 2 coda: a side constraint on s0 interacts with the regex.
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ re.all (re.range "0" "9") re.all)))
    (assert (not (str.in_re s (re.++ re.all (str.to_re "01") re.all))))
    (assert (not (= (str.at s 0) "0")))
    (assert (not (= (str.at s 0) "")))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::string V = modelValue(R, "s");
  ASSERT_FALSE(V.empty());
  EXPECT_NE(V[0], '0');

  // Pinning a character that conflicts with the regex.
  SmtResult U = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ (str.to_re "ab") re.all)))
    (assert (= (str.at s 1) "c"))
    (check-sat))");
  EXPECT_EQ(U.Status, SolveStatus::Unsat);

  // (= (str.at s k) "") forces shortness.
  SmtResult Short = run(R"(
    (declare-const s String)
    (assert (= (str.at s 2) ""))
    (assert (>= (str.len s) 2))
    (check-sat))");
  ASSERT_EQ(Short.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(Short, "s").size(), 2u);
}

TEST_F(SmtTest, CharacterCodeSideConstraints) {
  // The paper's Section 2 coda, verbatim shape: the password constraint
  // with the side condition s0 > '0' blocks the s0 = 0 branch.
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ re.all (re.range "0" "9") re.all)))
    (assert (not (str.in_re s (re.++ re.all (str.to_re "01") re.all))))
    (assert (> (str.to_code (str.at s 0)) 48))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  std::string V = modelValue(R, "s");
  ASSERT_FALSE(V.empty());
  EXPECT_GT(static_cast<unsigned char>(V[0]), '0');

  // An impossible code pins the constraint to unsat.
  SmtResult U = run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "abc")))
    (assert (= (str.to_code (str.at s 1)) 99))
    (check-sat))"); // position 1 is 'b' (98), not 99
  EXPECT_EQ(U.Status, SolveStatus::Unsat);

  // str.to_code = -1 encodes "out of range": |s| <= k.
  SmtResult Short = run(R"(
    (declare-const s String)
    (assert (= (str.to_code (str.at s 3)) -1))
    (assert (str.in_re s (re.+ (str.to_re "x"))))
    (check-sat))");
  ASSERT_EQ(Short.Status, SolveStatus::Sat);
  EXPECT_LE(modelValue(Short, "s").size(), 3u);

  // Reversed argument order flips the comparison.
  SmtResult Flip = run(R"(
    (declare-const s String)
    (assert (<= 97 (str.to_code (str.at s 0))))
    (assert (= (str.len s) 1))
    (check-sat))");
  ASSERT_EQ(Flip.Status, SolveStatus::Sat);
  EXPECT_GE(static_cast<unsigned char>(modelValue(Flip, "s")[0]), 'a');
}

TEST_F(SmtTest, DistinctXorIte) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (distinct s "no"))
    (assert (str.in_re s (re.union (str.to_re "no") (str.to_re "yes"))))
    (check-sat))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "yes");

  SmtResult X = run(R"(
    (declare-const s String)
    (assert (xor (= s "a") (= s "b")))
    (assert (distinct s "a"))
    (check-sat))");
  ASSERT_EQ(X.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(X, "s"), "b");

  SmtResult I = run(R"(
    (declare-const s String)
    (assert (ite (= (str.len s) 0) false (= s "pick")))
    (check-sat))");
  ASSERT_EQ(I.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(I, "s"), "pick");

  SmtResult U = run(R"(
    (declare-const s String)
    (assert (xor (= s "a") (= s "a")))
    (check-sat))");
  EXPECT_EQ(U.Status, SolveStatus::Unsat);
}

TEST_F(SmtTest, UnsupportedConstructsReportCleanly) {
  EXPECT_EQ(run("(declare-const s Int)(assert true)(check-sat)").Status,
            SolveStatus::Sat); // Int declared but unused is fine
  EXPECT_EQ(run("(declare-const s String)(assert (str.in_re s unknown.op))"
                "(check-sat)")
                .Status,
            SolveStatus::Unsupported);
  // push/pop are supported now (incremental scripts); empty stack → Sat.
  EXPECT_EQ(run("(push)(pop)(check-sat)").Status, SolveStatus::Sat);
  EXPECT_EQ(run("(pop)(check-sat)").Status,
            SolveStatus::Unsupported); // pop without matching push
  EXPECT_EQ(run("(assert (= 1 2)").Status, SolveStatus::Unsupported);
}

TEST_F(SmtTest, DeepDisjunctionEnumeration) {
  // An or-tree where only the last branch is realizable; over one
  // variable the whole tree folds into one regex.
  std::string Script = "(declare-const s String)\n(assert (or";
  for (int I = 0; I != 12; ++I)
    Script += " (and (str.in_re s (str.to_re \"x" + std::to_string(I) +
              "\")) (str.in_re s re.none))";
  Script += " (str.in_re s (str.to_re \"hit\"))))\n(check-sat)";
  SmtResult R = run(Script);
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "hit");

  // All-dead variant is unsat.
  std::string Bad = "(declare-const s String)\n(assert (or";
  for (int I = 0; I != 12; ++I)
    Bad += " (and (str.in_re s (str.to_re \"x" + std::to_string(I) +
           "\")) (str.in_re s re.none))";
  Bad += "))\n(check-sat)";
  EXPECT_EQ(run(Bad).Status, SolveStatus::Unsat);
}

/// `(ite C_{k-1} (str.in_re V (re.+ "b")) (str.in_re s "c<k-1>"))` nested
/// \p Depth deep in condition position from C_0 = (str.in_re s "a"), where
/// V is s, or t at odd levels when \p TwoVars. It asserts C_Depth (whose
/// one-variable language is {c<Depth-1>}), checks, then asserts s = "zz"
/// and checks again: sat, then unsat.
static std::string iteChainScript(int Depth, bool TwoVars) {
  std::string C = "(str.in_re s (str.to_re \"a\"))";
  for (int K = 1; K <= Depth; ++K)
    C = "(ite " + C + " (str.in_re " + (TwoVars && K % 2 ? "t" : "s") +
        " (re.+ (str.to_re \"b\"))) (str.in_re s (str.to_re \"c" +
        std::to_string(K - 1) + "\")))";
  return std::string("(declare-const s String)\n") +
         (TwoVars ? "(declare-const t String)\n" : "") + "(assert " + C +
         ")\n(check-sat)\n(assert (str.in_re s (str.to_re \"zz\")))\n"
         "(check-sat)";
}

TEST_F(SmtTest, OneVariableDisjunctionIsOneRegexQuery) {
  // in(s,A) ∨ in(s,B) is in(s, A|B): one cube, one query (Section 2).
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (or (str.in_re s (re.+ (str.to_re "a")))
                (str.in_re s (re.+ (str.to_re "b")))))
    (assert (not (str.in_re s (str.to_re "a"))))
    (check-sat)
    (get-info :statistics))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(R.CubesTried, 1u);
  EXPECT_NE(R.Statistics.find(":regex-queries 1\n"), std::string::npos)
      << R.Statistics;
  std::string V = modelValue(R, "s");
  EXPECT_TRUE(E.matches(parseRegexOrDie(M, "(a+|b+)&~(a)"), V)) << V;
}

TEST_F(SmtTest, ThirteenDisjunctionsUnderALengthBoundAreUnsat) {
  // Each assert needs one of two letters, 26 letters in all; three
  // characters cover at most three asserts. As cubes this is 2^13 branches.
  std::string Script =
      "(declare-const s String)\n(assert (<= (str.len s) 3))\n";
  for (char A = 'a'; A <= 'y'; A += 2)
    Script += std::string("(assert (or (str.in_re s (re.++ re.all (str.to_re "
                          "\"") + A + "\") re.all)) (str.in_re s (re.++ "
                          "re.all (str.to_re \"" + char(A + 1) +
              "\") re.all))))\n";
  SmtResult R = run(Script + "(check-sat)");
  EXPECT_EQ(R.Status, SolveStatus::Unsat) << R.Note;
  EXPECT_EQ(R.CubesTried, 1u);
}

TEST_F(SmtTest, NestedIteChainOnOneVariableFoldsToOneRegex) {
  // The fold shares each condition between both branches: linear in the
  // formula, while the tree of the folded term doubles per level (the
  // verdict-cache key print stops at its cap).
  SmtResult R = run(iteChainScript(30, /*TwoVars=*/false));
  ASSERT_EQ(R.Checks.size(), 2u);
  EXPECT_EQ(R.Checks[0].Status, SolveStatus::Sat);
  ASSERT_EQ(R.Checks[0].Model.size(), 1u);
  EXPECT_EQ(R.Checks[0].Model[0].second, "c29");
  EXPECT_EQ(R.Checks[1].Status, SolveStatus::Unsat) << R.Checks[1].Note;
  EXPECT_EQ(R.Checks[1].CubesTried, 1u);

  // Through a session with a verdict cache, whose key print stops at its
  // cap instead of rendering the 2^30-leaf tree.
  cache::VerdictCache Cache;
  SmtSession Session(Solver);
  Session.setVerdictCache(&Cache);
  std::vector<std::string> Replies;
  for (const SmtSession::Reply &Rep :
       Session.executeAll(iteChainScript(30, /*TwoVars=*/false)))
    Replies.push_back(Rep.Text);
  EXPECT_EQ(Replies, (std::vector<std::string>{"", "", "sat", "", "unsat"}));
}

TEST_F(SmtTest, NestedIteChainAcrossTwoVariablesPrunesEarly) {
  // Disjunctions that span s and t remain cubes; a cube's atoms on one
  // variable are solved as soon as a second one joins, so contradictions
  // prune the search long before the implicant budget.
  SmtResult R = run(iteChainScript(22, /*TwoVars=*/true));
  ASSERT_EQ(R.Checks.size(), 2u);
  EXPECT_EQ(R.Checks[0].Status, SolveStatus::Sat) << R.Checks[0].Note;
  EXPECT_EQ(R.Checks[1].Status, SolveStatus::Unsat) << R.Checks[1].Note;
}

TEST_F(SmtTest, NegativeLengthBounds) {
  EXPECT_EQ(run(R"((declare-const s String)
                   (assert (>= (str.len s) -5))(check-sat))")
                .Status,
            SolveStatus::Sat); // trivially true
  EXPECT_EQ(run(R"((declare-const s String)
                   (assert (<= (str.len s) -1))(check-sat))")
                .Status,
            SolveStatus::Unsat); // lengths are nonnegative
  EXPECT_EQ(run(R"((declare-const s String)
                   (assert (= (str.len s) -2))(check-sat))")
                .Status,
            SolveStatus::Unsat);
}

TEST_F(SmtTest, EmptyScriptIsSat) {
  SmtResult R = run("(declare-const s String)(check-sat)");
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_EQ(modelValue(R, "s"), "");
}

TEST_F(SmtTest, GetInfoStatistics) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ (str.to_re "ab") (re.* (re.range "0" "9")))))
    (assert (>= (str.len s) 3))
    (check-sat)
    (get-info :statistics))");
  ASSERT_EQ(R.Status, SolveStatus::Sat);
  ASSERT_FALSE(R.Statistics.empty());
  EXPECT_EQ(R.Statistics.front(), '(');
  EXPECT_EQ(R.Statistics.back(), ')');
  EXPECT_NE(R.Statistics.find(":cubes-tried"), std::string::npos);
  EXPECT_NE(R.Statistics.find(":regex-queries"), std::string::npos);
  EXPECT_NE(R.Statistics.find(":derivative-calls"), std::string::npos);
  EXPECT_NE(R.Statistics.find(":solve-time-us"), std::string::npos);
  // The full keyword list, in order.
  std::vector<std::string> Keys;
  for (size_t At = R.Statistics.find(':'); At != std::string::npos;
       At = R.Statistics.find(':', At + 1))
    Keys.push_back(
        R.Statistics.substr(At + 1, R.Statistics.find(' ', At) - At - 1));
  const std::vector<std::string> Expected = {
      "cubes-tried",          "checks-run",
      "regex-queries",        "derivative-calls",
      "dnf-calls",            "dnf-branches-explored",
      "dnf-branches-pruned",  "arcs-enumerated",
      "minterm-computations", "minterms-produced",
      "intern-hits",          "intern-misses",
      "memo-hits",            "memo-misses",
      "arena-nodes",          "peak-frontier",
      "solver-steps",         "verdict-cache-hits",
      "verdict-cache-misses", "verdict-cache-inserts",
      "verdict-cache-evictions", "minterm-time-us",
      "derive-time-us",       "dnf-time-us",
      "scan-time-us",         "search-time-us",
      "solve-time-us",
      "solve-latency-count",  "solve-latency-p50-us",
      "solve-latency-p90-us", "solve-latency-p99-us"};
  EXPECT_EQ(Keys, Expected);
  EXPECT_GE(R.CubesTried, 1u);
#if SBD_OBS
  EXPECT_GT(R.Stats.DerivativeCalls, 0u);
#endif
  // Without the request, no statistics are rendered.
  SmtResult Plain = run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "x")))
    (check-sat))");
  EXPECT_TRUE(Plain.Statistics.empty());
}

TEST_F(SmtTest, TrailingFormsAfterCheckSatKeepTheVerdict) {
  SmtResult R = run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ok")))
    (check-sat)
    (get-model)
    (exit))");
  EXPECT_EQ(R.Status, SolveStatus::Sat);
}

TEST_F(SmtTest, ReadOnlyAndUnknownCommandErrorsKeepTheVerdict) {
  // get-model after an unsat check is an error the script does not report.
  SmtResult U = run(R"(
    (declare-const s String)
    (assert (str.in_re s re.none))
    (check-sat)
    (get-model)
    (get-value (s)))");
  EXPECT_EQ(U.Status, SolveStatus::Unsat);
  EXPECT_EQ(U.Stop, StopReason::None);
  ASSERT_EQ(U.Checks.size(), 1u);
  // An unknown command before the check leaves its verdict unchanged.
  SmtResult S = run(R"(
    (declare-const s String)
    (frobnicate s)
    (echo 42)
    (assert (str.in_re s (str.to_re "ok")))
    (check-sat))");
  EXPECT_EQ(S.Status, SolveStatus::Sat);
  EXPECT_EQ(S.Stop, StopReason::None);
  EXPECT_TRUE(S.Note.empty()) << S.Note;
  EXPECT_EQ(modelValue(S, "s"), "ok");
}

TEST_F(SmtTest, FormsAfterExitAreNotRun) {
  SmtResult R = run(R"(
    (declare-const s String)
    (check-sat)
    (exit)
    (assert false)
    (check-sat))");
  ASSERT_EQ(R.Checks.size(), 1u);
  EXPECT_EQ(R.Status, SolveStatus::Sat);
}

TEST_F(SmtTest, MalformedPushPopIsUnsupported) {
  // A bad argument moves no frame: read as (pop 1), (pop -5) would drop
  // the live contradiction and answer sat.
  for (const char *Bad : {"(pop -5)", "(pop x)", "(pop 1 2)"}) {
    SmtResult R = run(std::string(R"(
      (declare-const s String)
      (push 1)
      (assert (str.in_re s re.none)))") +
                      Bad + "(check-sat)");
    EXPECT_EQ(R.Status, SolveStatus::Unsupported) << Bad;
    EXPECT_EQ(R.Stop, StopReason::UnsupportedFragment) << Bad;
    EXPECT_EQ(R.Note, "malformed pop") << Bad;
    EXPECT_TRUE(R.Checks.empty()) << Bad;
  }
  for (const char *Bad : {"(push -1)", "(push x)", "(push 1 2)"}) {
    SmtResult R = run(std::string("(declare-const s String)") + Bad +
                      "(check-sat)");
    EXPECT_EQ(R.Status, SolveStatus::Unsupported) << Bad;
    EXPECT_EQ(R.Note, "malformed push") << Bad;
  }
  EXPECT_EQ(run("(push 0)(pop 0)(check-sat)").Status, SolveStatus::Sat);
}

TEST_F(SmtTest, StopReasonsAreMachineReadable) {
  SmtResult Unsup = run("(declare-const s String)"
                        "(assert (str.replace s \"a\" \"b\"))(check-sat)");
  EXPECT_EQ(Unsup.Status, SolveStatus::Unsupported);
  EXPECT_EQ(Unsup.Stop, StopReason::UnsupportedFragment);

  SmtResult Parse = run("(assert (= 1 2)");
  EXPECT_EQ(Parse.Status, SolveStatus::Unsupported);
  EXPECT_EQ(Parse.Stop, StopReason::ParseError);

  SmtResult Sat = run(R"((declare-const s String)
    (assert (str.in_re s (str.to_re "x")))(check-sat))");
  EXPECT_EQ(Sat.Stop, StopReason::None);
}

} // namespace
