//===- tests/SmtSessionTest.cpp - Incremental SMT session tests --------------===//
///
/// \file
/// Tests for the incremental SMT-LIB session (DESIGN.md §15): per-command
/// protocol replies, push/pop assertion scoping, persistent compiled state
/// across checks, (reset) keeping the arena warm, verdict-cache hits
/// across repeated checks, and multi-check `solveScript` producing one
/// `SmtCheck` per check-sat.
///
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "cache/VerdictCache.h"
#include "core/Derivatives.h"
#include "smt/SExpr.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class SmtSessionTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSession Session{Solver};

  /// Executes every form of \p Text and returns the non-empty reply texts.
  std::vector<std::string> run(const std::string &Text) {
    std::vector<std::string> Out;
    for (const SmtSession::Reply &R : Session.executeAll(Text))
      if (!R.Text.empty())
        Out.push_back(R.Text);
    return Out;
  }

  /// Executes \p Text, expecting exactly one reply.
  std::string runOne(const std::string &Text) {
    std::vector<std::string> Out = run(Text);
    if (Out.size() != 1) {
      ADD_FAILURE() << "expected 1 reply for \"" << Text << "\", got "
                    << Out.size();
      return "";
    }
    return Out[0];
  }
};

TEST_F(SmtSessionTest, CheckSatRepliesWithVerdicts) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.+ (re.range "a" "b")))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  run(R"((assert (not (str.in_re s re.all))))"); // contradiction
  EXPECT_EQ(runOne("(check-sat)"), "unsat");
  EXPECT_EQ(Session.checksRun(), 2u);
}

TEST_F(SmtSessionTest, PrintSuccessTogglesSuccessReplies) {
  EXPECT_TRUE(run("(declare-const s String)").empty());
  run("(set-option :print-success true)");
  EXPECT_EQ(runOne("(assert (str.in_re s (str.to_re \"a\")))"), "success");
  run("(set-option :print-success false)");
  EXPECT_TRUE(run("(assert (str.in_re s (str.to_re \"a\")))").empty());
}

TEST_F(SmtSessionTest, ErrorsArePerCommandAndTheSessionContinues) {
  std::string Err = runOne("(pop)");
  EXPECT_NE(Err.find("(error "), std::string::npos);
  EXPECT_NE(Err.find("pop without matching push"), std::string::npos);
  // The session is still healthy (continued-execution behavior).
  run("(declare-const s String)");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, UnknownCommandsAreErrorsInSessionMode) {
  std::string Err = runOne("(frobnicate)");
  EXPECT_NE(Err.find("unsupported command: frobnicate"), std::string::npos);
}

TEST_F(SmtSessionTest, PushPopScopesAssertions) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "ab")))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  EXPECT_EQ(Session.pushDepth(), 0u);

  run(R"(
    (push 1)
    (assert (str.in_re s re.none)))");
  EXPECT_EQ(Session.pushDepth(), 1u);
  EXPECT_EQ(Session.numAssertions(), 2u);
  EXPECT_EQ(runOne("(check-sat)"), "unsat");

  run("(pop 1)");
  EXPECT_EQ(Session.pushDepth(), 0u);
  EXPECT_EQ(Session.numAssertions(), 1u);
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, GetModelRendersDefineFunsOnlyAfterSat) {
  std::string Err = runOne("(get-model)");
  EXPECT_NE(Err.find("model is not available"), std::string::npos);

  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ab"))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  std::string Model = runOne("(get-model)");
  EXPECT_NE(Model.find("define-fun s () String"), std::string::npos);
  EXPECT_NE(Model.find("\"ab\""), std::string::npos);
}

TEST_F(SmtSessionTest, CheckSatAssumingScopesTheAssumptionToOneCheck) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "a")))))");
  EXPECT_EQ(runOne("(check-sat-assuming ((str.in_re s re.none)))"), "unsat");
  // The assumption did not leak into the persistent assertion set.
  EXPECT_EQ(Session.numAssertions(), 1u);
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, EchoAndGetInfoSpeakTheProtocol) {
  EXPECT_EQ(runOne("(echo \"hi there\")"), "\"hi there\"");
  EXPECT_EQ(runOne("(get-info :name)"), "(:name \"sbd\")");
  EXPECT_EQ(runOne("(get-info :error-behavior)"),
            "(:error-behavior continued-execution)");
}

TEST_F(SmtSessionTest, StatisticsIncludeSessionAndCacheCounters) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "a"))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  std::string Stats = runOne("(get-info :statistics)");
  EXPECT_NE(Stats.find(":checks-run"), std::string::npos);
  EXPECT_NE(Stats.find(":verdict-cache-hits"), std::string::npos);
}

TEST_F(SmtSessionTest, ResetDropsDeclarationsButArenaStaysWarm) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ab"))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  size_t NodesBefore = M.numNodes();
  run("(reset)");
  // Undeclared after reset → per-command error.
  std::string Err = runOne("(assert (str.in_re s (str.to_re \"a\")))");
  EXPECT_NE(Err.find("(error "), std::string::npos);
  // The arena kept its interned terms (warmth survives reset).
  EXPECT_GE(M.numNodes(), NodesBefore);
  run("(declare-const s String)");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, ExitSetsExitRequested) {
  std::vector<SmtSession::Reply> Replies = Session.executeAll("(exit)");
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_TRUE(Replies[0].ExitRequested);
}

TEST_F(SmtSessionTest, ParseErrorsYieldOneErrorReply) {
  std::vector<SmtSession::Reply> Replies = Session.executeAll("(assert");
  ASSERT_EQ(Replies.size(), 1u);
  EXPECT_TRUE(Replies[0].IsError);
}

/// The warm-session law the resident server relies on: with a verdict
/// cache attached, the second identical check is answered from the cache
/// with the identical verdict.
TEST_F(SmtSessionTest, RepeatedChecksHitTheVerdictCache) {
  cache::VerdictCache Cache;
  Session.setVerdictCache(&Cache);
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.++ (str.to_re "ab") (re.* (re.range "c" "d"))))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  cache::VerdictCacheCounters Cold = Cache.counters();
  EXPECT_GE(Cold.Inserts, 1u);
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  cache::VerdictCacheCounters Warm = Cache.counters();
  EXPECT_GT(Warm.Hits, Cold.Hits);

  SmtResult Last = Session.lastResult();
  EXPECT_EQ(Last.Status, SolveStatus::Sat);
}

/// A term nested past MaxSExprNesting is one parse error, not a crash: the
/// session answers the next command and keeps its verdict cache.
TEST_F(SmtSessionTest, TooDeepTermIsAParseErrorAndTheSessionKeepsServing) {
  cache::VerdictCache Cache;
  Session.setVerdictCache(&Cache);
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (re.+ (str.to_re "ab")))))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");

  // (assert (str.in_re s (re.* ... (re.* (str.to_re "ab")) ...))): the
  // assert, str.in_re and str.to_re lists add three levels to the chain.
  auto DeepAssert = [](size_t Depth) {
    size_t Stars = Depth - 3;
    std::string Out = "(assert (str.in_re s ";
    for (size_t I = 0; I != Stars; ++I)
      Out += "(re.* ";
    Out += "(str.to_re \"ab\")" + std::string(Stars, ')') + "))";
    return Out;
  };
  // Exactly at the cap the term still compiles and solves.
  run("(push)");
  EXPECT_TRUE(run(DeepAssert(MaxSExprNesting)).empty());
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  run("(pop)");
  const size_t Cached = Cache.size();
  ASSERT_GE(Cached, 1u);

  for (size_t Depth : {MaxSExprNesting + 1, size_t{30000}}) {
    std::string Err = runOne(DeepAssert(Depth));
    EXPECT_EQ(Err.rfind("(error \"parse error: nesting too deep", 0), 0u)
        << Err;
    EXPECT_EQ(runOne("(echo \"alive\")"), "\"alive\"");
  }
  EXPECT_EQ(Cache.size(), Cached);
  const uint64_t HitsBefore = Cache.counters().Hits;
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  EXPECT_GT(Cache.counters().Hits, HitsBefore);
}

TEST_F(SmtSessionTest, WideLiteralSolvesAndTheSessionKeepsServing) {
  // A 100,000-character str.to_re is a 100,000-link Concat spine. With a
  // verdict cache attached, the cache key prints it (toString), and the
  // Sat witness check walks all 100,000 characters.
  cache::VerdictCache Cache;
  Session.setVerdictCache(&Cache);
  const std::string Word(100000, 'a');
  run("(declare-const s String)\n"
      "(assert (str.in_re s (str.to_re \"" + Word + "\")))");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
  std::string Model = runOne("(get-model)");
  EXPECT_NE(Model.find("\"" + Word + "\""), std::string::npos);
  EXPECT_EQ(runOne("(echo \"alive\")"), "\"alive\"");
}

TEST_F(SmtSessionTest, OutOfRangeNumeralIsAParseErrorAndTheSessionKeepsServing) {
  std::string Err = runOne("(push 12345678901234567890)");
  EXPECT_EQ(Err.rfind("(error \"parse error: numeral out of range", 0), 0u)
      << Err;
  EXPECT_EQ(Session.pushDepth(), 0u);
  EXPECT_EQ(runOne("(echo \"alive\")"), "\"alive\"");
}

TEST_F(SmtSessionTest, PushPastTheDepthCapIsAnErrorAndTheSessionKeepsServing) {
  std::string Err = runOne("(push 1000000000000)");
  EXPECT_NE(Err.find("push depth over limit"), std::string::npos) << Err;
  EXPECT_EQ(Session.pushDepth(), 0u);
  // Up to the cap, frames still open and close.
  EXPECT_TRUE(run("(push " + std::to_string(MaxPushDepth) + ")").empty());
  EXPECT_EQ(Session.pushDepth(), MaxPushDepth);
  Err = runOne("(push)");
  EXPECT_NE(Err.find("push depth over limit"), std::string::npos) << Err;
  EXPECT_TRUE(run("(pop " + std::to_string(MaxPushDepth) + ")").empty());
  EXPECT_EQ(Session.pushDepth(), 0u);
  run("(declare-const s String)");
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, OutOfRangeBoundIsAnErrorNotAVerdict) {
  run(R"(
    (declare-const s String)
    (assert (<= (str.len s) 10)))");
  for (const char *A :
       {R"((assert (str.in_re s ((_ re.loop 4294967297 4294967297)
                                  (str.to_re "a")))))",
        R"((assert (= (str.len s) 4294967296)))",
        R"((assert (= (str.at s 4294967296) "b")))"}) {
    std::string Err = runOne(A);
    EXPECT_EQ(Err.rfind("(error ", 0), 0u) << A << ": " << Err;
    EXPECT_NE(Err.find("out of range"), std::string::npos) << Err;
    EXPECT_EQ(Session.numAssertions(), 1u) << A;
  }
  EXPECT_EQ(runOne("(check-sat)"), "sat");
}

TEST_F(SmtSessionTest, LastResultTracksTheMostRecentCheck) {
  run(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "ab"))))");
  runOne("(check-sat)");
  EXPECT_EQ(Session.lastResult().Status, SolveStatus::Sat);
  run("(assert (str.in_re s re.none))");
  runOne("(check-sat)");
  EXPECT_EQ(Session.lastResult().Status, SolveStatus::Unsat);
}

/// Multi-check scripts through the one-shot driver: every check-sat lands
/// in SmtResult::Checks in order, and the top-level verdict is the last's.
TEST(SmtScriptChecksTest, SolveScriptRecordsEveryCheck) {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  SmtResult R = Smt.solveScript(R"(
    (declare-const s String)
    (assert (str.in_re s (re.* (str.to_re "ab"))))
    (check-sat)
    (push 1)
    (assert (str.in_re s re.none))
    (check-sat)
    (pop 1)
    (check-sat))");
  ASSERT_EQ(R.Checks.size(), 3u);
  EXPECT_EQ(R.Checks[0].Status, SolveStatus::Sat);
  EXPECT_EQ(R.Checks[1].Status, SolveStatus::Unsat);
  EXPECT_EQ(R.Checks[2].Status, SolveStatus::Sat);
  // Top-level fields mirror the last check.
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  EXPECT_FALSE(R.Model.empty());
}

TEST(SmtScriptChecksTest, ScriptWithoutChecksStillRunsImplicitFinalCheck) {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  SmtResult R = Smt.solveScript(R"(
    (declare-const s String)
    (assert (str.in_re s (str.to_re "a"))))");
  EXPECT_EQ(R.Status, SolveStatus::Sat);
  ASSERT_EQ(R.Checks.size(), 1u); // the implicit final check is recorded
  EXPECT_EQ(R.Checks[0].Status, SolveStatus::Sat);
}

} // namespace
