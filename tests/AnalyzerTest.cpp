//===- tests/AnalyzerTest.cpp - Pre-solve static analysis tests -------------===//
///
/// \file
/// Covers the RegexAnalyzer (DESIGN.md §14): golden feature vectors on
/// fixed patterns, memoization identity over the hash-consed DAG, counter
/// blow-up bounds on nested loops, literal-prefix soundness against solver
/// witnesses on fuzz samples, classification stability across arena
/// rebuilds, and the portfolio routing decisions derived from the
/// features.
///
//===----------------------------------------------------------------------===//

#include "analysis/RegexAnalyzer.h"
#include "fuzz/Generator.h"
#include "portfolio/Portfolio.h"
#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "support/Metrics.h"

#include "gtest/gtest.h"

namespace {

using namespace sbd;
using analysis::ReClass;
using fuzz::GeneratorOptions;
using fuzz::RegexGenerator;
using analysis::RegexAnalyzer;
using analysis::RegexFeatures;

/// Full solver stack plus analyzer for one test.
struct Stack {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
  RegexAnalyzer A{M};

  Re parse(const std::string &Pattern) {
    RegexParseResult R = parseRegex(M, Pattern);
    EXPECT_TRUE(R.Ok) << Pattern << ": " << R.Error;
    return R.Value;
  }
};

TEST(AnalyzerTest, GoldenFeaturesLiteral) {
  Stack St;
  const RegexFeatures &F = St.A.analyze(St.parse("abc"));
  EXPECT_EQ(F.Class, ReClass::Literal);
  EXPECT_EQ(F.Risk, 0u);
  EXPECT_EQ(F.NumPred, 3u);
  EXPECT_EQ(F.NumConcat, 2u);
  EXPECT_EQ(F.TreeSize, 5u);
  EXPECT_EQ(F.DagSize, 5u);
  EXPECT_EQ(F.StarHeight, 0u);
  EXPECT_FALSE(F.Nullable);
  EXPECT_FALSE(F.EmptyLang);
  ASSERT_EQ(F.PrefixLen, 3u);
  EXPECT_TRUE(F.PrefixExact);
  EXPECT_TRUE(F.PrefixComplete);
  EXPECT_EQ(F.Prefix[0], static_cast<uint32_t>('a'));
  EXPECT_EQ(F.Prefix[1], static_cast<uint32_t>('b'));
  EXPECT_EQ(F.Prefix[2], static_cast<uint32_t>('c'));
}

TEST(AnalyzerTest, GoldenFeaturesKleene) {
  Stack St;
  const RegexFeatures &F = St.A.analyze(St.parse("(ab)*"));
  EXPECT_EQ(F.Class, ReClass::KleeneOnly);
  EXPECT_EQ(F.Risk, 0u);
  EXPECT_EQ(F.StarHeight, 1u);
  EXPECT_EQ(F.NumStar, 1u);
  EXPECT_TRUE(F.Nullable);
  EXPECT_EQ(F.PrefixLen, 0u); // nullable ⇒ no required prefix
  EXPECT_FALSE(F.PrefixExact);
}

TEST(AnalyzerTest, GoldenFeaturesBoolean) {
  Stack St;
  const RegexFeatures &F = St.A.analyze(St.parse("(ab)+&(ba)+"));
  EXPECT_EQ(F.Class, ReClass::BooleanHeavy);
  EXPECT_EQ(F.NumInter, 1u);
  EXPECT_EQ(F.BooleanDepth, 1u);
  EXPECT_EQ(F.ComplDepth, 0u);
  EXPECT_FALSE(F.Nullable);
}

TEST(AnalyzerTest, GoldenFeaturesCounterHeavy) {
  Stack St;
  const RegexFeatures &F = St.A.analyze(St.parse("(a{10,20}){10,20}"));
  EXPECT_EQ(F.Class, ReClass::CounterHeavy);
  EXPECT_EQ(F.CounterBlowup, 400u); // 20 * 20 along the nesting path
  EXPECT_EQ(F.MaxLoopBound, 20u);
  EXPECT_EQ(F.Risk, 40u); // 10 * floor(log2(400))
}

TEST(AnalyzerTest, GoldenFeaturesAdversarial) {
  Stack St;
  const RegexFeatures &F = St.A.analyze(St.parse("~(((ab)*c)*d)*"));
  EXPECT_EQ(F.Class, ReClass::Adversarial);
  EXPECT_EQ(F.StarHeight, 3u);
  EXPECT_EQ(F.ComplDepth, 1u);
  EXPECT_EQ(F.Risk, 65u); // 25*(3-1) star nesting + 15 complement-under-star
  EXPECT_GE(F.Risk, analysis::RiskAdversarial);
}

TEST(AnalyzerTest, MemoizationIsIdentityOnTheDag) {
  Stack St;
  Re R = St.parse("(ab)*c|(ab)*d");
  St.A.analyze(R);
  size_t FirstPass = St.A.nodesAnalyzed();
  EXPECT_GT(FirstPass, 0u);
  // Re-analyzing the same root folds nothing new.
  St.A.analyze(R);
  EXPECT_EQ(St.A.nodesAnalyzed(), FirstPass);
  // A superterm sharing (ab)* only folds its genuinely new nodes: the
  // fold count rises by less than the subterm's own footprint would cost.
  Re Super = St.parse("((ab)*c|(ab)*d)e");
  const RegexFeatures &F = St.A.analyze(Super);
  size_t SecondPass = St.A.nodesAnalyzed() - FirstPass;
  EXPECT_GT(SecondPass, 0u);
  EXPECT_LT(SecondPass, static_cast<size_t>(F.DagSize));
  // cached() returns the same record analyze() produced.
  EXPECT_EQ(St.A.cached(Super).TreeSize, F.TreeSize);
  EXPECT_EQ(St.A.cached(Super).Class, F.Class);
}

TEST(AnalyzerTest, CounterBlowupBoundsOnNestedLoops) {
  Stack St;
  // Sequential loops do not multiply — the bound tracks a single path.
  EXPECT_EQ(St.A.analyze(St.parse("a{2}b{3}")).CounterBlowup, 3u);
  // Nested loops multiply their upper bounds.
  EXPECT_EQ(St.A.analyze(St.parse("(a{2,3}){4,5}")).CounterBlowup, 15u);
  // Unbounded loops contribute their lower bound (the forced unrolling).
  EXPECT_EQ(St.A.analyze(St.parse("(a{7,}){3}")).CounterBlowup, 21u);
  // Deep nesting saturates instead of wrapping around.
  const RegexFeatures &Sat =
      St.A.analyze(St.parse("(((a{65535}){65535}){65535}){65535}"));
  EXPECT_EQ(Sat.CounterBlowup, analysis::BlowupSat);
  EXPECT_EQ(Sat.Class, ReClass::CounterHeavy);
}

TEST(AnalyzerTest, LiteralPrefixIsSoundOnFuzzSamples) {
  Stack St;
  GeneratorOptions GenOpts;
  GenOpts.MaxNodes = 18;
  RegexGenerator Gen(St.M, 91, GenOpts);
  SolveOptions Opts;
  Opts.MaxStates = 4000;
  Opts.TimeoutMs = 50;
  size_t SatSeen = 0;
  for (int I = 0; I != 150; ++I) {
    Re R = Gen.generate();
    const RegexFeatures F = St.A.analyze(R); // copy: solver also analyzes
    SolveResult Res = St.S.checkSat(R, Opts);
    if (!Res.isSat())
      continue;
    ++SatSeen;
    const std::vector<uint32_t> &W = Res.Witness;
    ASSERT_GE(W.size(), F.PrefixLen)
        << St.M.toString(R) << ": witness shorter than required prefix";
    for (uint32_t J = 0; J != F.PrefixLen; ++J)
      EXPECT_EQ(W[J], F.Prefix[J])
          << St.M.toString(R) << ": witness diverges from prefix at " << J;
    if (F.PrefixExact && F.PrefixComplete) {
      EXPECT_EQ(W.size(), F.PrefixLen)
          << St.M.toString(R) << ": exact-word language, longer witness";
    }
  }
  EXPECT_GT(SatSeen, 20u) << "fuzz samples degenerated; seed drifted?";
}

TEST(AnalyzerTest, ClassificationStableAcrossArenaRebuilds) {
  Stack St;
  GeneratorOptions GenOpts;
  GenOpts.MaxNodes = 24;
  RegexGenerator Gen(St.M, 17, GenOpts);
  for (int I = 0; I != 100; ++I) {
    Re R = Gen.generate();
    const RegexFeatures F = St.A.analyze(R);
    // Round-trip through the printer into a fresh arena: interning order,
    // node ids, and memo state all change; the features must not.
    RegexManager M2;
    RegexParseResult Reparsed = parseRegex(M2, St.M.toString(R));
    ASSERT_TRUE(Reparsed.Ok) << St.M.toString(R) << ": " << Reparsed.Error;
    RegexAnalyzer A2(M2);
    const RegexFeatures &G = A2.analyze(Reparsed.Value);
    EXPECT_EQ(F.Class, G.Class) << St.M.toString(R);
    EXPECT_EQ(F.Risk, G.Risk) << St.M.toString(R);
    EXPECT_EQ(F.TreeSize, G.TreeSize) << St.M.toString(R);
    EXPECT_EQ(F.DagSize, G.DagSize) << St.M.toString(R);
    EXPECT_EQ(F.StarHeight, G.StarHeight) << St.M.toString(R);
    EXPECT_EQ(F.CounterBlowup, G.CounterBlowup) << St.M.toString(R);
    EXPECT_EQ(F.Nullable, G.Nullable) << St.M.toString(R);
    EXPECT_EQ(F.PrefixLen, G.PrefixLen) << St.M.toString(R);
    for (uint32_t J = 0; J != F.PrefixLen; ++J)
      EXPECT_EQ(F.Prefix[J], G.Prefix[J]) << St.M.toString(R);
  }
}

TEST(AnalyzerTest, RecordReferencesSurviveArenaGrowth) {
  Stack St;
  GeneratorOptions GenOpts;
  GenOpts.MaxNodes = 24;
  RegexGenerator Gen(St.M, 23, GenOpts);
  Re First = St.parse("(ab)*c|[0-9]{2,4}");
  const RegexFeatures &Ref = St.A.analyze(First);
  const std::string Before = Ref.json();
  // Grow the arena by at least eight memo pages, analyzing as it grows.
  std::vector<Re> Roots = {First};
  const size_t Start = St.M.numNodes();
  while (St.M.numNodes() < Start + 512) {
    Roots.push_back(Gen.generate());
    St.A.analyze(Roots.back());
  }
  EXPECT_EQ(Ref.json(), Before);
  EXPECT_EQ(&Ref, &St.A.analyze(First));
  // Every record equals what a fresh analyzer computes for the reparse.
  for (Re R : Roots) {
    RegexManager M2;
    RegexParseResult Reparsed = parseRegex(M2, St.M.toString(R));
    ASSERT_TRUE(Reparsed.Ok) << St.M.toString(R) << ": " << Reparsed.Error;
    RegexAnalyzer A2(M2);
    EXPECT_EQ(St.A.cached(R).json(), A2.analyze(Reparsed.Value).json())
        << St.M.toString(R);
  }
}

TEST(AnalyzerTest, RoutingFollowsTheFeatureTable) {
  Stack St;
  SolveOptions Bfs;
  // Small positive iteration goes to the partial-derivative baseline.
  portfolio::RouteDecision D =
      portfolio::planRoute(St.A.analyze(St.parse("(ab)*")), Bfs);
  EXPECT_EQ(D.Engine, SolveEngine::Antimirov);
  EXPECT_STREQ(D.Reason, "small_positive_iteration");
  // Boolean structure stays on the derivative engine.
  D = portfolio::planRoute(St.A.analyze(St.parse("(ab)+&(ba)+")), Bfs);
  EXPECT_EQ(D.Engine, SolveEngine::DerivBfs);
  // Adversarial terms stay on the derivative engine under the cap.
  D = portfolio::planRoute(St.A.analyze(St.parse("~(((ab)*c)*d)*")), Bfs);
  EXPECT_EQ(D.Engine, SolveEngine::DerivBfs);
  EXPECT_STREQ(D.Reason, "adversarial_capped");
  // An explicit DFS request pins the derivative DFS engine regardless.
  SolveOptions Dfs;
  Dfs.Strategy = SearchStrategy::Dfs;
  D = portfolio::planRoute(St.A.analyze(St.parse("(ab)*")), Dfs);
  EXPECT_EQ(D.Engine, SolveEngine::DerivDfs);
  EXPECT_STREQ(D.Reason, "dfs_strategy_pinned");
}

TEST(AnalyzerTest, PortfolioAgreesWithDirectSolver) {
  Stack St;
  portfolio::PortfolioSolver Port(St.S);
  const char *Patterns[] = {"(ab)*",       "abc",      "(ab)+&(ba)+",
                            "a{3}b*",      "~(a*)&a*", "(a|b)*c",
                            "[a-z]+@[a-z]+"};
  for (const char *P : Patterns) {
    Re R = St.parse(P);
    SolveResult Direct = St.S.checkSat(R);
    SolveResult Routed = Port.checkSat(R);
    EXPECT_EQ(Direct.Status, Routed.Status) << P;
    if (Routed.isSat()) {
      EXPECT_TRUE(St.S.matchesWord(R, Routed.Witness)) << P;
    }
  }
}

#if SBD_OBS
TEST(AnalyzerTest, AntimirovRouteAnalyzesTheTermOnce) {
  // The router and the Antimirov engine share the stack's analyzer, so a
  // routed query on a fresh stack folds each reachable node exactly once.
  portfolio::SolverStack W;
  Re R = parseRegexOrDie(W.M, "(ab)*c");
  const obs::MetricShard Before = obs::tlsShard();
  SolveResult Res = W.P.checkSat(R);
  const obs::MetricShard D = obs::tlsShard().since(Before);
  ASSERT_TRUE(Res.isSat()) << Res.Note;
  EXPECT_EQ(Res.Stats.Engine, SolveEngine::Antimirov);
  EXPECT_EQ(D.get(obs::Counter::AnalysisNodesVisited),
            W.S.analyzer().cached(R).DagSize);
}
#endif

TEST(AnalyzerTest, SolverStatsCarryThePrediction) {
  Stack St;
  SolveResult Res = St.S.checkSat(St.parse("~(((ab)*c)*d)*"));
  EXPECT_STREQ(Res.Stats.PredictedClass, "adversarial");
  EXPECT_GE(Res.Stats.RiskScore, analysis::RiskAdversarial);
  EXPECT_GT(Res.Stats.PredictedStates, 0u);
#if SBD_OBS
  EXPECT_GT(Res.Stats.AnalysisNodesVisited, 0u);
#endif
}

} // namespace
