//===- tests/SolverTest.cpp - Decision procedure tests ----------------------===//

#include "solver/RegexSolver.h"

#include "baselines/AntimirovSolver.h"
#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class SolverTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};

  Re re(const std::string &Pat) { return parseRegexOrDie(M, Pat); }

  /// checkSat and, on Sat, re-verify the witness with the matcher.
  SolveResult sat(Re R) {
    SolveResult Res = S.checkSat(R);
    if (Res.isSat()) {
      EXPECT_TRUE(E.matches(R, Res.Witness))
          << "witness rejected by matcher for " << M.toString(R);
    }
    return Res;
  }
};

TEST_F(SolverTest, TrivialCases) {
  EXPECT_TRUE(sat(M.epsilon()).isSat());
  EXPECT_TRUE(sat(M.top()).isSat());
  EXPECT_TRUE(sat(M.anyChar()).isSat());
  EXPECT_TRUE(sat(re("abc")).isSat());
  EXPECT_TRUE(sat(M.empty()).isUnsat());
}

TEST_F(SolverTest, ShortestWitness) {
  SolveResult R = sat(re("a{3}b*"));
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Witness.size(), 3u); // BFS ⇒ shortest member "aaa"

  SolveResult R2 = sat(re("x|yyyy"));
  ASSERT_TRUE(R2.isSat());
  EXPECT_EQ(R2.Witness.size(), 1u);
}

TEST_F(SolverTest, UnsatByIntersection) {
  // a+ & b+ is empty.
  EXPECT_TRUE(sat(M.inter(re("a+"), re("b+"))).isUnsat());
  // Strings of a's of length 2 mod 2 vs odd length: (aa)+ & a(aa)* empty.
  EXPECT_TRUE(sat(M.inter(re("(aa)+"), re("a(aa)*"))).isUnsat());
  // Same language, not empty.
  EXPECT_TRUE(sat(M.inter(re("(aa)+"), re("aa(aa)*"))).isSat());
}

TEST_F(SolverTest, UnsatNeedsCycleDetection) {
  // a* & ~(a*) is ⊥ by the constructor laws; build something the
  // constructors cannot see through: a+ & ~(.*a.*).
  EXPECT_TRUE(sat(M.inter(re("a+"), re("~(.*a.*)"))).isUnsat());
  // Loops around a dead cycle: (ab)* & (ba)* shares only ε — sat.
  EXPECT_TRUE(sat(M.inter(re("(ab)*"), re("(ba)*"))).isSat());
  // (ab)+ & (ba)+ is empty and requires exhausting a cyclic graph.
  EXPECT_TRUE(sat(M.inter(re("(ab)+"), re("(ba)+"))).isUnsat());
}

TEST_F(SolverTest, PaperIntroDateExample) {
  // Fig. 1: the sane version is sat...
  Re Shape = re("\\d{4}-[a-zA-Z]{3}-\\d{2}");
  Re Sane = M.inter(Shape, M.union_(re("2019.*"), re("2020.*")));
  SolveResult R = sat(Sane);
  ASSERT_TRUE(R.isSat());
  // ...and the buggy version (.*2019 / .*2020 suffix constraints) is unsat:
  // a 14-character date shape cannot *end* in 2019 or 2020 because
  // positions 11..13 include '-' and letters... it conflicts with the shape.
  Re Buggy = M.inter(Shape, M.union_(re(".*2019"), re(".*2020")));
  EXPECT_TRUE(sat(Buggy).isUnsat());
}

TEST_F(SolverTest, Section2PasswordExample) {
  Re R = M.inter(re(".*\\d.*"), re("~(.*01.*)"));
  SolveResult Res = sat(R);
  ASSERT_TRUE(Res.isSat());
  // The shortest such string is one digit.
  EXPECT_EQ(Res.Witness.size(), 1u);
  EXPECT_TRUE(CharSet::digit().contains(Res.Witness[0]));
}

TEST_F(SolverTest, ComplementOfEverything) {
  EXPECT_TRUE(sat(re("~(.*)")).isUnsat());
  EXPECT_TRUE(sat(re("~([])")).isSat());
  EXPECT_TRUE(sat(re("~(())")).isSat()); // anything nonempty
}

TEST_F(SolverTest, MembershipConjunctions) {
  // in(s, \w+) ∧ ¬in(s, .*\d.*) ∧ in(s, .{3}).
  std::vector<MembershipLiteral> Ls = {
      {re("\\w+"), true}, {re(".*\\d.*"), false}, {re(".{3}"), true}};
  SolveResult R = S.checkMembership(Ls);
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Witness.size(), 3u);
  for (uint32_t C : R.Witness) {
    EXPECT_TRUE(CharSet::word().contains(C));
    EXPECT_FALSE(CharSet::digit().contains(C));
  }

  // Contradictory literals.
  std::vector<MembershipLiteral> Bad = {{re("a+"), true}, {re("a*"), false}};
  EXPECT_TRUE(S.checkMembership(Bad).isUnsat());
}

TEST_F(SolverTest, ContainsAndEquivalence) {
  EXPECT_TRUE(S.checkContains(re("ab"), re("a.*")).isUnsat()); // ab ⊆ a.*
  SolveResult R = S.checkContains(re("a.*"), re("ab"));
  ASSERT_TRUE(R.isSat()); // counterexample exists
  EXPECT_TRUE(E.matches(re("a.*"), R.Witness));
  EXPECT_FALSE(E.matches(re("ab"), R.Witness));

  EXPECT_TRUE(S.checkEquivalent(re("(a|b)*"), re("(a*b*)*")).isUnsat());
  EXPECT_TRUE(S.checkEquivalent(re("a(ba)*"), re("(ab)*a")).isUnsat());
  EXPECT_TRUE(S.checkEquivalent(re("a+"), re("a*")).isSat());
  // De Morgan at the language level.
  EXPECT_TRUE(
      S.checkEquivalent(re("~(a.*&.*b)"), re("~(a.*)|~(.*b)")).isUnsat());
}

TEST_F(SolverTest, DeterminizationBlowupFamily) {
  // (.*a.{k}) & (.*b.{k}) pins the (k+1)-th character from the end to both
  // 'a' and 'b': unsatisfiable, and proving it requires exhausting a state
  // space that is exponential for DFAs (small here thanks to dead-state
  // detection over derivatives).
  for (uint32_t K : {2u, 5u}) {
    Re R = M.inter(
        M.concat(M.top(), M.concat(M.chr('a'), M.loop(M.anyChar(), K, K))),
        M.concat(M.top(), M.concat(M.chr('b'), M.loop(M.anyChar(), K, K))));
    EXPECT_TRUE(sat(R).isUnsat()) << "k=" << K;
  }
  // The satisfiable variant keeps a tail: both markers occur, k apart from
  // some later position.
  for (uint32_t K : {2u, 6u, 10u}) {
    Re R = M.inter(re(".*a.{" + std::to_string(K) + "}.*"),
                   re(".*b.{" + std::to_string(K) + "}.*"));
    SolveResult Res = sat(R);
    ASSERT_TRUE(Res.isSat()) << "k=" << K;
  }
  Re Unsat = M.inter(re("a.{3}"), re("b.{3}"));
  EXPECT_TRUE(sat(Unsat).isUnsat());
}

TEST_F(SolverTest, SideConstraintsAsPositionRegex) {
  // Section 2 coda: with side constraint "s0 is not a digit", the password
  // regex forces a longer witness.
  Re Pw = M.inter(re(".*\\d.*"), re("~(.*01.*)"));
  Re Pos = S.positionConstraint({CharSet::digit().complement()});
  SolveResult R = sat(M.inter(Pw, Pos));
  ASSERT_TRUE(R.isSat());
  ASSERT_GE(R.Witness.size(), 2u);
  EXPECT_FALSE(CharSet::digit().contains(R.Witness[0]));
}

TEST_F(SolverTest, GraphDeadStatePersistsAcrossQueries) {
  Re Dead = M.inter(re("a+"), re("b+"));
  EXPECT_TRUE(S.checkSat(Dead).isUnsat());
  EXPECT_TRUE(S.graph().isDead(Dead));
  // A second query over a regex that reaches the dead one benefits from the
  // bot rule: prove unsat of c·(a+ & b+).
  Re Wrapped = M.concat(re("c"), Dead);
  SolveResult R = S.checkSat(Wrapped);
  EXPECT_TRUE(R.isUnsat());
}

TEST_F(SolverTest, SatQueryLeavesItsExploredDeadSideComponentDead) {
  // BFS to the depth-10 witness closes every state of the empty side
  // branch x·Side (a cyclic component: the window shifts on every
  // character), so the query returns with Side proven dead.
  Re Side = re(".*a.{3}&.*b.{3}");
  SolveResult R = sat(re("x(.*a.{3}&.*b.{3})|y{10}"));
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Witness, std::vector<uint32_t>(10, 'y'));
  ASSERT_TRUE(S.graph().isClosed(Side));
  EXPECT_TRUE(S.graph().isDead(Side));
}

TEST_F(SolverTest, LaterQueryPrunesWhatAnEarlierUnsatQueryProvedDead) {
  Re Side = re(".*a.{3}&.*b.{3}");
  Re Query = re("x(.*a.{3}&.*b.{3})|y{10}");
  ASSERT_TRUE(S.checkSat(Side).isUnsat());
  ASSERT_TRUE(S.graph().isDead(Side));
  SolveResult Warm = sat(Query);
  S.resetGraph();
  SolveResult Cold = sat(Query);
  ASSERT_TRUE(Cold.isSat());
  EXPECT_EQ(Warm.Status, Cold.Status);
  EXPECT_EQ(Warm.Witness, Cold.Witness);
  EXPECT_LT(Warm.StatesExplored, Cold.StatesExplored);
}

// A BFS witness is the shortlex-least word of the language (DESIGN.md §4),
// whatever the union's operand order, the engine, or the arena's history.
TEST(ShortlexWitnessTest, OverlappingGuardsTieOnTheFirstCharacter) {
  for (const char *P : {"(az)|([a-b]y)", "([a-b]y)|(az)"}) {
    portfolio::SolverStack W;
    Re R = parseRegexOrDie(W.M, P);
    EXPECT_EQ(toUtf8(W.S.checkSat(R).Witness), "ay") << P;
    AntimirovSolver A(W.M, W.S.analyzer());
    EXPECT_EQ(toUtf8(A.solve(R).Witness), "ay") << P;
    // With a complement the portfolio keeps the derivative route.
    Re NotQ = W.M.inter(R, W.M.complement(parseRegexOrDie(W.M, "q")));
    SolveResult Res = W.P.checkSat(NotQ);
    EXPECT_NE(Res.Stats.Engine, SolveEngine::Antimirov) << P;
    EXPECT_EQ(toUtf8(Res.Witness), "ay") << P;
  }
}

TEST(ShortlexWitnessTest, WarmArenaGivesTheFreshWitness) {
  const char *Query = "(ab|ba)*&.{8}";
  portfolio::SolverStack Fresh;
  EXPECT_EQ(toUtf8(Fresh.P.checkSat(parseRegexOrDie(Fresh.M, Query)).Witness),
            "abababab");
  portfolio::SolverStack Warm;
  for (const char *P : {"(ba|ab)*&.{6}&(ba)+", "(ba)*&.{8}"})
    ASSERT_TRUE(Warm.P.checkSat(parseRegexOrDie(Warm.M, P)).isSat()) << P;
  EXPECT_EQ(toUtf8(Warm.P.checkSat(parseRegexOrDie(Warm.M, Query)).Witness),
            "abababab");
}

TEST(ShortlexWitnessTest, BooleanOfStarsGivesTheLeastLetters) {
  portfolio::SolverStack W;
  Re R = parseRegexOrDie(W.M, "a*b*&.{3}&\\w*");
  EXPECT_EQ(toUtf8(W.S.checkSat(R).Witness), "aaa");
  EXPECT_EQ(toUtf8(W.P.checkSat(R).Witness), "aaa");
}

TEST(ShortlexWitnessTest, PrintableCharactersComeFirst) {
  // '!' (0x21) is the least character; a newline only when it must be.
  portfolio::SolverStack W;
  EXPECT_EQ(W.S.checkSat(parseRegexOrDie(W.M, "[\\n!]")).Witness,
            std::vector<uint32_t>{'!'});
  EXPECT_EQ(W.S.checkSat(parseRegexOrDie(W.M, "\\na|!b")).Witness,
            (std::vector<uint32_t>{'!', 'b'}));
  EXPECT_EQ(W.S.checkSat(parseRegexOrDie(W.M, "\\n")).Witness,
            std::vector<uint32_t>{'\n'});
}

TEST_F(SolverTest, DfsStrategyAgreesWithBfs) {
  SolveOptions Dfs;
  Dfs.Strategy = SearchStrategy::Dfs;
  const char *Patterns[] = {"a{3}b*",     "(ab)+&(ba)+",  "a+&b+",
                            ".*\\d.*&~(.*01.*)", "~(.*a.{6})&.*b.{6}",
                            "(.*a.{4})&(.*b.{4})"};
  for (const char *P : Patterns) {
    Re R = re(P);
    SolveResult Bfs = S.checkSat(R);
    SolveResult DfsRes = S.checkSat(R, Dfs);
    EXPECT_EQ(DfsRes.Status, Bfs.Status) << P;
    if (DfsRes.isSat()) {
      EXPECT_TRUE(E.matches(R, DfsRes.Witness)) << P;
    }
  }
}

TEST_F(SolverTest, DfsFindsDeepWitnessesCheaply) {
  // BFS must materialize an exponential frontier of complement-tracking
  // states; DFS dives straight to a depth-(k+1) witness.
  SolveOptions Dfs;
  Dfs.Strategy = SearchStrategy::Dfs;
  Re R = re("~(.*a.{8})&.*b.{8}");
  SolveResult DfsRes = S.checkSat(R, Dfs);
  ASSERT_TRUE(DfsRes.isSat());
  EXPECT_TRUE(E.matches(R, DfsRes.Witness));
  SolveResult BfsRes = S.checkSat(R);
  ASSERT_TRUE(BfsRes.isSat());
  EXPECT_LT(DfsRes.StatesExplored, BfsRes.StatesExplored / 4);
}

TEST_F(SolverTest, BudgetsReportUnknown) {
  // A satisfiable but deep constraint with a tiny state budget.
  Re R = re("a{50}");
  SolveOptions Opts;
  Opts.MaxStates = 5;
  SolveResult Res = S.checkSat(R, Opts);
  EXPECT_EQ(Res.Status, SolveStatus::Unknown);
}

TEST_F(SolverTest, CaseSplitImplementsFig3a) {
  // One der/ite/or application on the Section 2 constraint.
  Re R = M.inter(re(".*\\d.*"), re("~(.*01.*)"));
  RegexSolver::CaseSplit Split = S.caseSplit(R);
  EXPECT_FALSE(Split.EmptyCase); // R is not nullable
  ASSERT_FALSE(Split.Arcs.empty());
  // Simulating the external solver loop: following any arc and prepending
  // its guard's character must stay inside L(R)'s residues.
  for (const TrArc &Arc : Split.Arcs) {
    auto Ch = Arc.Guard.sample();
    ASSERT_TRUE(Ch.has_value());
    EXPECT_FALSE(Arc.Guard.isEmpty());
    // The target is one union branch of D_ch(R): its language is included
    // in the full derivative's.
    EXPECT_TRUE(
        S.checkContains(Arc.Target, E.brzozowski(R, *Ch)).isUnsat());
  }
  // The upd side effect closed the vertex.
  EXPECT_TRUE(S.graph().isClosed(R));

  // Iterating case splits to a fixpoint proves emptiness via the graph —
  // the external-loop version of checkSat's unsat path.
  Re Dead = M.inter(re("(ab)+"), re("(ba)+"));
  std::vector<Re> Work = {Dead};
  size_t Guard = 0;
  while (!Work.empty() && ++Guard < 100) {
    Re Cur = Work.back();
    Work.pop_back();
    if (S.graph().isClosed(Cur))
      continue;
    for (const TrArc &A : S.caseSplit(Cur).Arcs)
      Work.push_back(A.Target);
  }
  EXPECT_TRUE(S.graph().isDead(Dead));
}

TEST_F(SolverTest, IntroHeadlineClaim) {
  // Section 1: "constructing the state space for M_r is infeasible, such
  // as for r = ~(.*a.{100})" — while the lazy solver answers immediately.
  Re R = re("~(.*a.{100})");
  SolveOptions Opts;
  Opts.MaxStates = 1000;
  Opts.Strategy = SearchStrategy::Dfs;
  SolveResult Res = S.checkSat(R, Opts);
  ASSERT_TRUE(Res.isSat());       // ε suffices, found without exploration
  EXPECT_LE(Res.StatesExplored, 2u);
  // Even a nonempty witness requirement stays tiny.
  SolveResult Res2 = S.checkSat(M.inter(R, re(".{101,}")), Opts);
  ASSERT_TRUE(Res2.isSat());
  EXPECT_TRUE(E.matches(R, Res2.Witness));
}

TEST_F(SolverTest, StopReasonNoneOnDecidedQueries) {
  SolveResult Sat = sat(re("a{3}b*"));
  EXPECT_TRUE(Sat.isSat());
  EXPECT_EQ(Sat.Stop, StopReason::None);
  SolveResult Unsat = sat(re("(ab)+&(ba)+"));
  EXPECT_TRUE(Unsat.isUnsat());
  EXPECT_EQ(Unsat.Stop, StopReason::None);
}

TEST_F(SolverTest, StopReasonStateBudget) {
  SolveOptions Opts;
  Opts.MaxStates = 2;
  SolveResult R = S.checkSat(re("a{50}"), Opts);
  EXPECT_EQ(R.Status, SolveStatus::Unknown);
  EXPECT_EQ(R.Stop, StopReason::StateBudget);
  EXPECT_EQ(R.Note, "state budget exhausted");
}

TEST_F(SolverTest, StopReasonTimeout) {
  // A 0x3F-step clock cadence alone could overshoot a 1ms budget by a lot
  // on blowup instances; the adaptive cadence must still report Timeout.
  // Scale the instance up until the budget actually binds (fast machines
  // may decide small ones within 1ms — those must report None).
  SolveOptions Opts;
  Opts.TimeoutMs = 1;
  for (int K = 10; K <= 22; K += 4) {
    std::string P = "(.*a.{" + std::to_string(K) + "})&(.*b.{" +
                    std::to_string(K) + "})&(.*c.{" + std::to_string(K) +
                    "})";
    SolveResult R = S.checkSat(re(P), Opts);
    if (R.Status != SolveStatus::Unknown) {
      EXPECT_EQ(R.Stop, StopReason::None);
      continue;
    }
    EXPECT_EQ(R.Stop, StopReason::Timeout);
    EXPECT_GT(R.Stats.TimeoutChecks, 0u);
    // The adaptive check keeps the overshoot bounded: allow a generous
    // 50x budget margin so slow CI machines don't flake, while still
    // catching a reversion to unchecked multi-second overruns.
    EXPECT_LT(R.TimeUs, Opts.TimeoutMs * 1000 * 50);
    return;
  }
  // All instances decided within the budget: nothing more to check.
}

#if SBD_OBS
TEST_F(SolverTest, ExactWorkCountersOnTinySolve) {
  // "ab": BFS dequeues "ab" then "b"; the ε-successor of "b" finishes.
  SolveResult R = sat(re("ab"));
  ASSERT_TRUE(R.isSat());
  EXPECT_EQ(R.Stats.SolverSteps, 2u);
  EXPECT_EQ(R.Stats.DnfCalls, 2u);         // one δdnf per dequeued state
  EXPECT_EQ(R.Stats.ArcsEnumerated, 2u);   // a→"b", b→ε
  EXPECT_EQ(R.Stats.PeakFrontier, 1u);     // chain: frontier never grows
  EXPECT_EQ(R.StatesExplored, 3u);         // "ab", "b", ε
  EXPECT_GT(R.Stats.DerivativeCalls, 0u);
  EXPECT_GT(R.Stats.ArenaNodes, 0u);
  EXPECT_GE(R.Stats.TotalUs, R.Stats.DeriveUs + R.Stats.DnfUs);
}

TEST_F(SolverTest, DisjointIntersectionCountsOnePrunedStep) {
  // "a&b" with disjoint alphabets dies after a single expansion.
  SolveResult R = sat(M.inter(re("a"), re("b")));
  ASSERT_TRUE(R.isUnsat());
  EXPECT_EQ(R.Stats.SolverSteps, 1u);
  EXPECT_EQ(R.Stats.DnfCalls, 1u);
  EXPECT_EQ(R.Stats.ArcsEnumerated, 0u); // δ(a&b) simplifies to ⊥
  EXPECT_EQ(R.StatesExplored, 1u);
}

TEST_F(SolverTest, MemoizedRepeatQueryDoesNoDerivativeWork) {
  Re R = re("(ab)+&(ba)+");
  SolveResult First = S.checkSat(R);
  ASSERT_TRUE(First.isUnsat());
  EXPECT_GT(First.Stats.DerivativeCalls, 0u);
  // The dead-state fact persists in the derivative graph: the second query
  // answers from the graph without a single derivative or arena node.
  SolveResult Second = S.checkSat(R);
  ASSERT_TRUE(Second.isUnsat());
  EXPECT_EQ(Second.Stats.DerivativeCalls, 0u);
  EXPECT_EQ(Second.Stats.ArenaNodes, 0u);
  EXPECT_EQ(Second.Stats.SolverSteps, 0u);
}
#endif // SBD_OBS

TEST_F(SolverTest, EmptinessAgreesWithMatcherSampling) {
  // If the solver says unsat, no sampled word may match; if sat, the
  // witness matches (checked in sat()).
  Rng Rand(7);
  const char *Pool[] = {"a",      "ab",      "a*",        "a|b",
                        "~(ab)",  "a&b",     "(a|b)*abb", "a{2,4}",
                        ".*a.*",  "~(.*a.*)", "a+&~(a{3})", "ab&ba"};
  for (const char *P1 : Pool)
    for (const char *P2 : Pool) {
      Re R = M.inter(re(P1), re(P2));
      SolveResult Res = sat(R);
      ASSERT_NE(Res.Status, SolveStatus::Unknown);
      if (Res.isUnsat()) {
        for (int I = 0; I != 40; ++I) {
          std::vector<uint32_t> W;
          size_t Len = Rand.below(5);
          for (size_t J = 0; J != Len; ++J)
            W.push_back(Rand.chance(1, 2) ? 'a' : 'b');
          EXPECT_FALSE(E.matches(R, W))
              << M.toString(R) << " claimed unsat but matches a word";
        }
      }
    }
}

TEST_F(SolverTest, WarmSolverRepeatsItsAnswers) {
  // The first query expands each vertex; later ones re-expand the vertices
  // it closed through the same memoized δdnf, so a warm solver must give
  // the same verdict, witness and state count every time.
  for (const char *P : {"(a|b)*abb&~(.*bbb.*)", "(a|b)*abb"}) {
    Re R = re(P);
    SolveResult First = S.checkSat(R);
    ASSERT_TRUE(First.isSat()) << P;
    EXPECT_TRUE(E.matches(R, First.Witness)) << P;
    for (int I = 0; I != 2; ++I) {
      SolveResult Again = S.checkSat(R);
      EXPECT_EQ(Again.Status, First.Status) << P;
      EXPECT_EQ(Again.Witness, First.Witness) << P;
      EXPECT_EQ(Again.StatesExplored, First.StatesExplored) << P;
    }
  }
}

TEST_F(SolverTest, RepeatedWitnessChecksKeepTheirAnswers) {
  Re R = re("(a|b)*abb");
  std::vector<uint32_t> Yes = fromUtf8("aababb"), No = fromUtf8("abba");
  // Repeated checks against the same regex run on a warm derivative memo;
  // the answers must not drift as it fills.
  for (int I = 0; I != 200; ++I) {
    EXPECT_TRUE(S.matchesWord(R, Yes));
    EXPECT_FALSE(S.matchesWord(R, No));
  }
}

TEST_F(SolverTest, MatchesWordAgreesWithTheBrzozowskiMatcher) {
  const char *Patterns[] = {"(a|b)*abb",   "~(.*aa.*)&[ab]*", "a{2,4}b?",
                            ".*\\d.*&~(.*x.*)", "()",            "[]",
                            "(ab)*c"};
  const char *Words[] = {"",     "abb", "aababb", "abba", "zabb",
                         "aa",   "aab", "ab1",    "x1",   "ababc"};
  for (const char *P : Patterns) {
    Re R = re(P);
    for (const char *Text : Words) {
      std::vector<uint32_t> W = fromUtf8(Text);
      EXPECT_EQ(S.matchesWord(R, W), E.matches(R, W))
          << "pattern " << P << " word \"" << Text << "\"";
    }
  }
  // Each kind of answer is covered: accepted, rejected at the end of the
  // word, dead at the first character, and the empty word both ways.
  Re R = re("(a|b)*abb");
  EXPECT_TRUE(S.matchesWord(R, fromUtf8("aababb")));
  EXPECT_FALSE(S.matchesWord(R, fromUtf8("abba")));
  ASSERT_EQ(T.apply(E.derivativeDnf(R), 'z'), M.empty());
  EXPECT_FALSE(S.matchesWord(R, fromUtf8("zabb")));
  EXPECT_FALSE(S.matchesWord(R, {}));
  EXPECT_TRUE(S.matchesWord(re("(ab)*"), {}));
}

TEST_F(SolverTest, MatchesWordRejectsCharactersOutsideTheDomain) {
  // Cached witnesses are untrusted input: a character above MaxCodePoint
  // is in no language, including ones that accept every in-domain word.
  // 0x200061 would alias 'a' on the next node id in a 21-bit memo key.
  const uint32_t Outside[] = {MaxCodePoint + 1, 0x200061u, 0xFFFFFFFFu};
  for (const char *P : {".*", "~(a)", "(ab)*c", "()"}) {
    Re R = re(P);
    for (uint32_t Ch : Outside) {
      EXPECT_FALSE(S.matchesWord(R, {Ch})) << P << " " << Ch;
      EXPECT_FALSE(S.matchesWord(R, {'a', Ch})) << P << " " << Ch;
    }
  }
}

#if SBD_OBS
TEST_F(SolverTest, WitnessCheckAfterAntimirovWalksNoDnf) {
  // The Antimirov route never asks δdnf, so a δdnf walk would build one per
  // witness state; the classical walk takes one concrete step per character.
  portfolio::SolverStack W;
  Re R = parseRegexOrDie(W.M, "(ab)*c");
  SolveResult Res = W.P.checkSat(R);
  ASSERT_TRUE(Res.isSat()) << Res.Note;
  ASSERT_EQ(Res.Stats.Engine, SolveEngine::Antimirov);
  const obs::MetricShard Before = obs::tlsShard();
  EXPECT_TRUE(W.S.matchesWord(R, Res.Witness));
  const obs::MetricShard D = obs::tlsShard().since(Before);
  EXPECT_EQ(D.get(obs::Counter::DnfCalls), 0u);
  EXPECT_GT(D.get(obs::Counter::BrzozowskiCalls), 0u);
}
#endif

#if SBD_OBS
TEST_F(SolverTest, KWayContainsDistributesEachProductOnce) {
  // Six "contains cᵢ" conjuncts and six "no cᵢcᵢ" complements: every
  // derivative is a 12-way `&` whose δdnf re-asks the same (term, path)
  // sub-products many times over unless the product memos answer them.
  std::string Pattern;
  for (char C = 'a'; C != 'g'; ++C)
    Pattern += std::string(C == 'a' ? "" : "&") + "(.*" + C + ".*)";
  for (char C = 'a'; C != 'g'; ++C)
    Pattern += std::string("&~(.*") + C + C + ".*)";
  portfolio::SolverStack W;
  Re R = parseRegexOrDie(W.M, Pattern);
  SolveResult Res = W.S.checkSat(R);
  ASSERT_TRUE(Res.isSat()) << Res.Note;
  EXPECT_TRUE(W.S.matchesWord(R, Res.Witness));
  EXPECT_LT(Res.Stats.DnfBranchesExplored, 30000u);
}
#endif

TEST_F(SolverTest, SolveOnStackChecksWitnessesWithoutBuildingMatchers) {
  // A literal, a Kleene-only pattern the portfolio routes to Antimirov, and
  // a Boolean one the derivative engine answers, each on a fresh stack as
  // the batch and dist workers run them.
  struct Case {
    const char *Pattern;
    SolveEngine Engine;
  };
  const Case Cases[] = {{"hello", SolveEngine::DerivBfs},
                        {"(ab)*c", SolveEngine::Antimirov},
                        {"(a|b)*&~(.*aa.*)&.*bb.*", SolveEngine::DerivBfs}};
  for (const Case &C : Cases) {
    portfolio::SolverStack W;
    BatchQuery Q;
    Q.Pattern = C.Pattern;
#if SBD_OBS
    const obs::MetricShard Before = obs::tlsShard();
#endif
    BatchResult Out = portfolio::solveOnStack(W, Q);
#if SBD_OBS
    // The witness check walks δdnf: no lazy-DFA rows, no minterm classes.
    const obs::MetricShard D = obs::tlsShard().since(Before);
    EXPECT_EQ(D.get(obs::Counter::DfaStatesBuilt), 0u) << C.Pattern;
    EXPECT_EQ(D.get(obs::Counter::AlphabetMinterms), 0u) << C.Pattern;
#endif
    ASSERT_TRUE(Out.ParseOk) << C.Pattern;
    ASSERT_TRUE(Out.Result.isSat()) << C.Pattern << ": " << Out.Result.Note;
    EXPECT_EQ(Out.Result.Stats.Engine, C.Engine) << C.Pattern;
    Re R = parseRegexOrDie(W.M, C.Pattern);
    EXPECT_TRUE(W.E.matches(R, Out.Result.Witness)) << C.Pattern;
    EXPECT_TRUE(W.S.matchesWord(R, Out.Result.Witness)) << C.Pattern;
  }
}

} // namespace
