//===- tests/CorpusTest.cpp - End-to-end corpus round trip --------------------===//
///
/// \file
/// Golden end-to-end integration: every instance of the (downscaled)
/// benchmark corpus is rendered to an SMT-LIB script (re/SmtPrinter),
/// re-read and solved through the SMT front end (smt/SmtSolver), and the
/// verdict is compared with the instance's ground-truth label and with the
/// solver's direct answer. This chains regex parser → printer → s-expr
/// reader → theory compiler → Boolean fold → derivative solver,
/// exactly the path an external user of the exported corpus exercises.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "re/RegexParser.h"
#include "re/SmtPrinter.h"
#include "smt/SmtSolver.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class CorpusTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSolver Smt{Solver};

  void roundTrip(const BenchSuite &Suite) {
    SolveOptions Opts;
    Opts.MaxStates = 300000;
    Opts.Strategy = SearchStrategy::Dfs;
    for (const BenchInstance &Inst : Suite.Instances) {
      RegexParseResult Parsed = parseRegex(M, Inst.Pattern);
      ASSERT_TRUE(Parsed.Ok) << Inst.Name;
      std::string Script =
          regexToSmtScript(M, Parsed.Value, Inst.ExpectedSat);
      SmtResult Via = Smt.solveScript(Script, Opts);
      ASSERT_NE(Via.Status, SolveStatus::Unsupported)
          << Inst.Name << "\n" << Script << "\nnote: " << Via.Note;
      if (Via.Status == SolveStatus::Unknown)
        continue; // budget; direct solving may also time out
      if (Inst.ExpectedSat.has_value()) {
        EXPECT_EQ(Via.Status == SolveStatus::Sat, *Inst.ExpectedSat)
            << Inst.Name << "\n" << Script;
      } else {
        SolveResult Direct = Solver.checkSat(Parsed.Value, Opts);
        if (Direct.Status != SolveStatus::Unknown) {
          EXPECT_EQ(Via.Status, Direct.Status) << Inst.Name;
        }
      }
    }
  }
};

TEST_F(CorpusTest, HandwrittenSuitesRoundTrip) {
  for (const BenchSuite &Suite : handwrittenSuites())
    roundTrip(Suite);
}

TEST_F(CorpusTest, GeneratedSuitesRoundTrip) {
  for (const BenchSuite &Suite : nonBooleanSuites(0.01, 99))
    roundTrip(Suite);
  for (const BenchSuite &Suite : booleanSuites(0.05, 99))
    roundTrip(Suite);
}

TEST_F(CorpusTest, WarmGraphAnswersLikeAResetGraph) {
  // Dead ends settled at the end of one query feed the next query's bot
  // rule. That may shrink an exploration but never change its answer: each
  // query solved back to back on one graph must give the verdict and
  // witness it gives after resetGraph() (same arena).
  std::vector<Re> Queries;
  auto add = [&](const std::vector<BenchSuite> &Suites) {
    for (const BenchSuite &Suite : Suites)
      for (const BenchInstance &Inst : Suite.Instances)
        Queries.push_back(parseRegexOrDie(M, Inst.Pattern));
  };
  add(nonBooleanSuites(0.25, 7));
  add(booleanSuites(0.25, 7));
  add(handwrittenSuites());
  ASSERT_GE(Queries.size(), 2000u);

  SolveOptions Opts;
  Opts.MaxStates = 20000;
  std::vector<SolveResult> Warm;
  for (Re Q : Queries)
    Warm.push_back(Solver.checkSat(Q, Opts));
  size_t Pruned = 0;
  for (size_t I = 0; I != Queries.size(); ++I) {
    Solver.resetGraph();
    SolveResult Cold = Solver.checkSat(Queries[I], Opts);
    ASSERT_EQ(Warm[I].Status, Cold.Status) << M.toString(Queries[I]);
    EXPECT_EQ(Warm[I].Witness, Cold.Witness) << M.toString(Queries[I]);
    EXPECT_LE(Warm[I].StatesExplored, Cold.StatesExplored)
        << M.toString(Queries[I]);
    Pruned += Warm[I].StatesExplored < Cold.StatesExplored;
  }
  EXPECT_GT(Pruned, 0u); // the warm graph did prune
}

} // namespace
