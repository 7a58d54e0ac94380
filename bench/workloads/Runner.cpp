//===- workloads/Runner.cpp - Cross-solver benchmark harness -----------------===//

#include "Runner.h"

#include "automata/EagerSolver.h"
#include "baselines/AntimirovSolver.h"
#include "baselines/BrzozowskiMintermSolver.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "support/Debug.h"

#include <algorithm>

using namespace sbd;

const char *sbd::solverName(SolverKind Kind) {
  switch (Kind) {
  case SolverKind::SymbolicDerivative:
    return "sbd(dZ3)";
  case SolverKind::EagerAutomata:
    return "eager-dfa";
  case SolverKind::EagerMinimize:
    return "eager-min";
  case SolverKind::BrzozowskiMinterm:
    return "brz-minterm";
  case SolverKind::Antimirov:
    return "antimirov";
  }
  return "?";
}

std::vector<SolverKind> sbd::allSolvers() {
  return {SolverKind::SymbolicDerivative, SolverKind::EagerAutomata,
          SolverKind::EagerMinimize, SolverKind::BrzozowskiMinterm,
          SolverKind::Antimirov};
}

RunRecord sbd::BenchRunner::runOne(SolverKind Kind,
                                   const BenchInstance &Inst) {
  // Fresh arenas per run: no derivative caches or dead-state knowledge
  // leaks across instances or solvers.
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);

  RunRecord Rec;
  RegexParseResult Parsed = parseRegex(M, Inst.Pattern);
  if (!Parsed.Ok) {
    Rec.Status = SolveStatus::Unsupported;
    return Rec;
  }
  Re R = Parsed.Value;

  SolveResult Res;
  switch (Kind) {
  case SolverKind::SymbolicDerivative: {
    RegexSolver S(E);
    // Depth-first matches the backtracking search of the SMT integration.
    SolveOptions Dz3Opts = Opts;
    Dz3Opts.Strategy = SearchStrategy::Dfs;
    Res = S.checkSat(R, Dz3Opts);
    break;
  }
  case SolverKind::EagerAutomata: {
    EagerSolver S(M);
    Res = S.solve(R, Opts);
    break;
  }
  case SolverKind::EagerMinimize: {
    EagerSolver S(M, EagerSolver::Policy::DeterminizeMinimize);
    Res = S.solve(R, Opts);
    break;
  }
  case SolverKind::BrzozowskiMinterm: {
    BrzozowskiMintermSolver S(E);
    Res = S.solve(R, Opts);
    break;
  }
  case SolverKind::Antimirov: {
    analysis::RegexAnalyzer A(M);
    AntimirovSolver S(M, A);
    Res = S.solve(R, Opts);
    break;
  }
  }
  Rec.Status = Res.Status;
  Rec.TimeUs = Res.TimeUs;
  Rec.States = Res.StatesExplored;
  return Rec;
}

std::optional<bool> sbd::BenchRunner::referenceLabel(
    const BenchInstance &Inst) {
  if (Inst.ExpectedSat.has_value())
    return Inst.ExpectedSat;
  auto Cached = LabelCache.find(Inst.Name);
  if (Cached != LabelCache.end())
    return Cached->second;
  // Reference pass with a 10x budget, like the paper's use of a trained
  // baseline solver to label unlabeled benchmarks.
  SolveOptions RefOpts = Opts;
  if (RefOpts.TimeoutMs > 0)
    RefOpts.TimeoutMs *= 10;
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexParseResult Parsed = parseRegex(M, Inst.Pattern);
  if (!Parsed.Ok)
    return std::nullopt;
  RegexSolver S(E);
  SolveResult Res = S.checkSat(Parsed.Value, RefOpts);
  std::optional<bool> Label;
  if (Res.Status == SolveStatus::Sat)
    Label = true;
  else if (Res.Status == SolveStatus::Unsat)
    Label = false;
  LabelCache.emplace(Inst.Name, Label);
  return Label;
}

Aggregate sbd::BenchRunner::runSuites(SolverKind Kind,
                                      const std::vector<BenchSuite> &Suites) {
  Aggregate Agg;
  std::vector<double> AllTimesMs;
  double TimeoutMs = Opts.TimeoutMs > 0
                         ? static_cast<double>(Opts.TimeoutMs)
                         : 10000.0;
  for (const BenchSuite &Suite : Suites) {
    for (const BenchInstance &Inst : Suite.Instances) {
      ++Agg.Total;
      RunRecord Rec = runOne(Kind, Inst);
      std::optional<bool> Label = referenceLabel(Inst);
      bool Answered = Rec.Status == SolveStatus::Sat ||
                      Rec.Status == SolveStatus::Unsat;
      bool Correct =
          Answered &&
          (!Label.has_value() || *Label == (Rec.Status == SolveStatus::Sat));
      if (Answered && !Correct)
        ++Agg.Wrong;
      if (Rec.Status == SolveStatus::Unsupported)
        ++Agg.Unsupported;
      if (Correct) {
        ++Agg.Solved;
        double Ms = static_cast<double>(Rec.TimeUs) / 1000.0;
        Agg.SolvedTimesMs.push_back(Ms);
        AllTimesMs.push_back(Ms);
      } else {
        // Errors, wrong answers and budget exhaustion are charged the full
        // timeout, as in the paper's methodology.
        AllTimesMs.push_back(TimeoutMs);
      }
    }
  }
  if (!AllTimesMs.empty()) {
    double Sum = 0;
    for (double Ms : AllTimesMs)
      Sum += Ms;
    Agg.AvgTimeMs = Sum / static_cast<double>(AllTimesMs.size());
    std::sort(AllTimesMs.begin(), AllTimesMs.end());
    Agg.MedianTimeMs = AllTimesMs[AllTimesMs.size() / 2];
  }
  std::sort(Agg.SolvedTimesMs.begin(), Agg.SolvedTimesMs.end());
  return Agg;
}
