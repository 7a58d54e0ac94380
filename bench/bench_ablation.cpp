//===- bench/bench_ablation.cpp - Design-choice ablations --------------------===//
///
/// \file
/// Ablations for the implementation choices DESIGN.md calls out:
///
///  1. search order — BFS (shortest witness) vs DFS (SMT-backtracking
///     style) on satisfiable instances with deep models;
///  2. eager-pipeline minimization — determinize vs determinize+minimize
///     (the intro's "after the fact" remark), on the blowup family.
///
//===----------------------------------------------------------------------===//

#include "BenchArgs.h"

#include "automata/EagerSolver.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <string>

using namespace sbd;

namespace {

SolveResult solveFresh(const std::string &Pattern, SearchStrategy Strategy,
                       const SolveOptions &Base) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver S(E);
  SolveOptions Opts = Base;
  Opts.Strategy = Strategy;
  return S.checkSat(parseRegexOrDie(M, Pattern), Opts);
}

} // namespace

int main(int Argc, char **Argv) {
  BenchArgs Args = BenchArgs::parse(Argc, Argv);
  if (Args.Opts.TimeoutMs < 1000)
    Args.Opts.TimeoutMs = 1000;

  std::printf("== Ablation 1: BFS vs DFS exploration (sat, deep models) ==\n");
  std::printf("%-34s %12s %12s\n", "instance", "bfs states", "dfs states");
  for (uint32_t K : {4u, 6u, 8u, 10u}) {
    std::string P =
        "~(.*a.{" + std::to_string(K) + "})&.*b.{" + std::to_string(K) + "}";
    SolveResult Bfs = solveFresh(P, SearchStrategy::Bfs, Args.Opts);
    SolveResult Dfs = solveFresh(P, SearchStrategy::Dfs, Args.Opts);
    std::printf("%-34s %12zu %12zu\n", P.c_str(), Bfs.StatesExplored,
                Dfs.StatesExplored);
  }

  std::printf("\n== Ablation 2: eager pipeline, minimize after the fact ==\n");
  std::printf("%-34s %14s %14s\n", "instance", "plain states",
              "minimized states");
  for (uint32_t K : {4u, 6u, 8u}) {
    std::string P =
        "(.*a.{" + std::to_string(K) + "})&(.*b.{" + std::to_string(K) + "})";
    RegexManager M1;
    EagerSolver Plain(M1);
    SolveResult R1 = Plain.solve(parseRegexOrDie(M1, P), Args.Opts);
    RegexManager M2;
    EagerSolver Min(M2, EagerSolver::Policy::DeterminizeMinimize);
    SolveResult R2 = Min.solve(parseRegexOrDie(M2, P), Args.Opts);
    std::printf("%-34s %9zu/%4.0fms %9zu/%4.0fms\n", P.c_str(),
                Plain.lastStatesBuilt(),
                static_cast<double>(R1.TimeUs) / 1000.0,
                Min.lastStatesBuilt(),
                static_cast<double>(R2.TimeUs) / 1000.0);
  }

  std::printf("\ninterpretation: DFS removes the frontier blowup on deep sat\n"
              "instances; minimization shrinks the eager pipeline's *output* but not\n"
              "its peak, so it cannot rescue the blowup family.\n");
  return 0;
}
