//===- baselines/BrzozowskiMintermSolver.cpp - Global mintermization --------===//

#include "baselines/BrzozowskiMintermSolver.h"

#include "charset/AlphabetCompressor.h"
#include "solver/WitnessSearch.h"
#include "support/Stopwatch.h"

using namespace sbd;

SolveResult BrzozowskiMintermSolver::solve(Re R, const SolveOptions &Opts) {
  Stopwatch Timer;
  RegexManager &M = Engine.regexManager();
  SolveResult Result;
  Result.Stats.Engine = SolveEngine::BrzMinterm;

  // Eager alphabet finitization: one representative per minterm of ΨR.
  // D_a(R') = D_b(R') for â = b̂ whenever R' is a derivative of R, so the
  // representatives cover all behaviours (Theorem 7.1's argument).
  AlphabetCompressor Compressor(M.collectPredicates(R));
  std::vector<uint32_t> Letters;
  Letters.reserve(Compressor.numClasses());
  for (uint32_t Cls = 0; Cls != Compressor.numClasses(); ++Cls)
    Letters.push_back(Compressor.representative(static_cast<uint16_t>(Cls)));

  size_t Steps = 0;
  auto kind = [&](Re Next) {
    return M.nullable(Next) ? VertexKind::Final : VertexKind::Open;
  };
  auto proceed = [&](size_t Reached, size_t) {
    if (Opts.MaxStates && Reached > Opts.MaxStates)
      return WitnessSearch::stop(Result, StopReason::StateBudget,
                                 "state budget exhausted");
    if (Opts.TimeoutMs > 0 && (++Steps & 0x0F) == 0 &&
        Timer.elapsedMs() > Opts.TimeoutMs)
      return WitnessSearch::stop(Result, StopReason::Timeout, "timeout");
    return true;
  };
  // Branch over every letter of the finitized alphabet.
  auto expand = [&](Re Cur, std::vector<SearchArc> &Out) {
    for (uint32_t Ch : Letters) {
      Re Next = Engine.brzozowski(Cur, Ch);
      if (Next != M.empty())
        Out.push_back(SearchArc{Ch, Next});
    }
    return true;
  };

  WitnessSearch().run(R, SearchStrategy::Bfs, Result, kind, proceed, expand);
  Result.TimeUs = Timer.elapsedUs();
  Result.Stats.TotalUs = Result.TimeUs;
  Result.Stats.SearchUs = Result.TimeUs;
  return Result;
}
