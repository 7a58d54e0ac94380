//===- bench/bench_micro.cpp - Microbenchmarks (google-benchmark) -----------===//
///
/// \file
/// Microbenchmarks for the primitives whose cost the paper's design
/// arguments hinge on: character-algebra operations, derivative and DNF
/// computation, the matcher, SBFA construction, and end-to-end solver
/// queries on the running examples.
///
//===----------------------------------------------------------------------===//

#include "automata/Sbfa.h"
#include "charset/Bdd.h"
#include "core/CachedMatcher.h"
#include "baselines/AntimirovSolver.h"
#include "baselines/BrzozowskiMintermSolver.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"
#include "support/Metrics.h"

#include <benchmark/benchmark.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace sbd;

namespace {

const char *PasswordPattern =
    "(.*\\d.*)&(.*[a-z].*)&(.*[A-Z].*)&(.*[!@#$%^&+=].*)&.{8,128}"
    "&~(.*\\s.*)&~(.*01.*)";
const char *DatePattern =
    "\\d{4}-[a-zA-Z]{3}-\\d{2}&(2019.*|2020.*)";

void BM_CharSetIntersect(benchmark::State &State) {
  CharSet A = CharSet::word();
  CharSet B = CharSet::fromRanges({{'0', '9'}, {'A', 'F'}, {0x100, 0x2FF}});
  for (auto _ : State)
    benchmark::DoNotOptimize(A.intersectWith(B));
}
BENCHMARK(BM_CharSetIntersect);

void BM_CharSetMinterms(benchmark::State &State) {
  std::vector<CharSet> Sets;
  for (int I = 0; I != static_cast<int>(State.range(0)); ++I)
    Sets.push_back(CharSet::range(static_cast<uint32_t>('a' + I),
                                  static_cast<uint32_t>('a' + I + 10)));
  for (auto _ : State)
    benchmark::DoNotOptimize(computeMinterms(Sets));
}
BENCHMARK(BM_CharSetMinterms)->Arg(4)->Arg(8)->Arg(16);

void BM_ParsePassword(benchmark::State &State) {
  for (auto _ : State) {
    RegexManager M;
    benchmark::DoNotOptimize(parseRegexOrDie(M, PasswordPattern));
  }
}
BENCHMARK(BM_ParsePassword);

void BM_DerivativeDnf(benchmark::State &State) {
  for (auto _ : State) {
    // Fresh arenas: measures uncached derivative + DNF computation.
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    Re R = parseRegexOrDie(M, PasswordPattern);
    benchmark::DoNotOptimize(E.derivativeDnf(R));
  }
}
BENCHMARK(BM_DerivativeDnf);

void BM_DerivativeChain(benchmark::State &State) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Re R = parseRegexOrDie(M, PasswordPattern);
  std::vector<uint32_t> Word;
  for (int I = 0; I != 64; ++I)
    Word.push_back("aB3!x"[I % 5]);
  for (auto _ : State) {
    Re Cur = R;
    for (uint32_t Ch : Word)
      Cur = T.apply(E.derivativeDnf(Cur), Ch);
    benchmark::DoNotOptimize(Cur);
  }
  State.counters["intern_hit%"] = M.stats().internHitRate() * 100.0;
  State.counters["memo_hit%"] = E.stats().memoHitRate() * 100.0;
  State.counters["avg_probe"] = M.stats().avgProbeLength();
}
BENCHMARK(BM_DerivativeChain);

void BM_InternRebuild(benchmark::State &State) {
  // Hash-consing hot loop: re-interning an already-present tree is the
  // single most frequent operation in derivative computation. Builds a
  // family of distinct regexes once, then measures rebuilding them (all
  // hits, exercising the open-addressing probe path).
  RegexManager M;
  auto build = [&](uint32_t I) {
    Re Word = M.literal("k" + std::to_string(I));
    return M.union_(M.concat(Word, M.star(M.chr('a' + I % 26))),
                    M.loop(M.chr('0' + I % 10), 1, 3 + I % 5));
  };
  for (uint32_t I = 0; I != 512; ++I)
    benchmark::DoNotOptimize(build(I));
  for (auto _ : State) {
    for (uint32_t I = 0; I != 512; ++I)
      benchmark::DoNotOptimize(build(I));
  }
  State.counters["intern_hit%"] = M.stats().internHitRate() * 100.0;
  State.counters["avg_probe"] = M.stats().avgProbeLength();
  State.counters["nodes"] = static_cast<double>(M.numNodes());
}
BENCHMARK(BM_InternRebuild);

void BM_MatcherLongInput(benchmark::State &State) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Re R = parseRegexOrDie(M, ".*(ab|ba){2}.*\\d.*");
  std::string Input;
  for (int I = 0; I != static_cast<int>(State.range(0)); ++I)
    Input.push_back("abx7"[I % 4]);
  for (auto _ : State)
    benchmark::DoNotOptimize(E.matches(R, Input));
}
BENCHMARK(BM_MatcherLongInput)->Arg(64)->Arg(1024);

void BM_SolverPassword(benchmark::State &State) {
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    RegexSolver S(E);
    benchmark::DoNotOptimize(S.checkSat(parseRegexOrDie(M, PasswordPattern)));
  }
}
BENCHMARK(BM_SolverPassword);

void BM_SolverDate(benchmark::State &State) {
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    RegexSolver S(E);
    benchmark::DoNotOptimize(S.checkSat(parseRegexOrDie(M, DatePattern)));
  }
}
BENCHMARK(BM_SolverDate);

void BM_SolverBlowupUnsat(benchmark::State &State) {
  std::string P = "(.*a.{" + std::to_string(State.range(0)) + "})&(.*b.{" +
                  std::to_string(State.range(0)) + "})";
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    RegexSolver S(E);
    benchmark::DoNotOptimize(S.checkSat(parseRegexOrDie(M, P)));
  }
}
BENCHMARK(BM_SolverBlowupUnsat)->Arg(4)->Arg(8);

/// k-way "contains cᵢ" plus k "no cᵢcᵢ" complements on a fresh stack: every
/// δdnf distributes a 2k-way `&`, so this times the δdnf product memos.
void BM_SolverKWayContains(benchmark::State &State) {
  const auto K = static_cast<char>(State.range(0));
  std::string P;
  for (char C = 'a'; C != 'a' + K; ++C)
    P += std::string(C == 'a' ? "" : "&") + "(.*" + C + ".*)";
  for (char C = 'a'; C != 'a' + K; ++C)
    P += std::string("&~(.*") + C + C + ".*)";
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    RegexSolver S(E);
    benchmark::DoNotOptimize(S.checkSat(parseRegexOrDie(M, P)));
  }
}
BENCHMARK(BM_SolverKWayContains)->Arg(4)->Arg(6);

/// ~(.*a.{k})&.*b.{k}: a 2-way `&` whose cost is the 2^k states the search
/// visits, not repeated products, so the δdnf memos should leave it flat.
void BM_SolverDeterminize(benchmark::State &State) {
  const std::string K = std::to_string(State.range(0));
  const std::string P = "~(.*a.{" + K + "})&.*b.{" + K + "}";
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    RegexSolver S(E);
    benchmark::DoNotOptimize(S.checkSat(parseRegexOrDie(M, P)));
  }
}
BENCHMARK(BM_SolverDeterminize)->Arg(8);

void BM_SbfaBuild(benchmark::State &State) {
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    benchmark::DoNotOptimize(
        Sbfa::build(E, parseRegexOrDie(M, PasswordPattern)));
  }
}
BENCHMARK(BM_SbfaBuild);

void BM_BaselineBrzMinterm(benchmark::State &State) {
  for (auto _ : State) {
    RegexManager M;
    TrManager T(M);
    DerivativeEngine E(M, T);
    BrzozowskiMintermSolver S(E);
    benchmark::DoNotOptimize(S.solve(parseRegexOrDie(M, PasswordPattern)));
  }
}
BENCHMARK(BM_BaselineBrzMinterm);

void BM_BddRoundTrip(benchmark::State &State) {
  // The alternative BDD algebra: encode + decode of a realistic class.
  CharSet S = CharSet::word().unionWith(CharSet::range(0x4E00, 0x9FFF));
  for (auto _ : State) {
    BddManager B;
    BddRef R = B.fromCharSet(S);
    benchmark::DoNotOptimize(B.toCharSet(R));
  }
}
BENCHMARK(BM_BddRoundTrip);

void BM_BddOpsVsIntervals(benchmark::State &State) {
  CharSet X = CharSet::word();
  CharSet Y = CharSet::fromRanges({{'0', '9'}, {0x100, 0x2FF}});
  BddManager B;
  BddRef Bx = B.fromCharSet(X), By = B.fromCharSet(Y);
  for (auto _ : State) {
    benchmark::DoNotOptimize(B.bddAnd(Bx, By));
    benchmark::DoNotOptimize(B.bddNot(Bx));
  }
}
BENCHMARK(BM_BddOpsVsIntervals);

void BM_CachedMatcherThroughput(benchmark::State &State) {
  // Repeated matching through the SRM-style cached transition table vs the
  // uncached derivative matcher (BM_MatcherLongInput).
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Re R = parseRegexOrDie(M, ".*(ab|ba){2}.*\\d.*");
  // Snapshot before construction: the compressor and the first DFA rows are
  // built inside the matcher constructor, and the exported counters must
  // cover them.
  obs::MetricShard Before = obs::MetricsRegistry::global().snapshot();
  CachedMatcher Matcher(E, R);
  std::string Input;
  for (int I = 0; I != static_cast<int>(State.range(0)); ++I)
    Input.push_back("abx7"[I % 4]);
  for (auto _ : State)
    benchmark::DoNotOptimize(Matcher.matches(Input));
  obs::MetricShard D = obs::MetricsRegistry::global().snapshot().since(Before);
  State.counters["states"] =
      static_cast<double>(Matcher.statesMaterialized());
  State.counters["memo_hit%"] = E.stats().memoHitRate() * 100.0;
  // Exported so the report shows the run really built DFA states over a
  // compressed alphabet (CachedMatcherTest asserts that both grow).
  State.counters["dfa_states_built"] =
      static_cast<double>(D.get(obs::Counter::DfaStatesBuilt));
  State.counters["alphabet_minterms"] =
      static_cast<double>(D.get(obs::Counter::AlphabetMinterms));
}
BENCHMARK(BM_CachedMatcherThroughput)->Arg(64)->Arg(1024);

void BM_GraphDeadStateReuse(benchmark::State &State) {
  // Measures the payoff of the persistent graph: re-proving emptiness of a
  // regex whose dead component is already recorded.
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver S(E);
  Re Dead = parseRegexOrDie(M, "(ab)+&(ba)+");
  (void)S.checkSat(Dead); // populate
  for (auto _ : State)
    benchmark::DoNotOptimize(S.checkSat(Dead));
}
BENCHMARK(BM_GraphDeadStateReuse);

} // namespace

/// Custom main so the harness accepts `--quick` (a short smoke run used by
/// scripts/check.sh) and `--json <path>` (machine-readable results, read
/// by scripts/ci/obs_overhead.sh) on top of the standard google-benchmark
/// flags.
int main(int Argc, char **Argv) {
  std::vector<char *> Args(Argv, Argv + Argc);
  static char MinTime[] = "--benchmark_min_time=0.01";
  static char OutFormat[] = "--benchmark_out_format=json";
  static std::string OutFlag;
  bool Quick = false;
  for (auto It = Args.begin(); It != Args.end();) {
    if (!std::strcmp(*It, "--quick")) {
      Quick = true;
      It = Args.erase(It);
    } else if (!std::strcmp(*It, "--json")) {
      It = Args.erase(It);
      if (It == Args.end()) {
        std::fprintf(stderr, "error: --json needs a path\n");
        return 1;
      }
      OutFlag = std::string("--benchmark_out=") + *It;
      It = Args.erase(It);
    } else {
      ++It;
    }
  }
  if (!OutFlag.empty()) {
    Args.insert(Args.begin() + 1, OutFormat);
    Args.insert(Args.begin() + 1, OutFlag.data());
  }
  if (Quick)
    Args.insert(Args.begin() + 1, MinTime);
  int NewArgc = static_cast<int>(Args.size());
  benchmark::Initialize(&NewArgc, Args.data());
  if (benchmark::ReportUnrecognizedArguments(NewArgc, Args.data()))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
