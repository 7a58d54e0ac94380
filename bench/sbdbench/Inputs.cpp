//===- bench/sbdbench/Inputs.cpp - Seeded query streams -------------------===//

#include "Bench.h"

#include "Workloads.h"
#include "support/Rng.h"

#include <string>
#include <utility>

using namespace sbd;
using namespace sbdbench;

namespace {

/// Queries per unit of generator scale: the summed paper counts of the
/// Non-Boolean and Boolean suites (the 89 handwritten instances come on top).
constexpr double QueriesPerScale = 5452 + 1976 + 813 + 343 + 147 + 55 + 100;

/// Seed-shuffles \p V in place and keeps its first \p N elements.
void shuffleTake(std::vector<Query> &V, uint64_t Seed, size_t N) {
  Rng R(Seed);
  if (N > V.size())
    N = V.size();
  for (size_t I = 0; I != N; ++I)
    std::swap(V[I], V[I + R.below(V.size() - I)]);
  V.resize(N);
}

} // namespace

std::vector<Query> sbdbench::corpusStream(uint64_t Seed, size_t N) {
  double Scale = static_cast<double>(N) / QueriesPerScale + 0.001;
  std::vector<BenchSuite> Suites = nonBooleanSuites(Scale, Seed);
  for (BenchSuite &S : booleanSuites(Scale, Seed))
    Suites.push_back(std::move(S));
  for (BenchSuite &S : handwrittenSuites())
    Suites.push_back(std::move(S));
  std::vector<Query> Out;
  for (BenchSuite &S : Suites)
    for (BenchInstance &I : S.Instances)
      Out.push_back({std::move(I.Pattern), I.ExpectedSat});
  shuffleTake(Out, Seed, N);
  return Out;
}

namespace {

/// The Boolean-heavy pool: the handwritten families plus the shapes where
/// the derivative engine's Boolean handling dominates the query. The
/// `~(.*a.{k})&.*b.{k}` range ends at k=11, the last k whose BFS solve
/// stays under 0.4x the 250 ms budget on the reference host (k=12 needs
/// 0.66x; k=13 times out).
std::vector<Query> booleanPool() {
  std::vector<Query> Pool;
  for (BenchSuite &S : handwrittenSuites())
    for (BenchInstance &I : S.Instances)
      Pool.push_back({std::move(I.Pattern), I.ExpectedSat});
  auto dot = [](uint32_t K) { return ".{" + std::to_string(K) + "}"; };
  for (uint32_t K = 2; K <= 14; ++K) {
    Pool.push_back({"(.*a" + dot(K) + ")&(.*b" + dot(K) + ")", false});
    Pool.push_back({"(.*a" + dot(K) + ".*)&(.*b" + dot(K) + ".*)", true});
  }
  for (uint32_t K = 2; K <= 11; ++K)
    Pool.push_back({"~(.*a" + dot(K) + ")&.*b" + dot(K), true});
  // bench_scaling's families: k-way "contains cᵢ", the same under a length
  // window too short to fit k characters, and with k complements.
  auto contains = [](uint32_t K) {
    std::string Conj;
    for (uint32_t I = 0; I != K; ++I)
      Conj += std::string(I ? "&" : "") + "(.*" + char('a' + I) + ".*)";
    return Conj;
  };
  for (uint32_t K = 2; K <= 9; ++K)
    Pool.push_back({contains(K), true});
  for (uint32_t K = 2; K <= 9; ++K)
    Pool.push_back(
        {contains(K) + "&.{0," + std::to_string(K - 1) + "}", false});
  for (uint32_t K = 2; K <= 7; ++K) {
    std::string Pattern = contains(K);
    for (uint32_t I = 0; I != K; ++I)
      Pattern += std::string("&~(.*") + char('a' + I) + char('a' + I) + ".*)";
    Pool.push_back({Pattern, true});
  }
  return Pool;
}

} // namespace

std::vector<Query> sbdbench::booleanHardStream(uint64_t Seed, size_t N) {
  const std::vector<Query> Pool = booleanPool();
  std::vector<Query> Out;
  Out.reserve(N + Pool.size());
  Rng R(Seed);
  while (Out.size() < N) {
    std::vector<Query> Round = Pool;
    shuffleTake(Round, R.next(), Round.size());
    for (Query &Q : Round)
      Out.push_back(std::move(Q));
  }
  Out.resize(N);
  return Out;
}
