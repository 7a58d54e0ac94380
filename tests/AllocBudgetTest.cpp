//===- tests/AllocBudgetTest.cpp - Heap allocations per solver step ---------===//
//
// One expansion of RegexSolver::checkSat (δ, δdnf, the arc walk, the graph
// update) reuses its buffers, so a query's heap allocations come from
// growth of arenas, pools and memo tables, not from each step. This binary
// replaces the global operator new with a counting one and holds three
// Boolean-heavy queries, each solved on a fresh stack, to fewer than one
// allocation per solver step.
//
// Audit builds (SBD_AUDIT) re-verify arenas inside the solver and allocate
// for it, so the budget is skipped there.
//
//===----------------------------------------------------------------------===//

#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include <gtest/gtest.h>

namespace {
std::atomic<uint64_t> NumAllocs{0};
} // namespace

// Out of line, as are the deletes: GCC 12 warns (-Wmismatched-new-delete)
// when inlining pairs a malloc() or free() with the other side's operator.
[[gnu::noinline]] void *operator new(std::size_t Size) {
  NumAllocs.fetch_add(1, std::memory_order_relaxed);
  if (void *P = std::malloc(Size ? Size : 1))
    return P;
  throw std::bad_alloc();
}
[[gnu::noinline]] void operator delete(void *P) noexcept { std::free(P); }
[[gnu::noinline]] void operator delete(void *P, std::size_t) noexcept {
  std::free(P);
}

using namespace sbd;

namespace {

struct Budget {
  uint64_t Allocs = 0;
  size_t Steps = 0;
};

/// Solves \p Pattern on a fresh stack and counts the heap allocations the
/// solve makes (parsing excluded).
Budget solveCounting(const std::string &Pattern) {
  portfolio::SolverStack W;
  Re R = parseRegexOrDie(W.M, Pattern);
  const uint64_t Before = NumAllocs.load(std::memory_order_relaxed);
  SolveResult Res = W.S.checkSat(R);
  Budget B;
  B.Allocs = NumAllocs.load(std::memory_order_relaxed) - Before;
  B.Steps = Res.Stats.SolverSteps;
  EXPECT_TRUE(Res.isSat() || Res.isUnsat()) << Pattern;
  return B;
}

std::string contains(char Last) {
  std::string Out;
  for (char C = 'a'; C <= Last; ++C)
    Out += std::string(C == 'a' ? "" : "&") + "(.*" + C + ".*)";
  return Out;
}

void expectUnderOnePerStep(const std::string &Pattern) {
#if SBD_AUDIT
  GTEST_SKIP() << "audit builds allocate inside the solver";
#endif
  const Budget B = solveCounting(Pattern);
  ASSERT_GT(B.Steps, 0u) << Pattern;
  // Arena growth allocates, so a zero count would mean the library does
  // not call this operator new and the budget below proves nothing.
  EXPECT_GT(B.Allocs, 0u) << Pattern;
  EXPECT_LT(static_cast<double>(B.Allocs) / static_cast<double>(B.Steps), 1.0)
      << Pattern << ": " << B.Allocs << " allocations in " << B.Steps
      << " steps";
}

TEST(AllocBudgetTest, ComplementOfSuffixWindow) {
  expectUnderOnePerStep("~(.*a.{8})&.*b.{8}");
}

TEST(AllocBudgetTest, SevenWayContainsWithSevenComplements) {
  std::string Pattern = contains('g');
  for (char C = 'a'; C <= 'g'; ++C)
    Pattern += std::string("&~(.*") + C + C + ".*)";
  expectUnderOnePerStep(Pattern);
}

TEST(AllocBudgetTest, NineWayContainsUnderShortWindow) {
  expectUnderOnePerStep(contains('i') + "&.{0,8}");
}

} // namespace
