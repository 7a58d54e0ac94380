//===- tests/CachedMatcherTest.cpp - SRM-style matcher tests -----------------===//

#include "core/CachedMatcher.h"

#include "re/RegexParser.h"
#include "support/Metrics.h"
#include "support/Rng.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

using namespace sbd;

namespace {

class CachedMatcherTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};

  Re re(const std::string &Pat) { return parseRegexOrDie(M, Pat); }
};

TEST_F(CachedMatcherTest, BasicAcceptance) {
  CachedMatcher Matcher(E, re("a*b"));
  EXPECT_TRUE(Matcher.matches(std::string("b")));
  EXPECT_TRUE(Matcher.matches(std::string("aaab")));
  EXPECT_FALSE(Matcher.matches(std::string("a")));
  EXPECT_FALSE(Matcher.matches(std::string("ba")));
  EXPECT_FALSE(Matcher.matches(std::string("")));
}

TEST_F(CachedMatcherTest, ExtendedOperators) {
  CachedMatcher Matcher(E, re("(.*\\d.*)&~(.*01.*)"));
  EXPECT_TRUE(Matcher.matches(std::string("x7y")));
  EXPECT_FALSE(Matcher.matches(std::string("x01y")));
  EXPECT_FALSE(Matcher.matches(std::string("xyz")));
  EXPECT_TRUE(Matcher.matches(std::string("0")));
  EXPECT_TRUE(Matcher.matches(std::string("10")));
}

TEST_F(CachedMatcherTest, StatesAreSharedAcrossCalls) {
  CachedMatcher Matcher(E, re("(a|b)*abb"));
  (void)Matcher.matches(std::string("abb"));
  size_t AfterFirst = Matcher.statesMaterialized();
  // Matching more strings over the same prefix structure reuses states.
  (void)Matcher.matches(std::string("aabb"));
  (void)Matcher.matches(std::string("babb"));
  (void)Matcher.matches(std::string("ababab"));
  size_t AfterMore = Matcher.statesMaterialized();
  // (a|b)*abb has exactly 4 Brzozowski classes over {a,b} plus possibly the
  // initial; the table must stay tiny, not grow per input.
  EXPECT_LE(AfterMore, AfterFirst + 4);
}

TEST_F(CachedMatcherTest, LazinessOnHugeRegex) {
  // Matching a short input against a regex with a large reachable space
  // must not materialize that space.
  CachedMatcher Matcher(E, re("(.*a.{40})&(.*b.{40})"));
  EXPECT_FALSE(Matcher.matches(std::string("ab")));
  EXPECT_LE(Matcher.statesMaterialized(), 8u);
}

TEST_F(CachedMatcherTest, UnicodeRanges) {
  CachedMatcher Matcher(E, re("[\\u4E00-\\u9FFF]+x?"));
  EXPECT_TRUE(Matcher.matches(std::string("\xE4\xB8\xAD")));
  EXPECT_TRUE(Matcher.matches(std::string("\xE4\xB8\xADx")));
  EXPECT_FALSE(Matcher.matches(std::string("x")));
}

TEST_F(CachedMatcherTest, BoundedCacheEvictsUnderPressure) {
  // .*a.{10} has ~2^10 reachable derivative states (which of the last 10
  // positions saw an 'a'); a cap of 64 forces the cache to evict while the
  // verdicts must stay identical to the uncached engine.
  Re R = re(".*a.{10}");
  CachedMatcher::Options Opts;
  Opts.MaxStates = 64;
  CachedMatcher Matcher(E, R, Opts);

  Rng Rand(7);
  for (int W = 0; W != 200; ++W) {
    std::vector<uint32_t> Word;
    size_t Len = Rand.below(40);
    for (size_t J = 0; J != Len; ++J)
      Word.push_back(Rand.below(4) ? 'b' : 'a');
    EXPECT_EQ(Matcher.matches(Word), E.matches(R, Word));
    EXPECT_LE(Matcher.statesMaterialized(), Opts.MaxStates)
        << "cache exceeded its cap";
  }
  EXPECT_GT(Matcher.evictions(), 0u) << "adversarial blowup never evicted";
  EXPECT_EQ(Matcher.auditRows(), 0u) << "post-eviction rows inconsistent";
}

TEST_F(CachedMatcherTest, TinyCapFallsBackAndStaysCorrect) {
  // A cap of 1 cannot hold any row's fan-out targets: after pinning the
  // expanding state there is no room, so matching degrades to the uncached
  // derivative path — and must still be exact.
  Re R = re("(a|b)*abb");
  CachedMatcher::Options Opts;
  Opts.MaxStates = 1;
  CachedMatcher Matcher(E, R, Opts);
  EXPECT_TRUE(Matcher.matches(std::string("abb")));
  EXPECT_TRUE(Matcher.matches(std::string("ababb")));
  EXPECT_FALSE(Matcher.matches(std::string("ab")));
  EXPECT_GT(Matcher.fallbackSteps(), 0u);
  EXPECT_LE(Matcher.statesMaterialized(), 1u);
}

TEST_F(CachedMatcherTest, AuditDetectsCorruptedRow) {
  CachedMatcher Matcher(E, re("(a|b)*abb"));
  (void)Matcher.matches(std::string("ababb"));
  ASSERT_EQ(Matcher.auditRows(), 0u) << "healthy cache must audit clean";
  // Redirect the initial state's 'a' transition to the dead sink; the row
  // re-derivation must flag exactly the corrupted entries.
  Matcher.corruptRowForTest(0, Matcher.compressor().classOf('a'), 0xFFFFFFFFu);
  EXPECT_GT(Matcher.auditRows(), 0u) << "corruption not detected";
}

#if SBD_OBS
TEST_F(CachedMatcherTest, MatchingCountsLazyDfaStatesAndMinterms) {
  // The matcher path builds DFA states over a compressed alphabet, and the
  // registry must see both (SolverTest's witness-check case asserts they
  // stay 0 on the solver path). The snapshot precedes construction: the
  // compressor and the first row are built in the constructor.
  const obs::MetricShard Before = obs::tlsShard();
  CachedMatcher Matcher(E, re(".*(ab|ba){2}.*\\d.*"));
  const obs::MetricShard Built = obs::tlsShard().since(Before);
  EXPECT_TRUE(Matcher.matches(std::string("xabba7")));
  const obs::MetricShard D = obs::tlsShard().since(Before);
  EXPECT_GT(D.get(obs::Counter::AlphabetMinterms), 0u);
  EXPECT_GT(D.get(obs::Counter::DfaStatesBuilt),
            Built.get(obs::Counter::DfaStatesBuilt));
}
#endif

TEST_F(CachedMatcherTest, LongTrafficStaysOnTheLazyRowsAndExact) {
  // One default-options matcher serves many words, well past 4,096
  // characters in total, through both matches() overloads; every answer
  // must agree with the uncached derivative matcher and every row must
  // still audit clean.
  Re R = re("(.*\\d.*)&~(.*01.*)");
  CachedMatcher Matcher(E, R);
  Rng Rand(2021);
  static const char Alphabet[] = {'0', '1', '7', 'x', 'y'};
  size_t Fed = 0;
  while (Fed <= 3 * 4096) {
    std::string Word;
    size_t Len = Rand.below(96);
    for (size_t J = 0; J != Len; ++J)
      Word.push_back(Alphabet[Rand.below(std::size(Alphabet))]);
    std::vector<uint32_t> Cps(Word.begin(), Word.end());
    bool Want = E.matches(R, Cps);
    ASSERT_EQ(Matcher.matches(Word), Want) << Word;
    ASSERT_EQ(Matcher.matches(Cps), Want) << Word;
    Fed += 2 * Len;
  }
  EXPECT_EQ(Matcher.auditRows(), 0u);
  EXPECT_EQ(Matcher.fallbackSteps(), 0u);
}

class CachedMatcherPropertyTest : public ::testing::TestWithParam<uint64_t> {
};

Re randomRegex(RegexManager &M, Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.below(4)) {
    case 0:
      return M.chr(static_cast<uint32_t>('a' + R.below(3)));
    case 1:
      return M.pred(CharSet::digit());
    case 2:
      return M.epsilon();
    default:
      return M.anyChar();
    }
  }
  switch (R.below(7)) {
  case 0:
    return M.concat(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 1:
    return M.union_(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 2:
    return M.inter(randomRegex(M, R, Depth - 1), randomRegex(M, R, Depth - 1));
  case 3:
    return M.star(randomRegex(M, R, Depth - 1));
  case 4:
    return M.complement(randomRegex(M, R, Depth - 1));
  default:
    return randomRegex(M, R, 0);
  }
}

TEST_P(CachedMatcherPropertyTest, AgreesWithUncachedMatcher) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Rng Rand(GetParam());
  static const uint32_t Alphabet[] = {'a', 'b', 'c', '5', 'z'};
  for (int I = 0; I != 6; ++I) {
    Re R = randomRegex(M, Rand, 4);
    CachedMatcher Matcher(E, R);
    for (int W = 0; W != 25; ++W) {
      std::vector<uint32_t> Word;
      size_t Len = Rand.below(6);
      for (size_t J = 0; J != Len; ++J)
        Word.push_back(Alphabet[Rand.below(std::size(Alphabet))]);
      EXPECT_EQ(Matcher.matches(Word), E.matches(R, Word))
          << "cached matcher disagrees on " << M.toString(R);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CachedMatcherPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
