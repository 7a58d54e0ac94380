//===- tests/TransitionRegexTest.cpp - TR algebra tests ---------------------===//

#include "core/TransitionRegex.h"

#include "core/Derivatives.h"
#include "fuzz/Generator.h"
#include "re/RegexParser.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace sbd;

namespace {

/// Language equality of two regexes checked by exhaustive matching of all
/// words up to length 3 over a small representative alphabet (plus the ε
/// case via nullability). Node equality is deliberately *not* required:
/// distributivity and De Morgan are not interning laws, so e.g.
/// ~(a|b) and ~a&~b are distinct nodes of the same language.
testing::AssertionResult sameLanguage(DerivativeEngine &E, Re A, Re B) {
  RegexManager &M = E.regexManager();
  if (A == B)
    return testing::AssertionSuccess();
  if (M.nullable(A) != M.nullable(B))
    return testing::AssertionFailure()
           << M.toString(A) << " vs " << M.toString(B) << ": ε disagrees";
  static const uint32_t Alphabet[] = {'a', 'b', '0', '1', '5',
                                      'z', '!', 0x4E2D};
  std::vector<std::vector<uint32_t>> Words = {{}};
  size_t Start = 0;
  for (int Len = 1; Len <= 3; ++Len) {
    size_t End = Words.size();
    for (size_t I = Start; I != End; ++I)
      for (uint32_t Ch : Alphabet) {
        Words.push_back(Words[I]);
        Words.back().push_back(Ch);
      }
    Start = End;
  }
  for (const auto &W : Words)
    if (E.matches(A, W) != E.matches(B, W))
      return testing::AssertionFailure()
             << M.toString(A) << " vs " << M.toString(B)
             << " disagree on a word of length " << W.size();
  return testing::AssertionSuccess();
}

class TrTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};

  Re re(const std::string &S) { return parseRegexOrDie(M, S); }
};

TEST_F(TrTest, LeafMergingThroughRegexAlgebra) {
  Tr A = T.leaf(re("ab"));
  Tr B = T.leaf(re("cd"));
  // Union of two leaves is one leaf over the regex union.
  Tr U = T.union2(A, B);
  ASSERT_EQ(T.kind(U), TrKind::Leaf);
  EXPECT_EQ(T.node(U).LeafRe, M.union_(re("ab"), re("cd")));
  // ⊥ is the unit, .* absorbs.
  EXPECT_EQ(T.union2(A, T.bot()), A);
  EXPECT_EQ(T.union2(A, T.topLeaf()), T.topLeaf());
  EXPECT_EQ(T.inter2(A, T.topLeaf()), A);
  EXPECT_EQ(T.inter2(A, T.bot()), T.bot());
}

TEST_F(TrTest, IteSimplifications) {
  CharSet D = CharSet::digit();
  Tr A = T.leaf(re("a"));
  Tr B = T.leaf(re("b"));
  EXPECT_EQ(T.ite(CharSet::full(), A, B), A);
  EXPECT_EQ(T.ite(CharSet(), A, B), B);
  EXPECT_EQ(T.ite(D, A, A), A);
  // Directly nested conditionals on the same predicate collapse.
  Tr Nested = T.ite(D, T.ite(D, A, B), B);
  EXPECT_EQ(Nested, T.ite(D, A, B));
}

TEST_F(TrTest, ApplySelectsBranch) {
  CharSet D = CharSet::digit();
  Tr Cond = T.ite(D, T.leaf(re("x")), T.leaf(re("y")));
  EXPECT_EQ(T.apply(Cond, '5'), re("x"));
  EXPECT_EQ(T.apply(Cond, 'q'), re("y"));
}

TEST_F(TrTest, NegationDualOnConditional) {
  // ~if(φ0, 1.*, ⊥) ≡ if(φ0, ~(1.*), .*)  — the Section 2 step.
  CharSet Zero = CharSet::singleton('0');
  Tr D = T.ite(Zero, T.leaf(re("1.*")), T.bot());
  Tr N = T.negate(D);
  ASSERT_EQ(T.kind(N), TrKind::Ite);
  EXPECT_EQ(T.condSet(N), Zero);
  EXPECT_EQ(T.kid(N, 0), T.leaf(M.complement(re("1.*"))));
  EXPECT_EQ(T.kid(N, 1), T.topLeaf());
}

TEST_F(TrTest, NegationIsInvolutive) {
  CharSet D = CharSet::digit();
  Tr X = T.inter2(T.ite(D, T.leaf(re("a*")), T.leaf(re("b"))),
                  T.union2(T.ite(CharSet::singleton('0'), T.bot(),
                                 T.leaf(re("c"))),
                           T.leaf(re("d?e"))));
  EXPECT_EQ(T.negate(T.negate(X)), X);
}

TEST_F(TrTest, NegationAgreesWithApply) {
  // Lemma 4.2 sampled: L((~τ)(a)) = L(~(τ(a))).
  DerivativeEngine E(M, T);
  CharSet D = CharSet::digit();
  Tr X = T.union2(T.ite(D, T.leaf(re("ab")), T.leaf(re("c*"))),
                  T.leaf(re("de")));
  Tr N = T.negate(X);
  for (uint32_t Ch : {uint32_t('0'), uint32_t('z'), uint32_t(0x1F600)})
    EXPECT_TRUE(sameLanguage(E, T.apply(N, Ch),
                             M.complement(T.apply(X, Ch))));
}

TEST_F(TrTest, ConcatDistributesOverStructure) {
  CharSet D = CharSet::digit();
  Re Tail = re("xyz");
  Tr Cond = T.ite(D, T.leaf(re("a")), T.leaf(re("b")));
  Tr CR = T.concatRe(Cond, Tail);
  ASSERT_EQ(T.kind(CR), TrKind::Ite);
  EXPECT_EQ(T.kid(CR, 0), T.leaf(M.concat(re("a"), Tail)));
  EXPECT_EQ(T.kid(CR, 1), T.leaf(M.concat(re("b"), Tail)));
  // τ · ε = τ, τ · ⊥ = ⊥.
  EXPECT_EQ(T.concatRe(Cond, M.epsilon()), Cond);
  EXPECT_EQ(T.concatRe(Cond, M.empty()), T.bot());
}

TEST_F(TrTest, DnfEliminatesInter) {
  CharSet D = CharSet::digit();
  CharSet L = CharSet::asciiLetter();
  Tr A = T.ite(D, T.topLeaf(), T.leaf(re(".*\\d.*")));
  Tr B = T.ite(L, T.topLeaf(), T.leaf(re(".*[a-zA-Z].*")));
  Tr I = T.inter2(A, B);
  ASSERT_EQ(T.kind(I), TrKind::Inter);
  Tr Dnf = T.dnf(I);
  EXPECT_TRUE(T.isDnf(Dnf));
  // Semantics preserved at sampled characters.
  for (uint32_t Ch : {uint32_t('3'), uint32_t('x'), uint32_t('!')})
    EXPECT_EQ(T.apply(Dnf, Ch), T.apply(I, Ch));
}

TEST_F(TrTest, DnfPrunesContradictoryBranches) {
  // if(φd,·,·) under a path where the character is '0'..'9' already: the
  // inner else-branch is dead and must disappear.
  CharSet D = CharSet::digit();
  CharSet Zero = CharSet::singleton('0');
  Tr Inner = T.ite(D, T.leaf(re("a")), T.leaf(re("b")));
  Tr Outer = T.ite(Zero, Inner, T.leaf(re("c")));
  Tr Dnf = T.dnf(Outer);
  // Under φ0, φd is implied, so the result is if(φ0, a, c).
  EXPECT_EQ(Dnf, T.ite(Zero, T.leaf(re("a")), T.leaf(re("c"))));
}

TEST_F(TrTest, ArcsEnumerateSatisfiableGuards) {
  CharSet Zero = CharSet::singleton('0');
  CharSet D = CharSet::digit();
  Tr X = T.ite(Zero, T.leaf(re("r0")), T.ite(D, T.leaf(re("rd")),
                                             T.leaf(re("rr"))));
  std::vector<TrArc> Arcs = T.arcs(X);
  ASSERT_EQ(Arcs.size(), 3u);
  // Guards are pairwise disjoint along the conditional spine and cover Σ.
  CharSet All;
  for (const TrArc &A : Arcs) {
    EXPECT_FALSE(A.Guard.isEmpty());
    for (const TrArc &B : Arcs)
      if (&A != &B) {
        EXPECT_TRUE(A.Guard.isDisjointFrom(B.Guard));
      }
    All = All.unionWith(A.Guard);
  }
  EXPECT_TRUE(All.isFull());
}

TEST_F(TrTest, ArcsMergeSameTarget) {
  CharSet D = CharSet::digit();
  CharSet L = CharSet::asciiLetter();
  // Same leaf behind two different guards (via a union of conditionals).
  Tr X = T.union2(T.ite(D, T.leaf(re("t")), T.bot()),
                  T.ite(L, T.leaf(re("t")), T.bot()));
  std::vector<TrArc> Arcs = T.arcs(X);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(Arcs[0].Guard, D.unionWith(L));
  EXPECT_EQ(Arcs[0].Target, re("t"));
}

TEST_F(TrTest, ArcsMergeManyGuardsWithoutInterningPartialUnions) {
  // 200 separate characters into one target: the merged guard is built
  // once, so the pool gains at most one set per conditional (its else
  // guard), not the 198 partial unions as well.
  std::vector<Tr> Branches;
  CharSet Expected;
  for (uint32_t I = 0; I != 200; ++I) {
    CharSet C = CharSet::singleton(0x100 + 2 * I);
    Branches.push_back(T.ite(C, T.leaf(re("t")), T.bot()));
    Expected = Expected.unionWith(C);
  }
  Tr X = T.union_(Branches);
  const size_t PoolBefore = M.preds().size();
  std::vector<TrArc> Arcs = T.arcs(X);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(Arcs[0].Guard, Expected);
  EXPECT_LE(M.preds().size(), PoolBefore + 200);
}

TEST_F(TrTest, ArcsSkipBotTargets) {
  CharSet D = CharSet::digit();
  Tr X = T.ite(D, T.leaf(re("t")), T.bot());
  std::vector<TrArc> Arcs = T.arcs(X);
  ASSERT_EQ(Arcs.size(), 1u);
  EXPECT_EQ(Arcs[0].Guard, D);
}

TEST_F(TrTest, ArcSamplesTakeTheLeastMemberOfAMergedGuard) {
  DerivativeEngine E(M, T);
  // Two guards into x, {b} and [a-b]: one arc, read on 'a'.
  std::span<const TrArcSample> Samples =
      T.arcSamples(E.derivativeDnf(re("bx|[a-b]x")));
  ASSERT_EQ(Samples.size(), 1u);
  EXPECT_EQ(Samples[0].Ch, uint32_t('a'));
  EXPECT_EQ(Samples[0].Target, re("x"));
  // {Ā} and [!Ā]: printable ASCII comes first in witness order, so the
  // merged arc reads '!' although Ā is the smaller code point of neither.
  Samples = T.arcSamples(E.derivativeDnf(re("\\u0100x|[!\\u0100]x")));
  ASSERT_EQ(Samples.size(), 1u);
  EXPECT_EQ(Samples[0].Ch, uint32_t('!'));
  EXPECT_EQ(Samples[0].Target, re("x"));
}

TEST(ArcSampleTest, SamplesAreTheSamplesOfArcsGuardsInArcsOrder) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  fuzz::RegexGenerator Gen(M, 2021);
  size_t NumArcs = 0;
  for (int I = 0; I != 600; ++I) {
    Re R = Gen.generate();
    Tr D = E.derivativeDnf(R);
    const std::vector<TrArc> Arcs = T.arcs(D);
    std::span<const TrArcSample> Samples = T.arcSamples(D);
    ASSERT_EQ(Samples.size(), Arcs.size()) << M.toString(R);
    for (size_t J = 0; J != Arcs.size(); ++J) {
      EXPECT_EQ(Samples[J].Ch, *Arcs[J].Guard.sample()) << M.toString(R);
      EXPECT_EQ(Samples[J].Target, Arcs[J].Target) << M.toString(R);
    }
    NumArcs += Arcs.size();
  }
  EXPECT_GT(NumArcs, 600u);
}

TEST_F(TrTest, CollectLeaves) {
  CharSet D = CharSet::digit();
  Tr X = T.union2(T.ite(D, T.leaf(re("a")), T.bot()),
                  T.ite(D, T.leaf(re("b")), T.topLeaf()));
  std::vector<Re> Leaves;
  T.collectLeaves(X, Leaves);
  // Nontrivial terminals only: a and b (⊥ and .* excluded).
  EXPECT_EQ(Leaves.size(), 2u);
  Leaves.clear();
  T.collectLeaves(X, Leaves, /*IncludeTrivial=*/true);
  EXPECT_EQ(Leaves.size(), 4u);
}

TEST_F(TrTest, ToStringNotation) {
  CharSet Zero = CharSet::singleton('0');
  Tr X = T.ite(Zero, T.leaf(re("a")), T.bot());
  EXPECT_EQ(T.toString(X), "if(0, a, [])");
}

/// Random TR generator for the semantic property suite.
class TrPropertyTest : public ::testing::TestWithParam<uint64_t> {};

Tr randomTr(RegexManager &M, TrManager &T, Rng &R, int Depth) {
  if (Depth <= 0) {
    switch (R.below(4)) {
    case 0:
      return T.leaf(M.chr(static_cast<uint32_t>('a' + R.below(3))));
    case 1:
      return T.leaf(M.star(M.chr('a')));
    case 2:
      return T.bot();
    default:
      return T.leaf(M.concat(M.pred(CharSet::digit()), M.top()));
    }
  }
  switch (R.below(4)) {
  case 0: {
    CharSet C = R.chance(1, 2) ? CharSet::digit()
                               : CharSet::range('a', 'm');
    Tr A = randomTr(M, T, R, Depth - 1);
    Tr B = randomTr(M, T, R, Depth - 1);
    return T.ite(C, A, B);
  }
  case 1:
    return T.union2(randomTr(M, T, R, Depth - 1),
                    randomTr(M, T, R, Depth - 1));
  case 2:
    return T.inter2(randomTr(M, T, R, Depth - 1),
                    randomTr(M, T, R, Depth - 1));
  default:
    return T.negate(randomTr(M, T, R, Depth - 1));
  }
}

TEST_P(TrPropertyTest, DnfPreservesSemantics) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Rng R(GetParam());
  for (int I = 0; I != 8; ++I) {
    Tr X = randomTr(M, T, R, 4);
    Tr D = T.dnf(X);
    EXPECT_TRUE(T.isDnf(D));
    for (uint32_t Ch :
         {uint32_t('0'), uint32_t('5'), uint32_t('a'), uint32_t('n'),
          uint32_t('z'), uint32_t('!'), uint32_t(0x4E2D)})
      EXPECT_TRUE(sameLanguage(E, T.apply(D, Ch), T.apply(X, Ch)));
  }
}

TEST_P(TrPropertyTest, DnfIsMemoTransparent) {
  // A memo hit must return exactly what recomputation re-interns: the same
  // id, and no node in either arena that recomputation would not build. The
  // first pass shares its memos across all terms and the second starts each
  // term from empty memos, so a memo key that drops an operand serves a
  // stale entry in one pass and not the other. A key that drops the path
  // goes wrong alike in both passes; DnfPreservesSemantics catches that.
  RegexManager M;
  TrManager T(M);
  Rng R(GetParam());
  std::vector<Tr> Xs, Ds;
  for (int I = 0; I != 8; ++I) {
    Xs.push_back(randomTr(M, T, R, 4));
    Ds.push_back(T.dnf(Xs.back()));
  }
  const size_t TrNodes = T.numNodes(), ReNodes = M.numNodes();
  for (size_t I = 0; I != Xs.size(); ++I) {
    T.clearCaches();
    EXPECT_EQ(T.dnf(Xs[I]), Ds[I]) << T.toString(Xs[I]);
  }
  EXPECT_EQ(T.numNodes(), TrNodes);
  EXPECT_EQ(M.numNodes(), ReNodes);
}

TEST_P(TrPropertyTest, NegationDualIsSemanticComplement) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  Rng R(GetParam());
  for (int I = 0; I != 8; ++I) {
    Tr X = randomTr(M, T, R, 4);
    Tr N = T.negate(X);
    EXPECT_EQ(T.negate(N), X);
    for (uint32_t Ch :
         {uint32_t('0'), uint32_t('b'), uint32_t('z'), uint32_t(0x100)})
      EXPECT_TRUE(
          sameLanguage(E, T.apply(N, Ch), M.complement(T.apply(X, Ch))));
  }
}

TEST_P(TrPropertyTest, ArcsAgreeWithApply) {
  RegexManager M;
  TrManager T(M);
  Rng R(GetParam());
  for (int I = 0; I != 10; ++I) {
    Tr X = T.dnf(randomTr(M, T, R, 3));
    std::vector<TrArc> Arcs = T.arcs(X);
    // Every arc's sampled character leads somewhere consistent with apply:
    // the arc target is one of the union branches of τ(a), i.e. the regex
    // union of all matching targets equals apply.
    for (uint32_t Ch : {uint32_t('0'), uint32_t('c'), uint32_t('~')}) {
      std::vector<Re> Matching;
      for (const TrArc &A : Arcs)
        if (A.Guard.contains(Ch))
          Matching.push_back(A.Target);
      EXPECT_EQ(M.unionList(std::move(Matching)), T.apply(X, Ch));
    }
  }
}

//===----------------------------------------------------------------------===//
// The predicate pool shared by both arenas
//===----------------------------------------------------------------------===//

/// A random CharSet of up to four intervals, biased towards small ASCII
/// ranges so that operands overlap, plus ⊥ and ⊤ now and then.
CharSet randomSet(Rng &R) {
  switch (R.below(8)) {
  case 0:
    return CharSet();
  case 1:
    return CharSet::full();
  default:
    break;
  }
  std::vector<CharRange> Rs;
  for (uint64_t I = 0, N = R.range(1, 4); I != N; ++I) {
    uint32_t Lo = static_cast<uint32_t>(
        R.chance(1, 8) ? R.below(MaxCodePoint) : R.range('0', 'z'));
    uint32_t Hi = std::min<uint32_t>(
        MaxCodePoint, Lo + static_cast<uint32_t>(R.below(12)));
    Rs.push_back({Lo, Hi});
  }
  return CharSet::fromRanges(std::move(Rs));
}

TEST(PredPoolTest, EqualSetsGetEqualIds) {
  PredPool P;
  EXPECT_EQ(P.intern(CharSet()), PredPool::Bot);
  EXPECT_EQ(P.intern(CharSet::full()), PredPool::Top);
  PredId Digits = P.intern(CharSet::digit());
  // Built another way, the same set is the same id.
  EXPECT_EQ(P.intern(CharSet::range('0', '4').unionWith(
                CharSet::range('5', '9'))),
            Digits);
  EXPECT_NE(P.intern(CharSet::range('0', '8')), Digits);
  EXPECT_EQ(P.set(Digits), CharSet::digit());
}

TEST(PredPoolTest, OperationsAgreeWithCharSet) {
  PredPool P;
  Rng R(20210621);
  for (int I = 0; I != 400; ++I) {
    CharSet A = randomSet(R), B = randomSet(R);
    PredId IA = P.intern(A), IB = P.intern(B);
    EXPECT_EQ(P.set(P.conj(IA, IB)), A.intersectWith(B));
    EXPECT_EQ(P.set(P.disj(IA, IB)), A.unionWith(B));
    EXPECT_EQ(P.set(P.minus(IA, IB)), A.minus(B));
    // One memo entry answers both operand orders of ∧ and ∨.
    const size_t Entries = P.memoEntries();
    EXPECT_EQ(P.conj(IB, IA), P.conj(IA, IB));
    EXPECT_EQ(P.disj(IB, IA), P.disj(IA, IB));
    EXPECT_EQ(P.memoEntries(), Entries);
    // An empty result is ⊥ by id, as δdnf's pruning tests it.
    EXPECT_EQ(P.conj(IA, IB) == PredPool::Bot, A.intersectWith(B).isEmpty());
    EXPECT_EQ(P.minus(IA, IB) == PredPool::Bot, A.minus(B).isEmpty());
  }
}

TEST(PredPoolTest, MemosStayBoundedAndExact) {
  // 400 overlapping intervals: 79,800 unordered ∧ pairs, more than one
  // memo holds.
  PredPool P;
  std::vector<PredId> Ids;
  for (uint32_t I = 0; I != 400; ++I)
    Ids.push_back(P.intern(CharSet::range(I, I + 1000)));
  for (PredId A : Ids)
    for (PredId B : Ids) {
      ASSERT_EQ(P.set(P.conj(A, B)), P.set(A).intersectWith(P.set(B)));
      ASSERT_LE(P.memoEntries(), PredPool::MaxMemoEntries); // ∧ only
    }
  // Sets whose spans do not meet answer ∧ and − without a memo entry.
  PredId Lo = P.intern(CharSet::range('a', 'c'));
  PredId Hi = P.intern(CharSet::range('x', 'z'));
  const size_t Entries = P.memoEntries();
  EXPECT_EQ(P.conj(Lo, Hi), PredPool::Bot);
  EXPECT_EQ(P.minus(Lo, Hi), Lo);
  EXPECT_EQ(P.memoEntries(), Entries);
}

#if SBD_OBS
TEST(PredPoolTest, TrLayerLookupsStayOutOfRegexStats) {
  RegexManager M;
  TrManager T(M);
  const CacheStats Before = M.stats();
  const uint64_t PoolLookups = M.preds().stats().Lookups;
  T.ite(CharSet::range('a', 'q'), T.leaf(M.epsilon()), T.bot());
  EXPECT_EQ(M.stats().Lookups, Before.Lookups);
  EXPECT_EQ(M.preds().stats().Lookups, PoolLookups + 1);
  // The regex layer still counts its first sight of the set as a miss.
  M.pred(CharSet::range('a', 'q'));
  EXPECT_EQ(M.stats().InternMisses, Before.InternMisses + 2); // set + node
  M.pred(CharSet::range('a', 'q'));
  EXPECT_EQ(M.stats().InternMisses, Before.InternMisses + 2);
}
#endif // SBD_OBS

TEST_F(TrTest, IteCollapsesNestedEqualGuardsById) {
  PredId D = M.preds().intern(CharSet::digit());
  Tr A = T.leaf(re("a")), B = T.leaf(re("b")), C = T.leaf(re("c"));
  Tr Inner = T.ite(D, A, B);
  // The CharSet overload finds the same id, so the guards compare equal.
  EXPECT_EQ(T.ite(CharSet::digit(), Inner, C), T.ite(D, A, C));
  EXPECT_EQ(T.ite(D, C, Inner), T.ite(D, C, B));
  EXPECT_EQ(T.node(T.ite(D, A, C)).Cond, D);
}

INSTANTIATE_TEST_SUITE_P(Seeds, TrPropertyTest,
                         ::testing::Range<uint64_t>(1, 26));

} // namespace
