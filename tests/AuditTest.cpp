//===- tests/AuditTest.cpp - Term-DAG invariant auditor tests ---------------===//
//
// Two halves:
//
//  - Positive: arenas populated through the public smart-constructor /
//    parser / derivative / solver paths must audit clean — the similarity
//    laws and NNF discipline really are established at construction time.
//
//  - Negative: each violation class must be *detectable*. The managers
//    expose mutableNodeForAudit() for exactly this: we hand-corrupt one
//    interned node the way a buggy interning refactor would, and assert the
//    auditor reports the specific kind. A checker that cannot fail is not
//    checking anything.
//
//===----------------------------------------------------------------------===//

#include "analysis/Audit.h"

#include "core/Derivatives.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"

#include <gtest/gtest.h>

using namespace sbd;
using audit::Report;
using audit::ViolationKind;

namespace {

class AuditTest : public ::testing::Test {
protected:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};

  Re re(const std::string &Pat) { return parseRegexOrDie(M, Pat); }

  /// Runs checkReNode on one node and returns the report.
  Report reNode(Re R) {
    Report Out;
    audit::checkReNode(M, R, Out);
    return Out;
  }

  Report trNode(Tr X) {
    Report Out;
    audit::checkTrNode(T, X, Out);
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// Positive: construction paths audit clean
//===----------------------------------------------------------------------===//

TEST_F(AuditTest, FreshArenasAuditClean) {
  Report R = audit::checkAll(T);
  EXPECT_TRUE(R.ok()) << R.str();
  EXPECT_GT(R.nodesChecked(), 0u);
}

TEST_F(AuditTest, ParsedPatternsAuditClean) {
  // Exercise every constructor: predicates, classes, loops, boolean
  // operators, complement, nested structure.
  const char *Patterns[] = {
      "a",          "abc",           "[a-z0-9]+",     "(ab|cd)*e",
      "a{3,7}b?",   "~(a*b)",        "(ab)+&(a|b)*",  "[^x-z]{2,}",
      "(a|b)(c|d)", "~(~(ab))",      "a*&~(b+)",      "\\d+\\.\\d+",
  };
  for (const char *P : Patterns)
    (void)re(P);
  Report R = audit::checkAll(M);
  EXPECT_TRUE(R.ok()) << "after parsing: " << R.str();
}

TEST_F(AuditTest, DerivativesAndDnfAuditClean) {
  Re R1 = re("(ab|cd)*&~(a*)");
  Re R2 = re("[a-m]{2,5}(x|y)+");
  for (Re R : {R1, R2}) {
    Tr D = E.derivativeDnf(R);
    Report DnfReport;
    audit::checkDnf(T, D, DnfReport);
    EXPECT_TRUE(DnfReport.ok()) << "dnf of " << M.toString(R) << ": "
                                << DnfReport.str();
  }
  Report R = audit::checkAll(T);
  EXPECT_TRUE(R.ok()) << R.str();
}

TEST_F(AuditTest, SolvedQueriesAuditClean) {
  RegexSolver S(E);
  const char *Queries[] = {"a{3}b*", "(ab)+&(ba)+", "~(a|b)*c",
                           "([a-f]{2})+&~(ab)*", "x?y?z?&~()"};
  for (const char *Q : Queries)
    (void)S.checkSat(re(Q));
  Report R = audit::checkAll(T);
  EXPECT_TRUE(R.ok()) << "after solving: " << R.str();
  EXPECT_GT(R.nodesChecked(), 20u); // sanity: the walk covered real work
}

TEST_F(AuditTest, CanonicalCharSetsAuditClean) {
  for (const CharSet &S :
       {CharSet::full(), CharSet::digit(), CharSet::word(),
        CharSet::range('a', 'z').unionWith(CharSet::range('0', '9')),
        CharSet::full().minus(CharSet::singleton('q'))}) {
    Report Out;
    audit::checkIntervals(S.ranges(), 0, Out);
    EXPECT_TRUE(Out.ok()) << Out.str();
  }
}

//===----------------------------------------------------------------------===//
// Negative: regex-arena corruptions are detected
//===----------------------------------------------------------------------===//

TEST_F(AuditTest, DetectsStaleReHash) {
  Re R = re("(ab|cd)e");
  ASSERT_TRUE(reNode(R).ok());
  M.mutableNodeForAudit(R).Hash ^= 1;
  EXPECT_GT(reNode(R).count(ViolationKind::ReStaleHash), 0u);
}

TEST_F(AuditTest, DetectsUnsortedInterOperands) {
  Re R = M.inter(re("a+"), re("b+"));
  ASSERT_EQ(M.kind(R), RegexKind::Inter);
  ASSERT_TRUE(reNode(R).ok());
  std::span<Re> Kids = M.mutableKidsForAudit(R);
  std::swap(Kids[0], Kids[1]);
  EXPECT_GT(reNode(R).count(ViolationKind::ReUnsortedOperands), 0u);
}

TEST_F(AuditTest, DetectsNestedBoolean) {
  Re A = re("a+"), B = re("b+"), C = re("c+");
  Re Inner = M.inter(A, B);
  Re Outer = M.inter(A, C);
  ASSERT_LT(Inner.Id, Outer.Id);
  // Splice the inner AND under the outer AND — the flattening law broken.
  M.mutableKidsForAudit(Outer)[1] = Inner;
  EXPECT_GT(reNode(Outer).count(ViolationKind::ReNestedBoolean), 0u);
}

TEST_F(AuditTest, DetectsDoubleNegation) {
  Re C1 = M.complement(re("a+"));
  Re C2 = M.complement(re("b+"));
  ASSERT_EQ(M.kind(C1), RegexKind::Compl);
  ASSERT_EQ(M.kind(C2), RegexKind::Compl);
  ASSERT_LT(C1.Id, C2.Id);
  M.mutableKidsForAudit(C2)[0] = C1;
  EXPECT_GT(reNode(C2).count(ViolationKind::ReDoubleNegation), 0u);
}

TEST_F(AuditTest, DetectsAbsorbableEmptyInUnion) {
  Re U = M.union_(re("ab"), re("cd"));
  ASSERT_EQ(M.kind(U), RegexKind::Union);
  M.mutableKidsForAudit(U)[0] = M.empty();
  EXPECT_GT(reNode(U).count(ViolationKind::ReAbsorbableChild), 0u);
}

TEST_F(AuditTest, DetectsLeftNestedConcat) {
  Re X = M.concat(re("a"), re("b"));
  Re Y = M.concat(re("a"), re("c"));
  ASSERT_EQ(M.kind(Y), RegexKind::Concat);
  ASSERT_LT(X.Id, Y.Id);
  M.mutableKidsForAudit(Y)[0] = X;
  EXPECT_GT(reNode(Y).count(ViolationKind::ReLeftNestedConcat), 0u);
}

TEST_F(AuditTest, DetectsBadNullableCache) {
  Re R = M.concat(re("a"), re("b")); // not nullable
  ASSERT_FALSE(M.nullable(R));
  M.mutableNodeForAudit(R).Nullable = true;
  EXPECT_GT(reNode(R).count(ViolationKind::ReBadNullable), 0u);
}

TEST_F(AuditTest, DetectsBadSizeCache) {
  Re R = M.concat(re("a"), re("b"));
  M.mutableNodeForAudit(R).Size += 5;
  EXPECT_GT(reNode(R).count(ViolationKind::ReBadMetrics), 0u);
}

TEST_F(AuditTest, DetectsBadTopology) {
  Re R = M.concat(re("a"), re("b"));
  // Forward reference: child after parent.
  M.mutableKidsForAudit(R)[1] = Re{R.Id + 100};
  EXPECT_GT(reNode(R).count(ViolationKind::ReBadTopology), 0u);
}

TEST_F(AuditTest, DetectsReKidSpanOutsidePool) {
  Re R = M.concat(re("a"), re("b"));
  ASSERT_TRUE(reNode(R).ok());
  M.mutableNodeForAudit(R).KidsBegin =
      static_cast<uint32_t>(M.kidPoolSize()) - 1; // second kid past the end
  EXPECT_GT(reNode(R).count(ViolationKind::ReKidsOutOfPool), 0u);
  Report Arena = audit::checkRegexArena(M);
  EXPECT_GT(Arena.count(ViolationKind::ReKidsOutOfPool), 0u) << Arena.str();
}

TEST_F(AuditTest, DetectsRePredIdOutsidePool) {
  Re R = re("[a-f]");
  ASSERT_EQ(M.kind(R), RegexKind::Pred);
  ASSERT_TRUE(reNode(R).ok());
  M.mutableNodeForAudit(R).Pred =
      PredId{static_cast<uint32_t>(M.preds().size())};
  EXPECT_GT(reNode(R).count(ViolationKind::RePredOutOfPool), 0u);
}

TEST_F(AuditTest, DetectsBadLoopBounds) {
  Re L = M.loop(re("a"), 2, 5);
  ASSERT_EQ(M.kind(L), RegexKind::Loop);
  M.mutableNodeForAudit(L).LoopMin = 6; // Min > Max
  EXPECT_GT(reNode(L).count(ViolationKind::ReBadLoopBounds), 0u);
}

TEST_F(AuditTest, DetectsUnmergedPredicates) {
  // A well-formed union of two non-predicate operands, rewired to hold two
  // predicate leaves — the character-algebra merging law broken.
  Re A = re("a"), B = re("b");
  Re U = M.union_(re("a+"), re("b+"));
  ASSERT_EQ(M.kind(U), RegexKind::Union);
  std::span<Re> Kids = M.mutableKidsForAudit(U);
  Kids[0] = A < B ? A : B;
  Kids[1] = A < B ? B : A;
  EXPECT_GT(reNode(U).count(ViolationKind::ReUnmergedPreds), 0u);
}

TEST_F(AuditTest, ArenaScanDetectsStructuralDuplicate) {
  Re A = re("a"), B = re("b"), C = re("c");
  Re X = M.concat(A, B);
  Re Y = M.concat(A, C);
  ASSERT_NE(X.Id, Y.Id);
  // Make Y structurally identical to X: hash-cons canonicality broken.
  M.mutableKidsForAudit(Y)[1] = B;
  M.mutableNodeForAudit(Y).Hash = M.mutableNodeForAudit(X).Hash;
  Report R = audit::checkRegexArena(M);
  EXPECT_GT(R.count(ViolationKind::ReDuplicateNode), 0u) << R.str();
}

//===----------------------------------------------------------------------===//
// Negative: character-algebra canonical form
//===----------------------------------------------------------------------===//

TEST_F(AuditTest, DetectsInvertedInterval) {
  Report Out;
  audit::checkIntervals({{'z', 'a'}}, 0, Out);
  EXPECT_GT(Out.count(ViolationKind::CsInvertedInterval), 0u);
}

TEST_F(AuditTest, DetectsUnsortedIntervals) {
  Report Out;
  audit::checkIntervals({{'m', 'p'}, {'a', 'c'}}, 0, Out);
  EXPECT_GT(Out.count(ViolationKind::CsUnsortedIntervals), 0u);
}

TEST_F(AuditTest, DetectsOverlappingIntervals) {
  Report Out;
  audit::checkIntervals({{'a', 'm'}, {'k', 'z'}}, 0, Out);
  EXPECT_GT(Out.count(ViolationKind::CsOverlappingIntervals), 0u);
}

TEST_F(AuditTest, DetectsAdjacentIntervals) {
  Report Out;
  audit::checkIntervals({{'a', 'm'}, {'n', 'z'}}, 0, Out);
  EXPECT_GT(Out.count(ViolationKind::CsAdjacentIntervals), 0u);
}

TEST_F(AuditTest, DetectsOutOfDomainInterval) {
  Report Out;
  audit::checkIntervals({{0x10FFFF, 0x110000}}, 0, Out);
  EXPECT_GT(Out.count(ViolationKind::CsOutOfDomain), 0u);
}

TEST_F(AuditTest, AcceptsCanonicalIntervals) {
  Report Out;
  audit::checkIntervals({{'a', 'm'}, {'o', 'z'}, {0x100, 0x10FFFF}}, 0, Out);
  EXPECT_TRUE(Out.ok()) << Out.str();
}

//===----------------------------------------------------------------------===//
// Negative: transition-regex corruptions are detected
//===----------------------------------------------------------------------===//

TEST_F(AuditTest, DetectsStaleTrHash) {
  Tr X = T.ite(CharSet::range('a', 'f'), T.leaf(re("x+")), T.bot());
  ASSERT_EQ(T.kind(X), TrKind::Ite);
  ASSERT_TRUE(trNode(X).ok());
  T.mutableNodeForAudit(X).Hash ^= 1;
  EXPECT_GT(trNode(X).count(ViolationKind::TrStaleHash), 0u);
}

TEST_F(AuditTest, DetectsTrBadArity) {
  Tr X = T.ite(CharSet::range('a', 'f'), T.leaf(re("x+")), T.bot());
  ASSERT_EQ(T.kind(X), TrKind::Ite);
  --T.mutableNodeForAudit(X).NumKids; // one-armed ite
  EXPECT_GT(trNode(X).count(ViolationKind::TrBadArity), 0u);
}

TEST_F(AuditTest, DetectsTrUnsortedOperands) {
  Tr A = T.ite(CharSet::singleton('a'), T.leaf(re("p")), T.bot());
  Tr B = T.ite(CharSet::singleton('b'), T.leaf(re("q")), T.bot());
  Tr U = T.union2(A, B);
  ASSERT_EQ(T.kind(U), TrKind::Union);
  std::span<Tr> Kids = T.mutableKidsForAudit(U);
  ASSERT_EQ(Kids.size(), 2u);
  std::swap(Kids[0], Kids[1]);
  EXPECT_GT(trNode(U).count(ViolationKind::TrUnsortedOperands), 0u);
}

TEST_F(AuditTest, DetectsTrNestedBoolean) {
  Tr A = T.ite(CharSet::singleton('a'), T.leaf(re("p")), T.bot());
  Tr B = T.ite(CharSet::singleton('b'), T.leaf(re("q")), T.bot());
  Tr C = T.ite(CharSet::singleton('c'), T.leaf(re("r")), T.bot());
  Tr Inner = T.union2(A, B);
  Tr Outer = T.union2(A, C);
  ASSERT_EQ(T.kind(Outer), TrKind::Union);
  ASSERT_LT(Inner.Id, Outer.Id);
  T.mutableKidsForAudit(Outer)[1] = Inner;
  EXPECT_GT(trNode(Outer).count(ViolationKind::TrNestedBoolean), 0u);
}

TEST_F(AuditTest, DetectsUnsatIteGuard) {
  Tr X = T.ite(CharSet::range('a', 'f'), T.leaf(re("x+")), T.bot());
  ASSERT_EQ(T.kind(X), TrKind::Ite);
  T.mutableNodeForAudit(X).Cond = PredPool::Bot; // ⊥ guard
  EXPECT_GT(trNode(X).count(ViolationKind::TrUnsatIteGuard), 0u);
}

TEST_F(AuditTest, DetectsTrKidSpanOutsidePool) {
  Tr X = T.ite(CharSet::range('a', 'f'), T.leaf(re("x+")), T.bot());
  ASSERT_EQ(T.kind(X), TrKind::Ite);
  ASSERT_TRUE(trNode(X).ok());
  T.mutableNodeForAudit(X).NumKids = 3; // the span now runs past the pool
  EXPECT_GT(trNode(X).count(ViolationKind::TrKidsOutOfPool), 0u);
  Report Arena = audit::checkTrArena(T);
  EXPECT_GT(Arena.count(ViolationKind::TrKidsOutOfPool), 0u) << Arena.str();
}

TEST_F(AuditTest, DetectsTrGuardIdOutsidePool) {
  Tr X = T.ite(CharSet::range('a', 'f'), T.leaf(re("x+")), T.bot());
  ASSERT_EQ(T.kind(X), TrKind::Ite);
  T.mutableNodeForAudit(X).Cond =
      PredId{static_cast<uint32_t>(M.preds().size()) + 7};
  EXPECT_GT(trNode(X).count(ViolationKind::TrPredOutOfPool), 0u);
  Report Out;
  audit::checkDnf(T, X, Out); // must not read through the bad id
  EXPECT_TRUE(Out.ok()) << Out.str();
}

TEST_F(AuditTest, DetectsTrivialIteEqualBranches) {
  Tr L = T.leaf(re("x+"));
  Tr X = T.ite(CharSet::range('a', 'f'), L, T.bot());
  ASSERT_EQ(T.kind(X), TrKind::Ite);
  std::span<Tr> Kids = T.mutableKidsForAudit(X);
  Kids[1] = Kids[0];
  EXPECT_GT(trNode(X).count(ViolationKind::TrTrivialIte), 0u);
}

TEST_F(AuditTest, DnfCheckDetectsInterNode) {
  Tr A = T.ite(CharSet::singleton('a'), T.leaf(re("p")), T.bot());
  Tr B = T.ite(CharSet::singleton('b'), T.leaf(re("q")), T.bot());
  Tr U = T.union2(A, B);
  ASSERT_EQ(T.kind(U), TrKind::Union);
  T.mutableNodeForAudit(U).Kind = TrKind::Inter;
  Report Out;
  audit::checkDnf(T, U, Out);
  EXPECT_GT(Out.count(ViolationKind::TrNotDnf), 0u);
}

TEST_F(AuditTest, DnfCheckDetectsUnsatBranch) {
  // Inner tests [a-f]; outer tests the disjoint [x-z] and then routes into
  // the inner conditional: the inner then-branch's accumulated path
  // condition is [x-z] ∩ [a-f] = ⊥, so the branch is not clean.
  Tr Inner = T.ite(CharSet::range('a', 'f'), T.leaf(re("p")), T.bot());
  Tr Outer = T.ite(CharSet::range('x', 'z'), T.leaf(re("q")), T.bot());
  ASSERT_EQ(T.kind(Outer), TrKind::Ite);
  ASSERT_LT(Inner.Id, Outer.Id);
  T.mutableKidsForAudit(Outer)[0] = Inner;
  Report Out;
  audit::checkDnf(T, Outer, Out);
  EXPECT_GT(Out.count(ViolationKind::TrUnsatBranch), 0u);
}

TEST_F(AuditTest, TrArenaScanDetectsStructuralDuplicate) {
  Tr L1 = T.leaf(re("p+"));
  Tr L2 = T.leaf(re("q+"));
  ASSERT_NE(L1.Id, L2.Id);
  TrNode &N = T.mutableNodeForAudit(L2);
  N.LeafRe = T.node(L1).LeafRe;
  Report R = audit::checkTrArena(T);
  EXPECT_GT(R.count(ViolationKind::TrDuplicateNode), 0u) << R.str();
}

//===----------------------------------------------------------------------===//
// Report mechanics
//===----------------------------------------------------------------------===//

TEST_F(AuditTest, ReportCountsStayExactPastDetailCap) {
  Report R;
  for (uint32_t I = 0; I != Report::MaxDetailed + 50; ++I)
    R.add(ViolationKind::ReStaleHash, I, "x");
  EXPECT_EQ(R.total(), Report::MaxDetailed + 50);
  EXPECT_EQ(R.violations().size(), Report::MaxDetailed);
}

TEST_F(AuditTest, ReportMergePreservesCounts) {
  Report A, B;
  A.add(ViolationKind::ReStaleHash, 1, "x");
  A.noteChecked(10);
  B.add(ViolationKind::TrNotDnf, 2, "y");
  B.noteChecked(5);
  A += B;
  EXPECT_EQ(A.total(), 2u);
  EXPECT_EQ(A.count(ViolationKind::ReStaleHash), 1u);
  EXPECT_EQ(A.count(ViolationKind::TrNotDnf), 1u);
  EXPECT_EQ(A.nodesChecked(), 15u);
}

TEST_F(AuditTest, EveryViolationKindHasAName) {
  for (size_t I = 0; I != audit::NumViolationKinds; ++I)
    EXPECT_STRNE(audit::kindName(static_cast<ViolationKind>(I)), "?");
}

//===----------------------------------------------------------------------===//
// SBD_AUDIT builds: hooks feed the obs registry
//===----------------------------------------------------------------------===//

#if SBD_AUDIT && SBD_OBS
TEST_F(AuditTest, AuditHooksFeedObsRegistry) {
  obs::MetricsRegistry::global().reset();
  RegexSolver S(E);
  (void)S.checkSat(re("(ab|cd)*&~(a*)"));
  obs::MetricShard Snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(Snap.get(obs::Counter::AuditNodesChecked), 0u);
  EXPECT_EQ(Snap.get(obs::Counter::AuditViolations), 0u);
  obs::MetricsRegistry::global().reset();
}
#endif

} // namespace
