//===- tests/DerivativeGraphTest.cpp - Graph dead/alive tests ---------------===//

#include "solver/DerivativeGraph.h"

#include "support/Rng.h"

#include <algorithm>

#include <gtest/gtest.h>

using namespace sbd;

namespace {

/// Produces distinct regex handles to use as abstract vertices. Loops with
/// distinct bounds over a fixed body are guaranteed distinct and non-final;
/// `final` handles are nullable variants.
class VertexFactory {
public:
  explicit VertexFactory(RegexManager &M) : M(M), Body(M.chr('v')) {}

  /// A non-final vertex handle.
  Re plain(uint32_t I) { return M.loop(Body, I + 2, I + 2); }
  /// A final (nullable) vertex handle.
  Re final(uint32_t I) { return M.loop(Body, 0, I + 2); }

private:
  RegexManager &M;
  Re Body;
};

class GraphTest : public ::testing::Test {
protected:
  RegexManager M;
  VertexFactory F{M};
};

TEST_F(GraphTest, OpenVerticesAreNeverDead) {
  DerivativeGraph G(M);
  Re A = F.plain(0);
  G.addVertex(A);
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
  EXPECT_FALSE(G.isClosed(A));
}

TEST_F(GraphTest, FinalVerticesAreAlive) {
  DerivativeGraph G(M);
  Re A = F.final(0);
  G.addVertex(A);
  EXPECT_TRUE(G.isAlive(A));
  EXPECT_TRUE(G.isFinal(A));
  G.close(A, {});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
}

TEST_F(GraphTest, ClosedSinkIsDead) {
  DerivativeGraph G(M);
  Re A = F.plain(0);
  G.close(A, {}); // no successors, not final
  G.settleDead();
  EXPECT_TRUE(G.isDead(A));
}

TEST_F(GraphTest, DeadPropagatesBackwards) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), C = F.plain(2);
  G.close(A, {B});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A)); // B still open
  G.close(B, {C});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
  G.close(C, {});
  G.settleDead();
  EXPECT_TRUE(G.isDead(C));
  EXPECT_TRUE(G.isDead(B));
  EXPECT_TRUE(G.isDead(A));
}

TEST_F(GraphTest, AliveBlocksDeath) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.final(1);
  G.close(A, {B});
  G.close(B, {});
  EXPECT_TRUE(G.isAlive(A));
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
  EXPECT_FALSE(G.isDead(B));
}

TEST_F(GraphTest, CycleOfClosedVerticesIsDead) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), C = F.plain(2);
  // A → B → C → A, all closed, none final: the whole SCC is dead.
  G.close(A, {B});
  G.close(B, {C});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
  G.close(C, {A});
  G.settleDead();
  EXPECT_TRUE(G.isDead(A));
  EXPECT_TRUE(G.isDead(B));
  EXPECT_TRUE(G.isDead(C));
}

TEST_F(GraphTest, CycleWithEscapeToOpenIsNotDead) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), Exit = F.plain(9);
  G.close(A, {B});
  G.close(B, {A, Exit});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A)); // Exit is still open
  G.close(Exit, {});
  G.settleDead();
  EXPECT_TRUE(G.isDead(Exit));
  EXPECT_TRUE(G.isDead(A));
  EXPECT_TRUE(G.isDead(B));
}

TEST_F(GraphTest, CycleReachingFinalIsAlive) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), Fin = F.final(0);
  G.close(A, {B});
  G.close(B, {A, Fin});
  G.close(Fin, {});
  EXPECT_TRUE(G.isAlive(A));
  EXPECT_TRUE(G.isAlive(B));
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
}

TEST_F(GraphTest, SelfLoopDeadEnd) {
  DerivativeGraph G(M);
  Re A = F.plain(0);
  G.close(A, {A});
  G.settleDead();
  EXPECT_TRUE(G.isDead(A));
}

TEST_F(GraphTest, TwoNestedCyclesMerge) {
  // A → B → C → A and B → D → B: everything is one component after all
  // edges; dead once all closed.
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), C = F.plain(2), D = F.plain(3);
  G.close(A, {B});
  G.close(B, {C, D});
  G.close(C, {A});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A)); // D open
  G.close(D, {B});
  G.settleDead();
  EXPECT_TRUE(G.isDead(A));
  EXPECT_TRUE(G.isDead(D));
}

TEST_F(GraphTest, UpdIsIdempotentOnClosedVertices) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), C = F.final(2);
  G.close(A, {B});
  size_t Edges = G.numEdges();
  G.close(A, {C}); // no effect: A is closed
  EXPECT_EQ(G.numEdges(), Edges);
  EXPECT_EQ(G.successors(A).size(), 1u);
}

TEST_F(GraphTest, ParallelEdgesAndSelfLoopsAreRecordedOnce) {
  DerivativeGraph G(M);
  Re A = F.plain(0), B = F.plain(1), Fin = F.final(2);
  G.close(A, {A, B, B, A, B});
  EXPECT_EQ(G.successors(A), (std::vector<Re>{A, B}));
  EXPECT_EQ(G.numEdges(), 2u);
  EXPECT_TRUE(G.successors(B).empty()); // B is open
  G.close(B, {B, Fin, B});
  EXPECT_EQ(G.successors(B), (std::vector<Re>{B, Fin}));
  EXPECT_EQ(G.numEdges(), 4u);
  // Alive reaches A back over B's and A's self-loops, once each.
  EXPECT_TRUE(G.isAlive(A));
  EXPECT_TRUE(G.isAlive(B));
  G.close(Fin, {});
  G.settleDead();
  EXPECT_FALSE(G.isDead(A));
  EXPECT_FALSE(G.isDead(B));

  // The same shape without the final vertex dies whole.
  Re C = F.plain(3), D = F.plain(4);
  G.close(C, {C, D, D, C});
  G.close(D, {D, C, D});
  EXPECT_EQ(G.successors(D), (std::vector<Re>{D, C}));
  EXPECT_EQ(G.numEdges(), 8u);
  G.settleDead();
  EXPECT_TRUE(G.isDead(C));
  EXPECT_TRUE(G.isDead(D));
}

/// Randomized stress: after every settle, at random points of a random
/// build sequence, the settled Dead set must equal the definition computed
/// from scratch: v is dead iff everything reachable from v (v included) is
/// closed and non-final. Between settles isDead keeps its settled answers.
/// Each vertex's successors are its close targets without repeats, in the
/// order close() first saw them, and numEdges() counts them.
class GraphAgreementTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GraphAgreementTest, IncrementalAgreesWithLazyReference) {
  RegexManager M;
  VertexFactory F(M);
  Rng Rand(GetParam());

  const uint32_t NumVerts = 24;
  std::vector<Re> Handles;
  for (uint32_t I = 0; I != NumVerts; ++I) {
    // ~20% of vertices are final.
    Handles.push_back(Rand.chance(1, 5) ? F.final(I) : F.plain(I));
  }
  auto indexOf = [&](Re R) {
    return static_cast<uint32_t>(
        std::find(Handles.begin(), Handles.end(), R) - Handles.begin());
  };

  // Brute-force oracle: forward reachability over recorded edges.
  DerivativeGraph G(M);
  auto reachable = [&](uint32_t From) {
    std::vector<bool> Seen(NumVerts, false);
    std::vector<uint32_t> Stack = {From};
    Seen[From] = true;
    while (!Stack.empty()) {
      uint32_t Cur = Stack.back();
      Stack.pop_back();
      for (Re Succ : G.successors(Handles[Cur])) {
        uint32_t W = indexOf(Succ);
        if (!Seen[W]) {
          Seen[W] = true;
          Stack.push_back(W);
        }
      }
    }
    return Seen;
  };
  auto oracleDead = [&](uint32_t V) {
    std::vector<bool> Seen = reachable(V);
    for (uint32_t U = 0; U != NumVerts; ++U)
      if (Seen[U] && (!G.isClosed(Handles[U]) || G.isFinal(Handles[U])))
        return false;
    return true;
  };
  auto oracleAlive = [&](uint32_t V) {
    std::vector<bool> Seen = reachable(V);
    for (uint32_t U = 0; U != NumVerts; ++U)
      if (Seen[U] && G.isFinal(Handles[U]))
        return true;
    return false;
  };

  // Close vertices in random order with random successor sets, settling
  // after about a third of the steps and after the last one.
  std::vector<uint32_t> Order(NumVerts);
  for (uint32_t I = 0; I != NumVerts; ++I)
    Order[I] = I;
  for (uint32_t I = NumVerts; I > 1; --I)
    std::swap(Order[I - 1], Order[Rand.below(I)]);

  std::vector<bool> Settled(NumVerts, false); // isDead at the last settle
  std::vector<std::vector<Re>> RefSuccs(NumVerts);
  size_t RefEdges = 0;
  for (uint32_t Step = 0; Step != NumVerts; ++Step) {
    uint32_t V = Order[Step];
    std::vector<Re> Targets;
    size_t Fanout = Rand.below(4);
    for (size_t T = 0; T != Fanout; ++T)
      Targets.push_back(Handles[Rand.below(NumVerts)]);
    G.close(Handles[V], Targets);
    for (Re Target : Targets)
      if (std::find(RefSuccs[V].begin(), RefSuccs[V].end(), Target) ==
          RefSuccs[V].end())
        RefSuccs[V].push_back(Target);
    RefEdges += RefSuccs[V].size();
    EXPECT_EQ(G.numEdges(), RefEdges) << "seed " << GetParam();
    for (uint32_t U = 0; U != NumVerts; ++U)
      EXPECT_EQ(G.successors(Handles[U]), RefSuccs[U])
          << "successors of vertex " << U << " at step " << Step << " seed "
          << GetParam();

    const bool Settle = Step + 1 == NumVerts || Rand.chance(1, 3);
    if (Settle)
      G.settleDead();
    for (uint32_t U = 0; U != NumVerts; ++U) {
      if (!G.hasVertex(Handles[U]))
        continue;
      EXPECT_EQ(G.isAlive(Handles[U]), oracleAlive(U))
          << "alive disagreement at step " << Step << " vertex " << U
          << " seed " << GetParam();
      if (Settle) {
        Settled[U] = oracleDead(U);
        EXPECT_EQ(G.isDead(Handles[U]), Settled[U])
            << "dead disagreement at step " << Step << " vertex " << U
            << " seed " << GetParam();
      } else {
        EXPECT_EQ(G.isDead(Handles[U]), Settled[U])
            << "isDead changed between settles at step " << Step
            << " vertex " << U << " seed " << GetParam();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphAgreementTest,
                         ::testing::Range<uint64_t>(1, 61));

} // namespace
