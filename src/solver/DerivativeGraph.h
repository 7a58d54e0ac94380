//===- solver/DerivativeGraph.h - The solver's regex graph G ----------------===//
///
/// \file
/// The graph G = (V, E, F, C) of Section 5. Vertices are regexes seen so
/// far; edges (v, w) record that w ∈ Q(δdnf(v)); F marks nullable (final)
/// vertices; C marks closed vertices (all outgoing edges added). From these
/// the derived sets are maintained:
///
///   Alive = { v : E*(v) ∩ F ≠ ∅ }          (can reach a final vertex)
///   Dead  = { v : E*(v) ⊆ C \ Alive }      (fully explored, never final)
///
/// Alive is propagated eagerly backwards over reverse edges whenever a final
/// vertex or an edge into an alive vertex appears. Dead is settled in
/// batches: close() queues the vertex, and settleDead() decides, in one
/// linear pass over the closed vertices that reach a queued one, which of
/// them can no longer reach an open or alive vertex. isDead() answers as
/// of the last settle. dZ3 must keep Dead exact after every upd because
/// Z3's core interleaves case splits with the bot rule; a solver that owns
/// its whole exploration only needs the set where it applies it, so
/// RegexSolver settles once when a query returns (and after each
/// caseSplit).
///
/// G is deliberately independent of any logical scope: deadness of a regex
/// does not depend on side constraints, so one graph can serve every query
/// of a session (and does, in RegexSolver).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SOLVER_DERIVATIVEGRAPH_H
#define SBD_SOLVER_DERIVATIVEGRAPH_H

#include "re/Regex.h"

#include <cstdint>
#include <span>
#include <vector>

namespace sbd {

/// The persistent reachability graph over derivative regexes.
class DerivativeGraph {
public:
  explicit DerivativeGraph(RegexManager &Mgr) : M(Mgr) {}

  /// Interns \p R as a vertex (no-op if present); returns its index.
  uint32_t addVertex(Re R);

  /// True if R is already a vertex.
  bool hasVertex(Re R) const { return find(R) != NoVertex; }

  /// The Upd rule (Fig. 3b): records all derivative targets of \p R and
  /// marks it closed. No effect if R is already closed. The new facts
  /// reach isDead() at the next settleDead().
  void close(Re R, const std::vector<Re> &Targets);

  /// Brings Dead up to date with every vertex closed since the last
  /// settle. Only closed vertices that reach one of those can have died,
  /// so the pass costs O(those vertices + their edges).
  void settleDead();

  /// Is the vertex closed (fully expanded)?
  bool isClosed(Re R) const;
  /// ν(R) — final vertex?
  bool isFinal(Re R) const;
  /// Can R reach a final vertex through recorded edges?
  bool isAlive(Re R) const;
  /// Was R a proven dead end (bot rule precondition) at the last settle?
  bool isDead(Re R) const;

  /// Successor regexes of a closed vertex, in the order close() first
  /// saw them (parallel edges recorded once); empty for an open vertex.
  std::vector<Re> successors(Re R) const;

  size_t numVertices() const { return Verts.size(); }
  size_t numEdges() const { return Succs.size(); }

  /// Drops every vertex and edge, returning the graph to its freshly
  /// constructed state (same manager). Deterministic re-entry point for
  /// the differential oracle: solving the same regex after clear()
  /// explores exactly the states a fresh solver would.
  void clear();

private:
  static constexpr uint32_t NoVertex = 0xFFFFFFFFu;
  static constexpr uint32_t NoLink = 0xFFFFFFFFu;

  /// A vertex record. Its successors are the slice
  /// [SuccBegin, SuccBegin + NumSucc) of Succs, written once by close();
  /// its predecessors are the list of PredLinks starting at PredHead.
  struct Vertex {
    Re R;
    bool Final = false;
    bool Closed = false;
    bool Alive = false;
    bool Dead = false;
    /// settleDead scratch: a candidate of settle number Stamp that reaches
    /// an open or alive vertex.
    bool Escapes = false;
    uint32_t Stamp = 0;
    uint32_t SuccBegin = 0;
    uint32_t NumSucc = 0;
    uint32_t PredHead = NoLink;
  };
  /// One reverse edge: From is a predecessor; Next links the next one.
  struct PredLink {
    uint32_t From;
    uint32_t Next;
  };

  /// R's vertex index, or NoVertex.
  uint32_t find(Re R) const {
    return R.Id < VertexOf.size() ? VertexOf[R.Id] : NoVertex;
  }
  std::span<const uint32_t> succs(uint32_t V) const {
    return {Succs.data() + Verts[V].SuccBegin, Verts[V].NumSucc};
  }
  /// Calls \p Fn(P) for every predecessor P of V.
  template <class Fn> void forEachPred(uint32_t V, Fn &&Visit) const {
    for (uint32_t L = Verts[V].PredHead; L != NoLink; L = PredLinks[L].Next)
      Visit(PredLinks[L].From);
  }
  void markAlive(uint32_t V);

  RegexManager &M;
  std::vector<Vertex> Verts;
  std::vector<uint32_t> VertexOf; // Re.Id -> vertex index, or NoVertex
  std::vector<uint32_t> Succs;    // every closed vertex's successor slice
  std::vector<PredLink> PredLinks;
  std::vector<uint32_t> Pending; // closed since the last settle
  uint32_t Epoch = 0;            // settles so far; candidate stamps
  std::vector<uint32_t> Cands, Escaping; // settleDead scratch
  std::vector<uint32_t> AliveStack;      // markAlive scratch
};

} // namespace sbd

#endif // SBD_SOLVER_DERIVATIVEGRAPH_H
