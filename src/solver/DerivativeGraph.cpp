//===- solver/DerivativeGraph.cpp - The solver's regex graph G --------------===//
// sbd-lint: hot-path

#include "solver/DerivativeGraph.h"

#include <algorithm>
#include <cassert>

using namespace sbd;

void DerivativeGraph::clear() {
  Verts.clear();
  VertexOf.clear();
  Succs.clear();
  PredLinks.clear();
  Pending.clear();
  Epoch = 0;
}

uint32_t DerivativeGraph::addVertex(Re R) {
  if (const uint32_t Hit = find(R); Hit != NoVertex)
    return Hit;
  if (VertexOf.size() <= R.Id)
    VertexOf.resize(M.numNodes(), NoVertex);
  uint32_t V = static_cast<uint32_t>(Verts.size());
  Vertex Vx;
  Vx.R = R;
  Vx.Final = M.nullable(R);
  Verts.push_back(Vx);
  VertexOf[R.Id] = V;
  if (Vx.Final)
    markAlive(V);
  return V;
}

void DerivativeGraph::close(Re R, const std::vector<Re> &Targets) {
  uint32_t V = addVertex(R);
  if (Verts[V].Closed)
    return; // upd has no effect on closed vertices
  // V's successors are appended as one slice; addVertex and markAlive
  // below touch neither Succs nor V's slice bounds.
  const uint32_t Begin = static_cast<uint32_t>(Succs.size());
  for (Re Target : Targets) {
    uint32_t W = addVertex(Target);
    // Dedup parallel edges.
    if (std::find(Succs.begin() + Begin, Succs.end(), W) != Succs.end())
      continue;
    Succs.push_back(W);
    PredLinks.push_back({V, Verts[W].PredHead});
    Verts[W].PredHead = static_cast<uint32_t>(PredLinks.size() - 1);
    if (Verts[W].Alive)
      markAlive(V);
  }
  Verts[V].SuccBegin = Begin;
  Verts[V].NumSucc = static_cast<uint32_t>(Succs.size()) - Begin;
  Verts[V].Closed = true;
  Pending.push_back(V);
}

void DerivativeGraph::settleDead() {
  if (Pending.empty())
    return;
  ++Epoch;
  // Candidates: the closed, non-alive vertices that reach a vertex closed
  // since the last settle. Any other vertex that was not dead then still
  // reaches the open or alive vertex that kept it so (edges are fixed at
  // close and Alive only grows). No candidate is dead: it reaches a vertex
  // that was open at the last settle. Alive vertices are skipped, and so
  // are their predecessors, which are alive too.
  Cands.clear();
  auto collect = [&](uint32_t V) {
    Vertex &Vx = Verts[V];
    if (Vx.Alive || Vx.Stamp == Epoch)
      return;
    assert(Vx.Closed && !Vx.Dead && "candidates are closed and not dead");
    Vx.Stamp = Epoch;
    Vx.Escapes = false;
    Cands.push_back(V);
  };
  for (uint32_t V : Pending)
    collect(V);
  Pending.clear();
  for (size_t I = 0; I != Cands.size(); ++I)
    forEachPred(Cands[I], collect);

  // A candidate escapes when a successor is neither a candidate nor dead:
  // such a successor is open, alive, or still reaches one of those.
  Escaping.clear();
  for (uint32_t V : Cands) {
    for (uint32_t W : succs(V)) {
      if (Verts[W].Stamp != Epoch && !Verts[W].Dead) {
        Verts[V].Escapes = true;
        Escaping.push_back(V);
        break;
      }
    }
  }
  // Escape propagates backwards within the candidates; the rest are dead.
  while (!Escaping.empty()) {
    uint32_t V = Escaping.back();
    Escaping.pop_back();
    forEachPred(V, [&](uint32_t P) {
      if (Verts[P].Stamp != Epoch || Verts[P].Escapes)
        return;
      Verts[P].Escapes = true;
      Escaping.push_back(P);
    });
  }
  for (uint32_t V : Cands)
    Verts[V].Dead = !Verts[V].Escapes;
}

bool DerivativeGraph::isClosed(Re R) const {
  const uint32_t V = find(R);
  return V != NoVertex && Verts[V].Closed;
}

bool DerivativeGraph::isFinal(Re R) const {
  const uint32_t V = find(R);
  return V != NoVertex && Verts[V].Final;
}

bool DerivativeGraph::isAlive(Re R) const {
  const uint32_t V = find(R);
  return V != NoVertex && Verts[V].Alive;
}

bool DerivativeGraph::isDead(Re R) const {
  const uint32_t V = find(R);
  return V != NoVertex && Verts[V].Dead;
}

std::vector<Re> DerivativeGraph::successors(Re R) const {
  std::vector<Re> Out;
  const uint32_t V = find(R);
  if (V == NoVertex)
    return Out;
  for (uint32_t W : succs(V))
    Out.push_back(Verts[W].R);
  return Out;
}

void DerivativeGraph::markAlive(uint32_t V) {
  if (Verts[V].Alive)
    return;
  // Alive propagates backwards: every predecessor of an alive vertex can
  // reach F through it.
  AliveStack.assign(1, V);
  Verts[V].Alive = true;
  while (!AliveStack.empty()) {
    uint32_t Cur = AliveStack.back();
    AliveStack.pop_back();
    forEachPred(Cur, [&](uint32_t P) {
      if (Verts[P].Alive)
        return;
      Verts[P].Alive = true;
      AliveStack.push_back(P);
    });
  }
}
