//===- solver/DerivativeGraph.cpp - The solver's regex graph G --------------===//
// sbd-lint: hot-path

#include "solver/DerivativeGraph.h"

#include <algorithm>
#include <cassert>

using namespace sbd;

void DerivativeGraph::clear() {
  Verts.clear();
  Index.clear();
  NumEdges = 0;
  Pending.clear();
  Epoch = 0;
}

uint32_t DerivativeGraph::addVertex(Re R) {
  if (const uint32_t *Hit = Index.find(R.Id))
    return *Hit;
  uint32_t V = static_cast<uint32_t>(Verts.size());
  Vertex Vx;
  Vx.R = R;
  Vx.Final = M.nullable(R);
  Verts.push_back(std::move(Vx));
  Index.insert(R.Id, V);
  if (Verts[V].Final)
    markAlive(V);
  return V;
}

void DerivativeGraph::close(Re R, const std::vector<Re> &Targets) {
  uint32_t V = addVertex(R);
  if (Verts[V].Closed)
    return; // upd has no effect on closed vertices
  for (Re Target : Targets) {
    uint32_t W = addVertex(Target);
    // Dedup parallel edges.
    if (std::find(Verts[V].Succ.begin(), Verts[V].Succ.end(), W) !=
        Verts[V].Succ.end())
      continue;
    Verts[V].Succ.push_back(W);
    Verts[W].Pred.push_back(V);
    ++NumEdges;
    if (Verts[W].Alive)
      markAlive(V);
  }
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
    for (uint32_t P : Verts[Cands[I]].Pred)
      collect(P);

  // A candidate escapes when a successor is neither a candidate nor dead:
  // such a successor is open, alive, or still reaches one of those.
  Escaping.clear();
  for (uint32_t V : Cands) {
    for (uint32_t W : Verts[V].Succ) {
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
    for (uint32_t P : Verts[V].Pred) {
      if (Verts[P].Stamp != Epoch || Verts[P].Escapes)
        continue;
      Verts[P].Escapes = true;
      Escaping.push_back(P);
    }
  }
  for (uint32_t V : Cands)
    Verts[V].Dead = !Verts[V].Escapes;
}

bool DerivativeGraph::isClosed(Re R) const {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Closed;
}

bool DerivativeGraph::isFinal(Re R) const {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Final;
}

bool DerivativeGraph::isAlive(Re R) const {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Alive;
}

bool DerivativeGraph::isDead(Re R) const {
  const uint32_t *Hit = Index.find(R.Id);
  return Hit && Verts[*Hit].Dead;
}

std::vector<Re> DerivativeGraph::successors(Re R) const {
  std::vector<Re> Out;
  const uint32_t *Hit = Index.find(R.Id);
  if (!Hit)
    return Out;
  for (uint32_t W : Verts[*Hit].Succ)
    Out.push_back(Verts[W].R);
  return Out;
}

void DerivativeGraph::markAlive(uint32_t V) {
  if (Verts[V].Alive)
    return;
  // Alive propagates backwards: every predecessor of an alive vertex can
  // reach F through it.
  std::vector<uint32_t> Stack = {V};
  Verts[V].Alive = true;
  while (!Stack.empty()) {
    uint32_t Cur = Stack.back();
    Stack.pop_back();
    for (uint32_t P : Verts[Cur].Pred) {
      if (Verts[P].Alive)
        continue;
      Verts[P].Alive = true;
      Stack.push_back(P);
    }
  }
}
