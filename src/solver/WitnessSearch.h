//===- solver/WitnessSearch.h - Shortlex-least witness search ---------------===//
// sbd-lint: hot-path
///
/// \file
/// The one search behind the satisfiability engines: the derivative solver
/// (over δdnf arcs), the Antimirov baseline (over linear forms) and the
/// Brzozowski minterm baseline (one derivative per minterm). An engine says
/// how a vertex expands and what a new vertex is; the search owns the
/// visited set, the frontier and the witness.
///
/// Under SearchStrategy::Bfs the witness is the shortlex-least word of L(R):
/// a shortest word, and among those the least one in the character order
/// of `witnessLess`. It depends on the language alone, not on interning
/// order, on what the stack solved before, or on the engine. The search
/// runs one level at a time. An arc's character is its guard's least member
/// (`CharSet::sample()`), and arcs are taken in character order. A vertex
/// reached on the level being built keeps the least key (parent's rank,
/// character) offered to it; a finished level is sorted by key and ranked,
/// equal keys sharing a rank, so rank order is the order of least words.
/// Guards of δdnf union branches overlap, and so do partial derivatives,
/// so two vertices can share a least word: once a parent reaches a nullable
/// target, the parents tied with it in rank still run, and the nullable
/// target with the least key gives the witness.
///
/// Under SearchStrategy::Dfs the search expands the most recently reached
/// vertex, takes arcs in the engine's order and promises no particular
/// witness.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SOLVER_WITNESSSEARCH_H
#define SBD_SOLVER_WITNESSSEARCH_H

#include "charset/CharSet.h"
#include "re/Regex.h"
#include "solver/SolverResult.h"
#include "support/InternTable.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace sbd {

/// One successor of a vertex: reading Ch can move to Target.
struct SearchArc {
  uint32_t Ch; ///< the guard's sample(): its least member in witness order
  Re Target;
};

/// What the search does with a vertex it reaches for the first time.
enum class VertexKind : uint8_t {
  Open,  ///< expand it in turn
  Final, ///< nullable: the word that reached it is accepted
  Dead,  ///< proven empty (the bot rule): never expand it
};

/// One query's search, driven by three callbacks:
///   VertexKind Kind(Re R)                        — classify a new vertex;
///   bool Proceed(size_t Reached, size_t Open)    — before each expansion;
///   bool Expand(Re R, std::vector<SearchArc> &)  — append R's arcs.
/// A callback returns false to stop the search, after stop().
class WitnessSearch {
public:
  /// Searches from \p Root and records the outcome in \p Result: Sat with
  /// the witness, Unsat once every reachable vertex is expanded without a
  /// final one, and StatesExplored (the distinct vertices reached).
  template <class KindFn, class ProceedFn, class ExpandFn>
  void run(Re Root, SearchStrategy Strategy, SolveResult &Result,
           KindFn Kind, ProceedFn Proceed, ExpandFn Expand) {
    switch (explore(Root, Strategy, Kind, Proceed, Expand)) {
    case End::Found:
      Result.Status = SolveStatus::Sat;
      Result.Witness = witness();
      break;
    case End::Exhausted:
      Result.Status = SolveStatus::Unsat;
      break;
    case End::Stopped:
      break;
    }
    Result.StatesExplored = Reach.size();
  }

  /// Marks \p Result as stopped for \p Why (Unsupported for an unsupported
  /// fragment, Unknown otherwise); returns false for a callback to return.
  static bool stop(SolveResult &Result, StopReason Why, const char *Note) {
    Result.Status = Why == StopReason::UnsupportedFragment
                        ? SolveStatus::Unsupported
                        : SolveStatus::Unknown;
    Result.Stop = Why;
    Result.Note = Note;
    return false;
  }

private:
  enum class End : uint8_t { Found, Exhausted, Stopped };

  struct Vertex {
    Re R;
    uint32_t Parent; ///< index of the vertex whose arc reached this one
    uint32_t Ch;     ///< that arc's character
    uint32_t Rank;   ///< Bfs: order of the least word within its level
  };

  template <class KindFn, class ProceedFn, class ExpandFn>
  End explore(Re Root, SearchStrategy Strategy, KindFn &Kind,
              ProceedFn &Proceed, ExpandFn &Expand);

  uint32_t reach(Re R, uint32_t Parent, uint32_t Ch) {
    const uint32_t Idx = static_cast<uint32_t>(Reach.size());
    Visited.insert(R.Id, Idx);
    Reach.push_back(Vertex{R, Parent, Ch, 0});
    return Idx;
  }

  /// Key order of two vertices of one level: (parent rank, character).
  bool keyLess(uint32_t A, uint32_t B) const {
    const uint32_t RA = Reach[Reach[A].Parent].Rank;
    const uint32_t RB = Reach[Reach[B].Parent].Rank;
    return RA != RB ? RA < RB : witnessLess(Reach[A].Ch, Reach[B].Ch);
  }

  std::vector<uint32_t> witness() const {
    std::vector<uint32_t> Word;
    for (uint32_t I = Final; I != 0; I = Reach[I].Parent)
      Word.push_back(Reach[I].Ch);
    std::reverse(Word.begin(), Word.end());
    return Word;
  }

  std::vector<Vertex> Reach; // in first-reached order; the root is 0
  FlatMap64 Visited;         // Re.Id -> index into Reach
  uint32_t Final = 0;
};

template <class KindFn, class ProceedFn, class ExpandFn>
WitnessSearch::End WitnessSearch::explore(Re Root, SearchStrategy Strategy,
                                          KindFn &Kind, ProceedFn &Proceed,
                                          ExpandFn &Expand) {
  reach(Root, 0, 0);
  switch (Kind(Root)) {
  case VertexKind::Final:
    return End::Found;
  case VertexKind::Dead:
    return End::Exhausted;
  case VertexKind::Open:
    break;
  }
  std::vector<SearchArc> Arcs;

  if (Strategy == SearchStrategy::Dfs) {
    std::vector<uint32_t> Stack{0};
    while (!Stack.empty()) {
      if (!Proceed(Reach.size(), Stack.size()))
        return End::Stopped;
      const uint32_t P = Stack.back();
      Stack.pop_back();
      Arcs.clear();
      if (!Expand(Reach[P].R, Arcs))
        return End::Stopped;
      for (const SearchArc &A : Arcs) {
        if (Visited.find(A.Target.Id))
          continue;
        const uint32_t I = reach(A.Target, P, A.Ch);
        const VertexKind K = Kind(A.Target);
        if (K == VertexKind::Final) {
          Final = I;
          return End::Found;
        }
        if (K == VertexKind::Open)
          Stack.push_back(I);
      }
    }
    return End::Exhausted;
  }

  // Level holds the open vertices of one depth in rank order; Next collects
  // the open vertices of the level being built, Finals its final ones.
  std::vector<uint32_t> Level{0}, Next, Finals;
  for (;;) {
    const uint32_t LevelEnd = static_cast<uint32_t>(Reach.size());
    uint32_t TieRank = 0;
    for (size_t Pos = 0; Pos != Level.size(); ++Pos) {
      const uint32_t P = Level[Pos];
      if (!Finals.empty() && Reach[P].Rank != TieRank)
        break; // every parent tied with the first final's parent has run
      if (!Proceed(Reach.size(), Level.size() - Pos + Next.size()))
        return End::Stopped;
      Arcs.clear();
      if (!Expand(Reach[P].R, Arcs))
        return End::Stopped;
      std::sort(Arcs.begin(), Arcs.end(),
                [](const SearchArc &A, const SearchArc &B) {
                  return witnessLess(A.Ch, B.Ch);
                });
      for (const SearchArc &A : Arcs) {
        if (const uint32_t *Seen = Visited.find(A.Target.Id)) {
          // Parents run in rank order, so only a tied parent can offer a
          // vertex of the level being built a smaller key.
          Vertex &V = Reach[*Seen];
          if (*Seen >= LevelEnd && Reach[V.Parent].Rank == Reach[P].Rank &&
              witnessLess(A.Ch, V.Ch)) {
            V.Parent = P;
            V.Ch = A.Ch;
          }
          continue;
        }
        const uint32_t I = reach(A.Target, P, A.Ch);
        const VertexKind K = Kind(A.Target);
        if (K != VertexKind::Dead)
          (K == VertexKind::Final ? Finals : Next).push_back(I);
      }
      if (!Finals.empty())
        TieRank = Reach[P].Rank;
    }
    auto ByKey = [this](uint32_t A, uint32_t B) { return keyLess(A, B); };
    if (!Finals.empty()) {
      Final = *std::min_element(Finals.begin(), Finals.end(), ByKey);
      return End::Found;
    }
    if (Next.empty())
      return End::Exhausted;
    // Parents run in rank order and arcs in character order, so Next is
    // out of key order only where tied parents interleave.
    if (!std::is_sorted(Next.begin(), Next.end(), ByKey))
      std::sort(Next.begin(), Next.end(), ByKey);
    uint32_t Rank = 0;
    for (size_t I = 0; I != Next.size(); ++I) {
      if (I != 0 && keyLess(Next[I - 1], Next[I]))
        ++Rank;
      Reach[Next[I]].Rank = Rank;
    }
    Level.swap(Next);
    Next.clear();
  }
}

} // namespace sbd

#endif // SBD_SOLVER_WITNESSSEARCH_H
