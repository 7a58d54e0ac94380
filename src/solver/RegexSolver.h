//===- solver/RegexSolver.h - Decision procedure (Section 5) ----------------===//
///
/// \file
/// The symbolic-Boolean-derivative decision procedure. This is the
/// standalone counterpart of dZ3's membership propagation rules (Fig. 3):
/// a membership goal in(s, r) is unfolded lazily through δdnf, each
/// conditional branch becoming a character case split, while the persistent
/// graph G records which regexes are proven dead ends (the bot rule) and
/// which are alive.
///
/// Exploration over the derivative graph plays the role of the SMT core's
/// case splitting. Breadth-first order (the default) returns the
/// *shortlex-least* witness (solver/WitnessSearch.h); depth-first order (SolveOptions::Strategy) mimics the
/// backtracking search of a real SMT core and reaches deep witnesses
/// without materializing the whole frontier. Boolean combinations of membership constraints
/// on one string compile into a single ERE (Section 2), and side constraints
/// on individual positions (the `s0 > 0` splits of the running example) are
/// expressible as an intersection with `φ0·φ1·…·.*`.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SOLVER_REGEXSOLVER_H
#define SBD_SOLVER_REGEXSOLVER_H

#include "analysis/RegexAnalyzer.h"
#include "core/Derivatives.h"
#include "solver/DerivativeGraph.h"
#include "solver/SolverResult.h"

namespace sbd {

/// One membership literal: s ∈ R (positive) or s ∉ R (negative).
struct MembershipLiteral {
  Re Regex;
  bool Positive = true;
};

/// The derivative-based regex satisfiability solver.
class RegexSolver {
public:
  explicit RegexSolver(DerivativeEngine &Eng)
      : Engine(Eng), M(Eng.regexManager()), T(Eng.trManager()),
        Graph(Eng.regexManager()) {}

  /// Decides satisfiability of in(s, R) for an uninterpreted s: is L(R)
  /// nonempty? On Sat under Bfs the witness is the shortlex-least word of
  /// L(R), whatever this solver solved before. Every return settles the
  /// graph's Dead set (DerivativeGraph::settleDead), so a later query's bot
  /// rule starts from every dead end this one proved.
  SolveResult checkSat(Re R, const SolveOptions &Opts = {});

  /// Decides a conjunction of membership literals on the same string by
  /// compiling it to a single ERE (conjunction → &, negation → ~).
  SolveResult checkMembership(const std::vector<MembershipLiteral> &Literals,
                              const SolveOptions &Opts = {});

  /// L(A) ⊆ L(B)? Reduces to emptiness of A & ~B; on failure the result's
  /// witness is a word in A \ B.
  SolveResult checkContains(Re A, Re B, const SolveOptions &Opts = {});

  /// L(A) = L(B)? Reduces to emptiness of the symmetric difference; on
  /// failure the witness distinguishes the two languages.
  SolveResult checkEquivalent(Re A, Re B, const SolveOptions &Opts = {});

  /// One application of the der/ite/or rules of Fig. 3a, for embedding the
  /// procedure into an external DPLL(T)-style loop: in(s, R) is equivalent
  /// to (|s| = 0 ∧ EmptyCase) ∨ ⋁_arcs (Arc.Guard(s₀) ∧ in(s₁.., Arc.Target)).
  /// The persistent graph is updated (upd rule) and its Dead set settled as
  /// a side effect, so a caller can consult graph().isDead(...) on any
  /// target right away to apply the bot rule, as an SMT core would between
  /// splits.
  struct CaseSplit {
    bool EmptyCase;          ///< ν(R): the |s| = 0 disjunct is viable
    std::vector<TrArc> Arcs; ///< the |s| > 0 disjuncts (satisfiable guards)
  };
  CaseSplit caseSplit(Re R);

  /// Compiles per-position character constraints into a regex: the word
  /// must start with characters drawn from Positions[0], Positions[1], …
  /// followed by anything. Intersect with the goal regex to express the
  /// paper's side-constraint case splits.
  Re positionConstraint(const std::vector<CharSet> &Positions);

  /// Concrete membership of \p Word in L(R): the classical derivative walk
  /// D_a of §8.1 (DerivativeEngine::matches), one concrete step per
  /// character, stopping at the first ⊥. This is the witness check of every
  /// Sat answer the service path ships (fresh solves, cached verdicts, SMT
  /// models). It is the reference matcher the fuzz oracle judges every
  /// engine against and shares no δ or δdnf memo with the search, so it
  /// stays an independent check of what the search or the Antimirov route
  /// claimed.
  bool matchesWord(Re R, const std::vector<uint32_t> &Word);

  /// The persistent graph (shared across queries; exposes Dead/Alive).
  /// isDead answers as of the last settle: the end of the last checkSat or
  /// caseSplit.
  DerivativeGraph &graph() { return Graph; }

  /// Clears the persistent graph, making the next query behave exactly as
  /// if it ran on a freshly constructed solver. The differential oracle
  /// calls this between samples so per-query exploration (and the counters
  /// derived from it) is deterministic regardless of sample order; verdicts
  /// never depend on it.
  void resetGraph() { Graph.clear(); }

  /// The derivative engine this solver runs on.
  DerivativeEngine &engine() { return Engine; }

  /// The regex arena all inputs must come from.
  RegexManager &regexManager() { return M; }

  /// The pre-solve static analyzer (shared with the portfolio router so a
  /// query's features are folded exactly once per arena).
  analysis::RegexAnalyzer &analyzer() { return Analyzer; }

  /// Admission-control state cap applied to Adversarial-classified queries
  /// that arrive without their own MaxStates budget (DESIGN.md §14).
  static constexpr size_t AdmissionMaxStates = 1 << 16;

private:
  DerivativeEngine &Engine;
  RegexManager &M;
  TrManager &T;
  DerivativeGraph Graph;
  analysis::RegexAnalyzer Analyzer{M};
};

} // namespace sbd

#endif // SBD_SOLVER_REGEXSOLVER_H
