//===- baselines/AntimirovSolver.h - Partial-derivative baseline ------------===//
///
/// \file
/// Symbolic Antimirov (partial-derivative) solver for the positive fragment
/// of ERE — the approach of Liang et al. [43] that CVC4's regex engine is
/// based on, with intersection handled by pairwise products of partial
/// derivatives in the style of Caron–Champarnaud–Mignot [17]. Complement is
/// out of scope for this technique (as in the paper's evaluation, where the
/// corresponding solvers error on explicit `~`), so inputs containing `~`
/// return Unsupported.
///
/// The "linear form" lin(R) computed here is the symbolic counterpart of
/// Antimirov's ∂: a set of (guard, target) pairs such that
/// L(R) ∖ {ε} = ⋃ {a·L(t) : (φ,t) ∈ lin(R), a ∈ [[φ]]}.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_BASELINES_ANTIMIROVSOLVER_H
#define SBD_BASELINES_ANTIMIROVSOLVER_H

#include "analysis/RegexAnalyzer.h"
#include "automata/Sfa.h"
#include "re/Regex.h"
#include "solver/SolverResult.h"

#include <optional>
#include <vector>

namespace sbd {

/// One symbolic partial derivative: reading a character in [[Guard]] can
/// continue with Target.
struct LinearArc {
  CharSet Guard;
  Re Target;
};

/// Computes the symbolic linear form of R. Returns false (and leaves Out
/// untouched) when R contains complement.
bool linearForm(RegexManager &M, Re R, std::vector<LinearArc> &Out);

/// Builds the partial-derivative automaton of a positive regex: states are
/// the partial derivatives (the closure of linearForm targets), which for
/// plain RE is Antimirov's classical NFA with at most ♯(R)+1 states —
/// typically smaller than the position (Glushkov) automaton. Returns
/// nullopt when R contains complement or the closure exceeds \p MaxStates.
std::optional<Snfa> buildPartialDerivativeNfa(RegexManager &M, Re R,
                                              size_t MaxStates = 0);

/// Partial-derivative satisfiability solver (positive fragment).
class AntimirovSolver {
public:
  /// \p A must analyze \p Mgr's arena; it is borrowed, so one analyzer per
  /// arena serves the router and this solver alike.
  AntimirovSolver(RegexManager &Mgr, analysis::RegexAnalyzer &A)
      : M(Mgr), Analyzer(A) {}

  /// Decides nonemptiness of L(R); Unsupported when R contains `~` (a
  /// RegexFeatures lookup on the shared analyzer, O(1) once the router
  /// has folded R).
  SolveResult solve(Re R, const SolveOptions &Opts = {});

private:
  RegexManager &M;
  analysis::RegexAnalyzer &Analyzer;
};

} // namespace sbd

#endif // SBD_BASELINES_ANTIMIROVSOLVER_H
