//===- smt/SmtSolver.h - SMT-LIB string/regex front end ---------------------===//
///
/// \file
/// A standalone front end for the SMT-LIB fragment the paper's benchmarks
/// live in: string constants constrained by Boolean combinations of regex
/// memberships, plus `str.len` bounds and a few string predicates that
/// reduce to memberships. This reproduces the dZ3 slice of Z3's sequence
/// theory in isolation:
///
///  - every regex term compiles to a symbolic ERE;
///  - `str.len` comparisons compile to `.{m,n}` regexes;
///  - at assert time, Boolean structure over memberships of one string
///    compiles to a single extended regex (and → `&`, or → `|`, not → `~`),
///    the reduction of Section 2, so a check over one string is one query.
///    Negation is pushed through the and/or left, which span strings, by De
///    Morgan with a per-node memo: linear in the formula DAG;
///  - cubes (implicants) are enumerated only for disjunctions across
///    strings. A cube splits into one ERE query per string, asked as soon
///    as a second atom on that string joins it.
///
/// One command interpreter, `SmtSession` (DESIGN.md §15), runs every
/// command. It keeps the compiled state alive *between* commands: one
/// persistent arena and derivative graph serve repeated check-sats, so
/// later checks reuse every interned term, memoized derivative, and
/// dead/alive fact earlier checks established. It is the engine behind
/// the resident `sbd-server` front end. `SmtSolver::solveScript` runs a
/// whole script in one call by feeding a fresh session its forms; every
/// `(check-sat)` produces one entry in `SmtResult::Checks`.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SMT_SMTSOLVER_H
#define SBD_SMT_SMTSOLVER_H

#include "automata/BoolExpr.h"
#include "smt/SExpr.h"
#include "solver/RegexSolver.h"

#include <map>
#include <memory>
#include <optional>
#include <string>

namespace sbd {

namespace cache {
class VerdictCache;
} // namespace cache

/// Outcome of one `(check-sat)` command.
struct SmtCheck {
  SolveStatus Status = SolveStatus::Unknown;
  /// Machine-readable cause of an Unknown/Unsupported verdict.
  StopReason Stop = StopReason::None;
  /// Diagnostics for Unknown/Unsupported.
  std::string Note;
  /// Variable assignment (UTF-8 values) when Sat.
  std::vector<std::pair<std::string, std::string>> Model;
  /// Cubes solved, partial ones included; 1 for a formula on one string.
  size_t CubesTried = 0;
};

/// Outcome of solving one SMT script.
struct SmtResult {
  /// Verdict of the *last* check-sat (or of the implicit final check when
  /// the script has none).
  SolveStatus Status = SolveStatus::Unknown;
  /// Variable assignment (UTF-8 values) when Sat.
  std::vector<std::pair<std::string, std::string>> Model;
  /// Machine-readable cause of an Unknown/Unsupported verdict.
  StopReason Stop = StopReason::None;
  /// Diagnostics for Unknown/Unsupported.
  std::string Note;
  /// The `(set-info :status …)` label, when present.
  std::optional<bool> ExpectedSat;
  /// Work attribution summed over every regex sub-query the script ran.
  SolveStats Stats;
  /// Cubes solved, summed over every check-sat in the script.
  size_t CubesTried = 0;
  /// Rendered answer to `(get-info :statistics)`, when the script asked
  /// for it (Z3-style keyword list).
  std::string Statistics;
  /// One entry per check-sat command, in script order.
  std::vector<SmtCheck> Checks;
};

/// SMT-LIB driver on top of the symbolic-Boolean-derivative regex solver.
class SmtSolver {
public:
  explicit SmtSolver(RegexSolver &S) : Solver(S) {}

  /// Parses and solves a whole script, including incremental ones, through
  /// one SmtSession: every check-sat appends to `SmtResult::Checks`, and
  /// the top-level verdict is the last check's. A script without a
  /// check-sat gets one implicit final check. The script stops at an
  /// (exit), and at the first error of a declaration, assertion, push, pop
  /// or check-sat-assuming, which makes the result Unsupported with the
  /// error as its Note; errors of other commands leave the verdict alone.
  SmtResult solveScript(const std::string &Script,
                        const SolveOptions &Opts = {});

private:
  RegexSolver &Solver;
};

/// Deepest assertion-frame stack (push) accepts; a push past it is an
/// error, not one allocation per requested frame.
constexpr size_t MaxPushDepth = 10000;

/// Incremental SMT-LIB session: the compiled state — declarations, scoped
/// assertion frames, the Boolean-skeleton atom table, and (through the
/// wrapped solver) the regex arena plus derivative graph — persists across
/// commands, so repeated check-sats pay only for what changed. Dead/alive
/// facts in the derivative graph are monotone language truths, so they
/// survive push/pop unconditionally.
///
/// The session is single-threaded (like the solver stack it wraps); the
/// attached VerdictCache, if any, may be shared across sessions.
class SmtSession {
public:
  /// \p Opts applies to every regex sub-query of every check.
  explicit SmtSession(RegexSolver &S, const SolveOptions &Opts = {});
  ~SmtSession();
  SmtSession(const SmtSession &) = delete;
  SmtSession &operator=(const SmtSession &) = delete;

  /// Attaches (or detaches) a cross-query verdict cache on the session's
  /// portfolio router. Not owned.
  void setVerdictCache(cache::VerdictCache *C);

  /// Response to one command.
  struct Reply {
    /// Protocol text ("sat", "success", "(error …)", …); empty when the
    /// command produces no output (e.g. successes with :print-success off).
    std::string Text;
    bool IsError = false;       ///< Text is an (error "…") response
    std::string Error;          ///< the error message, unquoted, if IsError
    bool ExitRequested = false; ///< the command was (exit)
  };

  /// Executes one top-level command. Errors are per-command: the session
  /// stays usable afterwards (SMT-LIB "continued-execution" behavior).
  Reply execute(const SExpr &Form);

  /// Parses \p Text and executes every form. A parse error yields a single
  /// error reply. Execution stops after an (exit).
  std::vector<Reply> executeAll(const std::string &Text);

  /// Result of the most recent check-sat, as a script-level SmtResult
  /// (cumulative Stats/CubesTried over the session's lifetime; Statistics
  /// is the most recent (get-info :statistics) answer).
  SmtResult lastResult() const;

  /// check-sat commands served so far (also counted in obs SessionChecks).
  uint64_t checksRun() const { return Checks; }

  /// Live assertions across all frames.
  size_t numAssertions() const;

  /// Current push depth (0 = only the base frame).
  size_t pushDepth() const;

  /// (reset): drops declarations, assertions, and option state. The regex
  /// arena is deliberately kept — interned terms stay valid and warm.
  void reset();

private:
  struct Impl;
  std::unique_ptr<Impl> I;
  uint64_t Checks = 0;
};

} // namespace sbd

#endif // SBD_SMT_SMTSOLVER_H
