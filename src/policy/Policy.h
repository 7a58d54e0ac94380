//===- policy/Policy.h - Cloud-policy front end (Fig. 1) ---------------------===//
///
/// \file
/// The paper's motivating application: cloud resource-policy languages
/// (Amazon AWS, Microsoft Azure) whose conditions are Boolean combinations
/// of lightweight pattern constraints on string fields. This module
/// reproduces the Fig. 1 pipeline end to end: a JSON policy document
///
///   {"if": {"allOf": [{"field": "date", "match": "####-???-##"},
///                     {"anyOf": [{"field": "date", "like": "2019*"},
///                                {"field": "date", "like": "2020*"}]}]},
///    "then": {"effect": "audit"}}
///
/// compiles into a Boolean combination of regex membership constraints
/// (`match` patterns: `#` = \d, `?` = [a-zA-Z], `*` = .*, everything else
/// literal; `like` patterns: `*` = .*, everything else literal; plus
/// `equals`, `contains`, `notMatch`, `notLike`, `notEquals`, and the
/// combinators allOf / anyOf / not), and the paper's "sanity check for
/// SMT" — can this rule ever fire? — is answered by the symbolic-Boolean-
/// derivative solver through the SMT front end, which folds each field's
/// Boolean structure into one regex.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_POLICY_POLICY_H
#define SBD_POLICY_POLICY_H

#include "policy/Json.h"
#include "smt/SmtSolver.h"

#include <optional>
#include <string>
#include <vector>

namespace sbd {

/// Outcome of analyzing one policy document.
struct PolicyAnalysis {
  /// Overall verdict for "can the rule fire?".
  SolveStatus Status = SolveStatus::Unknown;
  /// The policy's "then.effect" value, when present.
  std::string Effect;
  /// A field assignment activating the policy (Sat only).
  std::vector<std::pair<std::string, std::string>> Activation;
  /// Diagnostics (parse errors, unsupported constructs).
  std::string Note;
};

/// Compiles and analyzes policies against the regex solver.
class PolicyChecker {
public:
  explicit PolicyChecker(RegexSolver &S) : Solver(S) {}

  /// Parses a JSON policy document and decides whether its "if" condition
  /// is satisfiable (the rule can fire), returning an activating witness.
  PolicyAnalysis analyze(const std::string &JsonText,
                         const SolveOptions &Opts = {});

  /// Decides whether policy A firing implies policy B firing (every field
  /// assignment activating A also activates B).
  SolveStatus implies(const std::string &JsonA, const std::string &JsonB,
                      const SolveOptions &Opts = {});

  /// Translates a `match` pattern (# = digit, ? = letter, * = any run,
  /// other characters literal) into a regex over \p M.
  static Re compileMatchPattern(RegexManager &M, const std::string &Pattern);

  /// Translates a `like` pattern (* = any run, others literal).
  static Re compileLikePattern(RegexManager &M, const std::string &Pattern);

private:
  RegexSolver &Solver;
};

} // namespace sbd

#endif // SBD_POLICY_POLICY_H
