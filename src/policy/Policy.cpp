//===- policy/Policy.cpp - Cloud-policy front end ------------------------------===//

#include "policy/Policy.h"

#include "re/SmtPrinter.h"
#include "support/Unicode.h"

#include <set>

using namespace sbd;

Re PolicyChecker::compileMatchPattern(RegexManager &M,
                                      const std::string &Pattern) {
  std::vector<Re> Parts;
  for (uint32_t Cp : fromUtf8(Pattern)) {
    switch (Cp) {
    case '#':
      Parts.push_back(M.pred(CharSet::digit()));
      break;
    case '?':
      Parts.push_back(M.pred(CharSet::asciiLetter()));
      break;
    case '*':
      Parts.push_back(M.top());
      break;
    default:
      Parts.push_back(M.chr(Cp));
      break;
    }
  }
  return M.concatList(Parts);
}

Re PolicyChecker::compileLikePattern(RegexManager &M,
                                     const std::string &Pattern) {
  std::vector<Re> Parts;
  for (uint32_t Cp : fromUtf8(Pattern)) {
    if (Cp == '*')
      Parts.push_back(M.top());
    else
      Parts.push_back(M.chr(Cp));
  }
  return M.concatList(Parts);
}

namespace {

/// Compiles a policy condition into an SMT-LIB Boolean term over the
/// policy's field variables (quoted symbols), collecting the fields seen.
class ConditionCompiler {
public:
  ConditionCompiler(RegexManager &Mgr) : M(Mgr) {}

  std::optional<std::string> compile(const JsonValue &Cond) {
    if (!Cond.isObject()) {
      Error = "condition must be a JSON object";
      return std::nullopt;
    }
    // Combinators.
    if (const JsonValue *All = Cond.get("allOf"))
      return combine("and", *All);
    if (const JsonValue *Any = Cond.get("anyOf"))
      return combine("or", *Any);
    if (const JsonValue *Not = Cond.get("not")) {
      auto Inner = compile(*Not);
      if (!Inner)
        return std::nullopt;
      return "(not " + *Inner + ")";
    }
    // Leaf: a field with exactly one operator.
    const JsonValue *Field = Cond.get("field");
    if (!Field || !Field->isString()) {
      Error = "leaf condition needs a string \"field\"";
      return std::nullopt;
    }
    Fields.insert(Field->asString());
    std::string Var = "|" + Field->asString() + "|";

    auto leaf = [&](Re R, bool Positive) {
      std::string Term =
          "(str.in_re " + Var + " " + regexToSmtTerm(M, R) + ")";
      return Positive ? Term : "(not " + Term + ")";
    };
    if (const JsonValue *P = Cond.get("match"); P && P->isString())
      return leaf(PolicyChecker::compileMatchPattern(M, P->asString()), true);
    if (const JsonValue *P = Cond.get("notMatch"); P && P->isString())
      return leaf(PolicyChecker::compileMatchPattern(M, P->asString()),
                  false);
    if (const JsonValue *P = Cond.get("like"); P && P->isString())
      return leaf(PolicyChecker::compileLikePattern(M, P->asString()), true);
    if (const JsonValue *P = Cond.get("notLike"); P && P->isString())
      return leaf(PolicyChecker::compileLikePattern(M, P->asString()), false);
    if (const JsonValue *P = Cond.get("equals"); P && P->isString())
      return leaf(M.word(fromUtf8(P->asString())), true);
    if (const JsonValue *P = Cond.get("notEquals"); P && P->isString())
      return leaf(M.word(fromUtf8(P->asString())), false);
    if (const JsonValue *P = Cond.get("contains"); P && P->isString()) {
      Re Lit = M.word(fromUtf8(P->asString()));
      return leaf(M.concat(M.top(), M.concat(Lit, M.top())), true);
    }
    if (const JsonValue *P = Cond.get("in"); P && P->isArray())
      return membershipList(*P, Var, true);
    if (const JsonValue *P = Cond.get("notIn"); P && P->isArray())
      return membershipList(*P, Var, false);
    Error = "leaf condition for field '" + Field->asString() +
            "' has no supported operator";
    return std::nullopt;
  }

  const std::set<std::string> &fields() const { return Fields; }
  const std::string &error() const { return Error; }

private:
  std::optional<std::string> combine(const char *Op, const JsonValue &List) {
    if (!List.isArray()) {
      Error = std::string(Op) + " needs an array";
      return std::nullopt;
    }
    if (List.asArray().empty())
      return std::string(Op) == "and" ? "true" : "false";
    std::string Out = "(";
    Out.append(Op);
    for (const JsonValue &Item : List.asArray()) {
      auto Inner = compile(Item);
      if (!Inner)
        return std::nullopt;
      Out += " " + *Inner;
    }
    return Out + ")";
  }

  std::optional<std::string> membershipList(const JsonValue &List,
                                            const std::string &Var,
                                            bool Positive) {
    std::vector<Re> Alternatives;
    for (const JsonValue &Item : List.asArray()) {
      if (!Item.isString()) {
        Error = "in/notIn lists must contain strings";
        return std::nullopt;
      }
      Alternatives.push_back(M.word(fromUtf8(Item.asString())));
    }
    Re Union = M.unionList(std::move(Alternatives));
    std::string Term =
        "(str.in_re " + Var + " " + regexToSmtTerm(M, Union) + ")";
    return Positive ? Term : "(not " + Term + ")";
  }

  RegexManager &M;
  std::set<std::string> Fields;
  std::string Error;
};

/// Builds the full script for a compiled condition.
std::string buildScript(const std::set<std::string> &Fields,
                        const std::string &Assertion) {
  std::string Script = "(set-logic QF_S)\n";
  for (const std::string &F : Fields)
    Script += "(declare-const |" + F + "| String)\n";
  Script += "(assert " + Assertion + ")\n(check-sat)\n";
  return Script;
}

/// Extracts the condition object of a policy document: the "if" member of
/// a rule, or the document itself when it already is a bare condition.
const JsonValue *conditionOf(const JsonValue &Doc) {
  if (const JsonValue *If = Doc.get("if"))
    return If;
  return &Doc;
}

} // namespace

PolicyAnalysis PolicyChecker::analyze(const std::string &JsonText,
                                      const SolveOptions &Opts) {
  PolicyAnalysis Out;
  JsonParseResult Parsed = parseJson(JsonText);
  if (!Parsed.Ok) {
    Out.Status = SolveStatus::Unsupported;
    Out.Note = "JSON parse error: " + Parsed.Error;
    return Out;
  }
  if (const JsonValue *Then = Parsed.Value.get("then"))
    if (const JsonValue *Effect = Then->get("effect"))
      if (Effect->isString())
        Out.Effect = Effect->asString();

  ConditionCompiler Compiler(Solver.regexManager());
  auto Assertion = Compiler.compile(*conditionOf(Parsed.Value));
  if (!Assertion) {
    Out.Status = SolveStatus::Unsupported;
    Out.Note = Compiler.error();
    return Out;
  }

  SmtSolver Smt(Solver);
  SmtResult R =
      Smt.solveScript(buildScript(Compiler.fields(), *Assertion), Opts);
  Out.Status = R.Status;
  Out.Note = R.Note;
  Out.Activation = std::move(R.Model);
  return Out;
}

SolveStatus PolicyChecker::implies(const std::string &JsonA,
                                   const std::string &JsonB,
                                   const SolveOptions &Opts) {
  JsonParseResult A = parseJson(JsonA);
  JsonParseResult B = parseJson(JsonB);
  if (!A.Ok || !B.Ok)
    return SolveStatus::Unsupported;
  ConditionCompiler Compiler(Solver.regexManager());
  auto TermA = Compiler.compile(*conditionOf(A.Value));
  if (!TermA)
    return SolveStatus::Unsupported;
  auto TermB = Compiler.compile(*conditionOf(B.Value));
  if (!TermB)
    return SolveStatus::Unsupported;
  // A implies B  iff  A ∧ ¬B is unsatisfiable.
  std::string Assertion = "(and " + *TermA + " (not " + *TermB + "))";
  SmtSolver Smt(Solver);
  SmtResult R =
      Smt.solveScript(buildScript(Compiler.fields(), Assertion), Opts);
  // Unsat = implication holds; Sat = a separating assignment exists.
  return R.Status;
}
