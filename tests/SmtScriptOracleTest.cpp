//===- tests/SmtScriptOracleTest.cpp - Script-level SMT oracle ---------------===//
///
/// \file
/// A seeded oracle for the SMT front end as a whole. Each case generates an
/// SMT-LIB script over one or two bounded string variables: regex
/// memberships from the fuzz generator, plus every non-regex atom the front
/// end accepts (`=`/`distinct` with a literal, `str.len` comparisons,
/// prefixof/suffixof/contains, `str.at`, `str.to_code`), under
/// and/or/not/ite/=>, with random push/pop, reset-assertions, reset,
/// check-sat-assuming and several check-sats. The script runs through an SmtSession, and every answer is
/// judged against bounded exhaustive evaluation:
///
///  - each variable v carries `(<= (str.len v) k)`, so its candidates are
///    the words of length <= k over one representative per minterm of the
///    script's predicates (computeMinterms). Every atom is constant on a
///    minterm, so this finite search decides the script exactly;
///  - regex atoms are evaluated with the classical derivative matcher
///    (DerivativeEngine::matches) in the generator's own arena, the other
///    atoms by their string semantics. The reference shares nothing with
///    δdnf, the Boolean fold, cube enumeration or the verdict cache.
///
/// Laws: `sat` iff some assignment satisfies the live assertions and the
/// assumptions; every (get-model) satisfies them; `unknown` only with a
/// typed StopReason (counted and printed).
///
//===----------------------------------------------------------------------===//

#include "smt/SmtSolver.h"

#include "cache/VerdictCache.h"
#include "core/Derivatives.h"
#include "fuzz/Generator.h"
#include "re/SmtPrinter.h"
#include "smt/SExpr.h"
#include "support/Unicode.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iostream>
#include <map>
#include <set>

using namespace sbd;

namespace {

using Word = std::vector<uint32_t>;

/// One atom on one variable.
struct OAtom {
  enum Kind { InRe, Eq, Distinct, Len, Prefix, Suffix, Contains, At, Code };
  Kind K = InRe;
  unsigned Var = 0;
  Re Regex;           ///< InRe
  Word Lit;           ///< Eq, Distinct, Prefix, Suffix, Contains, At
  std::string Op;     ///< Len, Code: one of = <= < >= >
  int64_t N = 0;      ///< Len, Code: the constant
  int64_t Index = 0;  ///< At, Code: the str.at position
};

/// Boolean skeleton node; Kids index into ScriptCase::Nodes.
struct ONode {
  enum Kind { Leaf, True, False, Not, And, Or, Ite, Implies };
  Kind K = True;
  size_t Atom = 0;
  std::vector<size_t> Kids;
};

/// One command of a generated script.
struct OCommand {
  enum Kind {
    Assert,
    Push,
    Pop,
    Check,
    CheckAssuming,
    ResetAssertions,
    Reset,
    Declare
  };
  Kind K;
  std::vector<size_t> Formulas; ///< Assert: one; CheckAssuming: the list
  unsigned Var = 0;             ///< Declare
};

bool compareInts(int64_t L, const std::string &Op, int64_t R) {
  if (Op == "=")
    return L == R;
  if (Op == "<=")
    return L <= R;
  if (Op == "<")
    return L < R;
  if (Op == ">=")
    return L >= R;
  return L > R;
}

const char *const CompareOps[] = {"=", "<=", "<", ">=", ">"};
const char *const VarNames[] = {"s", "t"};

/// Generates one script and decides it by bounded enumeration.
class ScriptCase {
public:
  ScriptCase(uint64_t Seed, unsigned NumVars)
      : NumVars(NumVars), Rand(Seed), Gen(M, Seed ^ 0x5eed, genOptions()) {
    generate();
  }

  /// The script text, one command per entry (declarations first).
  const std::vector<std::string> &commands() const { return Text; }

  /// The full script, for failure messages.
  std::string scriptText() const {
    std::string Out;
    for (const std::string &C : Text)
      Out += C + "\n";
    return Out;
  }

  /// Abstract commands, aligned with commands() after the prelude.
  const std::vector<OCommand> &body() const { return Body; }
  size_t preludeSize() const { return Text.size() - Body.size(); }
  size_t boundFormula(unsigned Var) const { return Bounds[Var]; }

  /// Whether some bounded assignment satisfies every formula in \p Live.
  bool satisfiable(const std::vector<size_t> &Live) {
    // Distinct truth signatures per variable; the formula only sees those.
    if (Sigs.empty()) {
      Sigs.resize(NumVars);
      for (unsigned V = 0; V != NumVars; ++V) {
        std::set<std::vector<bool>> Seen;
        for (const Word &W : Candidates[V])
          Seen.insert(signature(V, W));
        Sigs[V].assign(Seen.begin(), Seen.end());
      }
    }
    std::vector<const std::vector<bool> *> Pick(NumVars);
    auto Holds = [&] {
      auto Truth = [&](size_t A) { return (*Pick[Atoms[A].Var])[A]; };
      for (size_t F : Live)
        if (!eval(F, Truth))
          return false;
      return true;
    };
    for (const std::vector<bool> &S0 : Sigs[0]) {
      Pick[0] = &S0;
      if (NumVars == 1) {
        if (Holds())
          return true;
        continue;
      }
      for (const std::vector<bool> &S1 : Sigs[1]) {
        Pick[1] = &S1;
        if (Holds())
          return true;
      }
    }
    return false;
  }

  /// Whether the concrete assignment \p Values satisfies every formula.
  bool satisfiedBy(const std::vector<size_t> &Live,
                   const std::vector<Word> &Values) {
    auto Truth = [&](size_t A) {
      return atomHolds(Atoms[A], Values[Atoms[A].Var]);
    };
    for (size_t F : Live)
      if (!eval(F, Truth))
        return false;
    return true;
  }

private:
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  unsigned NumVars;
  Rng Rand;
  fuzz::RegexGenerator Gen;
  std::vector<Re> RegexPool;
  std::vector<OAtom> Atoms;
  std::vector<ONode> Nodes;
  std::vector<OCommand> Body;
  std::vector<size_t> Bounds;
  std::vector<std::vector<Word>> Candidates;
  /// Per variable, the distinct atom-truth vectors of its candidates.
  std::vector<std::vector<std::vector<bool>>> Sigs;
  std::vector<std::string> Text;

  static fuzz::GeneratorOptions genOptions() {
    fuzz::GeneratorOptions O;
    O.MaxNodes = 7;
    O.MaxLoopBound = 3;
    return O;
  }

  bool chance(uint64_t Num, uint64_t Den) { return Rand.below(Den) < Num; }

  Word literal(size_t MaxLen) {
    static const uint32_t Chars[] = {'a', 'b', 'c', '0'};
    Word W(Rand.below(MaxLen + 1));
    for (uint32_t &C : W)
      C = Chars[Rand.below(4)];
    return W;
  }

  size_t addNode(ONode N) {
    Nodes.push_back(std::move(N));
    return Nodes.size() - 1;
  }

  size_t addAtom(OAtom A) {
    Atoms.push_back(std::move(A));
    ONode N;
    N.K = ONode::Leaf;
    N.Atom = Atoms.size() - 1;
    return addNode(std::move(N));
  }

  size_t newAtom() {
    OAtom A;
    A.Var = static_cast<unsigned>(Rand.below(NumVars));
    switch (Rand.below(12)) {
    case 0:
    case 1:
    case 2:
    case 3:
    case 4:
      A.K = OAtom::InRe;
      if (RegexPool.size() < 3 && (RegexPool.empty() || chance(1, 2)))
        RegexPool.push_back(Gen.generate());
      A.Regex = RegexPool[Rand.below(RegexPool.size())];
      break;
    case 5:
      A.K = chance(1, 2) ? OAtom::Eq : OAtom::Distinct;
      A.Lit = literal(3);
      break;
    case 6:
      A.K = OAtom::Len;
      A.Op = CompareOps[Rand.below(5)];
      A.N = static_cast<int64_t>(Rand.below(7)) - 1;
      break;
    case 7:
      A.K = OAtom::Prefix;
      A.Lit = literal(2);
      break;
    case 8:
      A.K = OAtom::Suffix;
      A.Lit = literal(2);
      break;
    case 9:
      A.K = OAtom::Contains;
      A.Lit = literal(2);
      break;
    case 10:
      A.K = OAtom::At;
      A.Index = static_cast<int64_t>(Rand.below(5)) - 1;
      A.Lit = literal(1);
      break;
    default: {
      static const int64_t Codes[] = {-1, 0, '0', 'a', 'b', 'c', 'd'};
      A.K = OAtom::Code;
      A.Index = static_cast<int64_t>(Rand.below(4));
      A.Op = CompareOps[Rand.below(5)];
      A.N = Codes[Rand.below(7)];
      break;
    }
    }
    return addAtom(std::move(A));
  }

  size_t formula(unsigned Depth) {
    if (Depth == 0 || chance(1, 3)) {
      if (chance(1, 12)) {
        ONode N;
        N.K = chance(1, 2) ? ONode::True : ONode::False;
        return addNode(std::move(N));
      }
      // Reusing an earlier atom makes literals collide across asserts.
      if (!Atoms.empty() && chance(1, 3)) {
        size_t A = Rand.below(Atoms.size());
        for (size_t I = 0; I != Nodes.size(); ++I)
          if (Nodes[I].K == ONode::Leaf && Nodes[I].Atom == A)
            return I;
      }
      return newAtom();
    }
    ONode N;
    switch (Rand.below(5)) {
    case 0:
      N.K = ONode::Not;
      N.Kids = {formula(Depth - 1)};
      break;
    case 1:
    case 2: {
      N.K = Rand.below(2) ? ONode::And : ONode::Or;
      size_t Arity = 2 + Rand.below(2);
      for (size_t I = 0; I != Arity; ++I)
        N.Kids.push_back(formula(Depth - 1));
      break;
    }
    case 3:
      N.K = ONode::Ite;
      for (int I = 0; I != 3; ++I)
        N.Kids.push_back(formula(Depth - 1));
      break;
    default:
      N.K = ONode::Implies;
      for (int I = 0; I != 2; ++I)
        N.Kids.push_back(formula(Depth - 1));
      break;
    }
    return addNode(std::move(N));
  }

  void generate() {
    size_t Depth = 0;
    size_t NumCommands = 4 + Rand.below(7);
    for (size_t I = 0; I != NumCommands; ++I) {
      uint64_t Pick = Rand.below(22);
      OCommand C;
      if (Pick < 8) {
        C.K = OCommand::Assert;
        C.Formulas = {formula(1 + static_cast<unsigned>(Rand.below(3)))};
      } else if (Pick < 11) {
        C.K = OCommand::Push;
        ++Depth;
      } else if (Pick < 14 && Depth > 0) {
        C.K = OCommand::Pop;
        --Depth;
      } else if (Pick < 17) {
        C.K = OCommand::Check;
      } else if (Pick < 20) {
        C.K = OCommand::CheckAssuming;
        size_t Count = 1 + Rand.below(2);
        for (size_t J = 0; J != Count; ++J)
          C.Formulas.push_back(formula(static_cast<unsigned>(Rand.below(3))));
      } else {
        C.K = Pick == 20 ? OCommand::ResetAssertions : OCommand::Reset;
        Depth = 0;
      }
      Body.push_back(std::move(C));
    }
    if (Body.back().K != OCommand::Check)
      Body.push_back({OCommand::Check, {}});
    buildAlphabetAndBounds();
    // Both resets drop every assertion, the bounds included, and (reset)
    // also drops the declarations: restore what the enumeration needs.
    std::vector<OCommand> Expanded;
    for (OCommand &C : Body) {
      OCommand::Kind K = C.K;
      Expanded.push_back(std::move(C));
      if (K == OCommand::Reset)
        for (unsigned V = 0; V != NumVars; ++V)
          Expanded.push_back({OCommand::Declare, {}, V});
      if (K == OCommand::Reset || K == OCommand::ResetAssertions)
        for (size_t B : Bounds)
          Expanded.push_back({OCommand::Assert, {B}});
    }
    Body = std::move(Expanded);
    render();
  }

  /// One representative per minterm of every predicate the atoms can
  /// distinguish, then the length bound k per variable, kept small enough
  /// that the candidate set stays enumerable.
  void buildAlphabetAndBounds() {
    std::vector<CharSet> Preds = {CharSet::full()};
    for (const OAtom &A : Atoms) {
      if (A.K == OAtom::InRe)
        for (const CharSet &P : M.collectPredicates(A.Regex))
          Preds.push_back(P);
      for (uint32_t C : A.Lit)
        Preds.push_back(CharSet::singleton(C));
      if (A.K == OAtom::Code && A.N >= 0) {
        Preds.push_back(CharSet::singleton(static_cast<uint32_t>(A.N)));
        if (A.N > 0)
          Preds.push_back(CharSet::range(0, static_cast<uint32_t>(A.N - 1)));
      }
    }
    Word Reps;
    for (const CharSet &Mt : computeMinterms(Preds))
      Reps.push_back(*Mt.minElement());

    for (unsigned V = 0; V != NumVars; ++V) {
      uint64_t K = 1 + Rand.below(NumVars == 1 ? 4 : 3);
      auto Count = [&](uint64_t Len) {
        uint64_t Total = 0, Layer = 1;
        for (uint64_t I = 0; I <= Len; ++I, Layer *= Reps.size())
          Total += Layer;
        return Total;
      };
      while (K > 1 && Count(K) > 3000)
        --K;
      OAtom Bound;
      Bound.K = OAtom::Len;
      Bound.Var = V;
      Bound.Op = "<=";
      Bound.N = static_cast<int64_t>(K);
      Bounds.push_back(addAtom(std::move(Bound)));

      std::vector<Word> Words = {{}};
      for (size_t Begin = 0; Begin != Words.size(); ++Begin)
        if (Words[Begin].size() < K)
          for (uint32_t C : Reps) {
            Word W = Words[Begin];
            W.push_back(C);
            Words.push_back(std::move(W));
          }
      Candidates.push_back(std::move(Words));
    }
  }

  std::string atomText(const OAtom &A) const {
    std::string V = VarNames[A.Var];
    std::string Lit = smtStringLiteral(A.Lit);
    std::string At = "(str.at " + V + " " + std::to_string(A.Index) + ")";
    switch (A.K) {
    case OAtom::InRe:
      return "(str.in_re " + V + " " + regexToSmtTerm(M, A.Regex) + ")";
    case OAtom::Eq:
      return "(= " + V + " " + Lit + ")";
    case OAtom::Distinct:
      return "(distinct " + V + " " + Lit + ")";
    case OAtom::Len:
      return "(" + A.Op + " (str.len " + V + ") " + std::to_string(A.N) + ")";
    case OAtom::Prefix:
      return "(str.prefixof " + Lit + " " + V + ")";
    case OAtom::Suffix:
      return "(str.suffixof " + Lit + " " + V + ")";
    case OAtom::Contains:
      return "(str.contains " + V + " " + Lit + ")";
    case OAtom::At:
      return "(= " + At + " " + Lit + ")";
    case OAtom::Code:
      return "(" + A.Op + " (str.to_code " + At + ") " + std::to_string(A.N) +
             ")";
    }
    return "";
  }

  std::string formulaText(size_t F) const {
    const ONode &N = Nodes[F];
    const char *Head = "";
    switch (N.K) {
    case ONode::Leaf:
      return atomText(Atoms[N.Atom]);
    case ONode::True:
      return "true";
    case ONode::False:
      return "false";
    case ONode::Not:
      Head = "not";
      break;
    case ONode::And:
      Head = "and";
      break;
    case ONode::Or:
      Head = "or";
      break;
    case ONode::Ite:
      Head = "ite";
      break;
    case ONode::Implies:
      Head = "=>";
      break;
    }
    std::string Out = std::string("(") + Head;
    for (size_t Kid : N.Kids)
      Out += " " + formulaText(Kid);
    return Out + ")";
  }

  static std::string declaration(unsigned Var) {
    return std::string("(declare-const ") + VarNames[Var] + " String)";
  }

  void render() {
    for (unsigned V = 0; V != NumVars; ++V)
      Text.push_back(declaration(V));
    for (size_t B : Bounds)
      Text.push_back("(assert " + formulaText(B) + ")");
    for (const OCommand &C : Body) {
      switch (C.K) {
      case OCommand::Assert:
        Text.push_back("(assert " + formulaText(C.Formulas[0]) + ")");
        break;
      case OCommand::Push:
        Text.push_back("(push 1)");
        break;
      case OCommand::Pop:
        Text.push_back("(pop 1)");
        break;
      case OCommand::Check:
        Text.push_back("(check-sat)");
        break;
      case OCommand::ResetAssertions:
        Text.push_back("(reset-assertions)");
        break;
      case OCommand::Reset:
        Text.push_back("(reset)");
        break;
      case OCommand::Declare:
        Text.push_back(declaration(C.Var));
        break;
      case OCommand::CheckAssuming: {
        std::string Out = "(check-sat-assuming (";
        for (size_t I = 0; I != C.Formulas.size(); ++I)
          Out += (I ? " " : "") + formulaText(C.Formulas[I]);
        Text.push_back(Out + "))");
        break;
      }
      }
    }
  }

  bool atomHolds(const OAtom &A, const Word &W) {
    auto Len = static_cast<int64_t>(W.size());
    bool InRange = A.Index >= 0 && A.Index < Len;
    switch (A.K) {
    case OAtom::InRe:
      return E.matches(A.Regex, W);
    case OAtom::Eq:
      return W == A.Lit;
    case OAtom::Distinct:
      return W != A.Lit;
    case OAtom::Len:
      return compareInts(Len, A.Op, A.N);
    case OAtom::Prefix:
      return A.Lit.size() <= W.size() &&
             std::equal(A.Lit.begin(), A.Lit.end(), W.begin());
    case OAtom::Suffix:
      return A.Lit.size() <= W.size() &&
             std::equal(A.Lit.rbegin(), A.Lit.rend(), W.rbegin());
    case OAtom::Contains:
      return A.Lit.empty() || std::search(W.begin(), W.end(), A.Lit.begin(),
                                          A.Lit.end()) != W.end();
    case OAtom::At:
      return (InRange ? Word{W[static_cast<size_t>(A.Index)]} : Word{}) ==
             A.Lit;
    case OAtom::Code:
      return compareInts(InRange ? int64_t(W[static_cast<size_t>(A.Index)])
                                 : -1,
                         A.Op, A.N);
    }
    return false;
  }

  std::vector<bool> signature(unsigned Var, const Word &W) {
    std::vector<bool> Sig(Atoms.size(), false);
    for (size_t A = 0; A != Atoms.size(); ++A)
      if (Atoms[A].Var == Var)
        Sig[A] = atomHolds(Atoms[A], W);
    return Sig;
  }

  template <typename TruthFn> bool eval(size_t F, const TruthFn &Truth) {
    const ONode &N = Nodes[F];
    switch (N.K) {
    case ONode::Leaf:
      return Truth(N.Atom);
    case ONode::True:
      return true;
    case ONode::False:
      return false;
    case ONode::Not:
      return !eval(N.Kids[0], Truth);
    case ONode::And:
      for (size_t Kid : N.Kids)
        if (!eval(Kid, Truth))
          return false;
      return true;
    case ONode::Or:
      for (size_t Kid : N.Kids)
        if (eval(Kid, Truth))
          return true;
      return false;
    case ONode::Ite:
      return eval(N.Kids[0], Truth) ? eval(N.Kids[1], Truth)
                                    : eval(N.Kids[2], Truth);
    case ONode::Implies:
      return !eval(N.Kids[0], Truth) || eval(N.Kids[1], Truth);
    }
    return false;
  }
};

/// Counts of what the oracle saw over one batch of scripts.
struct Tally {
  size_t Checks = 0, Sat = 0, Unsat = 0;
  std::map<std::string, size_t> Unknown; ///< by stop reason
};

/// Runs one generated script through a fresh session sharing \p Cache and
/// checks every law; returns false (with a gtest failure) on a violation.
bool runCase(uint64_t Seed, unsigned NumVars, cache::VerdictCache &Cache,
             Tally &Out) {
  ScriptCase Case(Seed, NumVars);
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver Solver{E};
  SmtSession Session{Solver};
  Session.setVerdictCache(&Cache);

  const std::vector<std::string> &Cmds = Case.commands();
  auto Fail = [&](size_t Cmd, const std::string &What) {
    ADD_FAILURE() << "seed " << Seed << ", " << NumVars
                  << " variable(s), command " << Cmd << " `" << Cmds[Cmd]
                  << "`: " << What << "\nscript:\n"
                  << Case.scriptText();
    return false;
  };
  auto Exec = [&](const std::string &Text) {
    SExprParseResult P = parseSExprs(Text);
    EXPECT_TRUE(P.Ok && P.Forms.size() == 1) << Text;
    return Session.execute(P.Forms[0]);
  };

  // Live assertions per frame; the bounds sit in the base frame.
  std::vector<std::vector<size_t>> Frames(1);
  for (unsigned V = 0; V != NumVars; ++V)
    Frames[0].push_back(Case.boundFormula(V));
  for (size_t I = 0; I != Case.preludeSize(); ++I) {
    SmtSession::Reply R = Exec(Cmds[I]);
    if (R.IsError)
      return Fail(I, "error " + R.Text);
  }
  for (size_t J = 0; J != Case.body().size(); ++J) {
    const OCommand &C = Case.body()[J];
    size_t I = Case.preludeSize() + J;
    SmtSession::Reply R = Exec(Cmds[I]);
    if (R.IsError)
      return Fail(I, "error " + R.Text);
    switch (C.K) {
    case OCommand::Assert:
      Frames.back().push_back(C.Formulas[0]);
      continue;
    case OCommand::Push:
      Frames.emplace_back();
      continue;
    case OCommand::Pop:
      Frames.pop_back();
      continue;
    case OCommand::ResetAssertions:
    case OCommand::Reset:
      Frames.assign(1, {});
      continue;
    case OCommand::Declare:
      continue;
    case OCommand::Check:
    case OCommand::CheckAssuming:
      break;
    }
    std::vector<size_t> Live = C.Formulas;
    for (const std::vector<size_t> &F : Frames)
      Live.insert(Live.end(), F.begin(), F.end());
    bool Expected = Case.satisfiable(Live);
    ++Out.Checks;
    if (R.Text == "unknown") {
      StopReason Stop = Session.lastResult().Stop;
      if (Stop == StopReason::None)
        return Fail(I, "unknown without a stop reason");
      ++Out.Unknown[stopReasonName(Stop)];
      continue;
    }
    if (R.Text != "sat" && R.Text != "unsat")
      return Fail(I, "unexpected reply " + R.Text);
    if ((R.Text == "sat") != Expected)
      return Fail(I, "answered " + R.Text + ", bounded enumeration says " +
                         (Expected ? "sat" : "unsat"));
    if (!Expected) {
      ++Out.Unsat;
      continue;
    }
    ++Out.Sat;
    // The model must satisfy every live assertion under the reference.
    SmtSession::Reply Model = Exec("(get-model)");
    if (Model.IsError)
      return Fail(I, "get-model failed: " + Model.Text);
    SExprParseResult P = parseSExprs(Model.Text);
    if (!P.Ok || P.Forms.size() != 1 || !P.Forms[0].isList())
      return Fail(I, "unreadable model " + Model.Text);
    std::vector<Word> Values(NumVars);
    std::vector<bool> Seen(NumVars, false);
    for (const SExpr &Def : P.Forms[0].Kids) {
      if (!Def.isList() || Def.Kids.size() != 5 ||
          Def.Kids[4].K != SExpr::Kind::String)
        return Fail(I, "malformed model entry in " + Model.Text);
      for (unsigned V = 0; V != NumVars; ++V)
        if (Def.Kids[1].isSymbol(VarNames[V])) {
          Values[V] = fromUtf8(Def.Kids[4].Text);
          Seen[V] = true;
        }
    }
    for (unsigned V = 0; V != NumVars; ++V)
      if (!Seen[V])
        return Fail(I, std::string("model lacks ") + VarNames[V]);
    if (!Case.satisfiedBy(Live, Values))
      return Fail(I, "model " + Model.Text + " violates the assertions");
  }
  return true;
}

void runBatch(unsigned NumVars, uint64_t FirstSeed, uint64_t Count) {
  cache::VerdictCache Cache;
  Tally Out;
  for (uint64_t Seed = FirstSeed; Seed != FirstSeed + Count; ++Seed)
    runCase(Seed, NumVars, Cache, Out);
  size_t Unknown = 0;
  std::string ByReason;
  for (const auto &[Reason, N] : Out.Unknown) {
    Unknown += N;
    ByReason += " " + Reason + "=" + std::to_string(N);
  }
  std::cout << NumVars << "-variable scripts: " << Count << " scripts, "
            << Out.Checks << " checks, sat=" << Out.Sat
            << " unsat=" << Out.Unsat << " unknown=" << Unknown << ByReason
            << "\n";
  EXPECT_GT(Out.Sat, 0u);
  EXPECT_GT(Out.Unsat, 0u);
}

TEST(SmtScriptOracleTest, OneVariableScriptsMatchBoundedEnumeration) {
  runBatch(1, 1, 2000);
}

TEST(SmtScriptOracleTest, TwoVariableScriptsMatchBoundedEnumeration) {
  runBatch(2, 100001, 2000);
}

} // namespace
