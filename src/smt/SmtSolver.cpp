//===- smt/SmtSolver.cpp - SMT-LIB string/regex front end --------------------===//

#include "smt/SmtSolver.h"

#include "cache/VerdictCache.h"
#include "portfolio/Portfolio.h"
#include "re/SmtPrinter.h"
#include "support/Exposition.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/Trace.h"
#include "support/Unicode.h"

#include <algorithm>
#include <set>
#include <type_traits>

using namespace sbd;

namespace {

/// One membership atom: Var ∈ L(Regex). Length bounds and string literals
/// are compiled into this same shape.
struct Atom {
  std::string Var;
  Re Regex;
};

/// SMT-LIB string literal with `"` doubled.
std::string smtQuote(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    Out += C;
    if (C == '"')
      Out += C;
  }
  Out += '"';
  return Out;
}

/// The compilation and solving context behind SmtSession (and so behind
/// SmtSolver::solveScript, which feeds a session). Declarations, the atom
/// table, and the scoped assertion frames live here; errors are
/// per-command (hasError()/takeError()) so a session survives them.
class ScriptContext {
public:
  ScriptContext(RegexSolver &S, portfolio::PortfolioSolver &P,
                const SolveOptions &Options)
      : Solver(S), Port(P), M(S.regexManager()), Opts(Options) {
    FrameAsserts.emplace_back();
  }

  /// --- Command API ---------------------------------------------------------

  bool hasError() const { return HasErr; }
  std::string takeError() {
    HasErr = false;
    return std::move(Err);
  }

  void setInfo(const SExpr &Form) {
    // (set-info :status sat|unsat|unknown)
    if (Form.Kids.size() == 3 && Form.Kids[1].isSymbol(":status")) {
      if (Form.Kids[2].isSymbol("sat"))
        ExpectedSat_ = true;
      else if (Form.Kids[2].isSymbol("unsat"))
        ExpectedSat_ = false;
    }
  }

  void declare(const SExpr &Form) {
    // (declare-const x String) | (declare-fun x () String)
    bool IsFun = Form.Kids[0].isSymbol("declare-fun");
    size_t SortIdx = IsFun ? 3 : 2;
    if (Form.Kids.size() != SortIdx + 1 ||
        Form.Kids[1].K != SExpr::Kind::Symbol) {
      unsupported("malformed declaration");
      return;
    }
    if (IsFun && !(Form.Kids[2].isList() && Form.Kids[2].Kids.empty())) {
      unsupported("only nullary functions are supported");
      return;
    }
    const SExpr &Sort = Form.Kids[SortIdx];
    if (Sort.isSymbol("String")) {
      StringVars.insert(Form.Kids[1].Text);
      return;
    }
    if (Sort.isSymbol("Bool") || Sort.isSymbol("Int")) {
      // Declared but must not be used by any assertion we compile.
      return;
    }
    unsupported("unsupported sort: " + Sort.Text);
  }

  /// (assert t): compiles t and records it in the current frame. On error
  /// the assertion is discarded and the frames are unchanged.
  void assertForm(const SExpr &Form) {
    if (Form.Kids.size() != 2) {
      unsupported("malformed assert");
      return;
    }
    BE E = compileBool(Form.Kids[1], /*Positive=*/true);
    if (!HasErr)
      FrameAsserts.back().push_back(E);
  }

  /// Compiles one check-sat-assuming term into \p Out; on error, nothing.
  void compileAssumption(const SExpr &Term, std::vector<BE> &Out) {
    BE E = compileBool(Term, /*Positive=*/true);
    if (!HasErr)
      Out.push_back(E);
  }

  void push(uint64_t N) {
    if (N > MaxPushDepth - pushDepth()) {
      unsupported("push depth over limit (" + std::to_string(MaxPushDepth) +
                  ")");
      return;
    }
    for (uint64_t I = 0; I != N; ++I)
      FrameAsserts.emplace_back();
  }

  void pop(uint64_t N) {
    if (N >= FrameAsserts.size()) {
      unsupported("pop without matching push");
      return;
    }
    for (uint64_t I = 0; I != N; ++I)
      FrameAsserts.pop_back();
  }

  void resetAssertions() {
    // Declarations are kept (the :global-declarations view): the resident
    // use case re-asserts over the same variables.
    FrameAsserts.clear();
    FrameAsserts.emplace_back();
  }

  size_t numAssertions() const {
    size_t N = 0;
    for (const std::vector<BE> &F : FrameAsserts)
      N += F.size();
    return N;
  }

  size_t pushDepth() const { return FrameAsserts.size() - 1; }

  /// Solves the conjunction of every live assertion plus \p Assumptions.
  /// The compiled state (atoms, arena, graph facts) persists; only the
  /// per-check verdict is fresh.
  const SmtCheck &checkSat(const std::vector<BE> &Assumptions) {
    Last = SmtCheck();
    std::vector<BE> Agenda;
    for (const std::vector<BE> &F : FrameAsserts)
      Agenda.insert(Agenda.end(), F.begin(), F.end());
    Agenda.insert(Agenda.end(), Assumptions.begin(), Assumptions.end());
    solve(Agenda);
    CubesTriedTotal += Last.CubesTried;
    HaveChecked = true;
    return Last;
  }

  bool haveChecked() const { return HaveChecked; }
  const SmtCheck &last() const { return Last; }
  std::optional<bool> expectedSat() const { return ExpectedSat_; }
  const SolveStats &cumulativeStats() const { return CumStats; }
  size_t cubesTriedTotal() const { return CubesTriedTotal; }

  /// (get-model) answer for the last Sat check.
  std::string renderModel() const {
    std::string Out = "(";
    for (size_t I = 0; I != Last.Model.size(); ++I) {
      if (I)
        Out += "\n ";
      Out += "(define-fun " + Last.Model[I].first + " () String " +
             smtQuote(Last.Model[I].second) + ")";
    }
    Out += ")";
    return Out;
  }

  /// Z3-style keyword list answering (get-info :statistics), built from
  /// the accumulated per-sub-query SolveStats (cumulative over the
  /// script/session lifetime).
  std::string renderStatistics() const {
    const SolveStats &St = CumStats;
    auto Ull = [](uint64_t V) { return std::to_string(V); };
    std::string Out = "(";
    Out += ":cubes-tried " + Ull(CubesTriedTotal);
    Out += "\n :checks-run " + Ull(ChecksRun);
    Out += "\n :regex-queries " + Ull(RegexQueries);
    // The SolveStats rows that have a statistics key: counts first, then
    // (after the registry counters below) the signed phase timers.
    std::string Counts, Times;
    auto Row = [](std::string &Rows, const char *Key, auto V) {
      if constexpr (std::is_integral_v<decltype(V)>)
        if (*Key)
          Rows += std::string("\n :") + Key + " " + std::to_string(V);
    };
#define SBD_STAT_ROW(Type, Member, Stat, ...)                                  \
  Row(std::is_signed_v<Type> ? Times : Counts, Stat, St.Member);
    SBD_SOLVE_STATS_FIELDS(SBD_STAT_ROW, SBD_STAT_ROW, SBD_STAT_ROW)
#undef SBD_STAT_ROW
    Out += Counts;
    // The cross-query verdict cache. Its counters live in the process-wide
    // registry (the shared cache never touches per-query stats), so they
    // are cumulative across the solver's lifetime like the rest of this
    // list.
    obs::MetricShard Reg = obs::MetricsRegistry::global().snapshot();
    for (obs::Counter C :
         {obs::Counter::VerdictCacheHits, obs::Counter::VerdictCacheMisses,
          obs::Counter::VerdictCacheInserts,
          obs::Counter::VerdictCacheEvictions}) {
      std::string Key = obs::counterName(C);
      std::replace(Key.begin(), Key.end(), '_', '-');
      Out += "\n :" + Key + " " + Ull(Reg.get(C));
    }
    Out += Times;
    // Latency distribution over every regex sub-query solved so far, from
    // the process-wide histogram registry (cumulative, like the cache
    // counters above; all-zero at -DSBD_OBS=0).
    obs::HistShard Hists = obs::HistogramRegistry::global().snapshot();
    const obs::HistShard::Data &Lat =
        Hists.H[static_cast<size_t>(obs::Hist::SolveLatencyUs)];
    Out += "\n :solve-latency-count " + Ull(Lat.Count);
    Out += "\n :solve-latency-p50-us " + Ull(obs::histPercentile(Lat, 50));
    Out += "\n :solve-latency-p90-us " + Ull(obs::histPercentile(Lat, 90));
    Out += "\n :solve-latency-p99-us " + Ull(obs::histPercentile(Lat, 99));
    Out += ")";
    return Out;
  }

private:
  RegexSolver &Solver;
  /// Analyzer-driven engine selection for every membership sub-query
  /// (portfolio/Portfolio.h); the verdict cache, when attached, hangs off
  /// this router too.
  portfolio::PortfolioSolver &Port;
  RegexManager &M;
  SolveOptions Opts;
  BoolExprManager B;
  bool HasErr = false;
  std::string Err;
  uint64_t RegexQueries = 0;
  uint64_t ChecksRun = 0;
  SolveStats CumStats;
  size_t CubesTriedTotal = 0;
  SmtCheck Last; ///< the most recent check (written by solve/tryCube)
  bool HaveChecked = false;
  std::optional<bool> ExpectedSat_;

  std::set<std::string> StringVars;
  std::vector<Atom> Atoms;
  std::map<std::pair<std::string, uint32_t>, uint32_t> AtomIndex;
  /// Scoped assertions: FrameAsserts[0] is the base level, each (push)
  /// opens a new frame, (pop) drops the newest.
  std::vector<std::vector<BE>> FrameAsserts;

  BE unsupportedExpr(const std::string &Why) {
    unsupported(Why);
    return B.falseExpr();
  }

  void unsupported(const std::string &Why) {
    if (!HasErr) {
      HasErr = true;
      Err = Why;
    }
  }

  /// A non-negative script integer as a loop bound or string index. Values
  /// at or above LoopInf ("unbounded") do not fit: reports "<What> out of
  /// range" and returns nullopt.
  std::optional<uint32_t> bound(int64_t V, const char *What) {
    if (V >= 0 && V < int64_t(LoopInf))
      return static_cast<uint32_t>(V);
    unsupported(std::string(What) + " out of range");
    return std::nullopt;
  }

  BE atomExpr(const std::string &Var, Re Regex) {
    auto Key = std::make_pair(Var, Regex.Id);
    auto It = AtomIndex.find(Key);
    uint32_t Idx;
    if (It != AtomIndex.end()) {
      Idx = It->second;
    } else {
      Idx = static_cast<uint32_t>(Atoms.size());
      Atoms.push_back({Var, Regex});
      AtomIndex.emplace(Key, Idx);
    }
    return B.atom(Idx);
  }

  /// Requires E to name a declared string variable.
  std::optional<std::string> asStringVar(const SExpr &E) {
    if (E.K == SExpr::Kind::Symbol && StringVars.count(E.Text))
      return E.Text;
    return std::nullopt;
  }

  /// --- Boolean layer -------------------------------------------------------

  BE compileBool(const SExpr &E, bool) {
    if (HasErr)
      return B.falseExpr();
    if (E.isSymbol("true"))
      return B.trueExpr();
    if (E.isSymbol("false"))
      return B.falseExpr();
    if (!E.isList() || E.Kids.empty())
      return unsupportedExpr("unsupported Boolean term");
    const SExpr &Head = E.Kids[0];

    if (Head.isSymbol("and") || Head.isSymbol("or")) {
      std::vector<BE> Kids;
      for (size_t I = 1; I != E.Kids.size(); ++I)
        Kids.push_back(compileBool(E.Kids[I], true));
      return Head.isSymbol("and") ? B.and_(std::move(Kids))
                                  : B.or_(std::move(Kids));
    }
    if (Head.isSymbol("not")) {
      if (E.Kids.size() != 2)
        return unsupportedExpr("malformed not");
      return B.not_(compileBool(E.Kids[1], true));
    }
    if (Head.isSymbol("=>")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("malformed =>");
      return B.or2(B.not_(compileBool(E.Kids[1], true)),
                   compileBool(E.Kids[2], true));
    }
    if (Head.isSymbol("str.in_re") || Head.isSymbol("str.in.re")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("malformed str.in_re");
      auto Var = asStringVar(E.Kids[1]);
      if (!Var)
        return unsupportedExpr("str.in_re on a non-variable");
      return atomExpr(*Var, compileRe(E.Kids[2]));
    }
    if (Head.isSymbol("=")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("only binary = is supported");
      return compileEquality(E.Kids[1], E.Kids[2]);
    }
    if (Head.isSymbol("distinct")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("only binary distinct is supported");
      return B.not_(compileEquality(E.Kids[1], E.Kids[2]));
    }
    if (Head.isSymbol("xor")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("malformed xor");
      BE L = compileBool(E.Kids[1], true);
      BE Rb = compileBool(E.Kids[2], true);
      return B.or2(B.and2(L, B.not_(Rb)), B.and2(B.not_(L), Rb));
    }
    if (Head.isSymbol("ite")) {
      if (E.Kids.size() != 4)
        return unsupportedExpr("malformed ite");
      BE C = compileBool(E.Kids[1], true);
      BE Tb = compileBool(E.Kids[2], true);
      BE Eb = compileBool(E.Kids[3], true);
      return B.or2(B.and2(C, Tb), B.and2(B.not_(C), Eb));
    }
    if (Head.isSymbol("<=") || Head.isSymbol(">=") || Head.isSymbol("<") ||
        Head.isSymbol(">"))
      return compileLengthCompare(Head.Text, E);
    if (Head.isSymbol("str.prefixof") || Head.isSymbol("str.suffixof") ||
        Head.isSymbol("str.contains"))
      return compileStringPredicate(Head.Text, E);
    return unsupportedExpr("unsupported predicate: " + Head.Text);
  }

  BE compileEquality(const SExpr &L, const SExpr &Rhs) {
    // (= s "lit") → membership in the literal word.
    if (auto Var = asStringVar(L); Var && Rhs.K == SExpr::Kind::String)
      return atomExpr(*Var, M.word(decodeSmtString(Rhs.Text)));
    if (auto Var = asStringVar(Rhs); Var && L.K == SExpr::Kind::String)
      return atomExpr(*Var, M.word(decodeSmtString(L.Text)));
    // (= (str.len s) k).
    if (auto Len = asLenOf(L); Len && Rhs.K == SExpr::Kind::Number)
      return lengthAtom(*Len, "=", Rhs.Number);
    if (auto Len = asLenOf(Rhs); Len && L.K == SExpr::Kind::Number)
      return lengthAtom(*Len, "=", L.Number);
    // (= (str.at s k) "c"): character k exists and equals c; the empty
    // string means |s| <= k (SMT-LIB's out-of-range semantics).
    if (auto At = asAtOf(L); At && Rhs.K == SExpr::Kind::String)
      return atAtom(At->first, At->second, Rhs.Text);
    if (auto At = asAtOf(Rhs); At && L.K == SExpr::Kind::String)
      return atAtom(At->first, At->second, L.Text);
    // (= (str.to_code (str.at s k)) n).
    if (auto Code = asCodeOf(L); Code && Rhs.K == SExpr::Kind::Number)
      return codeAtom(Code->first, Code->second, "=", Rhs.Number);
    if (auto Code = asCodeOf(Rhs); Code && L.K == SExpr::Kind::Number)
      return codeAtom(Code->first, Code->second, "=", L.Number);
    if (L.K == SExpr::Kind::String && Rhs.K == SExpr::Kind::String)
      return L.Text == Rhs.Text ? B.trueExpr() : B.falseExpr();
    return unsupportedExpr("unsupported equality");
  }

  /// Matches (str.at s k) with a declared variable and constant index.
  std::optional<std::pair<std::string, int64_t>> asAtOf(const SExpr &E) {
    if (E.isList() && E.Kids.size() == 3 && E.Kids[0].isSymbol("str.at") &&
        E.Kids[2].K == SExpr::Kind::Number)
      if (auto Var = asStringVar(E.Kids[1]))
        return std::make_pair(*Var, E.Kids[2].Number);
    return std::nullopt;
  }

  /// Matches (str.to_code (str.at s k)) — the character-code view used by
  /// the paper's side-constraint example (footnote: "the underlying
  /// character theory is equipped with a total order", e.g. s0 > 0).
  std::optional<std::pair<std::string, int64_t>> asCodeOf(const SExpr &E) {
    if (E.isList() && E.Kids.size() == 2 &&
        (E.Kids[0].isSymbol("str.to_code") ||
         E.Kids[0].isSymbol("str.to.code")))
      return asAtOf(E.Kids[1]);
    return std::nullopt;
  }

  /// (str.to_code (str.at Var K)) Op N as a membership atom. Per SMT-LIB,
  /// str.to_code yields -1 when its argument is not a single character —
  /// here, when |Var| <= K.
  BE codeAtom(const std::string &Var, int64_t K, const std::string &Op,
              int64_t N) {
    if (K < 0)
      return unsupportedExpr("negative str.at index");
    std::optional<uint32_t> Ku = bound(K, "str.at index");
    if (!Ku)
      return B.falseExpr();
    // The set of character codes satisfying "code Op N".
    CharSet Chars;
    bool MinusOneSatisfies = false; // does the out-of-range value -1 satisfy?
    auto Clamp = [](int64_t V) {
      if (V < 0)
        return int64_t(0);
      if (V > int64_t(MaxCodePoint))
        return int64_t(MaxCodePoint);
      return V;
    };
    if (Op == "=") {
      if (N == -1)
        MinusOneSatisfies = true;
      else if (N >= 0 && N <= int64_t(MaxCodePoint))
        Chars = CharSet::singleton(static_cast<uint32_t>(N));
    } else if (Op == "<=") {
      MinusOneSatisfies = true; // -1 <= N for every N >= -1 of interest
      if (N >= 0)
        Chars = CharSet::range(0, static_cast<uint32_t>(Clamp(N)));
      else
        MinusOneSatisfies = N >= -1;
    } else if (Op == "<") {
      MinusOneSatisfies = N > -1;
      if (N > 0)
        Chars = CharSet::range(0, static_cast<uint32_t>(Clamp(N - 1)));
    } else if (Op == ">=") {
      MinusOneSatisfies = N <= -1;
      if (N <= int64_t(MaxCodePoint))
        Chars = CharSet::range(static_cast<uint32_t>(Clamp(N)), MaxCodePoint);
    } else if (Op == ">") {
      MinusOneSatisfies = N < -1;
      if (N < int64_t(MaxCodePoint))
        Chars =
            CharSet::range(static_cast<uint32_t>(Clamp(N + 1)), MaxCodePoint);
    } else {
      return unsupportedExpr("unknown comparison " + Op);
    }
    // Position-k character in Chars: .{K} [Chars] .*; the -1 case adds the
    // |s| <= K disjunct.
    std::vector<BE> Cases;
    if (!Chars.isEmpty()) {
      Re Prefix = M.loop(M.anyChar(), *Ku, *Ku);
      Cases.push_back(atomExpr(
          Var, M.concat(Prefix, M.concat(M.pred(Chars), M.top()))));
    }
    if (MinusOneSatisfies)
      Cases.push_back(atomExpr(Var, M.loop(M.anyChar(), 0, *Ku)));
    return B.or_(std::move(Cases));
  }

  /// (str.at Var K) = Value as a membership atom.
  BE atAtom(const std::string &Var, int64_t K, const std::string &Value) {
    std::vector<uint32_t> Cps = decodeSmtString(Value);
    if (K < 0)
      return Cps.empty() ? B.trueExpr() : B.falseExpr();
    std::optional<uint32_t> Ku = bound(K, "str.at index");
    if (!Ku)
      return B.falseExpr();
    if (Cps.empty()) // |s| <= K
      return atomExpr(Var, M.loop(M.anyChar(), 0, *Ku));
    if (Cps.size() != 1)
      return B.falseExpr(); // str.at never yields multi-character strings
    // s ∈ .{K} c .*
    Re Prefix = M.loop(M.anyChar(), *Ku, *Ku);
    return atomExpr(Var, M.concat(Prefix, M.concat(M.chr(Cps[0]), M.top())));
  }

  std::optional<std::string> asLenOf(const SExpr &E) {
    if (E.isList() && E.Kids.size() == 2 &&
        (E.Kids[0].isSymbol("str.len") || E.Kids[0].isSymbol("str.length")))
      return asStringVar(E.Kids[1]);
    return std::nullopt;
  }

  BE compileLengthCompare(const std::string &Op, const SExpr &E) {
    if (E.Kids.size() != 3)
      return unsupportedExpr("malformed comparison");
    const SExpr &L = E.Kids[1], &Rhs = E.Kids[2];
    if (auto Code = asCodeOf(L); Code && Rhs.K == SExpr::Kind::Number)
      return codeAtom(Code->first, Code->second, Op, Rhs.Number);
    if (auto Len = asLenOf(L); Len && Rhs.K == SExpr::Kind::Number)
      return lengthAtom(*Len, Op, Rhs.Number);
    // k op t flips the comparison.
    std::string Flipped = Op == "<=" ? ">=" : Op == ">=" ? "<="
                          : Op == "<" ? ">"
                                      : "<";
    if (auto Code = asCodeOf(Rhs); Code && L.K == SExpr::Kind::Number)
      return codeAtom(Code->first, Code->second, Flipped, L.Number);
    if (auto Len = asLenOf(Rhs); Len && L.K == SExpr::Kind::Number)
      return lengthAtom(*Len, Flipped, L.Number);
    return unsupportedExpr("only str.len-vs-constant comparisons supported");
  }

  /// len(Var) Op K as a membership in `.{m,n}`.
  BE lengthAtom(const std::string &Var, const std::string &Op, int64_t K) {
    Re Any = M.anyChar();
    // len(Var) in [Lo, Hi]; no Hi leaves it unbounded.
    auto Window = [&](int64_t Lo, std::optional<int64_t> Hi) {
      std::optional<uint32_t> L = bound(Lo, "str.len bound");
      std::optional<uint32_t> H = Hi ? bound(*Hi, "str.len bound") : LoopInf;
      if (!L || !H)
        return B.falseExpr();
      return atomExpr(Var, M.loop(Any, *L, *H));
    };
    if (Op == "=")
      return K < 0 ? B.falseExpr() : Window(K, K);
    if (Op == "<=")
      return K < 0 ? B.falseExpr() : Window(0, K);
    if (Op == "<")
      return K <= 0 ? B.falseExpr() : Window(0, K - 1);
    if (Op == ">=")
      return K <= 0 ? B.trueExpr() : Window(K, std::nullopt);
    if (Op == ">") {
      // K + 1 overflows only past every bound(), so reject K first.
      if (K < 0)
        return B.trueExpr();
      return bound(K, "str.len bound") ? Window(K + 1, std::nullopt)
                                       : B.falseExpr();
    }
    return unsupportedExpr("unknown comparison " + Op);
  }

  BE compileStringPredicate(const std::string &Op, const SExpr &E) {
    if (E.Kids.size() != 3)
      return unsupportedExpr("malformed " + Op);
    // Only constant-vs-variable forms reduce to memberships.
    const SExpr &L = E.Kids[1], &Rhs = E.Kids[2];
    if (Op == "str.contains") {
      auto Var = asStringVar(L);
      if (!Var || Rhs.K != SExpr::Kind::String)
        return unsupportedExpr("str.contains needs (var, literal)");
      Re Lit = M.word(decodeSmtString(Rhs.Text));
      return atomExpr(*Var, M.concat(M.top(), M.concat(Lit, M.top())));
    }
    // prefixof/suffixof take the literal first.
    auto Var = asStringVar(Rhs);
    if (!Var || L.K != SExpr::Kind::String)
      return unsupportedExpr(Op + " needs (literal, var)");
    Re Lit = M.word(decodeSmtString(L.Text));
    Re Pattern = Op == "str.prefixof" ? M.concat(Lit, M.top())
                                      : M.concat(M.top(), Lit);
    return atomExpr(*Var, Pattern);
  }

  /// --- Regex layer ----------------------------------------------------------

  /// (re.loop Body Lo Hi); an empty range denotes re.none.
  Re compileLoop(const SExpr &Body, int64_t Lo, int64_t Hi) {
    if (Lo < 0 || Hi < Lo)
      return M.empty();
    std::optional<uint32_t> L = bound(Lo, "re.loop bound");
    std::optional<uint32_t> H = bound(Hi, "re.loop bound");
    if (!L || !H)
      return M.empty();
    return M.loop(compileRe(Body), *L, *H);
  }

  Re compileRe(const SExpr &E) {
    if (HasErr)
      return M.empty();
    if (E.isSymbol("re.none"))
      return M.empty();
    if (E.isSymbol("re.all"))
      return M.top();
    if (E.isSymbol("re.allchar"))
      return M.anyChar();
    if (!E.isList() || E.Kids.empty()) {
      unsupported("unsupported regex term");
      return M.empty();
    }
    const SExpr &Head = E.Kids[0];
    if (Head.isSymbol("str.to_re") || Head.isSymbol("str.to.re")) {
      if (E.Kids.size() != 2 || E.Kids[1].K != SExpr::Kind::String) {
        unsupported("str.to_re needs a string literal");
        return M.empty();
      }
      return M.word(decodeSmtString(E.Kids[1].Text));
    }
    if (Head.isSymbol("re.union") || Head.isSymbol("re.inter") ||
        Head.isSymbol("re.++")) {
      std::vector<Re> Kids;
      for (size_t I = 1; I != E.Kids.size(); ++I)
        Kids.push_back(compileRe(E.Kids[I]));
      if (Head.isSymbol("re.union"))
        return M.unionList(std::move(Kids));
      if (Head.isSymbol("re.inter"))
        return M.interList(std::move(Kids));
      return M.concatList(Kids);
    }
    if (Head.isSymbol("re.comp") && E.Kids.size() == 2)
      return M.complement(compileRe(E.Kids[1]));
    if (Head.isSymbol("re.diff") && E.Kids.size() == 3)
      return M.diff(compileRe(E.Kids[1]), compileRe(E.Kids[2]));
    if (Head.isSymbol("re.*") && E.Kids.size() == 2)
      return M.star(compileRe(E.Kids[1]));
    if (Head.isSymbol("re.+") && E.Kids.size() == 2)
      return M.plus(compileRe(E.Kids[1]));
    if (Head.isSymbol("re.opt") && E.Kids.size() == 2)
      return M.opt(compileRe(E.Kids[1]));
    if (Head.isSymbol("re.range") && E.Kids.size() == 3 &&
        E.Kids[1].K == SExpr::Kind::String &&
        E.Kids[2].K == SExpr::Kind::String) {
      std::vector<uint32_t> Lo = decodeSmtString(E.Kids[1].Text);
      std::vector<uint32_t> Hi = decodeSmtString(E.Kids[2].Text);
      // Per SMT-LIB, a non-single-character bound denotes re.none.
      if (Lo.size() != 1 || Hi.size() != 1 || Lo[0] > Hi[0])
        return M.empty();
      return M.pred(CharSet::range(Lo[0], Hi[0]));
    }
    // Indexed loop: ((_ re.loop m n) r); legacy: (re.loop r m n).
    if (Head.isList() && Head.Kids.size() == 4 &&
        Head.Kids[0].isSymbol("_") && Head.Kids[1].isSymbol("re.loop") &&
        Head.Kids[2].K == SExpr::Kind::Number &&
        Head.Kids[3].K == SExpr::Kind::Number && E.Kids.size() == 2) {
      return compileLoop(E.Kids[1], Head.Kids[2].Number, Head.Kids[3].Number);
    }
    if (Head.isSymbol("re.loop") && E.Kids.size() == 4 &&
        E.Kids[2].K == SExpr::Kind::Number &&
        E.Kids[3].K == SExpr::Kind::Number) {
      return compileLoop(E.Kids[1], E.Kids[2].Number, E.Kids[3].Number);
    }
    unsupported("unsupported regex constructor: " + Head.Text);
    return M.empty();
  }

  /// --- Solving --------------------------------------------------------------

  /// NNF with negations pushed onto atoms.
  BE nnf(BE E, bool Positive) {
    // Copy: recursive calls may grow the expression arena.
    BoolExprNode N = B.node(E);
    switch (N.Kind) {
    case BoolExprKind::False:
      return Positive ? B.falseExpr() : B.trueExpr();
    case BoolExprKind::True:
      return Positive ? B.trueExpr() : B.falseExpr();
    case BoolExprKind::Atom:
      return Positive ? E : B.not_(E);
    case BoolExprKind::Not: {
      BE Kid = N.Kids[0];
      return nnf(Kid, !Positive);
    }
    case BoolExprKind::And:
    case BoolExprKind::Or: {
      std::vector<BE> Kids = N.Kids;
      for (BE &Kid : Kids)
        Kid = nnf(Kid, Positive);
      bool MakeAnd = (N.Kind == BoolExprKind::And) == Positive;
      return MakeAnd ? B.and_(std::move(Kids)) : B.or_(std::move(Kids));
    }
    }
    return E;
  }

  /// Tries one implicant: per-variable intersection queries.
  bool tryCube(const std::map<uint32_t, bool> &Assign, bool &SawUnknown) {
    std::map<std::string, std::vector<MembershipLiteral>> PerVar;
    for (const auto &[AtomIdx, Value] : Assign)
      PerVar[Atoms[AtomIdx].Var].push_back({Atoms[AtomIdx].Regex, Value});
    std::vector<std::pair<std::string, std::string>> Model;
    for (const auto &[Var, Literals] : PerVar) {
      SolveResult R = Port.checkMembership(Literals, Opts);
      CumStats += R.Stats;
      ++RegexQueries;
      if (R.Status == SolveStatus::Unknown) {
        SawUnknown = true;
        return false;
      }
      if (!R.isSat())
        return false;
      // Check the witness against every literal (a classical derivative
      // walk each, §8.1): an independent end-to-end membership check, sharing
      // no δdnf memo with the search, before the model is emitted.
      for (const MembershipLiteral &L : Literals)
        if (Solver.matchesWord(L.Regex, R.Witness) != L.Positive) {
          SawUnknown = true; // soundness guard: never emit a bad model
          return false;
        }
      Model.emplace_back(Var, toUtf8(R.Witness));
    }
    // Unconstrained variables default to the empty string.
    for (const std::string &Var : StringVars)
      if (!PerVar.count(Var))
        Model.emplace_back(Var, "");
    std::sort(Model.begin(), Model.end());
    Last.Model = std::move(Model);
    return true;
  }

  /// DFS over implicants of the NNF formula list (conjunctive agenda).
  bool enumerate(std::vector<BE> Agenda, size_t Next,
                 std::map<uint32_t, bool> &Assign, bool &SawUnknown,
                 size_t &CubesTried, size_t MaxCubes) {
    if (CubesTried >= MaxCubes)
      return false;
    if (Next == Agenda.size()) {
      ++CubesTried;
      return tryCube(Assign, SawUnknown);
    }
    BE Cur_ = Agenda[Next];
    const BoolExprNode &N = B.node(Cur_);
    switch (N.Kind) {
    case BoolExprKind::False:
      return false;
    case BoolExprKind::True:
      return enumerate(Agenda, Next + 1, Assign, SawUnknown, CubesTried,
                       MaxCubes);
    case BoolExprKind::Atom:
    case BoolExprKind::Not: {
      bool Value = N.Kind == BoolExprKind::Atom;
      uint32_t AtomIdx =
          Value ? N.Atom : B.node(N.Kids[0]).Atom;
      auto It = Assign.find(AtomIdx);
      if (It != Assign.end()) {
        if (It->second != Value)
          return false; // conflicting literal: dead branch
        return enumerate(Agenda, Next + 1, Assign, SawUnknown, CubesTried,
                         MaxCubes);
      }
      Assign.emplace(AtomIdx, Value);
      bool Found = enumerate(Agenda, Next + 1, Assign, SawUnknown,
                             CubesTried, MaxCubes);
      if (!Found)
        Assign.erase(AtomIdx);
      return Found;
    }
    case BoolExprKind::And: {
      std::vector<BE> NewAgenda = Agenda;
      NewAgenda.insert(NewAgenda.begin() + static_cast<ptrdiff_t>(Next) + 1,
                       N.Kids.begin(), N.Kids.end());
      NewAgenda[Next] = B.trueExpr();
      return enumerate(std::move(NewAgenda), Next, Assign, SawUnknown,
                       CubesTried, MaxCubes);
    }
    case BoolExprKind::Or: {
      for (BE Kid : N.Kids) {
        std::vector<BE> NewAgenda = Agenda;
        NewAgenda[Next] = Kid;
        if (enumerate(std::move(NewAgenda), Next, Assign, SawUnknown,
                      CubesTried, MaxCubes))
          return true;
        if (CubesTried >= MaxCubes)
          return false;
      }
      return false;
    }
    }
    return false;
  }

  void solve(const std::vector<BE> &Assertions) {
    ++ChecksRun;
    BE Formula = nnf(B.and_(Assertions), /*Positive=*/true);
    bool SawUnknown = false;
    size_t CubesTried = 0;
    const size_t MaxCubes = 4096;
    std::map<uint32_t, bool> Assign;
    bool Found = enumerate({Formula}, 0, Assign, SawUnknown, CubesTried,
                           MaxCubes);
    Last.CubesTried = CubesTried;
    if (Found) {
      Last.Status = SolveStatus::Sat;
      return;
    }
    if (SawUnknown || CubesTried >= MaxCubes) {
      Last.Status = SolveStatus::Unknown;
      Last.Stop = SawUnknown ? StopReason::SubqueryUnknown
                             : StopReason::CubeBudget;
      Last.Note = SawUnknown ? "regex query budget exhausted"
                             : "implicant budget exhausted";
      return;
    }
    Last.Status = SolveStatus::Unsat;
  }
};

} // namespace

/// --- Script mode -----------------------------------------------------------

/// An error from one of these commands leaves part of the problem
/// undeclared or unasserted, so a script must not answer for it. Errors of
/// the others (read-only or unknown commands) leave the verdict alone.
static bool dropsProblem(const SExpr &Form) {
  if (Form.Kids.empty())
    return false;
  const SExpr &Head = Form.Kids[0];
  return Head.isSymbol("declare-fun") || Head.isSymbol("declare-const") ||
         Head.isSymbol("assert") || Head.isSymbol("push") ||
         Head.isSymbol("pop") || Head.isSymbol("check-sat-assuming");
}

SmtResult SmtSolver::solveScript(const std::string &Script,
                                 const SolveOptions &Opts) {
  obs::ScopedSpan Span("solveScript", "smt");
  SExprParseResult Parsed = parseSExprs(Script);
  if (!Parsed.Ok) {
    SmtResult Result;
    Result.Status = SolveStatus::Unsupported;
    Result.Stop = StopReason::ParseError;
    Result.Note = "parse error: " + Parsed.Error;
    Span.arg("status", std::string(statusName(Result.Status)));
    return Result;
  }

  // The script is a session fed its forms, up to an (exit) or the first
  // error that drops part of the problem.
  SmtSession Session(Solver, Opts);
  std::vector<SmtCheck> Checks;
  std::optional<std::string> Failure;
  for (const SExpr &Form : Parsed.Forms) {
    SmtSession::Reply R = Session.execute(Form);
    if (Session.checksRun() > Checks.size())
      Checks.push_back(std::move(Session.lastResult().Checks.back()));
    if (R.IsError && dropsProblem(Form)) {
      Failure = std::move(R.Error);
      break;
    }
    if (R.ExitRequested)
      break;
  }
  // Script without check-sat: solve what we have (legacy behavior). The
  // session's last result then holds that one check.
  if (!Failure && Checks.empty())
    Session.execute(parseSExprs("(check-sat)").Forms[0]);

  SmtResult Result = Session.lastResult();
  if (!Checks.empty())
    Result.Checks = std::move(Checks);
  if (Failure) {
    Result.Status = SolveStatus::Unsupported;
    Result.Stop = StopReason::UnsupportedFragment;
    Result.Note = std::move(*Failure);
  }
  Span.arg("status", std::string(statusName(Result.Status)));
  // Safe point for SIGUSR1-driven exposition dumps between scripts.
  obs::pollExposition();
  return Result;
}

/// --- Session mode ----------------------------------------------------------

struct SmtSession::Impl {
  RegexSolver &Solver;
  SolveOptions Opts;
  portfolio::PortfolioSolver Port;
  /// Reconstructed on (reset); the arena behind Solver persists.
  std::optional<ScriptContext> Ctx;
  bool PrintSuccess = false;
  /// The most recent (get-info :statistics) answer.
  std::string Statistics;

  Impl(RegexSolver &S, const SolveOptions &O) : Solver(S), Opts(O), Port(S) {
    Ctx.emplace(Solver, Port, Opts);
  }
};

SmtSession::SmtSession(RegexSolver &S, const SolveOptions &Opts)
    : I(std::make_unique<Impl>(S, Opts)) {}

SmtSession::~SmtSession() = default;

void SmtSession::setVerdictCache(cache::VerdictCache *C) {
  I->Port.setVerdictCache(C);
}

size_t SmtSession::numAssertions() const { return I->Ctx->numAssertions(); }

size_t SmtSession::pushDepth() const { return I->Ctx->pushDepth(); }

void SmtSession::reset() {
  I->Ctx.emplace(I->Solver, I->Port, I->Opts);
  I->PrintSuccess = false;
  I->Statistics.clear();
}

SmtResult SmtSession::lastResult() const {
  SmtResult R;
  if (I->Ctx->haveChecked()) {
    const SmtCheck &C = I->Ctx->last();
    R.Status = C.Status;
    R.Stop = C.Stop;
    R.Note = C.Note;
    R.Model = C.Model;
    R.Checks.push_back(C);
  }
  R.ExpectedSat = I->Ctx->expectedSat();
  R.Stats = I->Ctx->cumulativeStats();
  R.CubesTried = I->Ctx->cubesTriedTotal();
  R.Statistics = I->Statistics;
  return R;
}

SmtSession::Reply SmtSession::execute(const SExpr &Form) {
  Reply R;
  auto error = [&](std::string Why) {
    R.Text = "(error " + smtQuote(Why) + ")";
    R.IsError = true;
    R.Error = std::move(Why);
  };
  // Ends a command: reports the context's error if the command raised one.
  auto success = [&] {
    if (I->Ctx->hasError())
      error(I->Ctx->takeError());
    else if (I->PrintSuccess)
      R.Text = "success";
  };
  if (!Form.isList() || Form.Kids.empty() ||
      Form.Kids[0].K != SExpr::Kind::Symbol) {
    error("invalid command");
    return R;
  }
  ScriptContext &Ctx = *I->Ctx;
  const SExpr &Head = Form.Kids[0];

  if (Head.isSymbol("set-logic")) {
    success();
  } else if (Head.isSymbol("set-option")) {
    // Only :print-success is interpreted; other options are accepted and
    // ignored (solver budgets come from the session's SolveOptions).
    if (Form.Kids.size() == 3 && Form.Kids[1].isSymbol(":print-success"))
      I->PrintSuccess = Form.Kids[2].isSymbol("true");
    success();
  } else if (Head.isSymbol("set-info")) {
    Ctx.setInfo(Form);
    success();
  } else if (Head.isSymbol("declare-fun") || Head.isSymbol("declare-const")) {
    Ctx.declare(Form);
    success();
  } else if (Head.isSymbol("assert")) {
    Ctx.assertForm(Form);
    success();
  } else if (Head.isSymbol("push") || Head.isSymbol("pop")) {
    // (push) and (pop) mean one level; an argument must be one numeral.
    bool Numeral = Form.Kids.size() == 2 &&
                   Form.Kids[1].K == SExpr::Kind::Number &&
                   Form.Kids[1].Number >= 0;
    if (Form.Kids.size() != 1 && !Numeral) {
      error("malformed " + Head.Text);
      return R;
    }
    uint64_t N = Numeral ? static_cast<uint64_t>(Form.Kids[1].Number) : 1;
    if (Head.isSymbol("push"))
      Ctx.push(N);
    else
      Ctx.pop(N);
    success();
  } else if (Head.isSymbol("check-sat") ||
             Head.isSymbol("check-sat-assuming")) {
    std::vector<BE> Assumptions;
    if (Head.isSymbol("check-sat-assuming")) {
      if (Form.Kids.size() != 2 || !Form.Kids[1].isList()) {
        error("malformed check-sat-assuming");
        return R;
      }
      for (const SExpr &Lit : Form.Kids[1].Kids)
        Ctx.compileAssumption(Lit, Assumptions);
      if (Ctx.hasError()) {
        error(Ctx.takeError());
        return R;
      }
    }
    R.Text = statusName(Ctx.checkSat(Assumptions).Status);
    ++Checks;
    SBD_OBS_INC(SessionChecks);
  } else if (Head.isSymbol("get-model")) {
    if (Ctx.haveChecked() && Ctx.last().Status == SolveStatus::Sat)
      R.Text = Ctx.renderModel();
    else
      error("model is not available");
  } else if (Head.isSymbol("get-value")) {
    error("get-value is not supported; use get-model");
  } else if (Head.isSymbol("get-info")) {
    if (Form.Kids.size() != 2 || Form.Kids[1].K != SExpr::Kind::Symbol) {
      error("malformed get-info");
    } else if (Form.Kids[1].isSymbol(":statistics") ||
               Form.Kids[1].isSymbol(":all-statistics")) {
      R.Text = Ctx.renderStatistics();
      I->Statistics = R.Text;
    } else if (Form.Kids[1].isSymbol(":name")) {
      R.Text = "(:name \"sbd\")";
    } else if (Form.Kids[1].isSymbol(":error-behavior")) {
      R.Text = "(:error-behavior continued-execution)";
    } else {
      error("unsupported get-info flag: " + Form.Kids[1].Text);
    }
  } else if (Head.isSymbol("echo")) {
    if (Form.Kids.size() == 2 && Form.Kids[1].K == SExpr::Kind::String)
      R.Text = smtQuote(Form.Kids[1].Text);
    else
      error("malformed echo");
  } else if (Head.isSymbol("reset-assertions")) {
    Ctx.resetAssertions();
    success();
  } else if (Head.isSymbol("reset")) {
    reset();
    success();
  } else if (Head.isSymbol("exit")) {
    R.ExitRequested = true;
    success();
  } else {
    error("unsupported command: " + Head.Text);
  }
  return R;
}

std::vector<SmtSession::Reply> SmtSession::executeAll(const std::string &Text) {
  std::vector<Reply> Out;
  SExprParseResult Parsed = parseSExprs(Text);
  if (!Parsed.Ok) {
    Reply R;
    R.Error = "parse error: " + Parsed.Error;
    R.Text = "(error " + smtQuote(R.Error) + ")";
    R.IsError = true;
    Out.push_back(std::move(R));
    return Out;
  }
  for (const SExpr &Form : Parsed.Forms) {
    Out.push_back(execute(Form));
    if (Out.back().ExitRequested)
      break;
  }
  // Safe point for SIGUSR1-driven exposition dumps between batches.
  obs::pollExposition();
  return Out;
}
