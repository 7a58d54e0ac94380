//===- smt/SmtSolver.cpp - SMT-LIB string/regex front end --------------------===//

#include "smt/SmtSolver.h"

#include "cache/VerdictCache.h"
#include "portfolio/Portfolio.h"
#include "re/SmtPrinter.h"
#include "support/Histogram.h"
#include "support/Metrics.h"
#include "support/Unicode.h"

#include <algorithm>
#include <cassert>
#include <set>
#include <type_traits>
#include <unordered_map>

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
  ScriptContext(portfolio::PortfolioSolver &P, const SolveOptions &Options)
      : Port(P), M(P.solver().regexManager()), Opts(Options) {
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
    BE E = compileBool(Form.Kids[1]);
    if (!HasErr)
      FrameAsserts.back().push_back(E);
  }

  /// Compiles one check-sat-assuming term into \p Out; on error, nothing.
  void compileAssumption(const SExpr &Term, std::vector<BE> &Out) {
    BE E = compileBool(Term);
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

  /// Solves the conjunction of every live assertion and the assumptions
  /// \p Live.
  /// The compiled state (atoms, arena, graph facts) persists; only the
  /// per-check verdict is fresh.
  const SmtCheck &checkSat(std::vector<BE> Live) {
    Last = SmtCheck();
    ++ChecksRun;
    HaveChecked = true;
    for (const std::vector<BE> &F : FrameAsserts)
      Live.insert(Live.end(), F.begin(), F.end());
    Agenda.assign(1, conj(std::move(Live)));
    Cube.clear();
    FirstUnknown.reset();
    bool Found = enumerate();
    CubesTriedTotal += Last.CubesTried;
    if (Found) {
      Last.Status = SolveStatus::Sat;
    } else if (FirstUnknown) {
      Last.Status = SolveStatus::Unknown;
      Last.Stop = FirstUnknown->Stop;
      Last.Note = std::move(FirstUnknown->Note);
    } else if (Last.CubesTried >= MaxCubes) {
      Last.Status = SolveStatus::Unknown;
      Last.Stop = StopReason::CubeBudget;
      Last.Note = "implicant budget exhausted";
    } else {
      Last.Status = SolveStatus::Unsat;
    }
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
  /// neg's memo: a formula's node id → its negation.
  std::unordered_map<uint32_t, BE> NegMemo;
  /// Scoped assertions: FrameAsserts[0] is the base level, each (push)
  /// opens a new frame, (pop) drops the newest.
  std::vector<std::vector<BE>> FrameAsserts;
  /// enumerate's pending conjuncts (a stack) and the current cube's atoms.
  std::vector<BE> Agenda;
  std::vector<uint32_t> Cube;
  /// The current check's first query that answered unknown: its Stop and
  /// Note become the check's.
  std::optional<SolveResult> FirstUnknown;
  /// Cubes, partial ones included, one check may solve before answering
  /// unknown (CubeBudget).
  static constexpr size_t MaxCubes = 4096;

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

  /// --- Boolean fold --------------------------------------------------------
  ///
  /// Compiled formulas are negation-free And/Or trees over membership atoms
  /// in which no And or Or has two atom operands on one variable (Section
  /// 2), so every And and Or spans variables.

  /// K (And or Or) over \p Kids, with the atom operands on each variable
  /// merged into one atom (`&`/`|` of their regexes).
  BE fold(BoolExprKind K, std::vector<BE> Kids) {
    bool IsAnd = K == BoolExprKind::And;
    BE E = IsAnd ? B.and_(std::move(Kids)) : B.or_(std::move(Kids));
    const BoolExprNode &N = B.node(E);
    if (N.Kind != K)
      return E; // a constant or a single operand
    std::map<std::string, std::vector<Re>> PerVar;
    std::vector<BE> Out;
    for (BE Kid : N.Kids) {
      const BoolExprNode &KN = B.node(Kid);
      if (KN.Kind == BoolExprKind::Atom)
        PerVar[Atoms[KN.Atom].Var].push_back(Atoms[KN.Atom].Regex);
      else
        Out.push_back(Kid);
    }
    for (auto &[Var, Parts] : PerVar)
      Out.push_back(atomExpr(Var, IsAnd ? M.interList(std::move(Parts))
                                        : M.unionList(std::move(Parts))));
    return IsAnd ? B.and_(std::move(Out)) : B.or_(std::move(Out));
  }

  BE conj(std::vector<BE> Kids) {
    return fold(BoolExprKind::And, std::move(Kids));
  }
  BE disj(std::vector<BE> Kids) {
    return fold(BoolExprKind::Or, std::move(Kids));
  }

  /// The negation of \p E, pushed down by De Morgan to `~` on each atom's
  /// regex. Memoized per node, so it is linear in E's DAG.
  BE neg(BE E) {
    if (auto It = NegMemo.find(E.Id); It != NegMemo.end())
      return It->second;
    // Copy: the recursion grows the expression arena.
    BoolExprNode N = B.node(E);
    BE Out;
    if (N.Kind == BoolExprKind::True || N.Kind == BoolExprKind::False) {
      Out = B.not_(E);
    } else if (N.Kind == BoolExprKind::Atom) {
      Atom A = Atoms[N.Atom];
      Out = atomExpr(A.Var, M.complement(A.Regex));
    } else {
      assert(N.Kind != BoolExprKind::Not && "compiled formulas have no Not");
      std::vector<BE> Kids;
      for (BE Kid : N.Kids)
        Kids.push_back(neg(Kid));
      Out = N.Kind == BoolExprKind::And ? disj(std::move(Kids))
                                        : conj(std::move(Kids));
    }
    NegMemo.emplace(E.Id, Out);
    return Out;
  }

  /// --- Boolean layer -------------------------------------------------------

  BE compileBool(const SExpr &E) {
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
        Kids.push_back(compileBool(E.Kids[I]));
      return Head.isSymbol("and") ? conj(std::move(Kids))
                                  : disj(std::move(Kids));
    }
    if (Head.isSymbol("not")) {
      if (E.Kids.size() != 2)
        return unsupportedExpr("malformed not");
      return neg(compileBool(E.Kids[1]));
    }
    if (Head.isSymbol("=>")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("malformed =>");
      return disj({neg(compileBool(E.Kids[1])), compileBool(E.Kids[2])});
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
      return neg(compileEquality(E.Kids[1], E.Kids[2]));
    }
    if (Head.isSymbol("xor")) {
      if (E.Kids.size() != 3)
        return unsupportedExpr("malformed xor");
      BE L = compileBool(E.Kids[1]);
      BE Rb = compileBool(E.Kids[2]);
      return disj({conj({L, neg(Rb)}), conj({neg(L), Rb})});
    }
    if (Head.isSymbol("ite")) {
      if (E.Kids.size() != 4)
        return unsupportedExpr("malformed ite");
      BE C = compileBool(E.Kids[1]);
      BE Tb = compileBool(E.Kids[2]);
      BE Eb = compileBool(E.Kids[3]);
      return disj({conj({C, Tb}), conj({neg(C), Eb})});
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
    using K = SExpr::Kind;
    if (L.K == K::String && Rhs.K == K::String)
      return L.Text == Rhs.Text ? B.trueExpr() : B.falseExpr();
    // Each form may have the constant on either side.
    for (auto [T, C] : {std::pair{&L, &Rhs}, std::pair{&Rhs, &L}}) {
      // (= s "lit") → membership in the literal word.
      if (auto Var = asStringVar(*T); Var && C->K == K::String)
        return atomExpr(*Var, M.word(decodeSmtString(C->Text)));
      // (= (str.len s) k).
      if (auto Len = asLenOf(*T); Len && C->K == K::Number)
        return lengthAtom(*Len, "=", C->Number);
      // (= (str.at s k) "c"): character k exists and equals c; the empty
      // string means |s| <= k (SMT-LIB's out-of-range semantics).
      if (auto At = asAtOf(*T); At && C->K == K::String)
        return atAtom(At->first, At->second, C->Text);
      // (= (str.to_code (str.at s k)) n).
      if (auto Code = asCodeOf(*T); Code && C->K == K::Number)
        return codeAtom(Code->first, Code->second, "=", C->Number);
    }
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

  /// Narrows [Lo, Hi] to the x with x Op N, for Op one of = <= < >= >.
  /// N is clamped by the caller, so N ± 1 cannot overflow.
  static void narrow(const std::string &Op, int64_t N, int64_t &Lo,
                     int64_t &Hi) {
    if (Op == "=")
      Lo = Hi = N;
    else if (Op == "<=")
      Hi = N;
    else if (Op == "<")
      Hi = N - 1;
    else if (Op == ">=")
      Lo = N;
    else
      Lo = N + 1;
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
    // The codes x with x Op N: only -1 and [0, MaxCodePoint] occur, so
    // clamping N one past either end keeps every answer.
    int64_t Lo = -1, Hi = MaxCodePoint;
    narrow(Op, std::clamp<int64_t>(N, -2, int64_t(MaxCodePoint) + 1), Lo, Hi);
    // A position-K character code in [Lo, Hi] is .{K} [Lo-Hi] .*; the -1
    // case adds the |s| <= K disjunct.
    std::vector<BE> Cases;
    int64_t First = std::max<int64_t>(Lo, 0);
    Hi = std::min<int64_t>(Hi, MaxCodePoint);
    if (First <= Hi) {
      CharSet Chars = CharSet::range(static_cast<uint32_t>(First),
                                     static_cast<uint32_t>(Hi));
      Re Prefix = M.loop(M.anyChar(), *Ku, *Ku);
      Cases.push_back(atomExpr(
          Var, M.concat(Prefix, M.concat(M.pred(Chars), M.top()))));
    }
    if (Lo <= -1 && -1 <= Hi)
      Cases.push_back(atomExpr(Var, M.loop(M.anyChar(), 0, *Ku)));
    return disj(std::move(Cases));
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
    // Lengths at or past LoopInf do not fit a loop bound (bound() reports
    // them), so clamping K one past either end keeps every answer.
    int64_t Lo = 0, Hi = INT64_MAX; // INT64_MAX: unbounded
    narrow(Op, std::clamp<int64_t>(K, -1, int64_t(LoopInf) + 1), Lo, Hi);
    Lo = std::max<int64_t>(Lo, 0);
    if (Hi < Lo)
      return B.falseExpr();
    if (Lo == 0 && Hi == INT64_MAX)
      return B.trueExpr();
    std::optional<uint32_t> L = bound(Lo, "str.len bound");
    std::optional<uint32_t> H =
        Hi == INT64_MAX ? LoopInf : bound(Hi, "str.len bound");
    if (!L || !H)
      return B.falseExpr();
    return atomExpr(Var, M.loop(M.anyChar(), *L, *H));
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
  ///
  /// A check is a depth-first search for a cube: the atoms met on taking
  /// one branch of each Or. A cube is solved per variable: the intersection
  /// of its atoms on that variable is one routed query.

  bool cubeHas(const std::string &Var) const {
    return std::any_of(Cube.begin(), Cube.end(),
                       [&](uint32_t A) { return Atoms[A].Var == Var; });
  }

  /// Solves the intersection of the cube's atoms on \p Var. A Sat answer
  /// has passed the portfolio's witness check.
  SolveResult solveVar(const std::string &Var) {
    std::vector<Re> Parts;
    for (uint32_t A : Cube)
      if (Atoms[A].Var == Var)
        Parts.push_back(Atoms[A].Regex);
    SolveResult Res = Port.checkSat(M.interList(std::move(Parts)), Opts);
    CumStats += Res.Stats;
    ++RegexQueries;
    if (Res.Status == SolveStatus::Unknown && !FirstUnknown)
      FirstUnknown = Res;
    return Res;
  }

  /// Solves the complete cube, one query per variable, into Last.Model.
  bool tryCube() {
    ++Last.CubesTried;
    std::vector<std::pair<std::string, std::string>> Model;
    for (const std::string &Var : StringVars) {
      // Unconstrained variables default to the empty string.
      if (!cubeHas(Var)) {
        Model.emplace_back(Var, "");
        continue;
      }
      SolveResult Res = solveVar(Var);
      if (!Res.isSat())
        return false;
      Model.emplace_back(Var, toUtf8(Res.Witness));
    }
    Last.Model = std::move(Model);
    return true;
  }

  /// Depth-first search for a cube of the conjunction of Agenda, used as a
  /// stack and left as found when the search fails. Only Or nodes branch,
  /// and after the fold each of them spans variables.
  bool enumerate() {
    if (Last.CubesTried >= MaxCubes)
      return false;
    if (Agenda.empty())
      return tryCube();
    BE E = Agenda.back();
    Agenda.pop_back();
    // Solving adds no nodes to B, so N stays valid.
    const BoolExprNode &N = B.node(E);
    bool Found = false;
    if (N.Kind == BoolExprKind::True ||
        (N.Kind == BoolExprKind::Atom &&
         std::find(Cube.begin(), Cube.end(), N.Atom) != Cube.end())) {
      Found = enumerate();
    } else if (N.Kind == BoolExprKind::Atom) {
      // A second atom on a variable: solve the variable now, so that a
      // contradiction prunes this branch before it splits further.
      const std::string &Var = Atoms[N.Atom].Var;
      bool Check = cubeHas(Var);
      Cube.push_back(N.Atom);
      if (Check)
        ++Last.CubesTried;
      Found = (!Check || solveVar(Var).isSat()) && enumerate();
      if (!Found)
        Cube.pop_back();
    } else if (N.Kind == BoolExprKind::And) {
      // Atoms on top: they join the cube before the kids that branch.
      for (bool TakeAtoms : {false, true})
        for (auto It = N.Kids.rbegin(); It != N.Kids.rend(); ++It)
          if ((B.node(*It).Kind == BoolExprKind::Atom) == TakeAtoms)
            Agenda.push_back(*It);
      Found = enumerate();
      if (!Found)
        Agenda.resize(Agenda.size() - N.Kids.size());
    } else if (N.Kind == BoolExprKind::Or) {
      for (BE Kid : N.Kids) {
        Agenda.push_back(Kid);
        Found = enumerate();
        if (Found)
          break;
        Agenda.pop_back();
      }
    }
    if (!Found)
      Agenda.push_back(E);
    return Found;
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
  SExprParseResult Parsed = parseSExprs(Script);
  if (!Parsed.Ok) {
    SmtResult Result;
    Result.Status = SolveStatus::Unsupported;
    Result.Stop = StopReason::ParseError;
    Result.Note = "parse error: " + Parsed.Error;
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
  return Result;
}

/// --- Session mode ----------------------------------------------------------

struct SmtSession::Impl {
  SolveOptions Opts;
  portfolio::PortfolioSolver Port;
  /// Reconstructed on (reset); the arena behind Port persists.
  std::optional<ScriptContext> Ctx;
  bool PrintSuccess = false;
  /// The most recent (get-info :statistics) answer.
  std::string Statistics;

  Impl(RegexSolver &S, const SolveOptions &O) : Opts(O), Port(S) {
    Ctx.emplace(Port, Opts);
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
  I->Ctx.emplace(I->Port, I->Opts);
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
  return Out;
}
