//===- fuzz/Oracle.cpp - Cross-engine differential oracle -------------------===//

#include "fuzz/Oracle.h"

#include "portfolio/Portfolio.h"
#include "re/RegexParser.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <utility>

using namespace sbd;
using namespace sbd::fuzz;

const char *sbd::fuzz::oracleLawName(OracleLaw L) {
  switch (L) {
  case OracleLaw::Membership:
    return "membership";
  case OracleLaw::Nullability:
    return "nullability";
  case OracleLaw::DerivativeLaw:
    return "derivative_law";
  case OracleLaw::ComplementLaw:
    return "complement_law";
  case OracleLaw::DeMorgan:
    return "de_morgan";
  case OracleLaw::SatVerdict:
    return "sat_verdict";
  case OracleLaw::WitnessValid:
    return "witness_valid";
  case OracleLaw::AnalyzerPrefix:
    return "analyzer_prefix";
  case OracleLaw::AnalyzerStability:
    return "analyzer_stability";
  case OracleLaw::CacheConsistency:
    return "cache_consistency";
  case OracleLaw::DistConsistency:
    return "dist_consistency";
  }
  return "?";
}

const char *DifferentialOracle::engineName(size_t Id) {
  switch (Id) {
  case EngRefMatcher:
    return "ref_matcher";
  case EngDfaMatcher:
    return "dfa_matcher";
  case EngTinyDfaMatcher:
    return "tiny_dfa_matcher";
  case EngSolverMatch:
    return "solver_matches_word";
  case EngSbfa:
    return "sbfa";
  case EngSafa:
    return "safa";
  case EngEagerDfa:
    return "eager_dfa";
  case EngAntimirovNfa:
    return "antimirov_nfa";
  case EngSolverBfs:
    return "solver_bfs";
  case EngSolverDfs:
    return "solver_dfs";
  case EngAntimirov:
    return "antimirov";
  case EngBrzMinterm:
    return "brzozowski_minterm";
  case EngEager:
    return "eager";
  case EngStub:
    return "stub";
  }
  return "?";
}

DifferentialOracle::DifferentialOracle(DerivativeEngine &Engine,
                                       RegexSolver &Slv, OracleOptions O)
    : Eng(Engine), M(Engine.regexManager()), Solver(Slv), Opts(O) {}

DifferentialOracle::~DifferentialOracle() = default;

template <typename Fn> auto DifferentialOracle::timed(size_t Id, Fn &&F) {
  Stopwatch W;
  auto Result = F();
  EngineUs[Id] += W.elapsedUs();
  EngineCalls[Id] += 1;
  return Result;
}

std::vector<EngineTiming> DifferentialOracle::timings() const {
  std::vector<EngineTiming> Out;
  for (size_t I = 0; I != EngCount; ++I) {
    if (!EngineCalls[I])
      continue;
    EngineTiming T;
    T.Name = I == EngStub && !Stub.Name.empty() ? Stub.Name : engineName(I);
    T.TotalUs = EngineUs[I];
    T.Calls = EngineCalls[I];
    Out.push_back(std::move(T));
  }
  return Out;
}

std::vector<EnginePhase> DifferentialOracle::phaseStats() const {
  std::vector<EnginePhase> Out;
  for (size_t I = 0; I != EngCount; ++I) {
    if (!EngineQueries[I])
      continue;
    EnginePhase P;
    P.Name = engineName(I);
    P.Queries = EngineQueries[I];
    P.Stats = EngineStats[I];
    Out.push_back(std::move(P));
  }
  return Out;
}

Discrepancy DifferentialOracle::makeDiscrepancy(OracleLaw Law,
                                                const std::vector<uint32_t> &W,
                                                const std::string &Engine,
                                                std::string Detail) const {
  Discrepancy D;
  D.Law = Law;
  D.Pattern = M.toString(Cur);
  D.Word = W;
  D.Engine = Engine;
  D.Detail = std::move(Detail);
  D.RegexNodes = M.node(Cur).Size;
  return D;
}

void DifferentialOracle::noteMembership(const std::vector<uint32_t> &W,
                                        const char *Engine, bool Got,
                                        bool Want,
                                        std::vector<Discrepancy> &Out) {
  ++Checks;
  SBD_OBS_INC(FuzzChecks);
  if (Got == Want)
    return;
  SBD_OBS_INC(FuzzDiscrepancies);
  std::string Detail = std::string(Engine) + "=" + (Got ? "1" : "0") +
                       " ref_matcher=" + (Want ? "1" : "0");
  Out.push_back(makeDiscrepancy(OracleLaw::Membership, W, Engine,
                                std::move(Detail)));
}

void DifferentialOracle::checkSatVerdicts(std::vector<Discrepancy> &Out) {
  struct Verdict {
    const char *Name;
    SolveResult Res;
  };
  std::vector<Verdict> All;

  // Records the verdict and folds its SolveStats into the per-engine phase
  // accumulator feeding phaseStats().
  auto addVerdict = [&](size_t Id, SolveResult Res) {
    EngineStats[Id] += Res.Stats;
    ++EngineQueries[Id];
    All.push_back({engineName(Id), std::move(Res)});
  };

  SolveOptions Bfs;
  Bfs.MaxStates = Opts.SolverMaxStates;
  addVerdict(EngSolverBfs, timed(EngSolverBfs, [&] {
               Solver.resetGraph();
               return Solver.checkSat(Cur, Bfs);
             }));

  if (Opts.CheckDfsAgreement) {
    SolveOptions Dfs = Bfs;
    Dfs.Strategy = SearchStrategy::Dfs;
    addVerdict(EngSolverDfs, timed(EngSolverDfs, [&] {
                 Solver.resetGraph();
                 return Solver.checkSat(Cur, Dfs);
               }));
  }

  if (CurFeat.NumCompl == 0) {
    SolveOptions BOpts;
    BOpts.MaxStates = Opts.BaselineMaxStates;
    AntimirovSolver AS(M);
    addVerdict(EngAntimirov,
               timed(EngAntimirov, [&] { return AS.solve(Cur, BOpts); }));
  }

  if (M.node(Cur).NumPreds <= Opts.BrzMaxPreds) {
    SolveOptions BOpts;
    BOpts.MaxStates = Opts.BaselineMaxStates;
    BrzozowskiMintermSolver BS(Eng);
    addVerdict(EngBrzMinterm,
               timed(EngBrzMinterm, [&] { return BS.solve(Cur, BOpts); }));
  }

  {
    SolveOptions EOpts;
    EOpts.MaxStates = Opts.EagerMaxStates;
    EagerSolver ES(M);
    addVerdict(EngEager,
               timed(EngEager, [&] { return ES.solve(Cur, EOpts); }));
  }

  // Every Sat witness must be accepted by the reference matcher, and all
  // definite verdicts must agree.
  const Verdict *FirstDefinite = nullptr;
  size_t DefiniteCount = 0;
  bool AllUnsat = true;
  std::string Table;
  for (const Verdict &V : All) {
    if (!Table.empty())
      Table += ' ';
    Table += V.Name;
    Table += '=';
    Table += statusName(V.Res.Status);
    ++Checks;
    SBD_OBS_INC(FuzzChecks);
    if (V.Res.isSat()) {
      AllUnsat = false;
      if (!Eng.matches(Cur, V.Res.Witness)) {
        SBD_OBS_INC(FuzzDiscrepancies);
        Out.push_back(makeDiscrepancy(
            OracleLaw::WitnessValid, V.Res.Witness, V.Name,
            std::string(V.Name) + " produced a witness the reference "
                                  "matcher rejects"));
      } else {
        // A valid witness is an accepted word, so the analyzer's required
        // literal prefix must be a prefix of it.
        checkAnalyzerPrefix(V.Res.Witness, V.Name, Out);
      }
    }
    if (V.Res.isSat() || V.Res.isUnsat()) {
      ++DefiniteCount;
      if (!FirstDefinite)
        FirstDefinite = &V;
    }
  }
  if (FirstDefinite) {
    for (const Verdict &V : All) {
      if (!(V.Res.isSat() || V.Res.isUnsat()))
        continue;
      if (V.Res.Status != FirstDefinite->Res.Status) {
        SBD_OBS_INC(FuzzDiscrepancies);
        Out.push_back(makeDiscrepancy(OracleLaw::SatVerdict, {}, V.Name,
                                      "conflicting verdicts: " + Table));
        break;
      }
    }
  }
  ConsensusUnsat = DefiniteCount != 0 && AllUnsat &&
                   FirstDefinite->Res.isUnsat();

  checkVerdictCache(Out);
}

void DifferentialOracle::checkVerdictCache(std::vector<Discrepancy> &Out) {
  // The law runs the production path: a portfolio router with the cache
  // attached, exactly as SmtSession/sbd-server wire it.
  SolveOptions Bfs;
  Bfs.MaxStates = Opts.SolverMaxStates;
  if (cache::canonicalVerdictKey(M, Cur, Bfs).empty())
    return; // print over the key cap: the cache is (correctly) skipped
  VCache.clear();
  portfolio::PortfolioSolver P(Solver);
  P.setVerdictCache(&VCache);

  Solver.resetGraph();
  SolveResult Cold = P.checkSat(Cur, Bfs);
  if (!Cold.isSat() && !Cold.isUnsat())
    return; // indefinite verdicts are never cached

  auto disagree = [&](const char *Phase, const SolveResult &Got) {
    SBD_OBS_INC(FuzzDiscrepancies);
    Out.push_back(makeDiscrepancy(
        OracleLaw::CacheConsistency, Got.Witness, "verdict_cache",
        std::string(Phase) + ": got " + statusName(Got.Status) +
            ", cold was " + statusName(Cold.Status)));
  };

  // Same query again: must be served from the cache (hit counter +1) with
  // the identical verdict and witness.
  uint64_t HitsBefore = VCache.counters().Hits;
  SolveResult Warm = P.checkSat(Cur, Bfs);
  ++Checks;
  SBD_OBS_INC(FuzzChecks);
  if (Warm.Status != Cold.Status || Warm.Witness != Cold.Witness) {
    disagree("warm hit", Warm);
    return;
  }
  if (VCache.counters().Hits != HitsBefore + 1 ||
      Warm.Stats.Engine != SolveEngine::VerdictCache) {
    SBD_OBS_INC(FuzzDiscrepancies);
    Out.push_back(makeDiscrepancy(OracleLaw::CacheConsistency, {},
                                  "verdict_cache",
                                  "second identical query in a session was "
                                  "not served from the cache"));
    return;
  }

  // Clearing the cache mid-session must reproduce the cold verdict
  // bit-identically (solver determinism is what makes caching sound).
  VCache.clear();
  Solver.resetGraph();
  SolveResult Cold2 = P.checkSat(Cur, Bfs);
  ++Checks;
  SBD_OBS_INC(FuzzChecks);
  if (Cold2.Status != Cold.Status || Cold2.Witness != Cold.Witness)
    disagree("post-clear re-solve", Cold2);
}


void DifferentialOracle::checkAnalyzerPrefix(const std::vector<uint32_t> &W,
                                             const char *Engine,
                                             std::vector<Discrepancy> &Out) {
  ++Checks;
  SBD_OBS_INC(FuzzChecks);
  bool Bad = W.size() < CurFeat.PrefixLen;
  for (uint32_t I = 0; !Bad && I != CurFeat.PrefixLen; ++I)
    Bad = W[I] != CurFeat.Prefix[I];
  // An exact+complete prefix claims L(R) is that single word.
  if (!Bad && CurFeat.PrefixExact && CurFeat.PrefixComplete)
    Bad = W.size() != CurFeat.PrefixLen;
  if (!Bad)
    return;
  SBD_OBS_INC(FuzzDiscrepancies);
  std::string Detail = "accepted word violates analyzed prefix (len=" +
                       std::to_string(CurFeat.PrefixLen) +
                       (CurFeat.PrefixExact ? ", exact" : "") + ")";
  Out.push_back(
      makeDiscrepancy(OracleLaw::AnalyzerPrefix, W, Engine, std::move(Detail)));
}

void DifferentialOracle::checkAnalyzerStability(std::vector<Discrepancy> &Out) {
  ++Checks;
  SBD_OBS_INC(FuzzChecks);
  // Print, reparse into a fresh arena, re-analyze with a fresh analyzer:
  // every feature must be identical (classification determinism across
  // arena rebuilds). In-arena rewrites are vacuous under hash-consing, so
  // the rebuild is the strongest similarity-preserving transform we have.
  std::string Printed = M.toString(Cur);
  RegexManager FreshM;
  RegexParseResult P = parseRegex(FreshM, Printed);
  if (!P.Ok) {
    SBD_OBS_INC(FuzzDiscrepancies);
    Out.push_back(makeDiscrepancy(OracleLaw::AnalyzerStability, {}, "",
                                  "printed pattern failed to reparse: " +
                                      P.Error));
    return;
  }
  analysis::RegexAnalyzer FreshA(FreshM);
  const analysis::RegexFeatures &G = FreshA.analyze(P.Value);
  const analysis::RegexFeatures &F = CurFeat;
  std::string Diff;
  auto cmp = [&Diff](const char *Name, uint64_t A, uint64_t B) {
    if (A == B)
      return;
    if (!Diff.empty())
      Diff += ' ';
    Diff += Name;
    Diff += '=';
    Diff += std::to_string(A);
    Diff += "->";
    Diff += std::to_string(B);
  };
  cmp("class", static_cast<uint64_t>(F.Class), static_cast<uint64_t>(G.Class));
  cmp("risk", F.Risk, G.Risk);
  cmp("tree_size", F.TreeSize, G.TreeSize);
  cmp("dag_size", F.DagSize, G.DagSize);
  cmp("star_height", F.StarHeight, G.StarHeight);
  cmp("boolean_depth", F.BooleanDepth, G.BooleanDepth);
  cmp("compl_depth", F.ComplDepth, G.ComplDepth);
  cmp("counter_blowup", F.CounterBlowup, G.CounterBlowup);
  cmp("max_loop_bound", F.MaxLoopBound, G.MaxLoopBound);
  cmp("distinct_preds", F.DistinctPreds, G.DistinctPreds);
  cmp("minterm_bound", F.MintermBound, G.MintermBound);
  cmp("nullable", F.Nullable, G.Nullable);
  cmp("empty_lang", F.EmptyLang, G.EmptyLang);
  cmp("num_pred", F.NumPred, G.NumPred);
  cmp("num_concat", F.NumConcat, G.NumConcat);
  cmp("num_star", F.NumStar, G.NumStar);
  cmp("num_loop", F.NumLoop, G.NumLoop);
  cmp("num_union", F.NumUnion, G.NumUnion);
  cmp("num_inter", F.NumInter, G.NumInter);
  cmp("num_compl", F.NumCompl, G.NumCompl);
  cmp("prefix_len", F.PrefixLen, G.PrefixLen);
  cmp("prefix_exact", F.PrefixExact, G.PrefixExact);
  cmp("prefix_complete", F.PrefixComplete, G.PrefixComplete);
  for (uint32_t I = 0; I != analysis::RegexFeatures::PrefixCap; ++I)
    cmp("prefix_char", F.Prefix[I], G.Prefix[I]);
  if (Diff.empty())
    return;
  SBD_OBS_INC(FuzzDiscrepancies);
  Out.push_back(makeDiscrepancy(OracleLaw::AnalyzerStability, {}, "",
                                "features drifted across rebuild: " + Diff));
}

void DifferentialOracle::beginRegex(Re Rx, std::vector<Discrepancy> &Out) {
  Cur = Rx;
  CurCompl = M.complement(Rx);
  ConsensusUnsat = false;
  CurFeat = Solver.analyzer().analyze(Rx);
  checkAnalyzerStability(Out);

  // The tiny cap keeps the eviction and uncached-fallback paths exercised.
  CachedMatcher::Options Full;
  Full.MaxStates = Opts.MatcherMaxStates;
  DfaMatcher = std::make_unique<CachedMatcher>(Eng, Cur, Full);
  CachedMatcher::Options Tiny;
  Tiny.MaxStates = Opts.TinyMatcherMaxStates;
  TinyMatcher = std::make_unique<CachedMatcher>(Eng, Cur, Tiny);

  SbfaA = timed(EngSbfa, [&] {
    return Sbfa::build(Eng, Cur, Opts.SbfaMaxStates);
  });

  SafaA.reset();
  if (Opts.UseSafa && SbfaA && SbfaA->numStates() <= 48) {
    SafaA = timed(EngSafa, [&] {
      return std::optional<Safa>(Safa::fromSbfa(*SbfaA));
    });
    if (SafaA && SafaA->numTransitions() > Opts.SafaMaxTransitions)
      SafaA.reset();
  }

  EagerD.reset();
  if (Opts.UseEagerDfa) {
    EagerSolver ES(M);
    EagerD = timed(EngEagerDfa,
                   [&] { return ES.compileDfa(Cur, Opts.EagerMaxStates); });
  }

  AntiNfa.reset();
  if (Opts.UseAntimirovNfa && CurFeat.NumCompl == 0)
    AntiNfa = timed(EngAntimirovNfa, [&] {
      return buildPartialDerivativeNfa(M, Cur, Opts.BaselineMaxStates);
    });

  // ν-consistency: the stored nullability bit must agree with actual
  // ϵ-membership through the classical matcher.
  bool NuBit = M.nullable(Cur);
  bool NuMatch = timed(EngRefMatcher, [&] {
    return Eng.matches(Cur, std::vector<uint32_t>{});
  });
  ++Checks;
  SBD_OBS_INC(FuzzChecks);
  if (NuBit != NuMatch) {
    SBD_OBS_INC(FuzzDiscrepancies);
    Out.push_back(makeDiscrepancy(
        OracleLaw::Nullability, {}, engineName(EngRefMatcher),
        std::string("nullable_bit=") + (NuBit ? "1" : "0") +
            " epsilon_membership=" + (NuMatch ? "1" : "0")));
  }

  if (Opts.CheckSat)
    checkSatVerdicts(Out);
}

void DifferentialOracle::checkWord(const std::vector<uint32_t> &W,
                                   std::vector<Discrepancy> &Out) {
  SBD_OBS_INC(FuzzSamples);
  bool Ref = timed(EngRefMatcher, [&] { return Eng.matches(Cur, W); });
  if (Ref)
    checkAnalyzerPrefix(W, engineName(EngRefMatcher), Out);

  noteMembership(W, engineName(EngDfaMatcher),
                 timed(EngDfaMatcher, [&] { return DfaMatcher->matches(W); }),
                 Ref, Out);
  noteMembership(W, engineName(EngTinyDfaMatcher),
                 timed(EngTinyDfaMatcher,
                       [&] { return TinyMatcher->matches(W); }),
                 Ref, Out);
  noteMembership(W, engineName(EngSolverMatch),
                 timed(EngSolverMatch,
                       [&] { return Solver.matchesWord(Cur, W); }),
                 Ref, Out);
  if (SbfaA)
    noteMembership(W, engineName(EngSbfa),
                   timed(EngSbfa, [&] { return SbfaA->accepts(W); }), Ref,
                   Out);
  if (SafaA)
    noteMembership(W, engineName(EngSafa),
                   timed(EngSafa, [&] { return SafaA->accepts(W); }), Ref,
                   Out);
  if (EagerD)
    noteMembership(W, engineName(EngEagerDfa),
                   timed(EngEagerDfa, [&] { return EagerD->accepts(W); }),
                   Ref, Out);
  if (AntiNfa)
    noteMembership(W, engineName(EngAntimirovNfa),
                   timed(EngAntimirovNfa, [&] { return AntiNfa->accepts(W); }),
                   Ref, Out);
  if (Stub) {
    bool Got =
        timed(EngStub, [&] { return Stub.Matches(M, Eng, Cur, W); });
    ++Checks;
    SBD_OBS_INC(FuzzChecks);
    if (Got != Ref) {
      SBD_OBS_INC(FuzzDiscrepancies);
      Out.push_back(makeDiscrepancy(
          OracleLaw::Membership, W, Stub.Name,
          Stub.Name + "=" + (Got ? "1" : "0") +
              " ref_matcher=" + (Ref ? "1" : "0")));
    }
  }

  // Derivative law: w ∈ L(R) ⇔ w[1..] ∈ L(D_{w[0]}(R)).
  if (!W.empty()) {
    std::vector<uint32_t> Prefix(W.begin(), W.begin() + 1);
    std::vector<uint32_t> Suffix(W.begin() + 1, W.end());
    Re Der = Eng.derivativeOfWord(Cur, Prefix);
    bool Law = Eng.matches(Der, Suffix);
    ++Checks;
    SBD_OBS_INC(FuzzChecks);
    if (Law != Ref) {
      SBD_OBS_INC(FuzzDiscrepancies);
      Out.push_back(makeDiscrepancy(
          OracleLaw::DerivativeLaw, W, engineName(EngRefMatcher),
          "w in der(R) = " + std::string(Law ? "1" : "0") +
              " but aw in R = " + (Ref ? "1" : "0")));
    }
  }

  // Complement law: membership in ~R must be the exact negation.
  {
    bool Compl = timed(EngRefMatcher, [&] { return Eng.matches(CurCompl, W); });
    ++Checks;
    SBD_OBS_INC(FuzzChecks);
    if (Compl == Ref) {
      SBD_OBS_INC(FuzzDiscrepancies);
      Out.push_back(makeDiscrepancy(
          OracleLaw::ComplementLaw, W, engineName(EngRefMatcher),
          std::string("w in R = w in ~R = ") + (Ref ? "1" : "0")));
    }
  }

  // A sampled member of a language every solver proved empty is a verdict
  // bug in *all* of them (or a matcher bug — either way, a discrepancy).
  if (ConsensusUnsat && Ref) {
    SBD_OBS_INC(FuzzDiscrepancies);
    Out.push_back(makeDiscrepancy(
        OracleLaw::SatVerdict, W, engineName(EngRefMatcher),
        "reference matcher accepts a word of a provably-unsat language"));
  }
}

void DifferentialOracle::checkDeMorgan(
    Re A, Re B, const std::vector<std::vector<uint32_t>> &Words,
    std::vector<Discrepancy> &Out) {
  struct Dual {
    Re Lhs, Rhs;
    const char *Name;
  };
  const Dual Duals[] = {
      {M.complement(M.inter(A, B)),
       M.union_(M.complement(A), M.complement(B)), "~(A&B) vs ~A|~B"},
      {M.complement(M.union_(A, B)),
       M.inter(M.complement(A), M.complement(B)), "~(A|B) vs ~A&~B"},
  };
  for (const Dual &D : Duals) {
    // Interning may already have identified the two sides (e.g. when A and
    // B are predicate leaves whose Boolean structure folds into the
    // character algebra); that is the law holding definitionally.
    if (D.Lhs == D.Rhs)
      continue;
    for (const std::vector<uint32_t> &W : Words) {
      bool L = timed(EngRefMatcher, [&] { return Eng.matches(D.Lhs, W); });
      bool R = timed(EngRefMatcher, [&] { return Eng.matches(D.Rhs, W); });
      ++Checks;
      SBD_OBS_INC(FuzzChecks);
      if (L != R) {
        SBD_OBS_INC(FuzzDiscrepancies);
        Discrepancy Disc;
        Disc.Law = OracleLaw::DeMorgan;
        Disc.Pattern = M.toString(D.Lhs);
        Disc.Word = W;
        Disc.Engine = engineName(EngRefMatcher);
        Disc.Detail = std::string(D.Name) + ": lhs=" + (L ? "1" : "0") +
                      " rhs=" + (R ? "1" : "0") +
                      " rhs_pattern=" + M.toString(D.Rhs);
        Disc.RegexNodes = M.node(D.Lhs).Size;
        Out.push_back(std::move(Disc));
      }
    }
    // Solver-based equivalence: the symmetric difference must be empty.
    SolveOptions EqOpts;
    EqOpts.MaxStates = Opts.SolverMaxStates;
    SolveResult Eq = timed(EngSolverBfs, [&] {
      Solver.resetGraph();
      return Solver.checkEquivalent(D.Lhs, D.Rhs, EqOpts);
    });
    ++Checks;
    SBD_OBS_INC(FuzzChecks);
    if (Eq.isSat()) {
      SBD_OBS_INC(FuzzDiscrepancies);
      Discrepancy Disc;
      Disc.Law = OracleLaw::DeMorgan;
      Disc.Pattern = M.toString(D.Lhs);
      Disc.Word = Eq.Witness;
      Disc.Engine = engineName(EngSolverBfs);
      Disc.Detail = std::string(D.Name) +
                    ": solver found a distinguishing word; rhs_pattern=" +
                    M.toString(D.Rhs);
      Disc.RegexNodes = M.node(D.Lhs).Size;
      Out.push_back(std::move(Disc));
    }
  }
}

void DifferentialOracle::checkSample(
    Re Rx, const std::vector<std::vector<uint32_t>> &Words,
    std::vector<Discrepancy> &Out) {
  beginRegex(Rx, Out);
  for (const std::vector<uint32_t> &W : Words)
    checkWord(W, Out);
}
