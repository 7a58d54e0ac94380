//===- fuzz/Oracle.h - Cross-engine differential oracle ---------------------===//
///
/// \file
/// The judgment half of the differential fuzzing subsystem (DESIGN.md §11).
/// For each (regex, word) sample the oracle cross-checks:
///
///  **Membership**, against every engine that can decide it independently:
///   - the classical Brzozowski derivative matcher (the reference — it is
///     implemented directly from the textbook rules, not via δ);
///   - the bounded lazy DFA `CachedMatcher`, once at a roomy cap and once
///     at a tiny cap that forces eviction and the uncached fallback;
///   - `RegexSolver::matchesWord`, the δdnf walk that checks every Sat
///     witness the service path ships;
///   - the SBFA alternating run (`Sbfa::accepts`, Section 7 semantics);
///   - the SAFA obtained by local mintermization (`Safa::fromSbfa`);
///   - the eager SFA product pipeline compiled to a complete DFA
///     (`EagerSolver::compileDfa`);
///   - the Antimirov partial-derivative NFA (positive fragment only);
///   - an optional injected stub engine (the negative tests and the
///     `sbd-fuzz --corrupt` self-check).
///
///  **Sat/unsat verdicts**, across the solvers: RegexSolver (BFS *and* DFS
///  order), AntimirovSolver, BrzozowskiMintermSolver, EagerSolver. Definite
///  verdicts must agree; every Sat witness must be accepted by the
///  reference matcher; a sampled member of a provably-Unsat language is a
///  discrepancy. All budgets are state counts, never wall-clock, so
///  verdicts are deterministic across machines.
///
///  **Metamorphic laws** (true by theorem, so any violation is a bug):
///   - ν-consistency: ν(R) ⇔ ϵ ∈ L(R);
///   - the derivative law: w ∈ L(D_v(R)) ⇔ v·w ∈ L(R) at a sample split;
///   - the complement law: w ∈ L(~R) ⇔ w ∉ L(R);
///   - De Morgan duals: ~(A&B) ≡ ~A|~B and ~(A|B) ≡ ~A&~B, checked by
///     membership sampling *and* by solver-based equivalence.
///
///  **Analyzer soundness** (DESIGN.md §14): every word any engine accepts
///  must start with the pre-solve analysis' required literal prefix (and
///  equal it exactly when the analysis claims the language is a single
///  word), and the whole feature record must be invariant under printing
///  the regex and reparsing it into a fresh arena — classification
///  determinism across arena rebuilds.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_FUZZ_ORACLE_H
#define SBD_FUZZ_ORACLE_H

#include "analysis/RegexAnalyzer.h"
#include "automata/EagerSolver.h"
#include "cache/VerdictCache.h"
#include "automata/Safa.h"
#include "automata/Sbfa.h"
#include "baselines/AntimirovSolver.h"
#include "baselines/BrzozowskiMintermSolver.h"
#include "core/CachedMatcher.h"
#include "solver/RegexSolver.h"

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sbd {
namespace fuzz {

/// Which oracle law a discrepancy violated.
enum class OracleLaw : uint8_t {
  Membership,    ///< an engine disagreed with the reference matcher
  Nullability,   ///< ν(R) inconsistent with ϵ-membership
  DerivativeLaw, ///< w ∈ D_v(R) ⇎ vw ∈ R
  ComplementLaw, ///< w ∈ ~R ⇎ w ∉ R
  DeMorgan,      ///< ~(A&B) ≢ ~A|~B (or the | dual)
  SatVerdict,    ///< two solvers returned conflicting definite verdicts
  WitnessValid,  ///< a Sat witness was rejected by the reference matcher
  AnalyzerPrefix,    ///< an accepted word violated the analyzed literal prefix
  AnalyzerStability, ///< features changed across a print/reparse rebuild
  CacheConsistency,  ///< verdict-cache hit or post-clear re-solve diverged
                     ///< from the cold verdict (DESIGN.md §15)
  DistConsistency,   ///< 1-process and N-process verdict streams diverged
                     ///< for the same batch (DESIGN.md §16)
};

/// Stable snake_case name for report output.
const char *oracleLawName(OracleLaw L);

/// One cross-engine disagreement.
struct Discrepancy {
  OracleLaw Law = OracleLaw::Membership;
  /// Printed form of the regex (round-trips through RegexParser).
  std::string Pattern;
  /// The sample word as code points (empty for per-regex laws).
  std::vector<uint32_t> Word;
  /// Name of the disagreeing engine ("" for law violations with no single
  /// culprit, e.g. conflicting solver verdicts list both in Detail).
  std::string Engine;
  /// Human-readable verdict table.
  std::string Detail;
  /// Syntax-node count of Pattern's term (shrink-quality metric).
  uint32_t RegexNodes = 0;
};

/// Per-engine accumulated wall-clock attribution for the JSON report.
struct EngineTiming {
  std::string Name;
  int64_t TotalUs = 0;
  uint64_t Calls = 0;
};

/// Per-solver-engine phase attribution: the SolveStats of every verdict an
/// engine produced, summed, for the fuzz report's per-engine phase table.
struct EnginePhase {
  std::string Name;
  uint64_t Queries = 0;
  SolveStats Stats;
};

/// Engine caps and toggles. Every budget is a state/size count so oracle
/// verdicts are reproducible bit-for-bit from a seed.
struct OracleOptions {
  size_t MatcherMaxStates = 512;
  size_t TinyMatcherMaxStates = 4; ///< forces eviction + fallback paths
  size_t SbfaMaxStates = 96;
  size_t SafaMaxTransitions = 160; ///< gate on the SBFA before conversion
  size_t EagerMaxStates = 384;
  size_t SolverMaxStates = 4096;
  size_t BaselineMaxStates = 1024;
  uint32_t BrzMaxPreds = 8; ///< skip global mintermization beyond this ♯(R)
  bool CheckSat = true;
  bool CheckDfsAgreement = true;
  bool UseSafa = true;
  bool UseEagerDfa = true;
  bool UseAntimirovNfa = true;
};

/// The per-sample differential oracle. Create one per arena batch; call
/// beginRegex() for each regex, then checkWord() per sample word.
class DifferentialOracle {
public:
  /// An injected membership engine (fault injection for the negative
  /// tests and `sbd-fuzz --corrupt`).
  struct MembershipStub {
    std::string Name;
    std::function<bool(RegexManager &, DerivativeEngine &, Re,
                       const std::vector<uint32_t> &)>
        Matches;
    explicit operator bool() const { return static_cast<bool>(Matches); }
  };

  DifferentialOracle(DerivativeEngine &Eng, RegexSolver &Slv,
                     OracleOptions O = {});
  ~DifferentialOracle();

  void setStub(MembershipStub S) { Stub = std::move(S); }

  /// Prepares the per-regex engines and runs the per-regex checks
  /// (nullability, sat-verdict agreement, witness validity). Appends any
  /// discrepancies to \p Out.
  void beginRegex(Re Rx, std::vector<Discrepancy> &Out);

  /// Cross-checks one word against every membership engine and the
  /// per-word metamorphic laws. Requires a prior beginRegex for the same
  /// regex.
  void checkWord(const std::vector<uint32_t> &W, std::vector<Discrepancy> &Out);

  /// De Morgan dual laws over a pair of regexes, checked by membership on
  /// \p Words and by solver-based equivalence.
  void checkDeMorgan(Re A, Re B,
                     const std::vector<std::vector<uint32_t>> &Words,
                     std::vector<Discrepancy> &Out);

  /// Convenience: beginRegex + checkWord over each sample.
  void checkSample(Re Rx, const std::vector<std::vector<uint32_t>> &Words,
                   std::vector<Discrepancy> &Out);

  /// Accumulated per-engine timing since construction.
  std::vector<EngineTiming> timings() const;

  /// Accumulated per-solver-engine phase breakdowns since construction
  /// (solver engines only; engines that answered no query are omitted).
  std::vector<EnginePhase> phaseStats() const;

  /// Total individual checks performed since construction.
  uint64_t checksRun() const { return Checks; }

  const OracleOptions &options() const { return Opts; }

private:
  enum EngineId : size_t {
    EngRefMatcher,
    EngDfaMatcher,
    EngTinyDfaMatcher,
    EngSolverMatch,
    EngSbfa,
    EngSafa,
    EngEagerDfa,
    EngAntimirovNfa,
    EngSolverBfs,
    EngSolverDfs,
    EngAntimirov,
    EngBrzMinterm,
    EngEager,
    EngStub,
    EngCount
  };
  static const char *engineName(size_t Id);

  /// Runs \p Fn under the timing slot \p Id and returns its result.
  template <typename Fn> auto timed(size_t Id, Fn &&F);

  void noteMembership(const std::vector<uint32_t> &W, const char *Engine,
                      bool Got, bool Want, std::vector<Discrepancy> &Out);
  /// Analyzer literal-prefix soundness for one accepted word.
  void checkAnalyzerPrefix(const std::vector<uint32_t> &W,
                           const char *Engine, std::vector<Discrepancy> &Out);
  /// Feature invariance under print → reparse into a fresh arena.
  void checkAnalyzerStability(std::vector<Discrepancy> &Out);
  Discrepancy makeDiscrepancy(OracleLaw Law, const std::vector<uint32_t> &W,
                              const std::string &Engine,
                              std::string Detail) const;
  void checkSatVerdicts(std::vector<Discrepancy> &Out);
  /// Verdict-cache consistency law (DESIGN.md §15): solving Cur twice
  /// through a cache-attached portfolio must hit the cache the second time
  /// with an identical verdict+witness, and clearing the cache must
  /// reproduce the cold verdict bit-identically.
  void checkVerdictCache(std::vector<Discrepancy> &Out);

  DerivativeEngine &Eng;
  RegexManager &M;
  RegexSolver &Solver;
  OracleOptions Opts;
  MembershipStub Stub;

  // Per-regex state (rebuilt by beginRegex).
  Re Cur{0};
  Re CurCompl{0};
  std::unique_ptr<CachedMatcher> DfaMatcher;
  std::unique_ptr<CachedMatcher> TinyMatcher;
  std::optional<Sbfa> SbfaA;
  std::optional<Safa> SafaA;
  std::optional<Sdfa> EagerD;
  std::optional<Snfa> AntiNfa;
  /// Features of Cur (from the solver's shared analyzer), driving the
  /// baseline capability gates and the analyzer-soundness laws.
  analysis::RegexFeatures CurFeat;
  bool ConsensusUnsat = false;
  /// Private cache for the cache-consistency law; cleared and refilled per
  /// regex so counter deltas are exact.
  cache::VerdictCache VCache;

  // Accumulators.
  int64_t EngineUs[EngCount] = {};
  uint64_t EngineCalls[EngCount] = {};
  SolveStats EngineStats[EngCount];
  uint64_t EngineQueries[EngCount] = {};
  uint64_t Checks = 0;
};

} // namespace fuzz
} // namespace sbd

#endif // SBD_FUZZ_ORACLE_H
