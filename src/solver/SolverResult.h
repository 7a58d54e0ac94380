//===- solver/SolverResult.h - Shared solver result types -------------------===//
///
/// \file
/// Result/option types shared by the symbolic-derivative solver and the
/// baseline solvers used in the evaluation harness, including the
/// per-query `SolveStats` block the observability layer populates
/// (see support/Metrics.h and DESIGN.md §8).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SOLVER_SOLVERRESULT_H
#define SBD_SOLVER_SOLVERRESULT_H

#include "support/Metrics.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <string>
#include <type_traits>
#include <vector>

namespace sbd {

/// Outcome of a satisfiability query.
enum class SolveStatus : uint8_t {
  Sat,         ///< a witness word was found
  Unsat,       ///< the language is provably empty
  Unknown,     ///< budget (time or state) exhausted
  Unsupported, ///< the solver cannot handle the input fragment
};

/// Machine-readable cause of an Unknown/Unsupported verdict. `Note` stays
/// the human-readable companion string.
enum class StopReason : uint8_t {
  None,                ///< ran to completion (Sat/Unsat)
  Timeout,             ///< wall-clock budget exhausted
  StateBudget,         ///< MaxStates distinct regexes explored
  ArenaBudget,         ///< arena/memory budget exhausted
  ParseError,          ///< the input pattern/script failed to parse
  UnsupportedFragment, ///< input outside the supported fragment
  CubeBudget,          ///< implicant enumeration budget exhausted (SMT)
  RevalidationFailed,  ///< a Sat witness failed replay through the
                       ///< reference matcher, or a fresh solve contradicted
                       ///< a loaded Unsat entry (hard error, never silent)
};

/// Human-readable stop-reason name (stable, snake_case).
inline const char *stopReasonName(StopReason R) {
  switch (R) {
  case StopReason::None:
    return "none";
  case StopReason::Timeout:
    return "timeout";
  case StopReason::StateBudget:
    return "state_budget";
  case StopReason::ArenaBudget:
    return "arena_budget";
  case StopReason::ParseError:
    return "parse_error";
  case StopReason::UnsupportedFragment:
    return "unsupported_fragment";
  case StopReason::CubeBudget:
    return "cube_budget";
  case StopReason::RevalidationFailed:
    return "revalidation_failed";
  }
  return "?";
}

/// Exploration order for the derivative solver.
enum class SearchStrategy : uint8_t {
  Bfs, ///< breadth-first: the shortlex-least witness, larger frontier
  Dfs, ///< depth-first: mimics SMT backtracking search; finds *a* witness
       ///< fast on satisfiable instances with deep models
};

/// Which engine produced a result, declared once as X(Enumerator, name).
/// Mostly interesting to the differential harnesses (BatchSolver, the fuzz
/// oracle), which aggregate per-engine phase tables from it.
#define SBD_SOLVE_ENGINES(X)                                                   \
  X(DerivBfs, "deriv_bfs")     /* symbolic-derivative solver, breadth-first */ \
  X(DerivDfs, "deriv_dfs")     /* symbolic-derivative solver, depth-first */   \
  X(Antimirov, "antimirov")    /* Antimirov partial-derivative NFA baseline */ \
  X(BrzMinterm, "brz_minterm") /* Brzozowski + explicit minterm baseline */    \
  X(Eager, "eager")            /* eager product-automaton solver */            \
  X(VerdictCache, "verdict_cache") /* cross-query verdict cache, no solve */

enum class SolveEngine : uint8_t {
#define SBD_SOLVE_ENGINE_ID(Id, Name) Id,
  SBD_SOLVE_ENGINES(SBD_SOLVE_ENGINE_ID)
#undef SBD_SOLVE_ENGINE_ID
};

/// Human-readable engine name (stable, snake_case), indexed by SolveEngine.
inline constexpr const char *SolveEngineNames[] = {
#define SBD_SOLVE_ENGINE_NAME(Id, Name) Name,
    SBD_SOLVE_ENGINES(SBD_SOLVE_ENGINE_NAME)
#undef SBD_SOLVE_ENGINE_NAME
};

constexpr size_t NumSolveEngines = std::size(SolveEngineNames);

inline const char *solveEngineName(SolveEngine E) {
  return SolveEngineNames[static_cast<size_t>(E)];
}

/// Resource budget for one query.
struct SolveOptions {
  /// Wall-clock budget in milliseconds; <= 0 means unlimited.
  int64_t TimeoutMs = 0;
  /// Maximum number of distinct states/regexes to explore; 0 = unlimited.
  size_t MaxStates = 0;
  /// Exploration order (derivative solver only).
  SearchStrategy Strategy = SearchStrategy::Bfs;
};

/// Every SolveStats field, declared once. The third column of each row is
/// its `(get-info :statistics)` keyword without the colon, or "" when the
/// statistics omit it. There are three kinds of row:
///
///   C(Type, Member, Stat, How)
///     the query's share of the counter `obs::Counter::Member`, whose name
///     is the field's JSON key. How is Copy when RegexSolver::checkSat
///     copies it out of the query's shard diff, Set when checkSat computes
///     it itself (and adds it to the registry afterwards). Summed by +=.
///   T(Type, Member, Stat, Key, Id)
///     a phase time checkSat copies out of the shard diff of
///     `obs::Counter::Id`. Summed by +=.
///   F(Type, Member, Stat, Key, Merge)
///     any other field; the solver fills it. `operator+=` folds it by
///     Merge: Sum, Max, Keep (the left side's value stays) or Prediction
///     (taken from the right side while the left side has no
///     PredictedClass yet).
///
/// The table expands to the members, `operator+=`, `json()` (keys in row
/// order), checkSat's copies, and the SolveStats rows of
/// `(get-info :statistics)`.
#define SBD_SOLVE_STATS_FIELDS(C, T, F)                                        \
  /* Engine attribution for per-engine phase tables. */                        \
  F(SolveEngine, Engine, "", "engine", Keep)                                   \
  C(uint64_t, DerivativeCalls, "derivative-calls", Copy)                       \
  C(uint64_t, DnfCalls, "dnf-calls", Copy)                                     \
  C(uint64_t, BrzozowskiCalls, "", Copy)                                       \
  C(uint64_t, DnfBranchesExplored, "dnf-branches-explored", Copy)              \
  C(uint64_t, DnfBranchesPruned, "dnf-branches-pruned", Copy)                  \
  C(uint64_t, ArcsEnumerated, "arcs-enumerated", Copy)                         \
  C(uint64_t, MintermComputations, "minterm-computations", Copy)               \
  C(uint64_t, MintermsProduced, "minterms-produced", Copy)                     \
  C(uint64_t, InternHits, "intern-hits", Set)                                  \
  C(uint64_t, InternMisses, "intern-misses", Set)                              \
  C(uint64_t, MemoHits, "memo-hits", Set)                                      \
  C(uint64_t, MemoMisses, "memo-misses", Set)                                  \
  /* Regex + TR nodes allocated; max BFS/DFS queue length. */                  \
  F(uint64_t, ArenaNodes, "arena-nodes", "arena_nodes", Sum)                   \
  F(uint64_t, PeakFrontier, "peak-frontier", "peak_frontier", Max)             \
  C(uint64_t, SolverSteps, "solver-steps", Set)                                \
  C(uint64_t, TimeoutChecks, "", Set)                                          \
  /* Phase times, microseconds. MintermUs overlaps DeriveUs/DnfUs; SearchUs */ \
  /* is TotalUs minus DeriveUs and DnfUs. */                                   \
  F(int64_t, ParseUs, "", "parse_us", Sum)                                     \
  T(int64_t, MintermUs, "minterm-time-us", "minterm_us", MintermTimeUs)        \
  T(int64_t, DeriveUs, "derive-time-us", "derive_us", DeriveTimeUs)            \
  T(int64_t, DnfUs, "dnf-time-us", "dnf_us", DnfTimeUs)                        \
  T(int64_t, ScanUs, "scan-time-us", "scan_us", ScanTimeUs)                    \
  F(int64_t, SearchUs, "search-time-us", "search_us", Sum)                     \
  F(int64_t, TotalUs, "solve-time-us", "total_us", Sum)                        \
  /* Pre-solve analyzer predictions (analysis/RegexAnalyzer.h): class name, */ \
  /* risk score [0,100] and the coarse state bound used for routing; empty */  \
  /* when the query skipped analysis. */                                       \
  F(const char *, PredictedClass, "", "predicted_class", Prediction)           \
  F(uint32_t, RiskScore, "", "risk_score", Prediction)                         \
  F(uint64_t, PredictedStates, "", "predicted_states", Prediction)             \
  F(int64_t, AnalysisUs, "", "analysis_us", Sum)                               \
  C(uint64_t, AnalysisNodesVisited, "", Copy)                                  \
  C(uint64_t, AnalysisCacheHits, "", Copy)

/// Per-query attribution of work done while solving: how many derivative
/// expansions, DNF branches, minterm computations, and cache hits the query
/// incurred, where its wall-clock went, and what the analyzer predicted.
/// Populated by RegexSolver from the thread-local metric shard (queries
/// never migrate threads); all counters are zero when the library is built
/// with -DSBD_OBS=0.
struct SolveStats {
#define SBD_SOLVE_STATS_MEMBER(Type, Member, ...) Type Member = zero<Type>();
  SBD_SOLVE_STATS_FIELDS(SBD_SOLVE_STATS_MEMBER, SBD_SOLVE_STATS_MEMBER,
                         SBD_SOLVE_STATS_MEMBER)
#undef SBD_SOLVE_STATS_MEMBER

  /// Aggregates keep the first-seen engine; callers that mix engines
  /// should bucket by Engine before summing (BatchSolver does).
  SolveStats &operator+=(const SolveStats &O) {
    const bool TakePrediction = PredictedClass[0] == '\0';
    auto Sum = [](auto &L, const auto &R) { L += R; };
    auto Max = [](auto &L, const auto &R) { L = std::max(L, R); };
    auto Keep = [](auto &, const auto &) {};
    auto Prediction = [TakePrediction](auto &L, const auto &R) {
      if (TakePrediction)
        L = R;
    };
#define SBD_MERGE_SUM(Type, Member, ...) Sum(Member, O.Member);
#define SBD_MERGE_F(Type, Member, Stat, Key, Merge) Merge(Member, O.Member);
    SBD_SOLVE_STATS_FIELDS(SBD_MERGE_SUM, SBD_MERGE_SUM, SBD_MERGE_F)
#undef SBD_MERGE_F
#undef SBD_MERGE_SUM
    return *this;
  }

  /// Flat JSON object with stable snake_case keys (used by --stats-json
  /// and slow-query artifacts).
  std::string json() const {
    std::string Out = "{";
    const char *Sep = "";
    auto Field = [&](const char *Key, const auto &V) {
      Out += Sep;
      Out += '"';
      Out += Key;
      Out += "\": ";
      appendJson(Out, V);
      Sep = ", ";
    };
#define SBD_JSON_C(Type, Member, ...)                                          \
  Field(obs::counterName(obs::Counter::Member), Member);
#define SBD_JSON_F(Type, Member, Stat, Key, ...) Field(Key, Member);
    SBD_SOLVE_STATS_FIELDS(SBD_JSON_C, SBD_JSON_F, SBD_JSON_F)
#undef SBD_JSON_F
#undef SBD_JSON_C
    Out += '}';
    return Out;
  }

private:
  /// A field's zero: 0, the first engine, or "" (never null, so json()
  /// and operator+= read PredictedClass unguarded).
  template <class T> static constexpr T zero() {
    if constexpr (std::is_pointer_v<T>)
      return "";
    else
      return T{};
  }

  static void appendJson(std::string &Out, SolveEngine E) {
    Out += '"';
    Out += solveEngineName(E);
    Out += '"';
  }
  static void appendJson(std::string &Out, const char *S) {
    Out += '"';
    Out += S;
    Out += '"';
  }
  template <class T> static void appendJson(std::string &Out, T V) {
    Out += std::to_string(V);
  }
};

/// Result of one query, including the statistics the benchmark harness
/// reports.
struct SolveResult {
  SolveStatus Status = SolveStatus::Unknown;
  /// A word in the language (Sat only).
  std::vector<uint32_t> Witness;
  /// States/regexes materialized while solving.
  size_t StatesExplored = 0;
  /// Wall-clock time spent, microseconds.
  int64_t TimeUs = 0;
  /// Machine-readable cause of an Unknown/Unsupported verdict.
  StopReason Stop = StopReason::None;
  /// Diagnostic for Unknown/Unsupported (human-readable companion of Stop).
  std::string Note;
  /// Per-query work attribution (see SolveStats).
  SolveStats Stats;

  bool isSat() const { return Status == SolveStatus::Sat; }
  bool isUnsat() const { return Status == SolveStatus::Unsat; }
};

/// Human-readable status name.
inline const char *statusName(SolveStatus S) {
  switch (S) {
  case SolveStatus::Sat:
    return "sat";
  case SolveStatus::Unsat:
    return "unsat";
  case SolveStatus::Unknown:
    return "unknown";
  case SolveStatus::Unsupported:
    return "unsupported";
  }
  return "?";
}

} // namespace sbd

#endif // SBD_SOLVER_SOLVERRESULT_H
