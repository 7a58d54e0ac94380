//===- support/Metrics.h - Unified counter registry (sbd::obs) --------------===//
///
/// \file
/// The counting half of the observability subsystem: a process-wide
/// `MetricsRegistry` of named counters with *per-thread shards*, plus the
/// per-owner `CacheStats` struct the interning/memo layers bump (moved here
/// from the former support/CacheStats.h, which this header supersedes).
///
/// Design rules:
///
///  - Every counter is one row of `SBD_OBS_COUNTERS` below; the enum, the
///    names and every output are expanded from it.
///  - Hot paths never touch shared mutable state. Every thread increments
///    its own `MetricShard` (a plain array of uint64, no atomics) held by
///    the shared `ShardRegistry` (support/ShardRegistry.h), whose mutex is
///    taken only when a thread first appears, when it exits (its shard is
///    folded into a retired sum), and when a reader asks for a merged
///    snapshot. `BatchSolver` workers are therefore lock-free while solving.
///  - Per-*query* attribution does not go through the registry at all: a
///    solver snapshots its thread's shard on entry and diffs on exit
///    (queries never migrate threads — the thread-local arena rule).
///  - Compile with `-DSBD_OBS=0` to strip every counter update and span,
///    the `CacheStats` bumps included; the macros expand to nothing and the
///    structs stay as zero-cost shells so call sites need no `#if` guards.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_METRICS_H
#define SBD_SUPPORT_METRICS_H

#include "support/ShardRegistry.h"

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <string>

#ifndef SBD_OBS
#define SBD_OBS 1
#endif

/// Bumps one field of a per-owner CacheStats (below).
#if SBD_OBS
#define SBD_OBS_STAT_INC(Stats, Field) ((Stats).Field += 1)
#else
#define SBD_OBS_STAT_INC(Stats, Field) ((void)0)
#endif

namespace sbd {

namespace obs {

/// Every counter the registry tracks, declared once as X(Enumerator, name).
/// The table expands to `enum class Counter` (hot code indexes the shard
/// array by it) and to the stable snake_case names of counterName(), which
/// JSON, statistics and exposition output print; adding a counter is adding
/// one row. Rows keep their order: it is the order of every output.
#define SBD_OBS_COUNTERS(X)                                                    \
  /* Derivative engine. */                                                     \
  X(DerivativeCalls, "derivative_calls") /* δ(R) calls, recursive too */       \
  X(DnfCalls, "dnf_calls") /* δdnf(R) requests, memo hits too */               \
  X(BrzozowskiCalls, "brzozowski_calls") /* classical D_a(R) calls */          \
  /* Transition-regex DNF transformation. */                                   \
  X(DnfBranchesExplored, "dnf_branches_explored") /* branches recursed into */ \
  X(DnfBranchesPruned, "dnf_branches_pruned") /* path condition died */        \
  X(ArcsEnumerated, "arcs_enumerated") /* (guard, target) arcs produced */     \
  /* Character algebra. */                                                     \
  X(MintermComputations, "minterm_computations") /* computeMinterms() calls */ \
  X(MintermsProduced, "minterms_produced") /* minterms they returned */        \
  /* Alphabet compression + lazy-DFA layer (charset/AlphabetCompressor.h, */   \
  /* core/CachedMatcher.h). */                                                 \
  X(AlphabetMinterms, "alphabet_minterms") /* minterm classes assigned */      \
  X(DfaStatesBuilt, "dfa_states_built") /* lazy-DFA rows filled */             \
  X(DfaEvictions, "dfa_evictions") /* lazy-DFA states evicted */               \
  /* Nothing increments these three; bench/sbdbench/Paths.cpp reads them, */ \
  /* so they stay until that benchmark's next change. */                       \
  X(DenseRowHits, "dense_row_hits")                                            \
  X(CompiledPromotions, "compiled_promotions")                                 \
  X(CompiledCharsScanned, "compiled_chars_scanned")                            \
  /* Solver search loop. */                                                    \
  X(SolverSteps, "solver_steps") /* states dequeued by checkSat */             \
  X(TimeoutChecks, "timeout_checks") /* deadline clock reads */                \
  X(QueriesSolved, "queries_solved") /* checkSat() calls completed */          \
  /* Interning / memoization (folded per query from the owner CacheStats). */  \
  X(InternHits, "intern_hits")                                                 \
  X(InternMisses, "intern_misses")                                             \
  X(MemoHits, "memo_hits")                                                     \
  X(MemoMisses, "memo_misses")                                                 \
  X(ProbeSteps, "probe_steps")                                                 \
  X(Lookups, "lookups")                                                        \
  /* Invariant auditor (analysis/Audit.h; counts only in SBD_AUDIT builds). */ \
  X(AuditNodesChecked, "audit_nodes_checked") /* nodes/lists audited */        \
  X(AuditViolations, "audit_violations") /* violations the hooks detected */   \
  /* Differential fuzzing subsystem (fuzz/Fuzzer.h). */                        \
  X(FuzzSamples, "fuzz_samples") /* (regex, word) samples checked */           \
  X(FuzzChecks, "fuzz_checks") /* cross-engine/metamorphic checks */           \
  X(FuzzDiscrepancies, "fuzz_discrepancies") /* disagreements detected */      \
  X(FuzzShrinkSteps, "fuzz_shrink_steps") /* accepted shrinker reductions */   \
  /* Profiling layer (support/Histogram.h, support/Trace.h drop policy, */     \
  /* solver/SlowQueryLog.h). */                                                \
  X(TraceEventsDropped, "trace_events_dropped") /* over the per-thread cap */  \
  X(SlowQueriesCaptured, "slow_queries_captured") /* explain artifacts kept */ \
  X(SlowQueriesDropped, "slow_queries_dropped") /* evicted from the ring */    \
  /* Pre-solve static analysis + routing (analysis/RegexAnalyzer.h, */         \
  /* portfolio/Portfolio.h). */                                                \
  X(AnalysisNodesVisited, "analysis_nodes_visited") /* memo misses */          \
  X(AnalysisCacheHits, "analysis_cache_hits") /* analyze() memo hits */        \
  X(AdmissionFlagged, "admission_flagged") /* Adversarial queries capped */    \
  /* Cross-query verdict cache (cache/VerdictCache.h, DESIGN.md §15). */       \
  X(VerdictCacheHits, "verdict_cache_hits") /* answered from the cache */      \
  X(VerdictCacheMisses, "verdict_cache_misses") /* probed, not found */        \
  X(VerdictCacheInserts, "verdict_cache_inserts") /* definite verdicts kept */ \
  X(VerdictCacheEvictions, "verdict_cache_evictions") /* least-recently-hit */ \
  /* Cached witnesses the reference matcher rejected on hit (hard error). */   \
  X(VerdictCacheRevalidationFailures, "verdict_cache_revalidation_failures")   \
  X(SessionChecks, "session_checks") /* (check-sat)s SmtSession served */      \
  /* Multi-process batch solving (dist/Coordinator.h, DESIGN.md §16). */       \
  X(DistDispatched, "dist_dispatched") /* requests sent to workers */          \
  X(DistSteals, "dist_steals") /* moved off their home shard */                \
  X(DistRequeues, "dist_requeues") /* replayed after a worker loss */          \
  X(DistWorkerCrashes, "dist_worker_crashes") /* died with work in flight */   \
  X(DistTimeouts, "dist_timeouts") /* exceeded RpcTimeoutMs */                 \
  /* Phase timings in microseconds (counters, so they shard and merge). */     \
  X(ParseTimeUs, "parse_time_us")                                              \
  X(MintermTimeUs, "minterm_time_us")                                          \
  X(DeriveTimeUs, "derive_time_us")                                            \
  X(DnfTimeUs, "dnf_time_us")                                                  \
  X(ScanTimeUs, "scan_time_us")                                                \
  X(SearchTimeUs, "search_time_us")                                            \
  X(SolveTimeUs, "solve_time_us")

enum class Counter : uint32_t {
#define SBD_OBS_COUNTER_ID(Id, Name) Id,
  SBD_OBS_COUNTERS(SBD_OBS_COUNTER_ID)
#undef SBD_OBS_COUNTER_ID
  NumCounters ///< sentinel — keep last
};

constexpr size_t NumCounters = static_cast<size_t>(Counter::NumCounters);

/// Stable snake_case name for JSON/statistics output.
inline const char *counterName(Counter C) {
  static constexpr const char *Names[] = {
#define SBD_OBS_COUNTER_NAME(Id, Name) Name,
      SBD_OBS_COUNTERS(SBD_OBS_COUNTER_NAME)
#undef SBD_OBS_COUNTER_NAME
  };
  return Names[static_cast<size_t>(C)];
}

/// One thread's (or one snapshot's) counter values. Plain uint64s — never
/// shared while being written.
struct MetricShard {
  uint64_t C[NumCounters] = {};

  uint64_t get(Counter Id) const { return C[static_cast<size_t>(Id)]; }
  void add(Counter Id, uint64_t N) { C[static_cast<size_t>(Id)] += N; }

  MetricShard &operator+=(const MetricShard &O) {
    for (size_t I = 0; I != NumCounters; ++I)
      C[I] += O.C[I];
    return *this;
  }

  /// Counter-wise `*this - Since` (Since must be an earlier snapshot of the
  /// same monotonically increasing shard).
  MetricShard since(const MetricShard &Earlier) const {
    MetricShard Out;
    for (size_t I = 0; I != NumCounters; ++I)
      Out.C[I] = C[I] - Earlier.C[I];
    return Out;
  }

  void reset() { *this = MetricShard(); }

  /// Flat JSON object, one "counter_name": value pair per counter.
  std::string json() const;
};

/// Process-wide registry of per-thread counter shards.
extern template class ShardRegistry<MetricShard>;
using MetricsRegistry = ShardRegistry<MetricShard>;

/// The calling thread's shard — the only thing hot paths touch. First call
/// from a thread takes the registry mutex once; afterwards this is one TLS
/// load, a null test, and the increment.
inline MetricShard &tlsShard() { return MetricsRegistry::local(); }

#if SBD_OBS
#define SBD_OBS_INC(CounterId)                                                 \
  (::sbd::obs::tlsShard().add(::sbd::obs::Counter::CounterId, 1))
#define SBD_OBS_ADD(CounterId, N)                                              \
  (::sbd::obs::tlsShard().add(::sbd::obs::Counter::CounterId,                  \
                              static_cast<uint64_t>(N)))
#else
#define SBD_OBS_INC(CounterId) ((void)0)
#define SBD_OBS_ADD(CounterId, N) ((void)0)
#endif

} // namespace obs

/// Hit/miss/probe counters for one interning table or memo cache owner.
/// All counters are plain (non-atomic) — each arena is single-threaded by
/// design (see DESIGN.md, "thread-local arena rule"); cross-thread
/// aggregation happens only after workers join.
struct CacheStats {
  /// Hash-consing: structurally-equal node re-interned (no allocation).
  uint64_t InternHits = 0;
  /// Hash-consing: fresh node appended to the arena.
  uint64_t InternMisses = 0;
  /// Memoized δ/δdnf/negate/Brzozowski result served from a memo slot.
  uint64_t MemoHits = 0;
  /// Memo slot was empty; the result was computed and recorded.
  uint64_t MemoMisses = 0;
  /// Total open-addressing probe steps across all table lookups.
  uint64_t ProbeSteps = 0;
  /// Number of table lookups (probe-length denominator).
  uint64_t Lookups = 0;

  void reset() { *this = CacheStats(); }

  CacheStats &operator+=(const CacheStats &O) {
    InternHits += O.InternHits;
    InternMisses += O.InternMisses;
    MemoHits += O.MemoHits;
    MemoMisses += O.MemoMisses;
    ProbeSteps += O.ProbeSteps;
    Lookups += O.Lookups;
    return *this;
  }

  /// Folds these counters into a registry shard under the unified names.
  void foldInto(obs::MetricShard &Shard) const {
    Shard.add(obs::Counter::InternHits, InternHits);
    Shard.add(obs::Counter::InternMisses, InternMisses);
    Shard.add(obs::Counter::MemoHits, MemoHits);
    Shard.add(obs::Counter::MemoMisses, MemoMisses);
    Shard.add(obs::Counter::ProbeSteps, ProbeSteps);
    Shard.add(obs::Counter::Lookups, Lookups);
  }

  double internHitRate() const {
    uint64_t Total = InternHits + InternMisses;
    return Total ? static_cast<double>(InternHits) /
                       static_cast<double>(Total)
                 : 0.0;
  }
  double memoHitRate() const {
    uint64_t Total = MemoHits + MemoMisses;
    return Total ? static_cast<double>(MemoHits) / static_cast<double>(Total)
                 : 0.0;
  }
  /// Mean probe steps per lookup (1.0 = every key found in its home slot).
  double avgProbeLength() const {
    return Lookups ? static_cast<double>(ProbeSteps) /
                         static_cast<double>(Lookups)
                   : 0.0;
  }

  /// One-line human-readable rendering for benchmark output.
  std::string summary() const {
    char Buf[160];
    std::snprintf(Buf, sizeof(Buf),
                  "intern %llu/%llu (%.1f%% hit) memo %llu/%llu (%.1f%% hit) "
                  "avg-probe %.2f",
                  static_cast<unsigned long long>(InternHits),
                  static_cast<unsigned long long>(InternHits + InternMisses),
                  internHitRate() * 100.0,
                  static_cast<unsigned long long>(MemoHits),
                  static_cast<unsigned long long>(MemoHits + MemoMisses),
                  memoHitRate() * 100.0, avgProbeLength());
    return Buf;
  }
};

} // namespace sbd

#endif // SBD_SUPPORT_METRICS_H
