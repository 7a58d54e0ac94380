//===- support/Histogram.h - Log2-bucketed histogram registry (sbd::obs) ----===//
///
/// \file
/// The distribution half of the observability subsystem: fixed
/// log2-bucketed histograms for latencies and sizes, sharded per thread and
/// merged deterministically by the same `ShardRegistry` that holds the
/// counters (support/ShardRegistry.h):
///
///  - Hot paths never touch shared mutable state. Every thread records into
///    its own `HistShard` (plain uint64 arrays, no atomics); the registry
///    mutex is taken only on thread register/exit and on snapshot/reset.
///  - Bucketing is pure integer arithmetic on the value's bit width, so the
///    same workload produces bit-identical bucket counts regardless of
///    thread count, scheduling, or platform: value 0 lands in bucket 0 and
///    value v > 0 lands in bucket bit_width(v), i.e. bucket b holds
///    [2^(b-1), 2^b). Percentiles are read deterministically as the upper
///    bound of the bucket containing the ceil(q*Count)-th sample.
///  - Compile with `-DSBD_OBS=0` to strip every `SBD_OBS_HIST` recording;
///    the registry API stays as a zero-cost shell (all-zero snapshots) so
///    exposition and statistics call sites need no `#if` guards.
///
/// See DESIGN.md §13.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_HISTOGRAM_H
#define SBD_SUPPORT_HISTOGRAM_H

#include "support/Metrics.h"

#include <cstdint>
#include <string>

namespace sbd {
namespace obs {

/// Every histogram the registry tracks, declared once as
/// X(Enumerator, name) — the same pattern as SBD_OBS_COUNTERS: adding a
/// histogram is adding one row, and row order is output order.
#define SBD_OBS_HISTOGRAMS(X)                                                  \
  X(SolveLatencyUs, "solve_latency_us") /* RegexSolver::checkSat wall clock */ \
  X(SolveArenaNodes, "solve_arena_nodes") /* regex + TR nodes allocated */     \
  X(DnfExpansionArcs, "dnf_expansion_arcs") /* arcs per δdnf expansion */      \
  X(LazyScanUs, "lazy_scan_us") /* CachedMatcher lazy-path matches */          \
  X(DistRpcUs, "dist_rpc_us") /* coordinator request→response */               \
  X(DistQueueDepth, "dist_queue_depth") /* worker backlog at dispatch */

enum class Hist : uint32_t {
#define SBD_OBS_HIST_ID(Id, Name) Id,
  SBD_OBS_HISTOGRAMS(SBD_OBS_HIST_ID)
#undef SBD_OBS_HIST_ID
  NumHistograms ///< sentinel — keep last
};

constexpr size_t NumHistograms = static_cast<size_t>(Hist::NumHistograms);

/// Log2 buckets: bucket 0 holds value 0, bucket b >= 1 holds [2^(b-1), 2^b).
constexpr size_t NumHistBuckets = 64;

/// Stable snake_case name for JSON/statistics output.
inline const char *histName(Hist H) {
  static constexpr const char *Names[] = {
#define SBD_OBS_HIST_NAME(Id, Name) Name,
      SBD_OBS_HISTOGRAMS(SBD_OBS_HIST_NAME)
#undef SBD_OBS_HIST_NAME
  };
  return Names[static_cast<size_t>(H)];
}

/// Bucket index for a recorded value (see the bucketing rule above).
inline uint32_t histBucket(uint64_t V) {
  if (V == 0)
    return 0;
  uint32_t B = 64u - static_cast<uint32_t>(__builtin_clzll(V));
  return B < NumHistBuckets ? B : NumHistBuckets - 1;
}

/// Inclusive upper bound of a bucket (what percentile queries report).
inline uint64_t histBucketUpperBound(uint32_t B) {
  if (B == 0)
    return 0;
  if (B >= 63)
    return UINT64_MAX;
  return (uint64_t{1} << B) - 1;
}

/// One thread's (or one snapshot's) histogram values. Plain uint64s — never
/// shared while being written.
struct HistShard {
  /// One histogram's accumulated distribution.
  struct Data {
    uint64_t Buckets[NumHistBuckets] = {};
    uint64_t Count = 0;
    uint64_t Sum = 0;
    uint64_t Min = UINT64_MAX; ///< meaningful only when Count > 0
    uint64_t Max = 0;

    void record(uint64_t V) {
      Buckets[histBucket(V)] += 1;
      Count += 1;
      Sum += V;
      if (V < Min)
        Min = V;
      if (V > Max)
        Max = V;
    }

    Data &operator+=(const Data &O) {
      for (size_t I = 0; I != NumHistBuckets; ++I)
        Buckets[I] += O.Buckets[I];
      Count += O.Count;
      Sum += O.Sum;
      if (O.Min < Min)
        Min = O.Min;
      if (O.Max > Max)
        Max = O.Max;
      return *this;
    }
  };

  Data H[NumHistograms];

  void record(Hist Id, uint64_t V) { H[static_cast<size_t>(Id)].record(V); }
  const Data &data(Hist Id) const { return H[static_cast<size_t>(Id)]; }
  uint64_t count(Hist Id) const { return data(Id).Count; }

  HistShard &operator+=(const HistShard &O) {
    for (size_t I = 0; I != NumHistograms; ++I)
      H[I] += O.H[I];
    return *this;
  }

  void reset() { *this = HistShard(); }

  /// {"<histogram name>": {"count": 3, "sum": 10, "min": 1, "max": 7,
  ///   "p50": 3, "p90": 7, "p99": 7, "buckets": [[1, 1], [3, 1], [7, 1]]},
  ///  ...} — buckets is the sparse [upper_bound, count] list.
  std::string json() const;
};

/// Deterministic percentile read: the inclusive upper bound of the bucket
/// containing the ceil(Pct/100 * Count)-th sample (1-indexed); 0 when the
/// histogram is empty. \p Pct in [1, 100].
uint64_t histPercentile(const HistShard::Data &D, unsigned Pct);

/// Process-wide registry of per-thread histogram shards.
extern template class ShardRegistry<HistShard>;
using HistogramRegistry = ShardRegistry<HistShard>;

/// The calling thread's histogram shard — the only thing hot paths touch.
inline HistShard &tlsHistShard() { return HistogramRegistry::local(); }

#if SBD_OBS
#define SBD_OBS_HIST(HistId, Value)                                            \
  (::sbd::obs::tlsHistShard().record(::sbd::obs::Hist::HistId,                 \
                                     static_cast<uint64_t>(Value)))
#else
#define SBD_OBS_HIST(HistId, Value) ((void)0)
#endif

} // namespace obs
} // namespace sbd

#endif // SBD_SUPPORT_HISTOGRAM_H
