//===- cache/VerdictCache.h - Cross-query canonical verdict cache -----------===//
///
/// \file
/// A Green-style canonicalizing result cache for regex satisfiability
/// queries (DESIGN.md §15). The hash-consed similarity forms of paper
/// Section 3 already canonicalize every query term, so the canonical
/// *print* of the folded query ERE — plus the solve-relevant `SolveOptions`
/// fields — is a collision-free cross-arena key: two queries share an entry
/// iff they intern to the same term under the similarity laws and run under
/// the same budget/strategy. Values are definite verdicts (sat + witness,
/// or unsat); Unknown/Unsupported outcomes are never cached.
///
/// Storage is sharded open addressing in the style of
/// `InternTable`/`FlatMap64`: each shard owns one dense entry vector plus a
/// fixed linear-probe slot table, guarded by its own mutex so a resident
/// server and batch workers can share one cache. The entries of a shard are
/// also threaded on a doubly linked recency list (least- to most-recently
/// hit). Capacity is bounded; overflow evicts the list's least-recently-hit
/// end in O(1): its slot goes by backward-shift deletion and its dense
/// position by swap-and-pop, so `save()` writes the same order a scan for
/// the oldest hit would leave.
///
/// Trust model: the cache is *not* trusted. Every Sat hit must be
/// revalidated by the caller — replay the cached witness through the
/// reference matcher — before the verdict is served, and an Unsat entry
/// read from disk (`Proven == false`) must be re-solved on its first hit.
/// A failed revalidation is a hard error surfaced through the audit
/// counters (`verdict_cache_revalidation_failures`, `audit_violations`),
/// never a silent fallback to re-solving. `noteRevalidationFailure()`
/// implements that policy and drops the poisoned entry.
///
/// An optional JSONL persistent store (`save()`/`load()`) lets a warmed
/// cache survive process restarts (`sbd-server --cache-load/--cache-save`).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CACHE_VERDICTCACHE_H
#define SBD_CACHE_VERDICTCACHE_H

#include "re/Regex.h"
#include "solver/SolverResult.h"

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace sbd {
namespace cache {

/// One memoized definite verdict.
struct CachedVerdict {
  bool Sat = false;
  /// Witness word (Sat entries only; empty means the empty-string witness).
  std::vector<uint32_t> Witness;
  /// False for an entry read by load() until a solve in this process
  /// agrees with it. Sat hits are checked by their witness on every hit;
  /// an unproven Unsat hit is re-solved before it is served.
  bool Proven = true;
};

/// Aggregated per-cache counters (the same values also feed the process
///-wide `sbd::obs` registry under the verdict_cache_* names).
struct VerdictCacheCounters {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t Inserts = 0;
  uint64_t Evictions = 0;
  uint64_t RevalidationFailures = 0;
  size_t Size = 0;

  double hitRate() const {
    uint64_t Total = Hits + Misses;
    return Total ? static_cast<double>(Hits) / static_cast<double>(Total)
                 : 0.0;
  }
};

/// Derives the canonical cache key for deciding satisfiability of \p R
/// under \p Opts: the canonical print of the hash-consed term (which
/// round-trips through RegexParser — see VerdictCacheTest's reparse law)
/// plus the verdict-relevant option fields (state budget and search
/// strategy; the wall-clock budget is deliberately excluded — a definite
/// verdict is valid under any deadline). Returns an empty string when the
/// print exceeds \p MaxKeyBytes (pathologically shared DAGs can print
/// exponentially large, so the print stops once it passes the cap);
/// callers must skip the cache for such queries.
std::string canonicalVerdictKey(const RegexManager &M, Re R,
                                const SolveOptions &Opts,
                                size_t MaxKeyBytes = 1 << 16);

/// Bounded, sharded canonical-key → verdict store.
class VerdictCache {
public:
  struct Config {
    /// Total entry capacity across all shards (rounded up per shard).
    size_t Capacity = 1 << 16;
  };

  VerdictCache() : VerdictCache(Config{1 << 16}) {}
  explicit VerdictCache(Config C);

  /// Probes \p Key. Bumps hit/miss counters and the entry's recency on
  /// hit. Callers MUST revalidate Sat results before serving them.
  std::optional<CachedVerdict> lookup(const std::string &Key);

  /// Memoizes a definite verdict (inserts or overwrites). Keys larger than
  /// the canonical-key cap and empty keys are rejected.
  void insert(const std::string &Key, CachedVerdict V);

  /// Hard-error bookkeeping for a Sat hit whose witness failed replay
  /// through the reference matcher: bumps the revalidation-failure and
  /// audit counters and drops the poisoned entry.
  void noteRevalidationFailure(const std::string &Key);

  /// Drops every entry (counters keep accumulating).
  void clear();

  /// Live entries across all shards.
  size_t size() const;

  /// Counter snapshot (exact when no concurrent writer).
  VerdictCacheCounters counters() const;

  /// --- JSONL persistence ---------------------------------------------------

  /// Appends every entry as one JSON object per line. Returns false on I/O
  /// error.
  bool save(const std::string &Path) const;

  /// Inserts every entry of a previously saved file, marked unproven
  /// (malformed lines are skipped). Returns the number of entries loaded,
  /// or -1 when the file cannot be opened.
  long load(const std::string &Path);

  /// --- Test hooks ----------------------------------------------------------

  /// Corrupts the stored witness of \p Key (appends a bogus code point) so
  /// the revalidation negative test can prove a poisoned entry is caught.
  /// Returns false when the key is absent. Never call outside tests.
  bool corruptWitnessForTest(const std::string &Key);

  /// The shard (in [0, NumShards)) that holds \p Key, so a test can model
  /// per-shard capacity and eviction. Never call outside tests.
  static size_t shardOfForTest(const std::string &Key);

  /// Shard count; each shard holds ceil(Capacity / NumShards) entries.
  static constexpr size_t NumShards = 16; // power of two

private:
  static constexpr uint32_t EmptyIdx = 0xFFFFFFFFu;

  struct Entry {
    uint64_t Hash = 0;
    std::string Key;
    CachedVerdict Verdict;
    /// Recency-list neighbours (entry indices; EmptyIdx at the ends).
    uint32_t Prev = EmptyIdx, Next = EmptyIdx;
  };

  struct Shard {
    mutable std::mutex Mu;
    std::vector<Entry> Entries;       ///< dense payload storage
    std::vector<uint32_t> Slots;      ///< linear-probe index into Entries
    /// Recency-list ends: the eviction victim and the latest hit/insert.
    uint32_t Lru = EmptyIdx, Mru = EmptyIdx;
    uint64_t Hits = 0, Misses = 0, Inserts = 0, Evictions = 0,
             RevalFailures = 0;
  };

  static size_t shardIndex(uint64_t Hash) {
    return (Hash >> 48) & (NumShards - 1);
  }
  Shard &shardFor(uint64_t Hash) { return Shards[shardIndex(Hash)]; }
  const Shard &shardFor(uint64_t Hash) const {
    return Shards[shardIndex(Hash)];
  }

  /// Probe for Key in S; returns the entry index or EmptyIdx. Requires
  /// S.Mu held.
  uint32_t findLocked(const Shard &S, uint64_t Hash,
                      const std::string &Key) const;
  /// The slot that holds entry \p Idx. Requires S.Mu held.
  size_t slotOfLocked(const Shard &S, uint32_t Idx) const;
  /// Unlinks entry \p Idx from the recency list. Requires S.Mu held.
  static void unlinkLocked(Shard &S, uint32_t Idx);
  /// Links entry \p Idx at the most-recently-hit end. Requires S.Mu held.
  static void pushMruLocked(Shard &S, uint32_t Idx);
  /// Removes entry \p Idx from the slot table, the recency list and the
  /// dense vector (swap-and-pop). O(probe chain). Requires S.Mu held.
  void removeLocked(Shard &S, uint32_t Idx);

  size_t ShardCapacity;
  size_t SlotCount; ///< per-shard slot-table size (power of two)
  Shard Shards[NumShards];
};

} // namespace cache
} // namespace sbd

#endif // SBD_CACHE_VERDICTCACHE_H
