//===- support/ShardRegistry.h - Per-thread shard registry (sbd::obs) -------===//
///
/// \file
/// The one registry behind both observability surfaces: counters
/// (`MetricsRegistry`, support/Metrics.h) and histograms
/// (`HistogramRegistry`, support/Histogram.h). A shard is a plain struct of
/// uint64 values with `+=` and `reset()`; the registry keeps one per thread.
///
///  - Hot paths never touch shared mutable state. `local()` is a
///    `constinit thread_local` pointer load and a null test; only a
///    thread's first call takes the registry mutex, to register its shard.
///  - A thread's shard is folded into a retired sum when the thread exits,
///    so snapshots include the work of threads that already joined.
///  - Snapshots taken while other threads are writing are approximate
///    (plain loads may tear); take them after joining workers for exact
///    values. All tests and benches do.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_SUPPORT_SHARDREGISTRY_H
#define SBD_SUPPORT_SHARDREGISTRY_H

#include <mutex>
#include <vector>

namespace sbd {
namespace obs {

/// Process-wide registry of per-thread `ShardT`s. One leaked instance per
/// shard type: thread-exit hooks may run after main() returns, so the
/// registry must never be destroyed. The out-of-line members live in
/// support/ShardRegistry.cpp, instantiated for MetricShard and HistShard.
template <class ShardT> class ShardRegistry {
public:
  static ShardRegistry &global();

  /// The calling thread's shard. After the thread's first call this is one
  /// TLS load and a null test.
  static ShardT &local() {
    ShardT *P = Tls;
    return P ? *P : registerThread();
  }

  /// Merged view: retired shards of exited threads + all live shards.
  /// Exact only when no other thread is concurrently writing.
  ShardT snapshot();

  /// Zeroes every live shard and the retired sum. Call between benchmark
  /// runs (with workers joined).
  void reset();

private:
  ShardRegistry() = default;
  ShardRegistry(const ShardRegistry &) = delete;
  ShardRegistry &operator=(const ShardRegistry &) = delete;

  struct Holder;
  /// Registers the calling thread's shard and points Tls at it.
  static ShardT &registerThread();

  /// Null until the thread's first write. `constinit` and trivially
  /// destructible, so reading it needs no TLS init guard.
  inline static constinit thread_local ShardT *Tls = nullptr;
  /// Receives writes made while (or after) this thread's Holder is torn
  /// down; its contents are dropped.
  static thread_local ShardT ExitSink;

  std::mutex Mu;
  std::vector<ShardT *> Live; ///< guarded by Mu
  ShardT Retired;             ///< guarded by Mu
};

} // namespace obs
} // namespace sbd

#endif // SBD_SUPPORT_SHARDREGISTRY_H
