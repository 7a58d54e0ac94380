//===- portfolio/SlowQueryLog.h - Slow-query record filter (sbd::obs) -------===//
///
/// \file
/// The slow-query log is a latency filter over per-query records. Every
/// answer leaves through PortfolioSolver::checkSat — derivative engine,
/// Antimirov route and verdict cache alike — and there, when the answer's
/// `SolveStats::TotalUs` reaches the configured threshold, one JSONL record
/// is appended to the configured file: the pattern in canonical SMT-LIB
/// form, a full `.smt2` replay script, the solve options, the verdict, the
/// query's `SolveStats::json()` and its analyzer features.
/// `tools/sbd-explain` replays a record.
///
/// shouldCapture() is one relaxed atomic load, and the capture site
/// compiles out at `-DSBD_OBS=0`. See DESIGN.md §13 for the record schema.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_PORTFOLIO_SLOWQUERYLOG_H
#define SBD_PORTFOLIO_SLOWQUERYLOG_H

#include "analysis/RegexAnalyzer.h"
#include "solver/SolverResult.h"
#include "support/Metrics.h"

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>

namespace sbd {
namespace obs {

/// Capture policy. The log is armed only with both a threshold and a path.
struct SlowQueryOptions {
  /// Capture answers at least this slow; < 0 disarms the log.
  int64_t LatencyThresholdUs = -1;
  /// JSONL file each captured record is appended to.
  std::string Path;
};

/// Process-wide slow-query filter. Singleton, intentionally leaked like the
/// metric registries.
class SlowQueryLog {
public:
  static SlowQueryLog &global();

  /// Installs a capture policy.
  void configure(const SlowQueryOptions &O);

  /// Does an answer that took \p TotalUs pass the filter?
  bool shouldCapture(int64_t TotalUs) const {
    int64_t T = ThresholdUs.load(std::memory_order_relaxed);
    return T >= 0 && TotalUs >= T;
  }

  /// Appends \p Record as one line of the configured file and bumps
  /// `slow_queries_captured`. The whole write happens under the log's
  /// mutex: stdio splits a write longer than its buffer, so concurrent
  /// appends outside a lock could tear a line.
  void append(const std::string &Record);

private:
  SlowQueryLog() = default;
  SlowQueryLog(const SlowQueryLog &) = delete;

  /// Latency threshold in µs, or -1 when disarmed.
  std::atomic<int64_t> ThresholdUs{-1};
  /// Held by configure and by every append, around the whole write.
  std::mutex Mu;
  std::string Path;
};

/// One slow-query record as a one-line JSON object (DESIGN.md §13): \p R
/// solved under \p Opts answered \p Out; \p Feat is R's analyzer record.
std::string slowQueryRecord(const RegexManager &M, Re R,
                            const SolveOptions &Opts,
                            const SolveResult &Out,
                            const analysis::RegexFeatures &Feat);

} // namespace obs
} // namespace sbd

#endif // SBD_PORTFOLIO_SLOWQUERYLOG_H
