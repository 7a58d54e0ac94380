//===- dist/Worker.h - Worker-process request loop --------------------------===//
///
/// \file
/// The body of one `src/dist` worker process. A worker is a blocking
/// read-decode-solve-respond loop over two file descriptors (in practice
/// the two ends of a Unix socketpair inherited across fork): it sends one
/// Ready frame, then answers Request frames with Response frames until a
/// Shutdown frame or EOF arrives.
///
/// Each worker owns a full `portfolio::SolverStack` plus its own
/// `cache::VerdictCache`. The stack is rebuilt after every query, as in
/// BatchSolver, so a query's state budget counts only its own states and
/// its answer is the same on every worker. Warmth across queries is carried
/// by the verdict cache, whose canonical-print keys are arena- and
/// process-portable and whose hits replay cold verdicts bit-identically
/// (the `cache_consistency` law).
///
//===----------------------------------------------------------------------===//

#ifndef SBD_DIST_WORKER_H
#define SBD_DIST_WORKER_H

#include <cstddef>

namespace sbd {
namespace dist {

/// Worker-process knobs. Plumbed by the coordinator before fork.
struct WorkerConfig {
  /// Per-worker verdict-cache capacity (entries). 0 disables the cache.
  size_t VerdictCacheCapacity = 4096;

  /// Test hook: crash hard (exit 137, as if SIGKILLed) when handling the
  /// Nth request (1-based). 0 disables. Exercises the coordinator's
  /// crash-detection + requeue path deterministically.
  size_t CrashAtRequest = 0;
};

/// Runs the worker loop: reads frames from \p InFd, writes frames to
/// \p OutFd (the two may be the same fd for a socketpair). Returns the
/// process exit code: 0 on clean Shutdown or EOF, nonzero on protocol
/// error. Never throws.
int runWorker(int InFd, int OutFd, const WorkerConfig &Config);

} // namespace dist
} // namespace sbd

#endif // SBD_DIST_WORKER_H
