//===- dist/Worker.cpp - Worker-process request loop ------------------------===//

#include "dist/Worker.h"

#include "cache/VerdictCache.h"
#include "dist/Protocol.h"
#include "portfolio/SolverStack.h"

#include <cerrno>
#include <memory>
#include <unistd.h>

using namespace sbd;
using namespace sbd::dist;

namespace {

/// Writes all of \p Buf to \p Fd, retrying on short writes and EINTR.
/// Returns false when the peer is gone (EPIPE etc.).
bool writeAll(int Fd, const std::vector<uint8_t> &Buf) {
  size_t Off = 0;
  while (Off < Buf.size()) {
    ssize_t N = ::write(Fd, Buf.data() + Off, Buf.size() - Off);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Off += static_cast<size_t>(N);
  }
  return true;
}

} // namespace

int dist::runWorker(int InFd, int OutFd, const WorkerConfig &Config) {
  // The worker's solver stack plus its shard of the verdict cache. The
  // cache outlives every recycled stack: canonical-print keys are
  // arena-portable, so warmth survives the fresh-arena-per-query rule.
  std::unique_ptr<cache::VerdictCache> Cache;
  if (Config.VerdictCacheCapacity)
    Cache = std::make_unique<cache::VerdictCache>(
        cache::VerdictCache::Config{Config.VerdictCacheCapacity});
  auto freshStack = [&] {
    auto W = std::make_unique<portfolio::SolverStack>();
    W->P.setVerdictCache(Cache.get());
    return W;
  };
  std::unique_ptr<portfolio::SolverStack> W = freshStack();
  bool Dirty = false;
  size_t Handled = 0;

  std::vector<uint8_t> Out;
  encodeReady(Out);
  if (!writeAll(OutFd, Out))
    return 1;

  FrameReader Reader;
  Frame F;
  uint8_t Chunk[1 << 16];
  for (;;) {
    while (Reader.next(F)) {
      switch (F.Type) {
      case FrameType::Shutdown:
        // Graceful drain: the coordinator only sends this once every
        // dispatched request has been answered.
        return 0;
      case FrameType::Request: {
        std::optional<WireRequest> Req = decodeRequest(F.Payload);
        if (!Req)
          return 2; // malformed request: the stream is unusable
        ++Handled;
        if (Config.CrashAtRequest && Handled == Config.CrashAtRequest)
          _exit(137); // test hook: die as if SIGKILLed, mid-request
        bool Recycle = Dirty && (!Config.ReuseArenas ||
                                 (Config.ArenaNodeBudget &&
                                  W->M.numNodes() > Config.ArenaNodeBudget));
        if (Recycle)
          W = freshStack();
        BatchQuery Q;
        Q.Pattern = Req->Pattern;
        Q.Opts = Req->Opts;
        WireResponse Resp;
        Resp.Id = Req->Id;
        Resp.Result = portfolio::solveOnStack(*W, Q);
        Dirty = true;
        Out.clear();
        encodeResponse(Out, Resp);
        if (!writeAll(OutFd, Out))
          return 1;
        break;
      }
      case FrameType::Ready:
      case FrameType::Response:
        return 2; // coordinator never sends these
      }
    }
    if (Reader.error())
      return 2;
    ssize_t N = ::read(InFd, Chunk, sizeof(Chunk));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return 1;
    }
    if (N == 0)
      return Reader.idle() ? 0 : 2; // EOF mid-frame is a protocol error
    Reader.feed(Chunk, static_cast<size_t>(N));
  }
}
