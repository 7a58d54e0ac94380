//===- support/ShardRegistry.cpp - Per-thread shard registry (sbd::obs) -----===//

#include "support/ShardRegistry.h"

#include "support/Histogram.h"
#include "support/Metrics.h"

#include <algorithm>

using namespace sbd::obs;

template <class ShardT> ShardRegistry<ShardT> &ShardRegistry<ShardT>::global() {
  static ShardRegistry *R = new ShardRegistry();
  return *R;
}

/// Owns a thread's shard: listed as live from the thread's first write,
/// folded into the retired sum when the thread exits.
template <class ShardT> struct ShardRegistry<ShardT>::Holder {
  ShardT Shard;

  Holder() {
    ShardRegistry &R = global();
    std::lock_guard<std::mutex> Lock(R.Mu);
    R.Live.push_back(&Shard);
  }
  ~Holder() {
    Tls = &ExitSink;
    ShardRegistry &R = global();
    std::lock_guard<std::mutex> Lock(R.Mu);
    R.Retired += Shard;
    R.Live.erase(std::find(R.Live.begin(), R.Live.end(), &Shard));
  }
  Holder(const Holder &) = delete;
  Holder &operator=(const Holder &) = delete;
};

template <class ShardT> ShardT &ShardRegistry<ShardT>::registerThread() {
  thread_local Holder H;
  Tls = &H.Shard;
  return H.Shard;
}

/// Trivially destructible, so it outlives every other thread_local.
template <class ShardT>
constinit thread_local ShardT ShardRegistry<ShardT>::ExitSink{};

template <class ShardT> ShardT ShardRegistry<ShardT>::snapshot() {
  std::lock_guard<std::mutex> Lock(Mu);
  ShardT Out = Retired;
  for (const ShardT *S : Live)
    Out += *S;
  return Out;
}

template <class ShardT> void ShardRegistry<ShardT>::reset() {
  std::lock_guard<std::mutex> Lock(Mu);
  Retired.reset();
  for (ShardT *S : Live)
    S->reset();
}

template class sbd::obs::ShardRegistry<MetricShard>;
template class sbd::obs::ShardRegistry<HistShard>;
