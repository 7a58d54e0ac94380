//===- support/Histogram.cpp - Log2-bucketed histogram registry (sbd::obs) --===//

#include "support/Histogram.h"

using namespace sbd;
using namespace sbd::obs;

uint64_t sbd::obs::histPercentile(const HistShard::Data &D, unsigned Pct) {
  if (D.Count == 0)
    return 0;
  // ceil(Pct/100 * Count), computed in integers so every reader agrees.
  uint64_t Target = (D.Count * Pct + 99) / 100;
  if (Target == 0)
    Target = 1;
  uint64_t Seen = 0;
  for (uint32_t B = 0; B != NumHistBuckets; ++B) {
    Seen += D.Buckets[B];
    if (Seen >= Target) {
      // Tighten the top bucket's bound to the observed maximum so p99 of a
      // narrow distribution never reads as a power-of-two overshoot.
      uint64_t Upper = histBucketUpperBound(B);
      return Upper < D.Max ? Upper : D.Max;
    }
  }
  return D.Max;
}

std::string HistShard::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != NumHistograms; ++I) {
    const Data &D = H[I];
    if (I)
      Out += ", ";
    Out += '"';
    Out += histName(static_cast<Hist>(I));
    Out += "\": {\"count\": ";
    Out += std::to_string(D.Count);
    Out += ", \"sum\": ";
    Out += std::to_string(D.Sum);
    Out += ", \"min\": ";
    Out += std::to_string(D.Count ? D.Min : 0);
    Out += ", \"max\": ";
    Out += std::to_string(D.Max);
    Out += ", \"p50\": ";
    Out += std::to_string(histPercentile(D, 50));
    Out += ", \"p90\": ";
    Out += std::to_string(histPercentile(D, 90));
    Out += ", \"p99\": ";
    Out += std::to_string(histPercentile(D, 99));
    Out += ", \"buckets\": [";
    bool First = true;
    for (uint32_t B = 0; B != NumHistBuckets; ++B) {
      if (!D.Buckets[B])
        continue;
      if (!First)
        Out += ", ";
      First = false;
      Out += '[';
      Out += std::to_string(histBucketUpperBound(B));
      Out += ", ";
      Out += std::to_string(D.Buckets[B]);
      Out += ']';
    }
    Out += "]}";
  }
  Out += '}';
  return Out;
}
