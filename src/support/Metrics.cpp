//===- support/Metrics.cpp - Unified counter registry (sbd::obs) ------------===//

#include "support/Metrics.h"

using namespace sbd;
using namespace sbd::obs;

std::string MetricShard::json() const {
  std::string Out = "{";
  for (size_t I = 0; I != NumCounters; ++I) {
    if (I)
      Out += ", ";
    Out += '"';
    Out += counterName(static_cast<Counter>(I));
    Out += "\": ";
    Out += std::to_string(C[I]);
  }
  Out += '}';
  return Out;
}
