//===- portfolio/SlowQueryLog.cpp - Slow-query record filter (sbd::obs) -----===//

#include "portfolio/SlowQueryLog.h"

#include "re/SmtPrinter.h"
#include "support/Unicode.h"

#include <cstdio>
#include <optional>

using namespace sbd;
using namespace sbd::obs;

namespace {

/// Appends `"Key": "Value"` with Value escaped.
void appendField(std::string &Out, const char *Key, const std::string &Value) {
  Out += '"';
  Out += Key;
  Out += "\": ";
  appendJsonString(Out, Value);
}

} // namespace

std::string sbd::obs::slowQueryRecord(const RegexManager &M, Re R,
                                      const SolveOptions &Opts,
                                      const SolveResult &Out,
                                      const analysis::RegexFeatures &Feat) {
  std::optional<bool> Expected;
  if (Out.isSat())
    Expected = true;
  else if (Out.isUnsat())
    Expected = false;
  std::string Line = "{";
  appendField(Line, "pattern", regexToSmtTerm(M, R));
  Line += ", ";
  appendField(Line, "script", regexToSmtScript(M, R, Expected));
  Line += ", ";
  appendField(Line, "strategy",
              Opts.Strategy == SearchStrategy::Dfs ? "dfs" : "bfs");
  Line += ", \"timeout_ms\": " + std::to_string(Opts.TimeoutMs);
  Line += ", \"max_states\": " + std::to_string(Opts.MaxStates);
  Line += ", ";
  appendField(Line, "status", statusName(Out.Status));
  Line += ", ";
  appendField(Line, "stop_reason", stopReasonName(Out.Stop));
  Line += ", \"total_us\": " + std::to_string(Out.Stats.TotalUs);
  Line += ", \"states\": " + std::to_string(Out.StatesExplored);
  Line += ", \"stats\": ";
  Line += Out.Stats.json();
  Line += ", \"features\": ";
  Line += Feat.json();
  Line += '}';
  return Line;
}

SlowQueryLog &SlowQueryLog::global() {
  // Leaked like the metric registries: solver threads may outlive main().
  static SlowQueryLog *L = new SlowQueryLog();
  return *L;
}

void SlowQueryLog::configure(const SlowQueryOptions &O) {
  std::lock_guard<std::mutex> Lock(Mu);
  Path = O.Path;
  ThresholdUs.store(O.Path.empty() ? -1 : O.LatencyThresholdUs,
                    std::memory_order_relaxed);
}

// Capture only happens for answers already past the threshold, so holding
// the lock across the file write costs nothing on a hot path.
void SlowQueryLog::append(const std::string &Record) {
  std::lock_guard<std::mutex> Lock(Mu);
  if (Path.empty())
    return;
  if (std::FILE *F = std::fopen(Path.c_str(), "a")) {
    std::fwrite(Record.data(), 1, Record.size(), F);
    std::fputc('\n', F);
    std::fclose(F);
    SBD_OBS_INC(SlowQueriesCaptured);
  }
}
