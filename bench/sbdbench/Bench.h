//===- bench/sbdbench/Bench.h - sbdbench shared types ---------------------===//
///
/// \file
/// Types shared by the sbdbench translation units: the generated queries,
/// the verdict stream a service path produces, the span recorder behind
/// the traced pass, and the entry points of each unit.
///
/// sbdbench drives four workloads through the public entry points of the
/// service path (`portfolio::solveOnStack`, `SmtSession` with a
/// `VerdictCache`, `dist::DistSolver`) and reports end-to-end metrics from
/// an untraced pass plus per-layer metrics from a separate traced pass over
/// the same queries. See README.md in this directory.
///
//===----------------------------------------------------------------------===//

#ifndef SBDBENCH_BENCH_H
#define SBDBENCH_BENCH_H

#include "solver/SolverResult.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace sbdbench {

/// Budget every workload solves under: what the service front ends
/// (`sbd-dist`, `sbd-server`) are run with, default BFS strategy.
inline sbd::SolveOptions serviceOptions() {
  sbd::SolveOptions O;
  O.TimeoutMs = 250;
  O.MaxStates = 200000;
  return O;
}

/// One generated query: a surface-syntax pattern plus its construction
/// label, when the generator knows it.
struct Query {
  std::string Pattern;
  std::optional<bool> Expected;
};

/// What a service path answered for one query. The traced pass must
/// reproduce the untraced pass's stream exactly.
struct Verdict {
  bool ParseOk = false;
  sbd::SolveStatus Status = sbd::SolveStatus::Unknown;
  std::vector<uint32_t> Witness;
  bool operator==(const Verdict &) const = default;
};

using MetricMap = std::map<std::string, double>;

/// The four workloads, in the order a plain `sbdbench` runs them.
enum class Workload { CorpusFresh, BooleanHard, SmtSession, DistBatch };

struct WorkloadSpec {
  Workload Id;
  const char *Name;
  /// Queries one second of timed work holds, measured on the reference
  /// host (4-core x86-64, gcc 12, Release). `--seconds S` times S times
  /// this many queries, so parent and change always solve the same inputs.
  double QueriesPerSecond;
};

const std::vector<WorkloadSpec> &workloadSpecs();
const WorkloadSpec *findWorkload(const std::string &Name);

/// Run configuration of one workload process.
struct RunConfig {
  uint64_t Seed = 2021;
  double Seconds = 15;
  bool Quick = false;   ///< ~1% size smoke tier
  std::string TraceDir; ///< non-empty: add the traced pass, write tables
};

/// Everything one workload run reports back to the parent sbdbench process.
struct RunResult {
  MetricMap EndToEnd; ///< untraced pass (plus setup and memory)
  MetricMap Info;     ///< printed, never gated (p999, max, ...)
  MetricMap Layers;   ///< traced pass (empty without --trace)
  MetricMap Counts;   ///< exact counts over the untraced pass
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Wrong = 0;
  uint64_t Unverified = 0;
  /// Broken benchmark invariants (verdict-stream or count mismatch between
  /// the passes). Any entry fails the run.
  std::vector<std::string> Errors;
};

//===----------------------------------------------------------------------===//
// Inputs.cpp — seeded query streams
//===----------------------------------------------------------------------===//

/// The Fig. 4 mix (Non-Boolean + Boolean + handwritten suites), generated at
/// the smallest scale that holds \p N queries, seed-shuffled, first N kept.
std::vector<Query> corpusStream(uint64_t Seed, size_t N);

/// The Boolean-heavy pool (handwritten families plus the determinization
/// and k-way contains shapes), repeated in seed-shuffled rounds: every
/// instance appears equally often, so the mix does not drift with the seed.
std::vector<Query> booleanHardStream(uint64_t Seed, size_t N);

//===----------------------------------------------------------------------===//
// Paths.cpp — the service paths, untraced and traced
//===----------------------------------------------------------------------===//

/// Flat span recorder for the traced pass: every span is a direct child of
/// one query (or of the pass, for `dist_batch`), so a layer's self time is
/// its spans' summed duration. Kept in memory, written at the end.
class Recorder {
public:
  using Clock = std::chrono::steady_clock;

  explicit Recorder(size_t MaxEventQueries) : MaxEvents(MaxEventQueries) {}

  int64_t now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                Epoch)
        .count();
  }

  /// Records one span of \p Layer (a string literal: layers are told apart
  /// by address) for query \p Query (~0u: the pass).
  void span(const char *Layer, uint32_t Query, int64_t Start, int64_t End);

  struct LayerTotal {
    const char *Name = nullptr;
    int64_t SelfNs = 0;
    uint64_t Spans = 0;
  };
  /// Per-layer totals, in first-seen order.
  const std::vector<LayerTotal> &totals() const { return Totals; }
  /// Summed self time of \p Layer (0 when it never ran).
  int64_t selfNs(const std::string &Layer) const;

  /// Chrome trace_event JSON of the spans of the first MaxEventQueries
  /// queries (and of every pass-level span).
  bool writeChromeTrace(const std::string &Path) const;

private:
  struct Event {
    const char *Layer;
    uint32_t Query;
    int64_t Start, End;
  };
  Clock::time_point Epoch = Clock::now();
  size_t MaxEvents;
  std::vector<Event> Events;
  std::vector<LayerTotal> Totals;
};

/// Output of one pass over a query stream.
struct PassResult {
  std::vector<Verdict> Verdicts;
  /// Per-query client call latency (ns). Empty for the traced pass.
  std::vector<int64_t> LatencyNs;
  int64_t WallNs = 0;  ///< timed wall clock of the whole pass
  MetricMap Counts;    ///< exact per-pass counts (see Paths.cpp)
  MetricMap Layer;     ///< layer metrics the pass derives (traced pass's used)
  /// Program-reported solve time summed over the pass (µs): the regex solve
  /// time behind the session's check-sats (smt_session), or the workers'
  /// `TimeUs` (dist_batch).
  int64_t ReportedSolveUs = 0;
};

/// A workload's generated inputs plus the service objects its passes use.
class Service {
public:
  virtual ~Service() = default;
  /// Builds one more set of service objects (session and cache, or worker
  /// processes). Each pass consumes one set, so nothing a pass warms
  /// reaches the next; sets are built up front because forking workers
  /// from the larger process a finished pass leaves behind slows them.
  virtual void prepare() = 0;
  /// Runs one pass over every query. \p Rec non-null: the traced pass.
  virtual PassResult run(Recorder *Rec) = 0;
  const std::vector<Query> &queries() const { return Queries; }

protected:
  std::vector<Query> Queries;
};

/// The set-up phase: generates the inputs for \p W (\p N queries from
/// \p Seed) and prepares the service objects of one pass.
std::unique_ptr<Service> makeService(Workload W, uint64_t Seed, size_t N);

//===----------------------------------------------------------------------===//
// Oracle.cpp — correctness checks, run after the timed phase
//===----------------------------------------------------------------------===//

struct OracleReport {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;     ///< not a correct Sat/Unsat (wrong ones included)
  uint64_t Wrong = 0;      ///< definite verdicts shown to be wrong
  uint64_t Unverified = 0; ///< unlabeled Unsat the reference could not decide
  std::vector<std::string> Examples; ///< first few failures, for the log
};

/// Checks every verdict against its label, every Sat witness on a separate
/// reference stack, and unlabeled Unsat verdicts with the Brzozowski
/// minterm solver (once per distinct pattern).
OracleReport checkVerdicts(const std::vector<Query> &Queries,
                           const std::vector<Verdict> &Verdicts);

//===----------------------------------------------------------------------===//
// Report.cpp — statistics, metric tables, output, compare
//===----------------------------------------------------------------------===//

struct MetricDef {
  const char *Name;
  const char *Unit;
  bool HigherIsBetter;
  double Bound; ///< regression bound as a share of the parent's median
};

/// The end-to-end metrics, in print order (mirrored by BENCHMARK.json).
const std::vector<MetricDef> &endToEndMetrics();
/// The per-layer metrics, in print order (mirrored by BENCHMARK.json).
const std::vector<MetricDef> &layerMetrics();

/// Nearest-rank percentile of an ascending-sorted sample, 0 < P <= 1.
int64_t percentile(const std::vector<int64_t> &Sorted, double P);

struct Quartiles {
  double Q1 = 0, Median = 0, Q3 = 0;
};
/// Quartiles as Python's statistics.quantiles(values, n=4) computes them.
Quartiles quartiles(std::vector<double> Values);

/// Serializes a RunResult over the workload-process pipe and back.
std::string encodeRun(const RunResult &R);
RunResult decodeRun(const std::string &Text);

/// Writes DIR/<workload>.layers.json.
bool writeLayerTable(const std::string &Path, const std::string &Workload,
                     const Recorder &Rec, const PassResult &Traced,
                     const MetricMap &Layers);

/// `--compare PARENT CHANGE`: each side is a comma-separated list of `--json`
/// run files. Returns 1 when a metric regressed beyond its bound.
int compareRuns(const std::string &ParentPath, const std::string &ChangePath);

/// Formats a double with every digit the JSON consumer needs.
std::string num(double V);

} // namespace sbdbench

#endif // SBDBENCH_BENCH_H
