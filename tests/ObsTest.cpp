//===- tests/ObsTest.cpp - Observability layer tests ------------------------===//
///
/// \file
/// The guarantees of the sbd::obs subsystem (support/Metrics.h,
/// support/Histogram.h, portfolio/SlowQueryLog.h):
///   - the counter registry merges per-thread shards correctly, including
///     shards of threads that have already exited;
///   - histograms merge to the same buckets whatever the thread count;
///   - the exported documents (stats JSON, slow-query records) are valid
///     JSON with the advertised structure — validated with the in-tree
///     parser — and the slow-query log sees every engine's answers.
///
//===----------------------------------------------------------------------===//

#include "support/Histogram.h"
#include "support/Metrics.h"

#include "cache/VerdictCache.h"
#include "policy/Json.h"
#include "portfolio/SlowQueryLog.h"
#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"
#include "solver/RegexSolver.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

using namespace sbd;

namespace {

/// Solves one pattern on a fresh solver stack.
SolveResult solvePattern(const std::string &Pattern) {
  RegexManager M;
  TrManager T(M);
  DerivativeEngine E(M, T);
  RegexSolver S(E);
  return S.checkSat(parseRegexOrDie(M, Pattern));
}

TEST(MetricsTest, CounterNamesAreUniqueAndStable) {
  std::set<std::string> Names;
  for (size_t I = 0; I != obs::NumCounters; ++I) {
    std::string Name = obs::counterName(static_cast<obs::Counter>(I));
    EXPECT_NE(Name, "?");
    EXPECT_TRUE(Names.insert(Name).second) << "duplicate name " << Name;
  }
}

TEST(MetricsTest, ShardArithmetic) {
  obs::MetricShard A, B;
  A.add(obs::Counter::DerivativeCalls, 5);
  A.add(obs::Counter::MemoHits, 2);
  B.add(obs::Counter::DerivativeCalls, 3);
  B += A;
  EXPECT_EQ(B.get(obs::Counter::DerivativeCalls), 8u);
  EXPECT_EQ(B.get(obs::Counter::MemoHits), 2u);
  obs::MetricShard D = B.since(A);
  EXPECT_EQ(D.get(obs::Counter::DerivativeCalls), 3u);
  EXPECT_EQ(D.get(obs::Counter::MemoHits), 0u);
  B.reset();
  EXPECT_EQ(B.get(obs::Counter::DerivativeCalls), 0u);
}

TEST(MetricsTest, ShardJsonParses) {
  obs::MetricShard S;
  S.add(obs::Counter::DnfCalls, 7);
  JsonParseResult R = parseJson(S.json());
  ASSERT_TRUE(R.Ok) << R.Error;
  const JsonValue *V = R.Value.get("dnf_calls");
  ASSERT_NE(V, nullptr);
  EXPECT_EQ(V->asNumber(), 7.0);
  // Every counter must appear under its registered name.
  for (size_t I = 0; I != obs::NumCounters; ++I)
    EXPECT_NE(R.Value.get(obs::counterName(static_cast<obs::Counter>(I))),
              nullptr);
}

TEST(MetricsTest, SolveStatsJsonParses) {
  SolveStats St;
  St.DerivativeCalls = 11;
  St.DeriveUs = 42;
  JsonParseResult R = parseJson(St.json());
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Value.get("derivative_calls")->asNumber(), 11.0);
  EXPECT_EQ(R.Value.get("derive_us")->asNumber(), 42.0);
  for (const char *Key :
       {"engine", "dnf_calls", "memo_hits", "arena_nodes", "peak_frontier",
        "parse_us", "minterm_us", "dnf_us", "scan_us", "search_us",
        "total_us"})
    EXPECT_NE(R.Value.get(Key), nullptr) << Key;
  EXPECT_EQ(R.Value.get("engine")->asString(), "deriv_bfs");
}

TEST(MetricsTest, SolveStatsJsonGolden) {
  // Every field distinct, so a key printing the wrong field (or a field
  // dropped, duplicated or reordered) changes the bytes.
  SolveStats St;
  St.Engine = SolveEngine::Antimirov;
  St.DerivativeCalls = 1;
  St.DnfCalls = 2;
  St.BrzozowskiCalls = 3;
  St.DnfBranchesExplored = 4;
  St.DnfBranchesPruned = 5;
  St.ArcsEnumerated = 6;
  St.MintermComputations = 7;
  St.MintermsProduced = 8;
  St.InternHits = 9;
  St.InternMisses = 10;
  St.MemoHits = 11;
  St.MemoMisses = 12;
  St.ArenaNodes = 13;
  St.PeakFrontier = 14;
  St.SolverSteps = 15;
  St.TimeoutChecks = 16;
  St.ParseUs = 17;
  St.MintermUs = 18;
  St.DeriveUs = 19;
  St.DnfUs = 20;
  St.ScanUs = 22;
  St.SearchUs = 23;
  St.TotalUs = 24;
  St.PredictedClass = "kleene_only";
  St.RiskScore = 25;
  St.PredictedStates = 26;
  St.AnalysisUs = 27;
  St.AnalysisNodesVisited = 28;
  St.AnalysisCacheHits = 29;
  EXPECT_EQ(St.json(),
            "{\"engine\": \"antimirov\", \"derivative_calls\": 1, "
            "\"dnf_calls\": 2, \"brzozowski_calls\": 3, "
            "\"dnf_branches_explored\": 4, \"dnf_branches_pruned\": 5, "
            "\"arcs_enumerated\": 6, \"minterm_computations\": 7, "
            "\"minterms_produced\": 8, \"intern_hits\": 9, "
            "\"intern_misses\": 10, \"memo_hits\": 11, \"memo_misses\": 12, "
            "\"arena_nodes\": 13, \"peak_frontier\": 14, "
            "\"solver_steps\": 15, \"timeout_checks\": 16, "
            "\"parse_us\": 17, \"minterm_us\": 18, \"derive_us\": 19, "
            "\"dnf_us\": 20, \"scan_us\": 22, "
            "\"search_us\": 23, \"total_us\": 24, "
            "\"predicted_class\": \"kleene_only\", \"risk_score\": 25, "
            "\"predicted_states\": 26, \"analysis_us\": 27, "
            "\"analysis_nodes_visited\": 28, \"analysis_cache_hits\": 29}");

  // operator+= sums every counter and timer, max-merges PeakFrontier, and
  // keeps the first engine and the first non-empty prediction.
  SolveStats Sum = St;
  SolveStats Other = St;
  Other.Engine = SolveEngine::Eager;
  Other.PeakFrontier = 3;
  Other.PredictedClass = "literal";
  Sum += Other;
  EXPECT_EQ(Sum.Engine, SolveEngine::Antimirov);
  EXPECT_EQ(Sum.DerivativeCalls, 2u);
  EXPECT_EQ(Sum.TimeoutChecks, 32u);
  EXPECT_EQ(Sum.TotalUs, 48);
  EXPECT_EQ(Sum.AnalysisCacheHits, 58u);
  EXPECT_EQ(Sum.PeakFrontier, 14u);
  EXPECT_STREQ(Sum.PredictedClass, "kleene_only");
  EXPECT_EQ(Sum.RiskScore, 25u);
  EXPECT_EQ(Sum.PredictedStates, 26u);
  SolveStats Unpredicted;
  Unpredicted += Other;
  EXPECT_STREQ(Unpredicted.PredictedClass, "literal");
  EXPECT_EQ(Unpredicted.RiskScore, 25u);
  EXPECT_EQ(Unpredicted.PredictedStates, 26u);
  EXPECT_EQ(Unpredicted.PeakFrontier, 3u);
}

#if SBD_OBS

TEST(MetricsTest, RegistrySeesSolverWork) {
  obs::MetricsRegistry::global().reset();
  SolveResult R = solvePattern("(ab)+&(ba)+");
  EXPECT_TRUE(R.isUnsat());
  obs::MetricShard Snap = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(Snap.get(obs::Counter::DerivativeCalls), 0u);
  EXPECT_GT(Snap.get(obs::Counter::DnfCalls), 0u);
  EXPECT_EQ(Snap.get(obs::Counter::QueriesSolved), 1u);
  // The per-query stats and the registry must agree on this single query.
  EXPECT_EQ(Snap.get(obs::Counter::DerivativeCalls), R.Stats.DerivativeCalls);
  EXPECT_EQ(Snap.get(obs::Counter::SolverSteps), R.Stats.SolverSteps);
  obs::MetricsRegistry::global().reset();
  EXPECT_EQ(obs::MetricsRegistry::global()
                .snapshot()
                .get(obs::Counter::DerivativeCalls),
            0u);
}

TEST(MetricsTest, ExitedThreadShardsFoldIntoSnapshot) {
  obs::MetricsRegistry::global().reset();
  std::thread Worker([] { obs::tlsShard().add(obs::Counter::Lookups, 123); });
  Worker.join();
  EXPECT_EQ(
      obs::MetricsRegistry::global().snapshot().get(obs::Counter::Lookups),
      123u);
}

#endif // SBD_OBS

TEST(HistogramTest, BucketRuleIsPureIntegerArithmetic) {
  // Bucket 0 holds value 0; bucket b >= 1 holds [2^(b-1), 2^b).
  EXPECT_EQ(obs::histBucket(0), 0u);
  EXPECT_EQ(obs::histBucket(1), 1u);
  EXPECT_EQ(obs::histBucket(2), 2u);
  EXPECT_EQ(obs::histBucket(3), 2u);
  EXPECT_EQ(obs::histBucket(4), 3u);
  EXPECT_EQ(obs::histBucket(1023), 10u);
  EXPECT_EQ(obs::histBucket(1024), 11u);
  EXPECT_EQ(obs::histBucket(UINT64_MAX), obs::NumHistBuckets - 1);
  EXPECT_EQ(obs::histBucketUpperBound(0), 0u);
  EXPECT_EQ(obs::histBucketUpperBound(1), 1u);
  EXPECT_EQ(obs::histBucketUpperBound(2), 3u);
  EXPECT_EQ(obs::histBucketUpperBound(11), 2047u);
  EXPECT_EQ(obs::histBucketUpperBound(63), UINT64_MAX);
}

TEST(HistogramTest, RecordingAndPercentilesAreDeterministic) {
  obs::HistShard::Data D;
  for (uint64_t V : {0, 1, 2, 3, 5, 9, 100, 100, 1000, 60000})
    D.record(V);
  EXPECT_EQ(D.Count, 10u);
  EXPECT_EQ(D.Sum, 61220u);
  EXPECT_EQ(D.Min, 0u);
  EXPECT_EQ(D.Max, 60000u);
  EXPECT_EQ(D.Buckets[0], 1u); // 0
  EXPECT_EQ(D.Buckets[1], 1u); // 1
  EXPECT_EQ(D.Buckets[2], 2u); // 2, 3
  EXPECT_EQ(D.Buckets[3], 1u); // 5
  EXPECT_EQ(D.Buckets[4], 1u); // 9
  EXPECT_EQ(D.Buckets[7], 2u); // 100 x2
  EXPECT_EQ(D.Buckets[10], 1u); // 1000
  EXPECT_EQ(D.Buckets[16], 1u); // 60000
  // Percentile = upper bound of the bucket holding the ceil(q*N)-th sample,
  // tightened to the observed Max: p50 -> 5th sample (value 5, bucket 3,
  // ub 7); p90 -> 9th sample (1000, bucket 10, ub 1023); p99 -> 10th
  // sample's bucket ub 65535 tightens to Max 60000.
  EXPECT_EQ(obs::histPercentile(D, 50), 7u);
  EXPECT_EQ(obs::histPercentile(D, 90), 1023u);
  EXPECT_EQ(obs::histPercentile(D, 99), 60000u);
  EXPECT_EQ(obs::histPercentile(obs::HistShard::Data(), 50), 0u);
}

TEST(HistogramTest, ShardJsonParses) {
  obs::HistShard S;
  S.record(obs::Hist::SolveLatencyUs, 7);
  S.record(obs::Hist::SolveLatencyUs, 130);
  JsonParseResult R = parseJson(S.json());
  ASSERT_TRUE(R.Ok) << R.Error;
  for (size_t I = 0; I != obs::NumHistograms; ++I)
    ASSERT_NE(R.Value.get(obs::histName(static_cast<obs::Hist>(I))), nullptr);
  const JsonValue *Lat = R.Value.get("solve_latency_us");
  EXPECT_EQ(Lat->get("count")->asNumber(), 2.0);
  EXPECT_EQ(Lat->get("sum")->asNumber(), 137.0);
  EXPECT_EQ(Lat->get("min")->asNumber(), 7.0);
  EXPECT_EQ(Lat->get("max")->asNumber(), 130.0);
  for (const char *Key : {"p50", "p90", "p99", "buckets"})
    EXPECT_NE(Lat->get(Key), nullptr) << Key;
  ASSERT_TRUE(Lat->get("buckets")->isArray());
  EXPECT_EQ(Lat->get("buckets")->asArray().size(), 2u); // sparse: two buckets
}

#if SBD_OBS

TEST(HistogramTest, MergeIsIndependentOfThreadCount) {
  // The same fixed workload recorded on one thread and sliced over eight
  // must merge to bit-identical distributions.
  std::vector<uint64_t> Work;
  for (uint64_t I = 0; I != 4096; ++I)
    Work.push_back((I * 2654435761u) % 100000);

  obs::HistShard Single;
  for (uint64_t V : Work)
    Single.record(obs::Hist::SolveLatencyUs, V);

  obs::HistogramRegistry::global().reset();
  std::vector<std::thread> Workers;
  for (size_t W = 0; W != 8; ++W)
    Workers.emplace_back([W, &Work] {
      for (size_t I = W; I < Work.size(); I += 8)
        obs::tlsHistShard().record(obs::Hist::SolveLatencyUs, Work[I]);
    });
  for (std::thread &Th : Workers)
    Th.join();
  obs::HistShard Merged = obs::HistogramRegistry::global().snapshot();

  const obs::HistShard::Data &A = Single.data(obs::Hist::SolveLatencyUs);
  const obs::HistShard::Data &B = Merged.data(obs::Hist::SolveLatencyUs);
  EXPECT_EQ(A.Count, B.Count);
  EXPECT_EQ(A.Sum, B.Sum);
  EXPECT_EQ(A.Min, B.Min);
  EXPECT_EQ(A.Max, B.Max);
  for (size_t I = 0; I != obs::NumHistBuckets; ++I)
    EXPECT_EQ(A.Buckets[I], B.Buckets[I]) << "bucket " << I;
  EXPECT_EQ(Single.json(), Merged.json());
  obs::HistogramRegistry::global().reset();
}

TEST(HistogramTest, SolverRecordsLatencyAndSizeDistributions) {
  obs::HistogramRegistry::global().reset();
  (void)solvePattern("(.*\\d.*)&(.*[a-z].*)&.{4,12}");
  obs::HistShard Snap = obs::HistogramRegistry::global().snapshot();
  EXPECT_EQ(Snap.count(obs::Hist::SolveLatencyUs), 1u);
  EXPECT_EQ(Snap.count(obs::Hist::SolveArenaNodes), 1u);
  EXPECT_GT(Snap.count(obs::Hist::DnfExpansionArcs), 0u);
  EXPECT_GT(Snap.data(obs::Hist::SolveArenaNodes).Max, 0u);
  obs::HistogramRegistry::global().reset();
}

#else // !SBD_OBS

TEST(HistogramTest, RecordingCompiledOutUnderObsOff) {
  obs::HistogramRegistry::global().reset();
  SBD_OBS_HIST(SolveLatencyUs, 42); // must be a no-op
  (void)solvePattern("(ab)+&(ba)+");
  obs::HistShard Snap = obs::HistogramRegistry::global().snapshot();
  for (size_t I = 0; I != obs::NumHistograms; ++I)
    EXPECT_EQ(Snap.count(static_cast<obs::Hist>(I)), 0u);
}

#endif // SBD_OBS

#if SBD_OBS

/// Arms the slow-query log at \p ThresholdUs on a fresh JSONL file for the
/// test's lifetime; the destructor disarms it and removes the file.
class SlowLogFile {
public:
  explicit SlowLogFile(const char *Name, int64_t ThresholdUs = 0)
      : Path(::testing::TempDir() + Name) {
    std::remove(Path.c_str());
    obs::SlowQueryLog::global().configure({ThresholdUs, Path});
  }
  ~SlowLogFile() {
    obs::SlowQueryLog::global().configure(obs::SlowQueryOptions());
    std::remove(Path.c_str());
  }

  /// Every line of the file, each parsed as JSON (failures included).
  std::vector<JsonParseResult> records() const {
    std::vector<JsonParseResult> Out;
    std::ifstream In(Path);
    std::string Line;
    while (std::getline(In, Line))
      Out.push_back(parseJson(Line));
    return Out;
  }

  const std::string Path;
};

TEST(SlowQueryLogTest, CapturesReplayableArtifactPastThreshold) {
  SolveResult R;
  std::vector<JsonParseResult> Got;
  {
    SlowLogFile Log("slow_capture.jsonl");
    portfolio::SolverStack W;
    R = W.P.checkSat(parseRegexOrDie(W.M, "(.*\\d.*)&(.*[a-z].*)&.{4,12}"));
    Got = Log.records();
  }
  EXPECT_TRUE(R.isSat());
  ASSERT_EQ(Got.size(), 1u);
  ASSERT_TRUE(Got[0].Ok) << Got[0].Error;
  const JsonValue &A = Got[0].Value;
  // The record carries the full sbd-explain schema.
  for (const char *Key :
       {"pattern", "script", "strategy", "timeout_ms", "max_states", "status",
        "stop_reason", "total_us", "states", "stats", "features"})
    EXPECT_NE(A.get(Key), nullptr) << Key;
  EXPECT_NE(A.get("pattern")->asString().find("re.inter"), std::string::npos);
  EXPECT_NE(A.get("script")->asString().find("(check-sat)"),
            std::string::npos);
  EXPECT_EQ(A.get("status")->asString(), "sat");
  EXPECT_EQ(A.get("strategy")->asString(), "bfs");
  EXPECT_EQ(A.get("states")->asNumber(),
            static_cast<double>(R.StatesExplored));
  ASSERT_TRUE(A.get("stats")->isObject());
  EXPECT_EQ(A.get("stats")->get("engine")->asString(), "deriv_bfs");
  EXPECT_EQ(A.get("stats")->get("solver_steps")->asNumber(),
            static_cast<double>(R.Stats.SolverSteps));
  ASSERT_TRUE(A.get("features")->isObject());
  EXPECT_EQ(A.get("features")->get("class")->asString(), "boolean_heavy");
}

TEST(SlowQueryLogTest, ThresholdFiltersAnswers) {
  SlowLogFile Log("slow_threshold.jsonl", /*ThresholdUs=*/int64_t(1) << 40);
  portfolio::SolverStack W;
  EXPECT_TRUE(W.P.checkSat(parseRegexOrDie(W.M, "a{3}b*")).isSat());
  EXPECT_TRUE(Log.records().empty());
}

TEST(SlowQueryLogTest, CapturesAntimirovRoutedAnswer) {
  // Only the portfolio exit sees this answer: the derivative solver never
  // runs for a pattern the router sends to Antimirov.
  SlowLogFile Log("slow_antimirov.jsonl");
  portfolio::SolverStack W;
  SolveResult R = W.P.checkSat(parseRegexOrDie(W.M, "(ab)*c"));
  ASSERT_EQ(R.Stats.Engine, SolveEngine::Antimirov);
  std::vector<JsonParseResult> Got = Log.records();
  ASSERT_EQ(Got.size(), 1u);
  ASSERT_TRUE(Got[0].Ok) << Got[0].Error;
  EXPECT_EQ(Got[0].Value.get("stats")->get("engine")->asString(),
            "antimirov");
  EXPECT_EQ(Got[0].Value.get("status")->asString(), "sat");
}

TEST(SlowQueryLogTest, CapturesVerdictCacheHit) {
  cache::VerdictCache Cache;
  portfolio::SolverStack W;
  W.P.setVerdictCache(&Cache);
  Re R = parseRegexOrDie(W.M, "(.*\\d.*)&(.*[a-z].*)&.{4,12}");
  ASSERT_TRUE(W.P.checkSat(R).isSat());
  SlowLogFile Log("slow_cache.jsonl");
  SolveResult Hit = W.P.checkSat(R);
  ASSERT_EQ(Hit.Stats.Engine, SolveEngine::VerdictCache);
  std::vector<JsonParseResult> Got = Log.records();
  ASSERT_EQ(Got.size(), 1u);
  ASSERT_TRUE(Got[0].Ok) << Got[0].Error;
  EXPECT_EQ(Got[0].Value.get("stats")->get("engine")->asString(),
            "verdict_cache");
  EXPECT_EQ(Got[0].Value.get("status")->asString(), "sat");
}

TEST(SlowQueryLogTest, ConcurrentLongRecordsStayWhole) {
  // Records past stdio's buffer size (a few KiB) are written in more than
  // one write(2); four threads appending at once must still leave every
  // line a whole record.
  std::vector<BatchQuery> Queries;
  for (size_t I = 0; I != 64; ++I)
    Queries.push_back({std::string(9000 + I, 'a' + I % 26) + "b*", {}});
  SlowLogFile Log("slow_concurrent.jsonl");
  BatchSolver Batch(BatchOptions{4});
  std::vector<BatchResult> Results = Batch.solveAll(Queries);
  for (const BatchResult &R : Results)
    ASSERT_TRUE(R.Result.isSat()) << R.Result.Note;
  std::vector<JsonParseResult> Got = Log.records();
  ASSERT_EQ(Got.size(), Queries.size());
  for (const JsonParseResult &P : Got) {
    ASSERT_TRUE(P.Ok) << P.Error;
    EXPECT_GT(P.Value.get("script")->asString().size(), 8192u);
  }
}

#endif // SBD_OBS

} // namespace
