//===- bench/sbdbench/Paths.cpp - The service paths under measurement -----===//
///
/// \file
/// One `Service` per path. The untraced pass calls the public entry point
/// exactly as a user does and times each call; the traced pass wraps the
/// calls into each layer's public functions in spans of the benchmark's own
/// `Recorder` (never `obs::Tracer`, so nothing inside `src/` can change it).
///
/// Counts are the calling thread's `obs` shard diffed over a pass, so they
/// cover exactly the pass's queries (every path here is single-threaded in
/// this process; `dist_batch`'s solving happens in worker processes and
/// contributes no solver counts).
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "cache/VerdictCache.h"
#include "dist/Coordinator.h"
#include "portfolio/SolverStack.h"
#include "re/RegexParser.h"
#include "re/SmtPrinter.h"
#include "smt/SmtSolver.h"
#include "support/Metrics.h"
#include "support/Unicode.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>

using namespace sbd;
using namespace sbdbench;

//===----------------------------------------------------------------------===//
// Recorder
//===----------------------------------------------------------------------===//

void Recorder::span(const char *Layer, uint32_t Query, int64_t Start,
                    int64_t End) {
  auto It = std::find_if(Totals.begin(), Totals.end(),
                         [&](const LayerTotal &T) { return T.Name == Layer; });
  if (It == Totals.end())
    It = std::find_if(Totals.begin(), Totals.end(), [&](const LayerTotal &T) {
      return std::strcmp(T.Name, Layer) == 0;
    });
  if (It == Totals.end())
    It = Totals.insert(Totals.end(), LayerTotal{Layer, 0, 0});
  It->SelfNs += End - Start;
  ++It->Spans;
  if (Query == ~0u || Query < MaxEvents)
    Events.push_back({Layer, Query, Start, End});
}

int64_t Recorder::selfNs(const std::string &Layer) const {
  for (const LayerTotal &T : Totals)
    if (Layer == T.Name)
      return T.SelfNs;
  return 0;
}

bool Recorder::writeChromeTrace(const std::string &Path) const {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << "{\"traceEvents\": [";
  char Buf[256];
  for (size_t I = 0; I != Events.size(); ++I) {
    const Event &E = Events[I];
    std::snprintf(Buf, sizeof(Buf),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"query\": %lld}}",
                  I ? "," : "", E.Layer, static_cast<double>(E.Start) / 1e3,
                  static_cast<double>(E.End - E.Start) / 1e3,
                  E.Query == ~0u ? -1LL : static_cast<long long>(E.Query));
    Out << Buf;
  }
  Out << "\n], \"displayTimeUnit\": \"ns\"}\n";
  return static_cast<bool>(Out);
}

namespace {

using Clock = std::chrono::steady_clock;

int64_t nsSince(Clock::time_point T) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - T)
      .count();
}

/// \p Num / \p Den, 0 when nothing was counted.
double share(uint64_t Num, uint64_t Den) {
  return Den ? static_cast<double>(Num) / static_cast<double>(Den) : 0.0;
}

/// Exact per-query counts from a shard diff over one pass of \p N queries.
/// \p ExtraAnalyzerProbes discounts analyze() calls the traced pass makes
/// itself (each is answered from the analyzer memo the solve then reuses,
/// so it adds exactly one memo hit per call on top of the untraced pass).
MetricMap countsFrom(const obs::MetricShard &D, size_t N,
                     uint64_t ExtraAnalyzerProbes) {
  using obs::Counter;
  auto per = [&](Counter C) { return share(D.get(C), N); };
  auto ratio = [&](Counter Hit, Counter Miss) {
    return share(D.get(Hit), D.get(Hit) + D.get(Miss));
  };
  MetricMap C;
  C["core.derivative_calls"] = per(Counter::DerivativeCalls);
  C["core.dnf_calls"] = per(Counter::DnfCalls);
  C["core.dnf_branches_explored"] = per(Counter::DnfBranchesExplored);
  C["core.dnf_branches_pruned"] = per(Counter::DnfBranchesPruned);
  C["core.arcs_enumerated"] = per(Counter::ArcsEnumerated);
  C["core.memo_hit_ratio"] = ratio(Counter::MemoHits, Counter::MemoMisses);
  C["core.intern_hit_ratio"] =
      ratio(Counter::InternHits, Counter::InternMisses);
  C["core.arena_nodes"] = per(Counter::InternMisses);
  C["core.dfa_states_built"] = per(Counter::DfaStatesBuilt);
  C["solver.steps"] = per(Counter::SolverSteps);
  C["solver.dense_row_hits"] = per(Counter::DenseRowHits);
  C["analysis.nodes_visited"] = per(Counter::AnalysisNodesVisited);
  C["analysis.cache_hits"] =
      share(D.get(Counter::AnalysisCacheHits) - ExtraAnalyzerProbes, N);
  C["charset.minterm_computations"] = per(Counter::MintermComputations);
  C["charset.alphabet_minterms"] = per(Counter::AlphabetMinterms);
  C["compile.promotions"] = per(Counter::CompiledPromotions);
  C["compile.chars_scanned"] = per(Counter::CompiledCharsScanned);
  return C;
}

std::vector<BatchQuery> batchOf(const std::vector<Query> &Qs) {
  std::vector<BatchQuery> Out;
  Out.reserve(Qs.size());
  for (const Query &Q : Qs)
    Out.push_back({Q.Pattern, serviceOptions()});
  return Out;
}

//===----------------------------------------------------------------------===//
// corpus_fresh / boolean_hard: solveOnStack on a fresh SolverStack per query
//===----------------------------------------------------------------------===//

class FreshService : public Service {
public:
  explicit FreshService(std::vector<Query> Qs) {
    Queries = std::move(Qs);
    Batch = batchOf(Queries);
  }

  void prepare() override {}

  PassResult run(Recorder *Rec) override {
    return Rec ? traced(*Rec) : untraced();
  }

private:
  std::vector<BatchQuery> Batch;

  /// The BatchSolver / dist-worker default: build a stack, solve, tear the
  /// stack down. The latency sample covers all three.
  PassResult untraced() {
    const size_t N = Batch.size();
    PassResult Out;
    Out.Verdicts.resize(N);
    Out.LatencyNs.resize(N);
    uint64_t PeakFrontier = 0, ParseErrors = 0;
    const obs::MetricShard Before = obs::tlsShard();
    const Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != N; ++I) {
      const Clock::time_point T0 = Clock::now();
      BatchResult R;
      {
        auto W = std::make_unique<portfolio::SolverStack>();
        R = portfolio::solveOnStack(*W, Batch[I], /*LongLived=*/false);
      }
      Out.LatencyNs[I] = nsSince(T0);
      PeakFrontier = std::max(PeakFrontier, R.Result.Stats.PeakFrontier);
      ParseErrors += R.ParseOk ? 0 : 1;
      Out.Verdicts[I] = {R.ParseOk, R.Result.Status,
                         std::move(R.Result.Witness)};
    }
    Out.WallNs = nsSince(Start);
    Out.Counts = countsFrom(obs::tlsShard().since(Before), N, 0);
    Out.Counts["solver.peak_frontier"] = static_cast<double>(PeakFrontier);
    Out.Counts["re.parse_errors"] = static_cast<double>(ParseErrors);
    return Out;
  }

  /// solveOnStack's steps performed one by one, each inside a span:
  /// build, parse, analyze+route, checkSat, witness revalidation, teardown.
  PassResult traced(Recorder &Rec) {
    const size_t N = Batch.size();
    PassResult Out;
    Out.Verdicts.resize(N);
    uint64_t PeakFrontier = 0, ParseErrors = 0, Probes = 0, Routed = 0,
             Answered = 0;
    const obs::MetricShard Before = obs::tlsShard();
    const Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != N; ++I) {
      const BatchQuery &Q = Batch[I];
      const uint32_t Id = static_cast<uint32_t>(I);
      int64_t T0 = Rec.now();
      auto W = std::make_unique<portfolio::SolverStack>();
      int64_t T1 = Rec.now();
      Rec.span("portfolio.stack_build", Id, T0, T1);
      RegexParseResult Parsed = parseRegex(W->M, Q.Pattern);
      T0 = Rec.now();
      Rec.span("re.parse", Id, T1, T0);
      Verdict &V = Out.Verdicts[I];
      if (!Parsed.Ok) {
        V.Status = SolveStatus::Unsupported;
        ++ParseErrors;
      } else {
        V.ParseOk = true;
        const analysis::RegexFeatures &F =
            W->S.analyzer().analyze(Parsed.Value);
        const bool ToAntimirov =
            portfolio::planRoute(F, Q.Opts).Engine == SolveEngine::Antimirov;
        T1 = Rec.now();
        Rec.span("analysis.analyze", Id, T0, T1);
        ++Probes;
        Routed += ToAntimirov ? 1 : 0;
        SolveResult R = W->P.checkSat(Parsed.Value, Q.Opts);
        T0 = Rec.now();
        Rec.span("portfolio.check_sat", Id, T1, T0);
        Answered += R.Stats.Engine == SolveEngine::Antimirov ? 1 : 0;
        PeakFrontier = std::max(PeakFrontier, R.Stats.PeakFrontier);
        if (R.isSat()) {
          bool Valid = W->S.matchesWord(Parsed.Value, R.Witness);
          Rec.span("solver.matches_word", Id, T0, Rec.now());
          if (!Valid)
            R.Status = SolveStatus::Unknown;
        }
        V.Status = R.Status;
        V.Witness = std::move(R.Witness);
      }
      T0 = Rec.now();
      W.reset();
      Rec.span("portfolio.stack_build", Id, T0, Rec.now());
    }
    Out.WallNs = nsSince(Start);
    Out.Counts = countsFrom(obs::tlsShard().since(Before), N, Probes);
    Out.Counts["solver.peak_frontier"] = static_cast<double>(PeakFrontier);
    Out.Counts["re.parse_errors"] = static_cast<double>(ParseErrors);
    Out.Layer["portfolio.antimirov_routed_frac"] = share(Routed, N);
    Out.Layer["portfolio.antimirov_answered_frac"] = share(Answered, N);
    return Out;
  }
};

//===----------------------------------------------------------------------===//
// smt_session: one SmtSession with a VerdictCache, as sbd-server runs it
//===----------------------------------------------------------------------===//

/// sbd-server's rebuildable stack (members wired in declaration order).
struct SmtStack {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
  SmtSession Session;

  explicit SmtStack(const SolveOptions &Opts) : Session(S, Opts) {}
  SmtStack(const SmtStack &) = delete;
  SmtStack &operator=(const SmtStack &) = delete;
};

bool isCommand(const SExpr &F, const char *Name) {
  return F.isList() && !F.Kids.empty() && F.Kids[0].isSymbol(Name);
}

class SmtService : public Service {
public:
  /// sbd-server's defaults: 65,536 cache entries, stack rebuilt at (reset)
  /// once the arena passes 2^20 nodes.
  static constexpr size_t CacheCapacity = size_t{1} << 16;
  static constexpr size_t ArenaBudget = size_t{1} << 20;

  explicit SmtService(std::vector<Query> Qs) {
    Queries = std::move(Qs);
    Scripts.reserve(Queries.size());
    auto Scratch = std::make_unique<RegexManager>();
    for (size_t I = 0; I != Queries.size(); ++I) {
      if (I % 4096 == 0)
        Scratch = std::make_unique<RegexManager>();
      RegexParseResult P = parseRegex(*Scratch, Queries[I].Pattern);
      // An unparsable pattern has no SMT rendering; send a script the
      // session rejects, so the query counts as a parse failure.
      Scripts.push_back(
          (P.Ok ? regexToSmtScript(*Scratch, P.Value, Queries[I].Expected)
                : std::string("(assert\n")) +
          "(reset)\n");
    }
    prepare();
  }

  void prepare() override {
    cache::VerdictCache::Config C;
    C.Capacity = CacheCapacity;
    Sessions.push_back({std::make_unique<cache::VerdictCache>(C), nullptr});
    Sessions.back().Stack = newStack(*Sessions.back().Cache);
  }

  /// Per query: parse the script, execute every form, read the verdict
  /// back, and (reset) or recycle the stack. The latency sample covers all
  /// of it; a recycle stalls the query that triggers it.
  PassResult run(Recorder *Rec) override {
    Session Set = std::move(Sessions.front());
    Sessions.pop_front();
    cache::VerdictCache &Cache = *Set.Cache;
    std::unique_ptr<SmtStack> &Stack = Set.Stack;
    const size_t N = Scripts.size();
    PassResult Out;
    Out.Verdicts.resize(N);
    if (!Rec)
      Out.LatencyNs.resize(N);
    uint64_t Recycles = 0, Errors = 0, PeakFrontier = 0, HitChecks = 0,
             MissChecks = 0;
    uint64_t HitNs = 0, MissNs = 0;
    int64_t ReportedUs = 0;
    // The session's cumulative solve time as of its last check-sat; a
    // (reset) or a recycle starts it over.
    int64_t SessionUs = 0;
    const cache::VerdictCacheCounters CacheBefore = Cache.counters();
    const obs::MetricShard Before = obs::tlsShard();
    const Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != N; ++I) {
      const uint32_t Id = static_cast<uint32_t>(I);
      const Clock::time_point T0 = Clock::now();
      int64_t S0 = Rec ? Rec->now() : 0;
      auto endSpan = [&](const char *Layer) {
        int64_t S1 = Rec->now();
        Rec->span(Layer, Id, S0, S1);
        S0 = S1;
      };
      Verdict &V = Out.Verdicts[I];
      bool Error = false;
      {
        SExprParseResult Parsed = parseSExprs(Scripts[I]);
        if (Rec)
          endSpan("smt.sexpr_parse");
        Error = !Parsed.Ok;
        for (const SExpr &Form : Parsed.Forms) {
          const bool Reset = isCommand(Form, "reset");
          if (Reset)
            SessionUs = 0;
          if (Reset && Stack->M.numNodes() > ArenaBudget) {
            Stack = newStack(Cache);
            ++Recycles;
            if (Rec)
              endSpan("smt.reset");
            continue;
          }
          const bool Check = isCommand(Form, "check-sat");
          const uint64_t HitsBefore =
              Rec ? obs::tlsShard().get(obs::Counter::VerdictCacheHits) : 0;
          SmtSession::Reply R = Stack->Session.execute(Form);
          Error = Error || R.IsError;
          if (Check) {
            SmtResult Last = Stack->Session.lastResult();
            V.Status = Last.Status;
            for (const auto &[Var, Value] : Last.Model)
              if (Var == "s")
                V.Witness = fromUtf8(Value);
            PeakFrontier = std::max(PeakFrontier, Last.Stats.PeakFrontier);
            ReportedUs += Last.Stats.TotalUs - SessionUs;
            SessionUs = Last.Stats.TotalUs;
          }
          if (!Rec)
            continue;
          const int64_t Begin = S0;
          endSpan(Check   ? "smt.check_sat"
                  : Reset ? "smt.reset"
                          : "smt.command");
          if (Check) {
            const bool Hit = obs::tlsShard().get(
                                 obs::Counter::VerdictCacheHits) > HitsBefore;
            (Hit ? HitNs : MissNs) += static_cast<uint64_t>(S0 - Begin);
            ++(Hit ? HitChecks : MissChecks);
          }
        }
      } // the parsed script is freed inside the latency window
      if (Rec)
        endSpan("smt.sexpr_parse");
      V.ParseOk = !Error;
      Errors += Error ? 1 : 0;
      if (!Rec)
        Out.LatencyNs[I] = nsSince(T0);
    }
    Out.WallNs = nsSince(Start);
    Out.Counts = countsFrom(obs::tlsShard().since(Before), N, 0);
    Out.Counts["solver.peak_frontier"] = static_cast<double>(PeakFrontier);
    Out.Counts["re.parse_errors"] = static_cast<double>(Errors);
    Out.ReportedSolveUs = ReportedUs;

    const cache::VerdictCacheCounters C = Cache.counters();
    const uint64_t Hits = C.Hits - CacheBefore.Hits;
    const uint64_t Misses = C.Misses - CacheBefore.Misses;
    Out.Counts["cache.hits"] = static_cast<double>(Hits);
    Out.Counts["cache.misses"] = static_cast<double>(Misses);
    Out.Counts["cache.inserts"] =
        static_cast<double>(C.Inserts - CacheBefore.Inserts);
    Out.Counts["cache.evictions"] =
        static_cast<double>(C.Evictions - CacheBefore.Evictions);
    Out.Counts["cache.revalidation_failures"] = static_cast<double>(
        C.RevalidationFailures - CacheBefore.RevalidationFailures);
    Out.Counts["cache.hit_ratio"] = share(Hits, Hits + Misses);
    Out.Counts["smt.stack_recycles"] = static_cast<double>(Recycles);
    if (Rec) {
      Out.Layer["cache.hit_check_sat_ns"] = share(HitNs, HitChecks);
      Out.Layer["cache.miss_check_sat_ns"] = share(MissNs, MissChecks);
    }
    return Out;
  }

private:
  /// One pass's service objects: the cache outlives stack recycles.
  struct Session {
    std::unique_ptr<cache::VerdictCache> Cache;
    std::unique_ptr<SmtStack> Stack;
  };
  std::vector<std::string> Scripts;
  std::deque<Session> Sessions;

  static std::unique_ptr<SmtStack> newStack(cache::VerdictCache &Cache) {
    auto S = std::make_unique<SmtStack>(serviceOptions());
    S->Session.setVerdictCache(&Cache);
    return S;
  }
};

//===----------------------------------------------------------------------===//
// dist_batch: DistSolver with 3 workers (coordinator + 3 = 4 processes)
//===----------------------------------------------------------------------===//

class DistService : public Service {
public:
  static constexpr unsigned NumWorkers = 3;

  explicit DistService(std::vector<Query> Qs) {
    Queries = std::move(Qs);
    Batch = batchOf(Queries);
    prepare();
  }

  void prepare() override {
    dist::DistOptions O;
    O.NumWorkers = NumWorkers;
    const Clock::time_point T0 = Clock::now();
    Solvers.push_back({std::make_unique<dist::DistSolver>(O), 0});
    Solvers.back().SpawnNs = nsSince(T0);
  }

  /// Submits every query, then drains. The latency sample is the submit()
  /// call: the time admission control holds the client. Per-query
  /// completion is not visible through the DistSolver interface.
  PassResult run(Recorder *Rec) override {
    const size_t N = Batch.size();
    PassResult Out;
    std::unique_ptr<dist::DistSolver> Solver =
        std::move(Solvers.front().Solver);
    Out.Layer["dist.spawn_ns"] = static_cast<double>(Solvers.front().SpawnNs);
    Solvers.pop_front();
    if (!Rec)
      Out.LatencyNs.resize(N);
    const Clock::time_point Start = Clock::now();
    for (size_t I = 0; I != N; ++I) {
      if (Rec) {
        int64_t S0 = Rec->now();
        Solver->submit(Batch[I]);
        Rec->span("dist.submit_blocked", static_cast<uint32_t>(I), S0,
                  Rec->now());
      } else {
        const Clock::time_point T0 = Clock::now();
        Solver->submit(Batch[I]);
        Out.LatencyNs[I] = nsSince(T0);
      }
    }
    int64_t S0 = Rec ? Rec->now() : 0;
    std::vector<BatchResult> Results = Solver->drain();
    if (Rec)
      Rec->span("dist.drain", ~0u, S0, Rec->now());
    Out.WallNs = nsSince(Start);

    const dist::DistStats St = Solver->stats();
    Solver.reset();
    Out.Verdicts.resize(N);
    for (size_t I = 0; I != N; ++I) {
      BatchResult &R = Results[I];
      Out.ReportedSolveUs += R.Result.TimeUs;
      Out.Verdicts[I] = {R.ParseOk, R.Result.Status,
                         std::move(R.Result.Witness)};
    }
    Out.Layer["dist.dispatched"] = static_cast<double>(St.Dispatched);
    Out.Layer["dist.steals"] = static_cast<double>(St.Steals);
    Out.Layer["dist.requeues"] = static_cast<double>(St.Requeues);
    Out.Layer["dist.worker_crashes"] = static_cast<double>(St.WorkerCrashes);
    Out.Layer["dist.lost"] = static_cast<double>(St.Lost);
    const double WorkerNs = static_cast<double>(NumWorkers) *
                            static_cast<double>(Out.WallNs);
    const double BusyNs = static_cast<double>(Out.ReportedSolveUs) * 1e3;
    Out.Layer["dist.worker_busy_frac"] = WorkerNs > 0 ? BusyNs / WorkerNs : 0;
    Out.Layer["dist.overhead_ns_per_query"] =
        N ? (WorkerNs - BusyNs) / static_cast<double>(N) : 0;
    return Out;
  }

private:
  /// A coordinator with its workers forked and the time the fork took.
  struct Prepared {
    std::unique_ptr<dist::DistSolver> Solver;
    int64_t SpawnNs = 0;
  };
  std::vector<BatchQuery> Batch;
  std::deque<Prepared> Solvers;
};

} // namespace

std::unique_ptr<Service> sbdbench::makeService(Workload W, uint64_t Seed,
                                               size_t N) {
  switch (W) {
  case Workload::CorpusFresh:
    return std::make_unique<FreshService>(corpusStream(Seed, N));
  case Workload::BooleanHard:
    return std::make_unique<FreshService>(booleanHardStream(Seed, N));
  case Workload::SmtSession:
    return std::make_unique<SmtService>(corpusStream(Seed, N));
  case Workload::DistBatch:
    return std::make_unique<DistService>(corpusStream(Seed, N));
  }
  return nullptr;
}
