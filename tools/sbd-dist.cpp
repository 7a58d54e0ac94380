//===- tools/sbd-dist.cpp - Multi-process batch solving front end -----------===//
///
/// \file
/// Command-line front end for the `src/dist` coordinator/worker layer
/// (DESIGN.md §16): reads a pattern corpus, solves it across N forked
/// worker processes, and prints the canonical verdict stream — one
/// `<idx> <status> [witness]` line per query in submission order. The
/// stream is deliberately free of timings and engine tags, so two runs
/// with different worker counts must be byte-identical; the CI gate
/// (scripts/ci/dist_consistency.sh) diffs exactly this output.
///
///   sbd-dist --corpus file           one pattern per line ('#' comments)
///   sbd-dist --gen                   the seed benchmark corpus
///   sbd-dist --scale f --seed n      corpus generator knobs
///   sbd-dist --export-corpus path    write the generated corpus and exit
///   sbd-dist --workers N             worker processes (default 4)
///   sbd-dist --shards K              shard count (default: workers)
///   sbd-dist --max-inflight M        admission bound per worker
///   sbd-dist --rpc-timeout-ms T      per-query round-trip budget
///   sbd-dist --max-states N          per-query state budget
///   sbd-dist --stats                 scheduling stats as JSON on stderr
///   sbd-dist --test-crash-worker I:N worker I dies on its Nth request
///
/// Exit codes: 0 solved (verdicts may still be Unknown), 2 usage or input
/// error.
///
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "dist/Coordinator.h"
#include "dist/Protocol.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace sbd;

namespace {

int usage(const char *Prog) {
  std::fprintf(
      stderr,
      "usage: %s [--corpus file | --gen] [--scale f] [--seed n]\n"
      "       [--export-corpus path] [--workers N] [--shards K]\n"
      "       [--max-inflight M] [--rpc-timeout-ms T] [--max-states N]\n"
      "       [--stats] [--test-crash-worker I:N]\n"
      "Solves a pattern corpus across forked worker processes and prints\n"
      "the canonical verdict stream (DESIGN.md \xc2\xa7" "16).\n",
      Prog);
  return 2;
}

std::vector<std::string> corpusPatterns(double Scale, uint64_t Seed) {
  std::vector<std::string> Out;
  std::vector<BenchSuite> Suites = nonBooleanSuites(Scale, Seed);
  std::vector<BenchSuite> Boolean = booleanSuites(Scale, Seed);
  Suites.insert(Suites.end(), Boolean.begin(), Boolean.end());
  std::vector<BenchSuite> Hand = handwrittenSuites();
  Suites.insert(Suites.end(), Hand.begin(), Hand.end());
  for (const BenchSuite &Suite : Suites)
    for (const BenchInstance &Inst : Suite.Instances)
      Out.push_back(Inst.Pattern);
  return Out;
}

// One raw pattern per line. No comment syntax: '#' starts a perfectly
// legitimate regex (the workload corpus has hex-color patterns), so the
// only skipped lines are empty ones.
bool readCorpusFile(const std::string &Path, std::vector<std::string> &Out) {
  std::ifstream In(Path);
  if (!In)
    return false;
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Out.push_back(Line);
  }
  return true;
}

} // namespace

int main(int Argc, char **Argv) {
  std::string CorpusFile, ExportPath;
  bool Gen = false, Stats = false;
  double Scale = 0.05;
  uint64_t Seed = 2021;
  dist::DistOptions Opts;
  SolveOptions QueryOpts;

  auto needValue = [&](int &I) -> const char * {
    if (I + 1 >= Argc) {
      std::fprintf(stderr, "sbd-dist: %s needs a value\n", Argv[I]);
      return nullptr;
    }
    return Argv[++I];
  };

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--corpus") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      CorpusFile = V;
    } else if (std::strcmp(Arg, "--gen") == 0) {
      Gen = true;
    } else if (std::strcmp(Arg, "--scale") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      Scale = std::atof(V);
    } else if (std::strcmp(Arg, "--seed") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      Seed = static_cast<uint64_t>(std::atoll(V));
    } else if (std::strcmp(Arg, "--export-corpus") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      ExportPath = V;
    } else if (std::strcmp(Arg, "--workers") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      Opts.NumWorkers = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(Arg, "--shards") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      Opts.NumShards = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(Arg, "--max-inflight") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      Opts.MaxInFlightPerWorker = static_cast<unsigned>(std::atoi(V));
    } else if (std::strcmp(Arg, "--rpc-timeout-ms") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      Opts.RpcTimeoutMs = std::atoll(V);
    } else if (std::strcmp(Arg, "--max-states") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      QueryOpts.MaxStates = static_cast<size_t>(std::atoll(V));
    } else if (std::strcmp(Arg, "--stats") == 0) {
      Stats = true;
    } else if (std::strcmp(Arg, "--test-crash-worker") == 0) {
      const char *V = needValue(I);
      if (!V)
        return 2;
      unsigned W = 0;
      unsigned long long N = 0;
      if (std::sscanf(V, "%u:%llu", &W, &N) != 2 || N == 0) {
        std::fprintf(stderr, "sbd-dist: --test-crash-worker wants I:N\n");
        return 2;
      }
      Opts.CrashWorkerIndex = W;
      Opts.CrashAtRequest = static_cast<size_t>(N);
    } else {
      std::fprintf(stderr, "sbd-dist: unknown argument '%s'\n", Arg);
      return usage(Argv[0]);
    }
  }

  std::vector<std::string> Patterns;
  if (!CorpusFile.empty()) {
    if (!readCorpusFile(CorpusFile, Patterns)) {
      std::fprintf(stderr, "sbd-dist: cannot read corpus '%s'\n",
                   CorpusFile.c_str());
      return 2;
    }
  } else if (Gen || !ExportPath.empty()) {
    Patterns = corpusPatterns(Scale, Seed);
  } else {
    return usage(Argv[0]);
  }

  if (!ExportPath.empty()) {
    std::ofstream Out(ExportPath);
    if (!Out) {
      std::fprintf(stderr, "sbd-dist: cannot write '%s'\n",
                   ExportPath.c_str());
      return 2;
    }
    for (const std::string &P : Patterns)
      Out << P << '\n';
    return 0;
  }

  std::vector<BatchQuery> Queries;
  Queries.reserve(Patterns.size());
  for (const std::string &P : Patterns) {
    BatchQuery Q;
    Q.Pattern = P;
    Q.Opts = QueryOpts;
    Queries.push_back(std::move(Q));
  }

  Stopwatch Wall;
  dist::DistSolver Solver(Opts);
  std::vector<BatchResult> Results = Solver.solveAll(Queries);
  int64_t WallUs = Wall.elapsedUs();

  std::string Stream;
  for (size_t I = 0; I != Results.size(); ++I) {
    Stream += dist::renderVerdictLine(I, Results[I]);
    Stream += '\n';
  }
  std::fwrite(Stream.data(), 1, Stream.size(), stdout);

  if (Stats) {
    const dist::DistStats &S = Solver.stats();
    std::fprintf(
        stderr,
        "{\"wall_us\": %lld, \"queries\": %zu, \"workers\": %u, "
        "\"shards\": %u, \"dispatched\": %llu, \"steals\": %llu, "
        "\"requeues\": %llu, \"worker_crashes\": %llu, \"timeouts\": %llu, "
        "\"respawns\": %llu, \"lost\": %llu}\n",
        static_cast<long long>(WallUs), Results.size(), Opts.NumWorkers,
        Opts.NumShards ? Opts.NumShards : Opts.NumWorkers,
        static_cast<unsigned long long>(S.Dispatched),
        static_cast<unsigned long long>(S.Steals),
        static_cast<unsigned long long>(S.Requeues),
        static_cast<unsigned long long>(S.WorkerCrashes),
        static_cast<unsigned long long>(S.Timeouts),
        static_cast<unsigned long long>(S.Respawns),
        static_cast<unsigned long long>(S.Lost));
  }
  return 0;
}
