//===- bench/sbdbench/main.cpp - Service-path benchmark -------------------===//
///
/// \file
/// sbdbench runs four workloads through the public entry points of the
/// service path and prints every end-to-end metric by name and unit; with
/// `--trace DIR` it adds a traced pass over the same queries and writes a
/// per-layer table. Every workload run is its own child process (so
/// `peak_rss_mb` is per workload); each run is
///
///   set-up (repeated, median reported) -> ~1 s warm-up on fresh inputs and
///   fresh service objects -> untraced timed pass -> correctness checks
///   -> [traced pass over the same queries, on fresh service objects].
///
/// Usage:
///   sbdbench [--workload NAME] [--seed N] [--seconds S] [--quick]
///            [--trace DIR] [--runs N] [--json FILE]
///   sbdbench --compare PARENT.json CHANGE.json
///
/// The last line of standard output is one JSON object
/// {"correct", "attempted", "failed", "metrics"}. The exit code is nonzero
/// when a verdict is wrong or a benchmark invariant breaks.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include <malloc.h>
#include <sys/personality.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>

using namespace sbd;
using namespace sbdbench;

#if defined(NDEBUG) && defined(__OPTIMIZE__)
constexpr bool OptimizedBuild = true;
#else
constexpr bool OptimizedBuild = false;
#endif

const std::vector<WorkloadSpec> &sbdbench::workloadSpecs() {
  // Why each workload exists: README.md. dist_batch's coordinator keeps
  // every submitted query and its result until drain(), so its pass holds
  // about half a second of work per second to bound memory (~0.5 GB at 15).
  static const std::vector<WorkloadSpec> Specs = {
      {Workload::CorpusFresh, "corpus_fresh", 34000},
      {Workload::BooleanHard, "boolean_hard", 400},
      {Workload::SmtSession, "smt_session", 21000},
      {Workload::DistBatch, "dist_batch", 40000},
  };
  return Specs;
}

const WorkloadSpec *sbdbench::findWorkload(const std::string &Name) {
  for (const WorkloadSpec &S : workloadSpecs())
    if (Name == S.Name)
      return &S;
  return nullptr;
}

namespace {

/// Set-up repeats until it has generated this many queries (times the
/// --quick scale), 5 to 100 times; setup_s is the median repetition. The
/// count depends on the sizes alone, so every run makes the same
/// allocations, and sub-millisecond set-ups (boolean_hard) still get a
/// stable median.
constexpr double SetupQueries = 500000;
constexpr size_t MinSetupRepeats = 5, MaxSetupRepeats = 100;
/// The warm-up slice's inputs come from this seed offset, so no warm-up
/// query repeats into the timed pass by construction.
constexpr uint64_t WarmupSeedSalt = 0x5eed5eed5eedULL;
/// Queries whose spans go into the Chrome trace.
constexpr size_t TracedQueryEvents = 20000;

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T) {
  return std::chrono::duration<double>(Clock::now() - T).count();
}

double median(std::vector<double> V) { return quartiles(std::move(V)).Median; }

/// Counts that are a function of the inputs alone: they must repeat across
/// runs and between the traced and untraced passes.
bool isExactCount(const std::string &Name) {
  return Name.rfind("core.", 0) == 0 || Name.rfind("analysis.", 0) == 0 ||
         Name.rfind("charset.", 0) == 0 || Name == "solver.steps" ||
         Name == "re.parse_errors";
}

/// Names of exact counts that differ between \p A and \p B.
std::vector<std::string> countMismatches(const MetricMap &A,
                                         const MetricMap &B) {
  std::vector<std::string> Out;
  for (const auto &[K, V] : A)
    if (isExactCount(K) && (!B.count(K) || B.at(K) != V))
      Out.push_back(K + " " + num(V) + " vs " +
                    (B.count(K) ? num(B.at(K)) : std::string("missing")));
  return Out;
}

double peakRssMb() {
  rusage Self{}, Kids{};
  getrusage(RUSAGE_SELF, &Self);
  getrusage(RUSAGE_CHILDREN, &Kids);
  return static_cast<double>(std::max(Self.ru_maxrss, Kids.ru_maxrss)) / 1024.0;
}

/// The per-layer table of one traced pass: every layerMetrics() name, zero
/// where the workload does not cross that layer.
MetricMap layerMetricsOf(const Recorder &Rec, const PassResult &Traced,
                         const PassResult &Untraced) {
  MetricMap L;
  for (const MetricDef &D : layerMetrics())
    L[D.Name] = 0;
  const double N = Traced.Verdicts.empty()
                       ? 1.0
                       : static_cast<double>(Traced.Verdicts.size());
  int64_t SpanSum = 0;
  for (const Recorder::LayerTotal &T : Rec.totals()) {
    L[std::string(T.Name) + "_ns"] = static_cast<double>(T.SelfNs) / N;
    SpanSum += T.SelfNs;
  }
  for (const MetricMap *M : {&Traced.Counts, &Traced.Layer})
    for (const auto &[K, V] : *M)
      if (L.count(K))
        L[K] = V;
  if (const int64_t CheckNs = Rec.selfNs("smt.check_sat"))
    L["smt.front_end_share"] =
        1.0 - static_cast<double>(Traced.ReportedSolveUs) * 1e3 /
                  static_cast<double>(CheckNs);
  L["trace.overhead_frac"] = 1.0 - static_cast<double>(Untraced.WallNs) /
                                       static_cast<double>(Traced.WallNs);
  L["trace.layer_sum_frac"] =
      static_cast<double>(SpanSum) / static_cast<double>(Traced.WallNs);
  return L;
}

/// One workload run, inside its own process.
RunResult runWorkload(const WorkloadSpec &W, const RunConfig &C) {
  RunResult Out;
  const double Scale = C.Quick ? 0.01 : 1.0;
  auto sized = [&](double Seconds) {
    return std::max<size_t>(
        1, static_cast<size_t>(
               std::llround(Seconds * W.QueriesPerSecond * Scale)));
  };

  const size_t N = sized(C.Seconds);
  const size_t SetupRepeats = std::clamp<size_t>(
      static_cast<size_t>(std::ceil(SetupQueries * Scale / N)),
      MinSetupRepeats, MaxSetupRepeats);
  std::vector<double> SetupS;
  std::unique_ptr<Service> Svc;
  while (SetupS.size() < SetupRepeats) {
    Svc.reset();
    const Clock::time_point T0 = Clock::now();
    Svc = makeService(W.Id, C.Seed, N);
    SetupS.push_back(secondsSince(T0));
  }
  if (!C.TraceDir.empty())
    Svc->prepare(); // the traced pass's own session / workers
  makeService(W.Id, C.Seed ^ WarmupSeedSalt, sized(1.0))->run(nullptr);

  malloc_trim(0);
  PassResult Untraced = Svc->run(nullptr);
  const double RssMb = peakRssMb();

  std::vector<int64_t> Lat = std::move(Untraced.LatencyNs);
  std::sort(Lat.begin(), Lat.end());
  const double WallS = static_cast<double>(Untraced.WallNs) / 1e9;
  Out.EndToEnd["throughput_qps"] = static_cast<double>(N) / WallS;
  Out.EndToEnd["latency_p50_us"] =
      static_cast<double>(percentile(Lat, 0.50)) / 1e3;
  Out.EndToEnd["latency_p99_us"] =
      static_cast<double>(percentile(Lat, 0.99)) / 1e3;
  Out.EndToEnd["setup_s"] = median(SetupS);
  Out.EndToEnd["peak_rss_mb"] = RssMb;
  Out.Info["queries"] = static_cast<double>(N);
  Out.Info["setup_repeats"] = static_cast<double>(SetupS.size());
  Out.Info["timed_wall_s"] = WallS;
  Out.Info["latency_p999_us"] =
      static_cast<double>(percentile(Lat, 0.999)) / 1e3;
  Out.Info["latency_max_us"] =
      Lat.empty() ? 0 : static_cast<double>(Lat.back()) / 1e3;
  Out.Info["latency_p99_samples_beyond"] = static_cast<double>(
      N - static_cast<size_t>(std::ceil(0.99 * static_cast<double>(N))));
  Out.Counts = Untraced.Counts;

  const OracleReport Rep = checkVerdicts(Svc->queries(), Untraced.Verdicts);
  Out.Attempted = Rep.Attempted;
  Out.Failed = Rep.Failed;
  Out.Wrong = Rep.Wrong;
  Out.Unverified = Rep.Unverified;
  Out.Info["failed_frac"] =
      N ? static_cast<double>(Rep.Failed) / static_cast<double>(N) : 0;
  Out.Info["wrong_verdicts"] = static_cast<double>(Rep.Wrong);
  for (const std::string &E : Rep.Examples)
    std::fprintf(stderr, "sbdbench: %s: %s\n", W.Name, E.c_str());

  if (C.TraceDir.empty())
    return Out;

  malloc_trim(0);
  Recorder Rec(TracedQueryEvents);
  PassResult Traced = Svc->run(&Rec);
  if (Traced.Verdicts != Untraced.Verdicts)
    Out.Errors.push_back("traced verdict stream differs from the untraced one");
  for (const std::string &M : countMismatches(Untraced.Counts, Traced.Counts))
    Out.Errors.push_back("count differs between traced and untraced pass: " +
                         M);
  Out.Layers = layerMetricsOf(Rec, Traced, Untraced);
  const std::string Base = C.TraceDir + "/" + W.Name;
  if (!writeLayerTable(Base + ".layers.json", W.Name, Rec, Traced,
                       Out.Layers) ||
      !Rec.writeChromeTrace(Base + ".trace.json"))
    Out.Errors.push_back("cannot write the trace files under " + C.TraceDir);
  return Out;
}

/// Runs one workload in a child process and collects its result.
RunResult runInChild(const WorkloadSpec &W, const RunConfig &C) {
  int Fds[2];
  RunResult Failed;
  if (pipe(Fds) != 0) {
    Failed.Errors.push_back("pipe failed");
    return Failed;
  }
  std::fflush(stdout);
  std::fflush(stderr);
  pid_t Pid = fork();
  if (Pid < 0) {
    close(Fds[0]);
    close(Fds[1]);
    Failed.Errors.push_back("fork failed");
    return Failed;
  }
  if (Pid == 0) {
    close(Fds[0]);
    RunResult R;
    try {
      R = runWorkload(W, C);
    } catch (const std::exception &E) {
      R.Errors.push_back(std::string("exception: ") + E.what());
    }
    const std::string Text = encodeRun(R);
    for (size_t Off = 0; Off < Text.size();) {
      ssize_t K = write(Fds[1], Text.data() + Off, Text.size() - Off);
      if (K <= 0)
        _exit(3);
      Off += static_cast<size_t>(K);
    }
    close(Fds[1]);
    std::fflush(stderr);
    _exit(0);
  }
  close(Fds[1]);
  std::string Text;
  char Buf[4096];
  for (ssize_t K; (K = read(Fds[0], Buf, sizeof(Buf))) != 0;) {
    if (K < 0) {
      if (errno == EINTR)
        continue;
      break;
    }
    Text.append(Buf, static_cast<size_t>(K));
  }
  close(Fds[0]);
  int Status = 0;
  while (waitpid(Pid, &Status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(Status) || WEXITSTATUS(Status) != 0) {
    Failed.Errors.push_back("workload process died (status " +
                            std::to_string(Status) + ")");
    return Failed;
  }
  return decodeRun(Text);
}

void printRun(const WorkloadSpec &W, const RunConfig &C, unsigned Run,
              unsigned Runs, const RunResult &R) {
  std::printf("== %s  seed %llu  run %u/%u ==\n", W.Name,
              static_cast<unsigned long long>(C.Seed), Run + 1, Runs);
  for (const MetricDef &D : endToEndMetrics())
    if (R.EndToEnd.count(D.Name))
      std::printf("  %-22s %14.4f %s\n", D.Name, R.EndToEnd.at(D.Name), D.Unit);
  for (const auto &[K, V] : R.Info)
    std::printf("  %-22s %14.4f (info)\n", K.c_str(), V);
  std::printf("  correctness: attempted %llu, failed %llu, wrong %llu, "
              "unverified %llu\n",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              static_cast<unsigned long long>(R.Wrong),
              static_cast<unsigned long long>(R.Unverified));
  if (!R.Layers.empty()) {
    std::printf("  layers (traced pass):\n");
    for (const MetricDef &D : layerMetrics())
      std::printf("    %-36s %16.4f %s\n", D.Name, R.Layers.at(D.Name), D.Unit);
  }
  for (const std::string &E : R.Errors)
    std::printf("  ERROR: %s\n", E.c_str());
}

void printSpread(const WorkloadSpec &W, const std::vector<RunResult> &Rs) {
  std::printf("== %s  %zu runs: median [q1, q3]  spread = (q3-q1)/median ==\n",
              W.Name, Rs.size());
  for (const MetricDef &D : endToEndMetrics()) {
    std::vector<double> V;
    for (const RunResult &R : Rs)
      if (R.EndToEnd.count(D.Name))
        V.push_back(R.EndToEnd.at(D.Name));
    const Quartiles Q = quartiles(V);
    const double Spread = Q.Median != 0 ? (Q.Q3 - Q.Q1) / Q.Median : 0;
    std::printf("  %-22s %14.4f [%.4f, %.4f] %s  spread %.4f (bound %.2f)\n",
                D.Name, Q.Median, Q.Q1, Q.Q3, D.Unit, Spread, D.Bound);
  }
}

struct Args {
  std::vector<const WorkloadSpec *> Workloads;
  RunConfig Run;
  unsigned Runs = 1;
  std::string JsonPath;
  std::string CompareParent, CompareChange;
};

void usage() {
  std::fprintf(
      stderr,
      "usage: sbdbench [--workload NAME] [--seed N] [--seconds S] [--quick]\n"
      "                [--trace DIR] [--runs N] [--json FILE]\n"
      "       sbdbench --compare PARENT.json CHANGE.json\n"
      "workloads: corpus_fresh boolean_hard smt_session dist_batch\n");
}

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    const std::string Arg = Argv[I];
    auto value = [&]() -> const char * {
      return I + 1 < Argc ? Argv[++I] : nullptr;
    };
    const char *V = nullptr;
    if (Arg == "--quick") {
      A.Run.Quick = true;
      continue;
    }
    if (Arg == "--compare") {
      if (I + 2 >= Argc)
        return false;
      A.CompareParent = Argv[++I];
      A.CompareChange = Argv[++I];
      continue;
    }
    if (Arg == "-h" || Arg == "--help" || !(V = value()))
      return false;
    if (Arg == "--workload") {
      const WorkloadSpec *W = findWorkload(V);
      if (!W) {
        std::fprintf(stderr, "sbdbench: unknown workload %s\n", V);
        return false;
      }
      A.Workloads.push_back(W);
    } else if (Arg == "--seed") {
      A.Run.Seed = std::strtoull(V, nullptr, 10);
    } else if (Arg == "--seconds") {
      A.Run.Seconds = std::strtod(V, nullptr);
      if (!(A.Run.Seconds > 0 && A.Run.Seconds <= 120))
        return false;
    } else if (Arg == "--trace") {
      A.Run.TraceDir = V;
    } else if (Arg == "--runs") {
      A.Runs = static_cast<unsigned>(std::strtoul(V, nullptr, 10));
      if (A.Runs == 0 || A.Runs > 100)
        return false;
    } else if (Arg == "--json") {
      A.JsonPath = V;
    } else {
      std::fprintf(stderr, "sbdbench: unknown flag %s\n", Arg.c_str());
      return false;
    }
  }
  if (A.Workloads.empty())
    for (const WorkloadSpec &S : workloadSpecs())
      A.Workloads.push_back(&S);
  return true;
}

bool writeRunsJson(const std::string &Path, const Args &A,
                   const std::map<std::string, std::vector<RunResult>> &All) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out)
    return false;
  Out << "{\"seed\": " << A.Run.Seed << ", \"seconds\": " << num(A.Run.Seconds)
      << ", \"quick\": " << (A.Run.Quick ? "true" : "false")
      << ", \"runs\": {";
  bool FirstW = true;
  for (const auto &[Name, Runs] : All) {
    Out << (FirstW ? "\n" : ",\n") << " \"" << Name << "\": [";
    FirstW = false;
    for (size_t I = 0; I != Runs.size(); ++I) {
      Out << (I ? ",\n  {" : "\n  {");
      bool First = true;
      for (const MetricMap *M :
           {&Runs[I].EndToEnd, &Runs[I].Info, &Runs[I].Layers}) {
        for (const auto &[K, V] : *M) {
          Out << (First ? "" : ", ") << "\"" << K << "\": " << num(V);
          First = false;
        }
      }
      Out << "}";
    }
    Out << "]";
  }
  Out << "}}\n";
  return static_cast<bool>(Out);
}

/// Re-executes the program once with address-space randomization off:
/// with it on, heap placement moves peak RSS by up to 15% between runs on
/// identical inputs. Where the kernel refuses, runs on randomized.
void pinAddressSpaceLayout(char **Argv) {
  const int Persona = personality(0xffffffff);
  if (Persona == -1 || (Persona & ADDR_NO_RANDOMIZE))
    return;
  if (personality(static_cast<unsigned long>(Persona) | ADDR_NO_RANDOMIZE) ==
      -1)
    return;
  execv("/proc/self/exe", Argv);
}

} // namespace

int main(int Argc, char **Argv) {
  pinAddressSpaceLayout(Argv);
  Args A;
  if (!parseArgs(Argc, Argv, A)) {
    usage();
    return 2;
  }
  if (!A.CompareParent.empty())
    return compareRuns(A.CompareParent, A.CompareChange);
  if (!OptimizedBuild && !A.Run.Quick) {
    std::fprintf(stderr, "sbdbench: refusing to measure a build without "
                         "NDEBUG and optimization; build with "
                         "-DCMAKE_BUILD_TYPE=Release or pass --quick\n");
    return 2;
  }
  if (!A.Run.TraceDir.empty()) {
    std::error_code EC;
    std::filesystem::create_directories(A.Run.TraceDir, EC);
    if (EC) {
      std::fprintf(stderr, "sbdbench: cannot create %s\n",
                   A.Run.TraceDir.c_str());
      return 2;
    }
  }

  std::map<std::string, std::vector<RunResult>> All;
  bool Ok = true;
  uint64_t Attempted = 0, Failed = 0;
  for (const WorkloadSpec *W : A.Workloads) {
    std::vector<RunResult> &Rs = All[W->Name];
    for (unsigned I = 0; I != A.Runs; ++I) {
      RunResult &R = Rs.emplace_back(runInChild(*W, A.Run));
      if (I > 0)
        for (const std::string &M :
             countMismatches(Rs.front().Counts, R.Counts))
          R.Errors.push_back("count differs from run 1: " + M);
      printRun(*W, A.Run, I, A.Runs, R);
      Ok = Ok && R.Wrong == 0 && R.Errors.empty() && R.Attempted > 0;
      Attempted += R.Attempted;
      Failed += R.Failed;
    }
    if (A.Runs > 1)
      printSpread(*W, Rs);
  }
  if (!A.JsonPath.empty() && !writeRunsJson(A.JsonPath, A, All)) {
    std::fprintf(stderr, "sbdbench: cannot write %s\n", A.JsonPath.c_str());
    Ok = false;
  }

  // The result line: the end-to-end metrics, or with --trace the per-layer
  // ones; prefixed by workload when more than one ran; medians over runs.
  const bool Traced = !A.Run.TraceDir.empty();
  const std::vector<MetricDef> &Defs =
      Traced ? layerMetrics() : endToEndMetrics();
  std::string Metrics;
  for (const auto &[Name, Rs] : All) {
    for (const MetricDef &D : Defs) {
      std::vector<double> V;
      for (const RunResult &R : Rs) {
        const MetricMap &M = Traced ? R.Layers : R.EndToEnd;
        if (M.count(D.Name))
          V.push_back(M.at(D.Name));
      }
      if (V.empty())
        continue;
      const std::string Key =
          All.size() > 1 ? Name + "." + D.Name : std::string(D.Name);
      Metrics += (Metrics.empty() ? "" : ", ") + std::string("\"") + Key +
                 "\": {\"value\": " + num(median(V)) + ", \"unit\": \"" +
                 D.Unit + "\"}";
    }
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              Ok ? "true" : "false", static_cast<unsigned long long>(Attempted),
              static_cast<unsigned long long>(Failed), Metrics.c_str());
  return Ok ? 0 : 1;
}
