//===- bench/BenchArgs.h - Shared command-line handling for the harness -----===//
///
/// \file
/// Minimal flag parsing shared by the Fig. 4 reproduction binaries:
///   --scale <f>        fraction of the paper's per-suite instance counts
///                      used for the generated (non-handwritten) suites
///   --timeout-ms <n>   per-instance wall-clock budget
///   --max-states <n>   per-instance state budget (safety net)
///   --seed <n>         generator seed
///   --threads <n>      worker threads for the batch-capable harnesses
///                      (default 1, which keeps single-thread figure
///                      outputs identical to the sequential path)
///   --quick            smoke-test preset: tiny scale and short timeouts,
///                      for CI and the stats-smoke step of check.sh
///
//===----------------------------------------------------------------------===//

#ifndef SBD_BENCH_BENCHARGS_H
#define SBD_BENCH_BENCHARGS_H

#include "solver/SolverResult.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

namespace sbd {

struct BenchArgs {
  double Scale = 0.05;
  uint64_t Seed = 2021;
  unsigned Threads = 1;
  bool Quick = false;
  SolveOptions Opts;

  /// Parses the shared flags; any other flag prints the usage (the shared
  /// flags, then \p ExtraUsage) and exits 1.
  static BenchArgs parse(int Argc, char **Argv, const char *ExtraUsage = "") {
    BenchArgs A;
    A.Opts.TimeoutMs = 250;
    A.Opts.MaxStates = 200000;
    for (int I = 1; I < Argc; ++I) {
      auto need = [&](const char *Flag) -> const char * {
        if (I + 1 >= Argc) {
          std::fprintf(stderr, "error: %s needs a value\n", Flag);
          std::exit(1);
        }
        return Argv[++I];
      };
      if (!std::strcmp(Argv[I], "--scale"))
        A.Scale = std::atof(need("--scale"));
      else if (!std::strcmp(Argv[I], "--timeout-ms"))
        A.Opts.TimeoutMs = std::atoll(need("--timeout-ms"));
      else if (!std::strcmp(Argv[I], "--max-states"))
        A.Opts.MaxStates = std::strtoull(need("--max-states"), nullptr, 10);
      else if (!std::strcmp(Argv[I], "--seed"))
        A.Seed = std::strtoull(need("--seed"), nullptr, 10);
      else if (!std::strcmp(Argv[I], "--threads"))
        A.Threads =
            static_cast<unsigned>(std::strtoul(need("--threads"), nullptr, 10));
      else if (!std::strcmp(Argv[I], "--quick")) {
        A.Quick = true;
        A.Scale = 0.01;
        A.Opts.TimeoutMs = 100;
      } else {
        std::fprintf(stderr,
                     "usage: %s [--scale f] [--timeout-ms n] "
                     "[--max-states n] [--seed n] [--threads n] [--quick]%s\n",
                     Argv[0], ExtraUsage);
        std::exit(1);
      }
    }
    return A;
  }
};

} // namespace sbd

#endif // SBD_BENCH_BENCHARGS_H
