//===- tools/sbd-server.cpp - Resident SMT-LIB solver service ---------------===//
///
/// \file
/// A resident front end speaking the SMT-LIB line protocol over
/// stdin/stdout (the ROADMAP's "service handling millions of requests"
/// shape, in-process): commands stream in, verdicts stream out, and the
/// solver state — regex arena, derivative graph, and the cross-query
/// verdict cache — stays warm between them. Every membership sub-query is
/// routed through the analyzer-driven portfolio (and, when enabled, the
/// verdict cache) via SmtSession.
///
/// Input is consumed in balanced-parenthesis chunks, so multi-line forms
/// and many-forms-per-line both work. Responses follow SMT-LIB: check-sat
/// prints sat/unsat/unknown, errors print (error "…"), successes are
/// silent unless (set-option :print-success true).
///
/// The arenas grow monotonically within a session (hash-consing needs
/// stable node ids), so a long-lived server recycles the *whole* solver
/// stack at a safe point instead: on (reset), when the regex and
/// transition-regex arenas together hold more than --arena-budget nodes,
/// the stack is rebuilt from scratch. The verdict
/// cache survives recycling by construction — its keys are canonical
/// prints, not arena pointers — so warmth is preserved across stacks
/// (DESIGN.md §15).
///
/// Flags:
///   --cache-capacity N   verdict-cache entries (default 65536; 0 disables)
///   --cache-load PATH    preload the cache from a JSONL snapshot
///   --cache-save PATH    write the cache as JSONL on exit
///   --arena-budget N     recycle the stack at (reset) past N regex +
///                        transition-regex nodes (default 1048576; 0 never
///                        recycles)
///   --timeout-ms N       per-sub-query wall-clock budget (default 10000)
///   --max-states N       per-sub-query state budget (default 0 = unlimited)
///   --stats-json PATH    write counters + wall time as JSON on exit
///
//===----------------------------------------------------------------------===//

#include "cache/VerdictCache.h"
#include "smt/SmtSolver.h"
#include "support/Metrics.h"
#include "support/Stopwatch.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

using namespace sbd;

namespace {

/// One rebuildable solver stack. Members are constructed in declaration
/// order, so the references wired through the constructors are valid; the
/// struct is non-movable and lives behind a unique_ptr (same shape as
/// portfolio::SolverStack).
struct ServerStack {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
  RegexSolver S{E};
  SmtSession Session;

  explicit ServerStack(const SolveOptions &Opts) : Session(S, Opts) {}
  ServerStack(const ServerStack &) = delete;
  ServerStack &operator=(const ServerStack &) = delete;
};

struct ServerOptions {
  size_t CacheCapacity = 1 << 16;
  std::string CacheLoad;
  std::string CacheSave;
  size_t ArenaBudget = 1 << 20;
  std::string StatsJson;
  SolveOptions Solve;
};

void usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--cache-capacity N] [--cache-load PATH] [--cache-save "
      "PATH]\n           [--arena-budget N] [--timeout-ms N] [--max-states "
      "N] [--stats-json PATH]\n\nReads SMT-LIB commands from stdin, writes "
      "responses to stdout.\n--arena-budget counts regex and "
      "transition-regex nodes together.\n",
      Argv0);
}

bool parseArgs(int Argc, char **Argv, ServerOptions &Opts) {
  for (int I = 1; I < Argc; ++I) {
    auto needValue = [&](const char *Flag) -> const char * {
      if (I + 1 >= Argc) {
        std::fprintf(stderr, "error: %s needs a value\n", Flag);
        return nullptr;
      }
      return Argv[++I];
    };
    if (!std::strcmp(Argv[I], "--cache-capacity")) {
      const char *V = needValue("--cache-capacity");
      if (!V)
        return false;
      Opts.CacheCapacity = static_cast<size_t>(std::strtoull(V, nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--cache-load")) {
      const char *V = needValue("--cache-load");
      if (!V)
        return false;
      Opts.CacheLoad = V;
    } else if (!std::strcmp(Argv[I], "--cache-save")) {
      const char *V = needValue("--cache-save");
      if (!V)
        return false;
      Opts.CacheSave = V;
    } else if (!std::strcmp(Argv[I], "--arena-budget")) {
      const char *V = needValue("--arena-budget");
      if (!V)
        return false;
      Opts.ArenaBudget = static_cast<size_t>(std::strtoull(V, nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--timeout-ms")) {
      const char *V = needValue("--timeout-ms");
      if (!V)
        return false;
      Opts.Solve.TimeoutMs = std::strtoll(V, nullptr, 10);
    } else if (!std::strcmp(Argv[I], "--max-states")) {
      const char *V = needValue("--max-states");
      if (!V)
        return false;
      Opts.Solve.MaxStates = static_cast<size_t>(std::strtoull(V, nullptr, 10));
    } else if (!std::strcmp(Argv[I], "--stats-json")) {
      const char *V = needValue("--stats-json");
      if (!V)
        return false;
      Opts.StatsJson = V;
    } else if (!std::strcmp(Argv[I], "-h") || !std::strcmp(Argv[I], "--help")) {
      usage(Argv[0]);
      return false;
    } else {
      std::fprintf(stderr, "error: unknown flag %s\n", Argv[I]);
      usage(Argv[0]);
      return false;
    }
  }
  return true;
}

/// Tracks paren balance across lines so forms can span lines. SMT-LIB
/// string literals (with `""` escaping — each `"` just toggles the state)
/// and `;` comments (which never span lines) are respected.
class ChunkReader {
public:
  /// Adds one input line; returns true when the buffered text is balanced
  /// and non-empty (ready to parse).
  bool feed(const std::string &Line) {
    bool InComment = false;
    for (char C : Line) {
      if (InComment)
        continue;
      if (InString) {
        if (C == '"')
          InString = false;
        continue;
      }
      if (C == '"')
        InString = true;
      else if (C == ';')
        InComment = true;
      else if (C == '(')
        ++Depth;
      else if (C == ')' && Depth > 0)
        --Depth;
      HasText = HasText || !std::isspace(static_cast<unsigned char>(C));
    }
    Buf += Line;
    Buf += '\n';
    return Depth == 0 && !InString && HasText;
  }

  std::string take() {
    std::string Out = std::move(Buf);
    Buf.clear();
    Depth = 0;
    InString = false;
    HasText = false;
    return Out;
  }

  bool pending() const { return HasText; }

private:
  std::string Buf;
  int Depth = 0;
  bool InString = false;
  bool HasText = false;
};

void writeStats(const ServerOptions &Opts, const cache::VerdictCache *Cache,
                uint64_t Checks, int64_t WallUs) {
  if (Opts.StatsJson.empty())
    return;
  std::ofstream Out(Opts.StatsJson, std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "error: cannot write %s\n", Opts.StatsJson.c_str());
    return;
  }
  Out << "{\"wall_us\": " << WallUs << ", \"checks\": " << Checks;
  if (Cache) {
    cache::VerdictCacheCounters C = Cache->counters();
    Out << ", \"cache\": {\"hits\": " << C.Hits << ", \"misses\": " << C.Misses
        << ", \"inserts\": " << C.Inserts
        << ", \"evictions\": " << C.Evictions
        << ", \"revalidation_failures\": " << C.RevalidationFailures
        << ", \"size\": " << C.Size << "}";
  }
  Out << ", \"counters\": " << obs::MetricsRegistry::global().snapshot().json()
      << "}\n";
}

} // namespace

int main(int Argc, char **Argv) {
  ServerOptions Opts;
  Opts.Solve.TimeoutMs = 10000;
  if (!parseArgs(Argc, Argv, Opts))
    return 2;

  std::unique_ptr<cache::VerdictCache> Cache;
  if (Opts.CacheCapacity) {
    cache::VerdictCache::Config C;
    C.Capacity = Opts.CacheCapacity;
    Cache = std::make_unique<cache::VerdictCache>(C);
    if (!Opts.CacheLoad.empty()) {
      long Loaded = Cache->load(Opts.CacheLoad);
      if (Loaded < 0)
        std::fprintf(stderr, "; warning: cannot read cache %s\n",
                     Opts.CacheLoad.c_str());
      else
        std::fprintf(stderr, "; loaded %ld cached verdicts\n", Loaded);
    }
  }

  auto Stack = std::make_unique<ServerStack>(Opts.Solve);
  if (Cache)
    Stack->Session.setVerdictCache(Cache.get());
  uint64_t RetiredChecks = 0; // checks served by recycled stacks

  Stopwatch Wall;
  ChunkReader Reader;
  std::string Line;
  bool Done = false;
  while (!Done && std::getline(std::cin, Line)) {
    if (!Reader.feed(Line))
      continue;
    std::string Chunk = Reader.take();
    SExprParseResult Parsed = parseSExprs(Chunk);
    if (!Parsed.Ok) {
      std::cout << "(error \"parse error: " << Parsed.Error << "\")\n"
                << std::flush;
      continue;
    }
    for (const SExpr &Form : Parsed.Forms) {
      // Stack recycling safe point: at (reset) nothing outlives the
      // command, so when the arenas have outgrown their budget the whole
      // stack is rebuilt instead of reset. Both arenas count: one δdnf
      // product can leave millions of transition-regex nodes beside a few
      // thousand regex nodes. The verdict cache carries the accumulated
      // warmth across the swap.
      if (Form.isList() && !Form.Kids.empty() &&
          Form.Kids[0].isSymbol("reset") && Opts.ArenaBudget &&
          Stack->M.numNodes() + Stack->T.numNodes() > Opts.ArenaBudget) {
        RetiredChecks += Stack->Session.checksRun();
        Stack = std::make_unique<ServerStack>(Opts.Solve);
        if (Cache)
          Stack->Session.setVerdictCache(Cache.get());
        continue;
      }
      SmtSession::Reply R = Stack->Session.execute(Form);
      if (!R.Text.empty())
        std::cout << R.Text << "\n" << std::flush;
      if (R.ExitRequested) {
        Done = true;
        break;
      }
    }
  }

  if (Cache && !Opts.CacheSave.empty() && !Cache->save(Opts.CacheSave))
    std::fprintf(stderr, "error: cannot write cache %s\n",
                 Opts.CacheSave.c_str());
  writeStats(Opts, Cache.get(), RetiredChecks + Stack->Session.checksRun(),
             Wall.elapsedUs());
  return 0;
}
