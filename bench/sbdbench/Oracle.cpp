//===- bench/sbdbench/Oracle.cpp - Correctness checks ---------------------===//
///
/// \file
/// Runs after the timed phase, over the stored verdicts. The reference
/// stack here is built for the checks alone; the measured paths never see
/// it, so a bug that corrupts their arenas cannot also fool the check.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "baselines/BrzozowskiMintermSolver.h"
#include "core/Derivatives.h"
#include "re/RegexParser.h"

#include <unordered_map>

using namespace sbd;
using namespace sbdbench;

namespace {

struct ReferenceStack {
  RegexManager M;
  TrManager T{M};
  DerivativeEngine E{M, T};
};

/// The reference stack is rebuilt once its arena passes this many nodes.
constexpr size_t ReferenceArenaBudget = size_t{1} << 20;

} // namespace

OracleReport sbdbench::checkVerdicts(const std::vector<Query> &Queries,
                                     const std::vector<Verdict> &Verdicts) {
  OracleReport Out;
  auto Ref = std::make_unique<ReferenceStack>();
  // Unlabeled Unsat patterns, decided once each: 1 confirmed, 0 undecided,
  // -1 refuted (the reference finds the language nonempty).
  std::unordered_map<std::string, int> UnsatChecked;
  auto fail = [&](size_t I, const char *Why) {
    ++Out.Failed;
    if (Out.Examples.size() < 5)
      Out.Examples.push_back("query " + std::to_string(I) + " (" +
                             Queries[I].Pattern + "): " + Why);
  };
  for (size_t I = 0; I != Queries.size(); ++I) {
    const Query &Q = Queries[I];
    const Verdict &V = Verdicts[I];
    ++Out.Attempted;
    if (!V.ParseOk) {
      fail(I, "parse error");
      continue;
    }
    if (V.Status != SolveStatus::Sat && V.Status != SolveStatus::Unsat) {
      fail(I, statusName(V.Status));
      continue;
    }
    const bool Sat = V.Status == SolveStatus::Sat;
    if (Q.Expected && *Q.Expected != Sat) {
      ++Out.Wrong;
      fail(I, "verdict contradicts the construction label");
      continue;
    }
    if (!Sat && Q.Expected)
      continue;
    if (Ref->M.numNodes() > ReferenceArenaBudget)
      Ref = std::make_unique<ReferenceStack>();
    RegexParseResult P = parseRegex(Ref->M, Q.Pattern);
    if (!P.Ok) {
      ++Out.Wrong;
      fail(I, "verdict for a pattern the reference cannot parse");
      continue;
    }
    if (Sat) {
      if (!Ref->E.matches(P.Value, V.Witness)) {
        ++Out.Wrong;
        fail(I, "witness rejected by the reference matcher");
      }
      continue;
    }
    auto [It, New] = UnsatChecked.try_emplace(Q.Pattern, 0);
    if (New) {
      SolveOptions Opts;
      Opts.TimeoutMs = 2000;
      Opts.MaxStates = 200000;
      SolveResult R = BrzozowskiMintermSolver(Ref->E).solve(P.Value, Opts);
      It->second = R.isUnsat() ? 1 : R.isSat() ? -1 : 0;
    }
    if (It->second < 0) {
      ++Out.Wrong;
      fail(I, "Unsat, but the reference solver finds a word");
    } else if (It->second == 0) {
      ++Out.Unverified;
    }
  }
  return Out;
}
