//===- fuzz/Generator.h - Seeded random ERE + word generation --------------===//
///
/// \file
/// The generation half of the differential fuzzing subsystem (DESIGN.md
/// §11): a seeded, size-bounded random ERE generator weighted over *every*
/// constructor of the language — including the extended operators `&`, `~`,
/// bounded loops, and structured character classes — plus a paired word
/// generator biased toward *minterm witnesses* of the regex's own
/// predicates. The bias matters: a uniformly random character almost never
/// lands on the boundary between two overlapping predicates, which is
/// exactly where the derivative engines' case splits (and therefore their
/// bugs) live. Sampling one representative per minterm of ΨR guarantees
/// every Boolean combination of the regex's predicates is exercised.
///
/// Both generators are deterministic functions of their seed (splitmix64,
/// support/Rng.h): a CI fuzz failure reproduces locally from the seed in
/// its JSON report.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_FUZZ_GENERATOR_H
#define SBD_FUZZ_GENERATOR_H

#include "re/Regex.h"
#include "support/Rng.h"

#include <vector>

namespace sbd {
namespace fuzz {

/// Tunables for regex/word generation. The weights are relative ticket
/// counts in a weighted draw; a zero weight disables the constructor.
struct GeneratorOptions {
  /// Syntax-node budget for one generated regex (smart constructors may
  /// collapse the term further, so this is an upper bound).
  uint32_t MaxNodes = 24;
  /// Largest finite loop bound generated (keeps eager unrolling sane).
  uint32_t MaxLoopBound = 5;
  /// Longest generated input word.
  uint32_t MaxWordLen = 12;
  /// Cap on the minterm-witness pool primed per regex.
  uint32_t MaxPoolChars = 48;
  /// Cap on the predicate count fed into minterm computation.
  uint32_t MaxPredsForMinterms = 12;

  // Constructor weights.
  uint32_t WeightPred = 10;
  uint32_t WeightEpsilon = 1;
  uint32_t WeightEmpty = 1;
  uint32_t WeightConcat = 10;
  uint32_t WeightUnion = 6;
  uint32_t WeightInter = 4;
  uint32_t WeightStar = 4;
  uint32_t WeightLoop = 3;
  uint32_t WeightCompl = 3;
};

/// Seeded, size-bounded random ERE generator.
class RegexGenerator {
public:
  RegexGenerator(RegexManager &Mgr, uint64_t Seed, GeneratorOptions O = {})
      : M(Mgr), R(Seed), Opts(O) {}

  /// One random regex with at most Opts.MaxNodes syntax nodes.
  Re generate() { return gen(Opts.MaxNodes); }

  /// One random regex with an explicit node budget.
  Re generateWithBudget(uint32_t Budget) { return gen(Budget ? Budget : 1); }

  /// One random character-class predicate from the structured pool
  /// (singletons, ranges, named classes, complements, unions, full).
  CharSet generateCharSet();

  /// The underlying PRNG (shared with callers that need aligned draws).
  Rng &rng() { return R; }

private:
  Re gen(uint32_t Budget);
  Re genLeaf();
  /// (P·φ·X)|(P·ψ·Y) with φ∧ψ ≠ ⊥ and P often ε. The δdnf of such a union
  /// keeps one arc per branch, and their guards overlap, so BFS can reach
  /// two vertices by the same least word: the witness then depends on the
  /// search's tie rule, which other shapes almost never exercise.
  Re genOverlap(uint32_t Budget);

  RegexManager &M;
  Rng R;
  GeneratorOptions Opts;
};

/// Paired input-word generator, biased toward minterm witnesses of the
/// primed regex's predicates.
class WordGenerator {
public:
  WordGenerator(const RegexManager &Mgr, uint64_t Seed,
                GeneratorOptions O = {})
      : M(Mgr), R(Seed), Opts(O) {}

  /// Rebuilds the witness pool for \p Rx: one representative character per
  /// minterm of ΨRx (capped), plus a few fixed anchors.
  void prime(Re Rx);

  /// One random word. Roughly 80% of characters come from the minterm
  /// pool, the rest are random printable ASCII with an occasional
  /// arbitrary code point.
  std::vector<uint32_t> generate();

  /// The current minterm-witness pool (diagnostics/tests).
  const std::vector<uint32_t> &pool() const { return Pool; }

private:
  const RegexManager &M;
  Rng R;
  GeneratorOptions Opts;
  std::vector<uint32_t> Pool;
};

} // namespace fuzz
} // namespace sbd

#endif // SBD_FUZZ_GENERATOR_H
