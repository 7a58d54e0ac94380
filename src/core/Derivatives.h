//===- core/Derivatives.h - Symbolic and classical derivatives -------------===//
///
/// \file
/// The symbolic derivative δ : ERE → TR of Section 4, its solver normal form
/// δdnf (Section 5), and — independently implemented for cross-validation —
/// the classical Brzozowski derivative D_a : ERE → ERE for a concrete
/// character (Section 8.1), plus the derivative-based matcher used as ground
/// truth throughout the test suite.
///
/// Theorem 4.3 (correctness) states L(δ(R)(a)) = L(D_a(R)). Note this is
/// *language* equality: `apply(δ(R), a)` and `brzozowski(R, a)` need not be
/// the same interned node, because distributivity of `·`/`&` over `|` is not
/// one of the similarity laws the arena normalizes by. The property tests
/// check the equality by membership sampling and by solver-based language
/// equivalence.
///
//===----------------------------------------------------------------------===//

#ifndef SBD_CORE_DERIVATIVES_H
#define SBD_CORE_DERIVATIVES_H

#include "core/TransitionRegex.h"

#include <vector>

namespace sbd {

/// Computes and memoizes derivatives over one regex/transition-regex arena
/// pair.
class DerivativeEngine {
public:
  DerivativeEngine(RegexManager &Mgr, TrManager &TrMgr) : M(Mgr), T(TrMgr) {}

  RegexManager &regexManager() { return M; }
  TrManager &trManager() { return T; }

  /// δ(R): the symbolic derivative as a transition regex (Section 4).
  Tr derivative(Re R);

  /// δdnf(R): the derivative in the solver's normal form — conditionals and
  /// unions outermost, `&`/`~` pushed into ERE leaves, dead branches pruned.
  Tr derivativeDnf(Re R);

  /// D_Ch(R): classical Brzozowski derivative with respect to a concrete
  /// character. Implemented directly from the classical rules (not via δ)
  /// so that the two agree only if both are correct.
  Re brzozowski(Re R, uint32_t Ch);

  /// D_w(R): the classical derivative with respect to a whole word, folding
  /// D_Ch left to right. Deterministic re-entry point for the differential
  /// oracle's `w ∈ der_a(R) ⇔ aw ∈ R` law (fuzz/Oracle.h): the returned
  /// regex is an interned term that can be fed back into any engine.
  Re derivativeOfWord(Re R, const std::vector<uint32_t> &Word);

  /// ϵ-membership after consuming \p Word: the classical derivative matcher.
  /// A word with a character above MaxCodePoint is in no language.
  bool matches(Re R, const std::vector<uint32_t> &Word);

  /// Convenience: match an ASCII/UTF-8 string.
  bool matches(Re R, const std::string &Utf8);

  /// Drops all memo slots (δ, δdnf, Brzozowski) here and in the TrManager,
  /// so a long-running process can bound memory between queries. Interned
  /// arena nodes are untouched — handles stay valid, results stay identical.
  void clearCaches();

  /// Memo hit/miss counters for δ/δdnf/Brzozowski.
  const CacheStats &stats() const { return Stats; }
  void resetStats() { Stats.reset(); }

private:
  /// Tombstone for the dense id-indexed memo slots.
  static constexpr uint32_t MissingId = 0xFFFFFFFFu;

  Re brzozowskiUncached(Re R, uint32_t Ch);

  RegexManager &M;
  TrManager &T;
  /// δ / δdnf memo: inline slots indexed by Re id (ids are dense), value is
  /// the memoized Tr id or MissingId.
  std::vector<uint32_t> DerivMemo;
  std::vector<uint32_t> DnfMemo;
  /// Classical-derivative memo keyed by (regex id, character): the matcher
  /// walks D_a chains over the same states repeatedly, so this turns
  /// repeated matching into table lookups (the SRM argument of §8.5).
  FlatMap64 BrzMemo;
  /// δ's Union/Inter kids: a frame pushes each kid once its recursive call
  /// has returned and pops them after building the node.
  std::vector<Tr> KidStack;
  CacheStats Stats;
};

} // namespace sbd

#endif // SBD_CORE_DERIVATIVES_H
